// Spill-to-disk machinery that bounds the sort-class dataflow nodes: an
// external sort, a merge-combined collector, and a window that exports
// sorted runs. Two pieces:
//
//   - SpillFile: an anonymous (created-and-unlinked) temp file holding
//     spilled runs; positioned reads (pread) let many cursors share one fd.
//   - SpillMerger: the external-merge engine behind
//     MemoryClass::kSortableSpill. Bounded in-memory batches become sorted
//     runs on disk (sorting each batch for a sequential `sort` stage,
//     merging pre-sorted chunk outputs for a merge-mode combiner), and a
//     final merge — the k-way `sort -m` of §3.5, lifted from whole
//     in-memory streams to disk-backed run cursors — re-streams the result
//     downstream in record-aligned blocks.
//
// A stage that needs its whole input (a black-box command, a rerun
// combine) does not spill: it holds the input once for its one run, the
// floor for such a command (stream/sequential_node.cpp).
//
// Both merges (a batch of parts into one run, and every run at the end)
// go through one key-range merge. Splitters sampled from the runs cut
// every run with an upper-bound search under SortSpec::compare, so
// compare-equal lines never straddle two ranges; with a pool the ranges
// merge as pool tasks and are emitted in range order. Each range breaks
// ties on run index and dedups -u within itself, so stability and the
// first occurrence kept match SortSpec::merge_streams, the serial
// reference. Disk runs carry a sparse (offset, line) index written with
// them, so cutting a disk run reads one index interval (about 64 KiB).
//
// Memory. One merge pass only: the number of runs is spilled_bytes /
// threshold. Resident merge state is the batch (under `threshold`), the
// output the in-flight ranges hold (each at most range_budget() bytes —
// a range past its budget, say one key that is most of the input, pauses
// and the emitting thread finishes it block by block), and the cursors,
// each buffering at most ~64 KiB or its range's extent in its run.
// resident_bound() is the sum of the first two.
//
// Thread safety: SpillMerger is thread-COMPATIBLE, not thread-safe — each
// instance is owned by exactly one dataflow node thread for its whole
// lifetime. A merger with a pool runs its range tasks on pool threads, but
// only inside its own merge calls, which wait out every task before
// returning; the tasks share the runs read-only. SpillFile reads are safe
// to share: pread(2) carries its own offset and every read_exact() reports
// its error to its caller, so range tasks read one file at once with no
// shared mutable state. Appends stay with the owner and never overlap
// reads. docs/CONCURRENCY.md spells out this convention.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "io/engine.h"

namespace kq::cmd {
class SortSpec;
}

namespace kq::exec {
class ThreadPool;
}

namespace kq::obs {
class Tracer;
}

namespace kq::stream {

class MemoryGauge;

// An unlinked temp file (in $TMPDIR, else /tmp): append writes, positioned
// reads, auto-reclaimed on destruction or process death. All I/O goes
// through a kq::io::Engine that consults `faults` (a test-only seam; null
// in production) before every attempt; appends complete in place.
class SpillFile {
 public:
  explicit SpillFile(io::FaultPlan* faults = nullptr);
  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  bool valid() const { return fd_ >= 0; }
  // Nonempty once creation or any write failed.
  const std::string& error() const { return error_; }

  std::size_t size() const { return size_; }
  bool append(std::string_view bytes);
  // Reads exactly `n` bytes at `offset`; false on I/O error or short read,
  // with a coded message in *error. Safe from several threads at once.
  bool read_exact(std::size_t offset, char* buf, std::size_t n,
                  std::string* error) const;

 private:
  io::Engine engine_;
  int fd_ = -1;
  std::size_t size_ = 0;
  std::string error_;
};

// External merge: feeds become bounded sorted runs, finish() streams the
// merge of all runs to `push` in record-aligned blocks.
class SpillMerger {
 public:
  enum class Input {
    kUnsortedBlocks,  // add() receives record-aligned raw input; each run
                      // is sorted with SortSpec::sort_stream (external sort)
                      // and written from the batch's line index
    kSortedParts,     // add() receives whole pre-sorted chunk outputs; each
                      // run merges its batch by key range
  };

  // `spec` supplies the comparator (and -u/-s semantics). `threshold` is
  // the in-memory batch budget; 0 means never spill (everything merges
  // from memory in finish()).
  SpillMerger(std::shared_ptr<const cmd::SortSpec> spec, Input mode,
              std::size_t threshold, MemoryGauge* gauge = nullptr,
              io::FaultPlan* faults = nullptr);
  ~SpillMerger();

  // Splits merges into key ranges run as tasks on `pool`, about `ways` of
  // them at a time; the calling thread runs queued pool tasks while it
  // waits. Without a pool, or with ways <= 1, a merge is one range on the
  // calling thread.
  void set_pool(exec::ThreadPool* pool, int ways) {
    pool_ = pool;
    ways_ = ways < 1 ? 1 : static_cast<std::size_t>(ways);
  }

  // False on spill I/O error (see error()).
  bool add(std::string&& piece);

  // Merges every run and pushes the result in blocks of ~`block_size`
  // bytes, each ending at a record ('\n') boundary. Stops early (still
  // returning true) when `push` returns false; returns false only on I/O
  // error. Single-shot: the spill file is released before returning.
  bool finish(const std::function<bool(std::string&&)>& push,
              std::size_t block_size);

  int runs_spilled() const { return static_cast<int>(runs_.size()); }
  std::size_t spilled_bytes() const { return spilled_bytes_; }
  const std::string& error() const { return error_; }
  // The room the kUnsortedBlocks batch holds: at most the threshold plus
  // two of the largest pieces, since the batch reserves its whole size
  // before a doubling could overshoot the threshold.
  std::size_t batch_capacity() const { return buffer_.capacity(); }

  // The resident bytes the batch plus the in-flight ranges' output stay
  // within (unbounded at threshold 0).
  std::size_t resident_bound() const;

  // Telemetry (src/obs/): spans "spill-run" (each sorted run written, with
  // a bytes arg), "spill-merge" (the merge in finish(), with a runs arg)
  // and "merge-range" (one key range's pool task, with range and bytes
  // args) are recorded under `label` (the owning stage's display name).
  void set_telemetry(obs::Tracer* tracer, std::string label) {
    tracer_ = tracer;
    label_ = std::move(label);
  }

  // The sparse index of a disk run: the first line starting at or after
  // every ~64 KiB of the run, with its offset from the run's start.
  struct IndexEntry {
    std::size_t offset = 0;
    std::string line;
  };
  struct RunExtent {
    std::size_t offset = 0;
    std::size_t size = 0;
    std::vector<IndexEntry> index;
    std::size_t next_index = 0;  // run offset the next entry starts past
  };
  // One sorted run as a merge reads it: resident text, or a disk run.
  struct RunRef {
    std::string_view text;
    const RunExtent* disk = nullptr;
    std::size_t size() const { return disk ? disk->size : text.size(); }
  };

 private:
  using Emit = std::function<bool(std::string&&)>;

  // The most merge output one in-flight range holds before it pauses.
  std::size_t range_budget() const;
  bool flush_run();  // batch -> one sorted run on disk
  bool append_run(RunExtent& run, std::string_view bytes);
  // The one merge routine: merges `runs` (resident text, or the disk runs
  // named by `disk`) by key range and hands the output to `emit` in range
  // order, in blocks of ~`block_size`. Stops when `emit` returns false;
  // returns false only when a run read failed (error_ is set).
  bool merge_runs(const std::vector<RunRef>& runs, std::size_t block_size,
                  const Emit& emit);
  void drop_mem(std::size_t n);

  const std::shared_ptr<const cmd::SortSpec> spec_;
  const Input mode_;
  const std::size_t threshold_;
  MemoryGauge* const gauge_;
  io::FaultPlan* const faults_;
  obs::Tracer* tracer_ = nullptr;
  std::string label_;
  exec::ThreadPool* pool_ = nullptr;
  std::size_t ways_ = 1;

  std::string buffer_;               // kUnsortedBlocks batch
  std::vector<std::string> parts_;   // kSortedParts batch
  std::size_t mem_bytes_ = 0;

  std::unique_ptr<SpillFile> file_;
  std::vector<RunExtent> runs_;
  std::size_t spilled_bytes_ = 0;
  std::string error_;
};

}  // namespace kq::stream
