// Spill-to-disk machinery that makes *every* dataflow node's memory
// bounded, not just the parallel concat-combined ones. Three pieces:
//
//   - SpillFile: an anonymous (created-and-unlinked) temp file holding
//     spilled runs; positioned reads (pread) let many cursors share one fd.
//   - RawSpool: an accumulate-then-replay byte spool for stages that must
//     see their whole input (MemoryClass::kMaterialize). Accumulation past
//     the spill threshold moves to disk, so the in-memory footprint while
//     *draining* stays O(threshold); the single whole-stream execution
//     still materializes the input once, which is the floor for a
//     black-box command.
//   - SpillMerger: the external-merge engine behind
//     MemoryClass::kSortableSpill. Bounded in-memory batches become sorted
//     runs on disk (sorting each batch for a sequential `sort` stage,
//     merging pre-sorted chunk outputs for a merge-mode combiner), and a
//     final streaming k-way merge — the k-way `sort -m` of §3.5, lifted
//     from whole in-memory streams to disk-backed run cursors — re-streams
//     the result downstream in record-aligned blocks. Stability matches
//     the in-memory paths: runs are input-ordered, ties break on run
//     index, and -u dedupes across runs exactly like
//     SortSpec::merge_streams.
//
// One merge pass only: the number of runs is spilled_bytes / threshold, and
// each cursor buffers at most ~64 KiB, so merging stays O(runs · 64 KiB)
// resident. Multi-pass merging for pathological run counts is future work.
//
// Thread safety: these classes are deliberately lock-free because they are
// thread-COMPATIBLE, not thread-safe — each instance is owned by exactly
// one dataflow node thread for its whole lifetime (a window or sequential
// node's drain loop), so no concurrent access exists to synchronize. The
// one cross-thread touch point, pread(2) through a shared SpillFile fd, is
// safe because positioned reads carry their own offset and never mutate
// the file position. Do not share a RawSpool or SpillMerger across
// threads without adding external synchronization; docs/CONCURRENCY.md
// spells out this single-owner convention.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "io/engine.h"

namespace kq::cmd {
class SortSpec;
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
  // Reads exactly `n` bytes at `offset`; false on I/O error or short read.
  bool read_exact(std::size_t offset, char* buf, std::size_t n) const;

 private:
  io::Engine engine_;
  int fd_ = -1;
  std::size_t size_ = 0;
  mutable std::string error_;
};

// Byte spool for materialize-class accumulation: buffers up to `threshold`
// in memory, spills the rest, and replays everything on take(). A
// threshold of 0 disables spilling (pure in-memory accumulation).
class RawSpool {
 public:
  explicit RawSpool(std::size_t threshold, MemoryGauge* gauge = nullptr,
                    io::FaultPlan* faults = nullptr);
  ~RawSpool();

  bool add(std::string_view bytes);
  // Moves the full accumulation (disk prefix + in-memory tail) into `out`.
  bool take(std::string* out);

  bool spilled() const { return file_ != nullptr; }
  std::size_t spilled_bytes() const { return spilled_bytes_; }
  std::size_t size() const { return total_; }
  const std::string& error() const { return error_; }

  // Telemetry (src/obs/): spans "spool-spill" (each tranche moved to disk)
  // and "spool-take" (the replay) are recorded under `label` (the owning
  // stage's display name). Null tracer = no cost beyond one branch.
  void set_telemetry(obs::Tracer* tracer, std::string label) {
    tracer_ = tracer;
    label_ = std::move(label);
  }

 private:
  const std::size_t threshold_;
  MemoryGauge* const gauge_;
  io::FaultPlan* const faults_;
  obs::Tracer* tracer_ = nullptr;
  std::string label_;
  std::string buffer_;
  std::unique_ptr<SpillFile> file_;
  std::size_t spilled_bytes_ = 0;
  std::size_t total_ = 0;
  std::string error_;
};

// External merge: feeds become bounded sorted runs, finish() streams the
// k-way merge of all runs to `push` in record-aligned blocks.
class SpillMerger {
 public:
  enum class Input {
    kUnsortedBlocks,  // add() receives record-aligned raw input; each run
                      // is sorted with SortSpec::sort_stream (external sort)
    kSortedParts,     // add() receives whole pre-sorted chunk outputs; each
                      // run merges its batch with SortSpec::merge_streams
  };

  // `spec` supplies the comparator (and -u/-s semantics). `threshold` is
  // the in-memory batch budget; 0 means never spill (single in-memory run).
  SpillMerger(std::shared_ptr<const cmd::SortSpec> spec, Input mode,
              std::size_t threshold, MemoryGauge* gauge = nullptr,
              io::FaultPlan* faults = nullptr);
  ~SpillMerger();

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

  // Telemetry (src/obs/): spans "spill-run" (each sorted run written, with
  // a bytes arg) and "spill-merge" (the k-way merge in finish(), with a
  // runs arg) are recorded under `label` (the owning stage's display name).
  void set_telemetry(obs::Tracer* tracer, std::string label) {
    tracer_ = tracer;
    label_ = std::move(label);
  }

 private:
  struct RunExtent {
    std::size_t offset = 0;
    std::size_t size = 0;
  };

  bool flush_run();                 // batch -> one sorted run on disk
  std::string take_resident_run();  // sort/merge whatever never spilled
  void drop_mem(std::size_t n);

  const std::shared_ptr<const cmd::SortSpec> spec_;
  const Input mode_;
  const std::size_t threshold_;
  MemoryGauge* const gauge_;
  io::FaultPlan* const faults_;
  obs::Tracer* tracer_ = nullptr;
  std::string label_;

  std::string buffer_;               // kUnsortedBlocks batch
  std::vector<std::string> parts_;   // kSortedParts batch
  std::size_t mem_bytes_ = 0;

  std::unique_ptr<SpillFile> file_;
  std::vector<RunExtent> runs_;
  std::size_t spilled_bytes_ = 0;
  std::string error_;
};

}  // namespace kq::stream
