// The execution facade: kq::Executor is the one way to run a pipeline. It
// takes one options type (ExecOptions), one input shape (Source: a
// string_view, an istream, or a file descriptor) and returns one result
// type (ExecResult) from every mode. The one public function beside it is
// exec::run_serial (exec/runner.h), the serial oracle tests compare every
// mode against.
//
// Mode semantics:
//   kStream (default) — the dataflow runtime (stream/dataflow.h):
//     record-aligned blocks, bounded channels, fused stream chains,
//     sharded parallel segments, spill. Memory O(k · window + in-flight
//     budget) regardless of input.
//   kBatch  — the paper's staged runner (§4), private to the Executor:
//     input slurped whole, stage barriers, k-way split + combine, and a
//     serial rerun of any stage whose combine is undefined. Memory
//     O(input).
//   kSerial — exec::run_serial: every stage whole-stream, no parallelism.
//
// Parallelism default: ExecOptions::parallelism == 0 derives
// default_parallelism() = min(max(1, std::thread::hardware_concurrency()),
// 16) — one worker per hardware thread, capped because the in-flight
// memory budget and combine fan-in grow with k while the paper's scaling
// (Table 5/6) flattens past 16. The CLI's --jobs/-k and every mode of the
// facade resolve the same default.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/runner.h"
#include "exec/thread_pool.h"
#include "stream/dataflow.h"

namespace kq::io {
class FaultPlan;
}

namespace kq::obs {
class Tracer;
}

namespace kq {

enum class ExecMode {
  kSerial,
  kBatch,
  kStream,
};

inline const char* exec_mode_name(ExecMode m) {
  switch (m) {
    case ExecMode::kSerial: return "serial";
    case ExecMode::kBatch: return "batch";
    case ExecMode::kStream: return "stream";
  }
  return "?";
}

// The hardware-derived parallelism used when ExecOptions::parallelism is 0.
int default_parallelism();

// One knob set for every mode. The stream-only fields (block_size,
// max_inflight, delimiter, spill_threshold, fault_plan, stats, tracer) are
// ignored by kBatch and kSerial; parallelism and use_elimination apply to
// both parallel modes. A parallel segment, sharded or not, cuts chunks of
// at most block_size and has at most max_inflight of them in flight. A
// chunk never overshoots its target: the feeder sends its buffer before a
// piece would push it past, and only a single larger piece goes alone.
struct ExecOptions {
  ExecMode mode = ExecMode::kStream;
  // 0 = default_parallelism(). kSerial ignores it; kBatch and kStream
  // receive the identical resolved value.
  int parallelism = 0;
  bool use_elimination = true;  // false = the paper's "unoptimized" mode
  std::size_t block_size = 1 << 20;
  // Max chunks a parallel segment may have in flight (its memory budget is
  // max_inflight · block_size). 0 derives 2 · parallelism + 2.
  std::size_t max_inflight = 0;
  char delimiter = '\n';
  // In-memory accumulation budget per node before spilling to disk
  // (sorted-run external merge for sortable stages, raw spool for
  // materialize/rerun stages). Also caps a single delimiter-free record:
  // one that outgrows a block and this threshold fails loudly (EMSGSIZE)
  // instead of ballooning RSS. 0 disables spilling (and the record cap).
  std::size_t spill_threshold = 64 << 20;
  // Deterministic fault-injection seam (tests only): scripted failpoints
  // the stream run's fd source and spill files consult (src/io/fault.h).
  // Must outlive the run.
  io::FaultPlan* fault_plan = nullptr;
  // Telemetry (src/obs/). `stats` allocates per-node obs::StageCounters and
  // fills the extended NodeMetrics fields; a non-null `tracer` records
  // spans for --trace-json. Both default off; the disabled hot path pays
  // one branch per block and never touches the clock.
  bool stats = false;
  obs::Tracer* tracer = nullptr;
};

// Where the input bytes come from. Small value type: the referenced
// stream/buffer must outlive the run() call (the Executor never owns it).
class Source {
 public:
  Source(std::string_view bytes) : kind_(Kind::kString), bytes_(bytes) {}
  Source(const std::string& bytes)
      : kind_(Kind::kString), bytes_(bytes) {}
  Source(const char* bytes) : kind_(Kind::kString), bytes_(bytes) {}
  Source(std::istream& in) : kind_(Kind::kIstream), in_(&in) {}
  static Source from_fd(int fd) {
    Source s;
    s.kind_ = Kind::kFd;
    s.fd_ = fd;
    return s;
  }

 private:
  friend class Executor;
  enum class Kind { kString, kIstream, kFd };
  Source() = default;
  Kind kind_ = Kind::kString;
  std::string_view bytes_;
  std::istream* in_ = nullptr;
  int fd_ = -1;
};

// The one result type. Stream runs fill the full telemetry, one node per
// dataflow segment; batch runs fill one node per stage (command, combiner,
// chunks, bytes, elimination/fallback flags) and leave the stream-only
// gauges zero; serial runs fill the output and the time.
struct ExecResult {
  bool ok = true;
  std::string error;           // set when !ok
  std::string output;          // run_collect only
  double seconds = 0;
  std::size_t peak_inflight_bytes = 0;  // stream: channel high-water mark
  std::size_t spilled_bytes = 0;        // stream: total spilled to disk
  // stream: input bytes the BlockReader delivered — far below the input
  // size when a prefix-bounded stage (head) cancelled the upstream early.
  std::size_t bytes_read = 0;
  // The I/O engine a stream run used: always "poll" (src/io/engine.h);
  // empty for batch/serial runs. Kept because the benchmark's result
  // fingerprint reads it (kqbench/layers.cpp).
  std::string io_backend;
  bool stopped_early = false;      // the sink returned false (ok stays true)
  bool combine_undefined = false;  // !ok: a combiner bailed mid-fold
  bool batch_fallback = false;     // stream-over-string reran via batch
  std::vector<stream::NodeMetrics> nodes;
};

// The facade. Owns its worker pool (sized to the resolved parallelism,
// created lazily on first parallel use), so constructing one per
// configuration is cheap and running many pipelines through it amortizes
// thread startup.
class Executor {
 public:
  explicit Executor(ExecOptions options = {});
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // The options with the parallelism default resolved.
  const ExecOptions& options() const { return options_; }

  // Drains `input` through the pipeline into `sink` (streaming delivery;
  // batch/serial modes invoke the sink once with the whole output).
  ExecResult run(const std::vector<exec::ExecStage>& stages, Source input,
                 const stream::Sink& sink);

  // Same, writing to an ostream.
  ExecResult run(const std::vector<exec::ExecStage>& stages, Source input,
                 std::ostream& output);

  // Collects the output into ExecResult::output.
  ExecResult run_collect(const std::vector<exec::ExecStage>& stages,
                         Source input);

 private:
  exec::ThreadPool& pool();
  // kStream. A string source keeps the input at hand, so a mid-stream
  // undefined combine reruns through run_batch (batch_fallback set)
  // instead of failing; its output is buffered and reaches the sink once.
  ExecResult run_stream(const std::vector<exec::ExecStage>& stages,
                        Source input, const stream::Sink& sink,
                        std::string* collect);
  // kBatch and kSerial, over the whole input (slurped from a stream or fd).
  ExecResult run_whole(const std::vector<exec::ExecStage>& stages,
                       Source input);
  ExecResult run_batch(const std::vector<exec::ExecStage>& stages,
                       std::string_view input);
  ExecResult run_staged(const std::vector<exec::ExecStage>& stages,
                        std::string_view input);  // throws on a failed stage

  ExecOptions options_;
  std::unique_ptr<exec::ThreadPool> pool_;
};

}  // namespace kq
