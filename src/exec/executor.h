// The execution facade: kq::Executor is the one way to run a pipeline. It
// takes one options type (ExecOptions), one input shape (Source: a
// string_view, an istream, or a file descriptor) and returns one result
// type (ExecResult). It runs the streaming dataflow runtime
// (stream/dataflow.h): record-aligned blocks, bounded channels, fused
// stream chains, sharded parallel segments, spill. Memory O(k · window +
// in-flight budget) regardless of input, except where a stage needs its
// whole input (a black-box command, a rerun combine): that node holds it.
// The one public function beside it is exec::run_serial (exec/runner.h),
// the serial oracle every run is tested against.
//
// Parallelism default: ExecOptions::parallelism == 0 derives
// default_parallelism() = min(max(1, std::thread::hardware_concurrency()),
// 16) — one worker per hardware thread, capped because the in-flight
// memory budget and combine fan-in grow with k while the paper's scaling
// (Table 5/6) flattens past 16. The CLI's --jobs/-k resolves the same
// default.
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

// The hardware-derived parallelism used when ExecOptions::parallelism is 0.
int default_parallelism();

// The run's knobs. A parallel segment, sharded or not, cuts chunks of at
// most block_size and has at most max_inflight of them in flight. A chunk
// never overshoots its target: the feeder sends its buffer before a piece
// would push it past, and only a single larger piece goes alone.
struct ExecOptions {
  int parallelism = 0;  // 0 = default_parallelism()
  bool use_elimination = true;  // false = the paper's "unoptimized" mode
  std::size_t block_size = 1 << 20;
  // Max chunks a parallel segment may have in flight (its memory budget is
  // max_inflight · block_size). 0 derives 2 · parallelism + 2.
  std::size_t max_inflight = 0;
  char delimiter = '\n';
  // In-memory accumulation budget per node before spilling sorted runs to
  // disk: an external sort, a merge-combined collector, a window that
  // exports sorted runs. A stage that needs its whole input (materialize,
  // rerun) holds it in memory whatever the threshold. Also caps a single
  // delimiter-free record: one that outgrows a block and this threshold
  // fails loudly (EMSGSIZE) instead of ballooning RSS. 0 disables spilling
  // (and the record cap).
  std::size_t spill_threshold = 64 << 20;
  // Deterministic fault-injection seam (tests only): scripted failpoints
  // the run's fd source and spill files consult (src/io/fault.h).
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

// The one result type: the output (run_collect only), the time, the
// run's gauges, and one NodeMetrics per dataflow node.
struct ExecResult {
  bool ok = true;
  std::string error;           // set when !ok
  std::string output;          // run_collect only
  double seconds = 0;
  std::size_t peak_inflight_bytes = 0;  // channel high-water mark
  std::size_t spilled_bytes = 0;        // total spilled to disk
  // Input bytes the BlockReader delivered — far below the input size when
  // a prefix-bounded stage (head) cancelled the upstream early.
  std::size_t bytes_read = 0;
  // The I/O engine the run used: always "poll" (src/io/engine.h). Kept
  // because the benchmark's result fingerprint reads it
  // (kqbench/layers.cpp).
  std::string io_backend;
  bool stopped_early = false;      // the sink returned false (ok stays true)
  bool combine_undefined = false;  // !ok: a combiner bailed mid-fold
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

  // Drains `input` through the pipeline into `sink`, handing it output as
  // it is produced. A combine proven undefined on the run's parts fails the
  // run (combine_undefined set) whatever the source; at parallelism 1
  // every stage runs sequentially and nothing combines.
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
  ExecOptions options_;
  std::unique_ptr<exec::ThreadPool> pool_;
};

}  // namespace kq
