// The unified execution facade. One entry point — kq::Executor — replaces
// the historical sprawl of exec::run_serial / exec::run_pipeline /
// stream::run_streaming{,_fd,_string}: one options struct (ExecOptions,
// merging RunConfig and StreamConfig), one input shape (Source: a
// string_view, an istream, or a file descriptor), one result shape
// (ExecResult, unifying RunResult/StreamResult and mapping batch
// StageMetrics into stream NodeMetrics). The legacy free functions remain
// for one PR as the facade's implementation layer and as test oracles; new
// call sites go through the facade (CI's deprecation gate enforces it).
//
// Mode semantics:
//   kStream (default) — the dataflow runtime: record-aligned blocks,
//     bounded channels, fused stream chains, sharded parallel segments,
//     spill. Memory O(k · window + in-flight budget) regardless of input.
//   kBatch  — the paper's staged runner: input slurped whole, stage
//     barriers, k-way split + combine. Memory O(input).
//   kSerial — the reference: every stage whole-stream, no parallelism.
//
// Parallelism default: ExecOptions::parallelism == 0 derives
// default_parallelism() = min(max(1, std::thread::hardware_concurrency()),
// 16) — one worker per hardware thread, capped because the in-flight
// memory budget and combine fan-in grow with k while the paper's scaling
// (Table 5/6) flattens past 16. Both the CLI's --jobs/-k and every mode of
// the facade resolve the same default, closing the historical
// RunConfig=1 / StreamConfig=4 split.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/runner.h"
#include "stream/dataflow.h"

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

// One knob set for every mode. Streaming-only fields (block_size,
// max_inflight, spill_threshold, shard_slice, delimiter) are ignored by
// kBatch/kSerial; parallelism and use_elimination apply to both executors.
struct ExecOptions {
  ExecMode mode = ExecMode::kStream;
  // 0 = default_parallelism(). kSerial ignores it; kBatch and kStream
  // receive the identical resolved value.
  int parallelism = 0;
  bool use_elimination = true;
  std::size_t block_size = 1 << 20;
  std::size_t max_inflight = 0;      // 0 derives 2 · parallelism + 2
  char delimiter = '\n';
  std::size_t spill_threshold = 64 << 20;
  std::size_t shard_slice = 0;       // 0 derives 2 · block_size
  // Deterministic fault-injection seam (tests only): scripted failpoints
  // the stream run's fd source and spill files consult (src/io/fault.h).
  // Must outlive the run.
  io::FaultPlan* fault_plan = nullptr;
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

// The one result shape. Stream runs fill the full telemetry; batch/serial
// runs map their StageMetrics into `nodes` (one entry per stage: command,
// combiner, chunks, bytes, elimination/fallback flags) and leave the
// stream-only gauges zero.
struct ExecResult {
  bool ok = true;
  std::string error;           // set when !ok
  std::string output;          // run_collect only (sink overloads leave it
                               // empty; batch/serial always collect)
  double seconds = 0;
  std::size_t peak_inflight_bytes = 0;  // stream: channel high-water mark
  std::size_t spilled_bytes = 0;        // stream: total spilled to disk
  std::size_t bytes_read = 0;           // stream: input bytes delivered
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

  // The options with parallelism/max_inflight defaults resolved.
  const ExecOptions& options() const { return options_; }

  // Drains `input` through the pipeline into `sink` (streaming delivery;
  // batch/serial modes invoke the sink once with the whole output).
  ExecResult run(const std::vector<exec::ExecStage>& stages, Source input,
                 const stream::Sink& sink);

  // Same, writing to an ostream.
  ExecResult run(const std::vector<exec::ExecStage>& stages, Source input,
                 std::ostream& output);

  // Collects the output into ExecResult::output. For a string source in
  // stream mode this carries run_streaming_string's combine-fallback
  // semantics: a mid-stream undefined combine reruns through the batch
  // path (batch_fallback set) instead of failing.
  ExecResult run_collect(const std::vector<exec::ExecStage>& stages,
                         Source input);

 private:
  exec::ThreadPool& pool();
  ExecResult run_stream(const std::vector<exec::ExecStage>& stages,
                        Source input, const stream::Sink& sink,
                        std::string* collect);
  ExecResult run_whole(const std::vector<exec::ExecStage>& stages,
                       Source input);

  ExecOptions options_;
  std::unique_ptr<exec::ThreadPool> pool_;
};

}  // namespace kq
