#include "exec/executor.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>

namespace kq {
namespace {

// Maps one batch/serial stage record into the unified node shape. The
// stream-only gauges stay zero; the batch-only combiner fields ride in the
// NodeMetrics extension block.
stream::NodeMetrics to_node(const exec::StageMetrics& s) {
  stream::NodeMetrics n;
  n.commands = s.command;
  n.combiner = s.combiner;
  n.parallel = s.parallel;
  n.chunks = s.chunks;
  n.in_bytes = s.in_bytes;
  n.out_bytes = s.out_bytes;
  n.seconds = s.seconds;
  n.combiner_eliminated = s.combiner_eliminated;
  n.combine_fallback = s.combine_fallback;
  return n;
}

ExecResult from_run_result(exec::RunResult&& r) {
  ExecResult out;
  out.output = std::move(r.output);
  out.seconds = r.seconds;
  out.nodes.reserve(r.stages.size());
  for (const exec::StageMetrics& s : r.stages) out.nodes.push_back(to_node(s));
  return out;
}

ExecResult from_stream_result(stream::StreamResult&& r) {
  ExecResult out;
  out.ok = r.ok;
  out.error = std::move(r.error);
  out.seconds = r.seconds;
  out.peak_inflight_bytes = r.peak_inflight_bytes;
  out.spilled_bytes = r.spilled_bytes;
  out.bytes_read = r.bytes_read;
  out.io_backend = "poll";
  out.stopped_early = r.stopped_early;
  out.combine_undefined = r.combine_undefined;
  out.batch_fallback = r.batch_fallback;
  out.nodes = std::move(r.nodes);
  return out;
}

// Drains a file descriptor for the batch modes (which need the whole
// input). Returns false on a read error (errno preserved in `err`).
bool slurp_fd(int fd, std::string* out, int* err) {
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      out->append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return true;
    if (errno == EINTR) continue;
    *err = errno;
    return false;
  }
}

}  // namespace

int default_parallelism() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return static_cast<int>(std::min(hw, 16u));
}

Executor::Executor(ExecOptions options) : options_(options) {
  if (options_.parallelism <= 0) options_.parallelism = default_parallelism();
}

Executor::~Executor() = default;

exec::ThreadPool& Executor::pool() {
  if (!pool_) pool_ = std::make_unique<exec::ThreadPool>(options_.parallelism);
  return *pool_;
}

ExecResult Executor::run_whole(const std::vector<exec::ExecStage>& stages,
                               Source input) {
  // Batch and serial need the whole input resident (that is their memory
  // class); non-string sources are slurped here.
  std::string owned;
  std::string_view bytes;
  switch (input.kind_) {
    case Source::Kind::kString:
      bytes = input.bytes_;
      break;
    case Source::Kind::kIstream: {
      std::ostringstream ss;
      ss << input.in_->rdbuf();
      owned = std::move(ss).str();
      bytes = owned;
      break;
    }
    case Source::Kind::kFd: {
      int err = 0;
      if (!slurp_fd(input.fd_, &owned, &err)) {
        ExecResult failed;
        failed.ok = false;
        failed.error =
            "input read error (errno " + std::to_string(err) + ")";
        return failed;
      }
      bytes = owned;
      break;
    }
  }
  if (options_.mode == ExecMode::kSerial)
    return from_run_result(exec::run_serial(stages, bytes));
  exec::RunConfig config{options_.parallelism, options_.use_elimination};
  return from_run_result(exec::run_pipeline(stages, bytes, pool(), config));
}

ExecResult Executor::run_stream(const std::vector<exec::ExecStage>& stages,
                                Source input, const stream::Sink& sink,
                                std::string* collect) {
  stream::StreamConfig config;
  config.parallelism = options_.parallelism;
  config.block_size = options_.block_size;
  config.max_inflight = options_.max_inflight;
  config.use_elimination = options_.use_elimination;
  config.delimiter = options_.delimiter;
  config.spill_threshold = options_.spill_threshold;
  config.shard_slice = options_.shard_slice;
  config.faults = options_.fault_plan;
  config.stats = options_.stats;
  config.tracer = options_.tracer;

  stream::Sink deliver = sink;
  if (collect) {
    deliver = [collect](std::string_view bytes) {
      collect->append(bytes);
      return true;
    };
  }

  switch (input.kind_) {
    case Source::Kind::kFd:
      return from_stream_result(stream::run_streaming_fd(
          stages, input.fd_, deliver, pool(), config));
    case Source::Kind::kIstream:
      return from_stream_result(
          stream::run_streaming(stages, *input.in_, deliver, pool(), config));
    case Source::Kind::kString: {
      // The string source keeps the original input at hand, so a mid-stream
      // undefined combine (the batch runner's combine-fallback guard) can
      // rerun through the batch path instead of failing — the semantics
      // run_streaming_string always had. Output is therefore buffered and
      // handed to the sink once at the end: a fallback after incremental
      // delivery would otherwise duplicate the already-delivered prefix.
      std::string buffered;
      std::string* target = collect ? collect : &buffered;
      std::istringstream in{std::string(input.bytes_)};
      stream::StreamResult r = stream::run_streaming(
          stages, in,
          [target](std::string_view bytes) {
            target->append(bytes);
            return true;
          },
          pool(), config);
      ExecResult out = from_stream_result(std::move(r));
      if (!out.ok && out.combine_undefined) {
        exec::RunConfig batch{options_.parallelism, options_.use_elimination};
        exec::RunResult rerun =
            exec::run_pipeline(stages, input.bytes_, pool(), batch);
        *target = std::move(rerun.output);
        out.ok = true;
        out.error.clear();
        out.batch_fallback = true;
      }
      if (out.ok && !collect && sink && !sink(buffered))
        out.stopped_early = true;
      return out;
    }
  }
  ExecResult unreachable;
  unreachable.ok = false;
  unreachable.error = "invalid source";
  return unreachable;
}

ExecResult Executor::run(const std::vector<exec::ExecStage>& stages,
                         Source input, const stream::Sink& sink) {
  if (options_.mode == ExecMode::kStream)
    return run_stream(stages, input, sink, nullptr);
  ExecResult result = run_whole(stages, input);
  if (result.ok && sink && !sink(result.output)) result.stopped_early = true;
  result.output.clear();
  return result;
}

ExecResult Executor::run(const std::vector<exec::ExecStage>& stages,
                         Source input, std::ostream& output) {
  return run(stages, input, [&output](std::string_view bytes) {
    output.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(output);
  });
}

ExecResult Executor::run_collect(const std::vector<exec::ExecStage>& stages,
                                 Source input) {
  if (options_.mode != ExecMode::kStream) return run_whole(stages, input);
  ExecResult result;
  std::string collected;
  result = run_stream(stages, input, nullptr, &collected);
  result.output = std::move(collected);
  return result;
}

}  // namespace kq
