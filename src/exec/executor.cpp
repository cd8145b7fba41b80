#include "exec/executor.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>

#include "exec/parallel.h"
#include "exec/splitter.h"
#include "stream/block_reader.h"

namespace kq {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
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

// The parts a combine sees: outputs whose chunk was empty are f(""), and
// since x ++ "" = x, leaving them out is exact for every command — where
// folding them in trusts the combiner on an input it was never certified
// on (`second` would keep the empty last part of `grep a | tail -n 1`). If
// no chunk had input, f("") is the whole answer.
std::vector<std::string> parts_with_input(
    std::vector<std::string> outputs,
    const std::vector<std::string_view>& chunks) {
  std::vector<std::string> parts;
  parts.reserve(outputs.size());
  for (std::size_t i = 0; i < outputs.size(); ++i)
    if (!chunks[i].empty()) parts.push_back(std::move(outputs[i]));
  if (parts.empty() && !outputs.empty()) parts.push_back(std::move(outputs[0]));
  return parts;
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

// A stage that failed (cmd::Result::failed(): a regex search past its
// backtracking budget) throws out of Command::run or a chunk's processor,
// and the run fails with its message rather than pass partial output on.
ExecResult Executor::run_batch(const std::vector<exec::ExecStage>& stages,
                               std::string_view input) {
  try {
    return run_staged(stages, input);
  } catch (const std::exception& e) {
    ExecResult failed;
    failed.ok = false;
    failed.error = e.what();
    return failed;
  }
}

// The paper's staged runner (§4): every stage executes to completion before
// the next starts, each parallel stage fans out to `parallelism` instances
// of the original command, and (under use_elimination) a stage whose
// combiner was eliminated streams its output substreams directly into the
// next parallel stage.
ExecResult Executor::run_staged(const std::vector<exec::ExecStage>& stages,
                                std::string_view input) {
  ExecResult result;
  const auto total_start = Clock::now();
  const int k = options_.parallelism;

  // The in-flight data is either one combined stream or, when non-empty,
  // the substreams an eliminated combiner left uncombined.
  std::string current(input);
  std::vector<std::string> substreams;

  for (std::size_t s = 0; s < stages.size(); ++s) {
    const exec::ExecStage& stage = stages[s];
    stream::NodeMetrics m;
    m.commands = stage.command->display_name();
    m.combiner = stage.combiner_name;
    m.parallel = stage.parallel && k > 1;
    m.chunks = 1;
    const auto stage_start = Clock::now();

    if (!m.parallel) {
      // Sequential stage. No substreams are pending here: an eliminated
      // combiner requires a next stage that runs parallel.
      m.in_bytes = current.size();
      current = stage.command->run(current);
      m.out_bytes = current.size();
    } else {
      std::vector<std::string_view> chunks;
      if (!substreams.empty()) {
        chunks.reserve(substreams.size());
        for (const std::string& part : substreams) chunks.push_back(part);
      } else {
        chunks = exec::split_stream(current, k);
      }
      for (std::string_view c : chunks) m.in_bytes += c.size();
      m.chunks = static_cast<int>(chunks.size());

      std::vector<std::string> outputs =
          exec::map_chunks(*stage.command, chunks, pool());

      const bool can_eliminate =
          options_.use_elimination && stage.eliminate_combiner &&
          s + 1 < stages.size() && stages[s + 1].parallel;
      if (can_eliminate) {
        m.combiner_eliminated = true;
        for (const std::string& o : outputs) m.out_bytes += o.size();
        substreams = std::move(outputs);  // split_stream gave >= 1 chunk
        current.clear();
      } else {
        std::optional<std::string> combined;
        if (stage.combine)
          combined =
              stage.combine(parts_with_input(std::move(outputs), chunks));
        if (!combined) {
          // Correctness guard: if k-way combination is undefined on these
          // outputs, fall back to running the stage serially.
          m.combine_fallback = true;
          std::string joined;
          for (std::string_view c : chunks) joined.append(c);
          combined = stage.command->run(joined);
        }
        substreams.clear();
        current = std::move(*combined);
        m.out_bytes = current.size();
      }
    }
    m.seconds = seconds_since(stage_start);
    result.nodes.push_back(std::move(m));
  }

  result.output = std::move(current);
  result.seconds = seconds_since(total_start);
  return result;
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
  if (options_.mode == ExecMode::kBatch) return run_batch(stages, bytes);
  ExecResult result;
  const auto start = Clock::now();
  try {
    result.output = exec::run_serial(stages, bytes);
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  result.seconds = seconds_since(start);
  return result;
}

ExecResult Executor::run_stream(const std::vector<exec::ExecStage>& stages,
                                Source input, const stream::Sink& sink,
                                std::string* collect) {
  // A record that cannot even be buffered within the spill budget fails
  // loudly (EMSGSIZE) rather than growing the reader without bound.
  const stream::BlockReaderOptions read_options{
      options_.block_size, options_.delimiter, options_.spill_threshold};
  if (input.kind_ != Source::Kind::kString) {
    stream::Sink deliver = sink;
    if (collect) {
      deliver = [collect](std::string_view bytes) {
        collect->append(bytes);
        return true;
      };
    }
    if (input.kind_ == Source::Kind::kFd) {
      stream::BlockReader reader(input.fd_, read_options, options_.fault_plan);
      return stream::run_dataflow(stages, reader, deliver, pool(), options_);
    }
    stream::BlockReader reader(*input.in_, read_options);
    return stream::run_dataflow(stages, reader, deliver, pool(), options_);
  }

  // The string source reads the caller's bytes in place and keeps them at
  // hand for the batch rerun, so its output is buffered and handed to the
  // sink once at the end: a fallback after incremental delivery would
  // otherwise duplicate the already-delivered prefix.
  std::string buffered;
  std::string* target = collect ? collect : &buffered;
  stream::BlockReader reader(
      [rest = input.bytes_](char* buf, std::size_t n) mutable {
        const std::size_t got = rest.copy(buf, n);
        rest.remove_prefix(got);
        return got;
      },
      read_options);
  ExecResult out = stream::run_dataflow(
      stages, reader,
      [target](std::string_view bytes) {
        target->append(bytes);
        return true;
      },
      pool(), options_);
  if (!out.ok && out.combine_undefined) {
    ExecResult batch = run_batch(stages, input.bytes_);
    if (batch.ok) {
      *target = std::move(batch.output);
      out.ok = true;
      out.error.clear();
      out.batch_fallback = true;
    } else {
      out.error = std::move(batch.error);
    }
  }
  if (out.ok && !collect && sink && !sink(buffered)) out.stopped_early = true;
  return out;
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
  std::string collected;
  ExecResult result = run_stream(stages, input, nullptr, &collected);
  result.output = std::move(collected);
  return result;
}

}  // namespace kq
