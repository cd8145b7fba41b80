#include "exec/executor.h"

#include <algorithm>
#include <ostream>
#include <thread>

#include "stream/block_reader.h"

namespace kq {

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

ExecResult Executor::run(const std::vector<exec::ExecStage>& stages,
                         Source input, const stream::Sink& sink) {
  // A record that cannot even be buffered within the spill budget fails
  // loudly (EMSGSIZE) rather than growing the reader without bound.
  const stream::BlockReaderOptions read_options{
      options_.block_size, options_.delimiter, options_.spill_threshold};
  // One reader per source kind; the string source reads the caller's bytes
  // in place.
  std::unique_ptr<stream::BlockReader> reader;
  switch (input.kind_) {
    case Source::Kind::kFd:
      reader = std::make_unique<stream::BlockReader>(input.fd_, read_options,
                                                     options_.fault_plan);
      break;
    case Source::Kind::kIstream:
      reader = std::make_unique<stream::BlockReader>(*input.in_, read_options);
      break;
    case Source::Kind::kString:
      reader = std::make_unique<stream::BlockReader>(
          [rest = input.bytes_](char* buf, std::size_t n) mutable {
            const std::size_t got = rest.copy(buf, n);
            rest.remove_prefix(got);
            return got;
          },
          read_options);
      break;
  }
  return stream::run_dataflow(stages, *reader, sink, pool(), options_);
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
  std::string collected;
  ExecResult result =
      run(stages, input, [&collected](std::string_view bytes) {
        collected.append(bytes);
        return true;
      });
  result.output = std::move(collected);
  return result;
}

}  // namespace kq
