// Tests for the kq::Executor facade (exec/executor.h): every source shape
// (string / istream / fd) must produce the serial oracle's output, options
// must resolve the parallelism default, and an undefined combine must fail
// a run the same way whatever the source.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "compile/optimize.h"
#include "compile/plan.h"
#include "exec/executor.h"
#include "exec/runner.h"
#include "unixcmd/registry.h"

namespace kq {
namespace {

std::vector<exec::ExecStage> compile_stages(const std::string& pipeline) {
  auto parsed = compile::parse_pipeline(pipeline);
  EXPECT_TRUE(parsed.has_value()) << pipeline;
  static synth::SynthesisCache cache;
  compile::Plan plan = compile::compile_pipeline(*parsed, cache);
  compile::eliminate_intermediate_combiners(plan);
  return compile::lower_plan(plan);
}

std::string sample_input() {
  std::string input;
  for (int i = 0; i < 1500; ++i)
    input += "alpha Beta gamma-" + std::to_string(i % 97) + " delta\n";
  return input;
}

// A temp file holding `bytes`, rewound to the start; returns its fd.
int fd_with(const std::string& bytes, FILE** keepalive) {
  FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  fwrite(bytes.data(), 1, bytes.size(), f);
  fflush(f);
  rewind(f);
  *keepalive = f;
  return fileno(f);
}

TEST(Executor, DefaultParallelismIsHardwareDerivedAndCapped) {
  int d = default_parallelism();
  EXPECT_GE(d, 1);
  EXPECT_LE(d, 16);
  Executor defaulted;
  EXPECT_EQ(defaulted.options().parallelism, d);
  ExecOptions explicit_k;
  explicit_k.parallelism = 3;
  Executor chosen(explicit_k);
  EXPECT_EQ(chosen.options().parallelism, 3);
}

TEST(Executor, AllSourcesByteIdentical) {
  auto stages = compile_stages("tr a-z A-Z | grep ALPHA | wc -l");
  const std::string input = sample_input();
  const std::string golden = exec::run_serial(stages, input);
  ASSERT_FALSE(golden.empty());

  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 4 << 10;
  Executor executor(options);

  // String source, collected.
  kq::ExecResult from_string = executor.run_collect(stages, input);
  ASSERT_TRUE(from_string.ok) << from_string.error;
  EXPECT_EQ(from_string.output, golden);

  // istream source through the sink overload.
  std::istringstream in(input);
  std::string sunk;
  kq::ExecResult from_stream =
      executor.run(stages, in, [&sunk](std::string_view bytes) {
        sunk.append(bytes);
        return true;
      });
  ASSERT_TRUE(from_stream.ok) << from_stream.error;
  EXPECT_EQ(sunk, golden);

  // fd source through the ostream overload.
  FILE* keepalive = nullptr;
  int fd = fd_with(input, &keepalive);
  std::ostringstream out;
  kq::ExecResult from_fd = executor.run(stages, Source::from_fd(fd), out);
  ASSERT_TRUE(from_fd.ok) << from_fd.error;
  EXPECT_EQ(out.str(), golden);
  fclose(keepalive);
}

TEST(Executor, StreamModeReportsStreamTelemetry) {
  auto stages = compile_stages("grep alpha");
  const std::string input = sample_input();
  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 1024;
  Executor executor(options);
  kq::ExecResult r = executor.run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.bytes_read, input.size());
  EXPECT_GT(r.peak_inflight_bytes, 0u);
  EXPECT_FALSE(r.nodes.empty());
}

TEST(Executor, SinkFalseStopsEarly) {
  auto stages = compile_stages("grep alpha");
  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 512;
  Executor executor(options);
  std::istringstream in(sample_input());
  int deliveries = 0;
  kq::ExecResult r = executor.run(stages, in, [&](std::string_view) {
    return ++deliveries < 2;  // close after the second delivery
  });
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.stopped_early);
}

TEST(Executor, StringSourceFailsAnUndefinedCombineAsAnFdDoes) {
  // A deliberately broken combiner: the run bails at the combine, and a
  // string source fails it with the fd source's message.
  std::vector<exec::ExecStage> stages;
  exec::ExecStage s;
  s.command = cmd::make_command_line("tr a-z A-Z");
  s.parallel = true;
  s.combiner_name = "(broken)";
  s.combine = [](const std::vector<std::string>&)
      -> std::optional<std::string> { return std::nullopt; };
  stages.push_back(std::move(s));

  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 4;
  Executor executor(options);
  const std::string input = "ab\ncd\nef\ngh\n";
  kq::ExecResult from_string = executor.run_collect(stages, input);
  EXPECT_FALSE(from_string.ok);
  EXPECT_TRUE(from_string.combine_undefined) << from_string.error;
  EXPECT_NE(from_string.error.find(
                "incremental combine undefined for stage 'tr a-z A-Z'"),
            std::string::npos)
      << from_string.error;

  FILE* keepalive = nullptr;
  const int fd = fd_with(input, &keepalive);
  kq::ExecResult from_fd = executor.run(
      stages, Source::from_fd(fd), [](std::string_view) { return true; });
  fclose(keepalive);
  EXPECT_FALSE(from_fd.ok);
  EXPECT_TRUE(from_fd.combine_undefined) << from_fd.error;
  EXPECT_EQ(from_string.error, from_fd.error);
}

}  // namespace
}  // namespace kq
