// Tests for the kq::Executor facade (exec/executor.h): every mode
// (serial / batch / stream) over every source shape (string / istream /
// fd) must produce byte-identical output, options must resolve the unified
// parallelism default, and the string-source stream path must rerun
// through the batch path when a combine turns out undefined mid-stream.

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

TEST(Executor, AllModesAllSourcesByteIdentical) {
  auto stages = compile_stages("tr a-z A-Z | grep ALPHA | wc -l");
  const std::string input = sample_input();
  const std::string golden = exec::run_serial(stages, input);
  ASSERT_FALSE(golden.empty());

  for (ExecMode mode :
       {ExecMode::kSerial, ExecMode::kBatch, ExecMode::kStream}) {
    ExecOptions options;
    options.mode = mode;
    options.parallelism = 4;
    options.block_size = 2048;
    Executor executor(options);

    // String source, collected.
    kq::ExecResult from_string = executor.run_collect(stages, input);
    ASSERT_TRUE(from_string.ok) << exec_mode_name(mode) << ": "
                                << from_string.error;
    EXPECT_EQ(from_string.output, golden) << exec_mode_name(mode);

    // istream source through the sink overload.
    std::istringstream in(input);
    std::string sunk;
    kq::ExecResult from_stream = executor.run(
        stages, in, [&sunk](std::string_view bytes) {
          sunk.append(bytes);
          return true;
        });
    ASSERT_TRUE(from_stream.ok) << exec_mode_name(mode) << ": "
                                << from_stream.error;
    EXPECT_EQ(sunk, golden) << exec_mode_name(mode);

    // fd source through the ostream overload.
    FILE* keepalive = nullptr;
    int fd = fd_with(input, &keepalive);
    std::ostringstream out;
    kq::ExecResult from_fd =
        executor.run(stages, Source::from_fd(fd), out);
    ASSERT_TRUE(from_fd.ok) << exec_mode_name(mode) << ": " << from_fd.error;
    EXPECT_EQ(out.str(), golden) << exec_mode_name(mode);
    fclose(keepalive);
  }
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

TEST(Executor, BatchModeFillsOneNodePerStage) {
  auto stages = compile_stages("tr a-z A-Z | wc -l");
  ExecOptions options;
  options.mode = ExecMode::kBatch;
  options.parallelism = 2;
  Executor executor(options);
  kq::ExecResult r = executor.run_collect(stages, sample_input());
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.nodes.size(), 2u);
  EXPECT_EQ(r.nodes[0].commands, "tr a-z A-Z");
  EXPECT_TRUE(r.nodes[0].parallel);
  EXPECT_FALSE(r.nodes[0].combiner.empty());
  EXPECT_GT(r.nodes[0].in_bytes, 0u);
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

TEST(Executor, StringSourceStreamFallsBackToBatchOnUndefinedCombine) {
  // A deliberately broken combiner: streaming must bail mid-fold, and the
  // string source (the only shape whose input is still at hand) must rerun
  // through the batch path exactly once — no duplicated prefix.
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
  kq::ExecResult r = executor.run_collect(stages, "ab\ncd\nef\ngh\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.batch_fallback);
  EXPECT_EQ(r.output, "AB\nCD\nEF\nGH\n");
}

}  // namespace
}  // namespace kq
