// GNU-compat golden tests for the window-bounded built-ins (ISSUE 4):
// `tail -n N`, `uniq`/`-c`/`-d`/`-u` (and combinations), `wc` count
// selections including -m, and `sort -u` under numeric/key/fold/reverse
// comparators. Every expected string below is the byte output of the real
// GNU tool (coreutils, LC_ALL=C.UTF-8 for -m), and every case executes
// through three runtimes: the serial oracle, the streaming dataflow
// runtime with the stage lowered as a window node (kWindowStream), and the
// streaming runtime with spilling forced (threshold 1), which drives the
// sort -u window through its export-sorted-runs path.
//
// Also cross-validates the full 70-script catalog with window streaming
// forced on (every stage sequential, tiny blocks, tiny spill threshold) —
// the window twin of stream_test's forced-sequential crossval.

#include <gtest/gtest.h>

#include "bench_support/catalog.h"
#include "compile/optimize.h"
#include "compile/plan.h"
#include "exec/executor.h"
#include "exec/runner.h"
#include "unixcmd/registry.h"
#include "unixcmd/sort_cmd.h"

namespace kq {
namespace {

struct GoldenCase {
  const char* command;
  const char* input;
  const char* expected;  // GNU-verified bytes
};

// Mirrors compile::lower_plan's streamability classification for a
// hand-built sequential stage.
exec::ExecStage make_stage(const cmd::CommandPtr& command) {
  exec::ExecStage stage;
  stage.command = command;
  if (command->streamability() == cmd::Streamability::kWindow) {
    stage.memory_class = exec::MemoryClass::kWindowStream;
    stage.sort_spec = cmd::sort_spec_of(*command);
  } else if (command->streamability() != cmd::Streamability::kNone) {
    stage.memory_class = exec::MemoryClass::kStatelessStream;
  }
  return stage;
}

class WindowGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(WindowGolden, BatchStreamAndSpillAgree) {
  const GoldenCase& c = GetParam();
  std::string error;
  cmd::CommandPtr command = cmd::make_command_line(c.command, &error);
  ASSERT_NE(command, nullptr) << c.command << ": " << error;
  ASSERT_EQ(command->streamability(), cmd::Streamability::kWindow)
      << c.command << " should be window-bounded";
  ASSERT_NE(command->window_processor(), nullptr) << c.command;

  // Direct execution (the serial oracle's floor).
  EXPECT_EQ(command->run(c.input), c.expected) << c.command;

  std::vector<exec::ExecStage> stages{make_stage(command)};
  EXPECT_EQ(exec::run_serial(stages, c.input), c.expected)
      << c.command << " (serial)";

  // Tiny blocks force many pushes per window; tiny thresholds force the
  // sort -u export path. (spill also caps oversized records, so the
  // tiny-block runs pair with a threshold above the longest test record.)
  struct RunCfg {
    std::size_t block, spill;
  };
  for (RunCfg rc : {RunCfg{4, 64 << 20}, RunCfg{std::size_t(1) << 20,
                                                std::size_t(64) << 20},
                    RunCfg{4, 32}, RunCfg{std::size_t(1) << 20, 1}}) {
    ExecOptions options;
    options.parallelism = 2;
    options.block_size = rc.block;
    options.spill_threshold = rc.spill;
    options.stats = true;
    ExecResult r = Executor(options).run_collect(stages, c.input);
    ASSERT_TRUE(r.ok) << c.command << ": " << r.error;
    ASSERT_EQ(r.nodes.size(), 1u);
    EXPECT_EQ(r.nodes[0].memory, "window-stream")
        << c.command << " should run as a window node";
    EXPECT_EQ(r.output, c.expected)
        << c.command << " (stream, block=" << rc.block
        << ", spill=" << rc.spill << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    TailLastN, WindowGolden,
    ::testing::Values(
        GoldenCase{"tail -n 3", "a\nb\nc\nd\ne\n", "c\nd\ne\n"},
        GoldenCase{"tail -3", "a\nb\nc\nd\ne\n", "c\nd\ne\n"},
        // GNU tail copies the input's bytes: an unterminated last line
        // stays unterminated.
        GoldenCase{"tail -n 3", "a\nb\nc\nd\ne", "c\nd\ne"},
        GoldenCase{"tail -n 0", "a\nb\nc\nd\ne\n", ""},
        GoldenCase{"tail -n 1", "\n\n", "\n"},
        GoldenCase{"tail -n 2", "x", "x"},
        GoldenCase{"tail -n 10", "a\nb\n", "a\nb\n"},
        GoldenCase{"tail -n 2", "", ""}));

INSTANTIATE_TEST_SUITE_P(
    Uniq, WindowGolden,
    ::testing::Values(
        GoldenCase{"uniq", "a\na\nb\nc\nc\nc\nb\n", "a\nb\nc\nb\n"},
        GoldenCase{"uniq -c", "a\na\nb\nc\nc\nc\nb\n",
                   "      2 a\n      1 b\n      3 c\n      1 b\n"},
        GoldenCase{"uniq -d", "a\na\nb\nc\nc\nc\nb\n", "a\nc\n"},
        GoldenCase{"uniq -u", "a\na\nb\nc\nc\nc\nb\n", "b\nb\n"},
        GoldenCase{"uniq -cd", "a\na\nb\nc\nc\nc\nb\n",
                   "      2 a\n      3 c\n"},
        GoldenCase{"uniq -cu", "a\na\nb\nc\nc\nc\nb\n",
                   "      1 b\n      1 b\n"},
        // -d -u together prints nothing, matching GNU.
        GoldenCase{"uniq -du", "a\na\nb\nc\nc\nc\nb\n", ""},
        // GNU uniq re-terminates an unterminated final line.
        GoldenCase{"uniq", "a\na", "a\n"},
        GoldenCase{"uniq -c", "z\nz\nz\nz\nz\nz\nz\nz\nz\nz\nz\nz\n",
                   "     12 z\n"},
        GoldenCase{"uniq", "", ""}));

INSTANTIATE_TEST_SUITE_P(
    Wc, WindowGolden,
    ::testing::Values(
        GoldenCase{"wc -l", "one two\nthree\n", "2\n"},
        GoldenCase{"wc -w", "one two\nthree\n", "3\n"},
        GoldenCase{"wc -c", "one two\nthree\n", "14\n"},
        GoldenCase{"wc", "one two\nthree\n", "      2       3      14\n"},
        GoldenCase{"wc -lw", "one two\nthree\n", "      2       3\n"},
        GoldenCase{"wc", "", "      0       0       0\n"},
        // -m counts UTF-8 code points (GNU under a UTF-8 locale): é and ö
        // are two bytes but one character each.
        GoldenCase{"wc -m", "h\xc3\xa9llo w\xc3\xb6rld\n", "12\n"},
        // GNU's fixed column order: lines, words, chars, bytes.
        GoldenCase{"wc -lwmc", "h\xc3\xa9llo w\xc3\xb6rld\n",
                   "      1       2      12      14\n"},
        // Word boundaries are isspace, not just blanks.
        GoldenCase{"wc -w", "tab\tsep\rends\x0b\x0c \n", "3\n"},
        GoldenCase{"wc -l", "no newline", "0\n"},
        GoldenCase{"wc -c", "no newline", "10\n"}));

INSTANTIATE_TEST_SUITE_P(
    SortUnique, WindowGolden,
    ::testing::Values(
        GoldenCase{"sort -u", "b\na\nc\nb\na\n", "a\nb\nc\n"},
        // Equal keys keep the first occurrence (GNU -u after a stable
        // sort): 10 beats 010, 9 beats 9.0.
        GoldenCase{"sort -nu", "10\n9\n010\n9.0\n", "9\n10\n"},
        GoldenCase{"sort -k1,1 -u", "b x\nb y\na z\nb x\n", "a z\nb x\n"},
        GoldenCase{"sort -fu", "A\na\nB\nb\na\n", "A\nB\n"},
        GoldenCase{"sort -ru", "b\na\nc\nb\n", "c\nb\na\n"},
        GoldenCase{"sort -k1n -u", "3 a\n03 b\n2 c\n", "2 c\n3 a\n"},
        // sort re-terminates an unterminated final line.
        GoldenCase{"sort -u", "b\na", "a\nb\n"},
        GoldenCase{"sort -u", "", ""}));

// Plain `sort` (no -u) must NOT be window-classified: without dedup the
// window is the whole input, and the external merge sort already bounds it.
TEST(WindowClassification, PlainSortStaysSortableSpill) {
  cmd::CommandPtr sort = cmd::make_command_line("sort");
  ASSERT_NE(sort, nullptr);
  EXPECT_EQ(sort->streamability(), cmd::Streamability::kNone);
  EXPECT_EQ(sort->window_processor(), nullptr);

  synth::SynthesisCache cache;
  auto parsed = compile::parse_pipeline("uniq -c | tail -n 2 | wc -l");
  ASSERT_TRUE(parsed.has_value());
  compile::Plan plan = compile::compile_pipeline(*parsed, cache);
  for (auto& stage : plan.stages) stage.parallel = false;
  auto stages = compile::lower_plan(plan);
  ASSERT_EQ(stages.size(), 3u);
  for (const auto& stage : stages)
    EXPECT_EQ(stage.memory_class, exec::MemoryClass::kWindowStream)
        << stage.command->display_name();

  auto sorted = compile::parse_pipeline("sort -u");
  ASSERT_TRUE(sorted.has_value());
  compile::Plan splan = compile::compile_pipeline(*sorted, cache);
  for (auto& stage : splan.stages) stage.parallel = false;
  auto sstages = compile::lower_plan(splan);
  ASSERT_EQ(sstages.size(), 1u);
  EXPECT_EQ(sstages[0].memory_class, exec::MemoryClass::kWindowStream);
  // The sort -u window carries its comparator so an outsized distinct set
  // can spill as sorted runs.
  EXPECT_NE(sstages[0].sort_spec, nullptr);
}

// A stream chain absorbs per-record stages *before* the window terminal
// (`grep | uniq` is one fused node) and a window stage ends the fusion
// (`uniq | wc -l` is two nodes: finish() reorders emission).
TEST(WindowFusion, WindowTerminatesAFusedChain) {
  synth::SynthesisCache cache;
  auto parsed = compile::parse_pipeline("grep a | uniq | wc -l");
  ASSERT_TRUE(parsed.has_value());
  compile::Plan plan = compile::compile_pipeline(*parsed, cache);
  for (auto& stage : plan.stages) stage.parallel = false;
  auto stages = compile::lower_plan(plan);

  std::string input = "ab\nab\ncd\nax\nax\nax\nab\n";
  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 4;
  options.stats = true;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, "3\n");  // ab, ax, ab survive uniq
  ASSERT_EQ(r.nodes.size(), 2u);
  EXPECT_EQ(r.nodes[0].commands, "grep a | uniq");
  EXPECT_EQ(r.nodes[0].memory, "window-stream");
  EXPECT_EQ(r.nodes[1].commands, "wc -l");
  EXPECT_EQ(r.nodes[1].memory, "window-stream");
}

// The sort -u window past the spill threshold exports sorted runs and
// re-streams the external merge: byte-identical to serial, with spill
// metrics on the window node.
TEST(WindowSpill, SortUniqueWindowSpillsSortedRuns) {
  cmd::CommandPtr command = cmd::make_command_line("sort -u");
  ASSERT_NE(command, nullptr);
  std::vector<exec::ExecStage> stages{make_stage(command)};

  std::string input;
  for (int i = 0; i < 4000; ++i)
    input += "line-" + std::to_string((i * 37) % 1000) + "\n";

  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 512;
  options.spill_threshold = 4096;  // far below the ~10 KB distinct set
  options.stats = true;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_EQ(r.nodes[0].memory, "window-stream");
  EXPECT_GT(r.nodes[0].spilled_bytes, 0u);
  EXPECT_GT(r.nodes[0].spill_runs, 1);
}

// A plan-parallel sort -u stage forced sequential at k = 1 carries its
// *combiner's* merge spec in sort_spec (it orders f's outputs, not raw
// input); the window spill must re-derive the command's own spec, like
// run_sequential does. Hand-build the hazard with a deliberately wrong
// sort_spec and check the spilled window still matches serial output.
TEST(WindowSpill, ParallelPlannedSortUniqueUsesOwnSpecAtKOne) {
  cmd::CommandPtr command = cmd::make_command_line("sort -nu");
  ASSERT_NE(command, nullptr);
  exec::ExecStage stage;
  stage.command = command;
  stage.parallel = true;  // plan said parallel; runtime k=1 forces window
  stage.memory_class = exec::MemoryClass::kSortableSpill;
  auto wrong = cmd::SortSpec::parse({"-r"});  // not the command's order
  ASSERT_TRUE(wrong.has_value());
  stage.sort_spec = std::make_shared<const cmd::SortSpec>(*wrong);
  stage.combine = [](const std::vector<std::string>& parts)
      -> std::optional<std::string> {
    std::string joined;
    for (const std::string& p : parts) joined += p;
    return joined;  // never reached at k=1; presence marks "parallel-able"
  };
  std::vector<exec::ExecStage> stages{std::move(stage)};

  std::string input;
  for (int i = 4000; i > 0; --i)
    input += std::to_string(i % 500) + "\n";

  ExecOptions options;
  options.parallelism = 1;  // forces the sequential window lowering
  options.block_size = 512;
  options.spill_threshold = 2048;  // forces the window to export runs
  options.stats = true;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, command->run(input));
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_EQ(r.nodes[0].memory, "window-stream");
  EXPECT_GT(r.nodes[0].spilled_bytes, 0u);
}

// ------------------------------------------------ catalog cross-validation --

// Window streaming forced on across the whole 70-script catalog: every
// stage sequential (so uniq/wc/tail -n/sort -u all lower to kWindowStream),
// blocks small enough to force many pushes per window, and the spill
// threshold far below the inputs so sort -u windows export runs. Output
// must stay byte-identical to the serial oracle.
class WindowCatalogCrossval
    : public ::testing::TestWithParam<const bench::Script*> {
 protected:
  static synth::SynthesisCache& cache() {
    static synth::SynthesisCache c;
    return c;
  }
  static vfs::Vfs& fs() {
    static vfs::Vfs v;
    return v;
  }
};

TEST_P(WindowCatalogCrossval, ForcedWindowMatchesSerial) {
  const bench::Script& script = *GetParam();
  std::string input = bench::prepare_input(script, 24 * 1024, 7, fs());

  for (const std::string& pipeline : script.pipelines) {
    auto parsed = compile::parse_pipeline(pipeline);
    ASSERT_TRUE(parsed.has_value()) << pipeline;
    compile::Plan plan =
        compile::compile_pipeline(*parsed, cache(), {}, &fs());
    auto stages = compile::lower_plan(plan);
    const std::string serial = exec::run_serial(stages, input);

    compile::Plan seq_plan =
        compile::compile_pipeline(*parsed, cache(), {}, &fs());
    for (auto& stage : seq_plan.stages) stage.parallel = false;
    auto seq_stages = compile::lower_plan(seq_plan);
    bool windowed = false;
    for (const auto& stage : seq_stages)
      if (stage.memory_class == exec::MemoryClass::kWindowStream)
        windowed = true;

    ExecOptions options;
    options.parallelism = 4;
    options.block_size = 2048;
    options.spill_threshold = 4096;  // forces the window/merge spill paths
    ExecResult r = Executor(options).run_collect(seq_stages, input);
    EXPECT_TRUE(r.ok) << pipeline << ": " << r.error;
    EXPECT_EQ(r.output, serial)
        << script.suite << "/" << script.name
        << (windowed ? " (window)" : "") << ": " << pipeline;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScripts, WindowCatalogCrossval,
    ::testing::ValuesIn([] {
      std::vector<const bench::Script*> ptrs;
      for (const bench::Script& s : bench::all_scripts()) ptrs.push_back(&s);
      return ptrs;
    }()),
    [](const ::testing::TestParamInfo<const bench::Script*>& info) {
      std::string name = info.param->suite + "_" + info.param->name;
      std::string out;
      for (char c : name)
        out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      return out;
    });

}  // namespace
}  // namespace kq
