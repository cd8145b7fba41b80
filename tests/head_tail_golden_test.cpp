// GNU-compat golden tests for `head`/`tail` edge forms — `tail +N`,
// `-n +N`, the -c byte modes (`head -c N`, `tail -c N`, `tail -c +N`),
// count 0, counts larger than the input, missing trailing newlines, and
// overflowing counts — each validated against GNU coreutils output and
// executed through three runtimes: the serial oracle, the streaming
// dataflow runtime, and the streaming runtime with spilling forced
// (threshold 1). Also pins the preserve-vs-re-terminate audit for the
// other text::lines-based built-ins: sed/rev preserve a missing final
// newline like their GNU counterparts, grep/cut/uniq re-terminate.
//
// Overflow counts saturate (ISSUE 3's "reject or clamp": we clamp), so
// `head -n 99999999999999999999` means "all of it" instead of
// signed-overflow garbage; GNU rejects counts past uintmax_t with an
// error, and below that accepts them with the same all-of-it meaning.

#include <gtest/gtest.h>

#include <limits>

#include "compile/plan.h"
#include "exec/executor.h"
#include "exec/runner.h"
#include "prep/literals.h"
#include "unixcmd/registry.h"

namespace kq {
namespace {

struct GoldenCase {
  const char* command;
  const char* input;
  const char* expected;  // GNU-verified bytes
};

// A hand-built sequential stage: placement runs it by the command's
// declared streamability, so the streaming run exercises the stream-chain
// node exactly as a compiled pipeline would.
exec::ExecStage make_stage(const cmd::CommandPtr& command) {
  exec::ExecStage stage;
  stage.command = command;
  return stage;
}

class HeadTailGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(HeadTailGolden, BatchStreamAndSpillAgree) {
  const GoldenCase& c = GetParam();
  std::string error;
  cmd::CommandPtr command = cmd::make_command_line(c.command, &error);
  ASSERT_NE(command, nullptr) << c.command << ": " << error;

  // Direct execution (the serial oracle's floor).
  EXPECT_EQ(command->run(c.input), c.expected) << c.command;

  std::vector<exec::ExecStage> stages{make_stage(command)};
  EXPECT_EQ(exec::run_serial(stages, c.input), c.expected)
      << c.command << " (serial)";

  for (std::size_t spill : {std::size_t(64) << 20, std::size_t(1)}) {
    for (std::size_t block : {std::size_t(4), std::size_t(1) << 20}) {
      ExecOptions options;
      options.parallelism = 2;
      options.block_size = block;
      options.spill_threshold = spill;
      ExecResult r = Executor(options).run_collect(stages, c.input);
      ASSERT_TRUE(r.ok) << c.command << ": " << r.error;
      EXPECT_EQ(r.output, c.expected)
          << c.command << " (stream, block=" << block << ", spill=" << spill
          << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EdgeForms, HeadTailGolden,
    ::testing::Values(
        // Count 0 and counts larger than the input.
        GoldenCase{"head -n 0", "a\nb\nc\n", ""},
        GoldenCase{"head -n 10", "a\nb\n", "a\nb\n"},
        GoldenCase{"tail -n 0", "a\nb\nc\n", ""},
        GoldenCase{"tail -n 10", "a\nb\n", "a\nb\n"},
        // Missing trailing newline is preserved (GNU head/tail copy bytes).
        GoldenCase{"head -n 2", "a\nb", "a\nb"},
        GoldenCase{"head -n 1", "a\nb", "a\n"},
        GoldenCase{"tail -n 1", "a\nb", "b"},
        GoldenCase{"tail -n 2", "a\nb\nc", "b\nc"},
        // Bundled counts (GNU-style getopt spellings).
        GoldenCase{"head -n2", "a\nb\nc\n", "a\nb\n"},
        GoldenCase{"tail -n2", "a\nb\nc\n", "b\nc\n"},
        GoldenCase{"tail -n+2", "a\nb\nc\n", "b\nc\n"},
        // tail +N / -n +N forms, including the +0 == +1 GNU quirk.
        GoldenCase{"tail +2", "a\nb\nc\n", "b\nc\n"},
        GoldenCase{"tail -n +2", "a\nb\nc\n", "b\nc\n"},
        GoldenCase{"tail -n +1", "a\nb\nc\n", "a\nb\nc\n"},
        GoldenCase{"tail -n +0", "a\nb\nc\n", "a\nb\nc\n"},
        GoldenCase{"tail +4", "a\nb\nc\n", ""},
        GoldenCase{"tail -n +3", "a\nb\nc", "c"},
        // Overflowing counts saturate to "all of it" / "skip everything".
        GoldenCase{"head -n 99999999999999999999", "a\nb\nc\n", "a\nb\nc\n"},
        GoldenCase{"tail -n 99999999999999999999", "a\nb", "a\nb"},
        GoldenCase{"tail -n +99999999999999999999", "a\nb\nc\n", ""},
        GoldenCase{"head -99999999999999999999", "a\nb", "a\nb"},
        // The re-terminate audit: sed and rev preserve like GNU...
        GoldenCase{"sed s/b/B/", "a\nb", "a\nB"},
        GoldenCase{"sed 2q", "a\nb\nc\n", "a\nb\n"},
        GoldenCase{"sed 2q", "a\nb", "a\nb"},
        GoldenCase{"sed 2d;3q", "a\nb\nc\n", "a\nc\n"},
        GoldenCase{"rev", "ab\ncd", "ba\ndc"},
        // ...while grep, cut, and uniq re-terminate, also like GNU.
        GoldenCase{"grep b", "a\nb", "b\n"},
        GoldenCase{"cut -c 1", "ax\nby", "a\nb\n"},
        GoldenCase{"uniq", "a\na\nb", "a\nb\n"},
        // Degenerate inputs.
        GoldenCase{"head -n 2", "", ""}, GoldenCase{"tail -n 2", "", ""},
        GoldenCase{"head -n 1", "\n\n", "\n"},
        GoldenCase{"tail +2", "", ""}));

INSTANTIATE_TEST_SUITE_P(
    ByteModes, HeadTailGolden,
    ::testing::Values(
        // head -c / tail -c copy bytes: record boundaries are irrelevant
        // and a missing final newline is inherently preserved. (Records
        // stay <= 3 bytes: the harness's block=4/spill=1 combo caps a
        // single record at 4 buffered bytes.)
        GoldenCase{"head -c 5", "ab\ncd\nef\n", "ab\ncd"},
        GoldenCase{"head -c 6", "ab\ncd\nef\n", "ab\ncd\n"},
        GoldenCase{"head -c4", "ab\ncd\n", "ab\nc"},
        GoldenCase{"head -c 0", "ab\n", ""},
        GoldenCase{"head -c 100", "ab\n", "ab\n"},
        GoldenCase{"tail -c 4", "ab\ncd\nef\n", "\nef\n"},
        GoldenCase{"tail -c 2", "ab\ncd", "cd"},
        GoldenCase{"tail -c2", "ab\ncd\n", "d\n"},
        GoldenCase{"tail -c 0", "ab\n", ""},
        GoldenCase{"tail -c 100", "ab\n", "ab\n"},
        // tail -c +N starts at byte N; +0 behaves like +1, as with lines.
        GoldenCase{"tail -c +4", "ab\ncd\nef\n", "cd\nef\n"},
        GoldenCase{"tail -c +1", "ab\n", "ab\n"},
        GoldenCase{"tail -c +0", "ab\n", "ab\n"},
        GoldenCase{"tail -c+5", "ab\ncd\nef\n", "d\nef\n"},
        GoldenCase{"tail -c +99", "ab\n", ""},
        // Saturating counts: huge means "all of it" / "skip everything",
        // never signed-overflow garbage (the pre-fix std::stol in literal
        // extraction aborted the whole compile on these).
        GoldenCase{"head -c 99999999999999999999", "a\nb\nc\n", "a\nb\nc\n"},
        GoldenCase{"tail -c 99999999999999999999", "a\nb", "a\nb"},
        GoldenCase{"tail -c +99999999999999999999", "a\nb\nc\n", ""},
        // Degenerate inputs.
        GoldenCase{"head -c 3", "", ""}, GoldenCase{"tail -c 3", "", ""},
        GoldenCase{"tail -c +2", "", ""}));

TEST(HeadTailParse, RejectsNonNumericCounts) {
  for (const char* line :
       {"head -n 9a9", "head -n", "tail -n x", "tail +2x", "head -n -3",
        "head -c x", "head -c", "head -c 9a9", "tail -c", "tail -c 1x",
        "tail -c +x", "head -c -5"}) {
    std::string error;
    EXPECT_EQ(cmd::make_command_line(line, &error), nullptr) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(HeadTailParse, SaturatedCountsInOtherBuiltins) {
  // The same clamp guards every count-parsing built-in: sort -k field
  // numbers, cut position ranges, sed addresses, fmt widths.
  std::string error;
  auto sort_cmd =
      cmd::make_command_line("sort -k99999999999999999999", &error);
  ASSERT_NE(sort_cmd, nullptr) << error;
  // A field number no line has: comparison falls back to the whole line.
  EXPECT_EQ(sort_cmd->run("b x\na y\n"), "a y\nb x\n");

  auto cut_cmd =
      cmd::make_command_line("cut -c 99999999999999999999-", &error);
  ASSERT_NE(cut_cmd, nullptr) << error;
  EXPECT_EQ(cut_cmd->run("abc\n"), "\n");  // selects nothing on every line

  auto sed_cmd =
      cmd::make_command_line("sed 99999999999999999999d", &error);
  ASSERT_NE(sed_cmd, nullptr) << error;
  EXPECT_EQ(sed_cmd->run("a\nb\n"), "a\nb\n");  // address beyond every line

  auto fmt_cmd = cmd::make_command_line("fmt -w99999999999999999999", &error);
  ASSERT_NE(fmt_cmd, nullptr) << error;
  EXPECT_EQ(fmt_cmd->run("a b\n"), "a b\n");
}

// A head/tail bound wider than every certification probe
// (synth::kProbeCountCap) makes the command look like `cat` on every
// observation, so synthesis certifies a concat combiner that is wrong
// exactly on inputs too big to probe. The planner must keep such stages
// sequential (their declared prefix/window lowering is exact at any size).
TEST(ProbeCoverageGuard, HugeBoundsStaySequential) {
  synth::SynthesisCache cache;
  for (const char* pipeline :
       {"head -n 1000000", "head -c 100000000", "tail -n 1000000",
        "tail -c 100000000", "sed 5000q", "sed 5000d",
        "sed '5000s/a/b/'"}) {
    auto parsed = compile::parse_pipeline(pipeline);
    ASSERT_TRUE(parsed.has_value()) << pipeline;
    compile::Plan plan = compile::compile_pipeline(*parsed, cache);
    ASSERT_EQ(plan.stages.size(), 1u);
    EXPECT_FALSE(plan.stages[0].parallel) << pipeline;
  }
  // The guard is targeted: an ordinary certified-parallel stage stays
  // parallel. (Small-N head/tail are sequential anyway — their correct
  // rerun combiners fail the reduction threshold — so wc is the control.)
  auto parsed = compile::parse_pipeline("wc -l");
  ASSERT_TRUE(parsed.has_value());
  compile::Plan plan = compile::compile_pipeline(*parsed, cache);
  EXPECT_TRUE(plan.stages[0].parallel);
}

TEST(ProbeCoverageGuard, BatchHugeTailMatchesDirectExecution) {
  // Regression: bound 5000 > kProbeCountCap but < the 10000 input lines —
  // the pre-guard parallel concat plan returned all 10000 lines.
  std::string input;
  for (int i = 0; i < 10000; ++i) input += std::to_string(i) + "\n";
  synth::SynthesisCache cache;
  auto parsed = compile::parse_pipeline("tail -n 5000");
  ASSERT_TRUE(parsed.has_value());
  compile::Plan plan = compile::compile_pipeline(*parsed, cache);
  auto stages = compile::lower_plan(plan);
  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 4 << 10;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, stages[0].command->run(input));
}

TEST(HeadTailParse, LiteralExtractionSaturatesHugeCounts) {
  // Regression: synthesis preprocessing extracted numeric literals with a
  // throwing std::stol, so `head -c 99999999999999999999` aborted the
  // whole compile with std::out_of_range before the saturating command
  // parser ever ran. The extractor now clamps like parse_count.
  prep::CommandLiterals head_lits = prep::extract_literals(
      {"head", "-c", "99999999999999999999"}, /*seed=*/1);
  ASSERT_FALSE(head_lits.numbers.empty());
  EXPECT_EQ(head_lits.numbers[0], std::numeric_limits<long>::max());

  prep::CommandLiterals sed_lits =
      prep::extract_literals({"sed", "99999999999999999999q"}, /*seed=*/1);
  ASSERT_FALSE(sed_lits.numbers.empty());
  EXPECT_EQ(sed_lits.numbers[0], std::numeric_limits<long>::max());
}

}  // namespace
}  // namespace kq
