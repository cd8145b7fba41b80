// End-to-end synthesis tests (Algorithm 1 + Algorithm 2 + preprocessing):
// for each benchmark command family the synthesizer must find the combiner
// the paper reports (Table 10), reject the commands for which no combiner
// exists (Table 9), and the synthesized combiner must satisfy the
// divide-and-conquer equation on fresh inputs it was never trained on.

#include <gtest/gtest.h>

#include <random>

#include "shape/generate.h"
#include "synth/synthesize.h"
#include "text/shellwords.h"
#include "unixcmd/registry.h"

namespace kq::synth {
namespace {

struct Synthesized {
  cmd::CommandPtr command;
  SynthesisResult result;
};

Synthesized synthesize_line(const std::string& command_line,
                            const vfs::Vfs* fs = nullptr) {
  auto argv = text::shell_split(command_line);
  EXPECT_TRUE(argv.has_value());
  std::string error;
  cmd::CommandPtr c = cmd::make_command(*argv, &error, fs);
  EXPECT_NE(c, nullptr) << command_line << ": " << error;
  SynthesisConfig config;
  return {c, synthesize(*c, *argv, config, fs)};
}

bool has_combiner(const SynthesisResult& r, const std::string& printed) {
  for (const dsl::Combiner& g : r.plausible)
    if (dsl::to_string(g) == printed) return true;
  return false;
}

std::string plausible_list(const SynthesisResult& r) {
  std::string out;
  for (const dsl::Combiner& g : r.plausible) out += dsl::to_string(g) + "  ";
  return out;
}

// Checks f(x1 ++ x2) == g(f(x1), f(x2)) on fresh random splits.
void expect_divide_and_conquer(const Synthesized& s, int trials = 24,
                               std::uint64_t seed = 99) {
  ASSERT_TRUE(s.result.success) << s.command->display_name();
  std::mt19937_64 rng(seed);
  shape::GenOptions gen;
  gen.sorted = s.result.input_class == prep::InputClass::kSortedText;
  if (s.result.input_class == prep::InputClass::kFileNames)
    gen.dictionary = vfs::Vfs::global().names();
  dsl::EvalContext ctx{s.command.get()};
  int checked = 0;
  for (int t = 0; t < trials; ++t) {
    shape::Shape sh = shape::random_shape(rng);
    shape::InputPair pair = shape::generate_pair(sh, gen, rng);
    cmd::Result y1 = s.command->execute(pair.x1);
    cmd::Result y2 = s.command->execute(pair.x2);
    cmd::Result y12 = s.command->execute(pair.joined());
    if (!y1.ok() || !y2.ok() || !y12.ok()) continue;
    auto combined = s.result.combiner.apply(y1.out, y2.out, ctx);
    ASSERT_TRUE(combined.has_value())
        << s.command->display_name() << " combiner undefined on outputs of\n"
        << pair.x1 << "---\n" << pair.x2;
    EXPECT_EQ(*combined, y12.out)
        << s.command->display_name() << " wrong combination for\n"
        << pair.x1 << "---\n" << pair.x2;
    ++checked;
  }
  EXPECT_GT(checked, trials / 2);
}

// ------------------------- command families (§3.4) ----------------------

TEST(Synthesize, TrSimpleGetsConcat) {
  auto s = synthesize_line("tr A-Z a-z");
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
  EXPECT_TRUE(has_combiner(s.result, "(concat a b)"))
      << plausible_list(s.result);
  expect_divide_and_conquer(s);
}

TEST(Synthesize, TrSqueezeGetsRerunOnly) {
  // tr -cs A-Za-z '\n': concat is wrong at squeeze boundaries; only the
  // rerun combiner survives (§2's counterexample).
  auto s = synthesize_line("tr -cs A-Za-z '\\n'");
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
  EXPECT_FALSE(has_combiner(s.result, "(concat a b)"))
      << plausible_list(s.result);
  EXPECT_TRUE(s.result.combiner.rerun_only()) << plausible_list(s.result);
  expect_divide_and_conquer(s);
}

TEST(Synthesize, WcLinesGetsBackAdd) {
  auto s = synthesize_line("wc -l");
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
  EXPECT_TRUE(has_combiner(s.result, "((back '\\n' add) a b)"))
      << plausible_list(s.result);
  expect_divide_and_conquer(s);
}

TEST(Synthesize, GrepCountGetsBackAdd) {
  auto s = synthesize_line("grep -c '[aeiou]'");
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
  EXPECT_TRUE(has_combiner(s.result, "((back '\\n' add) a b)"))
      << plausible_list(s.result);
  expect_divide_and_conquer(s);
}

TEST(Synthesize, GrepSelectGetsConcat) {
  auto s = synthesize_line("grep '[aeiou]'");
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
  EXPECT_TRUE(has_combiner(s.result, "(concat a b)"))
      << plausible_list(s.result);
  expect_divide_and_conquer(s);
}

TEST(Synthesize, GrepLiteralUsesDictionary) {
  // Without preprocessing the command would output nothing and concat
  // would never be *validated* on nonempty outputs (Table 2's E(g_c)).
  auto s = synthesize_line("grep 'light.light'");
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
  EXPECT_TRUE(has_combiner(s.result, "(concat a b)"))
      << plausible_list(s.result);
}

TEST(Synthesize, SortGetsMerge) {
  auto s = synthesize_line("sort");
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
  bool merge = has_combiner(s.result, "(merge a b)") ||
               has_combiner(s.result, "(merge b a)");
  EXPECT_TRUE(merge) << plausible_list(s.result);
  expect_divide_and_conquer(s);
}

TEST(Synthesize, SortRnGetsMergeWithFlags) {
  auto s = synthesize_line("sort -rn");
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
  bool merge = has_combiner(s.result, "(merge('-nr') a b)") ||
               has_combiner(s.result, "(merge('-nr') b a)");
  EXPECT_TRUE(merge) << plausible_list(s.result);
  expect_divide_and_conquer(s);
}

TEST(Synthesize, UniqGetsStitchFirst) {
  auto s = synthesize_line("uniq");
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
  bool stitch = has_combiner(s.result, "((stitch first) a b)") ||
                has_combiner(s.result, "((stitch second) a b)");
  EXPECT_TRUE(stitch) << plausible_list(s.result);
  expect_divide_and_conquer(s);
}

TEST(Synthesize, UniqCountGetsStitch2AddFirst) {
  auto s = synthesize_line("uniq -c");
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
  bool stitch2 = has_combiner(s.result, "((stitch2 ' ' add first) a b)") ||
                 has_combiner(s.result, "((stitch2 ' ' add second) a b)");
  EXPECT_TRUE(stitch2) << plausible_list(s.result);
  EXPECT_FALSE(has_combiner(s.result, "(concat a b)"))
      << plausible_list(s.result);
  expect_divide_and_conquer(s);
}

TEST(Synthesize, CutFieldsGetsConcat) {
  auto s = synthesize_line("cut -d ',' -f 1");
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
  EXPECT_TRUE(has_combiner(s.result, "(concat a b)"))
      << plausible_list(s.result);
  expect_divide_and_conquer(s);
}

TEST(Synthesize, HeadGetsFirstFamily) {
  // Table 10 (head -n 1): first / back-first / fuse-first / rerun.
  auto s = synthesize_line("head -n 1");
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
  EXPECT_TRUE(has_combiner(s.result, "(first a b)") ||
              has_combiner(s.result, "((back '\\n' first) a b)"))
      << plausible_list(s.result);
}

TEST(Synthesize, TailGetsSecondFamily) {
  auto s = synthesize_line("tail -n 1");
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
  EXPECT_TRUE(has_combiner(s.result, "(second a b)") ||
              has_combiner(s.result, "((back '\\n' second) a b)"))
      << plausible_list(s.result);
}

TEST(Synthesize, SedQuitGetsRerun) {
  // sed 100q needs inputs straddling 100 lines (literal extraction) to
  // eliminate concat; rerun is the correct combiner.
  auto s = synthesize_line("sed 100q");
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
  EXPECT_FALSE(has_combiner(s.result, "(concat a b)"))
      << plausible_list(s.result);
  EXPECT_TRUE(has_combiner(s.result, "(rerun a b)"))
      << plausible_list(s.result);
  expect_divide_and_conquer(s);
}

TEST(Synthesize, SedSubstituteGetsConcat) {
  auto s = synthesize_line("sed s/$/0s/");
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
  EXPECT_TRUE(has_combiner(s.result, "(concat a b)"))
      << plausible_list(s.result);
  expect_divide_and_conquer(s);
}

TEST(Synthesize, AwkLengthGetsConcat) {
  auto s = synthesize_line("awk \"length >= 16\"");
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
  EXPECT_TRUE(has_combiner(s.result, "(concat a b)"))
      << plausible_list(s.result);
}

TEST(Synthesize, TrDeleteNewlineGetsConcatWithoutElimination) {
  // tr -d '\n': concat combines, but outputs are not newline-terminated,
  // so Theorem 5 elimination must be disabled downstream.
  auto s = synthesize_line("tr -d '\\n'");
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
  EXPECT_TRUE(has_combiner(s.result, "(concat a b)"))
      << plausible_list(s.result);
  EXPECT_FALSE(s.result.outputs_newline_terminated);
}

// ------------------------- unsupported commands (Table 9) ---------------

TEST(SynthesizeUnsupported, SedDeleteFirstLines) {
  for (const char* line : {"sed 1d", "sed 2d", "sed 3d"}) {
    auto s = synthesize_line(line);
    EXPECT_FALSE(s.result.success)
        << line << " unexpectedly got: " << plausible_list(s.result);
  }
}

TEST(SynthesizeUnsupported, TailFromLine) {
  for (const char* line : {"tail +2", "tail +3"}) {
    auto s = synthesize_line(line);
    EXPECT_FALSE(s.result.success)
        << line << " unexpectedly got: " << plausible_list(s.result);
  }
}

// ------------------------- sorted/file-name preprocessing ---------------

TEST(Synthesize, CommClassifiedAsSortedInput) {
  vfs::Vfs fs;
  fs.write("dict.sorted", "apple\nberry\nmelon\nzebra\n");
  auto s = synthesize_line("comm -23 - dict.sorted", &fs);
  EXPECT_EQ(s.result.input_class, prep::InputClass::kSortedText);
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
}

TEST(Synthesize, XargsClassifiedAsFileNames) {
  vfs::Vfs fs;
  for (int i = 0; i < 6; ++i) {
    // Append form: GCC PR 105329 (-Wrestrict).
    std::string name = "f";
    name += std::to_string(i);
    fs.write(name, "line a\nline b\n");
  }
  auto s = synthesize_line("xargs cat", &fs);
  EXPECT_EQ(s.result.input_class, prep::InputClass::kFileNames);
  ASSERT_TRUE(s.result.success) << s.result.failure_reason;
  EXPECT_TRUE(has_combiner(s.result, "(concat a b)"))
      << plausible_list(s.result);
}

// ------------------------- composite selection --------------------------

TEST(Composite, PrefersRecOpClass) {
  auto s = synthesize_line("tr A-Z a-z");
  ASSERT_TRUE(s.result.success);
  ASSERT_FALSE(s.result.combiner.empty());
  EXPECT_EQ(s.result.combiner.primary()->cls(), dsl::OpClass::kRec);
}

TEST(Composite, ConcatEquivalenceDetected) {
  auto s = synthesize_line("tr A-Z a-z");
  ASSERT_TRUE(s.result.success);
  EXPECT_TRUE(s.result.combiner.concat_equivalent());
  auto u = synthesize_line("uniq -c");
  ASSERT_TRUE(u.result.success);
  EXPECT_FALSE(u.result.combiner.concat_equivalent());
}

// ------------------------- diagnostics ----------------------------------

TEST(Diagnostics, SpaceSizeMatchesDelimCount) {
  auto s = synthesize_line("wc -l");
  ASSERT_TRUE(s.result.success);
  auto expect = dsl::count_candidates(s.result.delims.size(), 5);
  EXPECT_EQ(s.result.space.total(), expect.total());
}

TEST(Diagnostics, ReductionRatioLowForWc) {
  auto s = synthesize_line("wc -l");
  ASSERT_TRUE(s.result.success);
  EXPECT_LT(s.result.reduction_ratio, 0.5);
}

TEST(Diagnostics, ReductionRatioHighForTr) {
  auto s = synthesize_line("tr -cs A-Za-z '\\n'");
  ASSERT_TRUE(s.result.success);
  EXPECT_GT(s.result.reduction_ratio, 0.5);
}

TEST(Cache, SynthesizesOncePerCommand) {
  SynthesisCache cache;
  auto argv = text::shell_split("wc -l");
  cmd::CommandPtr c = cmd::make_command(*argv);
  EXPECT_EQ(cache.find(c->display_name()), nullptr);
  const SynthesisResult& a =
      cache.insert(c->display_name(), synthesize(*c, *argv));
  EXPECT_EQ(cache.find(c->display_name()), &a);
  // A second result for the same command keeps the first entry.
  const SynthesisResult& b = cache.insert(c->display_name(), {});
  EXPECT_EQ(&a, &b);
  EXPECT_TRUE(b.success);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace kq::synth
