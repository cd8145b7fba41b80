// The pipeline-rewrite pass (compile::rewrite_bounded_windows, ISSUE 5):
// `sort <spec> | head -n N` fuses into a bounded top-n window stage and
// `uniq … | sort <spec> | head -n N` into a bounded top-k stage. Tests
// cover the plan shapes (what fuses, what must not, the rewritten-from
// annotation and kWindowStream lowering), byte-identity of rewritten plans
// against their unrewritten serial twins — through the batch runner, the
// streaming runtime at several block sizes, and the streaming runtime with
// the window forced through its sorted-run spill export — and the full
// 70-script catalog cross-validated with the rewrite pass on.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "bench_support/catalog.h"
#include "compile/optimize.h"
#include "compile/plan.h"
#include "exec/executor.h"
#include "exec/runner.h"
#include "unixcmd/registry.h"

namespace kq {
namespace {

synth::SynthesisCache& cache() {
  static synth::SynthesisCache c;
  return c;
}

compile::Plan plan_for(const std::string& pipeline, bool rewrite) {
  auto parsed = compile::parse_pipeline(pipeline);
  EXPECT_TRUE(parsed.has_value()) << pipeline;
  compile::Plan plan = compile::compile_pipeline(*parsed, cache());
  if (rewrite) compile::rewrite_bounded_windows(plan);
  compile::eliminate_intermediate_combiners(plan);
  return plan;
}

// ------------------------------------------------------------ plan shapes --

TEST(RewritePass, SortHeadFusesToTopN) {
  compile::Plan plan = plan_for("sort | head -n 10", /*rewrite=*/true);
  ASSERT_EQ(plan.stages.size(), 1u);
  EXPECT_EQ(plan.stages[0].rewritten_from, "sort | head -n 10");
  EXPECT_FALSE(plan.stages[0].parallel);
  auto stages = compile::lower_plan(plan);
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].memory_class, exec::MemoryClass::kWindowStream);
  // The fused stage carries the sort comparator so a pathological-N window
  // can export sorted runs through the external merge.
  EXPECT_NE(stages[0].sort_spec, nullptr);
  EXPECT_EQ(stages[0].command->streamability(), cmd::Streamability::kWindow);
  EXPECT_NE(stages[0].command->window_processor(), nullptr);
}

TEST(RewritePass, UniqSortHeadFusesToTopK) {
  compile::Plan plan =
      plan_for("uniq -c | sort -rn | head -n 5", /*rewrite=*/true);
  ASSERT_EQ(plan.stages.size(), 1u);
  EXPECT_EQ(plan.stages[0].rewritten_from,
            "uniq -c | sort -rn | head -n 5");
  auto stages = compile::lower_plan(plan);
  EXPECT_EQ(stages[0].memory_class, exec::MemoryClass::kWindowStream);
  EXPECT_NE(stages[0].sort_spec, nullptr);
}

TEST(RewritePass, FusedStageEmbedsInLargerPipelines) {
  compile::Plan plan =
      plan_for("grep a | sort | head -n 3 | wc -l", /*rewrite=*/true);
  ASSERT_EQ(plan.stages.size(), 3u);
  EXPECT_TRUE(plan.stages[0].rewritten_from.empty());
  EXPECT_EQ(plan.stages[1].rewritten_from, "sort | head -n 3");
  EXPECT_TRUE(plan.stages[2].rewritten_from.empty());
}

TEST(RewritePass, RewritesEveryOccurrence) {
  compile::Plan plan = plan_for("sort | head -n 20 | sort -rn | head -n 5",
                                /*rewrite=*/true);
  ASSERT_EQ(plan.stages.size(), 2u);
  EXPECT_EQ(plan.stages[0].rewritten_from, "sort | head -n 20");
  EXPECT_EQ(plan.stages[1].rewritten_from, "sort -rn | head -n 5");
}

TEST(RewritePass, DefaultHeadCountAndUniqueSortsFuse) {
  EXPECT_EQ(plan_for("sort | head", true).stages.size(), 1u);
  EXPECT_EQ(plan_for("sort -u | head -n 4", true).stages.size(), 1u);
  EXPECT_EQ(plan_for("sort -k1,1 | head -2", true).stages.size(), 1u);
  EXPECT_EQ(plan_for("uniq | sort | head -n 3", true).stages.size(), 1u);
}

TEST(RewritePass, NonMatchesStayUntouched) {
  // Byte-mode head cuts mid-record: no sorted window reproduces it.
  EXPECT_EQ(plan_for("sort | head -c 10", true).stages.size(), 2u);
  // tail is not a prefix of the sorted stream.
  EXPECT_EQ(plan_for("sort | tail -n 5", true).stages.size(), 2u);
  // Order matters.
  EXPECT_EQ(plan_for("head -n 5 | sort", true).stages.size(), 2u);
  // No bounding head: uniq/sort keep their own lowering.
  EXPECT_EQ(plan_for("uniq -c | sort -rn", true).stages.size(), 2u);
  // An intervening stage breaks adjacency.
  EXPECT_EQ(plan_for("sort | grep a | head -n 5", true).stages.size(), 3u);
}

TEST(RewritePass, EscapeHatchKeepsOriginalPlan) {
  compile::Plan plan = plan_for("sort | head -n 10", /*rewrite=*/false);
  ASSERT_EQ(plan.stages.size(), 2u);
  EXPECT_TRUE(plan.stages[0].rewritten_from.empty());
  EXPECT_TRUE(plan.stages[1].rewritten_from.empty());
}

// --------------------------------------------------------- byte identity --

std::string random_lines(std::uint64_t seed, int n, int distinct,
                         bool terminated) {
  std::mt19937_64 rng(seed);
  std::string out;
  for (int i = 0; i < n; ++i) {
    int v = static_cast<int>(rng() % distinct);
    switch (rng() % 3) {
      case 0: out += "w-" + std::to_string(v); break;
      case 1: out += std::to_string(v); break;
      default: out += std::to_string(v) + " x" + std::to_string(rng() % 7);
    }
    out.push_back('\n');
  }
  if (!terminated && !out.empty()) out.pop_back();
  return out;
}

// Runs `pipeline` rewritten — batch, serial, and streamed at several
// block/spill configurations — and expects every output byte-identical to
// the unrewritten plan's serial output.
void expect_rewrite_identity(const std::string& pipeline,
                             const std::string& input) {
  compile::Plan baseline = plan_for(pipeline, /*rewrite=*/false);
  std::string expected =
      exec::run_serial(compile::lower_plan(baseline), input);

  compile::Plan rewritten = plan_for(pipeline, /*rewrite=*/true);
  EXPECT_LT(rewritten.stages.size(), baseline.stages.size()) << pipeline;
  auto stages = compile::lower_plan(rewritten);

  ExecOptions batch;
  batch.mode = ExecMode::kBatch;
  batch.parallelism = 4;
  EXPECT_EQ(Executor(batch).run_collect(stages, input).output, expected)
      << pipeline << " (batch, rewritten)";
  EXPECT_EQ(exec::run_serial(stages, input), expected)
      << pipeline << " (serial, rewritten)";

  struct Cfg {
    std::size_t block, spill;
  };
  for (Cfg cfg : {Cfg{64, 64 << 20}, Cfg{1 << 20, 64 << 20},
                  Cfg{512, 1 << 10}}) {
    ExecOptions options;
    options.parallelism = 4;
    options.block_size = cfg.block;
    options.spill_threshold = cfg.spill;
    ExecResult r = Executor(options).run_collect(stages, input);
    ASSERT_TRUE(r.ok) << pipeline << ": " << r.error;
    EXPECT_EQ(r.output, expected)
        << pipeline << " (stream, block=" << cfg.block
        << ", spill=" << cfg.spill << ")";
  }
}

TEST(RewriteIdentity, TopNFamilies) {
  for (const char* pipeline :
       {"sort | head -n 10", "sort | head -n 1", "sort | head -n 0",
        "sort | head", "sort -rn | head -n 7", "sort -n | head -n 13",
        "sort -u | head -n 9", "sort -nu | head -n 6",
        "sort -k1,1 | head -n 5", "sort -f | head -n 8",
        "sort -r | head -n 4"}) {
    expect_rewrite_identity(pipeline, random_lines(7, 400, 37, true));
    expect_rewrite_identity(pipeline, random_lines(8, 400, 37, false));
    expect_rewrite_identity(pipeline, "");
  }
}

TEST(RewriteIdentity, TopKCountFamilies) {
  for (const char* pipeline :
       {"uniq -c | sort -rn | head -n 5", "uniq -c | sort -n | head -n 5",
        "uniq -c | sort -rn | head -n 1", "uniq -c | sort | head -n 6",
        "uniq | sort | head -n 4", "uniq -c | sort -rn | head -n 0",
        "uniq -d | sort | head -n 3"}) {
    // Unsorted input: uniq's run semantics (one line per *run*, not per
    // distinct value) must survive the fusion.
    expect_rewrite_identity(pipeline, random_lines(9, 400, 11, true));
    expect_rewrite_identity(pipeline, random_lines(10, 400, 11, false));
    expect_rewrite_identity(pipeline, "");
  }
}

TEST(RewriteIdentity, EmbeddedAndChainedForms) {
  std::string input = random_lines(11, 500, 29, true);
  expect_rewrite_identity("grep 1 | sort | head -n 6", input);
  expect_rewrite_identity("sort | head -n 8 | wc -l", input);
  expect_rewrite_identity("tr a-z A-Z | uniq -c | sort -rn | head -n 4",
                          input);
  expect_rewrite_identity("sort | head -n 3 | sort -rn | head -n 2", input);
}

// A top-n wider than the spill threshold exports sorted runs and re-streams
// the capped external merge: spill metrics appear on the window node and
// the output still matches the unrewritten plan.
TEST(RewriteSpill, PathologicalNExportsRunsAndCapsOutput) {
  std::string input = random_lines(13, 6000, 100000, true);
  compile::Plan baseline = plan_for("sort -n | head -n 2000", false);
  compile::Plan rewritten = plan_for("sort -n | head -n 2000", true);
  ASSERT_EQ(rewritten.stages.size(), 1u);
  auto stages = compile::lower_plan(rewritten);
  std::string expected =
      exec::run_serial(compile::lower_plan(baseline), input);

  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 512;
  options.spill_threshold = 2048;  // far below the ~2000-line window
  options.stats = true;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, expected);
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_EQ(r.nodes[0].memory, "window-stream");
  EXPECT_GT(r.nodes[0].spilled_bytes, 0u);
  EXPECT_GT(r.nodes[0].spill_runs, 1);
}

// The fused top-k under spill must not lose uniq's pending final run: the
// runtime seals the residue into the top-k window before the final sorted
// run exports (WindowProcessor::seal).
TEST(RewriteSpill, TopKSealsPendingUniqRun) {
  std::string input;
  // Appends, not chained operator+: GCC PR 105329 (-Wrestrict).
  for (int i = 0; i < 3000; ++i) {
    input += "v";
    input += std::to_string(i % 1500);
    input += "\n";
  }
  compile::Plan baseline = plan_for("uniq -c | sort -rn | head -n 1200",
                                    false);
  compile::Plan rewritten = plan_for("uniq -c | sort -rn | head -n 1200",
                                     true);
  auto stages = compile::lower_plan(rewritten);
  std::string expected =
      exec::run_serial(compile::lower_plan(baseline), input);

  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 256;
  options.spill_threshold = 1024;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, expected);
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_GT(r.nodes[0].spilled_bytes, 0u);
}

// A sequential streamable prefix fuses in front of the window terminal:
// `grep 1 | top-n` must run as ONE node.
TEST(RewriteFusion, StreamChainTerminatesInFusedTopN) {
  compile::Plan plan = plan_for("grep 1 | sort | head -n 5", true);
  for (auto& stage : plan.stages) stage.parallel = false;
  auto stages = compile::lower_plan(plan);
  std::string input = random_lines(17, 300, 23, true);

  ExecOptions options;
  options.parallelism = 1;
  options.block_size = 128;
  options.stats = true;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_EQ(r.nodes[0].memory, "window-stream");
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
}

// ------------------------------------------------ catalog cross-validation --

// The rewrite pass applied across the whole 70-script catalog: rewritten
// plans (streamed) must stay byte-identical to the unrewritten plans run
// serially. Most scripts contain no rewrite target — the pass must leave them
// bit-exact too — and the ones that do exercise the fused nodes end to
// end.
class RewriteCatalogCrossval
    : public ::testing::TestWithParam<const bench::Script*> {
 protected:
  static vfs::Vfs& fs() {
    static vfs::Vfs v;
    return v;
  }
};

TEST_P(RewriteCatalogCrossval, RewrittenStreamMatchesUnrewrittenSerial) {
  const bench::Script& script = *GetParam();
  std::string input = bench::prepare_input(script, 24 * 1024, 11, fs());

  for (const std::string& pipeline : script.pipelines) {
    auto parsed = compile::parse_pipeline(pipeline);
    ASSERT_TRUE(parsed.has_value()) << pipeline;
    compile::Plan baseline =
        compile::compile_pipeline(*parsed, cache(), {}, &fs());
    compile::eliminate_intermediate_combiners(baseline);
    std::string expected =
        exec::run_serial(compile::lower_plan(baseline), input);

    compile::Plan rewritten =
        compile::compile_pipeline(*parsed, cache(), {}, &fs());
    int fused = compile::rewrite_bounded_windows(rewritten);
    compile::eliminate_intermediate_combiners(rewritten);
    auto stages = compile::lower_plan(rewritten);

    ExecOptions options;
    options.parallelism = 4;
    options.block_size = 2048;
    options.spill_threshold = 4096;
    ExecResult r = Executor(options).run_collect(stages, input);
    EXPECT_TRUE(r.ok) << pipeline << ": " << r.error;
    EXPECT_EQ(r.output, expected)
        << script.suite << "/" << script.name << (fused ? " (rewritten)" : "")
        << ": " << pipeline;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScripts, RewriteCatalogCrossval,
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
