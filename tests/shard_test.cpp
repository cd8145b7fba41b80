// Tests for sharded streaming execution: eligible parallel segments run as
// per-shard stream sub-chains (exec::run_slice_fused) feeding the
// collector's boundary fold. Cross-validates the whole 70-script catalog
// at k in {2, 4, 8} against the serial oracle, plus a forced-spill sharded
// run, a downstream-close (`| head`) early exit that cancels in-flight
// shards, slices whose combining stage gets no input, and the
// shard-eligibility/telemetry contracts.

#include <gtest/gtest.h>

#include <cctype>
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

synth::SynthesisCache& shared_cache() {
  static synth::SynthesisCache c;
  return c;
}

vfs::Vfs& shared_fs() {
  static vfs::Vfs v;
  return v;
}

std::vector<exec::ExecStage> compile_stages(const std::string& pipeline,
                                            vfs::Vfs* fs = nullptr) {
  auto parsed = compile::parse_pipeline(pipeline);
  EXPECT_TRUE(parsed.has_value()) << pipeline;
  compile::Plan plan =
      compile::compile_pipeline(*parsed, shared_cache(), {}, fs);
  compile::rewrite_bounded_windows(plan);
  compile::eliminate_intermediate_combiners(plan);
  return compile::lower_plan(plan);
}

kq::ExecOptions stream_options(int k, std::size_t block_size) {
  kq::ExecOptions o;
  o.mode = kq::ExecMode::kStream;
  o.parallelism = k;
  o.block_size = block_size;
  return o;
}

// ---------------------------------------------------- shard eligibility --

TEST(ShardPlan, LowerPlanMarksShardableStages) {
  auto stages = compile_stages("tr A-Z a-z | sort -u | wc -l");
  ASSERT_EQ(stages.size(), 3u);
  // tr: parallel per-record with a concat combiner -> shardable.
  EXPECT_TRUE(stages[0].shardable);
  // sort -u: parallel window command (the distinct set is the bounded
  // window) with a merge combiner -> shardable.
  EXPECT_TRUE(stages[1].shardable);
  // wc -l: parallel per-record fold -> shardable.
  EXPECT_TRUE(stages[2].shardable);

  // Plain sort declares Streamability::kNone — its state is the whole
  // input, so its workers run it whole over block-sized chunks.
  auto whole = compile_stages("tr A-Z a-z | sort | wc -l");
  ASSERT_EQ(whole.size(), 3u);
  EXPECT_TRUE(whole[0].shardable);
  EXPECT_FALSE(whole[1].shardable);
  EXPECT_TRUE(whole[2].shardable);

  // head: prefix-bounded — early exit beats data parallelism, by design
  // never sharded.
  auto prefix = compile_stages("grep line | head -n 10");
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_TRUE(prefix[0].shardable);
  EXPECT_FALSE(prefix[1].shardable);
}

TEST(ShardPlan, SequentialAndUnknownStagesAreNotShardable) {
  auto stages = compile_stages("frobnicate | tail -n 3");
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_FALSE(stages[0].shardable);  // unknown command, sequential
  EXPECT_FALSE(stages[1].shardable);  // sequential window
}

// ------------------------------------------------------ sharded telemetry --

TEST(ShardDataflow, EligibleSegmentRunsShardedWithSliceTelemetry) {
  auto stages = compile_stages("tr a-z A-Z | grep A");
  std::string input;
  for (int i = 0; i < 4000; ++i)
    input += "alpha beta gamma line " + std::to_string(i) + "\n";

  kq::ExecOptions options = stream_options(4, 2048);
  options.stats = true;
  kq::Executor executor(options);
  kq::ExecResult r = executor.run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.batch_fallback);
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  ASSERT_EQ(r.nodes.size(), 1u);  // fused into one parallel segment
  EXPECT_TRUE(r.nodes[0].sharded);
  EXPECT_GT(r.nodes[0].shard_slice_bytes, 0u);
  EXPECT_GT(r.nodes[0].shard_slices, 0u);
  EXPECT_GT(r.nodes[0].worker_busy_ns, 0u);
}

TEST(ShardDataflow, ShardSliceIsTwoBlocks) {
  auto stages = compile_stages("tr a-z A-Z");
  std::string input;
  for (int i = 0; i < 2000; ++i) input += "line number " + std::to_string(i) + "\n";

  kq::ExecOptions options = stream_options(2, 1024);
  options.stats = true;
  kq::Executor executor(options);
  kq::ExecResult r = executor.run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_TRUE(r.nodes[0].sharded);
  EXPECT_EQ(r.nodes[0].shard_slice_bytes, 2048u);
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
}

// ---------------------------------------------------- forced-spill shards --

TEST(ShardDataflow, ForcedSpillShardedSortMatchesSerial) {
  // sort -u is the spillable *and* shardable sort form: the distinct set
  // is its window, and when that window outgrows the spill threshold the
  // sharded node drains it as sorted runs for the external merge.
  auto stages = compile_stages("tr A-Z a-z | sort -u");
  std::string input;
  for (int i = 0; i < 3000; ++i)
    input += "Word-" + std::to_string((i * 7919) % 997) + " Tail-" +
             std::to_string(i) + "\n";

  kq::ExecOptions options = stream_options(4, 1024);
  options.spill_threshold = 2048;  // force the merge node onto disk
  options.stats = true;
  kq::Executor executor(options);
  kq::ExecResult r = executor.run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.batch_fallback);
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  EXPECT_GT(r.spilled_bytes, 0u);
  bool any_sharded_spill = false;
  for (const stream::NodeMetrics& n : r.nodes)
    if (n.sharded && n.spill_runs > 0) any_sharded_spill = true;
  EXPECT_TRUE(any_sharded_spill)
      << "expected a sharded node with sorted spill runs";
}

// ------------------------------------------------- downstream-close early --

TEST(ShardDataflow, DownstreamHeadCancelsInflightShards) {
  auto stages = compile_stages("grep line | head -n 10");
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_TRUE(stages[0].shardable);
  std::string input;
  for (int i = 0; i < 200000; ++i)
    input += "line " + std::to_string(i) + " padding padding padding\n";

  kq::ExecOptions options = stream_options(4, 4096);
  kq::Executor executor(options);
  kq::ExecResult r = executor.run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  // head satisfied after 10 records: upstream cancellation must stop the
  // reader long before the ~6 MiB input drains.
  EXPECT_LT(r.bytes_read, input.size() / 4)
      << "early exit did not cancel in-flight shards";
}

// ------------------------------------------ slices with no combining input --

// In a fused segment like `grep apple | tail -n 1`, a slice without a match
// hands the combining stage no input, so its part is f(""). Folding that
// part in trusts the combiner where it was never certified: `second` kept
// the empty last part (a silent empty answer) and stitch rejects "" (the
// run failed as combine-undefined). The collector leaves such parts out —
// x ++ "" = x — and answers f("") when no slice had input.
TEST(ShardDataflow, SlicesWithoutCombiningInputAreLeftOut) {
  std::string apples_then_pears;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    apples_then_pears += (i < n * 55 / 100 ? "apple " : "pear ") +
                         std::to_string(i) + "\n";
  std::string pears;
  for (int i = 0; i < 5000; ++i) pears += "pear " + std::to_string(i) + "\n";

  for (const char* pipeline :
       {"grep apple | tail -n 1", "grep apple | uniq -c", "grep apple | uniq",
        "grep apple | wc -l"}) {
    auto stages = compile_stages(pipeline);
    for (const std::string* input : {&apples_then_pears, &pears}) {
      const std::string serial = exec::run_serial(stages, *input);
      for (int k : {2, 4, 8}) {
        kq::ExecOptions options = stream_options(k, 4096);
        options.stats = true;
        kq::Executor executor(options);
        kq::ExecResult r = executor.run_collect(stages, *input);
        EXPECT_TRUE(r.ok) << pipeline << " k=" << k << ": " << r.error;
        EXPECT_FALSE(r.batch_fallback) << pipeline << " k=" << k;
        EXPECT_EQ(r.output, serial) << pipeline << " k=" << k;
        ASSERT_EQ(r.nodes.size(), 1u) << pipeline;
        EXPECT_TRUE(r.nodes[0].sharded) << pipeline;
      }
    }
  }
}

// A fold's settled bytes go downstream at record boundaries. `tr -d '\n'`
// is concat-combined but its parts end mid-record, so pushing each part as
// its own block would let the next segment's slices cut words in two
// (`wc -w` over "...ab" + "cd..." counts two words where there is one).
TEST(ShardDataflow, UnterminatedPartsStayRecordAligned) {
  auto stages = compile_stages("tr -d '\\n' | wc -w");
  ASSERT_EQ(stages.size(), 2u);
  std::string input;
  for (int i = 0; i < 20000; ++i) input += "ab cd\nef gh\n";
  const std::string serial = exec::run_serial(stages, input);
  for (int k : {2, 4, 8}) {
    kq::Executor executor(stream_options(k, 4096));
    kq::ExecResult r = executor.run_collect(stages, input);
    EXPECT_TRUE(r.ok) << "k=" << k << ": " << r.error;
    EXPECT_FALSE(r.batch_fallback) << "k=" << k;
    EXPECT_EQ(r.output, serial) << "k=" << k;
    ASSERT_EQ(r.nodes.size(), 2u) << "k=" << k;
    EXPECT_TRUE(r.nodes[0].streamed_combine) << "k=" << k;
  }
}

// ------------------------------------------------ catalog cross-validation --

// Every catalog pipeline, streamed through the sharded runtime at k in
// {2, 4, 8} with small blocks (so parallel segments see many slices), must
// stay byte-identical to the serial oracle.
class ShardCatalogCrossval
    : public ::testing::TestWithParam<const bench::Script*> {};

TEST_P(ShardCatalogCrossval, ShardedStreamingMatchesSerial) {
  const bench::Script& script = *GetParam();
  std::string input = bench::prepare_input(script, 24 * 1024, 7, shared_fs());

  for (const std::string& pipeline : script.pipelines) {
    auto parsed = compile::parse_pipeline(pipeline);
    ASSERT_TRUE(parsed.has_value()) << pipeline;
    compile::Plan plan =
        compile::compile_pipeline(*parsed, shared_cache(), {}, &shared_fs());
    compile::eliminate_intermediate_combiners(plan);
    auto stages = compile::lower_plan(plan);

    std::string serial = exec::run_serial(stages, input);
    for (int k : {2, 4, 8}) {
      kq::Executor executor(stream_options(k, 2048));
      kq::ExecResult r = executor.run_collect(stages, input);
      EXPECT_TRUE(r.ok) << pipeline << " k=" << k << ": " << r.error;
      EXPECT_FALSE(r.batch_fallback)
          << pipeline << " k=" << k << ": incremental combine bailed";
      EXPECT_EQ(r.output, serial)
          << script.suite << "/" << script.name << ": " << pipeline
          << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScripts, ShardCatalogCrossval,
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
