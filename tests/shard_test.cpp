// Tests for sharded streaming execution: eligible parallel segments run as
// per-shard stream sub-chains (exec::run_slice_fused) feeding the
// collector's boundary fold. Cross-validates the whole 70-script catalog
// at k in {2, 4, 8} against the serial oracle, plus the pooled buffers'
// steady state and the workers' part buffers, a forced-spill sharded run, a downstream-close (`| head`)
// early exit that cancels in-flight shards, slices whose combining stage
// gets no input, the workers' legality verdicts, progress with blocking
// feeders and collectors on one pool, and the shard-eligibility/telemetry
// contracts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support/catalog.h"
#include "compile/optimize.h"
#include "compile/plan.h"
#include "dsl/ast.h"
#include "exec/executor.h"
#include "exec/parallel.h"
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
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  ASSERT_EQ(r.nodes.size(), 1u);  // fused into one parallel segment
  EXPECT_TRUE(r.nodes[0].sharded);
  EXPECT_GT(r.nodes[0].shard_slice_bytes, 0u);
  EXPECT_GT(r.nodes[0].shard_slices, 0u);
  EXPECT_GT(r.nodes[0].worker_busy_ns, 0u);
}

TEST(ShardDataflow, ShardSliceIsOneBlock) {
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
  EXPECT_EQ(r.nodes[0].shard_slice_bytes, options.block_size);
  // The slices actually cut stay within the ceiling: the feeder sends its
  // buffer before a piece would push it past one block.
  const std::size_t slice = r.nodes[0].shard_slice_bytes;
  EXPECT_GE(r.nodes[0].shard_slices,
            (r.nodes[0].in_bytes + slice - 1) / slice);
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
}

TEST(ShardDataflow, InflightBytesStayWithinBudget) {
  // A sharded run's slices in flight stay within max_inflight ·
  // block_size: it has max_inflight slots, and no slice overshoots one
  // block. The output is a count, so slices dominate.
  auto stages = compile_stages("tr A-Z a-z | grep apple | wc -l");
  std::string input;
  for (int i = 0; i < 20000; ++i) {
    input += i % 3 ? "Apple pie number " : "pear tart number ";
    input += std::to_string(i);
    input += '\n';
  }

  kq::ExecOptions options = stream_options(4, 4096);
  options.max_inflight = 10;
  kq::Executor executor(options);
  kq::ExecResult r = executor.run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_TRUE(r.nodes[0].sharded);
  EXPECT_LE(r.peak_inflight_bytes, options.max_inflight * options.block_size);
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
}

// ------------------------------------------------------- pooled buffers --

// Lines of `keys` distinct 8-byte keys, the whole set `copies` times over.
std::string repeated_keys(int keys, int copies) {
  std::string out;
  for (int c = 0; c < copies; ++c) {
    for (int key = 0; key < keys; ++key) {
      char line[16];
      std::snprintf(line, sizeof(line), "key%04d\n", key);
      out += line;
    }
  }
  return out;
}

// A sharded worker's part: run_slice_fused writes it into the caller's
// buffer, which a part filling at least half of it keeps, while a sparser
// part comes back in a fitted copy and gives the buffer to `recycle`. So
// a part the collector holds keeps at most twice its size. A per-block
// terminal (grep) appends to the buffer rather than swapping in its own.
TEST(ShardWorker, PartKeepsItsBufferOrComesBackFitted) {
  const std::string slice = repeated_keys(1000, 8);  // 64000 bytes
  struct Case {
    const char* pipeline;
    bool fitted;
  };
  for (const Case& c : {Case{"sort -u", true}, Case{"grep key00", true},
                        Case{"grep key", false}, Case{"tr a-z A-Z", false}}) {
    auto stages = compile_stages(c.pipeline);
    std::vector<const cmd::Command*> chain;
    for (const exec::ExecStage& stage : stages)
      chain.push_back(stage.command.get());
    std::string out;
    out.reserve(slice.size());
    const char* out_data = out.data();
    std::vector<std::string> recycled;
    const exec::Recycle recycle = [&recycled](std::string&& spent) {
      recycled.push_back(std::move(spent));
    };
    const std::string part = exec::run_slice_fused(
        chain, slice, exec::kSliceStep, nullptr, std::move(out), recycle);
    EXPECT_EQ(part, exec::run_serial(stages, slice)) << c.pipeline;
    EXPECT_LE(part.capacity(), 2 * part.size()) << c.pipeline;
    const bool gave_back =
        std::any_of(recycled.begin(), recycled.end(),
                    [&](const std::string& b) { return b.data() == out_data; });
    EXPECT_EQ(gave_back, c.fitted) << c.pipeline;
    EXPECT_EQ(part.data() == out_data, !c.fitted) << c.pipeline;
  }
}

// A sharded node recycles the reader's blocks, its slices and its parts
// through the run's BufferPool. Past the first in-flight population every
// acquire is a hit, so the node's misses stay near its slot count however
// long the input runs. That holds for sparse parts too (a few KB of a
// 64 KiB slice: sort -u and grep over repeated keys), which give their
// buffers back: a merge holds sort -u's parts, so one that kept its
// slice-sized buffer would take it out of circulation.
TEST(ShardDataflow, PoolMissesDoNotGrowWithInput) {
  std::string runs[2];   // uniq -c: runs of 1-4 equal lines
  std::string words[2];  // a third of the lines hold an apple
  for (int size = 0; size < 2; ++size) {
    for (int i = 0; i < 12000 << (2 * size); ++i) {  // the larger is 4x
      const std::string key = "key-" + std::to_string(i * 7919 % 100003);
      for (int j = 0; j <= i % 4; ++j) runs[size] += key + "\n";
      words[size] += (i % 3 ? "Pear tart " : "Apple pie ") + key + "\n";
    }
  }
  const std::string keys[2] = {repeated_keys(1000, 256),    // 2 MB
                               repeated_keys(1000, 1024)};  // 8 MB
  struct Case {
    const char* pipeline;
    const std::string* inputs;
    std::size_t block;
  };
  const int k = 4;
  for (const Case& c : {Case{"uniq -c", runs, 4096},
                        Case{"tr A-Z a-z | grep apple | wc -l", words, 4096},
                        Case{"sort -u", keys, 64 << 10},
                        Case{"grep key00", keys, 64 << 10}}) {
    kq::ExecOptions options = stream_options(k, c.block);
    options.stats = true;
    // The node's slots: the default max_inflight, 2k + 2 one-block
    // slices. Beyond one buffer per slot, the first population holds a
    // part for each of the k pool threads (the only threads that run
    // slices), the slice the feeder fills, a reader block, and slack for
    // timing.
    const std::size_t slots = 2 * k + 2;
    const std::size_t max_misses = slots + k + 4;
    auto stages = compile_stages(c.pipeline);
    for (int size = 0; size < 2; ++size) {
      const std::string& bytes = c.inputs[size];
      kq::ExecResult r = kq::Executor(options).run_collect(stages, bytes);
      ASSERT_TRUE(r.ok) << c.pipeline << ": " << r.error;
      EXPECT_EQ(r.output, exec::run_serial(stages, bytes)) << c.pipeline;
      ASSERT_EQ(r.nodes.size(), 1u) << c.pipeline;
      const stream::NodeMetrics& node = r.nodes[0];
      ASSERT_TRUE(node.sharded) << c.pipeline;
      EXPECT_LE(node.pool_misses, max_misses)
          << c.pipeline << " over " << bytes.size() << " bytes";
      if (size == 1) {
        const std::uint64_t acquires = node.pool_hits + node.pool_misses;
        EXPECT_GT(acquires, 0u) << c.pipeline;
        EXPECT_GE(node.pool_hits * 10, acquires * 9)
            << c.pipeline << ": " << node.pool_hits << " hits of "
            << acquires;
      }
    }
  }
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
    EXPECT_EQ(r.output, serial) << "k=" << k;
    ASSERT_EQ(r.nodes.size(), 2u) << "k=" << k;
    EXPECT_TRUE(r.nodes[0].streamed_combine) << "k=" << k;
  }
}

// ------------------------------------------------- worker-side verdicts --

// The workers check each part's lines for the collector's fold, which then
// checks only the seam. A part with an illegal line away from its seams
// must still make the fold undefined. `cat` runs over 10-byte lines in
// 10-line slices, one of them illegal:
//  * uniq -c's table (stitch2 ' ' add first), and a line that is no padded
//    table line in the middle of the second slice;
//  * offset '\t' add, and a count with no tab after it in the middle of
//    the first slice (offset rewrites every later part, and the rewrite
//    would refuse it there);
//  * stitch add, and a non-digit line in the middle of the second slice.
// Were the worker's verdict dropped, legal by default, or a check that
// accepts too much, the fold would pass the line through.
TEST(ShardDataflow, IllegalLineAwayFromTheSeamFailsTheFold) {
  struct Case {
    dsl::Combiner g;
    const char* format;  // the i-th line, from the count i % 7 + 1
    int bad_at;
    const char* bad;
  };
  const Case cases[] = {
      {dsl::combiner_stitch2_add_first(' '), "%7d x\n", 15, "not-a-row\n"},
      {dsl::combiner_offset_add('\t'), "%7d\tx\n", 5, "   123456\n"},
      {{dsl::make_stitch(dsl::make_leaf(dsl::Op::kAdd)), false, nullptr, ""},
       "%09d\n",
       15,
       "not-digit\n"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(dsl::to_string(c.g));
    std::vector<exec::ExecStage> stages(1);
    stages[0].command = cmd::make_command_line("cat");
    stages[0].parallel = true;
    stages[0].primary = c.g;

    // 10-byte lines in 100-byte blocks: every block, and so every slice,
    // is ten whole lines.
    std::string input;
    for (int i = 0; i < 60; ++i) {
      char line[16];
      std::snprintf(line, sizeof(line), c.format, i % 7 + 1);
      input += i == c.bad_at ? c.bad : line;
    }
    ASSERT_EQ(input.size(), 600u);
    const std::string serial = exec::run_serial(stages, input);
    ASSERT_EQ(serial, input);

    kq::ExecOptions options = stream_options(4, 100);
    options.stats = true;
    kq::Executor executor(options);

    FILE* file = std::tmpfile();
    ASSERT_NE(file, nullptr);
    std::fwrite(input.data(), 1, input.size(), file);
    std::fflush(file);
    std::rewind(file);
    std::string sunk;
    kq::ExecResult from_fd =
        executor.run(stages, kq::Source::from_fd(fileno(file)),
                     [&sunk](std::string_view bytes) {
                       sunk.append(bytes);
                       return true;
                     });
    std::fclose(file);
    EXPECT_FALSE(from_fd.ok);
    EXPECT_TRUE(from_fd.combine_undefined) << from_fd.error;
    ASSERT_EQ(from_fd.nodes.size(), 1u);
    EXPECT_TRUE(from_fd.nodes[0].sharded);

    // A string source fails the same way.
    kq::ExecResult from_string = executor.run_collect(stages, input);
    EXPECT_FALSE(from_string.ok);
    EXPECT_TRUE(from_string.combine_undefined) << from_string.error;
    EXPECT_EQ(from_string.error, from_fd.error);
  }
}

// ------------------------------------------------ progress without stealing --

// A parallel node's feeder blocks on its slots and its collector on its
// results; neither runs pool tasks. wf.sh's pipeline gives three parallel
// nodes on one pool: `tr A-Z a-z | sort` and `sort -rn`, merge-combined,
// whose key-range merges are pool tasks too, and a sharded `uniq -c`.
// Without combiner elimination `tr A-Z a-z` is a second sharded node. With
// one in-flight slot per node, 4 KiB blocks and a spill threshold that
// sends the merge to disk, the run must finish and match the serial
// oracle.
TEST(ShardDataflow, NodesSharingOnePoolProgressWithoutStealing) {
  auto stages = compile_stages(
      "tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn");
  const char* words[] = {"The", "of", "and", "whale", "sea", "Ahab",
                         "ship", "a",  "to",  "in",    "his", "Ishmael"};
  std::string input;
  std::uint32_t x = 7919;
  for (int i = 0; i < 30000; ++i) {
    x = x * 1103515245u + 12345u;
    const std::uint32_t r = (x >> 16) % 78;  // about Zipf: word w has 12 - w
    int w = 0;                               // shares of 78
    for (std::uint32_t acc = 12; acc <= r; acc += 12 - w) ++w;
    input += words[w];
    input += i % 13 == 12 ? ".\n" : " ";
  }
  const std::string serial = exec::run_serial(stages, input);
  for (bool elimination : {true, false}) {
    for (int k : {2, 8}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   (elimination ? "" : ", no elimination"));
      kq::ExecOptions options = stream_options(k, 4096);
      options.use_elimination = elimination;
      options.max_inflight = 1;
      options.spill_threshold = 16 << 10;
      options.stats = true;
      kq::ExecResult r = kq::Executor(options).run_collect(stages, input);
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.output, serial);
      int parallel = 0, sharded = 0;
      bool merged_from_disk = false;
      for (const stream::NodeMetrics& n : r.nodes) {
        parallel += n.parallel;
        sharded += n.sharded;
        merged_from_disk = merged_from_disk || (n.parallel && n.spill_runs > 0);
      }
      EXPECT_EQ(parallel, elimination ? 3 : 4);
      EXPECT_EQ(sharded, elimination ? 1 : 2);
      EXPECT_TRUE(merged_from_disk);
    }
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
