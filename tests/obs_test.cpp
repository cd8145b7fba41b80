// Tests for the observability layer (src/obs/ plus the telemetry plumbed
// through the streaming executor): record counting, concurrent span
// recording (the TSan job drives this test under -fsanitize=thread), JSON
// escaping, and — the metrics-correctness core — per-node counters
// cross-validated against goldens derived from the serial oracle for the
// stream-chain, forced-spill, window, and rewritten top-N node shapes,
// plus blocked-time accrual and early-exit cause attribution.

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compile/optimize.h"
#include "compile/plan.h"
#include "dsl/kway.h"
#include "exec/executor.h"
#include "exec/runner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/dataflow.h"
#include "unixcmd/registry.h"

namespace kq {
namespace {

synth::SynthesisCache& cache() {
  static synth::SynthesisCache c;
  return c;
}

// Compiles a pipeline the way the CLI does; force_sequential reproduces
// k=1 lowering (streamable stages fuse into per-block chains, window
// stages become kWindowStream tails).
std::vector<exec::ExecStage> stages_for(const std::string& pipeline,
                                        bool rewrite = false,
                                        bool force_sequential = false) {
  auto parsed = compile::parse_pipeline(pipeline);
  EXPECT_TRUE(parsed.has_value()) << pipeline;
  compile::Plan plan = compile::compile_pipeline(*parsed, cache());
  if (rewrite) compile::rewrite_bounded_windows(plan);
  if (force_sequential)
    for (auto& stage : plan.stages) stage.parallel = false;
  compile::eliminate_intermediate_combiners(plan);
  return compile::lower_plan(plan);
}

std::string mixed_lines(int n) {
  std::string input;
  for (int i = 0; i < n; ++i)
    input += (i % 3 ? "alpha beta gamma\n" : "omega\n");
  return input;
}

// ------------------------------------------------------- record counting --

TEST(CountRecords, DelimiterOccurrencesPlusTrailingPartial) {
  EXPECT_EQ(obs::count_records("", '\n'), 0u);
  EXPECT_EQ(obs::count_records("a\nb\nc\n", '\n'), 3u);
  EXPECT_EQ(obs::count_records("a\nb\nc", '\n'), 3u);  // unterminated tail
  EXPECT_EQ(obs::count_records("\n\n\n", '\n'), 3u);
  EXPECT_EQ(obs::count_records("no delimiter at all", '\n'), 1u);
  EXPECT_EQ(obs::count_records("a,b,", ','), 2u);
  EXPECT_EQ(obs::count_records(std::string_view("a\0b\0", 4), '\0'), 2u);
}

// ------------------------------------------------------------- tracer --

TEST(Tracer, ConcurrentRecordingLosesNothing) {
  // 8 threads hammer the sharded recorder; the TSan CI job compiles this
  // test with -fsanitize=thread, so any unsynchronized access to a shard
  // or the thread-name table fails there.
  obs::Tracer tracer(/*shards=*/4);  // fewer shards than threads: contend
  constexpr int kThreads = 8;
  constexpr int kSpans = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      tracer.set_thread_name("worker " + std::to_string(t));
      for (int i = 0; i < kSpans; ++i) {
        auto span = tracer.span("unit of work", "test");
        span.arg("thread", static_cast<std::uint64_t>(t));
        span.arg("i", static_cast<std::uint64_t>(i));
      }
      tracer.instant("done", "test");
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.event_count(), kThreads * (kSpans + 1));

  std::ostringstream out;
  tracer.write_chrome_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"worker 3\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(Tracer, EscapesJsonSpecialsInNames) {
  obs::Tracer tracer;
  { auto span = tracer.span("quote\" back\\slash \n tab\t ctl\x01", "test"); }
  tracer.set_thread_name("name \"with\" quotes");
  std::ostringstream out;
  tracer.write_chrome_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("quote\\\" back\\\\slash \\n tab\\t ctl\\u0001"),
            std::string::npos);
  EXPECT_NE(json.find("name \\\"with\\\" quotes"), std::string::npos);
  for (char c : json)
    EXPECT_GE(static_cast<unsigned char>(c), 0x09) << "raw control byte";
}

TEST(Tracer, InertSpanAndNullHelpersAreSafe) {
  // The disabled fast path: null tracer, inert spans, no recording.
  auto span = obs::span(nullptr, "never recorded", "test");
  span.arg("ignored", 1);
  span.finish();
  obs::instant(nullptr, "never recorded", "test");
  obs::Tracer tracer;
  { auto moved = std::move(span); }  // moving an inert span records nothing
  EXPECT_EQ(tracer.event_count(), 0u);
}

// ---------------------------------------- counters vs serial-run goldens --

TEST(Counters, StreamChainMatchesGolden) {
  // grep a | tr a-z A-Z fuses into one per-block stream chain; its counters
  // must reconcile exactly with the input and the serial run's output.
  auto stages = stages_for("grep a | tr a-z A-Z", /*rewrite=*/false,
                           /*force_sequential=*/true);
  const std::string input = mixed_lines(3000);
  const std::string golden = exec::run_serial(stages, input);

  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 512;
  options.stats = true;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, golden);
  ASSERT_EQ(r.nodes.size(), 1u);
  const stream::NodeMetrics& node = r.nodes[0];
  EXPECT_EQ(node.memory, "stateless-stream");
  EXPECT_EQ(node.in_bytes, input.size());
  EXPECT_EQ(node.records_in, obs::count_records(input, '\n'));
  EXPECT_EQ(node.out_bytes, golden.size());
  EXPECT_EQ(node.records_out, obs::count_records(golden, '\n'));
  EXPECT_GT(node.pool_hits + node.pool_misses, 0u);
  EXPECT_EQ(node.early_exit, "");
}

TEST(Counters, ShardedNodeCountsPoolTraffic) {
  // A sharded node takes the reader's blocks, its slices and its parts
  // from the run's BufferPool, and each acquire is charged to the node,
  // so its --stats pool column is no longer 0/0.
  auto stages = stages_for("tr A-Z a-z | grep apple | wc -l");
  std::string input;
  for (int i = 0; i < 6000; ++i)
    input += (i % 3 ? "Pear tart " : "Apple pie ") + std::to_string(i) + "\n";
  const std::string golden = exec::run_serial(stages, input);

  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 4096;
  options.stats = true;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, golden);
  ASSERT_EQ(r.nodes.size(), 1u);
  const stream::NodeMetrics& node = r.nodes[0];
  EXPECT_TRUE(node.sharded);
  EXPECT_GT(node.pool_hits + node.pool_misses, 0u);
  EXPECT_GT(node.pool_hits, 0u);
}

TEST(Counters, ForcedSpillSortMatchesGolden) {
  // A parallel merge-combined sort pushed over its spill threshold: the
  // node's spill counters must show the external runs, and records/bytes
  // must still reconcile exactly (sort permutes, never drops).
  auto stages = stages_for("tr A-Z a-z | sort");
  std::string input;
  for (int i = 20000; i > 0; --i)
    input += "Key" + std::to_string(i) + "\n";
  const std::string golden = exec::run_serial(stages, input);

  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 2048;
  options.spill_threshold = 8192;  // force sorted runs onto disk
  options.stats = true;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, golden);
  ASSERT_EQ(r.nodes.size(), 1u);
  const stream::NodeMetrics& node = r.nodes[0];
  EXPECT_EQ(node.memory, "sortable-spill");
  EXPECT_EQ(node.in_bytes, input.size());
  EXPECT_EQ(node.records_in, obs::count_records(input, '\n'));
  EXPECT_EQ(node.out_bytes, golden.size());
  EXPECT_EQ(node.records_out, node.records_in);
  EXPECT_GT(node.spill_runs, 0);
  EXPECT_GT(node.spilled_bytes, 0u);
  EXPECT_EQ(node.spilled_bytes, r.spilled_bytes);
}

TEST(Counters, WindowStageMatchesGolden) {
  // tail -n 10 as a window-terminated chain: absorbs everything, emits
  // exactly the 10-record window.
  auto stages = stages_for("tail -n 10", /*rewrite=*/false,
                           /*force_sequential=*/true);
  ASSERT_EQ(stages.size(), 1u);
  ASSERT_EQ(stages[0].memory_class, exec::MemoryClass::kWindowStream);
  const std::string input = mixed_lines(5000);
  const std::string golden = exec::run_serial(stages, input);

  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 256;
  options.stats = true;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, golden);
  ASSERT_EQ(r.nodes.size(), 1u);
  const stream::NodeMetrics& node = r.nodes[0];
  EXPECT_EQ(node.memory, "window-stream");
  EXPECT_EQ(node.in_bytes, input.size());
  EXPECT_EQ(node.records_in, obs::count_records(input, '\n'));
  EXPECT_EQ(node.records_out, 10u);
  EXPECT_EQ(node.out_bytes, golden.size());
}

TEST(Counters, RewrittenTopNMatchesGolden) {
  // The rewrite pass fuses sort | head -n 10 into one O(N) window node;
  // its counters must show full consumption and a 10-record emission.
  auto stages = stages_for("sort | head -n 10", /*rewrite=*/true);
  ASSERT_EQ(stages.size(), 1u);
  ASSERT_EQ(stages[0].memory_class, exec::MemoryClass::kWindowStream);
  std::string input;
  // Appends, not chained operator+: GCC 12 -Wrestrict false positive
  // (GCC PR 105329) under -O3 -Werror.
  for (int i = 5000; i > 0; --i) {
    input += "k";
    input += std::to_string(i);
    input += "\n";
  }
  const std::string golden = exec::run_serial(stages, input);

  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 512;
  options.stats = true;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, golden);
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_EQ(r.nodes[0].memory, "window-stream");
  EXPECT_EQ(r.nodes[0].records_in, obs::count_records(input, '\n'));
  EXPECT_EQ(r.nodes[0].records_out, 10u);
  EXPECT_EQ(r.nodes[0].out_bytes, golden.size());
}

TEST(Counters, StatsOffLeavesMetricsZero) {
  // Counters exist only under --stats; the default path must not pay for
  // (or fabricate) them.
  auto stages = stages_for("grep a | tr a-z A-Z", /*rewrite=*/false,
                           /*force_sequential=*/true);
  const std::string input = mixed_lines(500);
  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 512;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.nodes.size(), 1u);
  // in_bytes/out_bytes predate the telemetry layer and stay on; the
  // stats-only counters must remain untouched.
  EXPECT_EQ(r.nodes[0].records_in, 0u);
  EXPECT_EQ(r.nodes[0].records_out, 0u);
  EXPECT_EQ(r.nodes[0].memory, "");
  EXPECT_EQ(r.nodes[0].early_exit, "");
}

TEST(Counters, CombineTimeOnlyUnderStats) {
  // A sharded uniq -c folds every slice's output through its collector:
  // with stats on, that work shows up as combine time without a trace;
  // with stats off the clock is never read and the counter stays zero.
  auto stages = stages_for("uniq -c");
  std::string input;
  for (int i = 0; i < 20000; ++i)
    input += "key-" + std::to_string(i / 3) + "\n";
  const std::string golden = exec::run_serial(stages, input);
  for (bool stats : {true, false}) {
    ExecOptions options;
    options.parallelism = 4;
    options.block_size = 4096;
    options.stats = stats;
    ExecResult r = Executor(options).run_collect(stages, input);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.output, golden);
    ASSERT_EQ(r.nodes.size(), 1u);
    EXPECT_TRUE(r.nodes[0].sharded);
    EXPECT_TRUE(r.nodes[0].streamed_combine);
    if (stats) {
      EXPECT_GT(r.nodes[0].combine_ns, 0u);
    } else {
      EXPECT_EQ(r.nodes[0].combine_ns, 0u);
    }
  }
}

// ------------------------------------- blocked time and early-exit cause --

TEST(Counters, SendBlockedTimeAccruesAgainstSlowConsumer) {
  // A parallel concat node feeding a stream chain whose sink sleeps per
  // block: the chain pulls at sink speed, the bounded link fills, and the
  // upstream node's pushes must wait — the send-blocked counter is exactly
  // that wait. (The final node's push *is* the sink call, so only an
  // inter-node channel can accrue send-blocked time.)
  std::vector<exec::ExecStage> stages;
  {
    exec::ExecStage s;
    s.command = cmd::make_command_line("tr a-z A-Z");
    s.parallel = true;
    s.fold = [] { return dsl::Fold(dsl::combiner_concat()); };
    s.combiner_name = "(concat a b)";
    s.combine = [](const std::vector<std::string>& parts)
        -> std::optional<std::string> {
      std::string out;
      for (const auto& p : parts) out += p;
      return out;
    };
    stages.push_back(std::move(s));
  }
  {
    exec::ExecStage s;
    s.command = cmd::make_command_line("grep ALPHA");
    ASSERT_NE(s.command, nullptr);
    s.memory_class = exec::MemoryClass::kStatelessStream;
    stages.push_back(std::move(s));
  }
  const std::string input = mixed_lines(2000);
  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 256;  // ~140 blocks
  options.max_inflight = 2;
  options.stats = true;
  std::istringstream in(input);
  std::string output;
  stream::Sink sink = [&output](std::string_view bytes) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    output.append(bytes);
    return true;
  };
  ExecResult r = Executor(options).run(stages, in, sink);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.nodes.size(), 2u);
  EXPECT_EQ(output, exec::run_serial(stages, input));
  EXPECT_GT(r.nodes[0].send_blocked_ns, 0u);
}

TEST(Counters, PrefixEarlyExitCauseAttributed) {
  // head satisfies its prefix and stops consuming: the node must report
  // prefix-satisfied and the reader must stop long before end of input.
  auto stages = stages_for("head -n 3", /*rewrite=*/false,
                           /*force_sequential=*/true);
  const std::string input = mixed_lines(100000);  // ~1.5 MB
  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 4096;
  options.stats = true;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_EQ(r.nodes[0].early_exit, "prefix-satisfied");
  EXPECT_LT(r.bytes_read, input.size() / 4);
}

TEST(Counters, DownstreamClosedCauseAttributed) {
  // awk materializes and re-emits many blocks; head -n 1 closes after the
  // first, so the upstream node's early exit is downstream-closed.
  auto stages = stages_for("awk '{print $1}' | head -n 1",
                           /*rewrite=*/false, /*force_sequential=*/true);
  ASSERT_EQ(stages.size(), 2u);
  const std::string input = mixed_lines(20000);
  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 256;
  options.stats = true;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  ASSERT_EQ(r.nodes.size(), 2u);
  EXPECT_EQ(r.nodes[0].early_exit, "downstream-closed");
}

TEST(Counters, EarlyStoppedExternalMergeCountsAcceptedBytes) {
  // A sink that takes one block and refuses the next stops an external
  // sort (k = 1) or the collector's merge (k = 4) mid-emission: the node
  // counts only the bytes downstream accepted and reports the close.
  std::string input;
  for (int i = 40000; i > 0; --i) input += std::to_string(i) + "\n";
  for (int k : {1, 4}) {
    auto stages = stages_for("sort", /*rewrite=*/false,
                             /*force_sequential=*/k == 1);
    ExecOptions options;
    options.parallelism = k;
    options.block_size = 4096;
    options.spill_threshold = 16 * 1024;
    options.stats = true;
    std::size_t accepted = 0;
    std::istringstream in(input);  // a string source would buffer the output
    ExecResult r = Executor(options).run(
        stages, in, [&accepted](std::string_view block) {
          if (accepted > 0) return false;
          accepted = block.size();
          return true;
        });
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.stopped_early);
    ASSERT_EQ(r.nodes.size(), 1u);
    EXPECT_GT(r.nodes[0].spill_runs, 0) << "k=" << k;
    EXPECT_EQ(r.nodes[0].out_bytes, accepted) << "k=" << k;
    EXPECT_EQ(r.nodes[0].early_exit, "downstream-closed") << "k=" << k;
  }
}

// --------------------------------------------- end-to-end trace content --

TEST(Tracer, StreamingRunEmitsTaxonomySpans) {
  // A spilling pipeline with the tracer attached must record the documented
  // span names (docs/OBSERVABILITY.md): source fills, node lifetimes,
  // per-block work, and spill runs — and serialize to well-formed JSON.
  auto stages = stages_for("tr A-Z a-z | sort");
  std::string input;
  for (int i = 8000; i > 0; --i) input += "Key" + std::to_string(i) + "\n";
  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 2048;
  options.spill_threshold = 8192;
  options.stats = true;
  obs::Tracer tracer;
  options.tracer = &tracer;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  EXPECT_GT(tracer.event_count(), 0u);
  std::ostringstream out;
  tracer.write_chrome_json(out);
  const std::string json = out.str();
  for (const char* name :
       {"\"source-fill\"", "\"node: ", "worker-chunk", "spill-run",
        "spill-merge"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace kq
