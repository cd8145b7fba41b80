// Tests for the spill-to-disk subsystem (stream/spill.*): temp-file
// plumbing, raw spooling, external merge sort and sorted-part merging
// against their in-memory references, the dataflow runtime's spill-backed
// nodes, and cross-validation of forced-spill streaming against the serial
// oracle on every catalog pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "bench_support/catalog.h"
#include "compile/optimize.h"
#include "compile/plan.h"
#include "exec/executor.h"
#include "exec/runner.h"
#include "stream/dataflow.h"
#include "stream/spill.h"
#include "unixcmd/registry.h"
#include "unixcmd/sort_cmd.h"

namespace kq::stream {
namespace {

std::shared_ptr<const cmd::SortSpec> spec_of(
    const std::vector<std::string>& flags) {
  auto spec = cmd::SortSpec::parse(flags);
  EXPECT_TRUE(spec.has_value());
  return std::make_shared<const cmd::SortSpec>(*spec);
}

// Drives a SpillMerger over `pieces` and returns the concatenated pushes.
std::string merged_output(SpillMerger& merger,
                          std::vector<std::string> pieces,
                          std::size_t block_size = 64) {
  for (std::string& p : pieces) EXPECT_TRUE(merger.add(std::move(p)));
  std::string out;
  EXPECT_TRUE(merger.finish(
      [&out](std::string&& block) {
        out += block;
        return true;
      },
      block_size));
  return out;
}

std::vector<std::string> shuffled_lines(int n, std::uint64_t seed) {
  std::vector<std::string> lines;
  for (int i = 0; i < n; ++i)
    lines.push_back("line-" + std::to_string(i % (n / 4 + 1)) + "-" +
                    std::to_string(i) + "\n");
  std::mt19937_64 rng(seed);
  std::shuffle(lines.begin(), lines.end(), rng);
  return lines;
}

// -------------------------------------------------------------- SpillFile --

TEST(SpillFile, AppendAndPositionedReadRoundtrip) {
  SpillFile file;
  ASSERT_TRUE(file.valid()) << file.error();
  ASSERT_TRUE(file.append("hello "));
  ASSERT_TRUE(file.append("world"));
  EXPECT_EQ(file.size(), 11u);

  std::string buf(5, '\0');
  ASSERT_TRUE(file.read_exact(6, buf.data(), 5));
  EXPECT_EQ(buf, "world");
  ASSERT_TRUE(file.read_exact(0, buf.data(), 5));
  EXPECT_EQ(buf, "hello");
}

TEST(SpillFile, ReadPastEndFails) {
  SpillFile file;
  ASSERT_TRUE(file.append("abc"));
  std::string buf(8, '\0');
  EXPECT_FALSE(file.read_exact(0, buf.data(), 8));
  EXPECT_FALSE(file.error().empty());
}

// --------------------------------------------------------------- RawSpool --

TEST(RawSpool, StaysInMemoryBelowThreshold) {
  RawSpool spool(1024);
  ASSERT_TRUE(spool.add("alpha\n"));
  ASSERT_TRUE(spool.add("beta\n"));
  EXPECT_FALSE(spool.spilled());
  std::string all;
  ASSERT_TRUE(spool.take(&all));
  EXPECT_EQ(all, "alpha\nbeta\n");
}

TEST(RawSpool, SpillsPastThresholdAndReplaysAllBytes) {
  RawSpool spool(64);
  std::string expect;
  for (int i = 0; i < 100; ++i) {
    std::string piece = "piece-" + std::to_string(i) + "\n";
    expect += piece;
    ASSERT_TRUE(spool.add(piece));
  }
  EXPECT_TRUE(spool.spilled());
  EXPECT_GT(spool.spilled_bytes(), 0u);
  std::string all;
  ASSERT_TRUE(spool.take(&all));
  EXPECT_EQ(all, expect);
}

TEST(RawSpool, ZeroThresholdNeverSpills) {
  RawSpool spool(0);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(spool.add("data data data\n"));
  EXPECT_FALSE(spool.spilled());
}

// ---------------------------------------------- SpillMerger: external sort --

TEST(SpillMerger, ExternalSortMatchesSortStream) {
  auto spec = spec_of({});
  auto lines = shuffled_lines(500, 7);
  std::string whole;
  for (const std::string& l : lines) whole += l;

  SpillMerger merger(spec, SpillMerger::Input::kUnsortedBlocks, 256);
  std::string out = merged_output(merger, lines);
  EXPECT_GT(merger.runs_spilled(), 1);
  EXPECT_EQ(out, spec->sort_stream(whole));
}

TEST(SpillMerger, ExternalSortNumericReverseUnique) {
  const std::vector<std::vector<std::string>> cases = {
      {"-n"}, {"-r"}, {"-u"}, {"-nu"}, {"-nr"}};
  for (const std::vector<std::string>& flags : cases) {
    auto spec = spec_of(flags);
    std::vector<std::string> pieces;
    std::mt19937_64 rng(13);
    std::string whole;
    for (int i = 0; i < 400; ++i) {
      std::string line = std::to_string(rng() % 50) + " payload-" +
                         std::to_string(i % 3) + "\n";
      whole += line;
      pieces.push_back(std::move(line));
    }
    SpillMerger merger(spec, SpillMerger::Input::kUnsortedBlocks, 128);
    std::string out = merged_output(merger, pieces);
    EXPECT_GT(merger.runs_spilled(), 1);
    EXPECT_EQ(out, spec->sort_stream(whole)) << "flags " << flags.front();
  }
}

TEST(SpillMerger, ExternalSortStableTiesKeepInputOrder) {
  // -ns: all keys compare equal (non-numeric prefixes are 0) and -s
  // disables the last-resort bytewise tiebreak, so output preserves input
  // order across spilled run boundaries.
  auto spec = spec_of({"-n", "-s"});
  std::vector<std::string> pieces;
  std::string whole;
  for (int i = 0; i < 200; ++i) {
    std::string line = "tie-payload-" + std::to_string(i) + "\n";
    whole += line;
    pieces.push_back(std::move(line));
  }
  SpillMerger merger(spec, SpillMerger::Input::kUnsortedBlocks, 128);
  std::string out = merged_output(merger, pieces);
  EXPECT_GT(merger.runs_spilled(), 1);
  EXPECT_EQ(out, whole);  // stable: byte-identical to the input order
  EXPECT_EQ(out, spec->sort_stream(whole));
}

TEST(SpillMerger, ZeroThresholdSingleResidentRun) {
  auto spec = spec_of({});
  auto lines = shuffled_lines(100, 3);
  std::string whole;
  for (const std::string& l : lines) whole += l;
  SpillMerger merger(spec, SpillMerger::Input::kUnsortedBlocks, 0);
  std::string out = merged_output(merger, lines);
  EXPECT_EQ(merger.runs_spilled(), 0);
  EXPECT_EQ(merger.spilled_bytes(), 0u);
  EXPECT_EQ(out, spec->sort_stream(whole));
}

TEST(SpillMerger, EmptyInputProducesEmptyOutput) {
  auto spec = spec_of({});
  SpillMerger merger(spec, SpillMerger::Input::kUnsortedBlocks, 64);
  std::string out = merged_output(merger, {});
  EXPECT_EQ(out, "");
}

TEST(SpillMerger, UnterminatedFinalRecordSortsLikeSortStream) {
  auto spec = spec_of({});
  SpillMerger merger(spec, SpillMerger::Input::kUnsortedBlocks, 0);
  std::string out = merged_output(merger, {"b\nc\na"});
  EXPECT_EQ(out, spec->sort_stream("b\nc\na"));
  EXPECT_EQ(out, "a\nb\nc\n");
}

// --------------------------------------------- SpillMerger: sorted parts --

TEST(SpillMerger, SortedPartsMatchMergeStreams) {
  auto spec = spec_of({});
  std::vector<std::string> parts;
  std::mt19937_64 rng(21);
  for (int p = 0; p < 40; ++p) {
    std::vector<std::string> chunk;
    for (int i = 0; i < 20; ++i) {
      // Append form: GCC PR 105329 (-Wrestrict).
      std::string word = "w";
      word += std::to_string(rng() % 1000);
      chunk.push_back(std::move(word));
    }
    std::string part;
    for (std::string& c : chunk) part += c + "\n";
    parts.push_back(spec->sort_stream(part));  // each part pre-sorted
  }
  std::vector<std::string_view> views(parts.begin(), parts.end());
  std::string expect = spec->merge_streams(views);

  SpillMerger merger(spec, SpillMerger::Input::kSortedParts, 512);
  std::string out = merged_output(merger, parts);
  EXPECT_GT(merger.runs_spilled(), 1);
  EXPECT_EQ(out, expect);
}

TEST(SpillMerger, SortedPartsUniqueDedupesAcrossRuns) {
  auto spec = spec_of({"-u"});
  // Every part carries the same keys: -u must keep exactly one copy even
  // though the duplicates live in different spilled runs.
  std::vector<std::string> parts(20, "a\nb\nc\n");
  std::vector<std::string_view> views(parts.begin(), parts.end());
  std::string expect = spec->merge_streams(views);

  SpillMerger merger(spec, SpillMerger::Input::kSortedParts, 16);
  std::string out = merged_output(merger, parts);
  EXPECT_GT(merger.runs_spilled(), 1);
  EXPECT_EQ(out, expect);
  EXPECT_EQ(out, "a\nb\nc\n");
}

TEST(SpillMerger, SortedPartsEmptyPartsAreSkipped) {
  auto spec = spec_of({});
  SpillMerger merger(spec, SpillMerger::Input::kSortedParts, 16);
  std::string out = merged_output(merger, {"", "b\n", "", "a\n", ""});
  EXPECT_EQ(out, "a\nb\n");
}

// ----------------------------------------------------- dataflow with spill --

TEST(SpillDataflow, SequentialSortNodeExternalSorts) {
  std::vector<exec::ExecStage> stages;
  exec::ExecStage s;
  s.command = cmd::make_command_line("sort");
  ASSERT_NE(s.command, nullptr);
  s.parallel = false;  // force the sequential node
  s.memory_class = exec::MemoryClass::kSortableSpill;
  s.sort_spec = cmd::sort_spec_of(*s.command);
  ASSERT_NE(s.sort_spec, nullptr);
  stages.push_back(std::move(s));

  std::string input;
  auto lines = shuffled_lines(2000, 11);
  for (const std::string& l : lines) input += l;

  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 256;
  options.spill_threshold = 2048;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_GT(r.nodes[0].spill_runs, 1);
  EXPECT_GT(r.spilled_bytes, 0u);
}

TEST(SpillDataflow, ParallelMergeCombinerSpillsChunkOutputs) {
  std::vector<exec::ExecStage> stages;
  exec::ExecStage s;
  s.command = cmd::make_command_line("sort");
  s.parallel = true;
  s.memory_class = exec::MemoryClass::kSortableSpill;
  s.sort_spec = cmd::sort_spec_of(*s.command);
  s.combiner_name = "(merge a b)";
  auto spec = s.sort_spec;
  s.combine = [spec](const std::vector<std::string>& parts)
      -> std::optional<std::string> {
    std::vector<std::string_view> views(parts.begin(), parts.end());
    return spec->merge_streams(views);
  };
  stages.push_back(std::move(s));

  std::string input;
  auto lines = shuffled_lines(3000, 17);
  for (const std::string& l : lines) input += l;

  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 512;
  options.spill_threshold = 4096;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.batch_fallback);
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_GT(r.nodes[0].spilled_bytes, 0u);
}

TEST(SpillDataflow, ParallelRerunCombinerSpoolsThroughDisk) {
  // A rerun-combined parallel stage: chunk outputs spool to disk past the
  // threshold and the command reruns once over their concatenation —
  // byte-identical to the in-memory k-way rerun.
  std::vector<exec::ExecStage> stages;
  exec::ExecStage s;
  s.command = cmd::make_command_line("uniq");
  ASSERT_NE(s.command, nullptr);
  s.parallel = true;
  s.rerun_combiner = true;
  s.combiner_name = "(rerun a b)";
  auto command = s.command;
  s.combine = [command](const std::vector<std::string>& parts)
      -> std::optional<std::string> {
    std::string joined;
    for (const std::string& p : parts) joined += p;
    cmd::Result r = command->execute(joined);
    if (!r.ok()) return std::nullopt;
    return std::move(r.out);
  };
  stages.push_back(std::move(s));

  std::string input;
  for (int i = 0; i < 2000; ++i)
    input += "run-" + std::to_string(i / 7) + "\n";  // adjacent duplicates

  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 256;
  options.spill_threshold = 2048;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.batch_fallback);
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_GT(r.nodes[0].spilled_bytes, 0u);
}

TEST(SpillDataflow, MaterializeNodeSpoolsThroughDisk) {
  // An unknown-to-synthesis sequential stage must still produce exact
  // output when its drain spools through the temp file. uniq itself now
  // window-streams (kWindowStream), so wrap it as an opaque lambda — same
  // semantics, no streamability declaration — to keep a true materialize
  // witness.
  std::vector<exec::ExecStage> stages;
  exec::ExecStage s;
  cmd::CommandPtr uniq = cmd::make_command_line("uniq -c");
  ASSERT_NE(uniq, nullptr);
  s.command = cmd::make_lambda_command(
      uniq->display_name(),
      [uniq](std::string_view in) { return uniq->run(in); });
  s.parallel = false;
  stages.push_back(std::move(s));

  std::string input;
  for (int i = 0; i < 500; ++i)
    input += "dup-" + std::to_string(i / 5) + "\n";

  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 128;
  options.spill_threshold = 1024;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_GT(r.nodes[0].spilled_bytes, 0u);
}

TEST(SpillDataflow, OversizedRecordFailsWithDiagnostic) {
  std::vector<exec::ExecStage> stages;
  exec::ExecStage s;
  s.command = cmd::make_command_line("wc -c");
  s.parallel = false;
  stages.push_back(std::move(s));

  // One delimiter-free record far larger than the spill threshold.
  std::string input(64 * 1024, 'x');
  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 1024;
  options.spill_threshold = 8 * 1024;
  ExecResult r = Executor(options).run_collect(stages, input);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("spill threshold"), std::string::npos) << r.error;
}

TEST(SpillDataflow, LowerPlanAssignsMemoryClasses) {
  synth::SynthesisCache cache;
  auto parsed = compile::parse_pipeline("sort | wc -l | frobnicate");
  ASSERT_TRUE(parsed.has_value());
  compile::Plan plan = compile::compile_pipeline(*parsed, cache);
  auto stages = compile::lower_plan(plan);
  ASSERT_EQ(stages.size(), 3u);
  // sort: parallel, merge-combined -> sortable spill with a comparator.
  EXPECT_EQ(stages[0].memory_class, exec::MemoryClass::kSortableSpill);
  EXPECT_NE(stages[0].sort_spec, nullptr);
  // wc -l: parallel fold (add) -> bounded by construction.
  EXPECT_EQ(stages[1].memory_class, exec::MemoryClass::kStreaming);
  // unknown command -> sequential materialize.
  EXPECT_EQ(stages[2].memory_class, exec::MemoryClass::kMaterialize);
  EXPECT_EQ(stages[2].sort_spec, nullptr);
}

// ------------------------------------------------ catalog cross-validation --

// Forced-spill streaming (threshold far below the input) must stay
// byte-identical to the serial oracle on every catalog pipeline — the same
// contract stream_test checks, now exercised through the spill paths.
class SpillCatalogCrossval
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

TEST_P(SpillCatalogCrossval, ForcedSpillMatchesSerial) {
  const bench::Script& script = *GetParam();
  std::string input = bench::prepare_input(script, 24 * 1024, 7, fs());

  for (const std::string& pipeline : script.pipelines) {
    auto parsed = compile::parse_pipeline(pipeline);
    ASSERT_TRUE(parsed.has_value()) << pipeline;
    compile::Plan plan =
        compile::compile_pipeline(*parsed, cache(), {}, &fs());
    compile::eliminate_intermediate_combiners(plan);
    auto stages = compile::lower_plan(plan);

    const std::string serial = exec::run_serial(stages, input);

    ExecOptions options;
    options.parallelism = 4;
    options.block_size = 2048;
    options.spill_threshold = 1024;  // force every spillable node to spill
    ExecResult r = Executor(options).run_collect(stages, input);
    EXPECT_TRUE(r.ok) << pipeline << ": " << r.error;
    EXPECT_FALSE(r.batch_fallback)
        << pipeline << ": incremental combine bailed: " << r.error;
    EXPECT_EQ(r.output, serial)
        << script.suite << "/" << script.name << ": " << pipeline;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScripts, SpillCatalogCrossval,
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
}  // namespace kq::stream
