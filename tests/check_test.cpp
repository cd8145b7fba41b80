// Tests for the static pipeline analyzer (src/check/): one golden scenario
// per diagnostic family (KQ-EXEC, KQ-MEM, KQ-PROBE, KQ-ORDER, KQ-DEAD,
// KQ-REWRITE), the exit-code contract (0 clean/info, 1 warnings,
// 2 errors), the JSON document structure, a sweep of the full 70-script
// crossval catalog asserting the checked-in benchmarks carry no
// error-severity diagnostic, and the reconciliation of every stage's
// memory label with the --stats label of the node that runs it.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "bench_support/catalog.h"
#include "check/check.h"
#include "compile/optimize.h"
#include "compile/pipeline.h"
#include "compile/plan.h"
#include "exec/executor.h"

namespace kq::check {
namespace {

// The analyzer's options at k workers (default: 4, so plans that fan out
// do so on any machine), `run`'s other defaults.
Options at_k(int k = 4) {
  Options options;
  options.run.parallelism = k;
  return options;
}

synth::SynthesisCache& shared_cache() {
  static synth::SynthesisCache cache;
  return cache;
}

struct Analyzed {
  compile::Plan plan;
  std::vector<exec::ExecStage> stages;
  Report report;
};

Analyzed analyze_line(const std::string& script, Options options = at_k(),
                      bool rewrite = true) {
  auto parsed = compile::parse_pipeline(script);
  EXPECT_TRUE(parsed.has_value()) << script;
  Analyzed out;
  out.plan = compile::compile_pipeline(*parsed, shared_cache());
  if (rewrite) compile::rewrite_bounded_windows(out.plan);
  compile::eliminate_intermediate_combiners(out.plan);
  out.stages = compile::lower_plan(out.plan);
  options.rewrites_enabled = rewrite;
  out.report = analyze(out.plan, out.stages, options);
  return out;
}

std::vector<const Diagnostic*> with_code(const Report& report,
                                         const std::string& code) {
  std::vector<const Diagnostic*> out;
  for (const Diagnostic& d : report.diagnostics)
    if (d.code == code) out.push_back(&d);
  return out;
}

// ------------------------------------------------------------ verdicts --

TEST(Check, CleanPipelineIsClean) {
  auto a = analyze_line("tr A-Z a-z");
  EXPECT_TRUE(a.report.diagnostics.empty())
      << format_diagnostic(a.report.diagnostics.front());
  EXPECT_EQ(a.report.exit_code(), 0);
  EXPECT_STREQ(a.report.status(), "clean");
  ASSERT_EQ(a.report.stages.size(), 1u);
  EXPECT_EQ(a.report.stages[0].mode, "parallel");
  EXPECT_EQ(a.report.stages[0].seq_reason, "parallel");
}

TEST(Check, InfoOnlyExitsZero) {
  // A parallel sort recombines by k-way merge: order note, info severity.
  auto a = analyze_line("sort | uniq");
  EXPECT_EQ(a.report.errors(), 0);
  EXPECT_EQ(a.report.warnings(), 0);
  EXPECT_GE(a.report.infos(), 1);
  EXPECT_EQ(a.report.exit_code(), 0);
  EXPECT_STREQ(a.report.status(), "info");
}

TEST(Check, WarningsExitOne) {
  auto a = analyze_line("sort | sort");
  EXPECT_EQ(a.report.errors(), 0);
  EXPECT_GE(a.report.warnings(), 1);
  EXPECT_EQ(a.report.exit_code(), 1);
  EXPECT_STREQ(a.report.status(), "warnings");
}

TEST(Check, ErrorsExitTwo) {
  auto a = analyze_line("frobnicate | sort");
  EXPECT_GE(a.report.errors(), 1);
  EXPECT_EQ(a.report.exit_code(), 2);
  EXPECT_STREQ(a.report.status(), "errors");
}

// ---------------------------------------------------------- per family --

TEST(Check, KqExecOnUnresolvableStage) {
  auto a = analyze_line("frobnicate | sort");
  auto diags = with_code(a.report, "KQ-EXEC");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0]->severity, Severity::kError);
  EXPECT_EQ(diags[0]->stage_begin, 0);
  EXPECT_EQ(diags[0]->stage_end, 0);
  EXPECT_EQ(diags[0]->stage, "frobnicate");
  EXPECT_NE(diags[0]->message.find("cannot execute"), std::string::npos);
}

TEST(Check, KqMemOnMaterializeStage) {
  // sed '$d' needs the last line, so it declares no streamable form and
  // the runtime materializes: O(input) RSS whichever way it parallelizes.
  auto a = analyze_line("sed '$d'");
  auto diags = with_code(a.report, "KQ-MEM");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0]->severity, Severity::kWarning);
  EXPECT_NE(diags[0]->message.find("O(input)"), std::string::npos);
  ASSERT_EQ(a.report.stages.size(), 1u);
  EXPECT_EQ(a.report.stages[0].memory_class, "materialize");
}

TEST(Check, KqMemOnSortWithSpillingDisabled) {
  Options options = at_k();
  options.run.spill_threshold = 0;
  auto a = analyze_line("sort", options);
  auto diags = with_code(a.report, "KQ-MEM");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0]->message.find("--spill-threshold 0"),
            std::string::npos);
  // With the default threshold the same stage is bounded: no KQ-MEM.
  auto bounded = analyze_line("sort");
  EXPECT_TRUE(with_code(bounded.report, "KQ-MEM").empty());
}

TEST(Check, SortableSpillModelsNameWhatEachSortHolds) {
  // A parallel sort holds a sorted chunk per in-flight slot beside the
  // merge's batch; a sharded sort -u a window per slot; a sequential sort
  // the batch alone.
  auto parallel = analyze_line("sort");
  ASSERT_EQ(parallel.report.stages.size(), 1u);
  EXPECT_EQ(parallel.report.stages[0].memory_class, "sortable-spill");
  EXPECT_EQ(parallel.report.stages[0].bound.rfind(
                "O(k x block + spill threshold): a sorted chunk per slot", 0),
            0u)
      << parallel.report.stages[0].bound;

  auto sharded = analyze_line("sort -u");
  ASSERT_EQ(sharded.report.stages.size(), 1u);
  EXPECT_EQ(sharded.report.stages[0].memory_class, "sharded-spill-merge");
  EXPECT_EQ(sharded.report.stages[0].bound.rfind(
                "O(k x window + spill threshold): a window per slot", 0),
            0u)
      << sharded.report.stages[0].bound;

  auto parsed = compile::parse_pipeline("sort");
  ASSERT_TRUE(parsed.has_value());
  compile::Plan plan = compile::compile_pipeline(*parsed, shared_cache());
  plan.stages[0].parallel = false;
  const auto stages = compile::lower_plan(plan);
  const Report sequential = analyze(plan, stages, at_k());
  ASSERT_EQ(sequential.stages.size(), 1u);
  EXPECT_EQ(sequential.stages[0].memory_class, "sortable-spill");
  EXPECT_EQ(sequential.stages[0].bound,
            "O(spill threshold): sorted runs on disk");
  // The parallel plan at k = 1 runs the same external sort.
  const Report one = analyze_line("sort", at_k(1)).report;
  EXPECT_EQ(one.stages[0].bound, sequential.stages[0].bound);
}

TEST(Check, KqMemOnDistinctWindowWithSpillingDisabled) {
  // A *parallel* sort -u recombines by merge (sortable-spill); the
  // distinct-set window is its sequential lowering — the plan the runtime
  // falls back to at k=1. Force that lowering and analyze it.
  auto parsed = compile::parse_pipeline("sort -u");
  ASSERT_TRUE(parsed.has_value());
  compile::Plan plan = compile::compile_pipeline(*parsed, shared_cache());
  plan.stages[0].parallel = false;
  auto stages = compile::lower_plan(plan);
  ASSERT_EQ(stages[0].memory_class, exec::MemoryClass::kWindowStream);
  Options options = at_k();
  options.run.spill_threshold = 0;
  Report report = analyze(plan, stages, options);
  auto diags = with_code(report, "KQ-MEM");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0]->message.find("distinct"), std::string::npos);
  // With spilling on, the window exports sorted runs: bounded, no KQ-MEM.
  EXPECT_TRUE(with_code(analyze(plan, stages, at_k()), "KQ-MEM").empty());
  // The parallel plan with spilling off is the sort-class warning instead.
  auto par = analyze_line("sort -u", options);
  auto par_diags = with_code(par.report, "KQ-MEM");
  ASSERT_EQ(par_diags.size(), 1u);
  EXPECT_NE(par_diags[0]->message.find("--spill-threshold 0"),
            std::string::npos);
}

TEST(Check, KqProbeOnBoundPastCap) {
  // tail -n 5000 declares a scale bound past synth::kProbeCountCap
  // (4096), so the probe guard keeps it sequential; the analyzer explains
  // the guard instead of leaving a bare "sequential".
  auto a = analyze_line("tail -n 5000");
  auto diags = with_code(a.report, "KQ-PROBE");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0]->severity, Severity::kWarning);
  EXPECT_NE(diags[0]->message.find("5000"), std::string::npos);
  EXPECT_NE(diags[0]->message.find("4096"), std::string::npos);
  EXPECT_NE(diags[0]->hint.find("4096"), std::string::npos);
  ASSERT_EQ(a.report.stages.size(), 1u);
  EXPECT_EQ(a.report.stages[0].mode, "sequential");
  EXPECT_EQ(a.report.stages[0].seq_reason, "probe-guard");
  // Below the cap the same command parallelizes without the lint.
  auto below = analyze_line("tail -n 100");
  EXPECT_TRUE(with_code(below.report, "KQ-PROBE").empty());
}

TEST(Check, KqOrderWarningOnCollationSensitiveSort) {
  auto a = analyze_line("sort -f");
  auto diags = with_code(a.report, "KQ-ORDER");
  ASSERT_GE(diags.size(), 1u);
  EXPECT_EQ(diags[0]->severity, Severity::kWarning);
  EXPECT_NE(diags[0]->message.find("LC_ALL=C"), std::string::npos);
}

TEST(Check, KqOrderInfoOnParallelMerge) {
  auto a = analyze_line("sort");
  auto diags = with_code(a.report, "KQ-ORDER");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0]->severity, Severity::kInfo);
  EXPECT_NE(diags[0]->message.find("merge"), std::string::npos);
}

TEST(Check, KqDeadOnMidPipelineCat) {
  // A *leading* cat folds into the input source (not flagged); a
  // mid-pipeline bare cat is the identity and is.
  auto a = analyze_line("grep a | cat | wc -l");
  auto diags = with_code(a.report, "KQ-DEAD");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0]->stage_begin, 1);
  EXPECT_NE(diags[0]->message.find("identity"), std::string::npos);
  EXPECT_TRUE(
      with_code(analyze_line("cat $IN | grep a | wc -l").report, "KQ-DEAD")
          .empty());
}

TEST(Check, KqDeadOnDoubleSort) {
  auto a = analyze_line("sort | sort");
  auto diags = with_code(a.report, "KQ-DEAD");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0]->stage_begin, 1);
  // Different comparators are not dead: sort | sort -n re-orders.
  EXPECT_TRUE(
      with_code(analyze_line("sort | sort -n").report, "KQ-DEAD").empty());
}

TEST(Check, KqDeadOnUniqAfterSortU) {
  auto a = analyze_line("sort -u | uniq");
  auto diags = with_code(a.report, "KQ-DEAD");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0]->stage_begin, 1);
  // uniq -c still does work after sort -u (it prepends counts).
  EXPECT_TRUE(
      with_code(analyze_line("sort -u | uniq -c").report, "KQ-DEAD")
          .empty());
}

TEST(Check, KqRewriteNamesBlockingPrecondition) {
  // head -c is byte mode: the top-n fusion cannot reproduce a mid-record
  // cut, and the diagnostic must say exactly that, spanning both stages.
  auto a = analyze_line("sort | head -c 80");
  auto diags = with_code(a.report, "KQ-REWRITE");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0]->severity, Severity::kInfo);
  EXPECT_EQ(diags[0]->stage_begin, 0);
  EXPECT_EQ(diags[0]->stage_end, 1);
  EXPECT_NE(diags[0]->message.find("byte mode"), std::string::npos);
}

TEST(Check, KqRewriteOnDisabledPass) {
  // The pattern matches fully; the only blocker is --no-rewrite.
  auto a = analyze_line("sort | head -n 10", {}, /*rewrite=*/false);
  ASSERT_EQ(a.report.stages.size(), 2u);
  auto diags = with_code(a.report, "KQ-REWRITE");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0]->message.find("--no-rewrite"), std::string::npos);
}

TEST(Check, FusedRewriteLeavesNoDiagnostic) {
  // Fully fused: one window stage, rewrite rationale recorded, no
  // KQ-REWRITE (the pattern no longer exists in the plan).
  auto a = analyze_line("sort | head -n 10");
  ASSERT_EQ(a.report.stages.size(), 1u);
  EXPECT_EQ(a.report.stages[0].mode, "sequential");
  EXPECT_EQ(a.report.stages[0].seq_reason, "fused-window");
  EXPECT_EQ(a.report.stages[0].memory_class, "window-stream");
  EXPECT_NE(a.report.stages[0].bound.find("top-N"), std::string::npos);
  EXPECT_TRUE(with_code(a.report, "KQ-REWRITE").empty());
  EXPECT_EQ(a.report.exit_code(), 0);
}

// ----------------------------------------------------------- placement --

TEST(Check, LabelsFollowTheRunsSettings) {
  // tr -d '\n' declares no streamable form (it deletes the delimiter): it
  // fans out at k > 1, and at k = 1, or under a custom delimiter, the
  // runtime materializes it.
  auto parallel = analyze_line("tr -d '\\n'");
  EXPECT_EQ(parallel.report.stages[0].memory_class, "streaming");
  EXPECT_TRUE(with_code(parallel.report, "KQ-MEM").empty());
  Options tab = at_k();
  tab.run.delimiter = '\t';
  for (const Options& options : {at_k(1), tab}) {
    auto whole = analyze_line("tr -d '\\n'", options);
    EXPECT_EQ(whole.report.stages[0].memory_class, "materialize");
    EXPECT_EQ(whole.report.stages[0].mode, "parallel");  // the plan's
    ASSERT_EQ(with_code(whole.report, "KQ-MEM").size(), 1u);
  }
}

TEST(Check, FusedStagesReportTheirNodesLabelAndKqMemSpansTheNode) {
  // tr's concat combiner is eliminated, so at k = 4 it runs inside sort's
  // worker chain, whose collector merges: both stages report the merge
  // node, and with spilling off one KQ-MEM spans both. At k = 1 tr is a
  // stream chain and sort an external sort.
  auto fused = analyze_line("tr A-Z a-z | sort");
  ASSERT_EQ(fused.report.stages.size(), 2u);
  EXPECT_EQ(fused.report.stages[0].memory_class, "sortable-spill");
  EXPECT_EQ(fused.report.stages[1].memory_class, "sortable-spill");
  EXPECT_EQ(fused.report.stages[0].bound, fused.report.stages[1].bound);
  auto order = with_code(fused.report, "KQ-ORDER");
  ASSERT_EQ(order.size(), 1u);  // the merge belongs to the combining stage
  EXPECT_EQ(order[0]->stage_begin, 1);

  Options no_spill = at_k();
  no_spill.run.spill_threshold = 0;
  auto unbounded = analyze_line("tr A-Z a-z | sort", no_spill);
  auto mem = with_code(unbounded.report, "KQ-MEM");
  ASSERT_EQ(mem.size(), 1u);
  EXPECT_EQ(mem[0]->stage_begin, 0);
  EXPECT_EQ(mem[0]->stage_end, 1);
  EXPECT_EQ(mem[0]->stage, "tr A-Z a-z | sort");

  auto apart = analyze_line("tr A-Z a-z | sort", at_k(1));
  EXPECT_EQ(apart.report.stages[0].memory_class, "stateless-stream");
  EXPECT_EQ(apart.report.stages[1].memory_class, "sortable-spill");
  EXPECT_TRUE(with_code(apart.report, "KQ-ORDER").empty());  // no merge
  EXPECT_TRUE(with_code(apart.report, "KQ-MEM").empty());
}

// -------------------------------------------------------------- output --

TEST(Check, FormatDiagnosticCarriesCodeSeverityAndHint) {
  Diagnostic d;
  d.code = "KQ-MEM";
  d.severity = Severity::kWarning;
  d.message = "stage materializes";
  d.hint = "bound it upstream";
  EXPECT_EQ(format_diagnostic(d),
            "KQ-MEM warning: stage materializes (fix: bound it upstream)");
  d.hint.clear();
  EXPECT_EQ(format_diagnostic(d), "KQ-MEM warning: stage materializes");
}

TEST(Check, RenderHumanShowsStagesAndVerdict) {
  auto a = analyze_line("sort | sort");
  std::ostringstream out;
  render_human(a.report, "sort | sort", out);
  const std::string text = out.str();
  EXPECT_NE(text.find("kumquat check: sort | sort"), std::string::npos);
  EXPECT_NE(text.find("[0] sort"), std::string::npos);
  EXPECT_NE(text.find("KQ-DEAD"), std::string::npos);
  EXPECT_NE(text.find("verdict: warnings"), std::string::npos);
}

TEST(Check, JsonDocumentStructure) {
  auto a = analyze_line("sort | sort");
  PipelineReport entry;
  entry.name = "unit/double-sort";
  entry.pipeline = "sort | sort";
  entry.report = a.report;
  std::ostringstream out;
  write_json({entry}, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"kumquat_check_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"warnings\""), std::string::npos);
  EXPECT_NE(json.find("\"exit_code\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"unit/double-sort\""), std::string::npos);
  EXPECT_NE(json.find("\"code\": \"KQ-DEAD\""), std::string::npos);
  EXPECT_NE(json.find("\"seq_reason\""), std::string::npos);
  EXPECT_NE(json.find("\"rss_model\""), std::string::npos);
  // Exactly balanced braces/brackets — cheap structural sanity that the
  // hand-rolled writer cannot drift on (full schema validation runs in CI
  // via bench/check_diag_json.py).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Check, JsonEscapesQuotesAndBackslashes) {
  auto a = analyze_line("grep '\"' | wc -l");
  PipelineReport entry;
  entry.name = "unit/escape";
  entry.pipeline = "grep '\"' | wc -l";
  entry.report = a.report;
  std::ostringstream out;
  write_json({entry}, out);
  EXPECT_NE(out.str().find("grep '\\\"' | wc -l"), std::string::npos);
}

TEST(Check, WorstExitCodeAcrossReports) {
  PipelineReport clean, warn;
  warn.report.diagnostics.push_back(
      {"KQ-DEAD", Severity::kWarning, 0, 0, "sort", "m", "h"});
  EXPECT_EQ(exit_code({}), 0);
  EXPECT_EQ(exit_code({clean}), 0);
  EXPECT_EQ(exit_code({clean, warn}), 1);
}

// ------------------------------------------------------- catalog sweep --

TEST(Check, CatalogSweepHasNoErrors) {
  // Self-lint: every pipeline of the 70-script crossval catalog must
  // analyze without a single error-severity diagnostic — a KQ-EXEC on a
  // checked-in benchmark means the catalog and the registry drifted
  // apart. Warnings are expected (collation-sensitive sorts, materialize
  // stages are real properties of the scripts).
  vfs::Vfs fs;
  int pipelines = 0;
  for (const bench::Script& script : bench::all_scripts()) {
    bench::prepare_input(script, 1 << 10, 1, fs);
    for (const std::string& line : script.pipelines) {
      auto parsed = compile::parse_pipeline(line);
      ASSERT_TRUE(parsed.has_value())
          << script.suite << "/" << script.name << ": " << line;
      compile::Plan plan =
          compile::compile_pipeline(*parsed, shared_cache(), {}, &fs);
      compile::rewrite_bounded_windows(plan);
      compile::eliminate_intermediate_combiners(plan);
      auto stages = compile::lower_plan(plan);
      Report report = analyze(plan, stages);
      for (const Diagnostic& d : report.diagnostics)
        EXPECT_NE(d.severity, Severity::kError)
            << script.suite << "/" << script.name << ": " << line << ": "
            << format_diagnostic(d);
      EXPECT_EQ(report.stages.size(), plan.stages.size());
      ++pipelines;
    }
  }
  EXPECT_GE(pipelines, 70);
}

TEST(Check, CatalogLabelsMatchTheRunsStatsLabels) {
  // Every stage of every catalog pipeline: the memory label check reports
  // is the --stats label of the node that runs the stage, at the same
  // settings. A node's `commands` joins its members' display names.
  vfs::Vfs fs;
  struct Setting {
    int k;
    char delimiter;
  };
  for (Setting at : {Setting{1, '\n'}, Setting{4, '\n'}, Setting{4, '\t'}}) {
    Options options = at_k(at.k);
    options.run.delimiter = at.delimiter;
    options.run.block_size = 4096;
    options.run.stats = true;
    int stages_seen = 0;
    for (const bench::Script& script : bench::all_scripts()) {
      const std::string input = bench::prepare_input(script, 24 << 10, 1, fs);
      for (const std::string& line : script.pipelines) {
        auto parsed = compile::parse_pipeline(line);
        ASSERT_TRUE(parsed.has_value()) << line;
        compile::Plan plan =
            compile::compile_pipeline(*parsed, shared_cache(), {}, &fs);
        compile::rewrite_bounded_windows(plan);
        compile::eliminate_intermediate_combiners(plan);
        const auto stages = compile::lower_plan(plan);
        const Report report = analyze(plan, stages, options);
        const ExecResult run = Executor(options.run).run_collect(stages, input);
        ASSERT_TRUE(run.ok) << line << ": " << run.error;
        std::size_t i = 0;
        for (const stream::NodeMetrics& node : run.nodes) {
          std::string members;
          const std::size_t first = i;
          while (i < stages.size() && members != node.commands) {
            if (!members.empty()) members += " | ";
            members += stages[i++].command->display_name();
          }
          ASSERT_EQ(members, node.commands) << line;
          for (std::size_t j = first; j < i; ++j, ++stages_seen)
            EXPECT_EQ(report.stages[j].memory_class, node.memory)
                << "k=" << at.k << " delimiter=" << int(at.delimiter) << " "
                << line << " stage " << j;
        }
        EXPECT_EQ(i, stages.size()) << line;
      }
    }
    EXPECT_GE(stages_seen, 400);
  }
}

}  // namespace
}  // namespace kq::check
