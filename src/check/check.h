// The static pipeline analyzer behind `kumquat check` (and `--check` on
// run/compile): walks a compiled plan and its lowered ExecStages *without
// executing anything* and emits coded diagnostics — severity, stage span,
// explanation, fix hint. The diagnostic families and their exact meanings
// are cataloged in docs/CHECKS.md:
//
//   KQ-EXEC    error    stage resolves to no executable command
//   KQ-MEM     warning  unbounded-memory node (O(input) at the run's settings)
//   KQ-PROBE   warning  combiner certification blind past the probe cap
//   KQ-ORDER   info/warning  order- or collation-dependent recombination
//   KQ-DEAD    warning  redundant stage (cat mid-pipeline, sort|sort, ...)
//   KQ-REWRITE info     bounded-window rewrite almost matched; says why not
//
// Everything here reads the classification rationale compile_pipeline
// records (PlannedStage::seq_reason et al.) rather than re-deriving it, and
// each stage's memory label and bound are those of the node the runtime
// places it in (stream::place) at the settings the plan runs under, so
// `check` reports the nodes `run` builds at those settings. Output is
// a human table (render_human) or a versioned JSON document (write_json,
// schema validated by bench/check_diag_json.py); exit codes distinguish
// clean/warnings/errors so CI can gate on the analyzer.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "compile/plan.h"
#include "exec/executor.h"

namespace kq::check {

enum class Severity { kInfo, kWarning, kError };

const char* severity_name(Severity severity);

struct Diagnostic {
  std::string code;  // "KQ-MEM", "KQ-PROBE", ...
  Severity severity = Severity::kInfo;
  // Inclusive stage-index span in the compiled plan (a rewrite near-miss
  // spans the whole almost-matched run, KQ-MEM its node's stages; most
  // diagnostics span one stage).
  int stage_begin = 0;
  int stage_end = 0;
  std::string stage;    // display text of the span, " | "-joined
  std::string message;  // what is wrong and why
  std::string hint;     // how to fix or silence it (may be empty)
};

// Per-stage facts the analyzer derived — the machine-readable counterpart
// of `kumquat compile`'s annotations, carried in the JSON "stages" array.
struct StageSummary {
  std::string display;
  std::string mode;          // "parallel" | "sequential"
  std::string seq_reason;    // compile::seq_reason_name of the rationale
  std::string memory_class;  // label of the node holding the stage
  std::string bound;         // that node's worst-case resident set
};

struct Options {
  // The settings the plan runs under: k, the delimiter, elimination and
  // the spill threshold decide each stage's node (stream::place). `run`'s
  // defaults unless set; parallelism 0 resolves as kq::Executor resolves
  // it.
  ExecOptions run;
  // False when the plan was compiled with --no-rewrite: a fully matching
  // bounded-window pattern is then reported as blocked by the flag.
  bool rewrites_enabled = true;
};

struct Report {
  std::vector<StageSummary> stages;
  std::vector<Diagnostic> diagnostics;

  int errors() const;
  int warnings() const;
  int infos() const;
  // The CI contract: 0 clean (at most info), 1 warnings, 2 errors.
  int exit_code() const;
  // "clean" | "info" | "warnings" | "errors".
  const char* status() const;
};

// Analyzes a compiled plan against its lowering. `lowered` must be
// lower_plan(plan) (one ExecStage per planned stage, same order).
Report analyze(const compile::Plan& plan,
               const std::vector<exec::ExecStage>& lowered,
               const Options& options = {});

// One formatted line per diagnostic: "KQ-MEM warning: ... (fix: ...)".
// The single rendering path shared by `kumquat check`'s table and
// `kumquat compile`'s inline `check:` annotations.
std::string format_diagnostic(const Diagnostic& d);

// The human report: per-stage table plus every diagnostic and a verdict.
void render_human(const Report& report, const std::string& pipeline,
                  std::ostream& out);

// A named (pipeline, report) pair for the JSON document — `kumquat check
// --catalog` emits one entry per catalog pipeline, plain `check` one.
struct PipelineReport {
  std::string name;      // "oneliners/top-n.sh" or the pipeline itself
  std::string pipeline;  // the analyzed pipeline text
  Report report;
};

// Serializes the versioned kumquat-check JSON document (schema v1,
// documented in docs/CHECKS.md, validated by bench/check_diag_json.py).
void write_json(const std::vector<PipelineReport>& reports,
                std::ostream& out);

// Worst exit code across the documents' reports (the --catalog verdict).
int exit_code(const std::vector<PipelineReport>& reports);

}  // namespace kq::check
