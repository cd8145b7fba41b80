// Plan construction (Figure 2, steps 2-3): synthesize a combiner for every
// stage, decide which stages run data-parallel, and lower the plan to the
// runtime's ExecStage form.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compile/pipeline.h"
#include "exec/runner.h"
#include "synth/synthesize.h"

namespace kq::obs {
class Tracer;
}

namespace kq::compile {

struct PlanOptions {
  synth::SynthesisConfig synthesis;
  // A stage whose only combiners are rerun is parallelized only when the
  // command shrinks its input by at least this factor; otherwise the rerun
  // dominates and the stage stays sequential (§2's `tr -cs` decision).
  double rerun_reduction_threshold = 0.5;
  // Bounds the threads that synthesize a pipeline's distinct commands
  // concurrently, as ExecOptions::parallelism bounds a run's workers: 0 =
  // default_parallelism(), 1 = every synthesis on the calling thread.
  int parallelism = 0;
  // When non-null, compile_pipeline records one "synthesize <cmd>" span
  // per command it synthesizes (category "compile", with rounds and
  // observation args; none for a cache hit), on the thread that ran it, so
  // --trace-json shows synthesis cost alongside the run (src/obs/trace.h).
  obs::Tracer* tracer = nullptr;
};

// Why the planner classified a stage the way it did. compile_pipeline
// records the rationale alongside the decision so the static analyzer
// (`kumquat check`, src/check/) and `kumquat compile` can explain the plan
// instead of re-deriving it from bare flags — the two renderings can never
// disagree because both read the same record.
enum class SeqReason {
  kParallel,         // not sequential: the stage runs data-parallel
  kUnknownCommand,   // make_command failed (parse error in seq_detail)
  kSynthesisFailed,  // no plausible combiner (reason in seq_detail)
  kRerunNoReduce,    // rerun-only combiner and the command does not reduce
  kProbeGuard,       // declared scale bound exceeds every certification probe
  kFusedWindow,      // created sequential by rewrite_bounded_windows
};

const char* seq_reason_name(SeqReason reason);

struct PlannedStage {
  ParsedStage parsed;
  cmd::CommandPtr command;
  // Owned by the SynthesisCache passed to compile_pipeline.
  const synth::SynthesisResult* synthesis = nullptr;
  bool parallel = false;
  bool sequential_rerun = false;  // combiner exists but stage kept serial
  bool eliminate = false;         // set by the optimizer (Theorem 5)
  // Set by the pipeline-rewrite pass (rewrite_bounded_windows): the
  // original stage chain this fused stage replaced, " | "-joined (empty
  // for ordinary stages). `kumquat compile` prints it as the
  // `rewritten-from:` annotation.
  std::string rewritten_from;
  // Classification rationale (see SeqReason). `seq_detail` carries the
  // human-readable specifics: the registry's parse error, the synthesis
  // failure reason, or the measured reduction ratio. For kProbeGuard,
  // `probe_bound` is the command's declared scale bound that outran the
  // probe cap (synth::kProbeCountCap).
  SeqReason seq_reason = SeqReason::kParallel;
  std::string seq_detail;
  long probe_bound = 0;
};

struct Plan {
  std::vector<PlannedStage> stages;

  int total() const { return static_cast<int>(stages.size()); }
  int parallelized() const;
  int eliminated() const;
};

// Builds the plan, synthesizing (or reusing cached) combiners per stage.
// The distinct commands not in `cache` synthesize concurrently (see
// PlanOptions::parallelism); the cache is filled and the stages built on
// the calling thread, in stage order, so the plan does not depend on the
// parallelism. Stages whose commands are unknown or whose synthesis fails
// run serially.
Plan compile_pipeline(const ParsedPipeline& parsed,
                      synth::SynthesisCache& cache,
                      const PlanOptions& options = {},
                      const vfs::Vfs* fs = nullptr);

// Lowers a plan to runtime stages, binding each stage's composite combiner.
std::vector<exec::ExecStage> lower_plan(const Plan& plan);

}  // namespace kq::compile
