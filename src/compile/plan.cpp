#include "compile/plan.h"

#include "obs/trace.h"

#include "dsl/ast.h"
#include "unixcmd/registry.h"
#include "unixcmd/sort_cmd.h"
#include "unixcmd/topn.h"

namespace kq::compile {

int Plan::parallelized() const {
  int n = 0;
  for (const PlannedStage& s : stages)
    if (s.parallel) ++n;
  return n;
}

const char* seq_reason_name(SeqReason reason) {
  switch (reason) {
    case SeqReason::kParallel: return "parallel";
    case SeqReason::kUnknownCommand: return "unknown-command";
    case SeqReason::kSynthesisFailed: return "synthesis-failed";
    case SeqReason::kRerunNoReduce: return "rerun-no-reduce";
    case SeqReason::kProbeGuard: return "probe-guard";
    case SeqReason::kFusedWindow: return "fused-window";
  }
  return "?";
}

int Plan::eliminated() const {
  int n = 0;
  for (const PlannedStage& s : stages)
    if (s.eliminate) ++n;
  return n;
}

Plan compile_pipeline(const ParsedPipeline& parsed,
                      synth::SynthesisCache& cache, const PlanOptions& options,
                      const vfs::Vfs* fs) {
  Plan plan;
  for (const ParsedStage& parsed_stage : parsed.stages) {
    PlannedStage stage;
    stage.parsed = parsed_stage;
    std::string error;
    stage.command = cmd::make_command(parsed_stage.argv, &error, fs);
    if (!stage.command) {
      // Unknown command: keep the stage but it can only run serially.
      stage.seq_reason = SeqReason::kUnknownCommand;
      stage.seq_detail = error;
      plan.stages.push_back(std::move(stage));
      continue;
    }
    auto span = obs::span(options.tracer,
                          "synthesize " + stage.command->display_name(),
                          "compile");
    const synth::SynthesisResult& synth_result = cache.get_or_synthesize(
        *stage.command, parsed_stage.argv, options.synthesis, fs);
    span.arg("rounds", static_cast<std::uint64_t>(synth_result.rounds));
    span.arg("observations", synth_result.observation_count);
    span.arg("success", synth_result.success ? 1 : 0);
    span.finish();
    stage.synthesis = &synth_result;
    if (synth_result.success) {
      bool rerun_only = synth_result.combiner.rerun_only();
      bool reduces = synth_result.reduction_ratio <=
                     options.rerun_reduction_threshold;
      if (rerun_only && !reduces) {
        stage.sequential_rerun = true;
        stage.parallel = false;
        stage.seq_reason = SeqReason::kRerunNoReduce;
        stage.seq_detail =
            "only combiner is rerun and the command does not reduce "
            "(output/input ratio " +
            std::to_string(synth_result.reduction_ratio) + " above " +
            std::to_string(options.rerun_reduction_threshold) + ")";
      } else {
        stage.parallel = true;
        stage.seq_reason = SeqReason::kParallel;
      }
      // Probe-coverage guard: a command whose declared scale bound (a
      // head/tail count, a sed line address) exceeds every certification
      // probe (synth::kProbeCountCap) is observationally identical to its
      // below-bound twin — `tail -n 1000000` looks like cat, `sed 5000d`
      // like an unaddressed script — so the certified combiner is wrong
      // exactly on the inputs too big to probe. Keep such stages
      // sequential; their declared streaming lowering is exact at any
      // size.
      auto bound = stage.command->scale_bound();
      if (bound && *bound > synth::kProbeCountCap) {
        stage.parallel = false;
        stage.sequential_rerun = false;
        stage.seq_reason = SeqReason::kProbeGuard;
        stage.probe_bound = *bound;
        stage.seq_detail =
            "declared scale bound " + std::to_string(*bound) +
            " exceeds the certification probe cap " +
            std::to_string(synth::kProbeCountCap);
      }
    } else {
      stage.seq_reason = SeqReason::kSynthesisFailed;
      stage.seq_detail = synth_result.failure_reason;
    }
    plan.stages.push_back(std::move(stage));
  }
  return plan;
}

std::vector<exec::ExecStage> lower_plan(const Plan& plan) {
  std::vector<exec::ExecStage> stages;
  stages.reserve(plan.stages.size());
  for (const PlannedStage& p : plan.stages) {
    exec::ExecStage stage;
    if (p.command) {
      stage.command = p.command;
    } else {
      // Unknown command: a pass-through stage would silently corrupt
      // results, so surface the failure loudly at run time instead.
      std::string name = p.parsed.display;
      stage.command = cmd::make_lambda_command(
          name, [name](std::string_view) -> std::string {
            return "kumquat: cannot execute unknown stage: " + name + "\n";
          });
    }
    stage.parallel = p.parallel;
    stage.eliminate_combiner = p.eliminate;
    if (p.synthesis && p.synthesis->success) {
      stage.concat_combiner = p.synthesis->combiner.concat_equivalent() &&
                              p.synthesis->outputs_newline_terminated;
      stage.defer_combine = !p.synthesis->combiner.combiners().empty();
      for (const dsl::Combiner& g : p.synthesis->combiner.combiners()) {
        if (g.node->op != dsl::Op::kMerge && g.node->op != dsl::Op::kRerun)
          stage.defer_combine = false;
      }
      stage.combiner_name = p.synthesis->combiner.to_string();
      synth::CompositeCombiner combiner = p.synthesis->combiner;
      cmd::CommandPtr command = p.command;
      stage.combine =
          [combiner, command](const std::vector<std::string>& parts) {
            dsl::EvalContext ctx{command.get()};
            return combiner.apply_k(parts, ctx);
          };
      // The collector folds with the primary combiner alone: its boundary
      // form emits as it goes, so unlike apply_k it cannot fall back to a
      // sibling once a part is rejected (the run is combine-undefined).
      if (!stage.defer_combine && combiner.primary()) {
        stage.fold = [primary = *combiner.primary(), command] {
          return dsl::Fold(primary, dsl::EvalContext{command.get()});
        };
      }
    }
    // Memory class: how the streaming runtime may bound this stage. A
    // declared-streamable command runs per block through a fused
    // stream-chain node: every prefix-bounded stage (head — early exit and
    // upstream cancellation beat data parallelism on a command whose output
    // is a bounded prefix) and any per-record stage the plan left
    // sequential (synthesis failed, rerun does not reduce, or k = 1). A
    // sequential window-bounded stage (tail -n N, uniq, wc, sort -u) runs
    // as the window-terminated tail of a stream chain, holding O(window)
    // instead of materializing; a sort -u window additionally carries the
    // command's own comparator so an outsized distinct set can spill as
    // sorted runs. A parallel merge-combined stage spills its sorted chunk
    // outputs as runs (comparator = the combiner's merge spec); a
    // sequential built-in sort externalizes with its own spec; parallel
    // concat/fold stages are bounded already; everything else must
    // materialize.
    const dsl::Combiner* primary =
        p.synthesis && p.synthesis->success ? p.synthesis->combiner.primary()
                                            : nullptr;
    stage.rerun_combiner = primary && primary->node->op == dsl::Op::kRerun;
    const cmd::Streamability streamable =
        p.command ? p.command->streamability() : cmd::Streamability::kNone;
    if (streamable == cmd::Streamability::kPrefix ||
        (streamable == cmd::Streamability::kPerRecord && !stage.parallel)) {
      stage.memory_class = exec::MemoryClass::kStatelessStream;
    } else if (streamable == cmd::Streamability::kWindow && !stage.parallel) {
      stage.memory_class = exec::MemoryClass::kWindowStream;
      // The comparator an outsized window spills sorted runs under: the
      // command's own spec for sort -u, the fused spec for a rewritten
      // top-n/top-k stage, null (no spill) for tail -n/uniq/wc.
      stage.sort_spec = cmd::sort_spec_of(*p.command);
      if (!stage.sort_spec)
        stage.sort_spec = cmd::fused_sort_spec_of(*p.command);
    } else if (stage.parallel && primary &&
               primary->node->op == dsl::Op::kMerge && primary->merge_spec) {
      stage.memory_class = exec::MemoryClass::kSortableSpill;
      stage.sort_spec = primary->merge_spec;
    } else if (stage.parallel &&
               (stage.concat_combiner || !stage.defer_combine) &&
               stage.combine) {
      stage.memory_class = exec::MemoryClass::kStreaming;
    } else if (!stage.parallel && p.command) {
      if (auto spec = cmd::sort_spec_of(*p.command)) {
        stage.memory_class = exec::MemoryClass::kSortableSpill;
        stage.sort_spec = std::move(spec);
      }
    }
    // Shard eligibility: a parallel combined stage whose command executes
    // through a stream/window processor can run as a per-shard stream
    // sub-chain (exec::run_slice_fused) instead of whole-slice Command::run
    // hops, bounding each shard worker at O(block + window). Prefix-bounded
    // stages are deliberately excluded — their streaming early exit (head
    // reads O(blocks)) beats any data parallelism.
    stage.shardable = stage.parallel && stage.combine != nullptr &&
                      (streamable == cmd::Streamability::kPerRecord ||
                       streamable == cmd::Streamability::kWindow);
    stages.push_back(std::move(stage));
  }
  return stages;
}

}  // namespace kq::compile
