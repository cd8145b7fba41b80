#include "compile/plan.h"

#include <algorithm>
#include <future>

#include "exec/executor.h"
#include "exec/thread_pool.h"
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

namespace {

// Synthesizes the plan's distinct commands that `cache` does not hold yet,
// then stores the results in the cache in stage order on the calling
// thread. With more than one such command and parallelism above 1, they
// synthesize concurrently: a transient pool of min(parallelism, n) - 1
// workers and the calling thread each take the next command in stage
// order. Each synthesis is seeded on its own (SynthesisConfig::seed), so
// which thread runs it changes no result.
void synthesize_missing(const Plan& plan, synth::SynthesisCache& cache,
                        const PlanOptions& options, const vfs::Vfs* fs) {
  struct Job {
    const PlannedStage* stage;
    synth::SynthesisResult result;
  };
  std::vector<Job> jobs;
  for (const PlannedStage& stage : plan.stages) {
    if (!stage.command) continue;
    const std::string& name = stage.command->display_name();
    const bool queued =
        std::any_of(jobs.begin(), jobs.end(), [&](const Job& job) {
          return job.stage->command->display_name() == name;
        });
    if (!queued && !cache.find(name)) jobs.push_back({&stage, {}});
  }
  // The span is recorded on the thread that does the work.
  auto run = [&options, fs](Job& job) {
    const cmd::Command& command = *job.stage->command;
    auto span = obs::span(options.tracer,
                          "synthesize " + command.display_name(), "compile");
    job.result = synth::synthesize(command, job.stage->parsed.argv,
                                   options.synthesis, fs);
    span.arg("rounds", static_cast<std::uint64_t>(job.result.rounds));
    span.arg("observations", job.result.observation_count);
    span.arg("success", job.result.success ? 1 : 0);
  };
  const int parallelism =
      options.parallelism > 0 ? options.parallelism : default_parallelism();
  const int workers =
      std::min(parallelism, static_cast<int>(jobs.size())) - 1;
  if (workers > 0) {
    // Declared after `jobs`: the pool's destructor drains and joins before
    // the jobs its tasks write into are destroyed, on the exception path
    // too.
    exec::ThreadPool pool(workers);
    std::vector<std::future<void>> done;
    done.reserve(jobs.size());
    for (Job& job : jobs)
      done.push_back(pool.submit([&run, &job] { run(job); }));
    while (pool.try_run_one()) {
    }
    for (std::future<void>& f : done) f.get();  // rethrows a task's error
  } else {
    for (Job& job : jobs) run(job);
  }
  for (Job& job : jobs)
    cache.insert(job.stage->command->display_name(), std::move(job.result));
}

}  // namespace

Plan compile_pipeline(const ParsedPipeline& parsed,
                      synth::SynthesisCache& cache, const PlanOptions& options,
                      const vfs::Vfs* fs) {
  Plan plan;
  plan.stages.reserve(parsed.stages.size());
  for (const ParsedStage& parsed_stage : parsed.stages) {
    PlannedStage stage;
    stage.parsed = parsed_stage;
    std::string error;
    stage.command = cmd::make_command(parsed_stage.argv, &error, fs);
    if (!stage.command) {
      // Unknown command: keep the stage but it can only run serially.
      stage.seq_reason = SeqReason::kUnknownCommand;
      stage.seq_detail = error;
    }
    plan.stages.push_back(std::move(stage));
  }
  synthesize_missing(plan, cache, options, fs);

  for (PlannedStage& stage : plan.stages) {
    if (!stage.command) continue;
    const synth::SynthesisResult& synth_result =
        *cache.find(stage.command->display_name());
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
      const synth::CompositeCombiner& combiner = p.synthesis->combiner;
      stage.combiner_name = combiner.to_string();
      // How a parallel node combines: by the primary alone. select() keeps
      // one operator class, so a merge or rerun primary has no foldable
      // sibling, and a fold's boundary form emits as it goes, so unlike
      // apply_k it cannot fall back to a sibling once a part is rejected
      // (the run is combine-undefined).
      if (combiner.primary()) stage.primary = *combiner.primary();
      cmd::CommandPtr command = p.command;
      stage.combine = [combiner, command](
                          const std::vector<std::string>& parts) {
        dsl::EvalContext ctx{command.get()};
        return combiner.apply_k(parts, ctx);
      };
    }
    // The order the command itself sorts under: a sort's own spec, or the
    // fused spec of a rewritten top-n/top-k stage.
    if (p.command) {
      stage.sort_spec = cmd::sort_spec_of(*p.command);
      if (!stage.sort_spec)
        stage.sort_spec = cmd::fused_sort_spec_of(*p.command);
    }
    // Memory class and shard eligibility, which only plan dumps read (the
    // runtime places the stage by stream::place). Per block: a prefix stage
    // (head's early exit beats data parallelism) or a sequential per-record
    // one; a window: a sequential window stage; sortable-spill: a parallel
    // merge or a sequential sort; streaming: a parallel fold; else
    // materialize. Shardable: a parallel combined stage that runs through a
    // stream or window processor.
    const cmd::Streamability streamable =
        p.command ? p.command->streamability() : cmd::Streamability::kNone;
    const dsl::Op* op = stage.primary ? &stage.primary->node->op : nullptr;
    if (streamable == cmd::Streamability::kPrefix ||
        (streamable == cmd::Streamability::kPerRecord && !stage.parallel)) {
      stage.memory_class = exec::MemoryClass::kStatelessStream;
    } else if (streamable == cmd::Streamability::kWindow && !stage.parallel) {
      stage.memory_class = exec::MemoryClass::kWindowStream;
    } else if (stage.parallel ? op && *op == dsl::Op::kMerge
                              : stage.sort_spec != nullptr) {
      stage.memory_class = exec::MemoryClass::kSortableSpill;
    } else if (stage.parallel && op && *op != dsl::Op::kRerun) {
      stage.memory_class = exec::MemoryClass::kStreaming;
    }
    stage.shardable = stage.parallel && stage.combine != nullptr &&
                      (streamable == cmd::Streamability::kPerRecord ||
                       streamable == cmd::Streamability::kWindow);
    stages.push_back(std::move(stage));
  }
  return stages;
}

}  // namespace kq::compile
