#include "bench_support/harness.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "procexec/external_command.h"

namespace kq::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct CompiledPipeline {
  compile::Plan plan;
  std::vector<exec::ExecStage> stages;
};

std::vector<CompiledPipeline> compile_script(const Script& script,
                                             synth::SynthesisCache& cache,
                                             const HarnessOptions& options,
                                             vfs::Vfs& fs) {
  std::vector<CompiledPipeline> out;
  for (const std::string& pipeline : script.pipelines) {
    auto parsed = compile::parse_pipeline(pipeline);
    if (!parsed) continue;
    compile::PlanOptions plan_options;
    plan_options.synthesis = options.synthesis;
    compile::Plan plan =
        compile::compile_pipeline(*parsed, cache, plan_options, &fs);
    compile::eliminate_intermediate_combiners(plan);
    auto stages = compile::lower_plan(plan);
    out.push_back({std::move(plan), std::move(stages)});
  }
  return out;
}

}  // namespace

int ScriptReport::stages_total() const {
  int n = 0;
  for (const auto& p : pipelines) n += p.stages;
  return n;
}

int ScriptReport::parallelized_total() const {
  int n = 0;
  for (const auto& p : pipelines) n += p.parallelized;
  return n;
}

int ScriptReport::eliminated_total() const {
  int n = 0;
  for (const auto& p : pipelines) n += p.eliminated;
  return n;
}

std::string ScriptReport::parallelized_cell() const {
  std::string cell = std::to_string(parallelized_total()) + "/" +
                     std::to_string(stages_total());
  if (pipelines.size() > 1) {
    cell += " (";
    for (std::size_t i = 0; i < pipelines.size(); ++i) {
      if (i) cell += ", ";
      cell += std::to_string(pipelines[i].parallelized) + "/" +
              std::to_string(pipelines[i].stages);
    }
    cell += ")";
  }
  return cell;
}

std::string ScriptReport::eliminated_cell() const {
  std::string cell = std::to_string(eliminated_total());
  if (pipelines.size() > 1) {
    cell += " (";
    for (std::size_t i = 0; i < pipelines.size(); ++i) {
      if (i) cell += ", ";
      cell += std::to_string(pipelines[i].eliminated);
    }
    cell += ")";
  }
  return cell;
}

ScriptReport run_script(const Script& script, synth::SynthesisCache& cache,
                        const HarnessOptions& options, vfs::Vfs& fs) {
  ScriptReport report;
  report.script = &script;

  std::string input =
      prepare_input(script, options.input_bytes, options.seed, fs);
  std::vector<CompiledPipeline> compiled =
      compile_script(script, cache, options, fs);

  for (std::size_t i = 0; i < compiled.size(); ++i) {
    PipelineReport p;
    p.pipeline = script.pipelines[i];
    p.stages = compiled[i].plan.total();
    p.parallelized = compiled[i].plan.parallelized();
    p.eliminated = compiled[i].plan.eliminated();
    report.pipelines.push_back(std::move(p));
  }

  // Serial reference outputs (also the u_1 measurement).
  std::vector<std::string> serial_outputs;
  {
    auto start = Clock::now();
    for (const CompiledPipeline& c : compiled)
      serial_outputs.push_back(exec::run_serial(c.stages, input));
    double elapsed = seconds_since(start);
    report.unoptimized[1] = elapsed;
    report.optimized[1] = elapsed;
  }

  // Two blocks per worker: at the default 1 MiB block the tables' 256-384
  // KiB inputs would be a single chunk. Of input / k, 2k, 4k and 8k,
  // input / 2k read the highest median T4 over Table 6's scripts (one run
  // each).
  auto parallel_options = [&](int k, bool eliminate) {
    kq::ExecOptions o;
    o.parallelism = k;
    o.use_elimination = eliminate;
    o.block_size = std::max<std::size_t>(
        4 << 10, input.size() / (2 * static_cast<std::size_t>(k)));
    return o;
  };

  for (int k : options.parallelism) {
    if (k <= 1) continue;
    kq::Executor unopt(parallel_options(k, /*eliminate=*/false));
    auto u_start = Clock::now();
    std::vector<std::string> u_outputs;
    for (const CompiledPipeline& c : compiled)
      u_outputs.push_back(unopt.run_collect(c.stages, input).output);
    report.unoptimized[k] = seconds_since(u_start);

    kq::Executor opt(parallel_options(k, /*eliminate=*/true));
    auto t_start = Clock::now();
    std::vector<std::string> t_outputs;
    for (const CompiledPipeline& c : compiled)
      t_outputs.push_back(opt.run_collect(c.stages, input).output);
    report.optimized[k] = seconds_since(t_start);

    if (options.verify_outputs) {
      for (std::size_t i = 0; i < serial_outputs.size(); ++i) {
        if (u_outputs[i] != serial_outputs[i] ||
            t_outputs[i] != serial_outputs[i])
          report.outputs_match = false;
      }
    }
  }

  if (options.measure_original) {
    auto t = run_original_script(script, input, fs);
    report.t_orig = t.value_or(-1);
  }
  return report;
}

std::optional<double> run_original_script(const Script& script,
                                          const std::string& input,
                                          const vfs::Vfs& fs) {
  namespace fsys = std::filesystem;
  if (!procexec::program_exists("sh")) return std::nullopt;

  std::error_code ec;
  fsys::path dir =
      fsys::temp_directory_path(ec) /
      ("kumquat-orig-" + std::to_string(::getpid()));
  if (ec) return std::nullopt;
  fsys::create_directories(dir, ec);
  if (ec) return std::nullopt;

  // Materialize the virtual file system so xargs/comm/cat stages resolve.
  for (const std::string& name : fs.names()) {
    fsys::path path = dir / name;
    fsys::create_directories(path.parent_path(), ec);
    std::ofstream out(path, std::ios::binary);
    auto contents = fs.read(name);
    if (contents) out.write(contents->data(),
                            static_cast<std::streamsize>(contents->size()));
  }

  auto start = Clock::now();
  bool ok = true;
  for (const std::string& pipeline : script.pipelines) {
    std::string command = "cd '" + dir.string() + "' && LC_ALL=C sh -c " +
                          "'" /* open quote for sh -c argument */;
    // Escape single quotes in the pipeline for embedding.
    for (char c : pipeline) {
      if (c == '\'') command += "'\\''";
      else command.push_back(c);
    }
    command += "' > /dev/null";
    auto result =
        procexec::run_process({"sh", "-c", command}, input);
    if (!result || result->status != 0) {
      ok = false;
      break;
    }
  }
  double elapsed = seconds_since(start);
  fsys::remove_all(dir, ec);
  if (!ok) return std::nullopt;
  return elapsed;
}

std::size_t parse_scale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      long v = std::atol(argv[i] + 8);
      if (v > 0) return static_cast<std::size_t>(v);
    }
  }
  return 1;
}

}  // namespace kq::bench
