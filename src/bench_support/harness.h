// The benchmark harness: compiles a catalog script, runs it serially and
// at each parallelism width (optimized and unoptimized), verifies parallel
// outputs against serial ones, and optionally measures the original script
// through a real shell (the paper's T_orig column).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_support/catalog.h"
#include "compile/optimize.h"
#include "compile/plan.h"
#include "exec/executor.h"

namespace kq::bench {

struct HarnessOptions {
  std::size_t input_bytes = 1 << 20;      // per script
  std::vector<int> parallelism = {1, 2, 4, 8, 16};
  bool measure_original = true;           // run via /bin/sh when available
  bool verify_outputs = true;
  std::uint64_t seed = 7;
  synth::SynthesisConfig synthesis;
};

struct PipelineReport {
  std::string pipeline;
  int stages = 0;
  int parallelized = 0;
  int eliminated = 0;
};

struct ScriptReport {
  const Script* script = nullptr;
  std::vector<PipelineReport> pipelines;
  double t_orig = -1;                      // real-shell time, -1 if n/a
  std::map<int, double> unoptimized;       // u_k
  std::map<int, double> optimized;         // T_k
  bool outputs_match = true;

  int stages_total() const;
  int parallelized_total() const;
  int eliminated_total() const;
  // "k/n (k1/n1, k2/n2, ...)" in the paper's Table 3 format.
  std::string parallelized_cell() const;
  std::string eliminated_cell() const;
};

// Runs the serial reference (exec::run_serial), then every width through
// kq::Executor with and without combiner elimination.
ScriptReport run_script(const Script& script, synth::SynthesisCache& cache,
                        const HarnessOptions& options, vfs::Vfs& fs);

// Reads a byte-size scale factor from argv ("--scale=N" multiplies every
// script's input size; default 1).
std::size_t parse_scale(int argc, char** argv);

// Runs the original pipeline text through /bin/sh with the VFS materialized
// into a temporary directory. Returns nullopt if the shell or any command
// is unavailable or fails.
std::optional<double> run_original_script(const Script& script,
                                          const std::string& input,
                                          const vfs::Vfs& fs);

}  // namespace kq::bench
