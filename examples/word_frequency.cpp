// The paper's §2 motivating scenario as a library user would write it:
// take an existing shell pipeline, compile it into a data-parallel
// pipeline, and run both to compare.
//
//   $ ./build/examples/word_frequency [k]

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "bench_support/workloads.h"
#include "compile/optimize.h"
#include "compile/plan.h"
#include "exec/executor.h"

int main(int argc, char** argv) {
  using namespace kq;
  int k = argc > 1 ? std::atoi(argv[1]) : 4;

  const std::string script =
      "cat $IN | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | "
      "sort -rn";
  std::cout << "pipeline: " << script << "\nparallelism: " << k << "\n\n";

  // Parse and compile: one synthesis per unique stage command.
  auto parsed = compile::parse_pipeline(script);
  synth::SynthesisCache cache;
  compile::Plan plan = compile::compile_pipeline(*parsed, cache);
  compile::eliminate_intermediate_combiners(plan);

  for (const auto& stage : plan.stages) {
    std::cout << "  " << stage.parsed.display << "\n    -> "
              << (stage.synthesis && stage.synthesis->success
                      ? stage.synthesis->combiner.to_string()
                      : "no combiner")
              << (stage.parallel ? "" : "  [sequential]")
              << (stage.eliminate ? "  [combiner eliminated]" : "") << "\n";
  }

  // A ~4 MB synthetic Gutenberg-style input.
  vfs::Vfs fs;
  std::string input =
      bench::generate_workload(bench::Workload::kGutenberg, 4 << 20, 1, fs);

  auto stages = compile::lower_plan(plan);
  const auto start = std::chrono::steady_clock::now();
  const std::string serial = exec::run_serial(stages, input);
  const double serial_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  kq::ExecOptions options;
  options.parallelism = k;
  kq::ExecResult parallel = kq::Executor(options).run_collect(stages, input);

  std::cout << "\nserial " << serial_seconds << " s, " << k << "-way "
            << parallel.seconds << " s ("
            << serial_seconds / parallel.seconds << "x), outputs "
            << (serial == parallel.output ? "match" : "MISMATCH")
            << "\n\ntop five words:\n";
  std::size_t pos = 0;
  for (int i = 0; i < 5 && pos < parallel.output.size(); ++i) {
    std::size_t end = parallel.output.find('\n', pos);
    std::cout << "  " << parallel.output.substr(pos, end - pos) << "\n";
    pos = end + 1;
  }
  return 0;
}
