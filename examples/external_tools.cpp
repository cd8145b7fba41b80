// Domain scenario: synthesizing combiners for *real host binaries* — the
// black-box property that makes KumQuat work for commands it has never
// seen. Runs the synthesizer against /usr/bin/tr, wc, sort through the
// fork/exec substrate and parallelizes them with the synthesized combiner.
//
//   $ ./build/examples/external_tools

#include <iostream>

#include "dsl/kway.h"
#include "exec/splitter.h"
#include "exec/thread_pool.h"
#include "procexec/external_command.h"
#include "synth/synthesize.h"
#include "text/shellwords.h"

int main() {
  using namespace kq;
  const char* kCommands[] = {"wc -l", "tr a-z A-Z", "sort -n"};

  std::string input;
  for (int i = 2000; i > 0; --i) input += std::to_string(i % 97) + "\n";

  exec::ThreadPool pool(4);
  for (const char* line : kCommands) {
    auto argv = text::shell_split(line);
    if (!procexec::program_exists((*argv)[0])) {
      std::cout << line << ": binary not installed, skipping\n";
      continue;
    }
    cmd::CommandPtr command =
        std::make_shared<procexec::ExternalCommand>(*argv);

    // Synthesis drives the *real process* as a black box: every
    // observation is a fork/exec round trip, like the paper's
    // implementation (which is why its synthesis times are minutes —
    // 39-331 s in Table 10). Keep the search budget minimal for a demo.
    synth::SynthesisConfig config;
    config.max_rounds = 1;
    config.input_search.iterations = 1;
    config.input_search.pairs_per_shape = 1;
    synth::SynthesisResult result = synth::synthesize(*command, *argv,
                                                      config);
    if (!result.success) {
      std::cout << line << ": no combiner (" << result.failure_reason
                << ")\n";
      continue;
    }
    std::cout << line << "\n  combiner: " << result.combiner.to_string()
              << "  (" << result.observation_count << " observations, "
              << result.seconds << " s)\n";

    std::vector<std::future<std::string>> runs;
    for (std::string_view chunk : exec::split_stream(input, 4))
      runs.push_back(
          pool.submit([&command, chunk] { return command->run(chunk); }));
    std::vector<std::string> outputs;
    for (auto& run : runs) outputs.push_back(run.get());
    dsl::EvalContext ctx{command.get()};
    auto combined = result.combiner.apply_k(outputs, ctx);
    std::cout << "  4-way parallel output "
              << (combined && *combined == command->run(input)
                      ? "matches serial run\n"
                      : "MISMATCH\n");
  }
  return 0;
}
