// Quickstart: synthesize a combiner for one command and use it to run the
// command data-parallel.
//
//   $ ./build/examples/quickstart
//
// Walks through the core API: build a Command, call synth::synthesize,
// inspect the plausible combiners, then split an input, run the command
// on each piece on a thread pool, and combine the outputs.

#include <iostream>

#include "dsl/kway.h"
#include "exec/splitter.h"
#include "exec/thread_pool.h"
#include "synth/synthesize.h"
#include "text/shellwords.h"
#include "unixcmd/registry.h"

int main() {
  using namespace kq;

  // 1. A black-box command. Built-ins come from the registry; real host
  //    binaries work the same way via procexec::make_external_command.
  const std::string command_line = "wc -l";
  auto argv = text::shell_split(command_line);
  cmd::CommandPtr command = cmd::make_command(*argv);

  // 2. Synthesize its combiner (Algorithm 1).
  synth::SynthesisResult result = synth::synthesize(*command, *argv);
  if (!result.success) {
    std::cerr << "no combiner: " << result.failure_reason << "\n";
    return 1;
  }
  std::cout << "command:   " << command->display_name() << "\n"
            << "space:     " << result.space.total() << " candidates over "
            << result.delims.size() << " delimiter(s)\n"
            << "combiner:  " << result.combiner.to_string() << "\n\n";

  // 3. Run the command data-parallel: split, map, combine.
  std::string input;
  for (int i = 0; i < 100000; ++i) input += "line " + std::to_string(i) + "\n";

  exec::ThreadPool pool(4);
  std::vector<std::future<std::string>> runs;
  for (std::string_view chunk : exec::split_stream(input, 4))
    runs.push_back(
        pool.submit([&command, chunk] { return command->run(chunk); }));
  std::vector<std::string> outputs;
  for (auto& run : runs) outputs.push_back(run.get());

  dsl::EvalContext ctx{command.get()};
  auto combined = result.combiner.apply_k(outputs, ctx);

  std::cout << "serial   f(x)        = " << command->run(input);
  std::cout << "parallel g(f(x_i)..) = " << *combined;
  std::cout << (*combined == command->run(input) ? "outputs match\n"
                                                 : "MISMATCH\n");
  return 0;
}
