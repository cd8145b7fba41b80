#include "exec/runner.h"

namespace kq::exec {

std::string run_serial(const std::vector<ExecStage>& stages,
                       std::string_view input) {
  std::string current(input);
  for (const ExecStage& stage : stages) current = stage.command->run(current);
  return current;
}

}  // namespace kq::exec
