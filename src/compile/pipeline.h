// Pipeline parsing: split a shell pipeline script into stages (Figure 2,
// step 1). A leading `cat`, `cat -` or `cat $IN` stage names the
// pipeline's input, which is read from stdin: it is dropped from the stage
// list, matching the paper's stage accounting (footnote 3), so a pipeline
// that is only such a cat has no stages: the identity on stdin. A leading
// cat of any other operand is an error, not a stage silently fed stdin.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace kq::compile {

struct ParsedStage {
  std::vector<std::string> argv;
  std::string display;
};

struct ParsedPipeline {
  std::vector<ParsedStage> stages;
};

std::optional<ParsedPipeline> parse_pipeline(std::string_view script,
                                             std::string* error = nullptr);

}  // namespace kq::compile
