#include "compile/pipeline.h"

#include <cctype>
#include <string_view>

#include "text/shellwords.h"
#include "text/strings.h"

namespace kq::compile {
namespace {

// A shell parameter such as the paper's `$IN` (`$NAME` or `${NAME}`): the
// input the script's caller hands it.
bool is_parameter(std::string_view word) {
  if (word.size() < 2 || word[0] != '$') return false;
  std::string_view name = word.substr(1);
  if (name.size() > 2 && name.front() == '{' && name.back() == '}')
    name = name.substr(1, name.size() - 2);
  for (char c : name)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  return true;
}

}  // namespace

std::optional<ParsedPipeline> parse_pipeline(std::string_view script,
                                             std::string* error) {
  auto stage_lines = text::split_pipeline(script);
  if (!stage_lines) {
    if (error) *error = "unterminated quote in pipeline";
    return std::nullopt;
  }
  ParsedPipeline out;
  for (std::size_t i = 0; i < stage_lines->size(); ++i) {
    auto words = text::shell_split((*stage_lines)[i]);
    if (!words) {
      if (error) *error = "unterminated quote in stage";
      return std::nullopt;
    }
    if (words->empty()) {
      if (error) *error = "empty pipeline stage";
      return std::nullopt;
    }
    const std::string_view display = text::trim((*stage_lines)[i]);
    if (i == 0 && (*words)[0] == "cat") {
      const std::vector<std::string>& w = *words;
      if (w.size() == 1 ||
          (w.size() == 2 && (w[1] == "-" || is_parameter(w[1]))))
        continue;
      if (error) {
        (*error = "leading '").append(display).append(
            "' reads its operands, but kumquat reads the pipeline's input "
            "from stdin: drop the cat and redirect the file to stdin");
      }
      return std::nullopt;
    }
    ParsedStage stage;
    stage.display = std::string(display);
    stage.argv = std::move(*words);
    out.stages.push_back(std::move(stage));
  }
  if (out.stages.empty()) {
    if (error) *error = "pipeline has no processing stages";
    return std::nullopt;
  }
  return out;
}

}  // namespace kq::compile
