// Built-in `grep` over the BRE engine. Flags: -v (invert), -c (count),
// -i (case-insensitive), combined forms (-vc, -vi, -vci). Exit status
// follows grep: 0 if any line selected, 1 otherwise.

#include <cctype>
#include <cstring>

#include "regex/regex.h"
#include "text/strings.h"
#include "unixcmd/builtins.h"

namespace kq::cmd {
namespace {

class GrepCommand final : public Command {
 public:
  GrepCommand(std::string name, regex::Regex re, bool invert, bool count,
              bool fold)
      : Command(std::move(name)), re_(std::move(re)), invert_(invert),
        count_(count), fold_(fold) {}

  // Walks the lines in place (an unterminated last line is a line), so a
  // whole-input run holds no index of them beside its input.
  Result execute(std::string_view input) const override {
    std::string lowered;
    std::uint64_t selected = 0;
    std::string out;
    for (std::string_view rest = input; !rest.empty();) {
      const char* nl = static_cast<const char*>(
          std::memchr(rest.data(), '\n', rest.size()));
      const std::size_t len = nl ? nl - rest.data() : rest.size();
      const std::string_view line = rest.substr(0, len);
      rest.remove_prefix(nl ? len + 1 : len);
      bool hit;
      if (fold_) {
        lowered = text::to_lower(line);
        hit = re_.search(lowered);
      } else {
        hit = re_.search(line);
      }
      if (hit == invert_) continue;
      ++selected;
      if (!count_) {
        out += line;
        out.push_back('\n');
      }
    }
    if (count_) {
      out = std::to_string(selected);
      out.push_back('\n');
    }
    return {std::move(out), selected > 0 ? 0 : 1, {}};
  }

  // Plain grep is a pure per-line filter (GNU grep re-terminates a matched
  // unterminated final line, so even that case composes per block); -c
  // aggregates a global count and must see the whole input.
  Streamability streamability() const override {
    return count_ ? Streamability::kNone : Streamability::kPerRecord;
  }
  std::unique_ptr<StreamProcessor> stream_processor() const override {
    if (count_) return nullptr;
    return std::make_unique<PerBlockProcessor>(*this);
  }

 private:
  regex::Regex re_;
  bool invert_, count_, fold_;
};

}  // namespace

CommandPtr make_grep(const Argv& argv, std::string* error) {
  bool invert = false, count = false, fold = false;
  std::string pattern;
  bool have_pattern = false;
  for (std::size_t i = 1; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (!have_pattern && a.size() >= 2 && a[0] == '-') {
      for (std::size_t j = 1; j < a.size(); ++j) {
        switch (a[j]) {
          case 'v': invert = true; break;
          case 'c': count = true; break;
          case 'i': fold = true; break;
          case 'e': break;  // -e PATTERN handled by position
          default:
            if (error) *error = "grep: unsupported flag";
            return nullptr;
        }
      }
    } else if (!have_pattern) {
      pattern = a;
      have_pattern = true;
    } else {
      if (error) *error = "grep: file operands not supported";
      return nullptr;
    }
  }
  if (!have_pattern) {
    if (error) *error = "grep: missing pattern";
    return nullptr;
  }
  // Case-insensitivity: we lower-case both the scanned line and the literal
  // characters of the pattern (classes already cover both cases or are
  // lowered the same way).
  std::string compiled_pattern = fold ? text::to_lower(pattern) : pattern;
  std::string err;
  auto re = regex::Regex::compile(compiled_pattern, &err);
  if (!re) {
    if (error) *error = "grep: bad pattern: " + err;
    return nullptr;
  }
  return std::make_shared<GrepCommand>(argv_to_display(argv), std::move(*re),
                                       invert, count, fold);
}

}  // namespace kq::cmd
