#include "unixcmd/command.h"

#include <cctype>
#include <limits>

#include "unixcmd/builtins.h"

namespace kq::cmd {
namespace {

template <typename T>
std::optional<T> parse_saturating(std::string_view s) {
  if (s.empty()) return std::nullopt;
  constexpr T kMax = std::numeric_limits<T>::max();
  T v = 0;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    T digit = static_cast<T>(c - '0');
    if (v > (kMax - digit) / 10) {
      v = kMax;  // saturate: keep scanning to validate the digits
      continue;
    }
    v = static_cast<T>(v * 10 + digit);
  }
  return v;
}

}  // namespace

std::optional<long> parse_count(std::string_view s) {
  return parse_saturating<long>(s);
}

std::optional<std::size_t> parse_size_count(std::string_view s) {
  return parse_saturating<std::size_t>(s);
}

std::string regex_trouble(const Command& command, const std::exception& e) {
  std::string message = "[KQ-REGEX] stage '";
  message += command.display_name();
  message += "': ";
  message += e.what();
  return message;
}

std::string argv_to_display(const std::vector<std::string>& argv) {
  std::string out;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    if (i != 0) out.push_back(' ');
    const std::string& w = argv[i];
    bool needs_quote = w.empty();
    for (char c : w) {
      if (c == ' ' || c == '\t' || c == '\n' || c == '\'' || c == '"' ||
          c == '\\' || c == '|' || c == '$' || c == '*' || c == '(' ||
          c == ')' || c == ';' || c == '&') {
        needs_quote = true;
        break;
      }
    }
    if (!needs_quote) {
      out += w;
      continue;
    }
    // Single-quote, escaping embedded single quotes and newlines readably.
    out.push_back('\'');
    for (char c : w) {
      if (c == '\'') {
        out += "'\\''";
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out.push_back(c);
      }
    }
    out.push_back('\'');
  }
  return out;
}

}  // namespace kq::cmd
