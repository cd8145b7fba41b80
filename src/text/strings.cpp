#include "text/strings.h"

#include <algorithm>
#include <cctype>

namespace kq::text {

std::vector<std::string_view> split(std::string_view s, char d) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(d, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, char d) {
  std::string out;
  std::size_t total = parts.empty() ? 0 : parts.size() - 1;
  for (const auto& p : parts) total += p.size();
  out.reserve(total);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.push_back(d);
    out += parts[i];
  }
  return out;
}

std::string join_views(const std::vector<std::string_view>& parts, char d) {
  std::string out;
  std::size_t total = parts.empty() ? 0 : parts.size() - 1;
  for (const auto& p : parts) total += p.size();
  out.reserve(total);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.push_back(d);
    out += parts[i];
  }
  return out;
}

std::size_t count_char(std::string_view s, char c) noexcept {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), c));
}

bool contains_char(std::string_view s, char c) noexcept {
  return s.find(c) != std::string_view::npos;
}

// Branch-free over the bytes (the compiler vectorizes it): grep -i folds
// whole blocks through here.
void fold_lower(std::string* s) {
  for (char& c : *s)
    c = static_cast<char>(c +
                          ((static_cast<unsigned char>(c - 'A') < 26) << 5));
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  fold_lower(&out);
  return out;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  for (char& c : out)
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      return out;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
}

std::string_view trim(std::string_view s, std::string_view set) {
  std::size_t b = s.find_first_not_of(set);
  if (b == std::string_view::npos) return {};
  std::size_t e = s.find_last_not_of(set);
  return s.substr(b, e - b + 1);
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string repeat(std::string_view s, std::size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (std::size_t i = 0; i < n; ++i) out.append(s);
  return out;
}

}  // namespace kq::text
