// Basic string utilities shared across the library.
//
// All functions are pure and allocation-conscious: splitting returns
// string_views into the caller's buffer, so callers must keep the source
// string alive while using the pieces.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace kq::text {

// Splits `s` on every occurrence of `d`, keeping empty fields.
// split("a,,b", ',') == {"a", "", "b"}; split("", ',') == {""}.
std::vector<std::string_view> split(std::string_view s, char d);

// Joins `parts` with `d` between consecutive elements.
std::string join(const std::vector<std::string>& parts, char d);
std::string join_views(const std::vector<std::string_view>& parts, char d);

// Number of occurrences of `c` in `s` (the paper's C(d, y)).
std::size_t count_char(std::string_view s, char c) noexcept;

// True if `c` occurs in `s` (the paper's d ∈ y).
bool contains_char(std::string_view s, char c) noexcept;

// ASCII-only case conversion.
std::string to_lower(std::string_view s);
void fold_lower(std::string* s);  // to_lower in place
std::string to_upper(std::string_view s);

// Replaces every occurrence of `from` (non-empty) with `to`.
std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to);

// Removes leading/trailing characters from `set`.
std::string_view trim(std::string_view s, std::string_view set = " \t\r\n");

// True if `s` starts/ends with the given prefix/suffix.
bool starts_with(std::string_view s, std::string_view prefix) noexcept;
bool ends_with(std::string_view s, std::string_view suffix) noexcept;

// Repeats `s` `n` times.
std::string repeat(std::string_view s, std::size_t n);

}  // namespace kq::text
