// Stream primitives implementing the paper's Definitions 3.1/B.2 and the
// helper functions of the DSL semantics (Appendix A): splitFirst, splitLast,
// splitFirstLine, splitLastLine, splitLastNonemptyLine.
//
// A *stream* is a string that ends with a newline (Definition 3.1); the
// empty string is the degenerate "no output" case produced by commands like
// `grep` with no matches and is handled explicitly by callers (footnote 6).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace kq::text {

// True iff `s` is a stream in the paper's sense: non-empty and
// newline-terminated.
bool is_stream(std::string_view s) noexcept;

// Appends a final newline unless `s` is empty or already newline-terminated.
std::string ensure_stream(std::string_view s);

// The lines of a newline-terminated stream, without their trailing
// newlines. lines("a\nb\n") == {"a","b"}; lines("\n") == {""};
// lines("") == {}. A non-newline-terminated tail counts as a final line.
std::vector<std::string_view> lines(std::string_view s);

// Joins lines, appending '\n' after each (inverse of `lines`).
std::string unlines(const std::vector<std::string>& ls);
std::string unlines_views(const std::vector<std::string_view>& ls);

// splitFirst d y: splits y at the *first* occurrence of d.
// Returns (head, tail) with y == head ++ d ++ tail, or nullopt tail if d
// does not occur (the paper's "t = nil").
struct SplitAt {
  std::string_view head;
  std::optional<std::string_view> tail;
};
SplitAt split_first(std::string_view y, char d) noexcept;

// splitLast d y: splits y at the *last* occurrence of d; returns
// (head, last) with y == head ++ d ++ last, or nullopt tail if absent.
SplitAt split_last(std::string_view y, char d) noexcept;

// splitLastLine y for a stream y: returns (head, line) such that
// y == head ++ line ++ "\n", where head is empty or newline-terminated.
// Fails (ok == false) if y is not a stream.
struct LineSplit {
  bool ok = false;
  std::string_view head;  // includes its trailing newline if non-empty
  std::string_view line;  // without trailing newline
};
LineSplit split_last_line(std::string_view y) noexcept;

// splitFirstLine y: returns (line, tail) such that
// y == line ++ "\n" ++ tail. Fails if y contains no newline.
struct FirstLineSplit {
  bool ok = false;
  std::string_view line;  // without trailing newline
  std::string_view tail;  // remainder after the first newline
};
FirstLineSplit split_first_line(std::string_view y) noexcept;

// splitLastNonemptyLine y: the last non-empty line of stream y, plus the
// prefix before it. Fails if y has no non-empty line.
struct NonemptyLineSplit {
  bool ok = false;
  std::string_view head;  // everything before the line
  std::string_view line;  // the last non-empty line, no newline
};
NonemptyLineSplit split_last_nonempty_line(std::string_view y) noexcept;

// Cuts `data` into record-aligned blocks of about `step` bytes (step >= 1)
// and hands each to `fn` in order. A block ends at the last `delimiter`
// within its first `step` bytes, or at the first one past them when the
// record is longer (it travels whole); only the final block may end
// mid-record. Stops at the first false from `fn` and returns it.
template <typename Fn>
bool for_each_block(std::string_view data, std::size_t step, char delimiter,
                    Fn&& fn) {
  while (data.size() > step) {
    std::size_t cut = data.rfind(delimiter, step - 1);
    if (cut == std::string_view::npos) {
      cut = data.find(delimiter, step);
      if (cut == std::string_view::npos) break;
    }
    if (!fn(data.substr(0, cut + 1))) return false;
    data.remove_prefix(cut + 1);
  }
  return data.empty() || fn(data);
}

}  // namespace kq::text
