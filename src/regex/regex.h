// The regular-expression engine behind `grep` and `sed s///`: the POSIX BRE
// subset the paper's benchmark commands use, plus the GNU extensions
// \+ \? \|.
//
// Supported syntax:
//   c          literal character
//   .          any character except newline
//   [abc]      bracket expression; ranges a-z (byte values, as under
//              LC_ALL=C); negation [^...]; character classes [:alpha:]
//              [:digit:] [:punct:] [:space:] [:upper:] [:lower:] [:alnum:]
//   *          zero or more of the previous atom (literal at branch start)
//   \+  \?     one-or-more / zero-or-one (GNU extensions)
//   \(..\)     capture group (up to 9)
//   \1..\9     backreference
//   \|         alternation (GNU extension)
//   ^  $       anchors at branch start / end (literal elsewhere)
//   \c         escaped literal
//
// compile() builds three layers once per pattern, and each question is
// answered by the cheapest layer that can:
//   1. The required literal: the longest byte string every match contains,
//      read off the syntax tree. A line without it has no match (grep
//      memmem's a whole block for it), and a pattern that is only its
//      literal needs no further check.
//   2. The automaton: every backreference-free pattern compiles to a
//      Thompson NFA, determinized eagerly into a table of at most 1024
//      states (past that cap the NFA is simulated state set by state set).
//      It answers search() in one pass over the line. Its reversed twin
//      marks, in one backward pass, every offset at which a match begins.
//   3. Backtracking: a VM with an explicit stack. find() and replace() run
//      it only from the offsets the reversed automaton marked, so a line
//      with no match costs one pass; search() runs it only for patterns
//      with backreferences, which no automaton answers.
//
// Positions are leftmost-greedy (leftmost start, greedy quantifiers, an
// optional repetition that matched empty refused; the first repetition
// under \+ may match empty, as in POSIX, so `sed 's/\(\)\+/X/'` prints
// `Xx` for `x` as GNU does). GNU sed reports POSIX leftmost-longest
// positions instead, so the two differ where an earlier alternative is a
// shorter match: `echo ab | sed 's/a\|ab/X/'` prints `Xb` here and `X`
// under GNU. replace() skips an empty match where the last match ended,
// as POSIX and GNU sed do: `s/a*/X/g` makes `baaac` `XbXcX`.
//
// The backtracking of one line (one search() of a line with
// backreferences, one find(), or every match of one replace()) may take at
// most backtrack_budget(line size) steps: a constant plus a constant per
// byte, so the limit follows the line and bounds the time the line takes.
// Past it the search throws BudgetExceeded instead of running on or
// answering "no match"; grep and sed turn it into a failed stage whose
// [KQ-REGEX] message names the command and the pattern.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace kq::regex {

namespace detail {
struct Node;
struct Compiled;
}

// The backtracking steps of one line: kBacktrackBudget (about 0.1 s of
// matching, sixteen times what sed needs to match a* greedily over a 1 MiB
// line) plus kBacktrackStepsPerByte for each byte of the line, room for a
// backreference pattern's failed attempt at every start offset.
inline constexpr std::uint64_t kBacktrackBudget = 1ull << 24;
inline constexpr std::uint64_t kBacktrackStepsPerByte = 64;

constexpr std::uint64_t backtrack_budget(std::size_t line_size) {
  return kBacktrackBudget + kBacktrackStepsPerByte * line_size;
}

// Thrown by the backtracking of a line past its backtrack_budget() steps.
class BudgetExceeded : public std::runtime_error {
 public:
  BudgetExceeded(const std::string& pattern, std::uint64_t budget,
                 std::size_t line_size);
};

// A successful match: [begin,end) of the whole match plus capture groups.
struct Match {
  std::size_t begin = 0;
  std::size_t end = 0;
  // groups[i] is the i-th capture (1-based like \1); npos pair if unset.
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  std::array<std::pair<std::size_t, std::size_t>, 10> groups{};
  int group_count = 0;

  std::string_view group(std::string_view text, int i) const {
    auto [b, e] = groups[static_cast<std::size_t>(i)];
    if (b == kNpos) return {};
    return text.substr(b, e - b);
  }
};

// Immutable once compiled, so one instance serves every thread: grep's
// pool workers share it, and each search keeps its scratch on its stack.
class Regex {
 public:
  Regex(Regex&&) noexcept;
  Regex& operator=(Regex&&) noexcept;
  ~Regex();

  // Compiles `pattern`; returns nullopt and sets *error on syntax errors.
  static std::optional<Regex> compile(std::string_view pattern,
                                      std::string* error = nullptr);

  // True iff the pattern matches anywhere in `line` (grep semantics; `line`
  // must not contain the trailing newline).
  bool search(std::string_view line) const;

  // Leftmost match starting at or after `from`, or nullopt.
  std::optional<Match> find(std::string_view line, std::size_t from = 0) const;

  // sed `s///` semantics: replaces the first (or, with `global`, every
  // non-overlapping) match with `replacement`, where `\1`..`\9` and `&`
  // refer to captures / the whole match. Sets *replaced if any change.
  std::string replace(std::string_view line, std::string_view replacement,
                      bool global = false, bool* replaced = nullptr) const;

  // The longest byte string every match contains ("" when none is known).
  const std::string& required_literal() const;
  // True when a line matches iff it contains required_literal().
  bool literal_only() const;

  // Generates up to `count` distinct strings matching the pattern, for the
  // preprocessing dictionary (§3.2 "Preprocessing"). Backreference-free
  // parts are sampled structurally; stars sample 0..3 repetitions.
  std::vector<std::string> sample_matches(std::size_t count,
                                          std::uint64_t seed) const;

  const std::string& pattern() const { return pattern_; }
  int group_count() const { return group_count_; }

 private:
  Regex();
  std::string pattern_;
  std::shared_ptr<detail::Node> root_;  // alternation of branches
  std::shared_ptr<const detail::Compiled> compiled_;
  int group_count_ = 0;
  friend struct detail::Node;
};

}  // namespace kq::regex
