// Internal AST for the BRE engine and the layers compiled from it. Shared
// by parser.cpp, literal.cpp, automaton.cpp, matcher.cpp and
// generator.cpp; not part of the public API.
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace kq::regex::detail {

enum class Kind {
  kLiteral,   // ch
  kAny,       // .
  kClass,     // cls bitset (negation folded in)
  kStar,      // children[0]*   (min_repeat 0 or 1, opt => max 1)
  kGroup,     // \( children[0] \), index = capture number
  kBackref,   // \index
  kAlt,       // children = branches
  kSeq,       // children in order
  kBolAnchor, // ^
  kEolAnchor, // $
};

struct Node {
  Kind kind;
  char ch = 0;
  std::bitset<256> cls;
  int index = 0;        // group / backref number
  int min_repeat = 0;   // for kStar: 0 => '*'/'\?', 1 => '\+'
  int max_repeat = -1;  // for kStar: -1 unbounded, 1 => '\?'
  std::vector<std::shared_ptr<Node>> children;
};

using NodePtr = std::shared_ptr<Node>;
using ByteSet = std::bitset<256>;

// Parses `pattern` into an alternation of branches; null on a syntax error
// (with *error set). *groups receives the number of capture groups.
NodePtr parse(std::string_view pattern, int* groups, std::string* error);

// The set of bytes a one-byte atom (literal, '.', bracket) matches.
ByteSet atom_set(const Node& n);
bool is_atom(const Node& n);

// True when the tree holds a backreference (no automaton can answer it).
bool has_backref(const Node& n);

// The required literal: the longest byte string every match contains, and
// whether a match is exactly that string anywhere in the line (the pattern
// is only its literal: no anchors, classes or repetition).
struct RequiredLiteral {
  std::string text;
  bool whole = false;
};
RequiredLiteral required_literal(const Node& root);

// A Thompson NFA over the AST (backreference-free), compiled forward or
// reversed, and run as a DFA built eagerly up to a state cap; past the cap
// the same NFA is simulated state set by state set. Both are one pass over
// the line. Immutable once built, so one instance serves every thread.
class Automaton {
 public:
  // Null when the tree holds a backreference.
  static std::unique_ptr<Automaton> build(const Node& root, bool reverse);

  // True iff some match lies within `line` (`^` holds at its start and `$`
  // at its end). Forward automata only.
  bool search(std::string_view line) const;

  // Reverse automata only: sets (*starts)[i] for every i in [0, n] at which
  // some match of `line` begins, clearing the rest; n = line.size().
  void mark_starts(std::string_view line,
                   std::vector<std::uint8_t>* starts) const;

  bool has_dfa() const { return !next_.empty(); }

 private:
  struct State {
    enum Op : std::uint8_t { kByte, kSplit, kBol, kEol, kMatch } op;
    int out = -1;
    int out1 = -1;  // kSplit's second edge
    int set = -1;   // kByte: index into sets_
  };
  using StateSet = std::vector<int>;

  int add(State s);
  int compile(const Node& n, int next, bool reverse);
  void close(const StateSet& seeds, bool at_bol, bool at_eol,
             std::vector<std::uint32_t>& seen, std::uint32_t stamp,
             StateSet* out) const;
  void step(const StateSet& from, unsigned char byte,
            std::vector<std::uint32_t>& seen, std::uint32_t stamp,
            StateSet* out) const;
  std::uint8_t flags_of(const StateSet& t, bool at_bol,
                        std::vector<std::uint32_t>& seen,
                        std::uint32_t stamp) const;
  void build_classes();
  bool build_dfa(bool stop_at_match);

  std::vector<State> states_;
  std::vector<ByteSet> sets_;
  int start_ = -1;
  // DFA: state 0 is dead, state 1 matched (forward only), state 2 the start
  // at the beginning of the scan. Transition rows are indexed by byte class.
  std::array<std::uint8_t, 256> class_of_{};
  std::size_t classes_ = 0;
  std::vector<std::uint32_t> next_;  // [state * classes_ + class]
  std::vector<std::uint8_t> flags_;  // kMatchNow | kMatchAtEnd per state
};

// The backtracking program: the AST flattened into instructions for the
// explicit-stack VM in matcher.cpp, which tries alternatives in the order
// the continuation-passing engine it replaces did (leftmost, greedy, an
// empty repetition refused).
struct Inst {
  enum Op : std::uint8_t {
    kByte,      // one byte in sets[set]
    kRun,       // a one-byte atom repeated y..max (max -1: unbounded)
    kSplit,     // try pc + 1, then x
    kJmp,       // go to x
    kMark,      // register x = pos
    kProgress,  // fail unless pos != register x (no empty repetition)
    kCap,       // group x = [register y, pos)
    kBol,
    kEol,
    kBackref,   // the text group x captured
    kMatch,
  } op;
  int x = 0;
  int y = 0;
  int max = -1;
  int set = -1;
};

struct Program {
  std::vector<Inst> code;
  std::vector<ByteSet> sets;
  int registers = 0;
};

Program compile_program(const Node& root);

// Every layer compile() builds, once per pattern.
struct Compiled {
  RequiredLiteral literal;
  std::unique_ptr<Automaton> forward;  // search
  std::unique_ptr<Automaton> reverse;  // match starts, for find/replace
  Program program;
};

}  // namespace kq::regex::detail
