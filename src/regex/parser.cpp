#include <cctype>
#include <string>

#include "regex/node.h"

namespace kq::regex::detail {
namespace {

class Parser {
 public:
  Parser(std::string_view pattern, std::string* error)
      : p_(pattern), error_(error) {}

  // pattern := branch ('\|' branch)*
  NodePtr parse_pattern(bool inside_group) {
    auto alt = std::make_shared<Node>();
    alt->kind = Kind::kAlt;
    alt->children.push_back(parse_branch(inside_group));
    if (failed_) return nullptr;
    while (peek_escaped('|')) {
      advance(2);
      alt->children.push_back(parse_branch(inside_group));
      if (failed_) return nullptr;
    }
    return alt;
  }

  int group_count() const { return group_count_; }
  bool at_end() const { return pos_ >= p_.size(); }
  bool failed() const { return failed_; }
  std::size_t pos() const { return pos_; }

 private:
  NodePtr parse_branch(bool inside_group) {
    auto seq = std::make_shared<Node>();
    seq->kind = Kind::kSeq;
    bool at_branch_start = true;
    while (!at_end()) {
      if (peek_escaped('|')) break;
      if (inside_group && peek_escaped(')')) break;
      NodePtr atom = parse_piece(at_branch_start, inside_group);
      if (failed_) return nullptr;
      if (atom) seq->children.push_back(std::move(atom));
      at_branch_start = false;
    }
    return seq;
  }

  // piece := atom ('*' | '\+' | '\?')*
  NodePtr parse_piece(bool at_branch_start, bool inside_group) {
    NodePtr atom = parse_atom(at_branch_start, inside_group);
    if (failed_ || !atom) return atom;
    while (!at_end()) {
      if (cur() == '*') {
        advance(1);
        atom = make_repeat(std::move(atom), 0, -1);
      } else if (peek_escaped('+')) {
        advance(2);
        atom = make_repeat(std::move(atom), 1, -1);
      } else if (peek_escaped('?')) {
        advance(2);
        atom = make_repeat(std::move(atom), 0, 1);
      } else {
        break;
      }
    }
    return atom;
  }

  NodePtr parse_atom(bool at_branch_start, bool inside_group) {
    char c = cur();
    if (c == '^') {
      advance(1);
      if (at_branch_start) return make_simple(Kind::kBolAnchor);
      return make_literal('^');
    }
    if (c == '$') {
      // Anchor only when nothing but a branch/group terminator follows.
      std::size_t next = pos_ + 1;
      bool terminal = next >= p_.size() ||
                      (p_[next] == '\\' && next + 1 < p_.size() &&
                       (p_[next + 1] == '|' ||
                        (inside_group && p_[next + 1] == ')')));
      advance(1);
      if (terminal) return make_simple(Kind::kEolAnchor);
      return make_literal('$');
    }
    if (c == '.') {
      advance(1);
      return make_simple(Kind::kAny);
    }
    if (c == '[') return parse_class();
    if (c == '\\') {
      if (pos_ + 1 >= p_.size()) return fail("trailing backslash");
      char e = p_[pos_ + 1];
      if (e == '(') {
        advance(2);
        int idx = ++group_count_;
        auto grp = std::make_shared<Node>();
        grp->kind = Kind::kGroup;
        grp->index = idx;
        grp->children.push_back(parse_pattern(/*inside_group=*/true));
        if (failed_) return nullptr;
        if (!peek_escaped(')')) return fail("unmatched \\(");
        advance(2);
        return grp;
      }
      if (e == ')') return fail("unmatched \\)");
      if (e >= '1' && e <= '9') {
        advance(2);
        auto n = std::make_shared<Node>();
        n->kind = Kind::kBackref;
        n->index = e - '0';
        return n;
      }
      if (e == 'n') {
        advance(2);
        return make_literal('\n');
      }
      if (e == 't') {
        advance(2);
        return make_literal('\t');
      }
      advance(2);
      return make_literal(e);  // escaped literal: \. \* \\ \$ \^ \[ ...
    }
    // '*' at branch start is a literal in BRE.
    advance(1);
    (void)at_branch_start;
    return make_literal(c);
  }

  NodePtr parse_class() {
    advance(1);  // consume '['
    auto n = std::make_shared<Node>();
    n->kind = Kind::kClass;
    bool negate = false;
    if (!at_end() && cur() == '^') {
      negate = true;
      advance(1);
    }
    bool first = true;
    while (true) {
      if (at_end()) return fail("unterminated bracket expression");
      char c = cur();
      if (c == ']' && !first) {
        advance(1);
        break;
      }
      first = false;
      if (c == '[' && pos_ + 1 < p_.size() && p_[pos_ + 1] == ':') {
        if (!parse_named_class(*n)) return nullptr;
        continue;
      }
      if (c == '\\' && pos_ + 1 < p_.size()) {
        // GNU tolerates escapes inside classes; we accept \n \t \\ \].
        char e = p_[pos_ + 1];
        char lit = e == 'n' ? '\n' : e == 't' ? '\t' : e;
        n->cls.set(static_cast<unsigned char>(lit));
        advance(2);
        continue;
      }
      // Range a-z (the '-' must not be last).
      if (pos_ + 2 < p_.size() && p_[pos_ + 1] == '-' && p_[pos_ + 2] != ']') {
        // Byte values, as LC_ALL=C compares them: [a-\xff] is a range.
        const auto lo = static_cast<unsigned char>(c);
        const auto hi = static_cast<unsigned char>(p_[pos_ + 2]);
        if (lo > hi) return fail("invalid range in bracket expression");
        for (int ch = lo; ch <= hi; ++ch)
          n->cls.set(static_cast<std::size_t>(ch));
        advance(3);
        continue;
      }
      n->cls.set(static_cast<unsigned char>(c));
      advance(1);
    }
    if (negate) {
      n->cls.flip();
      n->cls.reset(static_cast<unsigned char>('\n'));
    }
    return n;
  }

  bool parse_named_class(Node& n) {
    std::size_t close = p_.find(":]", pos_ + 2);
    if (close == std::string_view::npos) {
      fail("unterminated character class");
      return false;
    }
    std::string_view name = p_.substr(pos_ + 2, close - pos_ - 2);
    for (int c = 0; c < 256; ++c) {
      unsigned char uc = static_cast<unsigned char>(c);
      bool in = false;
      if (name == "alpha") in = std::isalpha(uc);
      else if (name == "digit") in = std::isdigit(uc);
      else if (name == "alnum") in = std::isalnum(uc);
      else if (name == "upper") in = std::isupper(uc);
      else if (name == "lower") in = std::islower(uc);
      else if (name == "punct") in = std::ispunct(uc);
      else if (name == "space") in = std::isspace(uc);
      else if (name == "blank") in = (c == ' ' || c == '\t');
      else {
        fail("unknown character class");
        return false;
      }
      if (in) n.cls.set(uc);
    }
    pos_ = close + 2;
    return true;
  }

  NodePtr make_repeat(NodePtr child, int min_rep, int max_rep) {
    auto n = std::make_shared<Node>();
    n->kind = Kind::kStar;
    n->min_repeat = min_rep;
    n->max_repeat = max_rep;
    n->children.push_back(std::move(child));
    return n;
  }

  NodePtr make_literal(char c) {
    auto n = std::make_shared<Node>();
    n->kind = Kind::kLiteral;
    n->ch = c;
    return n;
  }

  NodePtr make_simple(Kind k) {
    auto n = std::make_shared<Node>();
    n->kind = k;
    return n;
  }

  NodePtr fail(const char* msg) {
    failed_ = true;
    if (error_) *error_ = msg;
    return nullptr;
  }

  char cur() const { return p_[pos_]; }
  void advance(std::size_t n) { pos_ += n; }
  bool peek_escaped(char c) const {
    return pos_ + 1 < p_.size() && p_[pos_] == '\\' && p_[pos_ + 1] == c;
  }

  std::string_view p_;
  std::size_t pos_ = 0;
  int group_count_ = 0;
  bool failed_ = false;
  std::string* error_;
};

}  // namespace

NodePtr parse(std::string_view pattern, int* groups, std::string* error) {
  Parser parser(pattern, error);
  auto root = parser.parse_pattern(/*inside_group=*/false);
  if (parser.failed() || !root) return nullptr;
  if (!parser.at_end()) {
    if (error) *error = "unexpected token in pattern";
    return nullptr;
  }
  *groups = parser.group_count();
  return root;
}

}  // namespace kq::regex::detail
