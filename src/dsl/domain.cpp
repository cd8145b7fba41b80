#include "dsl/domain.h"

#include <cstring>

#include "text/numbers.h"
#include "text/padding.h"
#include "text/streams.h"
#include "text/strings.h"

namespace kq::dsl {

TableLine parse_table_line(std::string_view line, char d,
                           bool require_padding) {
  text::Unpadded unpadded = text::del_pad(line);
  if (require_padding && unpadded.pad == 0) return {};
  auto split = text::split_first(unpadded.rest, d);
  if (!split.tail.has_value()) return {};
  TableLine out;
  out.ok = true;
  out.pad = unpadded.pad;
  out.head = split.head;
  out.tail = *split.tail;
  return out;
}

bool legal_rec(const Node& b, std::string_view y) {
  switch (b.op) {
    case Op::kAdd:
      return text::is_all_digits(y);
    case Op::kConcat:
    case Op::kFirst:
    case Op::kSecond:
      return true;
    case Op::kFront:
      return !y.empty() && y.front() == b.delim &&
             legal_rec(*b.child1, y.substr(1));
    case Op::kBack:
      return !y.empty() && y.back() == b.delim &&
             legal_rec(*b.child1, y.substr(0, y.size() - 1));
    case Op::kFuse: {
      auto parts = text::split(y, b.delim);
      if (parts.size() < 2) return false;
      if (parts.front().empty() || parts.back().empty()) return false;
      for (std::string_view p : parts)
        if (!legal_rec(*b.child1, p)) return false;
      return true;
    }
    default:
      return false;  // not a RecOp
  }
}

namespace {

// How a StructOp reads one field of a line through its RecOp child: any
// bytes (concat, first, second), a non-empty digit run (add, L(add) =
// [0-9]+), or through legal_rec (front, back, fuse).
enum class Field { kAny, kDigits, kTree };

Field field_of(const Node& b) {
  switch (b.op) {
    case Op::kAdd:
      return Field::kDigits;
    case Op::kConcat:
    case Op::kFirst:
    case Op::kSecond:
      return Field::kAny;
    default:
      return Field::kTree;
  }
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

bool field_legal(Field f, const Node& b, const char* p, const char* e) {
  switch (f) {
    case Field::kAny:
      return true;
    case Field::kDigits:
      if (p == e) return false;
      for (; p < e; ++p)
        if (!is_digit(*p)) return false;
      return true;
    case Field::kTree:
      return legal_rec(b, std::string_view(p, static_cast<std::size_t>(e - p)));
  }
  return false;
}

// The line grammar of StructOp `s`, resolved once per operand. match<op>
// checks one line [p, e), without its newline, in place, where op is
// s.op. stitch2 and offset lines are  pad ++ head ++ d ++ tail
// (parse_table_line's split): the pad is one tab or a run of spaces, at
// least one character for stitch2, and the head runs to the line's first
// d. Every other operator has no legal line.
class LineGrammar {
 public:
  explicit LineGrammar(const Node& s)
      : s_(s),
        head_(s.child1 ? field_of(*s.child1) : Field::kAny),
        tail_(s.child2 ? field_of(*s.child2) : Field::kAny) {}

  // Every line is legal: stitch over a child that accepts any bytes.
  bool any_line() const {
    return s_.op == Op::kStitch && head_ == Field::kAny;
  }

  template <Op kOp>
  bool match(const char* p, const char* e) const {
    if constexpr (kOp == Op::kStitch) {
      return field_legal(head_, *s_.child1, p, e);
    } else {
      if (kOp == Op::kOffset && p == e) return true;  // nil lines
      const char* head = p;
      if (head < e && *head == '\t') {
        ++head;
      } else {
        while (head < e && *head == ' ') ++head;
      }
      if (kOp == Op::kStitch2 && head == p) return false;
      const char* d;
      if (head_ == Field::kDigits) {
        d = head;
        while (d < e && *d != s_.delim && is_digit(*d)) ++d;
        if (d == head || d == e || *d != s_.delim) return false;
      } else {
        d = static_cast<const char*>(
            std::memchr(head, s_.delim, static_cast<std::size_t>(e - head)));
        if (!d || !field_legal(head_, *s_.child1, head, d)) return false;
      }
      return kOp == Op::kOffset || field_legal(tail_, *s_.child2, d + 1, e);
    }
  }

 private:
  const Node& s_;
  const Field head_;
  const Field tail_;
};

// Every line of stream y = [p, end) matches g's kOp grammar.
template <Op kOp>
bool all_lines(const LineGrammar& g, const char* p, const char* const end) {
  while (p < end) {  // y ends in '\n', so every memchr finds one
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    if (!g.match<kOp>(p, nl)) return false;
    p = nl + 1;
  }
  return true;
}

}  // namespace

bool struct_line_legal(const Node& s, std::string_view line) {
  const LineGrammar g(s);
  const char* p = line.data();
  const char* e = p + line.size();
  switch (s.op) {
    case Op::kStitch:
      return g.match<Op::kStitch>(p, e);
    case Op::kStitch2:
      return g.match<Op::kStitch2>(p, e);
    case Op::kOffset:
      return g.match<Op::kOffset>(p, e);
    default:
      return false;
  }
}

bool struct_lines_legal(const Node& s, std::string_view y) {
  if (!text::is_stream(y)) return false;
  const LineGrammar g(s);
  if (g.any_line()) return true;
  const char* p = y.data();
  const char* end = p + y.size();
  switch (s.op) {
    case Op::kStitch:
      return all_lines<Op::kStitch>(g, p, end);
    case Op::kStitch2:
      return all_lines<Op::kStitch2>(g, p, end);
    case Op::kOffset:
      return all_lines<Op::kOffset>(g, p, end);
    default:
      return false;
  }
}

bool legal(const Combiner& g, std::string_view y) {
  switch (op_class(g.node->op)) {
    case OpClass::kRec:
      return legal_rec(*g.node, y);
    case OpClass::kStruct:
      return y == "\n" || struct_lines_legal(*g.node, y);
    case OpClass::kRun:
      if (g.node->op == Op::kRerun) return true;
      // merge: legal inputs are streams already sorted under the flags.
      if (!g.merge_spec) return false;
      if (y.empty()) return true;
      if (!text::is_stream(y)) return false;
      return g.merge_spec->is_sorted_stream(y);
  }
  return false;
}

}  // namespace kq::dsl
