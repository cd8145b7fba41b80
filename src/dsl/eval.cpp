#include "dsl/eval.h"

#include "dsl/domain.h"
#include "text/numbers.h"
#include "text/padding.h"
#include "text/streams.h"
#include "text/strings.h"

namespace kq::dsl {
namespace {

std::optional<std::string> eval_rec(const Node& b, std::string_view y1,
                                    std::string_view y2);

// fuse d b: apply b piecewise to the d-separated elements of both operands.
// Requires the same element count on both sides (Lemma B.3) with non-empty
// first/last elements.
std::optional<std::string> eval_fuse(const Node& b, std::string_view y1,
                                     std::string_view y2) {
  auto parts1 = text::split(y1, b.delim);
  auto parts2 = text::split(y2, b.delim);
  if (parts1.size() < 2 || parts1.size() != parts2.size()) return std::nullopt;
  if (parts1.front().empty() || parts1.back().empty()) return std::nullopt;
  if (parts2.front().empty() || parts2.back().empty()) return std::nullopt;
  std::string out;
  for (std::size_t i = 0; i < parts1.size(); ++i) {
    auto piece = eval_rec(*b.child1, parts1[i], parts2[i]);
    if (!piece) return std::nullopt;
    if (i != 0) out.push_back(b.delim);
    out += *piece;
  }
  return out;
}

std::optional<std::string> eval_rec(const Node& b, std::string_view y1,
                                    std::string_view y2) {
  switch (b.op) {
    case Op::kAdd:
      return text::add_digit_strings(y1, y2);
    case Op::kConcat: {
      std::string out;
      out.reserve(y1.size() + y2.size());
      out.append(y1);
      out.append(y2);
      return out;
    }
    case Op::kFirst:
      return std::string(y1);
    case Op::kSecond:
      return std::string(y2);
    case Op::kFront: {
      if (y1.empty() || y1.front() != b.delim) return std::nullopt;
      if (y2.empty() || y2.front() != b.delim) return std::nullopt;
      auto v = eval_rec(*b.child1, y1.substr(1), y2.substr(1));
      if (!v) return std::nullopt;
      return std::string(1, b.delim) + *v;
    }
    case Op::kBack: {
      if (y1.empty() || y1.back() != b.delim) return std::nullopt;
      if (y2.empty() || y2.back() != b.delim) return std::nullopt;
      auto v = eval_rec(*b.child1, y1.substr(0, y1.size() - 1),
                        y2.substr(0, y2.size() - 1));
      if (!v) return std::nullopt;
      return *v + std::string(1, b.delim);
    }
    case Op::kFuse:
      return eval_fuse(b, y1, y2);
    default:
      return std::nullopt;
  }
}

// stitch b: compare y1's last line with y2's first line; on equality, join
// them through b. Reassembly note (DESIGN.md §6): we emit
// head1 ++ v ++ '\n' ++ tail2, which agrees with the paper's
// y1' ++ '\n' ++ v ++ '\n' ++ y2' on multi-line operands and handles
// single-line operands without a spurious empty line.
//
// Deviation from Figure 6: the paper's first stitch rule concatenates
// whenever an operand is exactly "\n". An empty line is an ordinary line
// value, and treating it specially makes stitch *incorrect* for `uniq`
// when the split boundary carries empty lines on both sides (uniq merges
// them; the special rule would not). We therefore treat "\n" uniformly,
// which preserves the paper's synthesis results and fixes that corner.
//
// stitch2 d b1 b2 is the table-shaped stitch: lines look like
// `pad head d tail` (the uniq -c shape); on equal tails the heads are
// combined with b1 and re-padded to the first operand's column width. It
// keeps Figure 6's "\n" rule: a "\n" operand concatenates.
std::optional<std::string> eval_stitch(const Node& s, std::string_view y1,
                                       std::string_view y2) {
  if (!operand_legal(s, y1) || !operand_legal(s, y2)) return std::nullopt;
  if (s.op == Op::kStitch2 && (y1 == "\n" || y2 == "\n")) {
    std::string out(y1);
    out.append(y2);
    return out;
  }
  auto last = text::split_last_line(y1);
  auto first = text::split_first_line(y2);
  if (!last.ok || !first.ok) return std::nullopt;
  Seam seam = stitch_seam(s, last.line, first.line);
  if (!seam.defined) return std::nullopt;
  if (!seam.joined) {
    std::string out(y1);
    out.append(y2);
    return out;
  }
  std::string out(last.head);
  out += seam.line;
  out.push_back('\n');
  out.append(first.tail);
  return out;
}

// offset d b: use the first field of y1's last non-empty line to adjust the
// first field of every line of y2 via b (the `xargs -L1 wc -l` line-number
// adjustment shape).
std::optional<std::string> eval_offset(const Node& s, std::string_view y1,
                                       std::string_view y2) {
  if (!operand_legal(s, y1) || !operand_legal(s, y2)) return std::nullopt;
  auto last = text::split_last_nonempty_line(y1);
  if (!last.ok) return std::nullopt;
  std::string out(y1);
  if (!offset_rewrite(s, last.line, y2, &out)) return std::nullopt;
  return out;
}

}  // namespace

bool operand_legal(const Node& s, std::string_view y) {
  if (s.op != Op::kStitch && y == "\n") return true;
  return struct_lines_legal(s, y);
}

Seam stitch_seam(const Node& s, std::string_view last,
                 std::string_view first) {
  Seam seam;
  if (s.op == Op::kStitch) {
    seam.defined = true;
    if (last != first) return seam;
    auto v = eval_rec(*s.child1, last, first);
    if (!v) return Seam{};
    seam.joined = true;
    seam.line = std::move(*v);
    return seam;
  }
  TableLine t1 = parse_table_line(last, s.delim, /*require_padding=*/true);
  TableLine t2 = parse_table_line(first, s.delim, /*require_padding=*/true);
  if (!t1.ok || !t2.ok) return seam;
  seam.defined = true;
  if (t1.tail != t2.tail) return seam;
  auto head = eval_rec(*s.child1, t1.head, t2.head);
  if (!head) return Seam{};
  auto tail = eval_rec(*s.child2, t1.tail, t2.tail);
  if (!tail) return Seam{};
  seam.joined = true;
  seam.line =
      text::pad_to_width(*head, *tail, s.delim, t1.pad + t1.head.size());
  return seam;
}

bool offset_rewrite(const Node& s, std::string_view last, std::string_view y2,
                    std::string* out) {
  TableLine t1 = parse_table_line(last, s.delim, /*require_padding=*/false);
  if (!t1.ok) return false;
  for (std::size_t start = 0; start < y2.size();) {  // text::lines(y2)
    std::size_t nl = y2.find('\n', start);
    if (nl == std::string_view::npos) nl = y2.size();
    const std::string_view l = y2.substr(start, nl - start);
    start = nl + 1;
    if (l.empty()) {
      out->push_back('\n');
      continue;
    }
    TableLine t2 = parse_table_line(l, s.delim, /*require_padding=*/false);
    if (!t2.ok) return false;
    auto head = eval_rec(*s.child1, t1.head, t2.head);
    if (!head) return false;
    *out += text::pad_to_width(*head, t2.tail, s.delim,
                               t2.pad + t2.head.size());
    out->push_back('\n');
  }
  return true;
}

std::optional<std::string> eval(const Combiner& g, std::string_view y1,
                                std::string_view y2, const EvalContext& ctx) {
  if (g.swapped) std::swap(y1, y2);
  const Node& n = *g.node;
  switch (n.op) {
    case Op::kStitch:
    case Op::kStitch2:
      return eval_stitch(n, y1, y2);
    case Op::kOffset:
      return eval_offset(n, y1, y2);
    case Op::kRerun: {
      if (!ctx.command) return std::nullopt;
      std::string joined;
      joined.reserve(y1.size() + y2.size());
      joined.append(y1);
      joined.append(y2);
      cmd::Result r = ctx.command->execute(joined);
      if (!r.ok()) return std::nullopt;
      return std::move(r.out);
    }
    case Op::kMerge: {
      if (!g.merge_spec) return std::nullopt;
      for (std::string_view y : {y1, y2}) {
        if (y.empty()) continue;
        if (!text::is_stream(y)) return std::nullopt;
        if (!g.merge_spec->is_sorted_stream(y)) return std::nullopt;
      }
      return g.merge_spec->merge_streams({y1, y2});
    }
    default:
      return eval_rec(n, y1, y2);
  }
}

}  // namespace kq::dsl
