#include "dsl/kway.h"

#include "dsl/domain.h"
#include "text/streams.h"

namespace kq::dsl {
namespace {

// Where the last line of `y` starts: the boundary stitch and stitch2 carry.
// (A part that is not a stream can only be a lone part, which passes whole,
// so where it splits does not matter.)
std::size_t last_line_start(std::string_view y) {
  if (y.size() < 2) return 0;
  const std::size_t nl = y.rfind('\n', y.size() - 2);
  return nl == std::string_view::npos ? 0 : nl + 1;
}

void emit(std::string&& piece, std::vector<std::string>* out) {
  if (!piece.empty()) out->push_back(std::move(piece));
}

}  // namespace

std::optional<std::string> combine_k(const Combiner& g,
                                     const std::vector<std::string>& parts,
                                     const EvalContext& ctx) {
  if (parts.empty()) return std::string();
  if (parts.size() == 1) return parts.front();

  switch (g.node->op) {
    case Op::kConcat: {
      // `cat $*` (respecting a swapped argument order by reversing).
      std::string out;
      std::size_t total = 0;
      for (const std::string& p : parts) total += p.size();
      out.reserve(total);
      if (g.swapped) {
        for (auto it = parts.rbegin(); it != parts.rend(); ++it) out += *it;
      } else {
        for (const std::string& p : parts) out += p;
      }
      return out;
    }
    case Op::kMerge: {
      if (!g.merge_spec) return std::nullopt;
      std::vector<std::string_view> views;
      views.reserve(parts.size());
      for (const std::string& p : parts) {
        if (!p.empty() &&
            (!text::is_stream(p) || !g.merge_spec->is_sorted_stream(p)))
          return std::nullopt;
        views.push_back(p);
      }
      return g.merge_spec->merge_streams(views);
    }
    case Op::kRerun: {
      if (!ctx.command) return std::nullopt;
      std::string joined;
      std::size_t total = 0;
      for (const std::string& p : parts) total += p.size();
      joined.reserve(total);
      for (const std::string& p : parts) joined += p;
      cmd::Result r = ctx.command->execute(joined);
      if (!r.ok()) return std::nullopt;
      return std::move(r.out);
    }
    default: {
      Fold fold(g, ctx);
      std::string out;
      std::vector<std::string> pieces;
      for (const std::string& p : parts) {
        if (!fold.push(p, &pieces)) return std::nullopt;
        for (const std::string& piece : pieces) out += piece;
        pieces.clear();
      }
      out += fold.finish();
      return out;
    }
  }
}

Fold::Fold(Combiner g, EvalContext ctx) : g_(std::move(g)), ctx_(ctx) {
  if (g_.swapped) return;  // kWhole
  switch (g_.node->op) {
    case Op::kConcat:
      mode_ = Mode::kConcat;
      break;
    case Op::kStitch:
    case Op::kStitch2:
      mode_ = Mode::kSeam;
      break;
    case Op::kOffset:
      mode_ = Mode::kOffset;
      break;
    default:
      break;
  }
}

bool Fold::operand_ok(bool lines_legal, bool nl) const {
  return lines_legal || (nl && operand_legal(*g_.node, "\n"));
}

bool Fold::lines_legal(std::string_view part) const {
  if (mode_ != Mode::kSeam && mode_ != Mode::kOffset) return true;
  return struct_lines_legal(*g_.node, part);
}

bool Fold::push(std::string part, std::vector<std::string>* out) {
  const bool part_legal = lines_legal(part);
  return push(std::move(part), out, part_legal);
}

bool Fold::push(std::string part, std::vector<std::string>* out,
                bool part_legal) {
  if (undefined_) return false;
  if (first_) {
    first_ = false;
    // The first part is the accumulator. eval checks it only as the left
    // operand of the next part, so its legality is recorded for then.
    switch (mode_) {
      case Mode::kConcat:
        emit(std::move(part), out);
        break;
      case Mode::kWhole:
        carry_ = std::move(part);
        break;
      case Mode::kSeam: {
        legal_ = part_legal;
        acc_nl_ = part == "\n";
        const std::size_t b = last_line_start(part);
        carry_.assign(part, b);
        part.resize(b);
        emit(std::move(part), out);
        break;
      }
      case Mode::kOffset: {
        legal_ = part_legal;
        acc_nl_ = part == "\n";
        auto last = text::split_last_nonempty_line(part);
        has_last_ = last.ok;
        if (last.ok) last_.assign(last.line);
        emit(std::move(part), out);
        break;
      }
    }
    return true;
  }
  bool ok = true;
  switch (mode_) {
    case Mode::kConcat:
      emit(std::move(part), out);
      break;
    case Mode::kWhole: {
      auto next = eval(g_, carry_, part, ctx_);
      ok = next.has_value();
      if (ok) carry_ = std::move(*next);
      break;
    }
    case Mode::kSeam:
      ok = push_seam(std::move(part), part_legal, out);
      break;
    case Mode::kOffset:
      ok = push_offset(part, part_legal, out);
      break;
  }
  undefined_ = !ok;
  return ok;
}

bool Fold::push_seam(std::string part, bool part_legal,
                     std::vector<std::string>* out) {
  const Node& s = *g_.node;
  const bool part_nl = part == "\n";
  if (!operand_ok(legal_, acc_nl_) || !operand_ok(part_legal, part_nl))
    return false;
  // eval_stitch's rule: a "\n" stitch2 operand abuts; otherwise the carried
  // line (the accumulator's last, with its newline) meets the part's first.
  Seam seam;
  if (s.op != Op::kStitch2 || !(acc_nl_ || part_nl)) {
    seam = stitch_seam(s, std::string_view(carry_).substr(0, carry_.size() - 1),
                       text::split_first_line(part).line);
    if (!seam.defined) return false;
  }
  acc_nl_ = false;
  const std::size_t b = last_line_start(part);
  if (!seam.joined) {
    legal_ = legal_ && part_legal;
    out->push_back(std::move(carry_));  // now final
    carry_.assign(part, b);
    part.resize(b);
    emit(std::move(part), out);
    return true;
  }
  // The joined line replaces the part's first line. It is new to the
  // accumulator, so the next push's operand check covers it.
  legal_ = struct_line_legal(s, seam.line);
  const std::size_t first_len = part.find('\n');
  if (first_len + 1 == part.size()) {  // a one-line part: the joined line
    carry_ = std::move(seam.line);     // is the new boundary
    carry_.push_back('\n');
    return true;
  }
  carry_.assign(part, b);
  part.resize(b);
  part.replace(0, first_len, seam.line);  // in place when widths agree
  out->push_back(std::move(part));
  return true;
}

bool Fold::push_offset(std::string_view part, bool part_legal,
                       std::vector<std::string>* out) {
  const Node& s = *g_.node;
  if (!operand_ok(legal_, acc_nl_) || !operand_ok(part_legal, part == "\n") ||
      !has_last_)
    return false;
  std::string rewritten;
  if (!offset_rewrite(s, last_, part, &rewritten)) return false;
  // The accumulator passed as a stream of legal lines (it has a non-empty
  // line, so it is not "\n"); the rewritten lines are new to it.
  legal_ = struct_lines_legal(s, rewritten);
  acc_nl_ = false;
  auto last = text::split_last_nonempty_line(rewritten);
  if (last.ok) last_.assign(last.line);
  out->push_back(std::move(rewritten));
  return true;
}

}  // namespace kq::dsl
