// k-way generalization of binary combiners (§3.5 "Combining Multiple
// Substreams"): merge becomes a k-way `sort -m`, concat becomes `cat $*`,
// rerun concatenates all substreams and reruns the command once, and every
// other combiner is applied as a left fold — in its boundary form (Fold
// below), so the fold costs O(total output), not O(parts · output).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dsl/eval.h"

namespace kq::dsl {

std::optional<std::string> combine_k(const Combiner& g,
                                     const std::vector<std::string>& parts,
                                     const EvalContext& ctx = {});

// The boundary form of the left fold g(...g(g(p0, p1), p2)..., pn) (§3,
// Fig. 6). stitch and stitch2 only read the seam between the accumulated
// output's last line and the next part's first line, and offset only the
// accumulated output's last non-empty line, so the fold carries that one
// line instead of the accumulator: push() checks each line of a part once,
// joins the carried line with the part's first line (stitch, stitch2) or
// rewrites the part against it (offset), hands back everything no later
// part can change, and keeps only the new boundary. concat carries nothing.
// Every other combiner — the RecOps, swapped StructOps (whose seam is at
// the accumulator's front, not its end) and the RunOps — carries its whole
// result and folds pairwise through eval.
//
// Output and definedness equal the left fold of eval: a lone part passes
// unchecked, and a line the fold wrote itself (a joined seam line, an
// offset-rewritten line) is checked when the next part arrives, as eval's
// check of its left operand would.
//
// The per-line check of a part depends on the part alone, so whoever made
// the part can run it (lines_legal) and hand push() the verdict: the
// streaming runtime's workers do, leaving the collector only the seam.
class Fold {
 public:
  explicit Fold(Combiner g, EvalContext ctx = {});

  // Folds in the next part. Appends to `out`, in order, the pieces of the
  // combined output that are now final; the part's own buffer travels in
  // them uncopied. Returns false once the fold is undefined (and from then
  // on).
  bool push(std::string part, std::vector<std::string>* out);
  // The same, with the part's lines_legal(part) already computed.
  bool push(std::string part, std::vector<std::string>* out, bool part_legal);

  // The check push() makes of every line of a part: struct_lines_legal for
  // stitch, stitch2 and offset (one pass over the part, and is_stream alone
  // for uniq's `stitch first`), and true for the rest (concat checks
  // nothing, and a whole-result fold's eval checks its own operands). It
  // reads only the combiner, so it may run on any thread while another
  // thread pushes.
  bool lines_legal(std::string_view part) const;

  // The rest of the combined output: the carried boundary, or the whole
  // result when the combiner has no boundary form. Call once, last.
  std::string finish() { return std::move(carry_); }

  // True when push() hands back output as parts arrive (concat and the
  // unswapped StructOps); false when it all waits for finish().
  bool streams() const { return mode_ != Mode::kWhole; }

 private:
  enum class Mode { kConcat, kSeam, kOffset, kWhole };

  // eval's operand check (operand_legal) of an operand whose lines are
  // `lines_legal` and which is exactly "\n" when `nl`.
  bool operand_ok(bool lines_legal, bool nl) const;
  bool push_seam(std::string part, bool part_legal,
                 std::vector<std::string>* out);
  bool push_offset(std::string_view part, bool part_legal,
                   std::vector<std::string>* out);

  Combiner g_;
  EvalContext ctx_;
  Mode mode_ = Mode::kWhole;
  bool first_ = true;  // no part pushed yet
  bool undefined_ = false;
  // kSeam: the accumulated output's last line, with its newline. kWhole:
  // the whole accumulated output.
  std::string carry_;
  // kOffset: the accumulated output's last non-empty line (none yet when
  // `has_last_` is false).
  std::string last_;
  bool has_last_ = false;
  // kSeam, kOffset: the accumulated output is a stream of legal lines
  // (struct_lines_legal), and whether it is exactly "\n"; together they
  // give eval's check of the accumulator as left operand.
  bool legal_ = false;
  bool acc_nl_ = false;
};

}  // namespace kq::dsl
