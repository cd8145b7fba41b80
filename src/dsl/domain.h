// Legal domains L(g) of Definition B.1. A combiner is only defined on
// operands in its domain; plausibility (Definition 3.9) requires every
// observation to fall inside the domain *and* evaluate to the serial
// output, so domain checks are the first elimination filter.
//
// Two documented deviations from the appendix text (see DESIGN.md §6):
//  * stitch2 requires at least one padding character per line (the
//    `uniq -c` table shape the operator models);
//  * offset accepts zero padding (the `wc -l FILE` shape it models).
#pragma once

#include <string_view>

#include "dsl/ast.h"

namespace kq::dsl {

// True iff `y` ∈ L(b) for a RecOp subtree `b`.
bool legal_rec(const Node& b, std::string_view y);

// True iff `y` ∈ L(g) for any combiner node (RecOp, StructOp, or RunOp;
// `merge_spec` supplies the comparator for kMerge).
bool legal(const Combiner& g, std::string_view y);

// True iff `line` (without its newline) may appear in an operand of
// StructOp `s`: stitch b needs line ∈ L(b); stitch2 d b1 b2 a padded table
// line with head ∈ L(b1) and tail ∈ L(b2); offset d b an empty line or a
// table line with head ∈ L(b). False for every other operator.
bool struct_line_legal(const Node& s, std::string_view line);

// True iff `y` is a stream whose every line is struct_line_legal. One pass
// over the bytes: memchr finds each line end and the line is matched in
// place by the grammar struct_line_legal uses, with add, concat, first and
// second read inline (only front, back and fuse go through legal_rec).
// When every line is legal (stitch over concat, first or second, as in
// uniq's `stitch first`) it is is_stream alone.
bool struct_lines_legal(const Node& s, std::string_view y);

// A line of the form  pad ++ head ++ d ++ tail  with head ∈ L(b1) and
// d ∉ head; used by stitch2/offset legality and evaluation.
struct TableLine {
  bool ok = false;
  std::size_t pad = 0;          // columns of padding before head
  std::string_view head;
  std::string_view tail;
};
TableLine parse_table_line(std::string_view line, char d,
                           bool require_padding);

}  // namespace kq::dsl
