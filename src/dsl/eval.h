// Big-step evaluation of combiners (Figure 6 / Appendix A). `eval` returns
// nullopt when the operands fall outside the combiner's legal domain or no
// semantic rule applies; the synthesizer eliminates a candidate on any
// observation for which eval does not produce exactly the serial output
// (Definition 3.9).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "dsl/ast.h"
#include "unixcmd/command.h"

namespace kq::dsl {

struct EvalContext {
  // The black-box command, required by rerun_f. May be null for
  // rerun-free combiners.
  const cmd::Command* command = nullptr;
};

// Evaluates g(y1, y2) (argument order already encoded in g.swapped).
std::optional<std::string> eval(const Combiner& g, std::string_view y1,
                                std::string_view y2,
                                const EvalContext& ctx = {});

// The pieces the StructOp rules are built from. The boundary fold
// (dsl::Fold, kway.h) applies the same pieces one seam at a time, so eval
// stays the single definition of what stitch, stitch2 and offset do.

// The operand check of StructOp `s`: y is a stream of struct_line_legal
// lines, or (stitch2, offset) exactly "\n".
bool operand_legal(const Node& s, std::string_view y);

// Where stitch/stitch2 operands meet: y1's last line against y2's first.
struct Seam {
  bool defined = false;  // false: no rule applies, g(y1, y2) is undefined
  bool joined = false;   // the two lines merge into `line`; else they abut
  std::string line;      // the joined line, without its newline
};
Seam stitch_seam(const Node& s, std::string_view last, std::string_view first);

// offset's rule for y2: every non-empty line's first field is combined
// with the first field of `last` (y1's last non-empty line) and re-padded
// to the line's own width. Appends the rewritten y2 to `out`; false when
// undefined.
bool offset_rewrite(const Node& s, std::string_view last, std::string_view y2,
                    std::string* out);

}  // namespace kq::dsl
