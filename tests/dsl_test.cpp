// Tests for the combiner DSL: sizes, printing, legal domains, the big-step
// semantics of every operator (Figure 6), candidate enumeration (including
// the paper's exact space sizes), k-way generalization, and the boundary
// fold's agreement with eval's left fold.

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <random>
#include <set>

#include "dsl/domain.h"
#include "dsl/enumerate.h"
#include "dsl/eval.h"
#include "dsl/kway.h"
#include "text/streams.h"
#include "unixcmd/registry.h"

namespace kq::dsl {
namespace {

std::optional<std::string> ev(const Combiner& g, std::string_view y1,
                              std::string_view y2) {
  return eval(g, y1, y2);
}

// ------------------------------------------------------------- size -----

TEST(Size, MatchesPaperExamples) {
  // Example 2 of the appendix: |add| = 3, |fbfa| = 6, |saf| = 5.
  EXPECT_EQ(size(combiner_add()), 3);
  Combiner fbfa{make_unary(Op::kFront, ' ',
                           make_unary(Op::kBack, ',',
                                      make_unary(Op::kFuse, '\t',
                                                 make_leaf(Op::kAdd)))),
                false, nullptr, ""};
  EXPECT_EQ(size(fbfa), 6);
  EXPECT_EQ(size(combiner_stitch2_add_first(' ')), 5);
}

TEST(Size, OtherRepresentatives) {
  EXPECT_EQ(size(combiner_concat()), 3);
  EXPECT_EQ(size(combiner_back_add('\n')), 4);
  EXPECT_EQ(size(combiner_stitch_first()), 4);
  EXPECT_EQ(size(combiner_offset_add(' ')), 4);
  EXPECT_EQ(size(combiner_rerun()), 3);
}

// ------------------------------------------------------------ printing --

TEST(Print, Table10Style) {
  EXPECT_EQ(to_string(combiner_concat()), "(concat a b)");
  EXPECT_EQ(to_string(swapped(combiner_concat())), "(concat b a)");
  EXPECT_EQ(to_string(combiner_back_add('\n')), "((back '\\n' add) a b)");
  EXPECT_EQ(to_string(combiner_stitch2_add_first(' ')),
            "((stitch2 ' ' add first) a b)");
  EXPECT_EQ(to_string(combiner_merge("-rn")), "(merge('-rn') a b)");
  EXPECT_EQ(to_string(combiner_rerun()), "(rerun a b)");
}

TEST(Print, Classification) {
  EXPECT_EQ(combiner_concat().cls(), OpClass::kRec);
  EXPECT_EQ(combiner_stitch_first().cls(), OpClass::kStruct);
  EXPECT_EQ(combiner_merge("").cls(), OpClass::kRun);
}

// -------------------------------------------------------------- domains --

TEST(Domain, Add) {
  EXPECT_TRUE(legal(combiner_add(), "042"));
  EXPECT_FALSE(legal(combiner_add(), ""));
  EXPECT_FALSE(legal(combiner_add(), "42\n"));
}

TEST(Domain, BackAdd) {
  EXPECT_TRUE(legal(combiner_back_add('\n'), "42\n"));
  EXPECT_FALSE(legal(combiner_back_add('\n'), "4\n2\n"));
  EXPECT_FALSE(legal(combiner_back_add('\n'), "42"));
}

TEST(Domain, Fuse) {
  Combiner fa = combiner_fuse_add(' ');
  EXPECT_TRUE(legal(fa, "1 2 3"));
  EXPECT_FALSE(legal(fa, "123"));     // k must be >= 2
  EXPECT_FALSE(legal(fa, " 1 2"));    // first element empty
  EXPECT_FALSE(legal(fa, "1 2 "));    // last element empty
  EXPECT_FALSE(legal(fa, "1 x"));     // element outside L(add)
}

TEST(Domain, Stitch2RequiresPaddedTable) {
  Combiner saf = combiner_stitch2_add_first(' ');
  EXPECT_TRUE(legal(saf, "      2 apple\n      1 pear\n"));
  EXPECT_FALSE(legal(saf, "2 apple\n"));   // no padding
  EXPECT_FALSE(legal(saf, "      x apple\n"));  // head not numeric
  EXPECT_TRUE(legal(saf, "\n"));
}

TEST(Domain, OffsetAcceptsUnpaddedLines) {
  Combiner oa = combiner_offset_add(' ');
  EXPECT_TRUE(legal(oa, "3 file1\n10 file2\n"));
  EXPECT_TRUE(legal(oa, "3 a\n\n4 b\n"));  // nil lines allowed
  EXPECT_FALSE(legal(oa, "x file\n"));
}

TEST(Domain, MergeRequiresSortedInput) {
  Combiner m = combiner_merge("");
  EXPECT_TRUE(legal(m, "a\nb\n"));
  EXPECT_FALSE(legal(m, "b\na\n"));
  EXPECT_TRUE(legal(m, ""));
}

// The per-line definition of a StructOp's legal lines, spelled as the
// appendix spells it: parse_table_line splits a stitch2 or offset line, and
// legal_rec checks each field.
bool reference_line_legal(const Node& s, std::string_view line) {
  switch (s.op) {
    case Op::kStitch:
      return legal_rec(*s.child1, line);
    case Op::kStitch2: {
      TableLine t = parse_table_line(line, s.delim, /*require_padding=*/true);
      return t.ok && legal_rec(*s.child1, t.head) &&
             legal_rec(*s.child2, t.tail);
    }
    case Op::kOffset: {
      if (line.empty()) return true;
      TableLine t = parse_table_line(line, s.delim, /*require_padding=*/false);
      return t.ok && legal_rec(*s.child1, t.head);
    }
    default:
      return false;
  }
}

bool reference_lines_legal(const Node& s, std::string_view y) {
  if (!text::is_stream(y)) return false;
  for (std::string_view line : text::lines(y))
    if (!reference_line_legal(s, line)) return false;
  return true;
}

// A line over the pieces a table line is made of: tab and space pads, digit
// and non-digit heads, bytes >= 0x80, the delimiter `d` (or another one)
// between head and tail, and empty lines, pad-only lines and lines that
// start or end with `d`. Under d = '\n' the "line" ends early: the
// operand's next line starts where a one-pass matcher must not read.
std::string random_table_line(std::mt19937& rng, char d) {
  static const char* kPads[] = {"", "", " ", "      ", "\t", "\t\t", " \t",
                                "\t "};
  static const char* kHeads[] = {"",    "0",   "7",   "42", "1234567",
                                 "x",   "4x",  "x4",  "\x80", "\xff" "9",
                                 "1,2", "1 2", ",1,", " 1"};
  static const char* kTails[] = {"",   "a",     "apple", "5",    "12",
                                 "a b", "a,b",  "\t",    "\x80\xff", ",",
                                 "1,2,3", " 1 2", "3,",  ",3"};
  auto pick = [&rng](const auto& from) {
    return std::string(from[rng() % std::size(from)]);
  };
  const char sep = rng() % 4 ? d : kDelims[rng() % std::size(kDelims)];
  switch (rng() % 8) {
    case 0:
      return "";
    case 1:
      return pick(kPads);
    case 2:
      return sep + pick(kTails);
    case 3:
      return pick(kPads) + pick(kHeads) + sep;
    default:
      return pick(kPads) + pick(kHeads) + sep + pick(kTails);
  }
}

// struct_lines_legal matches each line in one pass, with add, concat,
// first and second read inline; struct_line_legal uses the same matcher.
// Both must agree with the per-line definition on every StructOp over
// every delimiter (among them '\n', which no line contains) and every
// leaf, plus leaves checked through legal_rec.
TEST(Domain, OnePassLineChecksMatchThePerLineDefinition) {
  const NodeRef leaves[] = {
      make_leaf(Op::kAdd),    make_leaf(Op::kConcat),
      make_leaf(Op::kFirst),  make_leaf(Op::kSecond),
      make_unary(Op::kFront, ',', make_leaf(Op::kAdd)),
      make_unary(Op::kBack, ' ', make_leaf(Op::kAdd)),
      make_unary(Op::kFuse, ',', make_leaf(Op::kAdd))};
  std::vector<NodeRef> ops;
  for (const NodeRef& b : leaves) {
    ops.push_back(make_stitch(b));
    for (char d : kDelims) {
      ops.push_back(make_unary(Op::kOffset, d, b));
      for (const NodeRef& b2 : leaves) ops.push_back(make_stitch2(d, b, b2));
    }
  }
  std::mt19937 rng(23);
  std::map<Op, std::pair<int, int>> verdicts;  // legal, illegal operands
  for (const NodeRef& s : ops) {
    const std::string name = node_to_string(*s);
    std::vector<std::string> operands = {"",     "\n",    "\n\n",
                                         "\t\n", "      1 a", "1\n"};
    for (int i = 0; i < 150; ++i) {
      std::string y;
      for (int n = static_cast<int>(rng() % 5); n >= 0; --n) {
        y += random_table_line(rng, s->delim);
        y += '\n';
      }
      if (rng() % 4 == 0) y += random_table_line(rng, s->delim);
      operands.push_back(std::move(y));
    }
    for (const std::string& y : operands) {
      const bool expect = reference_lines_legal(*s, y);
      ASSERT_EQ(struct_lines_legal(*s, y), expect) << name << " [" << y << "]";
      auto& [legal_count, illegal_count] = verdicts[s->op];
      ++(expect ? legal_count : illegal_count);
      for (std::string_view line : text::lines(y))
        ASSERT_EQ(struct_line_legal(*s, line), reference_line_legal(*s, line))
            << name << " line [" << line << "]";
    }
  }
  // Each operator met both verdicts often, so neither side is vacuous.
  for (Op op : {Op::kStitch, Op::kStitch2, Op::kOffset}) {
    EXPECT_GT(verdicts[op].first, 100) << static_cast<int>(op);
    EXPECT_GT(verdicts[op].second, 100) << static_cast<int>(op);
  }
}

// ------------------------------------------------------------ semantics --

TEST(Eval, AddCanonicalizes) {
  EXPECT_EQ(ev(combiner_add(), "2", "3").value(), "5");
  EXPECT_EQ(ev(combiner_add(), "09", "1").value(), "10");
  EXPECT_FALSE(ev(combiner_add(), "x", "1").has_value());
}

TEST(Eval, ConcatFirstSecond) {
  EXPECT_EQ(ev(combiner_concat(), "ab", "cd").value(), "abcd");
  EXPECT_EQ(ev(combiner_first(), "ab", "cd").value(), "ab");
  EXPECT_EQ(ev(combiner_second(), "ab", "cd").value(), "cd");
}

TEST(Eval, SwappedArguments) {
  EXPECT_EQ(ev(swapped(combiner_concat()), "ab", "cd").value(), "cdab");
  EXPECT_EQ(ev(swapped(combiner_first()), "ab", "cd").value(), "cd");
}

TEST(Eval, FrontBack) {
  Combiner fc = combiner_front_concat(',');
  EXPECT_EQ(ev(fc, ",ab", ",cd").value(), ",abcd");
  EXPECT_FALSE(ev(fc, "ab", ",cd").has_value());

  Combiner ba = combiner_back_add('\n');
  EXPECT_EQ(ev(ba, "2\n", "40\n").value(), "42\n");
  EXPECT_FALSE(ev(ba, "2", "40\n").has_value());
}

TEST(Eval, WcCombinerShape) {
  // wc -l: (back '\n' add) combines the two counts.
  Combiner ba = combiner_back_add('\n');
  EXPECT_EQ(ev(ba, "3\n", "4\n").value(), "7\n");
}

TEST(Eval, FusePiecewise) {
  // wc (multi-column) shape: fuse applies add per column.
  Combiner fa = combiner_fuse_add(' ');
  EXPECT_EQ(ev(fa, "1 2 3", "10 20 30").value(), "11 22 33");
  EXPECT_FALSE(ev(fa, "1 2", "1 2 3").has_value());  // mismatched k
}

TEST(Eval, NestedBackFuse) {
  Combiner bfa{make_unary(Op::kBack, '\n',
                          make_unary(Op::kFuse, ' ', make_leaf(Op::kAdd))),
               false, nullptr, ""};
  EXPECT_EQ(ev(bfa, "1 2\n", "3 4\n").value(), "4 6\n");
}

TEST(Eval, StitchMergesEqualBoundaryLines) {
  // uniq: (stitch first).
  Combiner sf = combiner_stitch_first();
  EXPECT_EQ(ev(sf, "a\nb\n", "b\nc\n").value(), "a\nb\nc\n");
}

TEST(Eval, StitchConcatenatesDistinctBoundaryLines) {
  Combiner sf = combiner_stitch_first();
  EXPECT_EQ(ev(sf, "a\nb\n", "c\nd\n").value(), "a\nb\nc\nd\n");
}

TEST(Eval, StitchSingleLineOperands) {
  Combiner sf = combiner_stitch_first();
  EXPECT_EQ(ev(sf, "b\n", "b\n").value(), "b\n");
  EXPECT_EQ(ev(sf, "a\n", "b\n").value(), "a\nb\n");
}

TEST(Eval, StitchEmptyLineStream) {
  Combiner sf = combiner_stitch_first();
  EXPECT_EQ(ev(sf, "\n", "a\n").value(), "\na\n");
}

TEST(Eval, Stitch2CombinesCounts) {
  // uniq -c: (stitch2 ' ' add first). Boundary rows with the same word
  // merge, counts add, padding stays aligned to the left column.
  Combiner saf = combiner_stitch2_add_first(' ');
  EXPECT_EQ(
      ev(saf, "      2 apple\n      1 pear\n", "      3 pear\n      1 fig\n")
          .value(),
      "      2 apple\n      4 pear\n      1 fig\n");
}

TEST(Eval, Stitch2DistinctTailsConcatenate) {
  Combiner saf = combiner_stitch2_add_first(' ');
  EXPECT_EQ(ev(saf, "      1 a\n", "      1 b\n").value(),
            "      1 a\n      1 b\n");
}

TEST(Eval, Stitch2PaddingShrinksWithWiderCounts) {
  Combiner saf = combiner_stitch2_add_first(' ');
  EXPECT_EQ(ev(saf, "      9 x\n", "      9 x\n").value(), "     18 x\n");
}

TEST(Eval, OffsetAdjustsFirstFields) {
  // xargs -L1 wc -l shape with add: offset line counts.
  Combiner oa = combiner_offset_add(' ');
  EXPECT_EQ(ev(oa, "5 f1\n", "3 f2\n1 f3\n").value(), "5 f1\n8 f2\n6 f3\n");
}

TEST(Eval, OffsetSecondIsConcat) {
  Combiner os{make_unary(Op::kOffset, ' ', make_leaf(Op::kSecond)), false,
              nullptr, ""};
  EXPECT_EQ(ev(os, "5 f1\n", "3 f2\n").value(), "5 f1\n3 f2\n");
}

TEST(Eval, MergeInterleavesSorted) {
  Combiner m = combiner_merge("");
  EXPECT_EQ(ev(m, "a\nc\n", "b\nd\n").value(), "a\nb\nc\nd\n");
  EXPECT_FALSE(ev(m, "c\na\n", "b\n").has_value());
}

TEST(Eval, MergeNumericFlags) {
  Combiner m = combiner_merge("-n");
  EXPECT_EQ(ev(m, "2\n10\n", "3\n").value(), "2\n3\n10\n");
}

TEST(Eval, RerunInvokesCommand) {
  cmd::CommandPtr sort = cmd::make_command_line("sort");
  ASSERT_NE(sort, nullptr);
  EvalContext ctx{sort.get()};
  EXPECT_EQ(eval(combiner_rerun(), "b\n", "a\n", ctx).value(), "a\nb\n");
  EXPECT_FALSE(eval(combiner_rerun(), "b\n", "a\n", {}).has_value());
}

// ---------------------------------------------------------- enumeration --

TEST(Enumerate, PaperSpaceSizesExactly) {
  // Table 10: 2700 = 968 + 1728 + 4 (one delimiter), 26404 = 12440 +
  // 13960 + 4 (two), 110444 = 59048 + 51392 + 4 (three).
  SpaceCounts d1 = count_candidates(1, 5);
  EXPECT_EQ(d1.rec, 968u);
  EXPECT_EQ(d1.strct, 1728u);
  EXPECT_EQ(d1.run, 4u);
  EXPECT_EQ(d1.total(), 2700u);

  SpaceCounts d2 = count_candidates(2, 5);
  EXPECT_EQ(d2.rec, 12440u);
  EXPECT_EQ(d2.strct, 13960u);
  EXPECT_EQ(d2.total(), 26404u);

  SpaceCounts d3 = count_candidates(3, 5);
  EXPECT_EQ(d3.rec, 59048u);
  EXPECT_EQ(d3.strct, 51392u);
  EXPECT_EQ(d3.total(), 110444u);
}

TEST(Enumerate, GeneratorMatchesClosedForm) {
  for (std::size_t d = 1; d <= 3; ++d) {
    SpaceSpec spec;
    spec.delims.assign(kDelims, kDelims + d);
    CandidateSpace space = enumerate_candidates(spec);
    SpaceCounts counts = count_candidates(d, spec.max_ops);
    EXPECT_EQ(space.rec_count, counts.rec) << "D=" << d;
    EXPECT_EQ(space.struct_count, counts.strct) << "D=" << d;
    EXPECT_EQ(space.run_count, counts.run) << "D=" << d;
    EXPECT_EQ(space.candidates.size(), counts.total()) << "D=" << d;
  }
}

TEST(Enumerate, VisitorYieldsTheEnumerationInOrder) {
  // Synthesis filters the space through for_each_candidate as it is
  // enumerated, so its survivors keep enumerate_candidates' order only if
  // the visitor hands out that exact sequence; the totals pin it to the
  // closed form (Table 10's 2700, 26404 and 110444).
  const std::size_t expected_totals[] = {2700, 26404, 110444};
  for (std::size_t d = 1; d <= 3; ++d) {
    SpaceSpec spec;
    spec.delims.assign(kDelims, kDelims + d);
    spec.merge_flags = "-rn";
    std::vector<std::string> visited, twins;
    std::vector<OpClass> classes;
    std::vector<int> sizes;
    SpaceCounts by_class;
    for_each_candidate(spec, [&](const Combiner& g) {
      visited.push_back(to_string(g));
      twins.push_back(to_string(swapped(g)));
      classes.push_back(g.cls());
      sizes.push_back(size(g));
      switch (g.cls()) {
        case OpClass::kRec: ++by_class.rec; break;
        case OpClass::kStruct: ++by_class.strct; break;
        case OpClass::kRun: ++by_class.run; break;
      }
    });
    CandidateSpace space = enumerate_candidates(spec);
    ASSERT_EQ(visited.size(), space.candidates.size()) << "D=" << d;
    for (std::size_t i = 0; i < visited.size(); ++i)
      ASSERT_EQ(visited[i], to_string(space.candidates[i]))
          << "D=" << d << ", candidate " << i;
    // The order itself: RecOp trees by size, then StructOp, then RunOp,
    // each tree followed by its swapped twin.
    for (std::size_t i = 0; i + 1 < visited.size(); ++i) {
      ASSERT_LE(classes[i], classes[i + 1]) << "D=" << d << ", " << i;
      if (classes[i + 1] == OpClass::kRec) {
        ASSERT_LE(sizes[i], sizes[i + 1]) << "D=" << d << ", " << i;
      }
      if (i % 2 == 0) {
        ASSERT_EQ(visited[i + 1], twins[i]) << "D=" << d << ", " << i;
      }
    }
    SpaceCounts counts = count_candidates(d, spec.max_ops);
    EXPECT_EQ(visited.size(), expected_totals[d - 1]) << "D=" << d;
    EXPECT_EQ(visited.size(), counts.total()) << "D=" << d;
    EXPECT_EQ(by_class.rec, counts.rec) << "D=" << d;
    EXPECT_EQ(by_class.strct, counts.strct) << "D=" << d;
    EXPECT_EQ(by_class.run, counts.run) << "D=" << d;
  }
}

TEST(Enumerate, AllCandidatesWithinSizeBound) {
  SpaceSpec spec;
  spec.delims = {'\n', ' '};
  CandidateSpace space = enumerate_candidates(spec);
  for (const Combiner& g : space.candidates)
    EXPECT_LE(size(g), spec.max_ops + 2) << to_string(g);
}

TEST(Enumerate, CandidatesAreDistinct) {
  SpaceSpec spec;  // one delimiter: 2700 candidates
  CandidateSpace space = enumerate_candidates(spec);
  std::set<std::string> seen;
  for (const Combiner& g : space.candidates)
    EXPECT_TRUE(seen.insert(to_string(g)).second) << to_string(g);
}

// ---------------------------------------------------------------- k-way --

TEST(KWay, ConcatJoins) {
  EXPECT_EQ(combine_k(combiner_concat(), {"a\n", "b\n", "c\n"}).value(),
            "a\nb\nc\n");
}

TEST(KWay, MergeAllAtOnce) {
  EXPECT_EQ(combine_k(combiner_merge(""), {"a\nd\n", "b\n", "c\ne\n"}).value(),
            "a\nb\nc\nd\ne\n");
}

TEST(KWay, RerunConcatenatesOnceThenRuns) {
  cmd::CommandPtr sort = cmd::make_command_line("sort");
  EvalContext ctx{sort.get()};
  EXPECT_EQ(combine_k(combiner_rerun(), {"c\n", "a\n", "b\n"}, ctx).value(),
            "a\nb\nc\n");
}

TEST(KWay, PairwiseFoldForStructOps) {
  Combiner saf = combiner_stitch2_add_first(' ');
  EXPECT_EQ(combine_k(saf, {"      1 x\n", "      1 x\n", "      1 x\n"})
                .value(),
            "      3 x\n");
}

TEST(KWay, SingletonAndEmpty) {
  EXPECT_EQ(combine_k(combiner_concat(), {}).value(), "");
  EXPECT_EQ(combine_k(combiner_stitch_first(), {"a\n"}).value(), "a\n");
}

// ------------------------------------------------------- boundary fold --

// The certified reference: eval's pairwise left fold.
std::optional<std::string> eval_fold(const Combiner& g,
                                     const std::vector<std::string>& parts,
                                     const EvalContext& ctx = {}) {
  if (parts.empty()) return std::string();
  std::string acc = parts.front();
  for (std::size_t i = 1; i < parts.size(); ++i) {
    auto next = eval(g, acc, parts[i], ctx);
    if (!next) return std::nullopt;
    acc = std::move(*next);
  }
  return acc;
}

// Fold's pushes and finish, concatenated.
std::optional<std::string> boundary_fold(const Combiner& g,
                                         const std::vector<std::string>& parts,
                                         const EvalContext& ctx = {}) {
  Fold fold(g, ctx);
  std::vector<std::string> pieces;
  std::string out;
  for (const std::string& p : parts) {
    if (!fold.push(p, &pieces)) return std::nullopt;
    for (const std::string& piece : pieces) out += piece;
    pieces.clear();
  }
  return out + fold.finish();
}

TEST(Fold, StreamsOnlyWhereTheCombinerHasASuffixBoundary) {
  EXPECT_TRUE(Fold(combiner_concat()).streams());
  EXPECT_TRUE(Fold(combiner_stitch_first()).streams());
  EXPECT_TRUE(Fold(combiner_stitch2_add_first(' ')).streams());
  EXPECT_TRUE(Fold(combiner_offset_add(' ')).streams());
  EXPECT_FALSE(Fold(swapped(combiner_concat())).streams());
  EXPECT_FALSE(Fold(swapped(combiner_stitch_first())).streams());
  EXPECT_FALSE(Fold(combiner_back_add('\n')).streams());
  EXPECT_FALSE(Fold(combiner_merge("")).streams());
}

TEST(Fold, EmitsSettledLinesAndCarriesOneBoundaryLine) {
  Fold fold(combiner_stitch2_add_first(' '));
  std::vector<std::string> out;
  ASSERT_TRUE(fold.push("      1 a\n      2 b\n", &out));
  EXPECT_EQ(out, std::vector<std::string>{"      1 a\n"});
  out.clear();
  // b's run straddles the seam: the joined line is still the boundary.
  ASSERT_TRUE(fold.push("      3 b\n", &out));
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(fold.push("      1 b\n      1 c\n      4 d\n", &out));
  EXPECT_EQ(out, std::vector<std::string>{"      6 b\n      1 c\n"});
  EXPECT_EQ(fold.finish(), "      4 d\n");
}

// Random record-aligned splits of inputs whose runs straddle the seams:
// Fold, combine_k and eval's left fold agree with each other and with the
// command on the whole input.
TEST(Fold, AgreesWithEvalFoldAndTheCommandOnRandomSplits) {
  struct Case {
    const char* command;
    Combiner g;
  };
  const Case cases[] = {
      {"uniq", combiner_stitch_first()},
      {"uniq -c", combiner_stitch2_add_first(' ')},
      {"wc -l", combiner_back_add('\n')},
      {"tail -n 1", combiner_second()},
  };
  std::mt19937 rng(20221);
  const char* words[] = {"apple", "pear", "fig", ""};
  for (const Case& c : cases) {
    cmd::CommandPtr command = cmd::make_command_line(c.command);
    ASSERT_NE(command, nullptr) << c.command;
    for (int trial = 0; trial < 150; ++trial) {
      // Runs of 1-4 equal lines, so runs cross most cut points.
      std::vector<std::string> lines;
      const int runs = 1 + static_cast<int>(rng() % 40);
      for (int r = 0; r < runs; ++r) {
        const std::string word = words[rng() % 4];
        for (int n = 1 + static_cast<int>(rng() % 4); n > 0; --n)
          lines.push_back(word);
      }
      // 1-20 non-empty slices cut at distinct line boundaries.
      const std::size_t want =
          std::min<std::size_t>(1 + rng() % 20, lines.size());
      std::set<std::size_t> cuts = {0, lines.size()};
      while (cuts.size() < want + 1) cuts.insert(1 + rng() % lines.size());
      std::string whole;
      std::vector<std::string> parts;
      for (auto it = cuts.begin(); std::next(it) != cuts.end(); ++it) {
        std::string slice;
        for (std::size_t i = *it; i < *std::next(it); ++i)
          slice += lines[i] + "\n";
        whole += slice;
        parts.push_back(command->run(slice));
      }
      const std::string expect = command->run(whole);
      SCOPED_TRACE(std::string(c.command) + " trial " +
                   std::to_string(trial) + ", " +
                   std::to_string(parts.size()) + " parts");
      EXPECT_EQ(eval_fold(c.g, parts), expect);
      EXPECT_EQ(boundary_fold(c.g, parts), expect);
      EXPECT_EQ(combine_k(c.g, parts), expect);
    }
  }
}

// Every sequence of up to four hand-picked parts — "", "\n", unterminated
// parts, a uniq -c count that fills its 7-column pad, wc -l FILE tables —
// is defined under Fold exactly when it is under eval's left fold, with the
// same output. This pins the checks Fold spreads across pushes: a lone part
// passes unchecked, and a joined seam line (999999 + 1 outgrows the pad) or
// an offset-rewritten line is checked only when another part arrives.
TEST(Fold, DefinednessMatchesEvalFoldExactly) {
  struct Case {
    Combiner g;
    std::vector<std::string> atoms;
  };
  const std::vector<std::string> lines_atoms = {
      "", "\n", "a\n", "a", "a\nb\n", "b\nb\n", "\n\n"};
  const std::vector<std::string> table_atoms = {
      "",          "\n",          "      1 a\n", "      1 a",
      " 999999 a\n", "9999999 a\n", "      2 a\n      1 b\n",
      "      1 b\n"};
  const std::vector<std::string> offset_atoms = {
      "",       "\n",          "3 f1\n", "10 f2\n1 f3\n", "\t5 g\n",
      "5 h",    "x f\n",       "\n2 f\n\n"};
  const Case cases[] = {
      {combiner_stitch_first(), lines_atoms},
      {swapped(combiner_stitch_first()), lines_atoms},
      {combiner_concat(), lines_atoms},
      {combiner_stitch2_add_first(' '), table_atoms},
      {swapped(combiner_stitch2_add_first(' ')), table_atoms},
      {combiner_offset_add(' '), offset_atoms},
      {combiner_back_add('\n'), {"", "\n", "3\n", "4", "12\n"}},
  };
  for (const Case& c : cases) {
    std::vector<std::vector<std::string>> frontier = {{}};
    for (int len = 1; len <= 4; ++len) {
      std::vector<std::vector<std::string>> next;
      for (const auto& prefix : frontier) {
        for (const std::string& atom : c.atoms) {
          std::vector<std::string> parts = prefix;
          parts.push_back(atom);
          const auto expect = eval_fold(c.g, parts);
          std::string shown;
          for (const std::string& p : parts) shown += "[" + p + "]";
          EXPECT_EQ(boundary_fold(c.g, parts), expect)
              << to_string(c.g) << " over " << shown;
          EXPECT_EQ(combine_k(c.g, parts), expect)
              << to_string(c.g) << " over " << shown;
          next.push_back(std::move(parts));
        }
      }
      frontier = std::move(next);
    }
  }
}

// The streaming runtime's workers check each part's lines and hand the
// verdict to push(). Over random sequences of parts, among them "\n",
// empty and unterminated parts and parts with an illegal line away from
// their seams, a fold fed verdicts and one left to check for itself hand
// back the same pieces, finish alike and turn undefined at the same push.
TEST(Fold, PushWithTheWorkersVerdictMatchesPushAlone) {
  struct Case {
    const char* name;
    Combiner g;
    std::vector<std::string> atoms;
  };
  const Case cases[] = {
      {"uniq", combiner_stitch_first(),
       {"", "\n", "a\n", "a", "a\nb\n", "b\nb\nc\n", "a\nb", "\n\n"}},
      {"uniq -c", combiner_stitch2_add_first(' '),
       {"", "\n", "      1 a\n", "      1 a", "      2 a\n      1 b\n",
        "      1 b\nb\n      3 c\n", "      1 a\n9999999 b\n      1 c\n",
        " 999999 c\n"}},
      {"offset", combiner_offset_add(' '),
       {"", "\n", "3 f1\n", "10 f2\n1 f3\n", "1 f\nx f\n2 g\n", "5 h",
        "\n2 f\n\n", "\t5 g\n"}},
      {"concat", combiner_concat(), {"", "\n", "a\n", "a", "b\nc\n"}},
  };
  std::mt19937 rng(20);
  for (const Case& c : cases) {
    for (const std::string& atom : c.atoms) {
      const bool checked = c.g.node->op != Op::kConcat;
      EXPECT_EQ(Fold(c.g).lines_legal(atom),
                !checked || struct_lines_legal(*c.g.node, atom))
          << c.name << " [" << atom << "]";
    }
    for (int trial = 0; trial < 300; ++trial) {
      Fold with_verdict(c.g);
      Fold alone(c.g);
      std::vector<std::string> got, want;
      std::string shown;
      const int n = 1 + static_cast<int>(rng() % 6);
      for (int i = 0; i < n; ++i) {
        const std::string& part = c.atoms[rng() % c.atoms.size()];
        shown += "[" + part + "]";
        const bool ok_verdict =
            with_verdict.push(part, &got, with_verdict.lines_legal(part));
        const bool ok_alone = alone.push(part, &want);
        ASSERT_EQ(ok_verdict, ok_alone) << c.name << " over " << shown;
        ASSERT_EQ(got, want) << c.name << " over " << shown;
        if (!ok_alone) break;
      }
      EXPECT_EQ(with_verdict.finish(), alone.finish())
          << c.name << " over " << shown;
    }
  }
}

TEST(Fold, JoinedSeamLineIsCheckedByTheNextPush) {
  // 999999 + 1 widens the count past uniq -c's pad: the joined line is not
  // a padded table line, so folding a third part in is undefined — even
  // once that line has been emitted and another carries the seam.
  const Combiner saf = combiner_stitch2_add_first(' ');
  EXPECT_EQ(boundary_fold(saf, {" 999999 a\n", "      1 a\n      1 b\n"}),
            "1000000 a\n      1 b\n");
  EXPECT_FALSE(boundary_fold(
      saf, {" 999999 a\n", "      1 a\n      1 b\n", "      1 c\n"}));
  // A lone part passes unchecked; as a left operand it is checked.
  EXPECT_EQ(boundary_fold(saf, {"9999999 a\n"}), "9999999 a\n");
  EXPECT_FALSE(boundary_fold(saf, {"9999999 a\n", "      1 b\n"}));
}

}  // namespace
}  // namespace kq::dsl
