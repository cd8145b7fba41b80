#include "dsl/enumerate.h"

#include <algorithm>

namespace kq::dsl {

void for_each_candidate(const SpaceSpec& spec,
                        const std::function<void(const Combiner&)>& visit) {
  auto both_orders = [&visit](Combiner g) {
    visit(g);
    g.swapped = !g.swapped;
    visit(g);
  };
  auto tree = [&both_orders](NodeRef t) {
    both_orders(Combiner{std::move(t), false, nullptr, ""});
  };
  const int P = spec.max_ops;
  // RecOp: every tree with p = 1..P operator productions, p ascending.
  // rec_by_ops[p] keeps the trees with exactly p productions that are
  // children of larger trees (p < P); the p = P layer is only visited.
  std::vector<std::vector<NodeRef>> rec_by_ops(
      static_cast<std::size_t>(std::max(P, 1)) + 1);
  for (int p = 1; p <= P; ++p) {
    auto& layer = rec_by_ops[static_cast<std::size_t>(p)];
    auto emit = [&](NodeRef t) {
      tree(t);
      if (p < P) layer.push_back(std::move(t));
    };
    if (p == 1) {
      for (Op op : {Op::kAdd, Op::kConcat, Op::kFirst, Op::kSecond})
        emit(make_leaf(op));
      continue;
    }
    for (Op op : {Op::kFront, Op::kBack, Op::kFuse})
      for (char d : spec.delims)
        for (const NodeRef& child :
             rec_by_ops[static_cast<std::size_t>(p - 1)])
          emit(make_unary(op, d, child));
  }

  // StructOp. stitch b: 1 + ops(b) <= P.
  for (int p = 1; p <= P - 1; ++p)
    for (const NodeRef& b : rec_by_ops[static_cast<std::size_t>(p)])
      tree(make_stitch(b));
  // offset d b.
  for (char d : spec.delims)
    for (int p = 1; p <= P - 1; ++p)
      for (const NodeRef& b : rec_by_ops[static_cast<std::size_t>(p)])
        tree(make_unary(Op::kOffset, d, b));
  // stitch2 d b1 b2: 1 + ops(b1) + ops(b2) <= P.
  for (char d : spec.delims) {
    for (int p1 = 1; p1 <= P - 2; ++p1) {
      for (const NodeRef& b1 : rec_by_ops[static_cast<std::size_t>(p1)]) {
        for (int p2 = 1; p2 <= P - 1 - p1; ++p2) {
          for (const NodeRef& b2 :
               rec_by_ops[static_cast<std::size_t>(p2)]) {
            tree(make_stitch2(d, b1, b2));
          }
        }
      }
    }
  }

  // RunOp.
  both_orders(combiner_rerun());
  both_orders(combiner_merge(spec.merge_flags));
}

CandidateSpace enumerate_candidates(const SpaceSpec& spec) {
  CandidateSpace space;
  for_each_candidate(spec, [&space](const Combiner& g) {
    space.candidates.push_back(g);
    switch (g.cls()) {
      case OpClass::kRec: ++space.rec_count; break;
      case OpClass::kStruct: ++space.struct_count; break;
      case OpClass::kRun: ++space.run_count; break;
    }
  });
  return space;
}

SpaceCounts count_candidates(std::size_t delim_count, int max_ops) {
  const std::size_t D = delim_count;
  const int P = max_ops;
  // rec(p) = 4 * (3D)^(p-1); Rec(k) = sum_{p<=k} rec(p).
  std::vector<std::size_t> rec(static_cast<std::size_t>(P) + 1, 0);
  std::vector<std::size_t> rec_cum(static_cast<std::size_t>(P) + 1, 0);
  for (int p = 1; p <= P; ++p) {
    rec[static_cast<std::size_t>(p)] =
        p == 1 ? 4 : rec[static_cast<std::size_t>(p - 1)] * 3 * D;
    rec_cum[static_cast<std::size_t>(p)] =
        rec_cum[static_cast<std::size_t>(p - 1)] +
        rec[static_cast<std::size_t>(p)];
  }
  std::size_t rec_trees = rec_cum[static_cast<std::size_t>(P)];
  std::size_t stitch = P >= 2 ? rec_cum[static_cast<std::size_t>(P - 1)] : 0;
  std::size_t offset = D * stitch;
  std::size_t stitch2 = 0;
  for (int p1 = 1; p1 <= P - 2; ++p1)
    stitch2 += rec[static_cast<std::size_t>(p1)] *
               rec_cum[static_cast<std::size_t>(P - 1 - p1)];
  stitch2 *= D;
  SpaceCounts counts;
  counts.rec = 2 * rec_trees;
  counts.strct = 2 * (stitch + offset + stitch2);
  counts.run = 4;
  return counts;
}

}  // namespace kq::dsl
