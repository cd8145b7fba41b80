// Candidate-space enumeration (§3.2). The initial search space contains
// every DSL tree with at most `max_ops` operator productions (|g| ≤
// max_ops + 2; the paper uses "seven or fewer nodes", i.e. max_ops = 5)
// over a per-command delimiter alphabet, each in both argument orders,
// plus the four RunOp candidates (rerun and merge in both orders).
//
// With max_ops = 5 this reproduces the paper's Table 10 space sizes
// exactly: |D|=1 -> 2700, |D|=2 -> 26404, |D|=3 -> 110444
// (see DESIGN.md §3 for the closed form).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "dsl/ast.h"

namespace kq::dsl {

struct SpaceSpec {
  std::vector<char> delims = {'\n'};  // per-command delimiter alphabet
  int max_ops = 5;                    // P; |g| <= P + 2
  std::string merge_flags;            // flags for the merge candidate
};

struct CandidateSpace {
  std::vector<Combiner> candidates;  // RecOp, then StructOp, then RunOp
  std::size_t rec_count = 0;         // counts include both argument orders
  std::size_t struct_count = 0;
  std::size_t run_count = 0;

  std::size_t total() const { return rec_count + struct_count + run_count; }
};

// Hands every candidate to `visit`, one at a time, in the order
// enumerate_candidates lists them. The space itself is never held: only
// the RecOp trees that are children of larger trees (fewer than max_ops
// productions) live for the call, so a caller that keeps a few survivors
// (synthesis's round-0 filter) holds O(survivors), not ~10^5 candidates.
void for_each_candidate(const SpaceSpec& spec,
                        const std::function<void(const Combiner&)>& visit);

// The whole space, materialized (built on for_each_candidate).
CandidateSpace enumerate_candidates(const SpaceSpec& spec);

// Closed-form candidate counts; must equal enumerate_candidates' sizes.
struct SpaceCounts {
  std::size_t rec = 0;
  std::size_t strct = 0;
  std::size_t run = 0;
  std::size_t total() const { return rec + strct + run; }
};
SpaceCounts count_candidates(std::size_t delim_count, int max_ops);

}  // namespace kq::dsl
