// Plausibility filtering (Definitions 3.9/3.10): a candidate survives an
// observation iff the operands lie in its legal domain and it reproduces
// the serial output exactly.
#pragma once

#include <vector>

#include "dsl/eval.h"
#include "synth/observation.h"

namespace kq::synth {

// True iff g explains the observation (legal + exact output).
bool plausible(const dsl::Combiner& g, const Observation& obs,
               const dsl::EvalContext& ctx);

// True iff g explains every one of `observations`.
bool plausible_on_all(const dsl::Combiner& g,
                      const std::vector<Observation>& observations,
                      const dsl::EvalContext& ctx);

// Removes candidates eliminated by any of `observations`.
std::vector<dsl::Combiner> filter_candidates(
    std::vector<dsl::Combiner> candidates,
    const std::vector<Observation>& observations,
    const dsl::EvalContext& ctx);

// Counts how many of `candidates` would be eliminated by `observations`
// (the scoring function of Algorithm 2's IndexBestMutation). For large
// candidate sets a uniform sample of `sample_cap` candidates is scored
// instead — the mutation ranking is a search heuristic, so sampling
// preserves behaviour while bounding cost.
std::size_t count_eliminated(const std::vector<dsl::Combiner>& candidates,
                             const std::vector<Observation>& observations,
                             const dsl::EvalContext& ctx,
                             std::size_t sample_cap = 2048);

}  // namespace kq::synth
