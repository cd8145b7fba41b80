#include "synth/filter.h"

#include <algorithm>

namespace kq::synth {

bool plausible(const dsl::Combiner& g, const Observation& obs,
               const dsl::EvalContext& ctx) {
  auto v = dsl::eval(g, obs.y1, obs.y2, ctx);
  return v.has_value() && *v == obs.y12;
}

bool plausible_on_all(const dsl::Combiner& g,
                      const std::vector<Observation>& observations,
                      const dsl::EvalContext& ctx) {
  return std::all_of(
      observations.begin(), observations.end(),
      [&](const Observation& obs) { return plausible(g, obs, ctx); });
}

std::vector<dsl::Combiner> filter_candidates(
    std::vector<dsl::Combiner> candidates,
    const std::vector<Observation>& observations,
    const dsl::EvalContext& ctx) {
  std::vector<dsl::Combiner> kept;
  kept.reserve(candidates.size());
  for (dsl::Combiner& g : candidates)
    if (plausible_on_all(g, observations, ctx)) kept.push_back(std::move(g));
  return kept;
}

std::size_t count_eliminated(const std::vector<dsl::Combiner>& candidates,
                             const std::vector<Observation>& observations,
                             const dsl::EvalContext& ctx,
                             std::size_t sample_cap) {
  std::size_t stride = 1;
  if (sample_cap > 0 && candidates.size() > sample_cap)
    stride = candidates.size() / sample_cap;
  std::size_t eliminated = 0;
  for (std::size_t i = 0; i < candidates.size(); i += stride)
    if (!plausible_on_all(candidates[i], observations, ctx)) ++eliminated;
  return eliminated;
}

}  // namespace kq::synth
