#include "synth/synthesize.h"

#include <chrono>

#include "prep/delimiters.h"
#include "prep/literals.h"
#include "synth/filter.h"
#include "text/streams.h"
#include "unixcmd/sort_cmd.h"

namespace kq::synth {
namespace {

// Derives the merge-candidate flags: for `sort` commands the command's own
// comparison flags ("<flags> specific to command f", §3.1), otherwise the
// flagless merge.
std::string merge_flags_for(const std::vector<std::string>& argv) {
  if (argv.empty()) return "";
  std::string prog = argv[0];
  if (auto slash = prog.rfind('/'); slash != std::string::npos)
    prog = prog.substr(slash + 1);
  if (prog != "sort") return "";
  std::vector<std::string> flags(argv.begin() + 1, argv.end());
  auto spec = cmd::SortSpec::parse(flags);
  if (!spec) return "";
  return spec->canonical_flags();
}

}  // namespace

SynthesisResult synthesize(const cmd::Command& f,
                           const std::vector<std::string>& argv,
                           const SynthesisConfig& config, const vfs::Vfs* fs) {
  auto start = std::chrono::steady_clock::now();
  if (!fs) fs = &vfs::Vfs::global();
  SynthesisResult result;
  std::mt19937_64 rng(config.seed);

  // --- Preprocessing -----------------------------------------------------
  prep::CommandLiterals literals = prep::extract_literals(argv);
  result.input_class = prep::classify_inputs(f, *fs);

  shape::GenOptions gen;
  gen.sorted = result.input_class == prep::InputClass::kSortedText;
  if (result.input_class == prep::InputClass::kFileNames) {
    gen.dictionary = fs->names();
  } else {
    gen.dictionary = literals.dictionary;
  }

  // Seed inputs: sample outputs for delimiter inference and an initial
  // filtering round. When preprocessing found a numeric literal, one seed
  // shape straddles it so both behaviours of the command are exercised.
  std::vector<shape::Shape> number_shapes;
  for (long n : literals.numbers) {
    if (n > 1 && n <= kProbeCountCap) {
      number_shapes.push_back(shape::seed_shape_near_count(n));
      result.probed_bounds.push_back(n);
    } else if (n > kProbeCountCap) {
      result.unprobed_bounds.push_back(n);
    }
  }

  std::vector<shape::InputPair> seed_pairs;
  for (int i = 0; i < 3; ++i)
    seed_pairs.push_back(shape::generate_pair(shape::seed_shape(), gen, rng));
  for (const shape::Shape& s : number_shapes)
    for (int i = 0; i < 6; ++i)
      seed_pairs.push_back(shape::generate_pair(s, gen, rng));
  std::vector<Observation> observations = observe_all(f, seed_pairs);
  if (observations.empty()) {
    result.failure_reason =
        "command failed on every generated seed input";
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return result;
  }

  std::vector<std::string_view> sample_outputs;
  for (const Observation& obs : observations) {
    sample_outputs.push_back(obs.y1);
    sample_outputs.push_back(obs.y2);
    sample_outputs.push_back(obs.y12);
  }
  result.delims = prep::infer_delims(sample_outputs);

  // --- Candidate space ---------------------------------------------------
  dsl::SpaceSpec space_spec;
  space_spec.delims = result.delims;
  space_spec.max_ops = config.max_ops;
  space_spec.merge_flags = merge_flags_for(argv);
  result.space = dsl::count_candidates(result.delims.size(), config.max_ops);

  dsl::EvalContext ctx{&f};

  // Round 0: filter on the seed observations. Each candidate meets them as
  // it is enumerated and only survivors are kept, so the space (up to
  // 110,444 candidates at |D| = 3) is never held whole.
  std::vector<dsl::Combiner> candidates;
  dsl::for_each_candidate(space_spec, [&](const dsl::Combiner& g) {
    if (plausible_on_all(g, observations, ctx)) candidates.push_back(g);
  });

  // --- Algorithm 1 rounds ------------------------------------------------
  int stagnant = 0;
  for (int r = 1; r <= config.max_rounds && !candidates.empty(); ++r) {
    result.rounds = r;
    // Rounds rotate between random restarts and shapes straddling the
    // numeric literals preprocessing extracted, so size-sensitive
    // behaviour (e.g. `sed 100q`) keeps being exercised.
    shape::Shape start_shape =
        (!number_shapes.empty() && r % 2 == 0)
            ? number_shapes[static_cast<std::size_t>(r / 2 - 1) %
                            number_shapes.size()]
            : shape::random_shape(rng);
    InputSearchResult found =
        effective_inputs(f, candidates, start_shape, gen,
                         config.input_search, ctx, rng);
    std::size_t before = candidates.size();
    candidates = filter_candidates(std::move(candidates), found.observations,
                                   ctx);
    for (Observation& o : found.observations)
      observations.push_back(std::move(o));
    if (candidates.size() == before) {
      if (++stagnant >= config.progress_window) break;
    } else {
      stagnant = 0;
    }
  }

  result.observation_count = observations.size();

  // Degenerate-evidence check: if the command never produced output on any
  // generated input, every candidate is vacuously plausible and nothing
  // was validated. The paper reports such commands as unsupported (its
  // Table 9 lists awk "$1 == 2 ..." with the reason "KumQuat did not
  // generate inputs for the command to produce nonempty outputs").
  bool any_output = false;
  for (const Observation& obs : observations)
    if (!obs.y12.empty()) any_output = true;
  if (!any_output) {
    result.failure_reason =
        "generated inputs never made the command produce output";
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return result;
  }

  result.plausible = candidates;
  result.success = !candidates.empty();
  if (!result.success)
    result.failure_reason = "no candidate combiner explains the observations";
  result.combiner = CompositeCombiner::select(candidates);
  result.sufficiency = certify(candidates, observations);

  // Diagnostics for the compiler.
  std::size_t in_bytes = 0, out_bytes = 0;
  bool newline_ok = true;
  for (const Observation& obs : observations) {
    out_bytes += obs.y12.size();
    for (std::string_view y : {std::string_view(obs.y1),
                               std::string_view(obs.y2)}) {
      if (!y.empty() && !text::is_stream(y)) newline_ok = false;
    }
  }
  for (const shape::InputPair& p : seed_pairs)
    in_bytes += p.x1.size() + p.x2.size();
  // seed_pairs only covers the initial round; scale by observation share to
  // keep the ratio meaningful.
  if (in_bytes > 0 && !observations.empty()) {
    double per_obs_out =
        static_cast<double>(out_bytes) / static_cast<double>(
                                             observations.size());
    double per_obs_in = static_cast<double>(in_bytes) /
                        static_cast<double>(
                            std::max<std::size_t>(1, seed_pairs.size()));
    if (per_obs_in > 0) result.reduction_ratio = per_obs_out / per_obs_in;
  }
  result.outputs_newline_terminated = newline_ok;

  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

const SynthesisResult* SynthesisCache::find(const std::string& name) const {
  auto it = cache_.find(name);
  return it == cache_.end() ? nullptr : &it->second;
}

const SynthesisResult& SynthesisCache::insert(const std::string& name,
                                              SynthesisResult result) {
  return cache_.emplace(name, std::move(result)).first->second;
}

}  // namespace kq::synth
