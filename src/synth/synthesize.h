// Algorithm 1 (Synthesize): the top-level combiner synthesis loop.
//
//   C0 <- AllCandidates(n)
//   for r = 1, 2, ...:
//     I_r <- GetEffectiveInputs(f, C_{r-1}, RandomShape())
//     C_r <- FilterCandidates(f, C_{r-1}, I_r)
//     if C_r = {}: return nil
//     if not MakingProgress: return C_r
//
// Preprocessing (§3.2) runs first: literal/number extraction, probe-input
// classification, and delimiter-alphabet inference, which together fix the
// candidate space and the input-generation mode.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dsl/enumerate.h"
#include "prep/probe.h"
#include "synth/composite.h"
#include "synth/input_search.h"
#include "synth/sufficiency.h"

namespace kq::synth {

// Largest numeric literal the seed-input generator straddles
// (seed_shape_near_count in synthesize.cpp): a command whose behavior
// changes only past this bound looks identical to its below-bound twin on
// every observation, so certification is statistically blind there. The
// planner (compile_pipeline) consults this to keep such stages sequential
// — e.g. `tail -n 1000000` certifies a concat combiner that is simply
// `cat` at probe scale and wrong past the window.
inline constexpr long kProbeCountCap = 4096;

struct SynthesisConfig {
  int max_ops = 5;            // candidate size bound (|g| <= max_ops + 2)
  int max_rounds = 5;         // r limit in Algorithm 1
  int progress_window = 2;    // rounds without elimination before stopping
  InputSearchConfig input_search;
  std::uint64_t seed = 20220402;  // deterministic synthesis by default
};

struct SynthesisResult {
  bool success = false;             // at least one plausible combiner
  std::string failure_reason;       // set when !success
  std::vector<dsl::Combiner> plausible;  // final C_r
  CompositeCombiner combiner;            // class-preferred composite

  // Diagnostics for the Table 10 reproduction.
  dsl::SpaceCounts space;
  std::vector<char> delims;
  prep::InputClass input_class = prep::InputClass::kAnyText;
  int rounds = 0;
  std::size_t observation_count = 0;
  double seconds = 0;
  // Output/input byte ratio over all observations; drives the compiler's
  // sequential-fallback decision for rerun-only stages (§2).
  double reduction_ratio = 1.0;
  // Probe-bound introspection for the static analyzer (`kumquat check`):
  // numeric literals extracted from the command line that the seed-input
  // generator straddled with probes (1 < n <= kProbeCountCap), and those
  // past the cap — bounds no certification observation ever crossed, so
  // the combiner's behavior there is untested (the KQ-PROBE diagnostic).
  std::vector<long> probed_bounds;
  std::vector<long> unprobed_bounds;
  // True iff every observed output was newline-terminated or empty — the
  // precondition of the elimination optimization (Theorem 5).
  bool outputs_newline_terminated = true;
  // Appendix B certificate: whether the collected observations satisfy
  // the sufficiency predicate for the surviving candidate class, in which
  // case Theorems 2/4 guarantee all survivors are equivalent.
  SufficiencyReport sufficiency;
};

// Synthesizes a combiner for black-box command `f`. `argv` (optional)
// enables script preprocessing; `fs` supplies file names for probe
// classification (defaults to the global VFS).
SynthesisResult synthesize(const cmd::Command& f,
                           const std::vector<std::string>& argv,
                           const SynthesisConfig& config = {},
                           const vfs::Vfs* fs = nullptr);

// Synthesis results keyed by the command's display name: the benchmark
// suite synthesizes each unique command/flag combination once (§4). Not
// thread-safe: it has one owner, and compile_pipeline fills it on the
// compiling thread after its concurrent syntheses have finished.
class SynthesisCache {
 public:
  // The entry for a command's display name, or null.
  const SynthesisResult* find(const std::string& name) const;
  // Stores `result` under `name` unless an entry exists; returns the entry.
  const SynthesisResult& insert(const std::string& name,
                                SynthesisResult result);

  std::size_t size() const { return cache_.size(); }
  const std::unordered_map<std::string, SynthesisResult>& entries() const {
    return cache_;
  }

 private:
  std::unordered_map<std::string, SynthesisResult> cache_;
};

}  // namespace kq::synth
