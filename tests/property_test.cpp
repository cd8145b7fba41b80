// Property tests for the paper's theorems:
//
//  * Theorems 1/2 (RecOp): with sufficient observations, every surviving
//    RecOp candidate is equivalent-by-intersection to the correct
//    combiner — checked extensionally on held-out observation streams.
//  * Theorems 3/4 (StructOp): same for table-shaped commands.
//  * Theorem 5: eliminating a concat combiner preserves the final output.
//  * Proposition B.5: plausible sets grow monotonically with the size cap.
//
// Plus an I/O-layer property rider: randomized record lengths straddling
// the block size and max_record_size caps, round-tripped through the spill
// file and the fd BlockReader (src/io/) — byte identity and the EMSGSIZE
// contract. And the processor cascade (exec::Cascade) through the slice
// executor every parallel worker runs, against composed Command::run.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <random>

#include "dsl/enumerate.h"
#include "exec/parallel.h"
#include "exec/splitter.h"
#include "shape/generate.h"
#include "stream/block_reader.h"
#include "stream/spill.h"
#include "synth/filter.h"
#include "synth/synthesize.h"
#include "text/shellwords.h"
#include "unixcmd/registry.h"

namespace kq {
namespace {

std::vector<synth::Observation> observe_random(const cmd::Command& f,
                                               int count,
                                               std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<shape::InputPair> pairs;
  for (int i = 0; i < count; ++i) {
    shape::Shape s = shape::random_shape(rng);
    pairs.push_back(shape::generate_pair(s, {}, rng));
  }
  return synth::observe_all(f, pairs);
}

struct TheoremCase {
  const char* command;
  // The representative correct combiner (Definition B.11) expected to
  // survive filtering.
  const char* representative;
};

class SurvivorEquivalence : public ::testing::TestWithParam<TheoremCase> {};

// For every surviving candidate g', and fresh observations with operands
// in both domains, g' and the correct representative agree (the
// ≡∩ conclusion of Theorems 2 and 4, checked extensionally).
TEST_P(SurvivorEquivalence, SurvivorsAgreeOnHeldOutData) {
  const TheoremCase& tc = GetParam();
  auto argv = text::shell_split(tc.command);
  cmd::CommandPtr f = cmd::make_command(*argv);
  ASSERT_NE(f, nullptr);
  dsl::EvalContext ctx{f.get()};

  synth::SynthesisResult result = synth::synthesize(*f, *argv);
  ASSERT_TRUE(result.success) << tc.command;

  bool found_representative = false;
  for (const auto& g : result.plausible)
    if (dsl::to_string(g) == tc.representative) found_representative = true;
  ASSERT_TRUE(found_representative)
      << tc.command << " lost " << tc.representative;

  // Held-out data: the survivors must agree with each other wherever
  // both are defined.
  auto held_out = observe_random(*f, 30, 0xfeed);
  ASSERT_FALSE(held_out.empty());
  for (const auto& obs : held_out) {
    std::optional<std::string> reference;
    for (const auto& g : result.plausible) {
      auto v = dsl::eval(g, obs.y1, obs.y2, ctx);
      if (!v) continue;  // outside this candidate's domain
      if (!reference) {
        reference = v;
        EXPECT_EQ(*v, obs.y12) << dsl::to_string(g) << " on " << tc.command;
      } else {
        EXPECT_EQ(*v, *reference)
            << dsl::to_string(g) << " disagrees on " << tc.command;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Theorems2And4, SurvivorEquivalence,
    ::testing::Values(
        TheoremCase{"wc -l", "((back '\\n' add) a b)"},
        TheoremCase{"grep -c a", "((back '\\n' add) a b)"},
        TheoremCase{"tr A-Z a-z", "(concat a b)"},
        TheoremCase{"cut -c 1-4", "(concat a b)"},
        TheoremCase{"sed s/a/b/", "(concat a b)"},
        TheoremCase{"uniq", "((stitch first) a b)"},
        TheoremCase{"uniq -c", "((stitch2 ' ' add first) a b)"}),
    [](const ::testing::TestParamInfo<TheoremCase>& info) {
      std::string out;
      for (char c : std::string(info.param.command))
        out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      return out + "_" + std::to_string(info.index);
    });

// Theorem 5: for a concat-combined stage f1 feeding f2, combining after f2
// equals combining between the stages.
TEST(Theorem5, EliminationPreservesOutputs) {
  cmd::CommandPtr f1 = cmd::make_command_line("tr A-Z a-z");
  cmd::CommandPtr f2 = cmd::make_command_line("grep -c a");
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    shape::Shape s = shape::random_shape(rng);
    std::string x = shape::generate_stream(s, {}, rng);
    auto chunks = exec::split_stream(x, 4);

    // With intermediate combiner: concat f1 outputs, then run f2 split
    // again... the unoptimized pipeline runs f2 on a fresh split of the
    // combined stream. The optimized pipeline feeds f1's substreams
    // directly to f2. Both must equal serial composition after f2's
    // combiner.
    std::string serial = f2->run(f1->run(x));

    std::vector<std::string> mid;
    for (auto c : chunks) mid.push_back(f1->run(c));
    // Optimized: no combine between stages.
    dsl::Combiner back_add = dsl::combiner_back_add('\n');
    std::vector<std::string> counts;
    for (const auto& m : mid) counts.push_back(f2->run(m));
    auto combined = dsl::combine_k(back_add, counts);
    ASSERT_TRUE(combined.has_value());
    EXPECT_EQ(*combined, serial);
  }
}

// Proposition B.5: P_k1(Y) ⊆ P_k2(Y) for k1 < k2.
TEST(PropositionB5, PlausibleSetsMonotoneInSizeCap) {
  cmd::CommandPtr f = cmd::make_command_line("wc -l");
  auto observations = observe_random(*f, 10, 0xabc);
  dsl::EvalContext ctx{f.get()};
  std::size_t previous = 0;
  for (int max_ops : {1, 2, 3, 4, 5}) {
    dsl::SpaceSpec spec;
    spec.delims = {'\n'};
    spec.max_ops = max_ops;
    auto space = dsl::enumerate_candidates(spec);
    auto surviving =
        synth::filter_candidates(space.candidates, observations, ctx);
    EXPECT_GE(surviving.size(), previous) << "max_ops=" << max_ops;
    previous = surviving.size();
  }
}

// The divide-and-conquer equation holds for the synthesized combiner on
// k-way splits (not just pairs), exercising the §3.5 generalization.
class KWaySweep : public ::testing::TestWithParam<int> {};

TEST_P(KWaySweep, DivideAndConquerAtWidthK) {
  int k = GetParam();
  const char* kCommands[] = {"wc -l", "tr A-Z a-z", "sort", "uniq",
                             "uniq -c", "sort -rn"};
  std::mt19937_64 rng(static_cast<std::uint64_t>(k) * 77);
  for (const char* line : kCommands) {
    auto argv = text::shell_split(line);
    cmd::CommandPtr f = cmd::make_command(*argv);
    synth::SynthesisResult r = synth::synthesize(*f, *argv);
    ASSERT_TRUE(r.success) << line;
    dsl::EvalContext ctx{f.get()};
    for (int trial = 0; trial < 5; ++trial) {
      shape::Shape s = shape::random_shape(rng);
      s.lines.min_count = std::max(s.lines.min_count, k);
      s.lines.max_count = std::max(s.lines.max_count, 4 * k);
      std::string x = shape::generate_stream(s, {}, rng);
      auto chunks = exec::split_stream(x, k);
      std::vector<std::string> outputs;
      for (auto c : chunks) outputs.push_back(f->run(c));
      auto combined = r.combiner.apply_k(outputs, ctx);
      ASSERT_TRUE(combined.has_value()) << line << " k=" << k;
      EXPECT_EQ(*combined, f->run(x)) << line << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, KWaySweep, ::testing::Values(2, 3, 5, 8, 16),
                         [](const ::testing::TestParamInfo<int>& info) {
                           // Append form: GCC PR 105329 (-Wrestrict).
                           std::string name = "k";
                           name += std::to_string(info.param);
                           return name;
                         });

// ------------------------------------------------------- I/O properties --

// Random record lengths chosen to straddle the interesting boundaries:
// well under the block size, exactly at it, just over it, and past the
// max_record_size cap when `allow_oversized`.
std::string random_records(std::mt19937_64& rng, std::size_t block_size,
                           std::size_t record_cap, bool allow_oversized,
                           int count) {
  std::uniform_int_distribution<int> shape(0, allow_oversized ? 5 : 4);
  std::string out;
  for (int i = 0; i < count; ++i) {
    std::size_t len = 0;
    switch (shape(rng)) {
      case 0: len = 1 + rng() % 8; break;               // tiny
      case 1: len = block_size / 2 + rng() % 8; break;  // mid-block
      case 2: len = block_size - 1; break;              // exactly one block
      case 3: len = block_size + rng() % 16; break;     // just over a block
      case 4: len = record_cap - 1 - rng() % 4; break;  // grazing the cap
      case 5: len = record_cap + 1 + rng() % 32; break; // past the cap
    }
    out.append(len, static_cast<char>('a' + (rng() % 26)));
    out += '\n';
  }
  return out;
}

// Spill round-trip: appends of random sizes, positioned reads of random
// extents — the reassembled bytes are identical to what was appended.
TEST(IoSpillProperty, RandomRecordLengthsRoundTrip) {
  std::mt19937_64 rng(0x5eec);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t block = 64 + rng() % 192;
    std::string payload =
        random_records(rng, block, /*record_cap=*/4 * block,
                       /*allow_oversized=*/false, 40);
    stream::SpillFile file;
    ASSERT_TRUE(file.valid());
    // Appends sliced at random offsets, including mid-record cuts.
    for (std::size_t at = 0; at < payload.size();) {
      std::size_t n =
          std::min<std::size_t>(1 + rng() % (2 * block),
                                payload.size() - at);
      ASSERT_TRUE(file.append(payload.substr(at, n))) << file.error();
      at += n;
    }
    ASSERT_EQ(file.size(), payload.size());
    // Positioned reads of random extents, in random order.
    std::string back(payload.size(), '\0');
    for (std::size_t at = 0; at < payload.size();) {
      std::size_t n =
          std::min<std::size_t>(1 + rng() % (3 * block),
                                payload.size() - at);
      ASSERT_TRUE(file.read_exact(at, back.data() + at, n)) << file.error();
      at += n;
    }
    EXPECT_EQ(back, payload) << "trial=" << trial;
  }
}

// BlockReader record-cap contract: a stream whose records all fit under
// max_record_size is delivered byte-identically; one oversized record
// ends the stream with EMSGSIZE.
TEST(IoSpillProperty, RecordCapContract) {
  std::mt19937_64 rng(0xca8);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t block = 64;
    const std::size_t cap = 256;
    const bool oversized = (trial % 2) == 1;
    std::string payload = random_records(rng, block, cap, oversized, 24);
    if (oversized)  // guarantee at least one cap-busting record
      payload += std::string(cap + 40, 'Z') + "\n";

    char path[] = "/tmp/kq-prop-io-XXXXXX";
    int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);
    ::unlink(path);
    ASSERT_EQ(::write(fd, payload.data(), payload.size()),
              static_cast<ssize_t>(payload.size()));
    ASSERT_EQ(::lseek(fd, 0, SEEK_SET), 0);

    stream::BlockReader reader(fd, {block, '\n', cap});
    std::string got;
    while (auto b = reader.next()) got += *b;
    if (oversized) {
      EXPECT_EQ(reader.error(), EMSGSIZE) << "trial=" << trial;
    } else {
      EXPECT_EQ(reader.error(), 0) << "trial=" << trial;
      EXPECT_EQ(got, payload) << "trial=" << trial;
    }
    ::close(fd);
  }
}

// ------------------------------------------------- the processor cascade --

// Identity whose processor holds each block's last record back until the
// next block or finish(): a per-record stage with an end-of-input tail —
// no built-in has one — so a cascade that drops tails shows.
class HoldLastRecord final : public cmd::Command {
 public:
  HoldLastRecord() : Command("hold-last") {}
  cmd::Result execute(std::string_view input) const override {
    return {std::string(input), 0, {}};
  }
  cmd::Streamability streamability() const override {
    return cmd::Streamability::kPerRecord;
  }
  std::unique_ptr<cmd::StreamProcessor> stream_processor() const override {
    return std::make_unique<Processor>();
  }

 private:
  struct Processor final : cmd::StreamProcessor {
    std::string held;
    bool process(std::string_view block, std::string* out) override {
      held.append(block);
      std::size_t end = held.size();
      if (end > 0 && held[end - 1] == '\n') --end;  // the last record's own
      const std::size_t cut = end == 0 ? std::string::npos
                                       : held.rfind('\n', end - 1);
      if (cut != std::string::npos) {
        out->append(held, 0, cut + 1);
        held.erase(0, cut + 1);
      }
      return true;
    }
    void finish(std::string* out) override { out->append(held); }
  };
};

// head -n 3 whose processor, once it has reported its output complete,
// echoes any block it is still fed (the contract forbids feeding it) — so
// a cascade that drops the prefix-done report shows.
class LoudHead final : public cmd::Command {
 public:
  LoudHead() : Command("loud-head") {}
  cmd::Result execute(std::string_view input) const override {
    std::string out;
    Processor p;
    p.process(input, &out);
    return {out, 0, {}};
  }
  cmd::Streamability streamability() const override {
    return cmd::Streamability::kPrefix;
  }
  std::unique_ptr<cmd::StreamProcessor> stream_processor() const override {
    return std::make_unique<Processor>();
  }

 private:
  struct Processor final : cmd::StreamProcessor {
    int remaining = 3;
    bool process(std::string_view block, std::string* out) override {
      if (remaining == 0) {
        out->append(block);
        return false;
      }
      std::size_t pos = 0;
      while (pos < block.size() && remaining > 0) {
        const std::size_t nl = block.find('\n', pos);
        pos = nl == std::string_view::npos ? block.size() : nl + 1;
        --remaining;
      }
      out->append(block.substr(0, pos));
      return remaining > 0;
    }
  };
};

// Random record-aligned input over a small alphabet (so grep, uniq and sort
// see matches, runs and ties), with or without a final newline.
std::string random_lines(std::mt19937_64& rng, bool final_newline) {
  static const char kAlphabet[] = "aabbc A";
  std::string out;
  const int records = static_cast<int>(rng() % 40);
  for (int r = 0; r < records; ++r) {
    const int len = static_cast<int>(rng() % 9);
    std::string line;
    for (int c = 0; c < len; ++c) line += kAlphabet[rng() % 7];
    // Repeat some lines so uniq -c has runs longer than one.
    const int copies = 1 + static_cast<int>(rng() % 3 == 0 ? rng() % 3 : 0);
    for (int c = 0; c < copies; ++c) out += line + "\n";
  }
  if (!final_newline && !out.empty()) out.pop_back();
  return out;
}

// exec::run_slice_fused against the composition of Command::run, at every
// cascade step: the same bytes, and `last_fed` true exactly when the last
// stage's input is non-empty. Chains mix per-record stages, a prefix stage
// mid-chain, a black-box stage (sort) and window terminals (uniq -c,
// tail -n 2); "hold" and "loud-head" are the witnesses above.
TEST(CascadeProperty, SliceExecutorMatchesComposedRuns) {
  const std::vector<std::vector<std::string>> chains = {
      {"tr a-z A-Z", "grep A"},
      {"grep a", "head -n 3", "tr a-z A-Z"},
      {"cut -c 1-3", "sort", "uniq -c"},
      {"tr a-z A-Z", "uniq -c"},
      {"grep b", "tail -n 2"},
      {"head -n 3", "sort"},
      {"sort", "grep a", "tail -n 2"},
      {"hold", "tr a-z A-Z", "hold", "uniq -c"},
      {"hold", "loud-head", "tr a-z A-Z"},
      {"grep a", "loud-head", "hold", "tail -n 2"},
      {"hold", "sort", "hold"},
      {"grep zzz", "uniq -c"},
      {"grep zzz", "hold"},
      {"grep zzz", "sort"},
  };
  auto make = [](const std::string& line) -> cmd::CommandPtr {
    if (line == "hold") return std::make_shared<HoldLastRecord>();
    if (line == "loud-head") return std::make_shared<LoudHead>();
    return cmd::make_command(*text::shell_split(line));
  };
  std::mt19937_64 rng(0xca5c);
  for (const std::vector<std::string>& spec : chains) {
    std::vector<cmd::CommandPtr> owned;
    std::vector<const cmd::Command*> chain;
    std::string name;
    for (const std::string& line : spec) {
      owned.push_back(make(line));
      ASSERT_NE(owned.back(), nullptr) << line;
      chain.push_back(owned.back().get());
      name += (name.empty() ? "" : " | ") + line;
    }
    for (int trial = 0; trial < 24; ++trial) {
      const std::string input = random_lines(rng, trial % 2 == 0);
      std::string expected = input;
      bool expected_fed = !input.empty();
      for (const cmd::Command* c : chain) {
        expected_fed = !expected.empty();
        expected = c->run(expected);
      }
      for (std::size_t step : {1, 7, 64, 4096}) {
        bool fed = !expected_fed;
        const std::string got = exec::run_slice_fused(chain, input, step, &fed);
        EXPECT_EQ(got, expected)
            << name << " step=" << step << " input=\"" << input << "\"";
        EXPECT_EQ(fed, expected_fed)
            << name << " step=" << step << " input=\"" << input << "\"";
      }
    }
  }
}

}  // namespace
}  // namespace kq
