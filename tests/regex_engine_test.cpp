// Tests for the layered regex engine (src/regex/regex.h): a differential
// test over generated BREs (grep against GNU grep under LC_ALL=C, sed's
// positions against the continuation-passing backtracker the engine
// replaced, kept below as the oracle), grep's block search at block edges,
// linear time on patterns that drove the old engine exponential, and the
// backtracking budget's coded failure through `run` and the serial run.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "compile/optimize.h"
#include "compile/pipeline.h"
#include "compile/plan.h"
#include "exec/executor.h"
#include "procexec/external_command.h"
#include "regex/node.h"
#include "regex/regex.h"
#include "synth/observation.h"
#include "unixcmd/registry.h"

namespace kq::regex {
namespace {

// ------------------------------------------------------------- oracle --

// The engine before the automaton: continuation-passing backtracking from
// every start offset, greedy, an empty repetition refused. sed's positions
// (and so its output) must not move.
namespace oracle {

using detail::Kind;
using detail::Node;
using Caps = std::array<std::pair<std::size_t, std::size_t>, 10>;
using Cont = std::function<bool(std::size_t)>;

struct Ctx {
  std::string_view text;
  Caps caps;
};

bool match_node(const Node& n, Ctx& ctx, std::size_t pos, const Cont& k);

bool match_seq(const std::vector<detail::NodePtr>& children, std::size_t idx,
               Ctx& ctx, std::size_t pos, const Cont& k) {
  if (idx == children.size()) return k(pos);
  return match_node(*children[idx], ctx, pos, [&](std::size_t p2) {
    return match_seq(children, idx + 1, ctx, p2, k);
  });
}

bool match_node(const Node& n, Ctx& ctx, std::size_t pos, const Cont& k) {
  switch (n.kind) {
    case Kind::kLiteral:
      return pos < ctx.text.size() && ctx.text[pos] == n.ch && k(pos + 1);
    case Kind::kAny:
      return pos < ctx.text.size() && ctx.text[pos] != '\n' && k(pos + 1);
    case Kind::kClass:
      return pos < ctx.text.size() &&
             n.cls[static_cast<unsigned char>(ctx.text[pos])] && k(pos + 1);
    case Kind::kBolAnchor:
      return pos == 0 && k(pos);
    case Kind::kEolAnchor:
      return pos == ctx.text.size() && k(pos);
    case Kind::kSeq:
      return match_seq(n.children, 0, ctx, pos, k);
    case Kind::kAlt:
      for (const auto& branch : n.children)
        if (match_node(*branch, ctx, pos, k)) return true;
      return false;
    case Kind::kGroup:
      return match_node(*n.children[0], ctx, pos, [&](std::size_t p2) {
        auto idx = static_cast<std::size_t>(n.index);
        auto saved = ctx.caps[idx];
        ctx.caps[idx] = {pos, p2};
        if (k(p2)) return true;
        ctx.caps[idx] = saved;
        return false;
      });
    case Kind::kBackref: {
      auto [b, e] = ctx.caps[static_cast<std::size_t>(n.index)];
      if (b == Match::kNpos) return false;
      std::string_view captured = ctx.text.substr(b, e - b);
      if (ctx.text.substr(pos, captured.size()) != captured) return false;
      return k(pos + captured.size());
    }
    case Kind::kStar: {
      const Node& child = *n.children[0];
      std::function<bool(int, std::size_t)> rep = [&](int count,
                                                      std::size_t p) {
        if (n.max_repeat < 0 || count < n.max_repeat) {
          bool extended = match_node(child, ctx, p, [&](std::size_t p2) {
            if (p2 == p) return false;
            return rep(count + 1, p2);
          });
          if (extended) return true;
        }
        return count >= n.min_repeat && k(p);
      };
      return rep(0, pos);
    }
  }
  return false;
}

std::optional<Match> find(const Node& root, std::string_view line,
                          std::size_t from) {
  Ctx ctx{line, {}};
  for (std::size_t start = from; start <= line.size(); ++start) {
    ctx.caps.fill({Match::kNpos, Match::kNpos});
    std::size_t end = 0;
    if (match_node(root, ctx, start, [&](std::size_t p) {
          end = p;
          return true;
        })) {
      Match m;
      m.begin = start;
      m.end = end;
      m.groups = ctx.caps;
      return m;
    }
  }
  return std::nullopt;
}

// sed s///'s loop over find, with "<&>" as the replacement.
std::string replace(const Node& root, std::string_view line, bool global) {
  std::string out;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    auto m = find(root, line, pos);
    if (!m) break;
    out.append(line.substr(pos, m->begin - pos));
    out += "<";
    out.append(line.substr(m->begin, m->end - m->begin));
    out += ">";
    if (m->end == m->begin) {
      if (m->end < line.size()) out.push_back(line[m->end]);
      pos = m->end + 1;
    } else {
      pos = m->end;
    }
    if (!global) break;
  }
  if (pos <= line.size()) out.append(line.substr(pos));
  return out;
}

}  // namespace oracle

// ---------------------------------------------------------- generator --

// Random BREs over a, b and '.', bracket expressions, ^ and $ at branch
// edges, * \+ \?, groups and \|; with `backrefs`, \1 after a first group.
class PatternGen {
 public:
  PatternGen(std::uint64_t seed, bool backrefs)
      : rng_(seed), backrefs_(backrefs) {}

  std::string next() {
    groups_ = 0;
    return pattern(0);
  }

 private:
  std::string pattern(int depth) {
    std::string p = branch(depth);
    if (pick(4) == 0) p += "\\|" + branch(depth);
    return p;
  }
  std::string branch(int depth) {
    std::string b;
    if (pick(5) == 0) b += '^';
    const int pieces = static_cast<int>(pick(depth == 0 ? 5 : 3));
    for (int i = 0; i < pieces; ++i) b += piece(depth);
    if (pick(5) == 0) b += '$';
    return b;
  }
  std::string piece(int depth) {
    std::string a = atom(depth);
    if (a == "\\1") return a;
    switch (pick(6)) {
      case 0: return a + "*";
      case 1: return a + "\\+";
      case 2: return a + "\\?";
      default: return a;
    }
  }
  std::string atom(int depth) {
    static const char* const kAtoms[] = {"a", "b", ".", "[ab]", "[^a]",
                                         "[a-b]", "a", "b"};
    if (depth < 2 && pick(5) == 0) {
      ++groups_;
      return "\\(" + pattern(depth + 1) + "\\)";
    }
    if (backrefs_ && groups_ > 0 && pick(6) == 0) return "\\1";
    return kAtoms[pick(std::size(kAtoms))];
  }
  std::size_t pick(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

  std::mt19937_64 rng_;
  bool backrefs_;
  int groups_ = 0;
};

// Lines over a, b, c and two bytes >= 0x80, empty ones among them.
std::vector<std::string> sample_lines(std::uint64_t seed, int count) {
  std::mt19937_64 rng(seed);
  const std::string bytes = "aabbc\x80\xff";
  std::vector<std::string> lines = {""};
  for (int i = 1; i < count; ++i) {
    std::string line;
    const auto len = std::uniform_int_distribution<int>(0, 7)(rng);
    for (int j = 0; j < len; ++j)
      line += bytes[std::uniform_int_distribution<std::size_t>(
          0, bytes.size() - 1)(rng)];
    lines.push_back(std::move(line));
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines, bool terminated) {
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out += lines[i];
    if (terminated || i + 1 < lines.size()) out += '\n';
  }
  return out;
}

cmd::CommandPtr command(const std::string& line) {
  std::string error;
  cmd::CommandPtr c = cmd::make_command_line(line, &error);
  EXPECT_NE(c, nullptr) << line << ": " << error;
  return c;
}

std::string quoted(const std::string& pattern) {
  return "'" + pattern + "'";
}

// --------------------------------------------------------- differential --

TEST(Differential, GrepAnswersAsGnuGrepDoes) {
  if (!procexec::program_exists("grep")) GTEST_SKIP() << "no grep on PATH";
  const std::vector<std::string> lines = sample_lines(7, 48);
  // The last line unterminated: grep re-terminates it when selected.
  const std::string input = join(lines, /*terminated=*/false);
  PatternGen gen(25, /*backrefs=*/false);
  int old_engine_disagreed = 0;
  for (int i = 0; i < 400; ++i) {
    const std::string p = gen.next();
    SCOPED_TRACE(p);
    for (const char* flags : {"", "-v ", "-c "}) {
      const std::string line = std::string("grep ") + flags + quoted(p);
      std::vector<std::string> argv = {"grep", p};
      if (flags[0]) argv.insert(argv.begin() + 1, std::string(flags, 2));
      procexec::ExternalCommand gnu(argv);
      cmd::CommandPtr ours = command(line);
      ASSERT_NE(ours, nullptr);
      EXPECT_EQ(ours->execute(input).out, gnu.execute(input).out) << line;
    }
    // Where the old engine answered otherwise (it refuses an empty first
    // repetition under \+), say so: CHANGES.md lists these.
    int groups = 0;
    auto root = detail::parse(p, &groups, nullptr);
    auto re = Regex::compile(p);
    ASSERT_TRUE(root && re);
    for (const std::string& l : lines) {
      if (oracle::find(*root, l, 0).has_value() != re->search(l)) {
        ++old_engine_disagreed;
        std::printf("old engine disagreed with GNU grep: '%s'\n", p.c_str());
        break;
      }
    }
  }
  std::printf("%d of 400 patterns answered differently by the old engine\n",
              old_engine_disagreed);
}

TEST(Differential, SedPositionsAreTheOldEnginesPositions) {
  const std::vector<std::string> lines = sample_lines(11, 40);
  for (bool backrefs : {false, true}) {
    PatternGen gen(backrefs ? 93 : 92, backrefs);
    for (int i = 0; i < 400; ++i) {
      const std::string p = gen.next();
      SCOPED_TRACE(p);
      int groups = 0;
      auto root = detail::parse(p, &groups, nullptr);
      auto re = Regex::compile(p);
      ASSERT_TRUE(root && re);
      for (const std::string& l : lines) {
        for (std::size_t from = 0; from <= l.size(); ++from) {
          auto want = oracle::find(*root, l, from);
          auto got = re->find(l, from);
          ASSERT_EQ(got.has_value(), want.has_value()) << l << " from " << from;
          if (!want) continue;
          EXPECT_EQ(got->begin, want->begin) << l;
          EXPECT_EQ(got->end, want->end) << l;
          EXPECT_EQ(got->groups, want->groups) << l;
        }
        for (bool global : {false, true})
          EXPECT_EQ(re->replace(l, "<&>", global),
                    oracle::replace(*root, l, global))
              << l;
      }
    }
  }
}

// --------------------------------------------------------- block edges --

// Feeds `blocks` through a fresh processor of `line`'s command, as a
// stream chain or a window stage would.
std::string per_block(const std::string& line,
                      const std::vector<std::string>& blocks) {
  cmd::CommandPtr c = command(line);
  std::string out;
  if (auto w = c->window_processor()) {
    for (const std::string& b : blocks) w->push(b, &out);
    w->finish([&](std::string_view piece) {
      out.append(piece);
      return true;
    });
    return out;
  }
  auto p = c->stream_processor();
  for (const std::string& b : blocks) p->process(b, &out);
  p->finish(&out);
  return out;
}

TEST(BlockSearch, EveryRecordAlignedSplitMatchesGnu) {
  if (!procexec::program_exists("grep")) GTEST_SKIP() << "no grep on PATH";
  // Hits at the first and last byte of the input and of blocks, a line
  // that only folds to a hit, empty lines, and an unterminated last line.
  const std::string input =
      "apple pie\nbanana\n\nAPPLE\npineapple\nno\napple";
  const std::vector<std::string> lines = {
      "grep apple",   "grep -v apple", "grep -c apple", "grep -vc apple",
      "grep -i apple", "grep -vi apple", "grep -ci apple",
      "grep 'p*le$'", "grep -c '^$'", "grep -v '^b.*a$'",
  };
  std::vector<std::size_t> ends;  // record boundaries
  for (std::size_t i = 0; i < input.size(); ++i)
    if (input[i] == '\n') ends.push_back(i + 1);
  for (const std::string& line : lines) {
    SCOPED_TRACE(line);
    auto argv = *compile::parse_pipeline(line);
    procexec::ExternalCommand gnu(argv.stages[0].argv);
    const std::string want = gnu.execute(input).out;
    EXPECT_EQ(command(line)->execute(input).out, want);
    // Two blocks at every record boundary, then one block per line.
    for (std::size_t cut : ends)
      EXPECT_EQ(per_block(line, {input.substr(0, cut), input.substr(cut)}),
                want)
          << "cut at " << cut;
    std::vector<std::string> each;
    std::size_t from = 0;
    for (std::size_t cut : ends) {
      each.push_back(input.substr(from, cut - from));
      from = cut;
    }
    each.push_back(input.substr(from));
    EXPECT_EQ(per_block(line, each), want);
  }
}

TEST(BlockSearch, ALiteralIsFoundAtEveryOffsetOfTheBlock) {
  // grep compares the literal's first and last bytes at 16 offsets at a
  // time and leaves the block's tail to memmem. The filler's "apxle" shares
  // both bytes with "apple", so every window holds near misses.
  cmd::CommandPtr grep = command("grep apple");
  cmd::CommandPtr count = command("grep -c apple");
  std::string filler;
  while (filler.size() < 80) filler += "apxle";
  const std::string miss = filler.substr(0, 37) + "\n";
  for (std::size_t at = 0; at + 5 <= filler.size(); ++at) {
    SCOPED_TRACE(at);
    std::string line = filler;
    line.replace(at, 5, "apple");
    EXPECT_EQ(grep->execute(miss + line + "\n" + miss).out, line + "\n");
    EXPECT_EQ(grep->execute(line).out, line + "\n");
    EXPECT_EQ(count->execute(miss + line + "\n" + line + "\n").out, "2\n");
  }
  EXPECT_EQ(grep->execute(filler + "\n" + miss).out, "");
}

TEST(BlockSearch, ALiteralHoldingANewlineMatchesNoLine) {
  EXPECT_EQ(command("grep 'a\\nb'")->execute("a\nb\nab\n").out, "");
  EXPECT_EQ(command("grep -v 'a\\nb'")->execute("a\nb").out, "a\nb\n");
  EXPECT_EQ(command("grep -c 'a\\nb'")->execute("a\nb\n").out, "0\n");
}

// --------------------------------------------------------- linear time --

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr int kSlowdown = 20;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr int kSlowdown = 20;
#else
constexpr int kSlowdown = 1;
#endif
#else
constexpr int kSlowdown = 1;
#endif

double seconds_of(const std::function<void()>& f) {
  const auto start = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(LinearTime, EightStarsOverAMebibyteLineOfAs) {
  // No literal to reject the line: only the automaton's one pass does.
  const std::string line(1 << 20, 'a');
  const std::string input = line + "\n";
  const std::string p = "a*a*a*a*a*a*a*a*[bc]";
  for (const std::string& stage :
       {"grep " + quoted(p), "grep -c " + quoted(p),
        "sed " + quoted("s/" + p + "/X/")}) {
    cmd::CommandPtr c = command(stage);
    cmd::Result r;
    const double s = seconds_of([&] { r = c->execute(input); });
    EXPECT_FALSE(r.failed()) << stage << ": " << r.err;
    EXPECT_LT(s, 0.05 * kSlowdown) << stage;
  }
  // With a match at the end, sed backtracks once from offset 0.
  cmd::Result r;
  cmd::CommandPtr sed = command("sed " + quoted("s/" + p + "/X/"));
  const double s = seconds_of([&] { r = sed->execute(line + "b\n"); });
  EXPECT_EQ(r.out, "X\n");
  EXPECT_LT(s, 0.05 * kSlowdown);
}

TEST(LinearTime, TheTwentyEightByteRepro) {
  // 10.8 s under the old engine.
  cmd::CommandPtr c = command("grep 'a*a*a*a*a*a*a*a*b'");
  cmd::Result r;
  const std::string input = std::string(28, 'a') + "\n";
  const double s = seconds_of([&] { r = c->execute(input); });
  EXPECT_EQ(r.status, 1);
  EXPECT_LT(s, 0.05 * kSlowdown);
}

// -------------------------------------------------------------- budget --

// \(a*\)* refuses empty repetitions, so before \1 fails it tries every way
// to cut the run of a's into non-empty pieces: 2^39 of them.
const char* const kExplosive = "grep '\\(a*\\)*\\1b'";
std::string explosive_input() { return std::string(40, 'a') + "c b\n"; }

synth::SynthesisCache& shared_cache() {
  static synth::SynthesisCache cache;
  return cache;
}

std::vector<exec::ExecStage> stages_of(const std::string& pipeline) {
  auto parsed = compile::parse_pipeline(pipeline);
  EXPECT_TRUE(parsed.has_value());
  compile::Plan plan = compile::compile_pipeline(*parsed, shared_cache(), {});
  compile::eliminate_intermediate_combiners(plan);
  return compile::lower_plan(plan);
}

std::string budget_input() { return "x\n" + explosive_input() + "y\n"; }

TEST(Budget, APatternPastTheBudgetFailsTheStageWithACodedMessage) {
  cmd::Result r = command(kExplosive)->execute(explosive_input());
  EXPECT_EQ(r.status, 2);
  EXPECT_TRUE(r.failed());
  EXPECT_NE(r.err.find("[KQ-REGEX]"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("grep"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("pattern '\\(a*\\)*\\1b'"), std::string::npos) << r.err;
  EXPECT_THROW(command(kExplosive)->run(explosive_input()), std::runtime_error);
  // Synthesis drops the observation instead of learning from a partial one.
  shape::InputPair pair{explosive_input(), "b\n"};
  EXPECT_FALSE(synth::observe(*command(kExplosive), pair).has_value());
}

TEST(Budget, ABackreferenceOverALongLineGetsItsAnswer) {
  // No automaton answers \1, so the backtracker is tried at each of the
  // 9 Mi offsets; the budget grows with the line, so the failed attempts
  // (two steps each) do not add up past it.
  std::string line(9 << 20, 'x');
  line.replace(line.size() / 2, 2, "ab");
  cmd::Result r = command("grep '\\(ab\\)\\1'")->execute(line + "\n");
  EXPECT_FALSE(r.failed()) << r.err;
  EXPECT_EQ(r.status, 1);
  EXPECT_EQ(r.out, "");
  line.replace(line.size() - 4, 4, "abab");
  r = command("sed 's/\\(ab\\)\\1/X/'")->execute(line + "\n");
  EXPECT_FALSE(r.failed()) << r.err;
  EXPECT_EQ(r.out, line.substr(0, line.size() - 4) + "X\n");
}

TEST(Budget, ABackreferenceIsChargedTheBytesItCompares) {
  // At offset 0 alone \1 compares about 2^37 bytes of a's before b fails;
  // charged per byte compared, the line passes its budget in milliseconds.
  const std::string input = std::string(1 << 20, 'a') + "cb\n";
  cmd::Result r;
  const double s = seconds_of(
      [&] { r = command("grep '\\(a*\\)\\1b'")->execute(input); });
  EXPECT_TRUE(r.failed());
  EXPECT_NE(r.err.find("[KQ-REGEX]"), std::string::npos) << r.err;
  EXPECT_LT(s, 1.0 * kSlowdown);
}

TEST(Budget, RunAndSerialFailInsteadOfAnsweringNoMatch) {
  for (const std::string& pipeline :
       {std::string(kExplosive), std::string(kExplosive) + " | wc -l",
        std::string("sed 's/\\(a*\\)*\\1b/X/'")}) {
    SCOPED_TRACE(pipeline);
    const std::vector<exec::ExecStage> stages = stages_of(pipeline);
    ExecOptions options;
    options.parallelism = 2;
    options.block_size = 4 << 10;
    ExecResult r = Executor(options).run_collect(stages, budget_input());
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("[KQ-REGEX]"), std::string::npos) << r.error;
    try {
      exec::run_serial(stages, budget_input());
      ADD_FAILURE() << "the serial run answered";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("[KQ-REGEX]"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace kq::regex
