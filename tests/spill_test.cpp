// Tests for the spill-to-disk subsystem (stream/spill.*): temp-file
// plumbing, external merge sort and sorted-part merging against their
// in-memory references, the dataflow runtime's spill-backed nodes and its
// whole-input nodes (which never spill), and cross-validation of
// forced-spill streaming against the serial oracle on every catalog
// pipeline.

#include <gtest/gtest.h>
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "bench_support/catalog.h"
#include "compile/optimize.h"
#include "compile/plan.h"
#include "dsl/ast.h"
#include "exec/executor.h"
#include "exec/runner.h"
#include "exec/thread_pool.h"
#include "stream/channel.h"
#include "stream/dataflow.h"
#include "stream/spill.h"
#include "unixcmd/registry.h"
#include "unixcmd/sort_cmd.h"

namespace kq::stream {
namespace {

std::shared_ptr<const cmd::SortSpec> spec_of(
    const std::vector<std::string>& flags) {
  auto spec = cmd::SortSpec::parse(flags);
  EXPECT_TRUE(spec.has_value());
  return std::make_shared<const cmd::SortSpec>(*spec);
}

// Drives a SpillMerger over `pieces` and returns the concatenated pushes.
std::string merged_output(SpillMerger& merger,
                          std::vector<std::string> pieces,
                          std::size_t block_size = 64) {
  for (std::string& p : pieces) EXPECT_TRUE(merger.add(std::move(p)));
  std::string out;
  EXPECT_TRUE(merger.finish(
      [&out](std::string&& block) {
        out += block;
        return true;
      },
      block_size));
  return out;
}

std::vector<std::string> shuffled_lines(int n, std::uint64_t seed) {
  std::vector<std::string> lines;
  for (int i = 0; i < n; ++i)
    lines.push_back("line-" + std::to_string(i % (n / 4 + 1)) + "-" +
                    std::to_string(i) + "\n");
  std::mt19937_64 rng(seed);
  std::shuffle(lines.begin(), lines.end(), rng);
  return lines;
}

// -------------------------------------------------------------- SpillFile --

TEST(SpillFile, AppendAndPositionedReadRoundtrip) {
  SpillFile file;
  ASSERT_TRUE(file.valid()) << file.error();
  ASSERT_TRUE(file.append("hello "));
  ASSERT_TRUE(file.append("world"));
  EXPECT_EQ(file.size(), 11u);

  std::string buf(5, '\0');
  std::string error;
  ASSERT_TRUE(file.read_exact(6, buf.data(), 5, &error)) << error;
  EXPECT_EQ(buf, "world");
  ASSERT_TRUE(file.read_exact(0, buf.data(), 5, &error)) << error;
  EXPECT_EQ(buf, "hello");
}

TEST(SpillFile, ReadPastEndFails) {
  SpillFile file;
  ASSERT_TRUE(file.append("abc"));
  std::string buf(8, '\0');
  std::string error;
  EXPECT_FALSE(file.read_exact(0, buf.data(), 8, &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------- SpillMerger: external sort --

TEST(SpillMerger, ExternalSortMatchesSortStream) {
  auto spec = spec_of({});
  auto lines = shuffled_lines(500, 7);
  std::string whole;
  for (const std::string& l : lines) whole += l;

  SpillMerger merger(spec, SpillMerger::Input::kUnsortedBlocks, 256);
  std::string out = merged_output(merger, lines);
  EXPECT_GT(merger.runs_spilled(), 1);
  EXPECT_EQ(out, spec->sort_stream(whole));
}

TEST(SpillMerger, ExternalSortNumericReverseUnique) {
  const std::vector<std::vector<std::string>> cases = {
      {"-n"}, {"-r"}, {"-u"}, {"-nu"}, {"-nr"}};
  for (const std::vector<std::string>& flags : cases) {
    auto spec = spec_of(flags);
    std::vector<std::string> pieces;
    std::mt19937_64 rng(13);
    std::string whole;
    for (int i = 0; i < 400; ++i) {
      std::string line = std::to_string(rng() % 50) + " payload-" +
                         std::to_string(i % 3) + "\n";
      whole += line;
      pieces.push_back(std::move(line));
    }
    SpillMerger merger(spec, SpillMerger::Input::kUnsortedBlocks, 128);
    std::string out = merged_output(merger, pieces);
    EXPECT_GT(merger.runs_spilled(), 1);
    EXPECT_EQ(out, spec->sort_stream(whole)) << "flags " << flags.front();
  }
}

TEST(SpillMerger, ExternalSortStableTiesKeepInputOrder) {
  // -ns: all keys compare equal (non-numeric prefixes are 0) and -s
  // disables the last-resort bytewise tiebreak, so output preserves input
  // order across spilled run boundaries.
  auto spec = spec_of({"-n", "-s"});
  std::vector<std::string> pieces;
  std::string whole;
  for (int i = 0; i < 200; ++i) {
    std::string line = "tie-payload-" + std::to_string(i) + "\n";
    whole += line;
    pieces.push_back(std::move(line));
  }
  SpillMerger merger(spec, SpillMerger::Input::kUnsortedBlocks, 128);
  std::string out = merged_output(merger, pieces);
  EXPECT_GT(merger.runs_spilled(), 1);
  EXPECT_EQ(out, whole);  // stable: byte-identical to the input order
  EXPECT_EQ(out, spec->sort_stream(whole));
}

TEST(SpillMerger, ZeroThresholdSingleResidentRun) {
  auto spec = spec_of({});
  auto lines = shuffled_lines(100, 3);
  std::string whole;
  for (const std::string& l : lines) whole += l;
  SpillMerger merger(spec, SpillMerger::Input::kUnsortedBlocks, 0);
  std::string out = merged_output(merger, lines);
  EXPECT_EQ(merger.runs_spilled(), 0);
  EXPECT_EQ(merger.spilled_bytes(), 0u);
  EXPECT_EQ(out, spec->sort_stream(whole));
}

TEST(SpillMerger, EmptyInputProducesEmptyOutput) {
  auto spec = spec_of({});
  SpillMerger merger(spec, SpillMerger::Input::kUnsortedBlocks, 64);
  std::string out = merged_output(merger, {});
  EXPECT_EQ(out, "");
}

TEST(SpillMerger, UnterminatedFinalRecordSortsLikeSortStream) {
  auto spec = spec_of({});
  SpillMerger merger(spec, SpillMerger::Input::kUnsortedBlocks, 0);
  std::string out = merged_output(merger, {"b\nc\na"});
  EXPECT_EQ(out, spec->sort_stream("b\nc\na"));
  EXPECT_EQ(out, "a\nb\nc\n");
}

TEST(SpillMerger, ExternalSortWritesRunsFromTheIndexAtEveryThreshold) {
  // A spilled batch is written from its sorted line index in 64 KiB
  // pieces, with -u dedup across them, and its disk run is indexed every
  // 64 KiB. Pieces of up to 160 KiB put both boundaries inside batches at
  // thresholds of 1 B, 64 B and 4 KiB; the merge reads those runs back
  // through the index, by key range when there is a pool.
  std::mt19937_64 rng(41);
  std::vector<std::string> pieces;
  std::string whole;
  while (whole.size() < (1u << 20)) {
    std::string piece;
    const std::size_t target = 1 + rng() % (160 * 1024);
    while (piece.size() < target) {
      std::string line = rng() % 3 == 0 ? std::string(30, 'k') : std::string();
      line += std::to_string(rng() % 5000);
      line += rng() % 2 ? " tail\n" : "\n";
      piece += line;
    }
    whole += piece;
    pieces.push_back(std::move(piece));
  }
  exec::ThreadPool pool(4);
  for (const std::vector<std::string>& flags :
       {std::vector<std::string>{}, std::vector<std::string>{"-u"},
        std::vector<std::string>{"-rn"}, std::vector<std::string>{"-n", "-u"}}) {
    auto spec = spec_of(flags);
    const std::string expect = spec->sort_stream(whole);
    for (std::size_t threshold : {std::size_t{1}, std::size_t{64},
                                  std::size_t{4096}}) {
      for (bool with_pool : {false, true}) {
        SpillMerger merger(spec, SpillMerger::Input::kUnsortedBlocks,
                           threshold);
        if (with_pool) merger.set_pool(&pool, 4);
        const std::string out = merged_output(merger, pieces, 4096);
        std::string what = "threshold ";  // append form: GCC PR 105329
        what += std::to_string(threshold);
        what += with_pool ? " pool" : " no pool";
        if (!flags.empty()) {
          what += " flags ";
          what += flags.front();
        }
        EXPECT_GT(merger.runs_spilled(), 1) << what;
        EXPECT_TRUE(out == expect) << what;  // not EXPECT_EQ: 1 MiB diffs
      }
    }
  }
}

TEST(SpillMerger, ExternalSortBatchStaysWithinThresholdPlusTwoPieces) {
  // The batch string reserves threshold + 2 pieces before its doubling
  // would overshoot: grown by doubling, a batch of 64 KiB pieces under a
  // 1.5 MiB threshold would reach 2 MiB of room, and a 65 MiB batch under
  // the default 64 MiB threshold 128 MiB.
  std::mt19937_64 rng(17);
  auto piece_of = [&rng](std::size_t target) {
    std::string piece;
    while (piece.size() < target) {
      piece += std::to_string(rng() % 100000);
      piece += '\n';
    }
    return piece;
  };
  auto spec = spec_of({});
  for (std::size_t threshold :
       {std::size_t{100} << 10, std::size_t{1536} << 10,
        std::size_t{3} << 20}) {
    for (bool fixed : {true, false}) {
      SpillMerger merger(spec, SpillMerger::Input::kUnsortedBlocks,
                         threshold);
      std::string whole;
      std::size_t largest = 0;
      while (whole.size() < 3 * threshold) {
        std::string piece =
            piece_of(fixed ? std::size_t{64} << 10 : 1 + rng() % (96 << 10));
        largest = std::max(largest, piece.size());
        whole += piece;
        ASSERT_TRUE(merger.add(std::move(piece)));
        ASSERT_LE(merger.batch_capacity(), threshold + 2 * largest)
            << "threshold " << threshold << (fixed ? " fixed" : " random")
            << " pieces, after " << whole.size() << " bytes";
      }
      EXPECT_GE(merger.runs_spilled(), 2);
      std::string out;
      ASSERT_TRUE(merger.finish(
          [&out](std::string&& block) {
            out += block;
            return true;
          },
          64 << 10));
      EXPECT_TRUE(out == spec->sort_stream(whole));  // not EXPECT_EQ: MiBs
    }
  }
}

// --------------------------------------------- SpillMerger: sorted parts --

TEST(SpillMerger, SortedPartsMatchMergeStreams) {
  auto spec = spec_of({});
  std::vector<std::string> parts;
  std::mt19937_64 rng(21);
  for (int p = 0; p < 40; ++p) {
    std::vector<std::string> chunk;
    for (int i = 0; i < 20; ++i) {
      // Append form: GCC PR 105329 (-Wrestrict).
      std::string word = "w";
      word += std::to_string(rng() % 1000);
      chunk.push_back(std::move(word));
    }
    std::string part;
    for (std::string& c : chunk) part += c + "\n";
    parts.push_back(spec->sort_stream(part));  // each part pre-sorted
  }
  std::vector<std::string_view> views(parts.begin(), parts.end());
  std::string expect = spec->merge_streams(views);

  SpillMerger merger(spec, SpillMerger::Input::kSortedParts, 512);
  std::string out = merged_output(merger, parts);
  EXPECT_GT(merger.runs_spilled(), 1);
  EXPECT_EQ(out, expect);
}

TEST(SpillMerger, SortedPartsUniqueDedupesAcrossRuns) {
  auto spec = spec_of({"-u"});
  // Every part carries the same keys: -u must keep exactly one copy even
  // though the duplicates live in different spilled runs.
  std::vector<std::string> parts(20, "a\nb\nc\n");
  std::vector<std::string_view> views(parts.begin(), parts.end());
  std::string expect = spec->merge_streams(views);

  SpillMerger merger(spec, SpillMerger::Input::kSortedParts, 16);
  std::string out = merged_output(merger, parts);
  EXPECT_GT(merger.runs_spilled(), 1);
  EXPECT_EQ(out, expect);
  EXPECT_EQ(out, "a\nb\nc\n");
}

TEST(SpillMerger, SortedPartsEmptyPartsAreSkipped) {
  auto spec = spec_of({});
  SpillMerger merger(spec, SpillMerger::Input::kSortedParts, 16);
  std::string out = merged_output(merger, {"", "b\n", "", "a\n", ""});
  EXPECT_EQ(out, "a\nb\n");
}

// ------------------------------------------ SpillMerger: key-range merge --

// Lines "<n> <word> <tag>" in which one key, 250, is `hot_pct` percent of
// the lines and the rest spread over 500 keys. The word's case and the tag
// repeat, so -u has duplicates to drop, -f has case-only ties and -s -k1,1
// has compare-equal lines whose input order the merge must keep.
std::vector<std::string> equal_key_lines(int n, int hot_pct,
                                         std::uint64_t seed) {
  static const char* kWords[] = {"apple", "Apple", "APPLE", "pear"};
  std::mt19937_64 rng(seed);
  std::vector<std::string> lines;
  for (int i = 0; i < n; ++i) {
    std::string line = static_cast<int>(rng() % 100) < hot_pct
                           ? std::string("250")
                           : std::to_string(rng() % 500);
    line += ' ';
    line += kWords[rng() % 4];
    line += ' ';
    line += std::to_string(rng() % 40);
    line += '\n';
    lines.push_back(std::move(line));
  }
  return lines;
}

// Cuts `lines` into `parts` input-ordered chunks, each sorted by `spec`:
// the pre-sorted chunk outputs a merge-combined stage's workers hand on.
std::vector<std::string> sorted_parts(const std::vector<std::string>& lines,
                                      const cmd::SortSpec& spec, int parts) {
  std::vector<std::string> out;
  const std::size_t per = (lines.size() + parts - 1) / parts;
  for (std::size_t at = 0; at < lines.size(); at += per) {
    std::string chunk;
    for (std::size_t i = at; i < std::min(lines.size(), at + per); ++i)
      chunk += lines[i];
    out.push_back(spec.sort_stream(chunk));
  }
  return out;
}

TEST(SpillMerger, EqualKeysAcrossRangesMatchMergeStreams) {
  // The range merge must never let compare-equal lines straddle two
  // ranges and must break ties on run index: with one key at >= 50% of the
  // lines (parts resident) and at ~90% (parts spilled to indexed disk
  // runs), every flag set matches SortSpec::merge_streams byte for byte at
  // k = 2, 4 and 8, and the spilled merge stays within its resident bound
  // although the hot key's range is far larger than a range's budget.
  const std::vector<std::vector<std::string>> flag_sets = {
      {}, {"-n"}, {"-rn"}, {"-u"}, {"-s", "-k1,1"}, {"-f"}};
  struct Case {
    int hot_pct;
    int lines;
    int parts;
    std::size_t threshold;  // 0: parts stay resident
  };
  const Case cases[] = {{55, 40000, 24, 0}, {90, 120000, 48, 64 * 1024}};
  for (const Case& c : cases) {
    const auto lines = equal_key_lines(c.lines, c.hot_pct, 97);
    for (const auto& flags : flag_sets) {
      auto spec = spec_of(flags);
      const auto parts = sorted_parts(lines, *spec, c.parts);
      const std::vector<std::string_view> views(parts.begin(), parts.end());
      const std::string expect = spec->merge_streams(views);
      for (int k : {2, 4, 8}) {
        exec::ThreadPool pool(k);
        MemoryGauge gauge;
        SpillMerger merger(spec, SpillMerger::Input::kSortedParts,
                           c.threshold, &gauge);
        merger.set_pool(&pool, k);
        const std::string out = merged_output(merger, parts, 4096);
        std::string what = "hot ";  // append form: GCC PR 105329
        what += std::to_string(c.hot_pct);
        what += "% k=";
        what += std::to_string(k);
        what += " flags ";
        if (!flags.empty()) what += flags.front();
        // Not EXPECT_EQ: a diff of two multi-MiB strings is itself huge.
        const auto diff =
            std::mismatch(out.begin(), out.end(), expect.begin(), expect.end());
        EXPECT_TRUE(out == expect)
            << what << ": first difference at byte "
            << (diff.first - out.begin()) << " of " << expect.size();
        if (c.threshold == 0) continue;
        EXPECT_GT(merger.runs_spilled(), 0) << what;
        EXPECT_LE(gauge.peak(), merger.resident_bound() + parts.front().size())
            << what;
      }
    }
  }
}

// ----------------------------------------------------- dataflow with spill --

TEST(SpillDataflow, SequentialSortNodeExternalSorts) {
  std::vector<exec::ExecStage> stages;
  exec::ExecStage s;
  s.command = cmd::make_command_line("sort");
  ASSERT_NE(s.command, nullptr);
  s.parallel = false;  // force the sequential node
  s.sort_spec = cmd::sort_spec_of(*s.command);
  ASSERT_NE(s.sort_spec, nullptr);
  stages.push_back(std::move(s));

  std::string input;
  auto lines = shuffled_lines(2000, 11);
  for (const std::string& l : lines) input += l;

  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 256;
  options.spill_threshold = 2048;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_GT(r.nodes[0].spill_runs, 1);
  EXPECT_GT(r.spilled_bytes, 0u);
}

TEST(SpillDataflow, ParallelMergeCombinerSpillsChunkOutputs) {
  std::vector<exec::ExecStage> stages;
  exec::ExecStage s;
  s.command = cmd::make_command_line("sort");
  s.parallel = true;
  s.primary = dsl::combiner_merge("");
  stages.push_back(std::move(s));

  std::string input;
  auto lines = shuffled_lines(3000, 17);
  for (const std::string& l : lines) input += l;

  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 512;
  options.spill_threshold = 4096;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_GT(r.nodes[0].spilled_bytes, 0u);
}

// Peak RSS (VmHWM) in bytes; 0 if /proc is not there.
std::size_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return static_cast<std::size_t>(std::stoul(line.substr(6))) * 1024;
  return 0;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// An unlinked temp file holding `input`, rewound: the CLI reads its input
// from a file descriptor, and a string source would hold the input in the
// measured process besides.
int input_fd(const std::string& input) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr && *dir != '\0' ? dir : "/tmp";
  path += "/kumquat-spill-test-XXXXXX";
  const int fd = ::mkstemp(path.data());
  if (fd < 0) return -1;
  ::unlink(path.c_str());
  if (::write(fd, input.data(), input.size()) !=
          static_cast<ssize_t>(input.size()) ||
      ::lseek(fd, 0, SEEK_SET) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// What a run in a forked child reports: whether it succeeded, its output
// bytes, and how far its peak RSS rose.
struct ChildRun {
  bool measured = false;  // the child ran and reported
  bool ok = false;
  std::size_t out_bytes = 0;
  std::size_t rss_growth = 0;
};

// Runs `stages` over `fd` (closed here) in a forked child, measured the way
// bench/stream_throughput does it: the child's VmHWM starts at its RSS at
// fork, and the child pins glibc's mmap threshold as the CLI does.
ChildRun run_in_child(const std::vector<exec::ExecStage>& stages, int fd,
                      const ExecOptions& options) {
  ChildRun result;
  int fds[2];
  if (::pipe(fds) != 0) {
    ::close(fd);
    return result;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    ::close(fd);
    return result;
  }
  if (pid == 0) {
    ::close(fds[0]);
#ifdef __GLIBC__
    mallopt(M_MMAP_THRESHOLD, 128 << 10);
#endif
    const std::size_t baseline = peak_rss_bytes();
    std::size_t out = 0;
    const ExecResult r = Executor(options).run(
        stages, Source::from_fd(fd), [&out](std::string_view bytes) {
          out += bytes.size();
          return true;
        });
    std::size_t report[3] = {r.ok ? 1u : 0u, out,
                             peak_rss_bytes() - baseline};
    const bool sent = ::write(fds[1], report, sizeof(report)) ==
                      static_cast<ssize_t>(sizeof(report));
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  ::close(fd);
  std::size_t report[3] = {0, 0, 0};
  const bool got = ::read(fds[0], report, sizeof(report)) ==
                   static_cast<ssize_t>(sizeof(report));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  result.measured = got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  result.ok = report[0] == 1;
  result.out_bytes = report[1];
  result.rss_growth = report[2];
  return result;
}

TEST(SpillDataflow, ParallelSortChunksHoldEightBytesPerLine) {
  // `sort` at k=4 over 8 MiB of 6-byte lines at 1 MiB blocks: each of the
  // four chunk sorts holds its chunk, 8-byte line records (1.4 MB),
  // stable_sort's half-size buffer and its output. The run grows RSS by
  // about 21 MiB; with a 16-byte view per line, grown by push_back to
  // 4 MiB per chunk, it grew by 30-33 MiB.
  if (kSanitized) GTEST_SKIP() << "sanitizers' shadow memory swamps RSS";
  synth::SynthesisCache cache;
  auto parsed = compile::parse_pipeline("sort");
  ASSERT_TRUE(parsed.has_value());
  const auto stages =
      compile::lower_plan(compile::compile_pipeline(*parsed, cache));
  ASSERT_EQ(stages.size(), 1u);
  ASSERT_NE(stages[0].sort_spec, nullptr);

  std::mt19937_64 rng(5);
  std::string input;
  input.reserve(8 << 20);
  while (input.size() < (8u << 20)) {
    for (int i = 0; i < 5; ++i)
      input += static_cast<char>('a' + rng() % 26);
    input += '\n';
  }
  const int fd = input_fd(input);
  ASSERT_GE(fd, 0);
  const std::size_t in_bytes = input.size();
  input = std::string();

  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 1 << 20;
  options.spill_threshold = 1 << 20;
  const ChildRun run = run_in_child(stages, fd, options);
  ASSERT_TRUE(run.measured);
  EXPECT_TRUE(run.ok && run.out_bytes == in_bytes)
      << "the run failed or lost bytes";
  EXPECT_LT(run.rss_growth, std::size_t{25} << 20)
      << "RSS grew " << (run.rss_growth >> 10) << " KiB";
}

TEST(SpillDataflow, WholeInputNodeJoinsItsInputOnce) {
  // An opaque stage (no streamability, no combiner) at k=1 runs once over
  // its whole input: 32 MiB, under a spill threshold of 1 MiB that decides
  // nothing for it. The node copies the blocks it drains into 1 MiB held
  // buffers and joins those into one string reserved to their total,
  // freeing each buffer once copied, so the run grows RSS by about the
  // input; a join beside every held buffer would take twice that. At
  // 64 KiB blocks, holding each block as it came takes twice that too: the
  // freed blocks stay resident in the allocator. The output is small (a
  // byte per 4 KiB of input), so it adds nothing.
  if (kSanitized) GTEST_SKIP() << "sanitizers' shadow memory swamps RSS";
  std::vector<exec::ExecStage> stages;
  exec::ExecStage s;
  s.command = cmd::make_lambda_command("opaque", [](std::string_view in) {
    return std::string(in.size() / 4096, 'x');
  });
  stages.push_back(std::move(s));

  std::mt19937_64 rng(11);
  std::string input;
  input.reserve(32 << 20);
  while (input.size() < (32u << 20)) {
    for (int i = 0; i < 31; ++i)
      input += static_cast<char>('a' + rng() % 26);
    input += '\n';
  }
  const std::size_t block_sizes[] = {std::size_t{1} << 20, 64 << 10};
  int fds[2];
  for (int& fd : fds) {
    fd = input_fd(input);
    ASSERT_GE(fd, 0);
  }
  const std::size_t in_bytes = input.size();
  input = std::string();

  for (int i = 0; i < 2; ++i) {
    ExecOptions options;
    options.parallelism = 1;
    options.block_size = block_sizes[i];
    options.spill_threshold = 1 << 20;
    ASSERT_EQ(place(stages, options).front().kind, NodeKind::kWholeInput);
    const ChildRun run = run_in_child(stages, fds[i], options);
    ASSERT_TRUE(run.measured);
    EXPECT_TRUE(run.ok && run.out_bytes == in_bytes / 4096)
        << "the run failed or lost bytes at " << (block_sizes[i] >> 10)
        << " KiB blocks";
    EXPECT_LT(run.rss_growth, in_bytes + in_bytes / 2)
        << "RSS grew " << (run.rss_growth >> 10) << " KiB over "
        << (in_bytes >> 10) << " KiB of input at " << (block_sizes[i] >> 10)
        << " KiB blocks";
  }
}

TEST(SpillDataflow, ParallelRerunCombinerJoinsHeldParts) {
  // A rerun-combined parallel stage: the collector holds the chunk outputs,
  // joins them once and reruns the command over the join — byte-identical
  // to the k-way rerun, and spilling nothing whatever the threshold.
  std::vector<exec::ExecStage> stages;
  exec::ExecStage s;
  s.command = cmd::make_command_line("uniq");
  ASSERT_NE(s.command, nullptr);
  s.parallel = true;
  s.primary = dsl::combiner_rerun();
  stages.push_back(std::move(s));

  std::string input;
  for (int i = 0; i < 2000; ++i)
    input += "run-" + std::to_string(i / 7) + "\n";  // adjacent duplicates

  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 256;
  options.spill_threshold = 2048;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_EQ(r.nodes[0].spilled_bytes, 0u);
}

TEST(SpillDataflow, MaterializeNodeRunsOnceOverItsWholeInput) {
  // An unknown-to-synthesis sequential stage must produce exact output
  // from the blocks it holds, joined once, with an input far past the
  // spill threshold. uniq itself window-streams (kWindowStream), so wrap
  // it as an opaque lambda — same semantics, no streamability
  // declaration — to keep a true materialize witness.
  std::vector<exec::ExecStage> stages;
  exec::ExecStage s;
  cmd::CommandPtr uniq = cmd::make_command_line("uniq -c");
  ASSERT_NE(uniq, nullptr);
  s.command = cmd::make_lambda_command(
      uniq->display_name(),
      [uniq](std::string_view in) { return uniq->run(in); });
  s.parallel = false;
  stages.push_back(std::move(s));

  std::string input;
  for (int i = 0; i < 500; ++i)
    input += "dup-" + std::to_string(i / 5) + "\n";

  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 128;
  options.spill_threshold = 1024;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_EQ(r.nodes[0].spilled_bytes, 0u);
}

TEST(SpillDataflow, OversizedRecordFailsWithDiagnostic) {
  std::vector<exec::ExecStage> stages;
  exec::ExecStage s;
  s.command = cmd::make_command_line("wc -c");
  s.parallel = false;
  stages.push_back(std::move(s));

  // One delimiter-free record far larger than the spill threshold.
  std::string input(64 * 1024, 'x');
  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 1024;
  options.spill_threshold = 8 * 1024;
  ExecResult r = Executor(options).run_collect(stages, input);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("spill threshold"), std::string::npos) << r.error;
}

TEST(SpillDataflow, LowerPlanAssignsMemoryClasses) {
  synth::SynthesisCache cache;
  auto parsed = compile::parse_pipeline("sort | wc -l | frobnicate");
  ASSERT_TRUE(parsed.has_value());
  compile::Plan plan = compile::compile_pipeline(*parsed, cache);
  auto stages = compile::lower_plan(plan);
  ASSERT_EQ(stages.size(), 3u);
  // sort: parallel, merge-combined -> sortable spill, and its own order.
  EXPECT_EQ(stages[0].memory_class, exec::MemoryClass::kSortableSpill);
  EXPECT_NE(stages[0].sort_spec, nullptr);
  ASSERT_TRUE(stages[0].primary.has_value());
  EXPECT_EQ(stages[0].primary->node->op, dsl::Op::kMerge);
  EXPECT_NE(stages[0].primary->merge_spec, nullptr);
  // wc -l: parallel fold (add) -> bounded by construction.
  EXPECT_EQ(stages[1].memory_class, exec::MemoryClass::kStreaming);
  EXPECT_EQ(stages[1].sort_spec, nullptr);
  ASSERT_TRUE(stages[1].primary.has_value());
  EXPECT_EQ(stages[1].primary->node->op, dsl::Op::kBack);  // (back '\n' add)
  // unknown command -> sequential materialize, no combiner.
  EXPECT_EQ(stages[2].memory_class, exec::MemoryClass::kMaterialize);
  EXPECT_EQ(stages[2].sort_spec, nullptr);
  EXPECT_FALSE(stages[2].primary.has_value());
}

// ------------------------------------------------ catalog cross-validation --

// Forced-spill streaming (threshold far below the input) must stay
// byte-identical to the serial oracle on every catalog pipeline — the same
// contract stream_test checks, now exercised through the spill paths.
class SpillCatalogCrossval
    : public ::testing::TestWithParam<const bench::Script*> {
 protected:
  static synth::SynthesisCache& cache() {
    static synth::SynthesisCache c;
    return c;
  }
  static vfs::Vfs& fs() {
    static vfs::Vfs v;
    return v;
  }
};

TEST_P(SpillCatalogCrossval, ForcedSpillMatchesSerial) {
  const bench::Script& script = *GetParam();
  std::string input = bench::prepare_input(script, 24 * 1024, 7, fs());

  for (const std::string& pipeline : script.pipelines) {
    auto parsed = compile::parse_pipeline(pipeline);
    ASSERT_TRUE(parsed.has_value()) << pipeline;
    compile::Plan plan =
        compile::compile_pipeline(*parsed, cache(), {}, &fs());
    compile::eliminate_intermediate_combiners(plan);
    auto stages = compile::lower_plan(plan);

    const std::string serial = exec::run_serial(stages, input);

    ExecOptions options;
    options.parallelism = 4;
    options.block_size = 2048;
    options.spill_threshold = 1024;  // force every spillable node to spill
    ExecResult r = Executor(options).run_collect(stages, input);
    EXPECT_TRUE(r.ok) << pipeline << ": " << r.error;
    EXPECT_EQ(r.output, serial)
        << script.suite << "/" << script.name << ": " << pipeline;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScripts, SpillCatalogCrossval,
    ::testing::ValuesIn([] {
      std::vector<const bench::Script*> ptrs;
      for (const bench::Script& s : bench::all_scripts()) ptrs.push_back(&s);
      return ptrs;
    }()),
    [](const ::testing::TestParamInfo<const bench::Script*>& info) {
      std::string name = info.param->suite + "_" + info.param->name;
      std::string out;
      for (char c : name)
        out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      return out;
    });

}  // namespace
}  // namespace kq::stream
