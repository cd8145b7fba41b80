// Tests for the parallel runtime: newline-aligned splitting, the thread
// pool, chunk mapping, and the staged pipeline runner (optimized and
// unoptimized modes, combine-failure fallback).

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "dsl/kway.h"
#include "exec/parallel.h"
#include "exec/runner.h"
#include "exec/splitter.h"
#include "exec/thread_pool.h"
#include "text/streams.h"
#include "unixcmd/registry.h"
#include "unixcmd/sort_cmd.h"

namespace kq::exec {
namespace {

// ------------------------------------------------------------- splitter --

TEST(Splitter, ChunksCoverInputExactly) {
  std::string input;
  for (int i = 0; i < 100; ++i) input += "line" + std::to_string(i) + "\n";
  for (int k : {1, 2, 3, 7, 16}) {
    auto chunks = split_stream(input, k);
    std::string joined;
    for (auto c : chunks) joined += std::string(c);
    EXPECT_EQ(joined, input) << "k=" << k;
    EXPECT_LE(chunks.size(), static_cast<std::size_t>(k));
  }
}

TEST(Splitter, ChunksEndAtLineBoundaries) {
  std::string input;
  for (int i = 0; i < 57; ++i) input += "abcdefg\n";
  auto chunks = split_stream(input, 8);
  for (auto c : chunks) {
    ASSERT_FALSE(c.empty());
    EXPECT_EQ(c.back(), '\n');
  }
}

TEST(Splitter, FewerLinesThanChunks) {
  auto chunks = split_stream("a\nb\n", 16);
  EXPECT_LE(chunks.size(), 2u);
  std::string joined;
  for (auto c : chunks) joined += std::string(c);
  EXPECT_EQ(joined, "a\nb\n");
}

TEST(Splitter, SingleLongLine) {
  std::string input(100000, 'x');
  input.push_back('\n');
  auto chunks = split_stream(input, 4);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], input);
}

TEST(Splitter, RoughlyBalanced) {
  std::string input;
  for (int i = 0; i < 10000; ++i) input += "0123456789\n";
  auto chunks = split_stream(input, 4);
  ASSERT_EQ(chunks.size(), 4u);
  for (auto c : chunks) {
    EXPECT_GT(c.size(), input.size() / 8);
    EXPECT_LT(c.size(), input.size() / 2);
  }
}

// ------------------------------------------------------------ threadpool --

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  int sum = 0;
  for (auto& f : futures) sum += f.get();
  int expect = 0;
  for (int i = 0; i < 64; ++i) expect += i * i;
  EXPECT_EQ(sum, expect);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorJoinsCleanly) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 10; ++i)
      pool.submit([&ran] { ++ran; }).wait();
  }
  EXPECT_EQ(ran.load(), 10);
}

// ------------------------------------------------------------ map chunks --

TEST(MapChunks, PreservesOrder) {
  ThreadPool pool(4);
  cmd::CommandPtr upper = cmd::make_command_line("tr a-z A-Z");
  std::vector<std::string_view> chunks = {"a\n", "b\n", "c\n", "d\n"};
  auto outputs = map_chunks(*upper, chunks, pool);
  ASSERT_EQ(outputs.size(), 4u);
  EXPECT_EQ(outputs[0], "A\n");
  EXPECT_EQ(outputs[3], "D\n");
}

TEST(MapChunksChain, AppliesStagesInOrder) {
  ThreadPool pool(2);
  cmd::CommandPtr upper = cmd::make_command_line("tr a-z A-Z");
  cmd::CommandPtr rev = cmd::make_command_line("rev");
  std::vector<const cmd::Command*> chain = {upper.get(), rev.get()};
  auto outputs = map_chunks_chain(chain, {"abc\n"}, pool);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0], "CBA\n");
}

// --------------------------------------------------------------- runner --

std::vector<ExecStage> word_count_stages() {
  // tr A-Z a-z | sort | uniq -c  with hand-built combiners.
  std::vector<ExecStage> stages;
  {
    ExecStage s;
    s.command = cmd::make_command_line("tr A-Z a-z");
    s.parallel = true;
    s.eliminate_combiner = true;
    s.combiner_name = "(concat a b)";
    s.combine = [](const std::vector<std::string>& parts)
        -> std::optional<std::string> {
      std::string out;
      for (const auto& p : parts) out += p;
      return out;
    };
    stages.push_back(std::move(s));
  }
  {
    ExecStage s;
    s.command = cmd::make_command_line("sort");
    s.parallel = true;
    s.combiner_name = "(merge a b)";
    s.combine = [](const std::vector<std::string>& parts)
        -> std::optional<std::string> {
      auto spec = cmd::SortSpec::parse({});
      std::vector<std::string_view> views(parts.begin(), parts.end());
      return spec->merge_streams(views);
    };
    stages.push_back(std::move(s));
  }
  {
    ExecStage s;
    s.command = cmd::make_command_line("uniq -c");
    s.parallel = true;
    s.combiner_name = "((stitch2 ' ' add first) a b)";
    dsl::Combiner saf = dsl::combiner_stitch2_add_first(' ');
    s.combine = [saf](const std::vector<std::string>& parts) {
      return dsl::combine_k(saf, parts);
    };
    stages.push_back(std::move(s));
  }
  return stages;
}

std::string sample_words() {
  std::string input;
  const char* words[] = {"apple", "Pear", "fig", "apple", "FIG", "plum"};
  for (int rep = 0; rep < 50; ++rep)
    for (const char* w : words) input += std::string(w) + "\n";
  return input;
}

TEST(Runner, SerialMatchesDirectComposition) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  RunResult serial = run_serial(stages, input);
  std::string expect = input;
  for (const auto& s : stages) expect = s.command->run(expect);
  EXPECT_EQ(serial.output, expect);
  EXPECT_EQ(serial.stages.size(), 3u);
}

TEST(Runner, ParallelUnoptimizedMatchesSerial) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  RunResult serial = run_serial(stages, input);
  ThreadPool pool(4);
  for (int k : {2, 3, 8}) {
    RunConfig config{k, /*use_elimination=*/false};
    RunResult parallel = run_pipeline(stages, input, pool, config);
    EXPECT_EQ(parallel.output, serial.output) << "k=" << k;
    for (const auto& m : parallel.stages) {
      EXPECT_FALSE(m.combiner_eliminated);
      EXPECT_FALSE(m.combine_fallback) << m.command;
    }
  }
}

TEST(Runner, ParallelOptimizedMatchesSerial) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  RunResult serial = run_serial(stages, input);
  ThreadPool pool(4);
  RunConfig config{4, /*use_elimination=*/true};
  RunResult parallel = run_pipeline(stages, input, pool, config);
  EXPECT_EQ(parallel.output, serial.output);
  EXPECT_TRUE(parallel.stages[0].combiner_eliminated);
  EXPECT_FALSE(parallel.stages[1].combiner_eliminated);
}

TEST(Runner, SequentialStageAfterEliminatedConcat) {
  // An eliminated combiner followed by a sequential stage must restore the
  // stream by concatenation.
  auto stages = word_count_stages();
  stages[1].parallel = false;  // force sort sequential
  std::string input = sample_words();
  RunResult serial = run_serial(stages, input);
  ThreadPool pool(2);
  RunResult parallel = run_pipeline(stages, input, pool, {4, true});
  EXPECT_EQ(parallel.output, serial.output);
}

TEST(Runner, CombineFailureFallsBackToSerial) {
  std::vector<ExecStage> stages;
  ExecStage s;
  s.command = cmd::make_command_line("tr a-z A-Z");
  s.parallel = true;
  s.combiner_name = "(broken)";
  s.combine = [](const std::vector<std::string>&)
      -> std::optional<std::string> { return std::nullopt; };
  stages.push_back(std::move(s));
  ThreadPool pool(2);
  RunResult r = run_pipeline(stages, "ab\ncd\nef\ngh\n", pool, {2, true});
  EXPECT_EQ(r.output, "AB\nCD\nEF\nGH\n");
  EXPECT_TRUE(r.stages[0].combine_fallback);
}

TEST(Runner, ChunksWithoutInputAreLeftOutOfTheCombine) {
  // grep apple | tail -n 1 / uniq -c: the eliminated grep hands the second
  // stage its substreams, and a match-free chunk arrives empty. Its output
  // is f(""), which `second` would keep as the answer and stitch2 rejects;
  // the combine sees only the parts whose chunk had input, and f("") when
  // none had.
  auto stages_with = [](const char* second, dsl::Combiner g) {
    std::vector<ExecStage> stages;
    ExecStage grep;
    grep.command = cmd::make_command_line("grep apple");
    grep.parallel = true;
    grep.eliminate_combiner = true;
    grep.combine = [](const std::vector<std::string>& parts) {
      return dsl::combine_k(dsl::combiner_concat(), parts);
    };
    stages.push_back(std::move(grep));
    ExecStage s;
    s.command = cmd::make_command_line(second);
    s.parallel = true;
    s.combine = [g](const std::vector<std::string>& parts) {
      return dsl::combine_k(g, parts);
    };
    stages.push_back(std::move(s));
    return stages;
  };
  std::string apples_then_pears;
  for (int i = 0; i < 200; ++i)
    apples_then_pears +=
        (i < 110 ? "apple " : "pear ") + std::to_string(i) + "\n";
  const std::string pears = "pear 1\npear 2\npear 3\npear 4\n";
  const std::string* inputs[] = {&apples_then_pears, &pears};

  ThreadPool pool(4);
  for (auto stages : {stages_with("tail -n 1", dsl::combiner_second()),
                      stages_with("uniq -c",
                                  dsl::combiner_stitch2_add_first(' '))}) {
    for (const std::string* input : inputs) {
      const std::string serial = run_serial(stages, *input).output;
      for (int k : {2, 4, 8}) {
        RunResult r = run_pipeline(stages, *input, pool, {k, true});
        const std::string name = stages[1].command->display_name();
        EXPECT_EQ(r.output, serial) << name << " k=" << k;
        EXPECT_TRUE(r.stages[0].combiner_eliminated) << name;
        EXPECT_FALSE(r.stages[1].combine_fallback) << name << " k=" << k;
      }
    }
  }
}

TEST(Runner, ParallelismOneIsSerial) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  ThreadPool pool(2);
  RunResult r = run_pipeline(stages, input, pool, {1, true});
  EXPECT_EQ(r.output, run_serial(stages, input).output);
  for (const auto& m : r.stages) EXPECT_FALSE(m.parallel);
}

TEST(Runner, MetricsAccounting) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  ThreadPool pool(2);
  RunResult r = run_pipeline(stages, input, pool, {2, true});
  ASSERT_EQ(r.stages.size(), 3u);
  EXPECT_EQ(r.stages[0].in_bytes, input.size());
  EXPECT_GT(r.stages[2].out_bytes, 0u);
  EXPECT_EQ(r.stages[0].chunks, 2);
}

}  // namespace
}  // namespace kq::exec
