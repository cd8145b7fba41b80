// Tests for the parallel runtime: newline-aligned splitting, the thread
// pool, and hand-built parallel stages through kq::Executor (optimized and
// unoptimized, with a sequential stage between parallel ones) against the
// serial oracle.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "dsl/kway.h"
#include "exec/executor.h"
#include "exec/runner.h"
#include "exec/splitter.h"
#include "exec/thread_pool.h"
#include "text/streams.h"
#include "unixcmd/registry.h"

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

// --------------------------------------------------------------- runner --

std::vector<ExecStage> word_count_stages() {
  // tr A-Z a-z | sort | uniq -c with hand-picked primary combiners.
  std::vector<ExecStage> stages(3);
  stages[0].command = cmd::make_command_line("tr A-Z a-z");
  stages[0].eliminate_combiner = true;
  stages[0].primary = dsl::combiner_concat();
  stages[1].command = cmd::make_command_line("sort");
  stages[1].primary = dsl::combiner_merge("");
  stages[2].command = cmd::make_command_line("uniq -c");
  stages[2].primary = dsl::combiner_stitch2_add_first(' ');
  for (ExecStage& s : stages) s.parallel = true;
  return stages;
}

std::string sample_words() {
  std::string input;
  const char* words[] = {"apple", "Pear", "fig", "apple", "FIG", "plum"};
  for (int rep = 0; rep < 50; ++rep)
    for (const char* w : words) input += std::string(w) + "\n";
  return input;
}

// A run at width k through the facade. The inputs here are 1-3 KiB, so
// 128-byte blocks cut each into many chunks.
kq::ExecResult run_parallel(const std::vector<ExecStage>& stages,
                            std::string_view input, int k,
                            bool use_elimination = true) {
  kq::ExecOptions options;
  options.parallelism = k;
  options.use_elimination = use_elimination;
  options.block_size = 128;
  return kq::Executor(options).run_collect(stages, input);
}

TEST(Runner, SerialMatchesDirectComposition) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  std::string expect = input;
  for (const auto& s : stages) expect = s.command->run(expect);
  EXPECT_EQ(run_serial(stages, input), expect);
}

TEST(Runner, ParallelUnoptimizedMatchesSerial) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  const std::string serial = run_serial(stages, input);
  for (int k : {2, 3, 8}) {
    kq::ExecResult parallel =
        run_parallel(stages, input, k, /*use_elimination=*/false);
    ASSERT_TRUE(parallel.ok) << parallel.error;
    EXPECT_EQ(parallel.output, serial) << "k=" << k;
    // No stage fuses into the next: one node per stage.
    ASSERT_EQ(parallel.nodes.size(), 3u) << "k=" << k;
    EXPECT_GT(parallel.nodes[0].chunks, 1) << "k=" << k;
  }
}

TEST(Runner, ParallelOptimizedMatchesSerial) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  kq::ExecResult parallel = run_parallel(stages, input, 4);
  ASSERT_TRUE(parallel.ok) << parallel.error;
  EXPECT_EQ(parallel.output, run_serial(stages, input));
  // tr's concat combiner is eliminated: tr runs in sort's worker chain.
  ASSERT_EQ(parallel.nodes.size(), 2u);
  EXPECT_EQ(parallel.nodes[0].commands, "tr A-Z a-z | sort");
  EXPECT_EQ(parallel.nodes[1].commands, "uniq -c");
}

TEST(Runner, SequentialStageAfterEliminatedConcat) {
  // An eliminated combiner followed by a sequential stage must restore the
  // stream by concatenation.
  auto stages = word_count_stages();
  stages[1].parallel = false;  // force sort sequential
  std::string input = sample_words();
  kq::ExecResult r = run_parallel(stages, input, 4);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, run_serial(stages, input));
}

TEST(Runner, ChunksWithoutInputAreLeftOutOfTheCombine) {
  // grep apple | tail -n 1 / uniq -c: the eliminated grep runs in the
  // second stage's worker chain, and a match-free chunk hands the second
  // stage nothing. Its output is f(""), which `second` would keep as the
  // answer and stitch2 rejects; the combine sees only the parts whose
  // chunk fed the second stage, and f("") when none did.
  auto stages_with = [](const char* second, dsl::Combiner g) {
    std::vector<ExecStage> stages(2);
    stages[0].command = cmd::make_command_line("grep apple");
    stages[0].eliminate_combiner = true;
    stages[0].primary = dsl::combiner_concat();
    stages[1].command = cmd::make_command_line(second);
    stages[1].primary = std::move(g);
    for (ExecStage& s : stages) s.parallel = true;
    return stages;
  };
  std::string apples_then_pears;
  for (int i = 0; i < 200; ++i)
    apples_then_pears +=
        (i < 110 ? "apple " : "pear ") + std::to_string(i) + "\n";
  const std::string pears = "pear 1\npear 2\npear 3\npear 4\n";
  const std::string* inputs[] = {&apples_then_pears, &pears};

  for (auto stages : {stages_with("tail -n 1", dsl::combiner_second()),
                      stages_with("uniq -c",
                                  dsl::combiner_stitch2_add_first(' '))}) {
    for (const std::string* input : inputs) {
      const std::string serial = run_serial(stages, *input);
      for (int k : {2, 4, 8}) {
        kq::ExecResult r = run_parallel(stages, *input, k);
        const std::string name = stages[1].command->display_name();
        ASSERT_TRUE(r.ok) << name << " k=" << k << ": " << r.error;
        EXPECT_EQ(r.output, serial) << name << " k=" << k;
        // grep's combiner is eliminated: it runs in the second stage's
        // worker chain.
        ASSERT_EQ(r.nodes.size(), 1u) << name;
      }
    }
  }
}

TEST(Runner, ParallelismOneIsSerial) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  kq::ExecResult r = run_parallel(stages, input, 1);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, run_serial(stages, input));
  for (const auto& m : r.nodes) EXPECT_FALSE(m.parallel);
}

}  // namespace
}  // namespace kq::exec
