// Tests for the streaming dataflow runtime: record-aligned block reading
// (boundary realignment, CRLF, oversized records, missing trailing
// newline), bounded channels with backpressure, and the dataflow runtime —
// run through kq::Executor — against the serial oracle, on hand-built
// stages and on every catalog pipeline.

#include <gtest/gtest.h>

#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <functional>
#include <random>
#include <sstream>
#include <streambuf>
#include <thread>

#include "bench_support/catalog.h"
#include "compile/optimize.h"
#include "compile/plan.h"
#include "dsl/kway.h"
#include "exec/executor.h"
#include "exec/runner.h"
#include "stream/block_reader.h"
#include "stream/channel.h"
#include "stream/dataflow.h"
#include "unixcmd/registry.h"
#include "unixcmd/sort_cmd.h"

namespace kq::stream {
namespace {

std::vector<std::string> read_all(BlockReader& reader) {
  std::vector<std::string> blocks;
  while (auto b = reader.next()) blocks.push_back(std::move(*b));
  return blocks;
}

std::string joined(const std::vector<std::string>& blocks) {
  std::string out;
  for (const std::string& b : blocks) out += b;
  return out;
}

// --------------------------------------------------------- block reader --

TEST(BlockReader, DelimiterStraddlingBlockBoundary) {
  // Lines of 7 bytes with block_size 8: every naive 8-byte cut would land
  // mid-record, so each block must be realigned to the previous newline.
  std::string input;
  for (int i = 0; i < 40; ++i) input += "abcdef\n";
  std::istringstream in(input);
  BlockReader reader(in, {8, '\n'});
  auto blocks = read_all(reader);
  EXPECT_EQ(joined(blocks), input);
  EXPECT_GT(blocks.size(), 1u);
  for (const std::string& b : blocks) {
    ASSERT_FALSE(b.empty());
    EXPECT_EQ(b.back(), '\n');
    EXPECT_EQ(b.size() % 7, 0u) << "block split a record";
  }
}

TEST(BlockReader, RecordLongerThanBlock) {
  std::string long_line(1000, 'x');
  std::string input = "short\n" + long_line + "\nshort\n";
  std::istringstream in(input);
  BlockReader reader(in, {16, '\n'});
  auto blocks = read_all(reader);
  EXPECT_EQ(joined(blocks), input);
  bool saw_long = false;
  for (const std::string& b : blocks) {
    EXPECT_EQ(b.back(), '\n');
    if (b.find(long_line) != std::string::npos) saw_long = true;
  }
  EXPECT_TRUE(saw_long) << "oversized record must travel whole";
}

TEST(BlockReader, CrlfInput) {
  std::string input = "alpha\r\nbeta\r\ngamma\r\n";
  std::istringstream in(input);
  BlockReader reader(in, {7, '\n'});
  auto blocks = read_all(reader);
  EXPECT_EQ(joined(blocks), input);
  for (const std::string& b : blocks) {
    EXPECT_EQ(b.back(), '\n');  // CR stays inside its record
  }
}

TEST(BlockReader, EmptyInput) {
  std::istringstream in("");
  BlockReader reader(in, {1024, '\n'});
  EXPECT_EQ(reader.next(), std::nullopt);
  EXPECT_EQ(reader.next(), std::nullopt);  // stays exhausted
  EXPECT_EQ(reader.bytes_delivered(), 0u);
}

TEST(BlockReader, NoTrailingNewline) {
  std::string input = "one\ntwo\nthree";  // final record unterminated
  std::istringstream in(input);
  BlockReader reader(in, {4, '\n'});
  auto blocks = read_all(reader);
  EXPECT_EQ(joined(blocks), input);
  EXPECT_EQ(blocks.back().back(), 'e');
  for (std::size_t i = 0; i + 1 < blocks.size(); ++i)
    EXPECT_EQ(blocks[i].back(), '\n');
}

TEST(BlockReader, SingleBlockWhenInputFits) {
  std::string input = "a\nb\nc\n";
  std::istringstream in(input);
  BlockReader reader(in, {1 << 20, '\n'});
  auto blocks = read_all(reader);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], input);
  EXPECT_EQ(reader.bytes_delivered(), input.size());
}

TEST(BlockReader, CustomDelimiter) {
  std::string input = "a,b,c,d,";
  std::istringstream in(input);
  BlockReader reader(in, {3, ','});
  auto blocks = read_all(reader);
  EXPECT_EQ(joined(blocks), input);
  for (const std::string& b : blocks) EXPECT_EQ(b.back(), ',');
}

TEST(BlockReader, ReadFnSource) {
  // A source that trickles one byte at a time still yields aligned blocks.
  std::string input = "aa\nbb\ncc\n";
  std::size_t pos = 0;
  BlockReader reader(
      [&](char* buf, std::size_t n) -> std::size_t {
        if (pos >= input.size() || n == 0) return 0;
        buf[0] = input[pos++];
        return 1;
      },
      {4, '\n'});
  auto blocks = read_all(reader);
  EXPECT_EQ(joined(blocks), input);
}

TEST(BlockReader, ShortReadFlushesPendingRecords) {
  // A pipe between bursts must not hold delivered records hostage to a
  // full block: 6 bytes of complete records against a 1 MiB block size are
  // delivered on the first short read instead of blocking for more input.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], "a\nb\nc", 5), 5);  // partial final record
  BlockReader reader(fds[0], {1 << 20, '\n'});
  auto block = reader.next();
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(*block, "a\nb\n");  // complete records only; "c" stays pending
  ::close(fds[1]);              // EOF releases the partial tail
  block = reader.next();
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(*block, "c");
  EXPECT_EQ(reader.next(), std::nullopt);
  EXPECT_EQ(reader.error(), 0);
  ::close(fds[0]);
}

TEST(BlockReader, PendingRecordsFlushBeforeBlockingOnIdlePipe) {
  // A burst that overshoots the block boundary leaves complete records in
  // pending_ after the first delivery. With the pipe now idle (write end
  // open, no data), subsequent next() calls must deliver those records
  // instead of blocking in another read — the idle check runs before
  // fill(). Before the fix this hung until the producer wrote or closed.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], "aaaa\nbbbb\ncccc\n", 15), 15);
  BlockReader reader(fds[0], {8, '\n'});  // burst spans several blocks
  std::string collected;
  for (int i = 0; i < 3 && collected.size() < 15; ++i) {
    auto block = reader.next();
    ASSERT_TRUE(block.has_value()) << "block " << i;
    collected += *block;
  }
  EXPECT_EQ(collected, "aaaa\nbbbb\ncccc\n");  // all without EOF or hang
  ::close(fds[1]);
  ::close(fds[0]);
}

// An endless istream source: serves a repeating record block forever and
// fires a callback once a threshold of bytes has been served — the shape
// of a process substitution or decompressor that never reaches EOF.
class EndlessStreambuf : public std::streambuf {
 public:
  EndlessStreambuf(std::function<void()> on_threshold, std::size_t threshold)
      : on_threshold_(std::move(on_threshold)), threshold_(threshold) {
    for (int i = 0; i < 47; ++i) chunk_ += "0123456789\n";
  }
  std::size_t served() const { return served_; }

 protected:
  int_type underflow() override {
    if (!fired_ && served_ >= threshold_) {
      fired_ = true;
      on_threshold_();
    }
    served_ += chunk_.size();
    setg(chunk_.data(), chunk_.data(), chunk_.data() + chunk_.size());
    return traits_type::to_int_type(chunk_[0]);
  }

 private:
  std::string chunk_;
  std::function<void()> on_threshold_;
  std::size_t threshold_;
  std::size_t served_ = 0;
  bool fired_ = false;
};

TEST(BlockReader, CancelMidFillStopsIstreamSource) {
  // cancel() must take effect *during* a fill, not only between blocks:
  // with a 1 MiB block and an endless istream, a source that only checks
  // the flag per block would keep pulling the full megabyte after the
  // cancel lands. The istream source reads in bounded slices and rechecks
  // between them, so the bytes served stay within a few slices of the
  // cancellation point. Regression test for the istream half of the
  // poll-driven fd cancel fix.
  BlockReader* reader_ptr = nullptr;
  EndlessStreambuf buf([&reader_ptr] { reader_ptr->cancel(); },
                       /*threshold=*/1000);
  std::istream in(&buf);
  BlockReader reader(in, {1 << 20, '\n'});
  reader_ptr = &reader;
  std::size_t delivered = 0;
  while (auto block = reader.next()) delivered += block->size();
  EXPECT_EQ(reader.error(), 0);  // cancellation is not a read failure
  EXPECT_LT(buf.served(), std::size_t(64) * 1024)
      << "fill kept draining the source after cancel";
  EXPECT_LE(delivered, buf.served());
}

TEST(BlockReader, CancelWakesReadBlockedOnIdlePipe) {
  // cancel() must wake a reader blocked in read(2) on a pipe nobody is
  // writing to — the fd source polls with a timeout — and end the stream
  // as a clean EOF, not an error. Before the poll-based source, this
  // blocked until the writer produced a block or closed.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  BlockReader reader(fds[0], {1 << 20, '\n'});
  std::thread canceller([&reader] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    reader.cancel();
  });
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(reader.next(), std::nullopt);
  double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  canceller.join();
  EXPECT_EQ(reader.error(), 0);  // cancellation is not a read failure
  EXPECT_LT(waited, 5.0);        // one ~50 ms poll tick, with CI slack
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(BlockReader, SignalsMidReadDoNotTruncateOrFail) {
  // A signal delivered to a thread blocked in the fd source's poll(2) or
  // read(2) makes the syscall fail with EINTR when the handler is
  // installed without SA_RESTART. The source must retry — before the fix,
  // an EINTR on the *idle probe* poll misread the interruption as "pipe
  // gone idle" and shrank blocks; an unhandled errno on the data path
  // would have flagged a hard error and truncated the stream. Here a
  // writer dribbles records through a pipe while pelting the reading
  // thread with SIGUSR1; the reader must deliver every byte with
  // error() == 0.
  struct sigaction sa{};
  struct sigaction old_sa{};
  sa.sa_handler = [](int) {};  // no-op, and crucially no SA_RESTART
  sigemptyset(&sa.sa_mask);
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old_sa), 0);

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string expect;
  for (int i = 0; i < 400; ++i) {
    expect += "record-";
    expect += std::to_string(i);
    expect += '\n';
  }

  std::string got;
  int reader_error = -1;
  std::thread reader_thread([&] {
    BlockReader reader(fds[0], {256, '\n'});
    while (auto block = reader.next()) got += *block;
    reader_error = reader.error();
  });
  pthread_t reader_handle = reader_thread.native_handle();

  std::atomic<bool> stop_signals{false};
  std::thread signaller([&] {
    // Keep signalling until the writer is done; each hit interrupts
    // whatever syscall the reader is in. (Stopped and joined before the
    // reader thread is joined — pthread_kill needs a live handle.)
    while (!stop_signals.load()) {
      ::pthread_kill(reader_handle, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  // Dribble the input so the reader spends time blocked in poll/read with
  // a partially filled block — the window the signals aim for.
  std::size_t off = 0;
  while (off < expect.size()) {
    std::size_t n = std::min<std::size_t>(96, expect.size() - off);
    ssize_t wrote = ::write(fds[1], expect.data() + off, n);
    ASSERT_GT(wrote, 0);
    off += static_cast<std::size_t>(wrote);
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  ::close(fds[1]);

  stop_signals.store(true);
  signaller.join();
  reader_thread.join();
  ::close(fds[0]);
  ASSERT_EQ(::sigaction(SIGUSR1, &old_sa, nullptr), 0);

  EXPECT_EQ(reader_error, 0) << "EINTR surfaced as a stream error";
  EXPECT_EQ(got, expect) << "signal storm truncated or corrupted the stream";
}

// -------------------------------------------------------------- channel --

TEST(Channel, DeliversInOrder) {
  Channel ch(4);
  for (std::size_t i = 0; i < 3; ++i) {
    // Append form: GCC PR 105329 (-Wrestrict).
    std::string payload = "c";
    payload += std::to_string(i);
    EXPECT_TRUE(ch.push({i, std::move(payload)}));
  }
  ch.close();
  for (std::size_t i = 0; i < 3; ++i) {
    auto c = ch.pop();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->index, i);
  }
  EXPECT_EQ(ch.pop(), std::nullopt);
}

TEST(Channel, PushAfterCloseFails) {
  Channel ch(2);
  ch.close();
  EXPECT_FALSE(ch.push({0, "x"}));
}

TEST(Channel, BackpressureBlocksProducerUntilConsumed) {
  Channel ch(2);
  std::atomic<int> pushed{0};
  std::thread producer([&] {
    for (std::size_t i = 0; i < 6; ++i) {
      ch.push({i, "data"});
      ++pushed;
    }
    ch.close();
  });
  // Give the producer time to hit the bound.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(pushed.load(), 2);
  int received = 0;
  while (ch.pop()) ++received;
  producer.join();
  EXPECT_EQ(received, 6);
  EXPECT_EQ(pushed.load(), 6);
}

TEST(Channel, AbortWakesAndDiscards) {
  Channel ch(1);
  ASSERT_TRUE(ch.push({0, "pending"}));
  std::thread producer([&] {
    // Blocks on the full channel until abort, then fails.
    EXPECT_FALSE(ch.push({1, "late"}));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.abort();
  producer.join();
  EXPECT_EQ(ch.pop(), std::nullopt);  // pending chunk was discarded
}

TEST(Channel, GaugeTracksPeakBytes) {
  MemoryGauge gauge;
  Channel ch(8, &gauge);
  ch.push({0, std::string(100, 'x')});
  ch.push({1, std::string(50, 'y')});
  EXPECT_EQ(gauge.current(), 150u);
  ch.pop();
  EXPECT_EQ(gauge.current(), 50u);
  EXPECT_EQ(gauge.peak(), 150u);
}

TEST(Semaphore, CancelUnblocksWaiter) {
  Semaphore sem(1);
  ASSERT_TRUE(sem.acquire());
  std::thread waiter([&] { EXPECT_FALSE(sem.acquire()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sem.cancel();
  waiter.join();
}

TEST(Channel, CloseReadFailsProducerAndDiscardsPending) {
  MemoryGauge gauge;
  Channel ch(2, &gauge);
  ASSERT_TRUE(ch.push({0, "pending"}));
  EXPECT_FALSE(ch.read_closed());
  ch.close_read();
  EXPECT_TRUE(ch.read_closed());
  EXPECT_FALSE(ch.push({1, "late"}));   // producer learns downstream is done
  EXPECT_EQ(ch.pop(), std::nullopt);    // pending chunk was discarded
  EXPECT_EQ(gauge.current(), 0u);       // and its bytes released
}

TEST(Channel, CloseReadWakesBlockedProducer) {
  Channel ch(1);
  ASSERT_TRUE(ch.push({0, "fill"}));
  std::thread producer([&] { EXPECT_FALSE(ch.push({1, "blocked"})); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.close_read();
  producer.join();
}

TEST(BufferPool, RecyclesAllocations) {
  BufferPool pool(/*budget_bytes=*/64 << 10);
  std::string a = pool.acquire();
  a.assign(BufferPool::kMinBytes, 'x');  // an allocation worth pooling
  const char* data = a.data();
  pool.release(std::move(a));
  std::string b = pool.acquire();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data(), data);  // same allocation came back
  EXPECT_TRUE(pool.acquire().empty());  // pool drained: fresh string
}

TEST(BufferPool, AcquireHonorsMinimumCapacity) {
  // A block-sized buffer is never handed out where a larger one is
  // needed: acquire takes the smallest free buffer that is large enough,
  // and a miss comes back already reserved to the minimum.
  constexpr std::size_t kBlock = 64 << 10;
  BufferPool pool(/*budget_bytes=*/8 * kBlock);
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::string block(kBlock, 'b');
  std::string slice(2 * kBlock, 's');
  const char* block_data = block.data();
  const char* slice_data = slice.data();
  pool.release(std::move(block));
  pool.release(std::move(slice));  // the most recent, but too large a fit
  std::string small = pool.acquire(kBlock / 2, &hits, &misses);
  EXPECT_EQ(small.data(), block_data);
  std::string big = pool.acquire(2 * kBlock, &hits, &misses);
  EXPECT_EQ(big.data(), slice_data);
  EXPECT_TRUE(big.empty());
  std::string fresh = pool.acquire(2 * kBlock, &hits, &misses);
  EXPECT_GE(fresh.capacity(), 2 * kBlock);
  EXPECT_EQ(hits.load(), 2u);
  EXPECT_EQ(misses.load(), 1u);

  // A block goes back; a slice-sized acquire still misses.
  pool.release(std::move(small));
  EXPECT_GE(pool.acquire(2 * kBlock, &hits, &misses).capacity(), 2 * kBlock);
  EXPECT_EQ(misses.load(), 2u);
  EXPECT_EQ(pool.acquire(kBlock, &hits, &misses).data(), block_data);
  EXPECT_EQ(hits.load(), 3u);

  // Below kMinBytes the allocator recycles on its own: nothing is kept.
  std::string tiny(BufferPool::kMinBytes / 2, 't');
  pool.release(std::move(tiny));
  pool.acquire(0, &hits, &misses);
  EXPECT_EQ(misses.load(), 3u);
}

TEST(BufferPool, RunLimitsKeepOnlyBlockSizedBuffers) {
  // A run's pool keeps only buffers that hold a block: a smaller leftover
  // (a fitted part) is never handed to a block or slice acquire, so kept
  // it would only take budget from the buffers that are.
  constexpr std::size_t kBlock = 64 << 10;
  BufferPool pool;
  pool.set_limits(/*budget_bytes=*/8 * kBlock, /*min_bytes=*/kBlock);
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::string leftover(kBlock / 2, 'l');
  pool.release(std::move(leftover));  // dropped
  std::string block(kBlock, 'b');
  const char* block_data = block.data();
  pool.release(std::move(block));  // kept
  EXPECT_EQ(pool.acquire(0, &hits, &misses).data(), block_data);
  pool.acquire(0, &hits, &misses);
  EXPECT_EQ(hits.load(), 1u);
  EXPECT_EQ(misses.load(), 1u);
}

TEST(BufferPool, ByteBudgetBoundsRetainedCapacity) {
  // The pool bounds retained *bytes*, not buffer count: a release-heavy
  // node (a window absorbing input blocks, emitting nothing) must not park
  // unbounded dead capacity.
  BufferPool pool(/*budget_bytes=*/10 << 10);
  std::string big(20 << 10, 'x');
  pool.release(std::move(big));       // over budget: deallocated
  EXPECT_TRUE(pool.acquire().empty());
  std::string small(6 << 10, 'x');
  const char* data = small.data();
  pool.release(std::move(small));     // fits: retained
  std::string second(6 << 10, 'y');
  pool.release(std::move(second));    // 6 + 6 KiB > 10 KiB: dropped
  std::string back = pool.acquire();
  EXPECT_EQ(back.data(), data);
  EXPECT_TRUE(pool.acquire().empty());
}

// ------------------------------------------------------------- dataflow --

// The exec_test word-count stages: tr A-Z a-z | sort | uniq -c with
// hand-picked primary combiners, the §2 running example.
std::vector<exec::ExecStage> word_count_stages() {
  std::vector<exec::ExecStage> stages(3);
  stages[0].command = cmd::make_command_line("tr A-Z a-z");
  stages[0].eliminate_combiner = true;
  stages[0].primary = dsl::combiner_concat();
  stages[1].command = cmd::make_command_line("sort");
  stages[1].primary = dsl::combiner_merge("");
  stages[2].command = cmd::make_command_line("uniq -c");
  stages[2].primary = dsl::combiner_stitch2_add_first(' ');
  for (exec::ExecStage& s : stages) s.parallel = true;
  return stages;
}

std::string sample_words(int reps = 50) {
  std::string input;
  const char* words[] = {"apple", "Pear", "fig", "apple", "FIG", "plum"};
  for (int rep = 0; rep < reps; ++rep)
    for (const char* w : words) input += std::string(w) + "\n";
  return input;
}

TEST(Dataflow, MatchesBatchAcrossBlockSizes) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  std::string expect = exec::run_serial(stages, input);
  for (std::size_t block : {std::size_t(1), std::size_t(7), std::size_t(64),
                            std::size_t(1 << 20)}) {
    ExecOptions options;
    options.parallelism = 4;
    options.block_size = block;
    ExecResult r = Executor(options).run_collect(stages, input);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.output, expect) << "block=" << block;
  }
}

TEST(Dataflow, FusesEliminatedChainIntoOneNode) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 64;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  // tr fuses into sort's segment (eliminated combiner); uniq -c is its own.
  ASSERT_EQ(r.nodes.size(), 2u);
  EXPECT_EQ(r.nodes[0].commands, "tr A-Z a-z | sort");
  EXPECT_EQ(r.nodes[1].commands, "uniq -c");
  EXPECT_TRUE(r.nodes[0].parallel);
  EXPECT_GT(r.nodes[0].chunks, 1);
}

TEST(Dataflow, UnoptimizedKeepsStagesSeparate) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 64;
  options.use_elimination = false;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.nodes.size(), 3u);
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
}

TEST(Dataflow, SequentialStageMidPipeline) {
  auto stages = word_count_stages();
  stages[1].parallel = false;  // force sort to drain sequentially
  std::string input = sample_words();
  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 32;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  bool saw_sequential = false;
  for (const auto& node : r.nodes)
    if (!node.parallel) saw_sequential = true;
  EXPECT_TRUE(saw_sequential);
}

TEST(Dataflow, EmptyInputMatchesBatch) {
  // wc -l on empty input must still produce "0\n": the chain runs once on
  // the empty stream, as the serial run does.
  std::vector<exec::ExecStage> stages(1);
  stages[0].command = cmd::make_command_line("wc -l");
  stages[0].parallel = true;
  stages[0].primary = dsl::combiner_add();

  ExecOptions options;
  options.parallelism = 2;
  ExecResult r = Executor(options).run_collect(stages, "");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, exec::run_serial(stages, ""));
  EXPECT_EQ(r.output, "0\n");
}

TEST(Dataflow, ConcatEmissionKeepsMemoryBounded) {
  // A pure concat pipeline over a large input: peak bytes in flight must
  // stay O(max_inflight · block_size), far below the input size.
  std::vector<exec::ExecStage> stages(1);
  stages[0].command = cmd::make_command_line("tr a-z A-Z");
  stages[0].parallel = true;
  stages[0].primary = dsl::combiner_concat();

  std::string input;
  for (int i = 0; i < 200000; ++i) input += "abcdefghijklmnop\n";  // ~3.4 MB

  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 4096;
  options.max_inflight = 8;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_TRUE(r.nodes[0].streamed_combine);
  // Budget: inflight chunks in the worker stage plus reorder slack; a chunk
  // never exceeds one block (the feeder sends its buffer before a piece
  // would push it past). 4x headroom still << input size.
  std::size_t budget = 4 * options.max_inflight * options.block_size;
  EXPECT_LT(r.peak_inflight_bytes, budget);
  EXPECT_LT(budget, input.size());
}

// The collector follows the combining stage's primary operator alone: a
// merge (either operand order) merges under the primary's comparator, a
// rerun reruns, and every other operator folds. At k = 1 the same stage
// places as its plan-sequential twin does.
TEST(Placement, CollectorFollowsThePrimaryOperator) {
  auto swapped = [](dsl::Combiner g) {
    g.swapped = true;
    return g;
  };
  struct Case {
    const char* command;
    dsl::Combiner primary;
    Combine combine;
  };
  const Case cases[] = {
      {"tr a-z A-Z", dsl::combiner_concat(), Combine::kFold},
      {"uniq", dsl::combiner_stitch_first(), Combine::kFold},
      {"uniq -c", dsl::combiner_stitch2_add_first(' '), Combine::kFold},
      {"cat", dsl::combiner_offset_add('\t'), Combine::kFold},
      {"wc -l", dsl::combiner_add(), Combine::kFold},
      {"tail -n 1", swapped(dsl::combiner_first()), Combine::kFold},
      {"sort", dsl::combiner_merge(""), Combine::kMerge},
      {"sort -r", swapped(dsl::combiner_merge("-r")), Combine::kMerge},
      {"tr -sc '[A-Z]' '[\\012*]'", dsl::combiner_rerun(), Combine::kRerun},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.command);
    std::vector<exec::ExecStage> stages(1);
    stages[0].command = cmd::make_command_line(c.command);
    ASSERT_NE(stages[0].command, nullptr);
    stages[0].parallel = true;
    stages[0].primary = c.primary;
    stages[0].sort_spec = cmd::sort_spec_of(*stages[0].command);

    ExecOptions options;
    options.parallelism = 4;
    std::vector<Placement> nodes = place(stages, options);
    ASSERT_EQ(nodes.size(), 1u);
    EXPECT_TRUE(nodes[0].parallel());
    EXPECT_EQ(nodes[0].combine, c.combine);
    if (c.combine == Combine::kMerge) {
      EXPECT_EQ(nodes[0].spec, c.primary.merge_spec);
    } else {
      EXPECT_EQ(nodes[0].spec, nullptr);
    }

    options.parallelism = 1;
    const std::vector<Placement> at_one = place(stages, options);
    stages[0].parallel = false;
    const std::vector<Placement> sequential = place(stages, options);
    ASSERT_EQ(at_one.size(), 1u);
    ASSERT_EQ(sequential.size(), 1u);
    EXPECT_FALSE(at_one[0].parallel());
    EXPECT_EQ(at_one[0].kind, sequential[0].kind);
    EXPECT_EQ(at_one[0].combine, Combine::kNone);
    EXPECT_EQ(at_one[0].spec, sequential[0].spec);
    EXPECT_STREQ(at_one[0].label, sequential[0].label);
  }
}

TEST(Dataflow, ParallelismOneRunsSequentially) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  ExecOptions options;
  options.parallelism = 1;
  options.block_size = 64;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
  for (const auto& node : r.nodes) EXPECT_FALSE(node.parallel);
}

TEST(Dataflow, SinkEarlyStopIsCleanNotAnError) {
  // A head-like sink that refuses data after the first delivery must stop
  // the run cleanly: ok stays true and stopped_early is set.
  std::vector<exec::ExecStage> stages(1);
  stages[0].command = cmd::make_command_line("tr a-z A-Z");
  stages[0].parallel = true;
  stages[0].primary = dsl::combiner_concat();

  std::string input;
  for (int i = 0; i < 5000; ++i) input += "abcdefgh\n";
  std::istringstream in(input);
  int deliveries = 0;
  Sink sink = [&deliveries](std::string_view) { return ++deliveries < 2; };

  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 256;
  ExecResult r = Executor(options).run(stages, in, sink);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.stopped_early);
  EXPECT_FALSE(r.combine_undefined);
  EXPECT_GE(deliveries, 2);
}

// ------------------------------------------- per-block stream chains --

// A sequential streamable stage: placement runs it by its declared
// streamability.
exec::ExecStage streamable_stage(const char* command_line) {
  exec::ExecStage s;
  s.command = cmd::make_command_line(command_line);
  EXPECT_NE(s.command, nullptr) << command_line;
  EXPECT_NE(s.command->streamability(), cmd::Streamability::kNone)
      << command_line;
  return s;
}

TEST(StreamChain, FusesAdjacentStreamableStagesIntoOneNode) {
  std::vector<exec::ExecStage> stages;
  stages.push_back(streamable_stage("grep a"));
  stages.push_back(streamable_stage("tr a-z A-Z"));
  stages.push_back(streamable_stage("cut -c 1-4"));
  std::string input;
  for (int i = 0; i < 3000; ++i)
    input += (i % 3 ? "alpha beta\n" : "omega\n");

  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 128;
  options.stats = true;
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  // One channel hop for the whole chain, not three.
  ASSERT_EQ(r.nodes.size(), 1u);
  EXPECT_EQ(r.nodes[0].memory, "stateless-stream");
  EXPECT_FALSE(r.nodes[0].parallel);
  EXPECT_EQ(r.nodes[0].commands, "grep a | tr a-z A-Z | cut -c 1-4");
  EXPECT_GT(r.nodes[0].chunks, 1);
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
}

TEST(StreamChain, StatefulProcessorsMatchWholeInputAcrossBlockSizes) {
  // tr -s '\n' (squeeze state crosses block boundaries), sed with line
  // addresses (global line counter), tail +N (skip counter): per-block
  // streaming must be byte-identical to one whole-input execution.
  for (const char* line :
       {"tr -s x", "sed 3d", "tail +5", "sed s/a/A/g"}) {
    std::vector<exec::ExecStage> stages;
    stages.push_back(streamable_stage(line));
    std::string input;
    for (int i = 0; i < 200; ++i)
      input += i % 7 ? "axxa\n" : "xxxx\n";
    input += "tailxx";  // no trailing newline
    std::string expect = exec::run_serial(stages, input);
    for (std::size_t block : {std::size_t(1), std::size_t(5),
                              std::size_t(64), std::size_t(1) << 20}) {
      ExecOptions options;
      options.parallelism = 2;
      options.block_size = block;
      ExecResult r = Executor(options).run_collect(stages, input);
      ASSERT_TRUE(r.ok) << line << ": " << r.error;
      EXPECT_EQ(r.output, expect) << line << " block=" << block;
    }
  }
}

TEST(StreamChain, PrefixEarlyExitStopsTheReader) {
  // head -n 3 over a large input must finish after O(blocks), not drain
  // the stream: the prefix processor reports done, the node cancels
  // upstream, and the BlockReader is never asked for the rest.
  std::vector<exec::ExecStage> stages;
  stages.push_back(streamable_stage("head -n 3"));
  std::string input;
  for (int i = 0; i < 200000; ++i) input += "abcdefghijklmnop\n";  // ~3.4 MB

  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 4096;
  std::istringstream in(input);
  std::string output;
  Sink sink = [&output](std::string_view bytes) {
    output.append(bytes);
    return true;
  };
  ExecResult r = Executor(options).run(stages, in, sink);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.stopped_early);  // the *output* is complete, not truncated
  EXPECT_EQ(output, exec::run_serial(stages, input));
  EXPECT_LT(r.bytes_read, 8 * options.block_size) << "reader kept draining";
}

TEST(StreamChain, HeadOverIdlePipeCompletesWithoutEof) {
  // A pipe receives 20 lines and then goes idle with its write end still
  // open: EOF never arrives. head -n 5 must still complete promptly — the
  // short-read flush delivers the burst's records without waiting for a
  // full block, head satisfies its count, and upstream cancellation (via
  // the poll-driven fd source) stops the reader instead of leaving it in a
  // read(2) that would only return at the next (never-arriving) block
  // boundary. Before the fix this test hung until the ctest timeout.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string burst;
  for (int i = 1; i <= 20; ++i) burst += std::to_string(i) + "\n";
  ASSERT_EQ(::write(fds[1], burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));

  std::vector<exec::ExecStage> stages;
  stages.push_back(streamable_stage("head -n 5"));
  ExecOptions options;
  options.parallelism = 2;
  std::string output;
  Sink sink = [&output](std::string_view bytes) {
    output.append(bytes);
    return true;
  };
  ExecResult r = Executor(options).run(stages, Source::from_fd(fds[0]), sink);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(output, "1\n2\n3\n4\n5\n");
  ::close(fds[1]);
  ::close(fds[0]);
}

TEST(StreamChain, PrefixEarlyExitCancelsParallelUpstream) {
  // tr runs as a parallel concat segment; head's close must propagate back
  // through the channel so the feeder (and reader) stop — and the clean
  // early exit must not read as a combine failure.
  std::vector<exec::ExecStage> stages(1);
  stages[0].command = cmd::make_command_line("tr a-z A-Z");
  stages[0].parallel = true;
  stages[0].primary = dsl::combiner_concat();
  stages.push_back(streamable_stage("head -n 5"));

  std::string input;
  for (int i = 0; i < 200000; ++i) input += "abcdefghijklmnop\n";

  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 4096;
  options.max_inflight = 8;
  std::istringstream in(input);
  std::string output;
  Sink sink = [&output](std::string_view bytes) {
    output.append(bytes);
    return true;
  };
  ExecResult r = Executor(options).run(stages, in, sink);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.stopped_early);
  EXPECT_FALSE(r.combine_undefined);
  EXPECT_EQ(output, exec::run_serial(stages, input));
  // The feeder may have a few blocks in flight when the close lands, but
  // the reader must stop long before the ~3.4 MB input is drained.
  EXPECT_LT(r.bytes_read, input.size() / 4) << "close did not propagate";
}

TEST(StreamChain, DownstreamCloseStopsMaterializeEmission) {
  // awk runs as a sequential materialize stage whose output spans many
  // blocks; head closes after the first, and the failed push must read as
  // a clean early exit (stop emitting), not an error or a spurious
  // combine-undefined.
  std::vector<exec::ExecStage> stages;
  {
    exec::ExecStage s;  // kNone: must materialize
    s.command = cmd::make_command_line("awk '{print $1}'");
    ASSERT_NE(s.command, nullptr);
    stages.push_back(std::move(s));
  }
  stages.push_back(streamable_stage("head -n 1"));
  std::string input;
  for (int i = 0; i < 20000; ++i) input += "word another third\n";
  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 256;  // awk's output re-blocks into ~400 pushes
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.stopped_early);
  EXPECT_EQ(r.output, "word\n");
}

TEST(StreamChain, PrefixAfterExternalSortStopsMergeCleanly) {
  // A forced-spill external sort feeding head: head closes mid-merge, so
  // the sorter's push fails — a clean stop, not "external sort failed".
  std::vector<exec::ExecStage> stages;
  {
    exec::ExecStage s;
    s.command = cmd::make_command_line("sort");
    ASSERT_NE(s.command, nullptr);
    s.sort_spec = cmd::sort_spec_of(*s.command);
    ASSERT_NE(s.sort_spec, nullptr);
    stages.push_back(std::move(s));
  }
  stages.push_back(streamable_stage("head -n 5"));
  std::string input;
  for (int i = 20000; i > 0; --i)
    input += "key" + std::to_string(i) + "\n";
  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 512;
  options.spill_threshold = 4096;  // force sorted runs onto disk
  ExecResult r = Executor(options).run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.spilled_bytes, 0u);
  EXPECT_EQ(r.output, exec::run_serial(stages, input));
}

TEST(Dataflow, IstreamToOstream) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  std::istringstream in(input);
  std::ostringstream out;
  ExecOptions options;
  options.parallelism = 4;
  options.block_size = 128;
  ExecResult r = Executor(options).run(stages, in, out);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(out.str(), exec::run_serial(stages, input));
}

// ----------------------------------------------- catalog cross-validation --

// `--stream` must be byte-identical to the serial oracle for every pipeline
// in the 70-script catalog, at a block size small enough to force many
// blocks.
class StreamCatalogCrossval
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

TEST_P(StreamCatalogCrossval, StreamMatchesSerial) {
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
    options.block_size = 2048;  // force ~12 blocks per run
    ExecResult r = Executor(options).run_collect(stages, input);
    EXPECT_TRUE(r.ok) << pipeline << ": " << r.error;
    EXPECT_EQ(r.output, serial)
        << script.suite << "/" << script.name << ": " << pipeline;

    // Forced-sequential lowering: every streamable stage becomes part of a
    // fused per-block stream chain (kStatelessStream), which must stay
    // byte-identical to the serial output too.
    compile::Plan seq_plan =
        compile::compile_pipeline(*parsed, cache(), {}, &fs());
    for (auto& stage : seq_plan.stages) stage.parallel = false;
    auto seq_stages = compile::lower_plan(seq_plan);
    bool fused = false;
    for (const auto& stage : seq_stages)
      if (stage.memory_class == exec::MemoryClass::kStatelessStream)
        fused = true;
    ExecResult seq_r = Executor(options).run_collect(seq_stages, input);
    EXPECT_TRUE(seq_r.ok) << pipeline << " (sequential): " << seq_r.error;
    EXPECT_EQ(seq_r.output, serial)
        << script.suite << "/" << script.name << " (sequential"
        << (fused ? ", stream-chain" : "") << "): " << pipeline;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScripts, StreamCatalogCrossval,
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

// A stable numeric sort's combiner must order numeric keys: over lines
// whose keys are 1, 2, 9 and 10 (twice spelled, as 10 and 010), each slice
// sorts correctly on its own, so a concat combiner is wrong at k > 1.
TEST(StreamSort, StableNumericSortMatchesSerialAtFourWorkers) {
  const char* pool[] = {"b 1", "a 2", "10 x", "9 y", "010 z"};
  std::mt19937_64 rng(11);
  std::string input;
  for (int i = 0; i < 20000; ++i) {
    input += pool[rng() % 5];
    input += '\n';
  }
  synth::SynthesisCache cache;
  for (const char* line : {"sort -sn", "sort -s -n", "sort -s -k1,1n"}) {
    auto parsed = compile::parse_pipeline(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    compile::Plan plan = compile::compile_pipeline(*parsed, cache);
    const auto stages = compile::lower_plan(plan);
    ExecOptions options;
    options.parallelism = 4;
    options.block_size = 4096;
    ExecResult r = Executor(options).run_collect(stages, input);
    ASSERT_TRUE(r.ok) << line << ": " << r.error;
    EXPECT_EQ(r.output, exec::run_serial(stages, input)) << line;
  }
}

}  // namespace
}  // namespace kq::stream
