// Record-aligned block acquisition for the streaming runtime. A BlockReader
// turns a byte source (std::istream, file descriptor, or arbitrary read
// callback) into a sequence of blocks of roughly `block_size` bytes whose
// boundaries always fall on record boundaries: every delivered block except
// possibly the last ends with the record delimiter, so no record is ever
// split across blocks and each block is itself a stream in the paper's
// Definition 3.1 sense (the splitter contract of §2, generalized from
// whole-input splitting to bounded incremental reads).
//
// The delimiter defaults to '\n' (the stream model's record terminator; see
// src/prep/delimiters.* for how per-command delimiter alphabets are probed)
// but is configurable for delimiter-probed stages. CRLF input needs no
// special casing — CR bytes travel with their record. A record longer than
// `block_size` is delivered as one oversized block rather than split; input
// with no trailing delimiter delivers its final partial record as the last
// block.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

namespace kq::io {
class FaultPlan;
}

namespace kq::obs {
class Tracer;
}

namespace kq::stream {

struct BlockReaderOptions {
  std::size_t block_size = 1 << 20;  // target block size in bytes
  char delimiter = '\n';             // record terminator to realign on
  // Cap on a single record's size while scanning for its delimiter past
  // the block size: a record that outgrows one block would otherwise
  // accumulate the rest of a delimiter-free input in pending_. When the
  // scan exceeds the cap the stream ends with error() == EMSGSIZE instead
  // of silently ballooning RSS. Records that fit in a block are already
  // bounded by block_size and are never checked, so the effective bound on
  // buffered bytes is max(block_size, max_record_size). 0 = unlimited.
  // The streaming runtime wires this to its spill threshold.
  std::size_t max_record_size = 0;
};

class BlockReader {
 public:
  // Reads up to `n` bytes into `buf`; returns the count, 0 at end of input.
  using ReadFn = std::function<std::size_t(char* buf, std::size_t n)>;

  BlockReader(std::istream& in, BlockReaderOptions options = {});
  // The fd source reads through a kq::io::Engine (src/io/engine.h), which
  // consults `faults` (a test-only seam, must outlive the reader) before
  // every read attempt.
  BlockReader(int fd, BlockReaderOptions options = {},
              io::FaultPlan* faults = nullptr);
  BlockReader(ReadFn read, BlockReaderOptions options = {});

  // The next record-aligned block, or nullopt once the source is exhausted.
  std::optional<std::string> next();

  std::size_t bytes_delivered() const { return bytes_delivered_; }
  const BlockReaderOptions& options() const { return options_; }

  // Nonzero errno-style code when the source failed mid-stream (read(2)
  // error, istream badbit) — the stream delivered so far is a truncated
  // prefix, not the whole input. 0 means clean end of input.
  int error() const { return *error_; }

  // Asks the reader to stop: the next fill ends the stream as a clean EOF
  // (cancellation is a consumer-side "no more input needed", not an
  // error). Safe to call from any thread. The fd source polls with a
  // short timeout between reads, so a reader blocked in a long read(2) on
  // an idle pipe wakes within ~one poll interval instead of at the next
  // block boundary; the istream source reads each block in small slices
  // and checks the flag per slice, so a cancel lands mid-fill after at
  // most one slice (~a few records) instead of a whole block — an istream
  // read itself cannot be interrupted portably, but it need never be asked
  // for more than a slice. The raw callback source checks between fills.
  void cancel() { cancel_->store(true); }
  bool cancelled() const { return cancel_->load(); }

  // Telemetry (src/obs/): a tracer records one "source-fill" span per fill.
  // The pointer is atomic so attaching is race-free even if it happens
  // after the reading thread started; the runtime still wires before
  // spawn (fills that precede the store just go untraced).
  void set_tracer(obs::Tracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }
  // Opts in to timing the fd source's idle waits (poll timeouts while the
  // producer has nothing to read). Off by default so the untelemetered
  // read loop never touches the clock.
  void enable_wait_timing() { time_waits_->store(true); }

  // Nanoseconds the fd source spent waiting for readability (the node-0
  // recv-blocked time in the --stats table). 0 unless wait timing is on.
  std::uint64_t wait_ns() const { return wait_ns_->load(); }

 private:
  void fill();  // pulls one more block-sized slab into pending_

  std::shared_ptr<int> error_ = std::make_shared<int>(0);
  std::shared_ptr<std::atomic<bool>> cancel_ =
      std::make_shared<std::atomic<bool>>(false);
  // Set by the fd source when a zero-timeout poll after a read finds no
  // more data immediately available (a pipe between bursts): next() then
  // flushes the complete records on hand instead of waiting for a full
  // block. Always false for istream/callback sources, whose blocking
  // reads only come up short at end of input.
  std::shared_ptr<std::atomic<bool>> idle_ =
      std::make_shared<std::atomic<bool>>(false);
  // Wait-time accounting for the fd source (shared with its lambda, like
  // cancel_/idle_): enabled on demand, read back via wait_ns().
  std::shared_ptr<std::atomic<bool>> time_waits_ =
      std::make_shared<std::atomic<bool>>(false);
  std::shared_ptr<std::atomic<std::uint64_t>> wait_ns_ =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  std::atomic<obs::Tracer*> tracer_{nullptr};
  ReadFn read_;
  BlockReaderOptions options_;
  std::string pending_;  // bytes read but not yet delivered
  bool eof_ = false;
  std::size_t flush_scan_ = 0;  // idle-flush delimiter scan resume offset
  std::size_t bytes_delivered_ = 0;
};

}  // namespace kq::stream
