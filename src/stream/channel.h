// Bounded chunk queues connecting dataflow nodes. A Channel carries
// record-aligned chunks between a producer node and a consumer node with
// blocking backpressure on both sides, so the bytes in flight across the
// whole graph stay O(capacity · block_size) regardless of input size — the
// property that lets the streaming runtime chew through inputs larger than
// RAM. A Semaphore bounds the number of chunks a segment may have in
// flight through the worker pool (its feeder acquires per submitted chunk,
// its collector releases per emitted chunk).
//
// Thread safety: all three classes here are fully synchronized — every
// mutable field is GUARDED_BY its lock (sync::Mutex, rank kChannel) and
// the clang-threadsafety CI job proves every access holds it. See
// docs/CONCURRENCY.md for the runtime-wide locking model.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "stream/sync.h"

namespace kq::stream {

using sync::CondVar;
using sync::LockRank;
using sync::Mutex;
using sync::MutexLock;

struct Chunk {
  std::size_t index = 0;  // position in the segment's input order
  std::string bytes;
  // A worker's part whose combining stage got no input: f(""), which the
  // collector leaves out of the combine (x ++ "" = x).
  bool no_input = false;
  // The worker's legality verdict on its part, for the collector's
  // strategy: a merge's sorted-stream check, or a fold's per-line check
  // (dsl::Fold::lines_legal). The collector uses it instead of scanning the
  // part again; false makes the run combine-undefined once the part is
  // combined with another (a lone part passes unchecked).
  bool legal = true;
};

// Chunks with this index are control nudges, not data (see dataflow.cpp).
inline constexpr std::size_t kControlChunk = static_cast<std::size_t>(-1);

// Shared accounting of bytes resident in channels; `peak` is the
// high-water mark over the run, the runtime's bounded-memory witness.
class MemoryGauge {
 public:
  void add(std::size_t n);
  void sub(std::size_t n);
  std::size_t current() const { return current_.load(); }
  std::size_t peak() const { return peak_.load(); }

 private:
  std::atomic<std::size_t> current_{0};
  std::atomic<std::size_t> peak_{0};
};

class Channel {
 public:
  explicit Channel(std::size_t capacity, MemoryGauge* gauge = nullptr);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // Blocks while the channel is full. Returns false (dropping the chunk)
  // once the channel is closed or aborted.
  bool push(Chunk chunk) EXCLUDES(mu_);

  // Blocks while the channel is empty. Returns nullopt once the channel is
  // closed and drained (or aborted).
  std::optional<Chunk> pop() EXCLUDES(mu_);

  // End of stream: no further pushes succeed; pending chunks remain
  // poppable.
  void close() EXCLUDES(mu_);

  // Error teardown: close and discard pending chunks so blocked peers wake
  // immediately.
  void abort() EXCLUDES(mu_);

  // Consumer-side close: the downstream node needs no more input (head
  // satisfied its count, or its own downstream closed). Pending chunks are
  // discarded, blocked producers wake with push() == false, and
  // read_closed() starts returning true — the signal a producer uses to
  // tell a clean early exit from an error teardown, and to propagate the
  // close to *its* upstream. This is how `head -n 10` stops the
  // BlockReader after O(blocks) instead of draining the input.
  void close_read() EXCLUDES(mu_);

  // True once the consumer closed its end (close_read), which a producer
  // may poll mid-drain to stop work whose output nobody will read.
  bool read_closed() const EXCLUDES(mu_);

  std::size_t capacity() const { return capacity_; }

  // Telemetry (src/obs/): blocked-time accumulators for the producer side
  // (push waiting on a full queue) and the consumer side (pop waiting on an
  // empty one), in nanoseconds with relaxed ordering. The pointers are
  // GUARDED_BY(mu_), so wiring is race-free at any point — though the
  // runtime always wires before the connected nodes start, since a late
  // attach silently misses earlier waits. Null (the default) keeps the wait
  // paths clock-free — time is taken only when a wait actually happens AND
  // a counter is attached.
  void set_telemetry(std::atomic<std::uint64_t>* send_blocked_ns,
                     std::atomic<std::uint64_t>* recv_blocked_ns)
      EXCLUDES(mu_) {
    MutexLock lock(mu_);
    send_blocked_ns_ = send_blocked_ns;
    recv_blocked_ns_ = recv_blocked_ns;
  }

 private:
  // Condition waits, with the blocked time charged to the attached
  // telemetry counter. REQUIRES records (and the clang job checks) that
  // the predicate reads happen under mu_.
  void wait_not_full(MutexLock& lock) REQUIRES(mu_);
  void wait_not_empty(MutexLock& lock) REQUIRES(mu_);
  // Close/abort/close_read share their wake-everyone epilogue.
  void drain_and_wake(bool discard) REQUIRES(mu_);

  const std::size_t capacity_;
  MemoryGauge* const gauge_;
  mutable Mutex mu_{LockRank::kChannel};
  CondVar not_full_;
  CondVar not_empty_;
  std::atomic<std::uint64_t>* send_blocked_ns_ GUARDED_BY(mu_) = nullptr;
  std::atomic<std::uint64_t>* recv_blocked_ns_ GUARDED_BY(mu_) = nullptr;
  std::deque<Chunk> queue_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
  bool read_closed_ GUARDED_BY(mu_) = false;
};

class Semaphore {
 public:
  explicit Semaphore(std::size_t slots);

  // Blocks until a slot is free; returns false once cancelled.
  bool acquire() EXCLUDES(mu_);

  void release() EXCLUDES(mu_);

  // Wakes every waiter and makes all future acquires fail (error teardown).
  void cancel() EXCLUDES(mu_);

  // Telemetry: blocked-time accumulator for acquire() waits (a parallel
  // feeder stalled on in-flight backpressure counts as send-blocked).
  // Guarded like Channel's — see the note there.
  void set_telemetry(std::atomic<std::uint64_t>* blocked_ns) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    blocked_ns_ = blocked_ns;
  }

 private:
  void wait_ready(MutexLock& lock) REQUIRES(mu_);

  Mutex mu_{LockRank::kChannel};
  CondVar cv_;
  std::size_t slots_ GUARDED_BY(mu_);
  bool cancelled_ GUARDED_BY(mu_) = false;
  std::atomic<std::uint64_t>* blocked_ns_ GUARDED_BY(mu_) = nullptr;
};

// Recycles chunk-buffer allocations so the steady state of a run reuses
// capacity instead of paying an allocator round trip (and, under the CLI's
// pinned mmap threshold, an mmap, page faults and an munmap) per block. One
// pool serves the whole run, and buffers circulate through it: the reader
// hands out blocks in pooled buffers, a feeder coalesces small blocks into
// one and gives back each block it copied (a sharded feeder sends a block
// of at least half the slice target as it is), a sharded worker writes its
// part into one and gives back its consumed slice, and whoever consumes a
// buffer last (the next node, or the last node once the sink returns)
// releases it. A buffer crosses threads only through this pool and the
// channels.
class BufferPool {
 public:
  // Buffers smaller than this are always left to the allocator, which
  // recycles them from its own free lists without a system call.
  static constexpr std::size_t kMinBytes = 4 << 10;

  // `budget_bytes` bounds the total capacity retained across free buffers
  // (excess releases just deallocate); 0 disables pooling entirely. The
  // byte bound matters for nodes that release much more than they acquire
  // — a window node (tail/uniq/wc) consumes input blocks but emits almost
  // nothing until finish(), so a count bound would retain
  // count · block_size bytes of dead capacity.
  explicit BufferPool(std::size_t budget_bytes = 8 << 20)
      : budget_bytes_(budget_bytes) {}

  // Sizes the pool for a run, before its threads start: the retention
  // budget, and the smallest buffer worth keeping (at least kMinBytes).
  // A run keeps only buffers that hold a block, as the reader's, the
  // feeder's and the workers' acquires all ask for one at least: a smaller
  // leftover (a fitted part, a re-blocked tail) would never be handed out
  // to them, and kept it would take budget from the buffers they use.
  void set_limits(std::size_t budget_bytes, std::size_t min_bytes)
      EXCLUDES(mu_) {
    MutexLock lock(mu_);
    budget_bytes_ = budget_bytes;
    min_bytes_ = std::max(min_bytes, kMinBytes);
  }

  // An empty string with capacity for at least `min_capacity` bytes: the
  // smallest free buffer that large, or a fresh one reserved to
  // `min_capacity` when none is. Best fit keeps a small acquire from taking
  // a buffer a larger one needs. When telemetry counters are
  // passed, a recycled buffer bumps `hits` and a fresh one `misses` — the
  // acquiring node's pool effectiveness for the --stats table.
  std::string acquire(std::size_t min_capacity = 0,
                      std::atomic<std::uint64_t>* hits = nullptr,
                      std::atomic<std::uint64_t>* misses = nullptr)
      EXCLUDES(mu_);
  // Returns a buffer's allocation to the pool (contents are discarded).
  void release(std::string&& buf) EXCLUDES(mu_);

 private:
  Mutex mu_{LockRank::kChannel};
  std::vector<std::string> free_ GUARDED_BY(mu_);
  std::size_t cached_bytes_ GUARDED_BY(mu_) = 0;
  std::size_t budget_bytes_ GUARDED_BY(mu_);
  std::size_t min_bytes_ GUARDED_BY(mu_) = kMinBytes;
};

}  // namespace kq::stream
