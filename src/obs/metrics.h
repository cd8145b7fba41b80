// Per-stage runtime counters for the streaming executor. One StageCounters
// lives per dataflow node while a run is in flight; the node's own thread,
// its pool workers, and the channels on either side all accumulate into it
// with relaxed atomics (counts are monotone sums — no ordering is needed,
// only eventual totals, which the post-join aggregation into
// kq::ExecResult::nodes observes after every writer thread has exited).
//
// Counter semantics (full prose in docs/OBSERVABILITY.md):
//   records in         — records in the blocks pulled from upstream
//   records out        — records in the pushes downstream accepted
//   send/recv blocked  — wall time spent waiting on a full output channel /
//                        an empty input channel (node 0's recv side is the
//                        BlockReader's poll wait); the "blocked %" column
//   pool hit/miss      — BufferPool acquires served from recycled capacity
//   shard slices       — slices executed by a sharded segment's workers
//   worker busy        — wall time the segment's shard workers spent
//                        executing slices (summed across workers; compare
//                        against the node's span for parallel efficiency)
//   combine            — wall time a parallel node's collector spent
//                        combining: boundary-fold pushes, the deferred
//                        k-way combine, the spill merge (less its
//                        downstream pushes) and the rerun
//   early_exit         — why the node stopped consuming input early
//
// Disabled cost: when stats collection is off no StageCounters exists and
// every instrumentation site reduces to a null test — one branch per block.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

namespace kq::obs {

// Why a node stopped consuming input before end of stream.
enum class EarlyExit : int {
  kNone = 0,
  kPrefixSatisfied,   // a prefix-bounded stage (head) has all it needs
  kDownstreamClosed,  // the consumer side closed (propagated cancellation)
};

const char* early_exit_name(EarlyExit cause);

struct StageCounters {
  std::atomic<std::uint64_t> records_in{0};
  std::atomic<std::uint64_t> records_out{0};
  std::atomic<std::uint64_t> send_blocked_ns{0};
  std::atomic<std::uint64_t> recv_blocked_ns{0};
  std::atomic<std::uint64_t> pool_hits{0};
  std::atomic<std::uint64_t> pool_misses{0};
  std::atomic<std::uint64_t> shard_slices{0};
  std::atomic<std::uint64_t> worker_busy_ns{0};
  std::atomic<std::uint64_t> combine_ns{0};
  std::atomic<int> early_exit{static_cast<int>(EarlyExit::kNone)};

  void note_early_exit(EarlyExit cause) {
    early_exit.store(static_cast<int>(cause), std::memory_order_relaxed);
  }
  EarlyExit early_exit_cause() const {
    return static_cast<EarlyExit>(
        early_exit.load(std::memory_order_relaxed));
  }
};

// Number of records in a record-aligned block: delimiter occurrences, plus
// one for a trailing unterminated record (only the stream's final block can
// carry one, so summing per-block counts is exact).
std::uint64_t count_records(std::string_view data, char delimiter);

}  // namespace kq::obs
