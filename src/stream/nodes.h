// Internal to the dataflow runtime (stream/dataflow.h is the public face):
// the state every node of one run shares, one node's ports and telemetry,
// and the node bodies, one file per kind —
//   parallel_node.cpp    feeder, workers (exec::run_slice_fused) and the
//                        collector that combines their parts in order;
//   chain_node.cpp       a fused run of streamable stages, block by block
//                        through one exec::Cascade;
//   sequential_node.cpp  an external sort, or a whole-input run.
// dataflow.cpp places the nodes (stream::place), wires the channels and
// runs each body on its own thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/block_reader.h"
#include "stream/channel.h"
#include "stream/dataflow.h"
#include "stream/spill.h"
#include "stream/sync.h"
#include "unixcmd/sort_cmd.h"

namespace kq::stream {

using Clock = std::chrono::steady_clock;

// Per-node telemetry handles, both optional: `counters` exists only when
// ExecOptions::stats is on, `tracer` only under --trace-json. One
// NodeTelemetry per node lives in run_dataflow for the whole run
// (pool tasks may hold pointers into it until their futures are waited
// out). With both null
// every instrumentation site is a pointer test.
struct NodeTelemetry {
  obs::StageCounters* counters = nullptr;
  obs::Tracer* tracer = nullptr;
  std::string label;  // the node's display name, used in span names

  void note_early_exit(obs::EarlyExit cause) const {
    if (counters) counters->note_early_exit(cause);
  }
};

// State shared by every node of one run: the memory gauge, the chunk
// buffer pool, the first failure, and the teardown fan-out that unblocks
// all waiting nodes.
struct Shared {
  MemoryGauge gauge;
  BufferPool pool;  // recycled block, slice and part buffers
  std::atomic<bool> failed{false};
  std::atomic<bool> stopped{false};  // sink asked for an early stop
  std::atomic<bool> combine_undefined{false};
  sync::Mutex error_mu;  // unranked leaf: held only around the string copy
  std::string error GUARDED_BY(error_mu);
  std::vector<Channel*> channels;     // populated before threads start
  std::vector<Semaphore*> semaphores;
  BlockReader* reader = nullptr;      // cancelled on teardown: wakes a
                                      // node-0 read blocked on an idle pipe

  bool halted() const { return failed.load() || stopped.load(); }

  // A buffer from the run's pool with room for `min_capacity` bytes, the
  // acquire counted against `tele`'s node.
  std::string acquire(std::size_t min_capacity, const NodeTelemetry& tele) {
    if (!tele.counters) return pool.acquire(min_capacity);
    return pool.acquire(min_capacity, &tele.counters->pool_hits,
                        &tele.counters->pool_misses);
  }

  void teardown() {
    for (Channel* c : channels) c->abort();
    for (Semaphore* s : semaphores) s->cancel();
    if (reader) reader->cancel();
  }

  void fail(const std::string& message) {
    bool expected = false;
    if (failed.compare_exchange_strong(expected, true)) {
      sync::MutexLock lock(error_mu);
      error = message;
    }
    teardown();
  }

  // Fails the run with "<what> failed for stage '<stage>': <error>".
  void fail_stage(const char* what, const std::string& stage,
                  const std::string& error) {
    std::string message = what;
    message += " failed for stage '" + stage;
    message += "': " + error;
    fail(message);
  }

  void stop() {  // clean early exit, not an error
    stopped.store(true);
    teardown();
  }
};

using Pull = std::function<std::optional<std::string>()>;
using Push = std::function<bool(std::string&&)>;

// How a node reaches its neighbours. A push fails once downstream closed
// its read side; `out_closed` tells that clean early exit apart from a
// failure. `cancel_upstream` read-closes the input, stops this node's
// feeder if it has one, and cancels the BlockReader.
struct Ports {
  Pull pull;
  Push push;
  std::function<void()> close_out;
  std::function<bool()> out_closed;
  std::function<void()> cancel_upstream;
};

// Per-parallel-node runtime state. Pool tasks run the slices and check
// the parts: the feeder blocks on `slots` and the collector on `results`
// (only a collector's SpillMerger, waiting for its key ranges, runs queued
// pool tasks). That cannot deadlock, as no pool task blocks: a worker's
// push fits in `results` (its capacity exceeds the slot count), and a
// merge's range task pauses by returning.
struct ParallelCtx {
  ParallelCtx(std::size_t inflight, std::size_t slice, MemoryGauge* gauge)
      : results(inflight + 1, gauge), slots(inflight), slice_bytes(slice) {}

  Channel results;
  Semaphore slots;
  std::vector<const cmd::Command*> chain;
  // Workers run exec::run_slice_fused over chunks of `slice_bytes`,
  // cascading internally in exec::kSliceStep steps. A sharded chain is one
  // cascade, so its workers write their parts into pooled buffers.
  bool sharded = false;  // also names the worker span "shard-slice"
  const std::size_t slice_bytes;  // the feeder's chunk target (a ceiling)
  // The collector's legality checks, which each worker runs on its own
  // part (Chunk::legal): the merge's comparator (Combine::kMerge), or the
  // combining stage's fold (Combine::kFold), whose lines_legal reads only
  // the combiner.
  std::shared_ptr<const cmd::SortSpec> merge_spec;
  std::optional<const dsl::Fold> fold;
  std::atomic<std::ptrdiff_t> expected{-1};  // chunk count, once known
  // Set by the collector when downstream closed its read side: the feeder
  // stops pulling (its own input channel is also read-closed, but node 0
  // pulls straight from the BlockReader, which only this flag can stop).
  std::atomic<bool> stop_input{false};

  // Feeder-owned: the chunks submitted so far (the next chunk's index), and
  // the pool tasks that may still be running, oldest first (the feeder
  // drops finished ones as it submits more). run_dataflow waits out the
  // rest after joining the feeder, before the node's state goes away.
  std::size_t submitted = 0;
  std::deque<std::future<void>> tasks;
};

// What a whole-input node holds for its one run: a sequential node's
// drained blocks, or a rerun collector's parts. Each piece is copied into
// the last held buffer, or a new one of kBufferBytes (or the piece's size,
// if larger), and the caller frees the piece. So pieces leave no
// allocation each behind, and every held buffer is large enough to be
// mapped on its own (the CLI pins glibc's mmap threshold at 128 KiB), so
// freeing it after the join gives it back. A piece goes to the allocator,
// not the pool: released, a rerun collector's last parts (which arrive
// after the reader has stopped) sat in the pool through the rerun, and
// `tr -sc` at k=4 over 96 MiB peaked 11 MiB higher.
class HeldInput {
 public:
  static constexpr std::size_t kBufferBytes = 1 << 20;

  void add(std::string_view piece);
  std::size_t pieces() const { return pieces_; }  // added since the join
  // The held bytes in one string reserved to their total, each held buffer
  // freed once copied, so the join holds the input once plus at most one
  // buffer. Leaves nothing held.
  std::string join();

 private:
  std::vector<std::string> buffers_;
  std::size_t size_ = 0;
  std::size_t pieces_ = 0;
};

// The node bodies. Each runs on its own thread until its input ends, it
// is cancelled, or the run halts; all but the feeder close their output.
void run_feeder(ParallelCtx& ctx, NodeMetrics& metrics, const Pull& pull,
                const NodeTelemetry& tele, Shared& shared,
                exec::ThreadPool& pool);
void run_collector(const Placement& node, ParallelCtx& ctx,
                   NodeMetrics& metrics, const Ports& io,
                   const NodeTelemetry& tele, Shared& shared,
                   exec::ThreadPool& pool, const ExecOptions& config);
void run_stream_chain(const Placement& node, NodeMetrics& metrics,
                      const Ports& io, const NodeTelemetry& tele,
                      Shared& shared, const ExecOptions& config);
void run_sequential(const Placement& node, NodeMetrics& metrics,
                    const Ports& io, const NodeTelemetry& tele,
                    Shared& shared, const ExecOptions& config);

}  // namespace kq::stream
