// Internal to the dataflow runtime (stream/dataflow.h is the public face):
// the state every node of one run shares, one node's ports and telemetry,
// and the node bodies, one file per kind —
//   parallel_node.cpp    feeder, workers (exec::run_slice_fused) and the
//                        collector that combines their parts in order;
//   chain_node.cpp       a fused run of streamable stages, block by block
//                        through one exec::Cascade;
//   sequential_node.cpp  an external sort, or a spooled whole-stream run.
// dataflow.cpp builds the segments, wires the channels and runs each body
// on its own thread.
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
// NodeTelemetry per segment lives in run_dataflow for the whole run
// (pool tasks may hold pointers into it until their futures are waited
// out). With both null
// every instrumentation site is a pointer test.
struct NodeTelemetry {
  obs::StageCounters* counters = nullptr;
  obs::Tracer* tracer = nullptr;
  std::string label;  // the segment's display name, used in span names

  void note_early_exit(obs::EarlyExit cause) const {
    if (counters) counters->note_early_exit(cause);
  }
};

// A pipeline segment: one node of the dataflow graph. Sequential stages
// become single-stage drain nodes; consecutive parallel stages joined by
// eliminated combiners fuse into one worker chain whose chunk outputs are
// combined by the final stage's combiner; consecutive declared-streamable
// stages fuse into one per-block stream-chain node, optionally terminated
// by a single window-bounded stage (tail -n N, uniq, wc, sort -u) whose
// finish() flushes at end of input. A parallel segment's last stage is its
// combining stage.
struct Segment {
  std::vector<const exec::ExecStage*> chain;
  bool parallel = false;
  bool stream = false;       // per-block chain of cmd::StreamProcessors
  bool window = false;       // chain.back() is a cmd::WindowProcessor stage
  // Parallel segment whose every member runs through a processor cascade
  // (per-record, the terminal possibly a window): its workers take
  // 2 · block_size slices instead of block-sized chunks.
  bool sharded = false;

  std::vector<const cmd::Command*> commands() const {
    std::vector<const cmd::Command*> out;
    for (const exec::ExecStage* s : chain) out.push_back(s->command.get());
    return out;
  }

  std::string display() const {
    std::string out;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      if (i) out += " | ";
      out += chain[i]->command->display_name();
    }
    return out;
  }
};

// State shared by every node of one run: the memory gauge, the chunk
// buffer pool, the first failure, and the teardown fan-out that unblocks
// all waiting nodes.
struct Shared {
  MemoryGauge gauge;
  BufferPool pool;  // recycled chunk buffers for per-block nodes
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

// The comparator a stage sorts its own input under, for the sequential
// external sort and the window spill: lower_plan's sort_spec for a
// plan-sequential stage; re-derived for a plan-parallel one forced
// sequential (at k = 1), whose sort_spec is its merge combiner's — that
// orders f's outputs, not raw input. Null for a command that is no sort.
inline std::shared_ptr<const cmd::SortSpec> own_sort_spec(
    const exec::ExecStage& stage) {
  return stage.parallel ? cmd::sort_spec_of(*stage.command) : stage.sort_spec;
}

using Pull = std::function<std::optional<std::string>()>;
using Push = std::function<bool(std::string&&)>;

// How a node reaches its neighbours. A push fails once downstream closed
// its read side; `out_closed` tells that clean early exit apart from a
// failure. `cancel_upstream` read-closes the input, stops this segment's
// feeder if it has one, and cancels the BlockReader.
struct Ports {
  Pull pull;
  Push push;
  std::function<void()> close_out;
  std::function<bool()> out_closed;
  std::function<void()> cancel_upstream;
};

// Per-parallel-segment runtime state.
struct ParallelCtx {
  ParallelCtx(std::size_t inflight, MemoryGauge* gauge)
      : results(inflight + 1, gauge), slots(inflight) {}

  Channel results;
  Semaphore slots;
  std::vector<const cmd::Command*> chain;
  // Workers run exec::run_slice_fused over chunks of `slice_bytes`,
  // cascading internally in `cascade_step` blocks.
  bool sharded = false;          // names the worker span "shard-slice"
  std::size_t slice_bytes = 0;   // the feeder's coalescing target
  std::size_t cascade_step = 0;  // block size inside a worker's cascade
  std::atomic<std::ptrdiff_t> expected{-1};  // chunk count, once known
  // Set by the collector when downstream closed its read side: the feeder
  // stops pulling (its own input channel is also read-closed, but node 0
  // pulls straight from the BlockReader, which only this flag can stop).
  std::atomic<bool> stop_input{false};

  // Feeder-owned: the chunks submitted so far (the next chunk's index), and
  // the pool tasks that may still be running, oldest first (the feeder
  // drops finished ones as it submits more). run_dataflow waits out the
  // rest after joining the feeder, before the segment's state goes away.
  std::size_t submitted = 0;
  std::deque<std::future<void>> tasks;
};

// The node bodies. Each runs on its own thread until its input ends, it
// is cancelled, or the run halts; all but the feeder close their output.
void run_feeder(ParallelCtx& ctx, NodeMetrics& metrics, const Pull& pull,
                const NodeTelemetry& tele, Shared& shared,
                exec::ThreadPool& pool);
void run_collector(const Segment& seg, ParallelCtx& ctx, NodeMetrics& metrics,
                   const Ports& io, const NodeTelemetry& tele, Shared& shared,
                   exec::ThreadPool& pool, const ExecOptions& config);
void run_stream_chain(const Segment& seg, NodeMetrics& metrics,
                      const Ports& io, const NodeTelemetry& tele,
                      Shared& shared, const ExecOptions& config);
void run_sequential(const Segment& seg, NodeMetrics& metrics, const Ports& io,
                    const NodeTelemetry& tele, Shared& shared,
                    const ExecOptions& config);

}  // namespace kq::stream
