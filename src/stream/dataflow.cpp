#include "stream/dataflow.h"

#include <cerrno>
#include <chrono>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>

#include "exec/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/block_reader.h"
#include "stream/channel.h"
#include "stream/spill.h"
#include "stream/sync.h"
#include "text/streams.h"
#include "unixcmd/sort_cmd.h"

namespace kq::stream {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Per-node telemetry handles, both optional: `counters` exists only when
// StreamConfig::stats is on, `tracer` only under --trace-json. One
// NodeTelemetry per segment lives in run_streaming_core for the whole run
// (pool tasks may hold pointers into it until wait_idle()). With both null
// every instrumentation site below is a pointer test.
struct NodeTelemetry {
  obs::StageCounters* counters = nullptr;
  obs::Tracer* tracer = nullptr;
  std::string label;  // the segment's display name, used in span names
};

// A pipeline segment: one node of the dataflow graph. Sequential stages
// become single-stage drain nodes; consecutive parallel stages joined by
// eliminated combiners fuse into one worker chain whose chunk outputs are
// combined by the final stage's combiner; consecutive declared-streamable
// stages fuse into one per-block stream-chain node, optionally terminated
// by a single window-bounded stage (tail -n N, uniq, wc, sort -u) whose
// finish() flushes at end of input.
struct Segment {
  std::vector<const exec::ExecStage*> chain;
  bool parallel = false;
  bool stream = false;       // per-block chain of cmd::StreamProcessors
  bool window = false;       // chain.back() is a cmd::WindowProcessor stage
  // Parallel segment whose workers run fused per-shard stream sub-chains
  // (exec::run_slice_fused) over contiguous record-aligned slices instead
  // of whole-slice Command::run hops; the collector is its combining tree.
  bool sharded = false;
  const exec::ExecStage* combine_stage = nullptr;

  std::string display() const {
    std::string out;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      if (i) out += " | ";
      out += chain[i]->command->display_name();
    }
    return out;
  }
};

// True when the runtime will actually fan this stage out to workers (the
// plan wanted parallelism and the config allows it). A plan-parallel stage
// at k = 1 falls back to a sequential node, where declared streamability
// is strictly better than the materialize drain.
bool runs_parallel(const exec::ExecStage& stage, const StreamConfig& config) {
  return stage.parallel && config.parallelism > 1 && stage.combine != nullptr;
}

// True when the stage may run as (part of) a per-block stream-chain node.
// Streamability is a statement about *record*-aligned blocks, and the
// line-based built-ins define records by '\n', so a custom delimiter keeps
// the materialize path (same rule as the line-based spill paths).
bool stream_chain_stage(const exec::ExecStage& stage,
                        const StreamConfig& config) {
  if (config.delimiter != '\n' || !stage.command) return false;
  const cmd::Streamability s = stage.command->streamability();
  if (s == cmd::Streamability::kNone || s == cmd::Streamability::kWindow)
    return false;
  if (stage.memory_class == exec::MemoryClass::kStatelessStream) return true;
  return !runs_parallel(stage, config) && s == cmd::Streamability::kPerRecord;
}

// True when the stage runs as the window-bounded terminal of a stream
// chain: declared kWindow and effectively sequential (the plan may still
// parallelize a window command like wc through its synthesized combiner;
// the window node only replaces the sequential materialize drain).
bool window_stage(const exec::ExecStage& stage, const StreamConfig& config) {
  if (config.delimiter != '\n' || !stage.command) return false;
  if (stage.command->streamability() != cmd::Streamability::kWindow)
    return false;
  if (stage.memory_class == exec::MemoryClass::kWindowStream) return true;
  return !runs_parallel(stage, config);
}

std::vector<Segment> build_segments(const std::vector<exec::ExecStage>& stages,
                                    const StreamConfig& config) {
  std::vector<Segment> segments;
  const bool parallel_ok = config.parallelism > 1;
  std::size_t i = 0;
  while (i < stages.size()) {
    Segment seg;
    seg.chain.push_back(&stages[i]);
    if (window_stage(stages[i], config)) {
      // A window stage is a complete (single-stage) chain: its finish()
      // emission happens after all input, so nothing can fuse behind it.
      seg.stream = true;
      seg.window = true;
    } else if (stream_chain_stage(stages[i], config)) {
      // Fuse the maximal run of streamable stages into one per-block node:
      // a `grep | tr | cut` chain costs one channel hop, not three. A
      // window stage may join as the chain's terminal member — `grep |
      // uniq` absorbs grep's per-block output directly into the run
      // window — but ends the fusion: its emission order is finish()'s,
      // not the input's.
      seg.stream = true;
      while (i + 1 < stages.size()) {
        if (stream_chain_stage(stages[i + 1], config)) {
          ++i;
          seg.chain.push_back(&stages[i]);
        } else if (window_stage(stages[i + 1], config)) {
          ++i;
          seg.chain.push_back(&stages[i]);
          seg.window = true;
          break;
        } else {
          break;
        }
      }
    } else if (stages[i].parallel && parallel_ok && stages[i].combine) {
      seg.parallel = true;
      // Mirror the batch runner's elimination condition: a stage whose
      // concat combiner is eliminated feeds its substreams straight into
      // the next parallel stage, which here means fusing both into one
      // worker chain. A streamable next stage is left out: it prefers its
      // own stream-chain node (head fused into a worker chain would lose
      // the early exit that makes it O(blocks)).
      while (config.use_elimination && seg.chain.back()->eliminate_combiner &&
             i + 1 < stages.size() && stages[i + 1].parallel &&
             stages[i + 1].combine &&
             !stream_chain_stage(stages[i + 1], config)) {
        ++i;
        seg.chain.push_back(&stages[i]);
      }
      seg.combine_stage = seg.chain.back();
      // Sharded mode: every fused member was recorded shard-eligible by
      // lower_plan AND the chain shape admits a processor cascade — all
      // non-terminal members per-record, the terminal per-record or window
      // (a window's emission happens at slice end, so nothing can cascade
      // behind it inside a shard). Streamability is a statement about
      // '\n'-delimited records, so a custom delimiter keeps the whole-slice
      // worker path.
      if (config.delimiter == '\n') {
        bool ok = true;
        for (std::size_t j = 0; j < seg.chain.size(); ++j) {
          const exec::ExecStage* s = seg.chain[j];
          if (!s->shardable || !s->command) {
            ok = false;
            break;
          }
          const cmd::Streamability sb = s->command->streamability();
          const bool terminal = j + 1 == seg.chain.size();
          if (sb != cmd::Streamability::kPerRecord &&
              !(terminal && sb == cmd::Streamability::kWindow)) {
            ok = false;
            break;
          }
        }
        seg.sharded = ok;
      }
    }
    ++i;
    segments.push_back(std::move(seg));
  }
  return segments;
}

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

  void stop() {  // clean early exit, not an error
    stopped.store(true);
    teardown();
  }
};

using Pull = std::function<std::optional<std::string>()>;
using Push = std::function<bool(std::string&&)>;

// Re-blocks a combined stream for downstream consumption, cutting only at
// record boundaries (records longer than a block travel whole).
bool emit_blocks(std::string_view data, const Push& push,
                 const StreamConfig& config) {
  while (data.size() > config.block_size) {
    std::size_t cut = data.rfind(config.delimiter, config.block_size - 1);
    if (cut == std::string_view::npos) {
      cut = data.find(config.delimiter, config.block_size);
      if (cut == std::string_view::npos) break;
    }
    if (!push(std::string(data.substr(0, cut + 1)))) return false;
    data.remove_prefix(cut + 1);
  }
  if (!data.empty()) return push(std::string(data));
  return true;
}

// Per-parallel-segment runtime state. `completion` lets the driver wait for
// straggler pool tasks before tearing the graph down.
struct ParallelCtx {
  ParallelCtx(std::size_t inflight, MemoryGauge* gauge)
      : results(inflight + 1, gauge), slots(inflight) {}

  Channel results;
  Semaphore slots;
  std::vector<const cmd::Command*> chain;
  // Sharded segment: workers run exec::run_slice_fused over slices of
  // `slice_bytes` (cascading internally in `cascade_step` blocks) instead
  // of whole-slice Command::run hops.
  bool sharded = false;
  std::size_t slice_bytes = 0;   // the feeder's coalescing target
  std::size_t cascade_step = 0;  // block size inside a shard's cascade
  char delimiter = '\n';
  std::atomic<std::ptrdiff_t> expected{-1};  // chunk count, once known
  // Set by the collector when downstream closed its read side: the feeder
  // stops pulling (its own input channel is also read-closed, but node 0
  // pulls straight from the BlockReader, which only this flag can stop).
  std::atomic<bool> stop_input{false};

  // completion_mu is an unranked leaf: held only for counter updates, never
  // while pushing to a channel or recording a span.
  sync::Mutex completion_mu;
  sync::CondVar completion_cv;
  std::size_t tasks_submitted GUARDED_BY(completion_mu) = 0;
  std::size_t tasks_finished GUARDED_BY(completion_mu) = 0;

  void task_submitted() {
    sync::MutexLock lock(completion_mu);
    ++tasks_submitted;
  }

  std::ptrdiff_t submitted_so_far() {
    sync::MutexLock lock(completion_mu);
    return static_cast<std::ptrdiff_t>(tasks_submitted);
  }

  void task_done() {
    sync::MutexLock lock(completion_mu);
    ++tasks_finished;
    completion_cv.notify_all();
  }

  // Call only after the feeder thread has been joined (no new submissions).
  void wait_idle() {
    sync::MutexLock lock(completion_mu);
    while (tasks_finished != tasks_submitted) completion_cv.wait(lock);
  }
};

// Feeder: pulls record-aligned pieces, coalesces them toward the segment's
// chunk target (block_size, or the larger shard slice for sharded
// segments), and fans chunks out to the worker pool under the in-flight
// bound. A feeder out of slots steals queued pool tasks instead of
// sleeping, so an unlucky shard distribution can't idle workers while a
// straggler holds every slot.
void run_feeder(ParallelCtx& ctx, NodeMetrics& metrics, const Pull& pull,
                const NodeTelemetry& tele, Shared& shared,
                exec::ThreadPool& pool, const StreamConfig& config) {
  std::size_t index = 0;
  std::string buf;
  const std::size_t chunk_target =
      ctx.sharded ? ctx.slice_bytes : config.block_size;

  auto acquire_slot = [&] {
    for (;;) {
      if (ctx.slots.try_acquire()) return true;
      if (ctx.slots.cancelled()) return false;
      // No slot free: run someone else's queued task (possibly one of our
      // own in-flight slices, whose completion frees a slot). Worker
      // pushes never block — results capacity exceeds the slot count — so
      // an inlined task always terminates.
      if (!pool.try_run_one()) return ctx.slots.acquire();
    }
  };

  auto submit = [&](std::string&& data) {
    if (!acquire_slot()) return false;
    metrics.chunks += 1;
    metrics.in_bytes += data.size();
    shared.gauge.add(data.size());
    ctx.task_submitted();
    std::size_t idx = index++;
    ParallelCtx* c = &ctx;
    Shared* sh = &shared;
    const NodeTelemetry* t = &tele;
    pool.submit([data = std::move(data), idx, c, sh, t]() mutable {
      std::size_t in_size = data.size();
      try {
        // Worker span: one per pool task, on the worker's own trace row.
        // Name built only when tracing (it concatenates).
        obs::Tracer::Span span;
        if (t->tracer) {
          span = t->tracer->span(
              t->label + (c->sharded ? ": shard-slice" : ": worker-chunk"),
              "block");
          span.arg("chunk", idx);
          span.arg("bytes_in", in_size);
        }
        const auto busy_start = Clock::now();
        std::string current;
        bool fed = true;  // the combining (last) stage got input
        if (c->sharded) {
          // Per-shard sub-chain: the slice cascades through fresh
          // StreamProcessors (window terminal included) in cascade_step
          // blocks — O(block + window) resident per shard, and
          // byte-identical to the Command::run hops by the streamability
          // contract.
          current = exec::run_slice_fused(c->chain, data, c->cascade_step,
                                          c->delimiter, &fed);
        } else {
          current = std::move(data);
          for (const cmd::Command* stage : c->chain) {
            fed = !current.empty();
            current = stage->run(current);
          }
        }
        if (t->counters) {
          t->counters->shard_slices.fetch_add(1, std::memory_order_relaxed);
          t->counters->worker_busy_ns.fetch_add(
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - busy_start)
                      .count()),
              std::memory_order_relaxed);
        }
        span.arg("bytes_out", current.size());
        c->results.push(Chunk{idx, std::move(current), !fed});
      } catch (const std::exception& e) {
        sh->fail(std::string("worker failed: ") + e.what());
      }
      sh->gauge.sub(in_size);
      c->task_done();
    });
    return true;
  };

  while (auto piece = pull()) {
    if (shared.halted() || ctx.stop_input.load()) break;
    if (buf.empty() && piece->size() >= chunk_target) {
      if (!submit(std::move(*piece))) break;
      continue;
    }
    buf += *piece;
    if (buf.size() >= chunk_target) {
      if (!submit(std::move(buf))) break;
      buf.clear();
    }
  }
  if (!shared.halted() && !ctx.stop_input.load()) {
    if (!buf.empty()) submit(std::move(buf));
    // Empty input still runs the chain once, mirroring the batch splitter's
    // single empty chunk, so f("") reaches the output.
    if (index == 0) submit(std::string());
  }
  ctx.expected.store(static_cast<std::ptrdiff_t>(index));
  ctx.results.push(Chunk{kControlChunk, {}});  // wake the collector
}

// Adds a timed section's wall time to StageCounters::combine_ns; reads the
// clock only when stats are on. Downstream pushes made inside the section
// are the node's hand-off, not combining: run them through exclude().
class CombineTimer {
 public:
  explicit CombineTimer(obs::StageCounters* counters) : counters_(counters) {
    if (counters_) start_ = Clock::now();
  }
  ~CombineTimer() {
    if (counters_)
      counters_->combine_ns.fetch_add(nanos_since(start_) - excluded_,
                                      std::memory_order_relaxed);
  }
  CombineTimer(const CombineTimer&) = delete;
  CombineTimer& operator=(const CombineTimer&) = delete;

  template <typename Fn>
  bool exclude(Fn&& fn) {
    if (!counters_) return fn();
    const auto start = Clock::now();
    const bool ok = fn();
    excluded_ += nanos_since(start);
    return ok;
  }

 private:
  static std::uint64_t nanos_since(Clock::time_point start) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  }

  obs::StageCounters* counters_;
  Clock::time_point start_{};
  std::uint64_t excluded_ = 0;
};

// Collector: the segment's combining tree. Restores input order and folds
// each part in through the combining stage's boundary fold (dsl::Fold):
// what no later part can change goes downstream at once — the part's own
// buffer, moved — and only the seam is carried (one line for stitch,
// stitch2 and offset), not the output. Merge and rerun combiners (no
// fold) hold their parts for one k-way combine at end of stream; past the
// spill threshold the held parts hand over to SpillMerger (sorted runs)
// or a RawSpool (the rerun's input). A part whose combining stage got no input
// is f("") and is left out (x ++ "" = x), unless no part had input. While
// waiting for the next part it steals queued pool tasks — often this
// segment's own straggler slices — so the tree keeps combining instead of
// idling. `out_closed` distinguishes a push that failed because downstream
// closed its read side (clean early exit: cancel upstream, no error) from
// a combine failure; `cancel_upstream` stops this segment's feeder and
// read-closes its input.
void run_collector(const Segment& seg, ParallelCtx& ctx, NodeMetrics& metrics,
                   const Push& push, const std::function<void()>& close_out,
                   const std::function<bool()>& out_closed,
                   const std::function<void()>& cancel_upstream,
                   const NodeTelemetry& tele, Shared& shared,
                   exec::ThreadPool& pool, const StreamConfig& config) {
  std::map<std::size_t, Chunk> out_of_order;
  std::size_t next_emit = 0;
  const exec::ExecStage& cstage = *seg.combine_stage;

  // The stage's boundary fold. A stage built without one (not through
  // lower_plan) streams when concat is plausible and otherwise defers to
  // one k-way `combine`, like merge and rerun.
  std::optional<dsl::Fold> fold;
  if (cstage.fold) {
    fold = cstage.fold();
  } else if (cstage.concat_combiner) {
    fold.emplace(dsl::combiner_concat());
  }
  metrics.streamed_combine = fold && fold->streams();
  std::vector<std::string> pieces;    // one push's settled output
  std::string partial;                // a trailing record still open
  std::vector<std::string> deferred;  // held parts, no fold
  std::size_t deferred_bytes = 0;
  bool any_input = false;              // some part's combining stage had input
  std::optional<std::string> no_input;  // f(""), while no part had input

  // Merge-mode combiners (defer + sortable) stop holding their parts once
  // those exceed the spill threshold: each part is a sorted run, so
  // batches spill to disk and one streaming k-way merge feeds the sink
  // directly — O(threshold) resident instead of O(sum of chunk outputs).
  // Engaged lazily so sub-threshold runs keep the exact apply_k path
  // (including composite-combiner fallback, which the spill path gives up:
  // a part failing the merge legality check below fails the run as
  // combine-undefined instead of trying a sibling combiner).
  // (Requires '\n' records: the merged result is newline-joined lines, so
  // under any other delimiter the re-blocked pushes could split records.)
  const bool spillable_merge =
      cstage.defer_combine && cstage.sort_spec != nullptr &&
      cstage.memory_class == exec::MemoryClass::kSortableSpill &&
      config.spill_threshold != 0 && config.delimiter == '\n';
  std::unique_ptr<SpillMerger> merger;

  // Rerun combiners concatenate all partial outputs and rerun the command
  // once (dsl::combine_k's kRerun), so past the threshold the held parts
  // spool to disk and the concatenation materializes only for that one
  // rerun — the same O(threshold)-while-draining bound as the sequential
  // materialize node.
  const bool spoolable_rerun =
      cstage.defer_combine && cstage.rerun_combiner && cstage.command &&
      config.spill_threshold != 0;
  std::unique_ptr<RawSpool> spool;

  // The merge combiner's legality predicate, as in dsl::combine_k's kMerge.
  auto mergeable_part = [&](std::string_view part) {
    return part.empty() || (text::is_stream(part) &&
                            cstage.sort_spec->is_sorted_stream(part));
  };

  auto spill_part = [&](std::string&& part) -> bool {
    if (!mergeable_part(part)) return false;  // combine undefined
    if (!merger->add(std::move(part))) {
      shared.fail("spill failed for stage '" +
                  cstage.command->display_name() + "': " + merger->error());
      return false;
    }
    return true;
  };

  auto spool_part = [&](std::string_view part) -> bool {
    if (!spool->add(part)) {
      shared.fail("spill failed for stage '" +
                  cstage.command->display_name() + "': " + spool->error());
      return false;
    }
    return true;
  };

  // Settled output goes downstream at record boundaries: a piece that ends
  // mid-record (a custom delimiter, an unterminated concat part) holds its
  // open record back for the next piece. A '\n' stream moves through whole.
  auto emit = [&](std::string&& piece) -> bool {
    metrics.out_bytes += piece.size();
    if (partial.empty() && !piece.empty() && piece.back() == config.delimiter)
      return push(std::move(piece));
    partial += piece;
    const std::size_t cut = partial.rfind(config.delimiter);
    if (cut == std::string::npos) return true;
    std::string open = partial.substr(cut + 1);
    partial.resize(cut + 1);
    const bool ok = push(std::move(partial));
    partial = std::move(open);
    return ok;
  };

  auto take_part = [&](Chunk&& part) -> bool {
    if (part.no_input) {
      if (!any_input && !no_input) no_input = std::move(part.bytes);
      return true;
    }
    any_input = true;
    no_input.reset();
    if (merger) return spill_part(std::move(part.bytes));
    if (spool) return spool_part(part.bytes);
    if (fold) {
      {
        auto span = obs::span(tele.tracer, "combine-fold", "combine");
        span.arg("part", part.index);
        span.arg("bytes", part.bytes.size());
        CombineTimer timer(tele.counters);
        if (!fold->push(std::move(part.bytes), &pieces)) return false;
      }
      for (std::string& piece : pieces)
        if (!emit(std::move(piece))) return false;
      pieces.clear();
      return true;
    }
    deferred_bytes += part.bytes.size();
    deferred.push_back(std::move(part.bytes));
    // Held parts migrate to disk once they outgrow the spill threshold:
    // sorted runs for merge combiners, a raw spool for rerun combiners. (A
    // single part stays on the combine path, which passes it through
    // unchecked; spilling engages only once there are parts to combine.)
    if (deferred_bytes >= config.spill_threshold && deferred.size() > 1) {
      if (spillable_merge) {
        merger = std::make_unique<SpillMerger>(
            cstage.sort_spec, SpillMerger::Input::kSortedParts,
            config.spill_threshold, &shared.gauge, config.io, tele.counters);
        merger->set_telemetry(tele.tracer, tele.label);
        for (std::string& held : deferred)
          if (!spill_part(std::move(held))) return false;
      } else if (spoolable_rerun) {
        spool = std::make_unique<RawSpool>(config.spill_threshold,
                                           &shared.gauge, config.io,
                                           tele.counters);
        spool->set_telemetry(tele.tracer, tele.label);
        for (const std::string& held : deferred)
          if (!spool_part(held)) return false;
      }
      if (merger || spool) {
        deferred.clear();
        deferred_bytes = 0;
      }
    }
    return true;
  };

  auto fail_undefined = [&] {
    shared.combine_undefined.store(true);
    shared.fail("incremental combine undefined for stage '" +
                cstage.command->display_name() + "'");
  };

  bool failed_here = false;
  while (true) {
    std::ptrdiff_t expected = ctx.expected.load();
    if (expected >= 0 && next_emit == static_cast<std::size_t>(expected))
      break;
    // Work-stealing wait: drain the channel non-blocking first; when it is
    // empty, run a queued pool task (likely one of this segment's own
    // in-flight slices) instead of sleeping, and only block when the pool
    // has nothing either. Inlined tasks always terminate: worker pushes
    // never block (results capacity exceeds the slot count).
    std::optional<Chunk> chunk;
    for (;;) {
      chunk = ctx.results.try_pop();
      if (chunk) break;
      if (!pool.try_run_one()) {
        chunk = ctx.results.pop();
        break;
      }
    }
    if (!chunk) {  // aborted, or closed and drained
      failed_here = true;
      break;
    }
    if (chunk->index == kControlChunk) continue;  // nudge: recheck expected
    const std::size_t index = chunk->index;
    out_of_order[index] = std::move(*chunk);
    while (!out_of_order.empty() &&
           out_of_order.begin()->first == next_emit) {
      Chunk part = std::move(out_of_order.begin()->second);
      out_of_order.erase(out_of_order.begin());
      bool ok = take_part(std::move(part));
      ctx.slots.release();
      ++next_emit;
      if (!ok) {
        if (!shared.halted()) {
          if (out_closed()) {
            // Downstream has all it needs (a satisfied head, or a closed
            // sink further down): clean local stop, propagated upstream.
            if (tele.counters)
              tele.counters->note_early_exit(
                  obs::EarlyExit::kDownstreamClosed);
            cancel_upstream();
          } else {
            fail_undefined();
          }
        }
        failed_here = true;
        break;
      }
    }
    if (failed_here) break;
  }

  if (!failed_here && !shared.halted()) {
    // No part had input (an empty stream): f("") is the output.
    bool ok = true;
    if (!any_input && no_input)
      ok = take_part(Chunk{next_emit, std::move(*no_input)});
    if (!ok) {
      if (!shared.halted() && !out_closed()) fail_undefined();
    } else if (merger) {
      CombineTimer timer(tele.counters);
      ok = merger->finish(
          [&](std::string&& block) {
            metrics.out_bytes += block.size();
            return timer.exclude([&] { return push(std::move(block)); });
          },
          config.block_size);
      if (!ok && !shared.halted() && !out_closed())
        shared.fail("spill merge failed for stage '" +
                    cstage.command->display_name() +
                    "': " + merger->error());
    } else if (spool) {
      // The k-way rerun: run the command once over the concatenation of
      // every spooled part (mirroring dsl::combine_k's kRerun).
      std::string joined;
      if (!spool->take(&joined)) {
        shared.fail("spill failed for stage '" +
                    cstage.command->display_name() + "': " + spool->error());
      } else {
        auto span =
            obs::span(tele.tracer, tele.label + ": combine-rerun", "combine");
        span.arg("bytes_in", joined.size());
        cmd::Result rerun;
        {
          CombineTimer timer(tele.counters);
          rerun = cstage.command->execute(joined);
        }
        joined.clear();
        joined.shrink_to_fit();
        if (!rerun.ok()) {
          fail_undefined();
        } else {
          metrics.out_bytes += rerun.out.size();
          emit_blocks(rerun.out, push, config);
        }
      }
    } else {
      // The fold's carried boundary, or the deferred k-way combine.
      std::optional<std::string> rest;
      {
        CombineTimer timer(tele.counters);
        if (fold) {
          rest = fold->finish();
        } else {
          rest = cstage.combine(deferred);
        }
      }
      deferred.clear();
      ok = rest.has_value();
      if (ok) {
        metrics.out_bytes += rest->size();
        partial += *rest;
        ok = emit_blocks(partial, push, config);
      }
      if (!ok && !shared.halted() && !out_closed()) fail_undefined();
    }
  }
  if (merger) {
    metrics.spilled_bytes = merger->spilled_bytes();
    metrics.spill_runs = merger->runs_spilled();
  } else if (spool) {
    metrics.spilled_bytes = spool->spilled_bytes();
  }
  if (tele.counters) {
    tele.counters->spill_runs.store(
        static_cast<std::uint64_t>(metrics.spill_runs),
        std::memory_order_relaxed);
    tele.counters->spill_bytes.store(metrics.spilled_bytes,
                                     std::memory_order_relaxed);
  }
  close_out();
}

// Sequential node. Built-in sort stages run as an external merge sort:
// bounded runs spill to disk sorted under the command's own comparator and
// stream back merged, byte-identical to running the command whole (the
// spec *is* the command) at O(threshold) resident. Everything else drains
// through a raw spool (disk past the spill threshold), runs the stage once
// on the whole stream — the floor for a black-box command — and re-blocks
// the output for downstream nodes.
void run_sequential(const Segment& seg, NodeMetrics& metrics, const Pull& pull,
                    const Push& push, const std::function<void()>& close_out,
                    const std::function<bool()>& out_closed,
                    const std::function<void()>& cancel_upstream,
                    const NodeTelemetry& tele, Shared& shared,
                    const StreamConfig& config) {
  const exec::ExecStage& stage = *seg.chain.front();
  // A dead downstream makes the whole drain-and-execute pointless: poll the
  // output side while pulling so a closed sink stops a materialize stage
  // mid-drain too, and propagate the close to our own upstream.
  bool abandoned = false;
  // External sorting needs the command's *own* spec and '\n' records (sort
  // is line-based). A plan-sequential sortable stage carries its own spec
  // in sort_spec (lower_plan); a plan-parallel stage forced sequential by
  // runtime parallelism carries its *merge* spec there, which orders f's
  // outputs, not raw input — re-derive the command's own spec for it (null
  // for non-sort commands, which then materialize below).
  std::shared_ptr<const cmd::SortSpec> spec;
  if (stage.memory_class == exec::MemoryClass::kSortableSpill &&
      config.delimiter == '\n' && stage.command)
    spec = stage.parallel ? cmd::sort_spec_of(*stage.command)
                          : stage.sort_spec;

  if (spec) {
    SpillMerger sorter(std::move(spec), SpillMerger::Input::kUnsortedBlocks,
                       config.spill_threshold, &shared.gauge, config.io,
                       tele.counters);
    sorter.set_telemetry(tele.tracer, tele.label);
    bool ok = true;
    while (auto piece = pull()) {
      if (shared.halted()) break;
      if (out_closed()) {
        abandoned = true;
        break;
      }
      metrics.chunks += 1;
      metrics.in_bytes += piece->size();
      if (!sorter.add(std::move(*piece))) {
        ok = false;
        break;
      }
    }
    if (abandoned) {
      if (tele.counters)
        tele.counters->note_early_exit(obs::EarlyExit::kDownstreamClosed);
      cancel_upstream();
    }
    if (ok && !abandoned && !shared.halted()) {
      ok = sorter.finish(
          [&](std::string&& block) {
            metrics.out_bytes += block.size();
            return push(std::move(block));
          },
          config.block_size);
      // A push that failed because the consumer closed mid-merge is the
      // downstream-closed early exit, not a sort failure (the !out_closed()
      // guard below already keeps it out of shared.fail).
      if (!ok && out_closed() && tele.counters)
        tele.counters->note_early_exit(obs::EarlyExit::kDownstreamClosed);
    }
    metrics.spilled_bytes = sorter.spilled_bytes();
    metrics.spill_runs = sorter.runs_spilled();
    if (tele.counters) {
      tele.counters->spill_runs.store(
          static_cast<std::uint64_t>(metrics.spill_runs),
          std::memory_order_relaxed);
      tele.counters->spill_bytes.store(metrics.spilled_bytes,
                                       std::memory_order_relaxed);
    }
    if (!ok && !shared.halted() && !out_closed())
      shared.fail("external sort failed for stage '" +
                  stage.command->display_name() + "': " + sorter.error());
    close_out();
    return;
  }

  RawSpool spool(config.spill_threshold, &shared.gauge, config.io,
                 tele.counters);
  spool.set_telemetry(tele.tracer, tele.label);
  bool ok = true;
  while (auto piece = pull()) {
    if (shared.halted()) break;
    if (out_closed()) {
      abandoned = true;
      break;
    }
    metrics.chunks += 1;
    metrics.in_bytes += piece->size();
    if (!spool.add(*piece)) {
      ok = false;
      break;
    }
  }
  if (abandoned) {
    if (tele.counters)
      tele.counters->note_early_exit(obs::EarlyExit::kDownstreamClosed);
    cancel_upstream();
  }
  if (!shared.halted() && !abandoned) {
    metrics.spilled_bytes = spool.spilled_bytes();
    if (tele.counters)
      tele.counters->spill_bytes.store(metrics.spilled_bytes,
                                       std::memory_order_relaxed);
    std::string all;
    if (ok) ok = spool.take(&all);
    if (!ok) {
      shared.fail("input spool failed for stage '" + seg.display() +
                  "': " + spool.error());
    } else {
      auto span = obs::span(tele.tracer, tele.label + ": execute", "node");
      span.arg("bytes_in", all.size());
      std::string out = stage.command->run(all);
      all.clear();
      all.shrink_to_fit();
      metrics.out_bytes = out.size();
      if (!emit_blocks(out, push, config) && out_closed() && tele.counters)
        tele.counters->note_early_exit(obs::EarlyExit::kDownstreamClosed);
    }
  }
  close_out();
}

// Per-block stream-chain node: the fused run of declared-streamable stages
// (exec::MemoryClass::kStatelessStream). Each pulled block cascades through
// the chain's StreamProcessors and the final output is pushed downstream —
// nothing is accumulated, so the node holds O(block) regardless of input
// size. When a prefix-bounded processor (head) reports its output complete,
// the node stops pulling and cancels upstream so the whole graph behind it
// (ultimately the BlockReader) stops; when downstream closes, the same
// cancellation propagates backward. Chain-intermediate buffers are reused
// across blocks, consumed input blocks return to the shared pool, and push
// buffers come from it — stateful processors (tr, sed, head) then append
// into recycled capacity; PerBlockProcessor-backed stages still pay their
// execute()'s internal allocation, which the pool cannot reach.
void run_stream_chain(const Segment& seg, NodeMetrics& metrics,
                      const Pull& pull, const Push& push,
                      const std::function<void()>& close_out,
                      const std::function<bool()>& out_closed,
                      const std::function<void()>& cancel_upstream,
                      const NodeTelemetry& tele, Shared& shared,
                      const StreamConfig& config) {
  // Pool-effectiveness counters, threaded into every acquire below (null
  // when stats are off — BufferPool then skips the bumps).
  std::atomic<std::uint64_t>* pool_hits =
      tele.counters ? &tele.counters->pool_hits : nullptr;
  std::atomic<std::uint64_t>* pool_misses =
      tele.counters ? &tele.counters->pool_misses : nullptr;
  const std::size_t n = seg.chain.size();
  // A window terminal (seg.window) absorbs the chain's output into a
  // WindowProcessor instead of pushing it; the first m stages are ordinary
  // per-block StreamProcessors.
  const std::size_t m = seg.window ? n - 1 : n;
  std::vector<std::unique_ptr<cmd::StreamProcessor>> procs;
  procs.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    auto p = seg.chain[j]->command->stream_processor();
    if (!p) {  // classification bug; fail loudly rather than drop data
      shared.fail("stage '" + seg.chain[j]->command->display_name() +
                  "' classified streamable but has no stream processor");
      close_out();
      return;
    }
    procs.push_back(std::move(p));
  }
  const exec::ExecStage* wstage = seg.window ? seg.chain.back() : nullptr;
  std::unique_ptr<cmd::WindowProcessor> window;
  if (wstage) {
    window = wstage->command->window_processor();
    if (!window) {
      shared.fail("stage '" + wstage->command->display_name() +
                  "' classified window-bounded but has no window processor");
      close_out();
      return;
    }
  }

  // A sort -u window whose distinct set outgrows the spill threshold
  // exports sorted runs to disk (the window state is itself a sorted -u
  // stream) and re-streams the k-way merge at end of input — the same
  // external-merge bound as kSortableSpill, reached only when the window
  // stops being small. The merge needs the command's *own* spec: a
  // plan-parallel stage forced sequential at k = 1 carries its combiner's
  // merge spec in sort_spec (it orders f's outputs, not raw input), so
  // re-derive for it — the same rule run_sequential applies.
  std::shared_ptr<const cmd::SortSpec> wspec;
  if (wstage && config.spill_threshold != 0)
    wspec = wstage->parallel ? cmd::sort_spec_of(*wstage->command)
                             : wstage->sort_spec;
  bool window_spillable = wspec != nullptr;
  std::unique_ptr<SpillMerger> merger;
  auto spill_window = [&]() -> bool {
    if (!window_spillable ||
        window->state_bytes() < config.spill_threshold)
      return true;
    std::string run;
    if (!window->drain_sorted_run(&run)) {
      window_spillable = false;  // processor keeps its state resident
      return true;
    }
    if (!merger) {
      merger = std::make_unique<SpillMerger>(
          wspec, SpillMerger::Input::kSortedParts, config.spill_threshold,
          &shared.gauge, config.io, tele.counters);
      merger->set_telemetry(tele.tracer, tele.label);
    }
    if (!merger->add(std::move(run))) {
      shared.fail("spill failed for stage '" +
                  wstage->command->display_name() + "': " + merger->error());
      return false;
    }
    return true;
  };

  std::vector<std::string> bufs(m);      // intermediates, reused per block
  std::vector<bool> done(m, false);      // output complete (kPrefix bound)
  bool pushed_ok = true;

  // Cascades `data` through processors [from, m); the result is absorbed
  // by the window terminal when there is one, pushed downstream otherwise.
  // from == m delivers `data` itself (finish() tails).
  auto feed = [&](std::string_view data, std::size_t from) -> bool {
    std::string_view cur = data;
    std::string out;  // pooled buffer holding the final emission
    bool have_out = false;
    for (std::size_t j = from; j < m; ++j) {
      if (done[j]) return true;  // complete: the rest of the chain saw all
      std::string* target = &bufs[j];
      if (!window && j + 1 == m) {
        out = shared.pool.acquire(pool_hits, pool_misses);
        target = &out;
        have_out = true;
      }
      target->clear();
      if (!procs[j]->process(cur, target)) done[j] = true;
      cur = *target;
    }
    if (window) {
      if (cur.empty()) return true;
      out = shared.pool.acquire(pool_hits, pool_misses);
      window->push(cur, &out);  // emits only what later input can't change
      if (!spill_window()) {
        shared.pool.release(std::move(out));
        return false;
      }
      if (out.empty()) {
        shared.pool.release(std::move(out));
        return true;
      }
    } else {
      if (cur.empty()) {
        if (have_out) shared.pool.release(std::move(out));
        return true;
      }
      if (!have_out) out.assign(cur);
    }
    const std::size_t pushed = out.size();
    if (!push(std::move(out))) return false;
    metrics.out_bytes += pushed;  // count only what downstream accepted
    return true;
  };

  auto input_done = [&] {
    for (std::size_t j = 0; j < m; ++j)
      if (done[j]) return true;  // some stage needs no further input
    return false;
  };

  bool down_closed = false;
  while (!input_done()) {
    auto piece = pull();
    if (!piece) break;
    if (shared.halted()) break;
    if (out_closed()) {
      down_closed = true;
      break;
    }
    metrics.chunks += 1;
    metrics.in_bytes += piece->size();
    {
      auto span = obs::span(tele.tracer, "process-block", "block");
      span.arg("bytes", piece->size());
      pushed_ok = feed(*piece, 0);
    }
    shared.pool.release(std::move(*piece));
    if (!pushed_ok) {
      if (!shared.halted() && out_closed()) down_closed = true;
      break;
    }
  }

  const bool early = input_done();
  if (tele.counters) {
    if (early)
      tele.counters->note_early_exit(obs::EarlyExit::kPrefixSatisfied);
    else if (down_closed)
      tele.counters->note_early_exit(obs::EarlyExit::kDownstreamClosed);
  }
  if ((early || down_closed) && !shared.halted()) cancel_upstream();

  if (pushed_ok && !down_closed && !shared.halted()) {
    // End-of-input flush: tail state of each still-open processor cascades
    // through the rest of the chain (and into the window terminal). Stages
    // before a completed one are skipped — their output could only feed a
    // stage that needs nothing.
    std::size_t first = 0;
    while (first < m && !done[first]) ++first;
    std::string tail;
    bool flushed_ok = true;
    for (std::size_t j = (first < m ? first + 1 : 0); j < m; ++j) {
      if (done[j]) continue;
      tail.clear();
      procs[j]->finish(&tail);
      if (!tail.empty() && !feed(tail, j + 1)) {
        flushed_ok = false;
        break;
      }
    }
    if (window && flushed_ok && !shared.halted()) {
      if (merger) {
        // Spilled window: seal any cross-record residue into the window
        // state (a fused top-k's pending uniq run; plain windows no-op),
        // the resident remainder becomes the final sorted run, and the
        // external k-way merge re-streams the result — capped at the
        // window's output limit (a fused top-n emits only its first N
        // records of the merged union).
        auto span = obs::span(tele.tracer, "window-seal", "window");
        std::string sealed;
        window->seal(&sealed);
        bool ok = true;
        if (!sealed.empty()) {
          const std::size_t pushed = sealed.size();
          ok = push(std::move(sealed));
          if (ok) metrics.out_bytes += pushed;
        }
        std::string last;
        if (ok && window->drain_sorted_run(&last) && !last.empty())
          ok = merger->add(std::move(last));
        const std::optional<std::size_t> limit = window->output_limit();
        std::size_t remaining = limit.value_or(0);
        if (ok)
          ok = merger->finish(
              [&](std::string&& block) {
                bool more = true;
                if (limit) {
                  // Trim to the first `remaining` records. Merged blocks
                  // are record-aligned, so counting '\n' is exact.
                  std::size_t pos = 0, records = 0;
                  while (pos < block.size() && records < remaining) {
                    std::size_t nl = block.find('\n', pos);
                    pos = nl == std::string::npos ? block.size() : nl + 1;
                    ++records;
                  }
                  block.resize(pos);
                  remaining -= records;
                  more = remaining > 0;
                }
                if (block.empty()) return more;
                metrics.out_bytes += block.size();
                if (!push(std::move(block))) return false;
                return more;
              },
              config.block_size);
        if (!ok && !shared.halted() && !out_closed())
          shared.fail("spill merge failed for stage '" +
                      wstage->command->display_name() +
                      "': " + merger->error());
      } else {
        // Window flush: emission stops the moment downstream closes —
        // cancellation propagates through finish().
        auto span = obs::span(tele.tracer, "window-finish", "window");
        window->finish([&](std::string_view piece) {
          if (piece.empty()) return true;
          if (shared.halted() || out_closed()) return false;
          std::string out = shared.pool.acquire(pool_hits, pool_misses);
          out.assign(piece);
          const std::size_t pushed = out.size();
          if (!push(std::move(out))) return false;
          metrics.out_bytes += pushed;
          return true;
        });
      }
    }
  }
  if (merger) {
    metrics.spilled_bytes = merger->spilled_bytes();
    metrics.spill_runs = merger->runs_spilled();
    if (tele.counters) {
      tele.counters->spill_runs.store(
          static_cast<std::uint64_t>(metrics.spill_runs),
          std::memory_order_relaxed);
      tele.counters->spill_bytes.store(metrics.spilled_bytes,
                                       std::memory_order_relaxed);
    }
  }
  close_out();
}

StreamConfig sanitize(StreamConfig config) {
  if (config.parallelism < 1) config.parallelism = 1;
  if (config.block_size == 0) config.block_size = 1;
  if (config.max_inflight == 0)
    config.max_inflight =
        2 * static_cast<std::size_t>(config.parallelism) + 2;
  // Resolve kAuto once so every spill file and the result label agree on
  // the backend (KQ_IO_BACKEND / kernel probe; see src/io/engine.h).
  config.io.backend = io::resolve_backend(config.io.backend);
  return config;
}

// The memory class the runtime *actually* gives this node — mirrors the
// dispatch in run_streaming_core/run_sequential rather than echoing the
// plan's label (a plan-sortable stage under a custom delimiter
// materializes; a parallel segment's residency is its combiner's).
const char* node_memory_label(const Segment& seg, const StreamConfig& config) {
  if (seg.window) return "window-stream";
  if (seg.stream) return "stateless-stream";
  if (seg.parallel) {
    if (seg.sharded) {
      // Shard workers hold O(block + window) each; the combining tree's
      // residency is the combiner's (concat streams, merge spills).
      switch (seg.combine_stage->memory_class) {
        case exec::MemoryClass::kSortableSpill: return "sharded-spill-merge";
        case exec::MemoryClass::kStreaming: return "sharded-streaming";
        default: return "sharded";
      }
    }
    return exec::memory_class_name(seg.combine_stage->memory_class);
  }
  const exec::ExecStage& stage = *seg.chain.front();
  if (stage.memory_class == exec::MemoryClass::kSortableSpill &&
      config.delimiter == '\n' && stage.command)
    return "sortable-spill";
  return "materialize";
}

StreamResult run_streaming_core(const std::vector<exec::ExecStage>& stages,
                                BlockReader& reader, const Sink& sink,
                                exec::ThreadPool& pool,
                                const StreamConfig& raw_config) {
  const StreamConfig config = sanitize(raw_config);
  StreamResult result;
  result.io_backend = io::backend_name(config.io.backend);
  auto start = Clock::now();

  auto read_error_message = [&config](int err) {
    if (err == EMSGSIZE)
      return "input record larger than the spill threshold (" +
             std::to_string(config.spill_threshold) +
             " bytes) with no delimiter in sight; raise --spill-threshold "
             "or check --delimiter: output truncated";
    return "input read error (errno " + std::to_string(err) +
           "): output truncated";
  };

  if (stages.empty()) {  // identity pipeline: forward blocks
    while (auto block = reader.next()) {
      if (!sink(*block)) {
        result.stopped_early = true;
        break;
      }
    }
    if (!result.stopped_early && reader.error() != 0) {
      result.ok = false;
      result.error = read_error_message(reader.error());
    }
    result.bytes_read = reader.bytes_delivered();
    result.seconds = seconds_since(start);
    return result;
  }

  std::vector<Segment> segments = build_segments(stages, config);
  const std::size_t n = segments.size();

  Shared shared;
  shared.reader = &reader;
  if (config.tracer) reader.set_tracer(config.tracer);
  // The pool may retain at most one in-flight budget of free capacity:
  // enough for steady-state circulation, without letting a release-heavy
  // node (a window absorbing blocks and emitting nothing) park the whole
  // stream's blocks as dead pool capacity.
  shared.pool.set_budget(config.max_inflight * config.block_size);
  std::vector<std::unique_ptr<Channel>> links;  // segment i -> i+1
  for (std::size_t i = 0; i + 1 < n; ++i)
    links.push_back(
        std::make_unique<Channel>(config.max_inflight, &shared.gauge));

  std::vector<std::unique_ptr<ParallelCtx>> ctxs(n);
  // One telemetry bundle per node; counters allocate only under stats so
  // the disabled run carries null pointers everywhere.
  std::vector<std::unique_ptr<obs::StageCounters>> counters;
  std::vector<NodeTelemetry> teles(n);
  if (config.stats) {
    counters.resize(n);
    reader.enable_wait_timing();
  }
  result.nodes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.nodes[i].commands = segments[i].display();
    result.nodes[i].parallel = segments[i].parallel;
    result.nodes[i].per_block = segments[i].stream;
    result.nodes[i].window = segments[i].window;
    result.nodes[i].sharded = segments[i].sharded;
    if (config.stats) {
      counters[i] = std::make_unique<obs::StageCounters>();
      teles[i].counters = counters[i].get();
      result.nodes[i].memory = node_memory_label(segments[i], config);
    }
    teles[i].tracer = config.tracer;
    teles[i].label = result.nodes[i].commands;
    if (segments[i].parallel) {
      // Sharded segments fan out in slices larger than a block (fewer
      // combine-tree parts, fewer processor setups) and scale the in-flight
      // slot count down to keep the same byte budget
      // (max_inflight · block_size); the floor of parallelism + 1 slots
      // keeps every worker busy plus one slice queued.
      std::size_t inflight = config.max_inflight;
      std::size_t slice = config.block_size;
      if (segments[i].sharded) {
        slice = config.shard_slice != 0 ? config.shard_slice
                                        : 2 * config.block_size;
        if (slice < config.block_size) slice = config.block_size;
        const std::size_t budget = config.max_inflight * config.block_size;
        inflight = std::max<std::size_t>(
            static_cast<std::size_t>(config.parallelism) + 1,
            (budget + slice - 1) / slice);
        result.nodes[i].shard_slice_bytes = slice;
      }
      ctxs[i] = std::make_unique<ParallelCtx>(inflight, &shared.gauge);
      ctxs[i]->sharded = segments[i].sharded;
      ctxs[i]->slice_bytes = slice;
      ctxs[i]->cascade_step = config.block_size;
      ctxs[i]->delimiter = config.delimiter;
      for (const exec::ExecStage* s : segments[i].chain)
        ctxs[i]->chain.push_back(s->command.get());
      // A feeder stalled on the in-flight bound is send-blocked: its
      // output backpressure arrives through the slot semaphore.
      if (config.stats)
        ctxs[i]->slots.set_telemetry(&counters[i]->send_blocked_ns);
    }
  }
  if (config.stats) {
    // Node 0 pulls straight from the reader: its fd-source engine's
    // sqe_batches/cqe_waits belong to node 0's counters (null engine for
    // istream sources; spill engines attach in their constructors).
    if (reader.engine()) reader.engine()->set_counters(counters[0].get());
    // links[i] connects node i's push side to node i+1's pull side. All
    // telemetry wiring (these calls, the semaphore attach above, and
    // reader.enable_wait_timing/set_tracer) completes before the `threads`
    // vector below spawns anything — and set_telemetry takes the channel
    // lock besides, so even a late attach would be race-free (it would
    // just miss waits that already happened).
    for (std::size_t i = 0; i + 1 < n; ++i)
      links[i]->set_telemetry(&counters[i]->send_blocked_ns,
                              &counters[i + 1]->recv_blocked_ns);
  }
  for (const auto& link : links) shared.channels.push_back(link.get());
  for (const auto& ctx : ctxs) {
    if (ctx) {
      shared.channels.push_back(&ctx->results);
      shared.semaphores.push_back(&ctx->slots);
    }
  }

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    Pull pull;
    if (i == 0) {
      pull = [&reader] { return reader.next(); };
    } else {
      Channel* in = links[i - 1].get();
      pull = [in]() -> std::optional<std::string> {
        std::optional<Chunk> c = in->pop();
        if (!c) return std::nullopt;
        return std::move(c->bytes);
      };
    }
    Push push;
    std::function<void()> close_out;
    std::function<bool()> out_closed;
    if (i + 1 == n) {
      push = [&sink, &shared](std::string&& bytes) {
        if (sink(bytes)) return true;
        shared.stop();  // sink asked to stop: clean teardown, still ok
        return false;
      };
      close_out = [] {};
      out_closed = [&shared] { return shared.stopped.load(); };
    } else {
      Channel* out = links[i].get();
      auto ordinal = std::make_shared<std::size_t>(0);
      push = [out, ordinal](std::string&& bytes) {
        return out->push(Chunk{(*ordinal)++, std::move(bytes)});
      };
      close_out = [out] { out->close(); };
      out_closed = [out] { return out->read_closed(); };
    }
    // Upstream cancellation: read-close the incoming channel (wakes a
    // blocked producer, whose failed push cascades the close further up)
    // and stop this segment's own feeder if it has one. The BlockReader is
    // cancelled outright — in a linear pipeline a close anywhere makes
    // everything upstream moot, and the reader's fd source polls, so even
    // a node-0 read blocked on an idle pipe wakes within one poll tick
    // instead of at the next (possibly never-arriving) block boundary.
    Channel* in_link = i > 0 ? links[i - 1].get() : nullptr;
    ParallelCtx* ctx_ptr = ctxs[i].get();
    BlockReader* reader_ptr = &reader;
    std::function<void()> cancel_upstream = [in_link, ctx_ptr, reader_ptr] {
      if (ctx_ptr) {
        ctx_ptr->stop_input.store(true);
        ctx_ptr->slots.cancel();
      }
      if (in_link) in_link->close_read();
      reader_ptr->cancel();
    };

    const Segment& seg = segments[i];
    NodeMetrics& metrics = result.nodes[i];
    const NodeTelemetry& tele = teles[i];

    // Stats wrappers: count blocks/bytes/records crossing the node's
    // boundaries without touching the node implementations. Pulled blocks
    // are record-aligned (BlockReader/emit_blocks cut at delimiters), so
    // per-block record counts sum exactly; pushes count only what
    // downstream accepted.
    if (tele.counters) {
      obs::StageCounters* sc = tele.counters;
      const char delim = config.delimiter;
      Pull base_pull = std::move(pull);
      pull = [base_pull = std::move(base_pull), sc,
              delim]() -> std::optional<std::string> {
        std::optional<std::string> piece = base_pull();
        if (piece) {
          sc->blocks.fetch_add(1, std::memory_order_relaxed);
          sc->bytes_in.fetch_add(piece->size(), std::memory_order_relaxed);
          sc->records_in.fetch_add(obs::count_records(*piece, delim),
                                   std::memory_order_relaxed);
        }
        return piece;
      };
      Push base_push = std::move(push);
      push = [base_push = std::move(base_push), sc,
              delim](std::string&& bytes) {
        const std::uint64_t out_bytes = bytes.size();
        const std::uint64_t out_records = obs::count_records(bytes, delim);
        if (!base_push(std::move(bytes))) return false;
        sc->bytes_out.fetch_add(out_bytes, std::memory_order_relaxed);
        sc->records_out.fetch_add(out_records, std::memory_order_relaxed);
        return true;
      };
    }

    if (seg.parallel) {
      ParallelCtx& ctx = *ctxs[i];
      threads.emplace_back(
          [&ctx, &metrics, pull, &tele, &shared, &pool, &config] {
            if (tele.tracer)
              tele.tracer->set_thread_name(tele.label + " (feeder)");
            auto span =
                obs::span(tele.tracer, "node: " + tele.label, "node");
            try {
              run_feeder(ctx, metrics, pull, tele, shared, pool, config);
            } catch (const std::exception& e) {
              shared.fail(std::string("feeder failed: ") + e.what());
              ctx.expected.store(ctx.submitted_so_far());
            }
          });
      threads.emplace_back([&seg, &ctx, &metrics, push, close_out, out_closed,
                            cancel_upstream, &tele, &shared, &pool, &config,
                            start] {
        if (tele.tracer)
          tele.tracer->set_thread_name(tele.label + " (collector)");
        auto span = obs::span(tele.tracer, "node: " + tele.label, "node");
        try {
          run_collector(seg, ctx, metrics, push, close_out, out_closed,
                        cancel_upstream, tele, shared, pool, config);
        } catch (const std::exception& e) {
          shared.fail(std::string("collector failed: ") + e.what());
          close_out();
        }
        metrics.seconds = seconds_since(start);
      });
    } else if (seg.stream) {
      threads.emplace_back([&seg, &metrics, pull, push, close_out, out_closed,
                            cancel_upstream, &tele, &shared, &config, start] {
        if (tele.tracer) tele.tracer->set_thread_name(tele.label);
        auto span = obs::span(tele.tracer, "node: " + tele.label, "node");
        try {
          run_stream_chain(seg, metrics, pull, push, close_out, out_closed,
                           cancel_upstream, tele, shared, config);
        } catch (const std::exception& e) {
          shared.fail(std::string("stream stage failed: ") + e.what());
          close_out();
        }
        metrics.seconds = seconds_since(start);
      });
    } else {
      threads.emplace_back([&seg, &metrics, pull, push, close_out, out_closed,
                            cancel_upstream, &tele, &shared, &config, start] {
        if (tele.tracer) tele.tracer->set_thread_name(tele.label);
        auto span = obs::span(tele.tracer, "node: " + tele.label, "node");
        try {
          run_sequential(seg, metrics, pull, push, close_out, out_closed,
                         cancel_upstream, tele, shared, config);
        } catch (const std::exception& e) {
          shared.fail(std::string("stage failed: ") + e.what());
          close_out();
        }
        metrics.seconds = seconds_since(start);
      });
    }
  }

  for (std::thread& t : threads) t.join();
  // Feeder threads are joined, so submission counts are final; wait out any
  // straggler pool tasks before the contexts go out of scope.
  for (const auto& ctx : ctxs) {
    if (ctx) ctx->wait_idle();
  }

  result.ok = !shared.failed.load();
  result.stopped_early = shared.stopped.load();
  result.combine_undefined = shared.combine_undefined.load();
  result.bytes_read = reader.bytes_delivered();
  if (!result.ok) {
    sync::MutexLock lock(shared.error_mu);
    result.error = shared.error;
  } else if (!result.stopped_early && reader.error() != 0) {
    // The source died mid-stream: everything downstream completed over a
    // truncated prefix, which must not pass as success.
    result.ok = false;
    result.error = read_error_message(reader.error());
  }
  result.peak_inflight_bytes = shared.gauge.peak();
  for (const NodeMetrics& node : result.nodes)
    result.spilled_bytes += node.spilled_bytes;
  if (config.stats) {
    // Every writer thread has been joined (and every pool task waited
    // out), so relaxed loads observe the final totals.
    for (std::size_t i = 0; i < n; ++i) {
      NodeMetrics& m = result.nodes[i];
      const obs::StageCounters& c = *counters[i];
      m.records_in = c.records_in.load(std::memory_order_relaxed);
      m.records_out = c.records_out.load(std::memory_order_relaxed);
      m.send_blocked_ns = c.send_blocked_ns.load(std::memory_order_relaxed);
      m.recv_blocked_ns = c.recv_blocked_ns.load(std::memory_order_relaxed);
      m.pool_hits = c.pool_hits.load(std::memory_order_relaxed);
      m.pool_misses = c.pool_misses.load(std::memory_order_relaxed);
      m.shard_slices = c.shard_slices.load(std::memory_order_relaxed);
      m.worker_busy_ns = c.worker_busy_ns.load(std::memory_order_relaxed);
      m.combine_ns = c.combine_ns.load(std::memory_order_relaxed);
      m.sqe_batches = c.sqe_batches.load(std::memory_order_relaxed);
      m.cqe_waits = c.cqe_waits.load(std::memory_order_relaxed);
      m.early_exit = obs::early_exit_name(c.early_exit_cause());
    }
    // Node 0 pulls straight from the BlockReader: its input-side blocked
    // time is the reader's poll waits, not a channel's.
    result.nodes[0].recv_blocked_ns += reader.wait_ns();
  }
  result.seconds = seconds_since(start);
  return result;
}

// Shared by every entry point: a record that cannot even be buffered
// within the spill budget fails loudly (EMSGSIZE) rather than growing
// pending_ without bound.
BlockReaderOptions reader_options(const StreamConfig& config) {
  return {config.block_size == 0 ? 1 : config.block_size, config.delimiter,
          config.spill_threshold};
}

Sink ostream_sink(std::ostream& output) {
  return [&output](std::string_view bytes) {
    output.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(output);
  };
}

}  // namespace

StreamResult run_streaming(const std::vector<exec::ExecStage>& stages,
                           std::istream& input, const Sink& sink,
                           exec::ThreadPool& pool,
                           const StreamConfig& config) {
  BlockReader reader(input, reader_options(config));
  return run_streaming_core(stages, reader, sink, pool, config);
}

StreamResult run_streaming(const std::vector<exec::ExecStage>& stages,
                           std::istream& input, std::ostream& output,
                           exec::ThreadPool& pool,
                           const StreamConfig& config) {
  return run_streaming(stages, input, ostream_sink(output), pool, config);
}

StreamResult run_streaming_fd(const std::vector<exec::ExecStage>& stages,
                              int input_fd, const Sink& sink,
                              exec::ThreadPool& pool,
                              const StreamConfig& config) {
  // The fd source's engine is built from the run's IoOptions so backend
  // overrides and the fault seam reach the source path, not just spills.
  std::unique_ptr<io::Engine> engine = io::make_engine(config.io);
  BlockReader reader(input_fd, engine.get(), reader_options(config));
  return run_streaming_core(stages, reader, sink, pool, config);
}

StreamResult run_streaming_fd(const std::vector<exec::ExecStage>& stages,
                              int input_fd, std::ostream& output,
                              exec::ThreadPool& pool,
                              const StreamConfig& config) {
  return run_streaming_fd(stages, input_fd, ostream_sink(output), pool,
                          config);
}

StreamResult run_streaming_string(const std::vector<exec::ExecStage>& stages,
                                  std::string_view input, std::string* output,
                                  exec::ThreadPool& pool,
                                  const StreamConfig& config) {
  std::istringstream in{std::string(input)};
  std::string collected;
  Sink sink = [&collected](std::string_view bytes) {
    collected.append(bytes);
    return true;
  };
  StreamResult result = run_streaming(stages, in, sink, pool, config);
  if (!result.ok && result.combine_undefined) {
    // The batch runner's combine-fallback guard: incremental combination
    // proved undefined on these chunk outputs, so rerun in memory where the
    // original input is still available. Other failures propagate as !ok.
    exec::RunConfig batch{config.parallelism, config.use_elimination};
    exec::RunResult rerun = exec::run_pipeline(stages, input, pool, batch);
    collected = std::move(rerun.output);
    result.ok = true;
    result.batch_fallback = true;
  }
  *output = std::move(collected);
  return result;
}

}  // namespace kq::stream
