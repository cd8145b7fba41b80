// The parallel node: a feeder fans record-aligned chunks out to pool
// workers, each running exec::run_slice_fused over its chunk, and a
// collector restores input order and combines the parts.
#include <map>

#include "exec/parallel.h"
#include "stream/nodes.h"
#include "text/streams.h"

namespace kq::stream {
namespace {

std::uint64_t nanos_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

// One pool task: runs the segment's chain over chunk `index` and hands the
// part to the collector. Worker pushes never block — results capacity
// exceeds the slot count — so a task inlined by a stealing thread always
// terminates.
void run_worker(ParallelCtx& ctx, const NodeTelemetry& tele, std::size_t index,
                std::string data) {
  // Worker span: one per pool task, on the worker's own trace row. Name
  // built only when tracing (it concatenates).
  obs::Tracer::Span span;
  if (tele.tracer) {
    span = tele.tracer->span(
        tele.label + (ctx.sharded ? ": shard-slice" : ": worker-chunk"),
        "block");
    span.arg("chunk", index);
    span.arg("bytes_in", data.size());
  }
  const auto busy_start = Clock::now();
  bool fed = true;  // the combining (last) stage got input
  std::string part = exec::run_slice_fused(ctx.chain, std::move(data),
                                           ctx.cascade_step, &fed);
  if (tele.counters) {
    tele.counters->shard_slices.fetch_add(1, std::memory_order_relaxed);
    tele.counters->worker_busy_ns.fetch_add(nanos_since(busy_start),
                                            std::memory_order_relaxed);
  }
  span.arg("bytes_out", part.size());
  ctx.results.push(Chunk{index, std::move(part), !fed});
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
  obs::StageCounters* counters_;
  Clock::time_point start_{};
  std::uint64_t excluded_ = 0;
};

}  // namespace

// Feeder: pulls record-aligned pieces, coalesces them toward the segment's
// chunk target (ParallelCtx::slice_bytes), and fans chunks out to the
// worker pool under the in-flight bound. A feeder out of slots steals
// queued pool tasks instead of sleeping, so an unlucky shard distribution
// can't idle workers while a straggler holds every slot.
void run_feeder(ParallelCtx& ctx, NodeMetrics& metrics, const Pull& pull,
                const NodeTelemetry& tele, Shared& shared,
                exec::ThreadPool& pool) {
  std::string buf;

  auto acquire_slot = [&] {
    for (;;) {
      if (ctx.slots.try_acquire()) return true;
      if (ctx.slots.cancelled()) return false;
      // No slot free: run someone else's queued task (possibly one of our
      // own in-flight slices, whose completion frees a slot).
      if (!pool.try_run_one()) return ctx.slots.acquire();
    }
  };

  auto submit = [&](std::string&& data) {
    if (!acquire_slot()) return false;
    metrics.chunks += 1;
    metrics.in_bytes += data.size();
    shared.gauge.add(data.size());
    ctx.tasks.push_back(pool.submit([data = std::move(data),
                                     idx = ctx.submitted++, c = &ctx,
                                     sh = &shared, t = &tele]() mutable {
      const std::size_t in_size = data.size();
      try {
        run_worker(*c, *t, idx, std::move(data));
      } catch (const std::exception& e) {
        sh->fail(std::string("worker failed: ") + e.what());
      }
      sh->gauge.sub(in_size);
    }));
    while (!ctx.tasks.empty() &&
           ctx.tasks.front().wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready)
      ctx.tasks.pop_front();
    return true;
  };

  while (auto piece = pull()) {
    if (shared.halted() || ctx.stop_input.load()) break;
    if (buf.empty() && piece->size() >= ctx.slice_bytes) {
      if (!submit(std::move(*piece))) break;
      continue;
    }
    buf += *piece;
    if (buf.size() >= ctx.slice_bytes) {
      if (!submit(std::move(buf))) break;
      buf.clear();
    }
  }
  if (!shared.halted() && !ctx.stop_input.load()) {
    if (!buf.empty()) submit(std::move(buf));
    // Empty input still runs the chain once, mirroring the batch splitter's
    // single empty chunk, so f("") reaches the output.
    if (ctx.submitted == 0) submit(std::string());
  }
  ctx.expected.store(static_cast<std::ptrdiff_t>(ctx.submitted));
  ctx.results.push(Chunk{kControlChunk, {}});  // wake the collector
}

// Collector: the segment's combining tree. Restores input order and
// combines the parts by the combining stage's one strategy, chosen in this
// order:
//   1. a bound `fold` (dsl::Fold) folds each part in as it arrives: what no
//      later part can change goes downstream at once — the part's own
//      buffer, moved — and only the seam is carried (nothing for concat,
//      one line for stitch, stitch2 and offset), not the output;
//   2. otherwise the parts are held for one k-way combine at end of
//      stream, and past the spill threshold they move to disk: a
//      `rerun_combiner` spools them raw and reruns the command once over
//      the spool;
//   3. a `sort_spec` (a merge combiner) spills them as sorted runs and
//      streams one external k-way merge;
//   4. anything else keeps them in memory for `combine`.
// A part whose combining stage got no input is f("") and is left out
// (x ++ "" = x), unless no part had input. While waiting for the next part
// it steals queued pool tasks — often this segment's own straggler slices —
// so the tree keeps combining instead of idling.
void run_collector(const Segment& seg, ParallelCtx& ctx, NodeMetrics& metrics,
                   const Ports& io, const NodeTelemetry& tele, Shared& shared,
                   exec::ThreadPool& pool, const ExecOptions& config) {
  std::map<std::size_t, Chunk> out_of_order;
  std::size_t next_emit = 0;
  const exec::ExecStage& cstage = *seg.chain.back();

  std::optional<dsl::Fold> fold;
  if (cstage.fold) fold = cstage.fold();
  metrics.streamed_combine = fold && fold->streams();
  std::vector<std::string> pieces;    // one push's settled output
  std::string partial;                // a trailing record still open
  std::vector<std::string> deferred;  // held parts, no fold
  std::size_t deferred_bytes = 0;
  bool any_input = false;              // some part's combining stage had input
  std::optional<std::string> no_input;  // f(""), while no part had input

  // Held parts move to disk only past the spill threshold. The rerun's
  // spool materializes the concatenation once, for the rerun — the same
  // O(threshold)-while-draining bound as the sequential materialize node.
  // The merge spill holds O(threshold) instead of the sum of the chunk
  // outputs; engaging it lazily keeps sub-threshold runs on the exact
  // apply_k path (including composite-combiner fallback, which the spill
  // path gives up: a part failing the merge legality check below fails
  // the run as combine-undefined instead of trying a sibling combiner).
  const bool spill = !fold && config.spill_threshold != 0;
  const bool spoolable_rerun = spill && cstage.rerun_combiner;
  const bool spillable_merge =
      spill && !cstage.rerun_combiner && cstage.sort_spec != nullptr;
  std::unique_ptr<RawSpool> spool;
  std::unique_ptr<SpillMerger> merger;

  // Re-blocks combined output for downstream, cut at record boundaries.
  auto push_blocks = [&](std::string_view data) {
    return text::for_each_block(
        data, config.block_size, config.delimiter,
        [&](std::string_view block) { return io.push(std::string(block)); });
  };

  // The merge combiner's legality predicate, as in dsl::combine_k's kMerge.
  auto mergeable_part = [&](std::string_view part) {
    return part.empty() || (text::is_stream(part) &&
                            cstage.sort_spec->is_sorted_stream(part));
  };

  const std::string& name = cstage.command->display_name();
  auto spill_part = [&](std::string&& part) -> bool {
    if (!mergeable_part(part)) return false;  // combine undefined
    if (merger->add(std::move(part))) return true;
    shared.fail_stage("spill", name, merger->error());
    return false;
  };

  auto spool_part = [&](std::string_view part) -> bool {
    if (spool->add(part)) return true;
    shared.fail_stage("spill", name, spool->error());
    return false;
  };

  // Settled output goes downstream at record boundaries: a piece that ends
  // mid-record (an unterminated concat part) holds its open record back for
  // the next piece. A '\n' stream moves through whole.
  auto emit = [&](std::string&& piece) -> bool {
    metrics.out_bytes += piece.size();
    if (partial.empty() && !piece.empty() && piece.back() == config.delimiter)
      return io.push(std::move(piece));
    partial += piece;
    const std::size_t cut = partial.rfind(config.delimiter);
    if (cut == std::string::npos) return true;
    std::string open = partial.substr(cut + 1);
    partial.resize(cut + 1);
    const bool ok = io.push(std::move(partial));
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
    // Held parts migrate to disk once they outgrow the spill threshold. (A
    // single part stays on the combine path, which passes it through
    // unchecked; spilling engages only once there are parts to combine.)
    if (deferred_bytes >= config.spill_threshold && deferred.size() > 1) {
      if (spoolable_rerun) {
        spool = std::make_unique<RawSpool>(config.spill_threshold,
                                           &shared.gauge, config.fault_plan);
        spool->set_telemetry(tele.tracer, tele.label);
        for (const std::string& held : deferred)
          if (!spool_part(held)) return false;
      } else if (spillable_merge) {
        merger = std::make_unique<SpillMerger>(
            cstage.sort_spec, SpillMerger::Input::kSortedParts,
            config.spill_threshold, &shared.gauge, config.fault_plan);
        merger->set_telemetry(tele.tracer, tele.label);
        for (std::string& held : deferred)
          if (!spill_part(std::move(held))) return false;
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
    shared.fail("incremental combine undefined for stage '" + name + "'");
  };

  bool failed_here = false;
  while (true) {
    std::ptrdiff_t expected = ctx.expected.load();
    if (expected >= 0 && next_emit == static_cast<std::size_t>(expected))
      break;
    // Work-stealing wait: drain the channel non-blocking first; when it is
    // empty, run a queued pool task (likely one of this segment's own
    // in-flight slices) instead of sleeping, and only block when the pool
    // has nothing either.
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
          if (io.out_closed()) {
            // Downstream has all it needs (a satisfied head, or a closed
            // sink further down): clean local stop, propagated upstream.
            tele.note_early_exit(obs::EarlyExit::kDownstreamClosed);
            io.cancel_upstream();
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
      if (!shared.halted() && !io.out_closed()) fail_undefined();
    } else if (merger) {
      CombineTimer timer(tele.counters);
      ok = merger->finish(
          [&](std::string&& block) {
            metrics.out_bytes += block.size();
            return timer.exclude([&] { return io.push(std::move(block)); });
          },
          config.block_size);
      if (!ok && !shared.halted() && !io.out_closed())
        shared.fail_stage("spill merge", name, merger->error());
    } else if (spool) {
      // The k-way rerun: run the command once over the concatenation of
      // every spooled part (mirroring dsl::combine_k's kRerun).
      std::string joined;
      if (!spool->take(&joined)) {
        shared.fail_stage("spill", name, spool->error());
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
          push_blocks(rerun.out);
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
        ok = push_blocks(partial);
      }
      if (!ok && !shared.halted() && !io.out_closed()) fail_undefined();
    }
  }
  if (merger) {
    metrics.spilled_bytes = merger->spilled_bytes();
    metrics.spill_runs = merger->runs_spilled();
  } else if (spool) {
    metrics.spilled_bytes = spool->spilled_bytes();
  }
  io.close_out();
}

}  // namespace kq::stream
