// The parallel node: a feeder fans record-aligned chunks out to pool
// workers, each running exec::run_slice_fused over its chunk, and a
// collector restores input order and combines the parts.
#include <algorithm>
#include <map>
#include <utility>

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

// The collector's legality check of a part (Chunk::legal), as in
// dsl::combine_k: a merge's sorted-stream predicate (an empty part merges
// as nothing), or the fold's per-line check.
bool part_legal(const ParallelCtx& ctx, std::string_view part) {
  if (ctx.merge_spec)
    return part.empty() ||
           (text::is_stream(part) && ctx.merge_spec->is_sorted_stream(part));
  return !ctx.fold || ctx.fold->lines_legal(part);
}

// One pool task: runs the node's chain over chunk `index`, checks the
// part for the collector, and hands it over. Worker pushes never block —
// results capacity exceeds the slot count. The chunk's in-flight bytes
// leave the gauge once the chain has consumed it, before the part can free
// its slot, so the gauge never counts a slot's old chunk and its next one
// at once.
void run_worker(ParallelCtx& ctx, const NodeTelemetry& tele, std::size_t index,
                std::string data, Shared& shared) {
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
  std::string part;
  exec::Recycle recycle;
  if (ctx.sharded) {
    // A sharded chain is one cascade: it writes its part into a pooled
    // buffer with room for the slice, so the part never grows. Its
    // consumed slice goes back to the pool, and so does the buffer of a
    // part filling less than half of it, so a part the collector holds (a
    // merge's) keeps at most twice its size. A black-box chain's chunk is
    // freed once consumed, as its part is the command's own buffer: pooled,
    // such chunks sat idle through a sort's merge (kqbench wf's peak RSS
    // rose by 3 MiB).
    part = shared.acquire(std::max(data.size(), ctx.slice_bytes), tele);
    recycle = [&shared](std::string&& spent) {
      shared.pool.release(std::move(spent));
    };
  }
  {
    struct Release {
      MemoryGauge& gauge;
      std::size_t bytes;
      ~Release() { gauge.sub(bytes); }
    } release{shared.gauge, data.size()};
    part = exec::run_slice_fused(ctx.chain, std::move(data), exec::kSliceStep,
                                 &fed, std::move(part), recycle);
  }
  const bool legal = part_legal(ctx, part);
  if (tele.counters) {
    tele.counters->shard_slices.fetch_add(1, std::memory_order_relaxed);
    tele.counters->worker_busy_ns.fetch_add(nanos_since(busy_start),
                                            std::memory_order_relaxed);
  }
  span.arg("bytes_out", part.size());
  Chunk chunk{index, std::move(part), !fed, legal};
  ctx.results.push(std::move(chunk));
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

// Feeder: pulls record-aligned pieces, coalesces them up to the node's
// chunk target (ParallelCtx::slice_bytes, one block), and fans chunks out
// to the worker pool, blocking while every in-flight slot is taken. A
// chunk never overshoots the target: the buffer goes out before a piece
// would push it past. A piece goes alone, uncopied, when it is at least
// the target, or for a sharded node at least half of it (its worker gives
// the buffer back to the pool). Smaller pieces are copied into pooled
// buffers with room for the target, and each goes back to the pool once
// copied. A black-box chain keeps the copy, as its workers free their
// chunks: sending it the reader's blocks uncopied raised wf.sh's peak RSS
// at k=4 by about 1 MiB.
void run_feeder(ParallelCtx& ctx, NodeMetrics& metrics, const Pull& pull,
                const NodeTelemetry& tele, Shared& shared,
                exec::ThreadPool& pool) {
  std::string buf;
  const std::size_t alone =
      ctx.sharded ? (ctx.slice_bytes + 1) / 2 : ctx.slice_bytes;

  auto submit = [&](std::string&& data) {
    if (!ctx.slots.acquire()) return false;
    metrics.chunks += 1;
    metrics.in_bytes += data.size();
    shared.gauge.add(data.size());
    ctx.tasks.push_back(pool.submit([data = std::move(data),
                                     idx = ctx.submitted++, c = &ctx,
                                     sh = &shared, t = &tele]() mutable {
      try {
        run_worker(*c, *t, idx, std::move(data), *sh);
      } catch (const std::exception& e) {
        sh->fail(std::string("worker failed: ") + e.what());
      }
    }));
    while (!ctx.tasks.empty() &&
           ctx.tasks.front().wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready)
      ctx.tasks.pop_front();
    return true;
  };

  while (auto piece = pull()) {
    if (shared.halted() || ctx.stop_input.load()) break;
    if (!buf.empty() && buf.size() + piece->size() > ctx.slice_bytes) {
      if (!submit(std::move(buf))) break;
      buf.clear();
    }
    if (buf.empty() && piece->size() >= alone) {
      if (!submit(std::move(*piece))) break;
      continue;
    }
    if (buf.empty()) buf = shared.acquire(ctx.slice_bytes, tele);
    buf += *piece;
    shared.pool.release(std::move(*piece));
    if (buf.size() >= ctx.slice_bytes) {
      if (!submit(std::move(buf))) break;
      buf.clear();
    }
  }
  if (!shared.halted() && !ctx.stop_input.load()) {
    if (!buf.empty()) submit(std::move(buf));
    // Empty input still runs the chain once, as the serial run does, so
    // f("") reaches the output.
    if (ctx.submitted == 0) submit(std::string());
  }
  ctx.expected.store(static_cast<std::ptrdiff_t>(ctx.submitted));
  ctx.results.push(Chunk{kControlChunk, {}});  // wake the collector
}

// Collector: the node's combining tree. Restores input order and combines
// the parts by the placement's one strategy (Placement::combine, fixed by
// the combining stage's primary operator):
//   - kFold folds each part in as it arrives (dsl::Fold): what no later
//     part can change goes downstream at once — the part's own buffer,
//     moved — and only the seam is carried (nothing for concat, one line
//     for stitch, stitch2 and offset), not the output;
//   - kMerge feeds every part to a SpillMerger under the placement's
//     comparator, whose batches past the spill threshold become sorted runs
//     on disk and whose final merge runs by key range on the pool. A part
//     that fails its worker's legality check fails the node as
//     combine-undefined. A lone part passes through unchecked, as in
//     dsl::combine_k;
//   - kRerun holds the parts, joins them once at end of stream and reruns
//     the command over the join (a lone part passes as it stands, as in
//     dsl::combine_k).
// A part whose combining stage got no input is f("") and is left out
// (x ++ "" = x), unless no part had input. The workers checked each part's
// legality (Chunk::legal), so a fold's per-part work is its seam. The
// collector blocks on the results channel between parts; it runs pool
// tasks only inside the merger, while it waits for a key range.
void run_collector(const Placement& node, ParallelCtx& ctx,
                   NodeMetrics& metrics, const Ports& io,
                   const NodeTelemetry& tele, Shared& shared,
                   exec::ThreadPool& pool, const ExecOptions& config) {
  std::map<std::size_t, Chunk> out_of_order;
  std::size_t next_emit = 0;
  const exec::ExecStage& cstage = *node.stages.back();

  std::optional<dsl::Fold> fold;
  if (node.combine == Combine::kFold) fold = node.fold();
  metrics.streamed_combine = fold && fold->streams();
  std::vector<std::string> pieces;  // one push's settled output
  std::string partial;              // a trailing record still open
  HeldInput rerun_parts;            // held parts, for the rerun
  bool any_input = false;         // some part's combining stage had input
  std::optional<Chunk> no_input;  // f(""), while no part had input

  // The merge feeds a SpillMerger from the first part; a threshold of 0
  // keeps every part in memory until finish(). The first part is held back
  // until a second one shows it is not alone.
  std::unique_ptr<SpillMerger> merger;
  std::optional<Chunk> lone;
  if (node.combine == Combine::kMerge) {
    merger = std::make_unique<SpillMerger>(
        node.spec, SpillMerger::Input::kSortedParts, config.spill_threshold,
        &shared.gauge, config.fault_plan);
    merger->set_telemetry(tele.tracer, tele.label);
    merger->set_pool(&pool, config.parallelism);
  }

  // Re-blocks combined output for downstream, cut at record boundaries.
  auto push_blocks = [&](std::string_view data) {
    return text::for_each_block(
        data, config.block_size, config.delimiter,
        [&](std::string_view block) { return io.push(std::string(block)); });
  };

  const std::string& name = cstage.command->display_name();
  auto merge_part = [&](Chunk&& part) -> bool {
    if (!part.legal) return false;  // combine undefined
    if (merger->add(std::move(part.bytes))) return true;
    shared.fail_stage("spill", name, merger->error());
    return false;
  };

  // Settled output goes downstream at record boundaries: a piece that ends
  // mid-record (an unterminated concat part) holds its open record back for
  // the next piece. A '\n' stream moves through whole, in its own buffer,
  // which downstream gives back to the pool.
  auto emit = [&](std::string&& piece) -> bool {
    metrics.out_bytes += piece.size();
    if (partial.empty() && !piece.empty() && piece.back() == config.delimiter)
      return io.push(std::move(piece));
    partial += piece;
    shared.pool.release(std::move(piece));
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
      if (!any_input && !no_input) no_input = std::move(part);
      return true;
    }
    const bool first = !any_input;
    any_input = true;
    no_input.reset();
    if (merger) {
      if (first) {
        lone = std::move(part);
        return true;
      }
      if (lone && !merge_part(*std::exchange(lone, std::nullopt)))
        return false;
      return merge_part(std::move(part));
    }
    if (fold) {
      {
        auto span = obs::span(tele.tracer, "combine-fold", "combine");
        span.arg("part", part.index);
        span.arg("bytes", part.bytes.size());
        CombineTimer timer(tele.counters);
        if (!fold->push(std::move(part.bytes), &pieces, part.legal))
          return false;
      }
      for (std::string& piece : pieces)
        if (!emit(std::move(piece))) return false;
      pieces.clear();
      return true;
    }
    rerun_parts.add(part.bytes);
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
    std::optional<Chunk> chunk = ctx.results.pop();
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
    if (!any_input && no_input) {
      Chunk part = std::move(*no_input);
      part.no_input = false;
      ok = take_part(std::move(part));
    }
    if (!ok) {
      if (!shared.halted() && !io.out_closed()) fail_undefined();
    } else if (merger && lone) {
      // A lone part is the combine's output as it stands.
      metrics.out_bytes += lone->bytes.size();
      push_blocks(lone->bytes);
    } else if (merger) {
      CombineTimer timer(tele.counters);
      ok = merger->finish(
          [&](std::string&& block) {
            const std::size_t n = block.size();
            if (!timer.exclude([&] { return io.push(std::move(block)); }))
              return false;
            metrics.out_bytes += n;  // only what downstream accepted
            return true;
          },
          config.block_size);
      if (ok && io.out_closed())
        tele.note_early_exit(obs::EarlyExit::kDownstreamClosed);
      if (!ok && !shared.halted() && !io.out_closed())
        shared.fail_stage("spill merge", name, merger->error());
    } else {
      // The fold's carried boundary, or the rerun over the joined parts
      // (mirroring dsl::combine_k's kRerun).
      std::optional<std::string> rest;
      {
        CombineTimer timer(tele.counters);
        if (fold) {
          rest = fold->finish();
        } else {
          const std::size_t parts = rerun_parts.pieces();
          std::string joined = rerun_parts.join();
          if (parts < 2) {
            rest = std::move(joined);  // a lone part, as it stands
          } else {
            auto span = obs::span(tele.tracer,
                                  tele.label + ": combine-rerun", "combine");
            span.arg("bytes_in", joined.size());
            cmd::Result rerun = cstage.command->execute(joined);
            if (rerun.ok()) rest = std::move(rerun.out);
          }
        }
      }
      ok = rest.has_value();
      if (ok) {
        metrics.out_bytes += rest->size();
        if (partial.empty()) {
          partial = std::move(*rest);
        } else {
          partial += *rest;
        }
        ok = push_blocks(partial);
      }
      if (!ok && !shared.halted() && !io.out_closed()) fail_undefined();
    }
  }
  if (merger) {
    metrics.spilled_bytes = merger->spilled_bytes();
    metrics.spill_runs = merger->runs_spilled();
  }
  io.close_out();
}

}  // namespace kq::stream
