// The stream-chain node: the fused run of declared-streamable stages
// (exec::MemoryClass::kStatelessStream), optionally ending in one
// window-bounded stage (kWindowStream).
#include "exec/cascade.h"
#include "stream/nodes.h"

namespace kq::stream {

// Each pulled block cascades through the chain's processors (exec::Cascade)
// and the final output is pushed downstream — nothing is accumulated, so
// the node holds O(block) regardless of input size. When a prefix-bounded
// processor (head) reports its output complete, the node stops pulling and
// cancels upstream so the whole graph behind it (ultimately the
// BlockReader) stops; when downstream closes, the same cancellation
// propagates backward. Consumed input blocks return to the shared pool and
// the terminal appends into buffers drawn from it — stateful processors
// (tr, sed, head) then write into recycled capacity; PerBlockProcessor-
// backed stages still pay their execute()'s internal allocation, which the
// pool cannot reach.
void run_stream_chain(const Placement& node, NodeMetrics& metrics,
                      const Ports& io, const NodeTelemetry& tele,
                      Shared& shared, const ExecOptions& config) {
  exec::Cascade cascade(node.commands());
  cmd::WindowProcessor* window = cascade.window();
  const std::string& window_name = node.stages.back()->command->display_name();

  // A sort -u window whose distinct set outgrows the spill threshold
  // exports sorted runs to disk under the placement's comparator (the
  // window state is itself a sorted -u stream) and re-streams the k-way
  // merge at end of input — the same external-merge bound as an external
  // sort, reached only when the window stops being small.
  bool window_spillable = node.spec && config.spill_threshold != 0;
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
          node.spec, SpillMerger::Input::kSortedParts, config.spill_threshold,
          &shared.gauge, config.fault_plan);
      merger->set_telemetry(tele.tracer, tele.label);
    }
    if (merger->add(std::move(run))) return true;
    shared.fail_stage("spill", window_name, merger->error());
    return false;
  };

  // The terminal writes into `out`, a pooled buffer taken only when a
  // block reaches it; settle() then spills an outgrown window and pushes
  // what the terminal emitted, counting only what downstream accepted.
  std::string out;
  const exec::Cascade::Buffer buffer = [&]() -> std::string* {
    out = shared.acquire(0, tele);
    return &out;
  };
  auto settle = [&]() -> bool {
    if (window && !spill_window()) {
      shared.pool.release(std::move(out));
      return false;
    }
    if (out.empty()) {
      shared.pool.release(std::move(out));
      return true;
    }
    const std::size_t pushed = out.size();
    if (!io.push(std::move(out))) return false;
    metrics.out_bytes += pushed;
    return true;
  };

  bool pushed_ok = true;
  bool down_closed = false;
  while (!cascade.satisfied()) {
    auto piece = io.pull();
    if (!piece) break;
    if (shared.halted()) break;
    if (io.out_closed()) {
      down_closed = true;
      break;
    }
    metrics.chunks += 1;
    metrics.in_bytes += piece->size();
    {
      auto span = obs::span(tele.tracer, "process-block", "block");
      span.arg("bytes", piece->size());
      pushed_ok = !cascade.feed(*piece, 0, buffer) || settle();
    }
    shared.pool.release(std::move(*piece));
    if (!pushed_ok) {
      if (!shared.halted() && io.out_closed()) down_closed = true;
      break;
    }
  }

  const bool early = cascade.satisfied();
  if (early)
    tele.note_early_exit(obs::EarlyExit::kPrefixSatisfied);
  else if (down_closed)
    tele.note_early_exit(obs::EarlyExit::kDownstreamClosed);
  if ((early || down_closed) && !shared.halted()) io.cancel_upstream();

  if (pushed_ok && !down_closed && !shared.halted() &&
      cascade.flush(buffer, settle) && window && !shared.halted()) {
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
        ok = io.push(std::move(sealed));
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
              const std::size_t pushed = block.size();
              if (!io.push(std::move(block))) return false;
              metrics.out_bytes += pushed;
              return more;
            },
            config.block_size);
      if (!ok && !shared.halted() && !io.out_closed())
        shared.fail_stage("spill merge", window_name, merger->error());
    } else {
      // Window flush: emission stops the moment downstream closes —
      // cancellation propagates through finish().
      auto span = obs::span(tele.tracer, "window-finish", "window");
      window->finish([&](std::string_view piece) {
        if (piece.empty()) return true;
        if (shared.halted() || io.out_closed()) return false;
        std::string block = shared.acquire(piece.size(), tele);
        block.assign(piece);
        const std::size_t pushed = block.size();
        if (!io.push(std::move(block))) return false;
        metrics.out_bytes += pushed;
        return true;
      });
    }
  }
  if (merger) {
    metrics.spilled_bytes = merger->spilled_bytes();
    metrics.spill_runs = merger->runs_spilled();
  }
  io.close_out();
}

}  // namespace kq::stream
