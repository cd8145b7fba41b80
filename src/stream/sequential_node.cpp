// The sequential node: a stage that needs its whole input, run once.
#include "stream/nodes.h"
#include "text/streams.h"

namespace kq::stream {

// Built-in sort stages run as an external merge sort: bounded runs spill to
// disk sorted under the command's own comparator and stream back merged,
// byte-identical to running the command whole (the spec *is* the command)
// at O(threshold) resident. Everything else drains through a raw spool
// (disk past the spill threshold), runs the stage once on the whole stream
// — the floor for a black-box command — and re-blocks the output for
// downstream nodes.
void run_sequential(const Segment& seg, NodeMetrics& metrics, const Ports& io,
                    const NodeTelemetry& tele, Shared& shared,
                    const ExecOptions& config) {
  const exec::ExecStage& stage = *seg.chain.front();
  // External sorting needs the command's own spec and '\n' records (sort
  // is line-based); a command with no spec materializes below.
  std::shared_ptr<const cmd::SortSpec> spec;
  if (stage.memory_class == exec::MemoryClass::kSortableSpill &&
      config.delimiter == '\n' && stage.command)
    spec = own_sort_spec(stage);
  std::optional<SpillMerger> sorter;
  std::optional<RawSpool> spool;
  if (spec) {
    sorter.emplace(std::move(spec), SpillMerger::Input::kUnsortedBlocks,
                   config.spill_threshold, &shared.gauge, config.fault_plan);
    sorter->set_telemetry(tele.tracer, tele.label);
  } else {
    spool.emplace(config.spill_threshold, &shared.gauge, config.fault_plan);
    spool->set_telemetry(tele.tracer, tele.label);
  }

  // The drain. A dead downstream makes it pointless: poll the output side
  // while pulling so a closed sink stops the stage mid-drain too, and
  // propagate the close to our own upstream.
  bool ok = true;
  bool abandoned = false;
  while (auto piece = io.pull()) {
    if (shared.halted()) break;
    if (io.out_closed()) {
      abandoned = true;
      break;
    }
    metrics.chunks += 1;
    metrics.in_bytes += piece->size();
    if (!(sorter ? sorter->add(std::move(*piece)) : spool->add(*piece))) {
      ok = false;
      break;
    }
  }
  if (abandoned) {
    tele.note_early_exit(obs::EarlyExit::kDownstreamClosed);
    io.cancel_upstream();
  }

  // A push that failed because the consumer closed mid-emission is the
  // downstream-closed early exit, not a stage failure.
  auto note_closed = [&] {
    if (io.out_closed())
      tele.note_early_exit(obs::EarlyExit::kDownstreamClosed);
  };
  if (sorter) {
    if (ok && !abandoned && !shared.halted()) {
      ok = sorter->finish(
          [&](std::string&& block) {
            metrics.out_bytes += block.size();
            return io.push(std::move(block));
          },
          config.block_size);
      if (!ok) note_closed();
    }
    metrics.spilled_bytes = sorter->spilled_bytes();
    metrics.spill_runs = sorter->runs_spilled();
    if (!ok && !shared.halted() && !io.out_closed())
      shared.fail_stage("external sort", seg.display(), sorter->error());
  } else if (!shared.halted() && !abandoned) {
    metrics.spilled_bytes = spool->spilled_bytes();
    std::string all;
    if (ok) ok = spool->take(&all);
    if (!ok) {
      shared.fail_stage("input spool", seg.display(), spool->error());
    } else {
      auto span = obs::span(tele.tracer, tele.label + ": execute", "node");
      span.arg("bytes_in", all.size());
      std::string out = stage.command->run(all);
      all.clear();
      all.shrink_to_fit();
      metrics.out_bytes = out.size();
      if (!text::for_each_block(out, config.block_size, config.delimiter,
                                [&](std::string_view block) {
                                  return io.push(std::string(block));
                                }))
        note_closed();
    }
  }
  io.close_out();
}

}  // namespace kq::stream
