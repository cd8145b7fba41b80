// The sequential node: a stage that needs its whole input, run once.
#include <algorithm>

#include "stream/nodes.h"
#include "text/streams.h"

namespace kq::stream {

void HeldInput::add(std::string_view piece) {
  size_ += piece.size();
  ++pieces_;
  if (buffers_.empty() ||
      buffers_.back().capacity() - buffers_.back().size() < piece.size()) {
    buffers_.emplace_back();
    buffers_.back().reserve(std::max(kBufferBytes, piece.size()));
  }
  buffers_.back() += piece;
}

std::string HeldInput::join() {
  std::string joined;
  joined.reserve(size_);
  for (std::string& buffer : buffers_) {
    joined += buffer;
    std::string().swap(buffer);
  }
  std::vector<std::string>().swap(buffers_);
  size_ = 0;
  pieces_ = 0;
  return joined;
}

// Built-in sort stages run as an external merge sort: bounded runs spill to
// disk sorted under the command's own comparator and stream back merged,
// byte-identical to running the command whole (the spec *is* the command)
// at O(threshold) resident. Everything else holds the blocks it drains,
// joins them once and runs the stage on the whole stream — the floor for a
// black-box command — then re-blocks the output for downstream nodes.
void run_sequential(const Placement& node, NodeMetrics& metrics,
                    const Ports& io, const NodeTelemetry& tele,
                    Shared& shared, const ExecOptions& config) {
  const exec::ExecStage& stage = *node.stages.front();
  std::optional<SpillMerger> sorter;
  if (node.kind == NodeKind::kExternalSort) {
    sorter.emplace(node.spec, SpillMerger::Input::kUnsortedBlocks,
                   config.spill_threshold, &shared.gauge, config.fault_plan);
    sorter->set_telemetry(tele.tracer, tele.label);
  }
  HeldInput held;  // the whole-input node's drain

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
    if (!sorter) {
      held.add(*piece);
    } else if (!sorter->add(std::move(*piece))) {
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
            const std::size_t n = block.size();
            if (!io.push(std::move(block))) return false;
            metrics.out_bytes += n;  // only what downstream accepted
            return true;
          },
          config.block_size);
      if (ok) note_closed();
    }
    metrics.spilled_bytes = sorter->spilled_bytes();
    metrics.spill_runs = sorter->runs_spilled();
    if (!ok && !shared.halted() && !io.out_closed())
      shared.fail_stage("external sort", node.display(), sorter->error());
  } else if (!shared.halted() && !abandoned) {
    std::string out;
    {
      std::string all = held.join();
      auto span = obs::span(tele.tracer, tele.label + ": execute", "node");
      span.arg("bytes_in", all.size());
      out = stage.command->run(all);
    }
    metrics.out_bytes = out.size();
    if (!text::for_each_block(out, config.block_size, config.delimiter,
                              [&](std::string_view block) {
                                return io.push(std::string(block));
                              }))
      note_closed();
  }
  io.close_out();
}

}  // namespace kq::stream
