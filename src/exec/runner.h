// The execution plan's stage record (ExecStage, MemoryClass) and the serial
// reference. Every run goes through kq::Executor (exec/executor.h); the one
// free function here, run_serial, is the oracle every runtime is
// cross-validated against.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dsl/kway.h"
#include "unixcmd/command.h"

namespace kq::cmd {
class SortSpec;  // fwd: comparator carried for external-merge spilling
}

namespace kq::exec {

// A k-way combiner as seen by the runtime (bound by the compiler from the
// synthesized CompositeCombiner; the runtime itself is combiner-agnostic).
using KWayCombine =
    std::function<std::optional<std::string>(const std::vector<std::string>&)>;

// How much of its input a stage must hold at once, as compile::lower_plan
// classes it from the plan alone. The streaming runtime's placement
// (stream::place) reads it with the run's settings to pick the node that
// runs the stage: a plan-parallel stage at k = 1 or under a custom
// delimiter runs as its sequential form. The nodes, their labels and
// their bounds: docs/ARCHITECTURE.md, "Placement".
enum class MemoryClass {
  // A parallel stage whose chunk outputs fold in order through its
  // boundary fold (dsl::Fold), which carries only the seam.
  kStreaming,
  // Order-insensitive under a sort comparator (`sort_spec`): a sequential
  // `sort`, or a parallel stage whose combiner is a k-way merge. Runs can
  // spill to disk sorted and re-stream through an external merge.
  kSortableSpill,
  // Must see the whole input (or all partial outputs) at once: unknown
  // commands, rerun combiners.
  kMaterialize,
  // Declared streamable (cmd::Streamability): runs per record-aligned
  // block through a StreamProcessor. Sequential per-record stages, and
  // every prefix-bounded stage (where early exit beats data parallelism).
  kStatelessStream,
  // Declared window-bounded (cmd::Streamability::kWindow), sequential: the
  // command holds a bounded window of state — tail -n N its ring, uniq its
  // run, wc its counters, sort -u its distinct set, a fused top-n/top-k
  // its N records — and flushes it at end of input. A window past the
  // spill threshold that declares drain_sorted_run (sort -u, top-n)
  // exports sorted runs under `sort_spec`.
  kWindowStream,
};

// Human-readable memory-class names for plan dumps (kqbench's reads them);
// reports print the node's placement label instead.
inline const char* memory_class_name(MemoryClass m) {
  switch (m) {
    case MemoryClass::kStreaming: return "streaming";
    case MemoryClass::kSortableSpill: return "sortable-spill";
    case MemoryClass::kMaterialize: return "materialize";
    case MemoryClass::kStatelessStream: return "stateless-stream";
    case MemoryClass::kWindowStream: return "window-stream";
  }
  return "?";
}

struct ExecStage {
  cmd::CommandPtr command;
  KWayCombine combine;             // null for sequential stages
  // The incremental form of `combine` for the streaming collector: a fresh
  // boundary fold of the primary combiner per run. Bound by lower_plan
  // next to `combine` unless every plausible combiner is a merge or a
  // rerun: their parts must be held whole anyway, so an unbound fold means
  // the collector waits for one k-way combine at end of stream.
  std::function<dsl::Fold()> fold;
  bool parallel = false;           // data-parallel execution planned
  bool eliminate_combiner = false; // Theorem 5 optimization applies
  // The primary combiner is a rerun (§3.4): k-way combining concatenates
  // the partial outputs and reruns the command once, so the collector
  // joins its held parts in place for that one run.
  bool rerun_combiner = false;
  // Set by compile::lower_plan. For kSortableSpill, `sort_spec` carries the
  // comparator: the synthesized merge combiner's spec when the stage is
  // parallel (it orders the chunk outputs being combined), the sort
  // command's own spec when sequential (it defines the stage itself).
  MemoryClass memory_class = MemoryClass::kMaterialize;
  std::shared_ptr<const cmd::SortSpec> sort_spec;
  // Set by compile::lower_plan: this parallel stage can run as a per-shard
  // stream sub-chain — it has a combiner and its command executes through a
  // cmd::StreamProcessor (kPerRecord) or cmd::WindowProcessor (kWindow), so
  // a shard worker holds O(block + window) instead of O(slice output) per
  // hop. stream::place shards a parallel node when every fused member is
  // shardable (and every non-terminal member is per-record). Prefix-bounded
  // stages (head) stay unshardable by design: their early exit beats data
  // parallelism.
  bool shardable = false;
  std::string combiner_name;       // for reports
};

// Serial reference execution: every stage runs whole-stream, in order, with
// no parallelism. Returns the pipeline's output.
std::string run_serial(const std::vector<ExecStage>& stages,
                       std::string_view input);

}  // namespace kq::exec
