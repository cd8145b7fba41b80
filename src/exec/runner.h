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

// How much of its input a stage must hold at once — drives the streaming
// runtime's node choice (src/stream/dataflow.cpp) and when it may spill.
// Each enumerator documents its tier's contract: what bounds the resident
// state, and what the executor may assume about record alignment and
// end-of-input semantics. Assigned by compile::lower_plan; the executor
// re-checks at runtime (a plan-parallel stage forced sequential at k=1
// falls back to its declared sequential tier). Prose walkthrough:
// docs/ARCHITECTURE.md.
enum class MemoryClass {
  // Bounded by construction: chunk outputs fold in order through the
  // stage's boundary fold (dsl::Fold), which emits each part's settled
  // bytes at once and carries only the seam — nothing for concat, one line
  // for stitch/stitch2/offset, the (small) whole result for RecOps like
  // wc's add. O(k · slice) in flight plus that boundary.
  kStreaming,
  // Order-insensitive under a sort comparator: bounded runs can spill to
  // disk sorted and re-stream through an external k-way merge
  // (stream/spill.*) — a sequential `sort` stage, or a parallel stage
  // whose combiner is a k-way merge.
  kSortableSpill,
  // Must see the whole input (or all partial outputs) at once: unknown
  // commands, rerun combiners. Accumulation can still spool through disk,
  // but the single whole-stream execution materializes once.
  kMaterialize,
  // Declared streamable (cmd::Streamability): the command runs per
  // record-aligned block through a StreamProcessor, holding O(block) at a
  // time. Adjacent such stages fuse into one chain node, and a
  // prefix-bounded command (head) cancels its upstream once satisfied.
  // Assigned to sequential per-record stages and to every prefix-bounded
  // stage (where early exit beats data parallelism).
  kStatelessStream,
  // Declared window-bounded (cmd::Streamability::kWindow): the command
  // needs the whole input but holds only a bounded window of state — tail
  // -n N its ring of N records, uniq its current run, wc its counters,
  // sort -u its distinct set, a fused top-n/top-k rewrite stage its N
  // records under the sort comparator — absorbed per block through a
  // cmd::WindowProcessor and flushed at end of input via finish(). Runs as
  // the *terminal* stage of a fused stream chain (finish() reorders
  // emission, so nothing fuses after it); a window that outgrows the spill
  // threshold and declares drain_sorted_run (sort -u, top-n) exports
  // sorted runs to disk (sort_spec carries the comparator) and re-streams
  // the external merge, capped at the window's output_limit(). Assigned to
  // sequential kWindow stages.
  kWindowStream,
};

// Human-readable memory-class names for plan reports and diagnostics.
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
  // the partial outputs and reruns the command once, so the collector's
  // held parts can spool through disk instead of accumulating in memory.
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
  // hop. The streaming runtime shards a parallel segment when every fused
  // member is shardable (and every non-terminal member is per-record);
  // check's KQ-MEM model reads the same bit. Prefix-bounded stages (head)
  // stay unshardable by design: their early exit beats data parallelism.
  bool shardable = false;
  std::string combiner_name;       // for reports
};

// Serial reference execution: every stage runs whole-stream, in order, with
// no parallelism. Returns the pipeline's output.
std::string run_serial(const std::vector<ExecStage>& stages,
                       std::string_view input);

}  // namespace kq::exec
