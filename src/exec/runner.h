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

// A k-way combiner as a closure over the parts (bound by the compiler from
// the synthesized CompositeCombiner). The runtime does not call it: a
// parallel node combines by ExecStage::primary. kqbench's combine replay
// does.
using KWayCombine =
    std::function<std::optional<std::string>(const std::vector<std::string>&)>;

// How much of its input a stage must hold at once, as compile::lower_plan
// classes it from the plan alone. Only plan dumps read it (kqbench's, with
// memory_class_name): the runtime places a stage by stream::place, which
// reads the command's streamability, `parallel`, `primary` and `sort_spec`
// under the run's settings (docs/ARCHITECTURE.md, "Placement").
enum class MemoryClass {
  kStreaming,        // a parallel stage folding its parts (dsl::Fold)
  kSortableSpill,    // a parallel merge-combined stage, or a sequential sort
  kMaterialize,      // holds its whole input: unknown commands, reruns
  kStatelessStream,  // per block: a prefix or sequential per-record stage
  kWindowStream,     // a sequential window stage (tail -n N, uniq, sort -u)
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

// One stage of the lowered plan. stream::place reads the command, `parallel`,
// `primary`, `sort_spec` and `eliminate_combiner`; the rest is for reports
// and plan dumps.
struct ExecStage {
  cmd::CommandPtr command;
  bool parallel = false;           // data-parallel execution planned
  bool eliminate_combiner = false; // Theorem 5 optimization applies
  // The synthesized primary combiner (CompositeCombiner::primary), set
  // whenever synthesis succeeded. It alone says how a parallel node
  // combines its parts (§3.5): a merge is one k-way merge under its
  // merge_spec, a rerun joins the parts and reruns the command once, and
  // every other operator folds the parts in order (dsl::Fold).
  std::optional<dsl::Combiner> primary;
  // The order the command itself sorts under (cmd::sort_spec_of, else a
  // fused top-n/top-k stage's cmd::fused_sort_spec_of), null for a command
  // that is no sort. A sequential sort sorts externally under it, and a
  // window (sort -u, top-n) spills its sorted runs under it.
  std::shared_ptr<const cmd::SortSpec> sort_spec;
  KWayCombine combine;             // null where synthesis failed
  // Set by compile::lower_plan for plan dumps; the runtime reads neither.
  // `shardable`: a parallel combined stage whose command runs through a
  // cmd::StreamProcessor (kPerRecord) or cmd::WindowProcessor (kWindow),
  // the members stream::place shards.
  MemoryClass memory_class = MemoryClass::kMaterialize;
  bool shardable = false;
  std::string combiner_name;       // for reports
};

// Serial reference execution: every stage runs whole-stream, in order, with
// no parallelism. Returns the pipeline's output.
std::string run_serial(const std::vector<ExecStage>& stages,
                       std::string_view input);

}  // namespace kq::exec
