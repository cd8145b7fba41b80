// The streaming dataflow execution runtime. Runs the staged plan
// (compile::lower_plan's ExecStages) as a graph of concurrently running
// nodes connected by bounded channels, in the spirit of PaSh-style
// dataflow shell runtimes. place() decides what each node is (NodeKind
// below; docs/ARCHITECTURE.md, "Placement"). Against the paper's staged
// runner (§4: split, run every piece, combine, one stage at a time):
//   - input is consumed in record-aligned blocks (stream::BlockReader)
//     rather than slurped whole, and every node runs at once instead of in
//     stage barriers;
//   - declared-streamable stages run per block through
//     cmd::StreamProcessors, adjacent ones fused into one chain node, and
//     a satisfied prefix (head) closes its input, the close propagating
//     upstream until the BlockReader stops reading: `head -n 10` costs
//     O(blocks), not O(input);
//   - window-bounded stages (tail -n N, uniq, wc, sort -u, the fused
//     top-n/top-k rewrite stages) absorb blocks into a cmd::WindowProcessor
//     and flush at end of input; a window ends its chain (finish()
//     reorders emission), and one past the spill threshold (sort -u's
//     distinct set, a pathological-N top-n) exports sorted runs through
//     the external merge, sealed first and re-streamed capped at the
//     window's output limit;
//   - a parallel node's collector combines by the stage's primary
//     combiner: a fold (dsl::Fold) emits what no later part can change and
//     carries only the seam, O(output) in total; a merge spills sorted runs
//     past the threshold; a rerun's parts are joined once for the rerun;
//   - sequential sorts run as an external merge sort, and a stage that
//     needs its whole input holds it once and runs over it once: O(input),
//     the floor for a black-box command, and the one kind of node whose
//     resident set grows with the input. (Under a custom delimiter a
//     plan-parallel stage runs as a sequential node — a slice cut at the
//     delimiter could end mid-line — and line-based stages run whole.)
//
// Output is byte-identical to the serial run (exec::run_serial) whenever
// the synthesized combiners satisfy their defining property
// g(f(x), f(y)) = f(x · y) — both compute f over the whole stream, the
// dataflow graph just chunks it.
//
// The runtime has one entry point, run_dataflow, and callers reach it
// through kq::Executor (exec/executor.h), which builds the BlockReader from
// its Source and owns the options and result types. `kumquat check` reads
// the same place().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/runner.h"
#include "exec/thread_pool.h"

namespace kq {
struct ExecOptions;  // exec/executor.h
struct ExecResult;
}  // namespace kq

namespace kq::stream {

class BlockReader;

struct NodeMetrics {
  std::string commands;           // fused chain display, " | " separated
  bool parallel = false;
  bool streamed_combine = false;  // combined output streams as parts arrive
  // Parallel segment ran sharded: every member runs through a processor
  // cascade, so its workers (exec::run_slice_fused, as every parallel
  // worker) wrote their parts into pooled buffers, and the feeder sent a
  // block of at least half the slice target uncopied.
  bool sharded = false;
  std::size_t shard_slice_bytes = 0;  // slice target: one block
  int chunks = 0;                 // blocks processed by this node
  std::size_t in_bytes = 0;
  std::size_t out_bytes = 0;
  std::size_t spilled_bytes = 0;  // bytes written to disk by this node
  int spill_runs = 0;             // sorted runs spilled (external merge)
  double seconds = 0;             // active span (first input to close)

  // Populated only when ExecOptions::stats is on (see obs/metrics.h for
  // the counter semantics; docs/OBSERVABILITY.md for the full contract).
  std::string memory;                  // the node's Placement::label
  std::uint64_t records_in = 0;        // records pulled from upstream
  std::uint64_t records_out = 0;       // records downstream accepted
  std::uint64_t send_blocked_ns = 0;   // waiting on a full output channel
  std::uint64_t recv_blocked_ns = 0;   // waiting on an empty input channel
                                       // (node 0: the reader's poll waits)
  std::uint64_t pool_hits = 0;         // BufferPool acquires recycled
  std::uint64_t pool_misses = 0;       // BufferPool acquires fresh
  std::uint64_t shard_slices = 0;      // slices shard workers executed
  std::uint64_t worker_busy_ns = 0;    // summed shard-worker execution time
  std::uint64_t combine_ns = 0;        // collector time spent combining
  std::string early_exit;              // why input stopped early ("" = ran
                                       // to end of stream)
};

// What one node of the dataflow graph is. The kinds, with the label
// --stats and `kumquat check` print and the resident bound check reports
// (docs/ARCHITECTURE.md, "Placement", has the table):
enum class NodeKind {
  kParallel,         // feeder, pool workers over block-sized chunks, and a
                     // collector combining their parts in input order
  kShardedParallel,  // the same, every member one processor cascade, so
                     // workers write their parts into pooled buffers
  kStreamChain,      // fused per-block stream processors
  kWindowChain,      // a stream chain ending in one window stage
  kExternalSort,     // a sort stage's external merge sort
  kWholeInput,       // holds its whole input, runs the stage once
};

// How a parallel node's collector combines its parts: fixed by the
// operator of the combining stage's primary combiner (§3.5).
enum class Combine {
  kNone,   // not a parallel node
  kFold,   // any operator but merge and rerun: each part folds in as it
           // arrives (dsl::Fold)
  kMerge,  // a SpillMerger under `spec`, sorted runs past the threshold
  kRerun,  // held parts, joined once for one rerun at end of stream
};

struct Placement {
  std::size_t first = 0;  // plan index of stages.front()
  std::vector<const exec::ExecStage*> stages;  // fused members, in order
  NodeKind kind = NodeKind::kWholeInput;
  Combine combine = Combine::kNone;
  // The comparator a merge combines under (the primary's merge_spec), or
  // the one an external sort sorts under or a window chain's terminal
  // spills its sorted runs under (the stage's sort_spec; null for a window
  // that cannot spill).
  std::shared_ptr<const cmd::SortSpec> spec;
  const char* label = "";  // --stats memory=, check's memory_class
  const char* bound = "";  // worst-case resident set, as check reports it
  bool bounded = true;     // false: the resident set grows with the input

  bool parallel() const {
    return kind == NodeKind::kParallel || kind == NodeKind::kShardedParallel;
  }
  std::vector<const cmd::Command*> commands() const;
  std::string display() const;  // members' display names, " | " joined
  // A fresh boundary fold of the combining stage's primary (kFold only).
  dsl::Fold fold() const;
};

// The one placement decision: cuts `stages` into dataflow nodes under the
// run's settings (k, the delimiter, elimination, the spill threshold) and
// places each. run_dataflow builds exactly these nodes, --stats prints
// their labels, and check::analyze reports them. `options.parallelism`
// must be resolved (kq::Executor's options()).
std::vector<Placement> place(const std::vector<exec::ExecStage>& stages,
                             const ExecOptions& options);

// Receives output in order; return false to stop the run early (the graph
// tears down, the result stays ok with stopped_early set).
using Sink = std::function<bool(std::string_view)>;

// Drains `reader` through the dataflow graph of `stages` into `sink`, with
// pool tasks (shard workers) on `pool`. Reads the knobs of `options` and
// fills every ExecResult field except `output`, which belongs to the
// Executor.
ExecResult run_dataflow(const std::vector<exec::ExecStage>& stages,
                        BlockReader& reader, const Sink& sink,
                        exec::ThreadPool& pool, const ExecOptions& options);

}  // namespace kq::stream
