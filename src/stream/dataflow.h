// The streaming dataflow execution runtime. Lowers the staged plan
// (compile::lower_plan's ExecStages) into a graph of concurrently running
// nodes — block reader → worker×k → incremental combiner per parallel
// segment, drain nodes for sequential stages — connected by bounded
// channels, in the spirit of PaSh-style dataflow shell runtimes.
//
// Contrasts with kq::Executor's batch path (`--batch`, the paper's staged
// runner):
//   - input is consumed in record-aligned blocks (stream::BlockReader)
//     rather than slurped whole, so memory stays O(capacity · block_size)
//     for concat-combined pipelines instead of O(input);
//   - declared-streamable stages (exec::MemoryClass::kStatelessStream:
//     per-record filters/maps like grep/tr/cut/sed, prefix-bounded head)
//     run per block through cmd::StreamProcessors, with adjacent streamable
//     stages fused into one chain node — a `grep | tr | cut` chain costs
//     one channel hop — and a satisfied prefix (head) closes its input,
//     the close propagating upstream channel by channel until the
//     BlockReader stops reading: `head -n 10` costs O(blocks), not
//     O(input);
//   - window-bounded stages (exec::MemoryClass::kWindowStream: tail -n N,
//     uniq, wc, sort -u, and the fused top-n/top-k rewrite stages from
//     compile::rewrite_bounded_windows) absorb blocks into a
//     cmd::WindowProcessor and flush the residue at end of input, holding
//     O(window) instead of materializing; a window stage fuses as the
//     *terminal* member of a stream chain (its finish() reorders emission,
//     so nothing fuses after it), and a window past the spill threshold
//     (sort -u's distinct set, a pathological-N top-n) exports sorted runs
//     through the external merge — sealed first so cross-record residue
//     survives, and re-streamed capped at the window's output limit;
//   - all pipeline segments run concurrently instead of in stage barriers;
//   - combining is incremental: each segment folds chunk outputs in input
//     order through its combiner's boundary form (dsl::Fold), emitting
//     what no later chunk can change the moment it is settled and carrying
//     only the seam — nothing for concat, one line for stitch/stitch2/
//     offset; the pool worker that made a part has already checked its
//     lines, so the collector's share is the seam — and a fold costs
//     O(output) in total and O(boundary)
//     resident; merge and rerun combiners hold their chunk outputs for one
//     k-way combine at end of stream;
//   - accumulation past `spill_threshold` moves to disk (stream/spill.*,
//     per the stage's exec::MemoryClass): merge-mode combiners spill chunk
//     outputs as sorted runs and k-way-merge them back to the stream,
//     sequential built-in sort stages run as an external merge sort, and
//     rerun combiners and materialize stages spool their drain through a
//     temp file — so with '\n' records every node's resident footprint is
//     bounded, not just the parallel ones. (Under a custom delimiter a
//     plan-parallel stage runs as a sequential node — a slice cut at the
//     delimiter could end mid-line — and the line-based sort/merge spill
//     paths stay in memory.)
//
// Output is byte-identical to the batch runner whenever the synthesized
// combiners satisfy their defining property g(f(x), f(y)) = f(x · y) —
// both runtimes compute f over the whole stream, they just chunk
// differently.
//
// The runtime has one entry point, run_dataflow, and callers reach it
// through kq::Executor (exec/executor.h), which builds the BlockReader from
// its Source and owns the options and result types.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
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
  bool per_block = false;         // stream-chain node (kStatelessStream)
  bool window = false;            // chain ends in a window stage (kWindow)
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
  std::string memory;                  // exec::memory_class_name of the node
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

  // Filled by batch runs, which report one node per stage through this same
  // shape. Zero/false on streaming runs, where combining is incremental and
  // per-node.
  std::string combiner;                // synthesized combiner display name
  bool combiner_eliminated = false;    // Theorem 5 applied to this stage
  bool combine_fallback = false;       // combiner failed; reran serially
};

// Receives output in order; return false to stop the run early (the graph
// tears down, the result stays ok with stopped_early set).
using Sink = std::function<bool(std::string_view)>;

// Drains `reader` through the dataflow graph of `stages` into `sink`, with
// pool tasks (shard workers) on `pool`. Reads the stream knobs of `options`
// (its mode is not consulted) and fills every ExecResult field except
// `output` and `batch_fallback`, which belong to the Executor.
ExecResult run_dataflow(const std::vector<exec::ExecStage>& stages,
                        BlockReader& reader, const Sink& sink,
                        exec::ThreadPool& pool, const ExecOptions& options);

}  // namespace kq::stream
