// The streaming dataflow execution runtime. Lowers the staged plan
// (compile::lower_plan's ExecStages) into a graph of concurrently running
// nodes — block reader → worker×k → incremental combiner per parallel
// segment, drain nodes for sequential stages — connected by bounded
// channels, in the spirit of PaSh-style dataflow shell runtimes.
//
// Contrasts with exec::run_pipeline (the batch path, kept as `--batch`):
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
//     offset — so a fold costs O(output) in total and O(boundary)
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
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "exec/runner.h"
#include "exec/thread_pool.h"

namespace kq::io {
class FaultPlan;
}

namespace kq::obs {
class Tracer;
}

namespace kq::stream {

struct StreamConfig {
  int parallelism = 4;
  std::size_t block_size = 1 << 20;
  // Max chunks a segment may have in flight (its memory budget is
  // max_inflight · block_size). 0 derives 2 · parallelism + 2.
  std::size_t max_inflight = 0;
  bool use_elimination = true;  // fuse eliminated-combiner chains
  char delimiter = '\n';
  // In-memory accumulation budget per node before spilling to disk
  // (sorted-run external merge for sortable stages, raw spool for
  // materialize/rerun stages). Also caps a single delimiter-free record:
  // one that outgrows a block and this threshold fails loudly (EMSGSIZE)
  // instead of ballooning RSS, so the reader buffers at most
  // max(block_size, spill_threshold) per record. 0 disables spilling (and
  // the record cap) entirely.
  std::size_t spill_threshold = 64 << 20;
  // Slice size for sharded parallel segments (the contiguous record-aligned
  // unit a shard worker runs its fused sub-chain over). 0 derives
  // 2 · block_size. Larger slices mean fewer combine-tree parts and less
  // per-slice processor setup; the runtime scales the segment's in-flight
  // slot count down so the byte budget (max_inflight · block_size) is
  // unchanged.
  std::size_t shard_slice = 0;
  // Deterministic fault-injection seam (src/io/fault.h, tests only): the
  // fd source and every spill file consult it before each I/O attempt.
  io::FaultPlan* faults = nullptr;
  // Telemetry (src/obs/). `stats` allocates per-node obs::StageCounters and
  // wires blocked-time/record/pool accounting through the run — the
  // extended NodeMetrics fields below are zero without it. A non-null
  // `tracer` records spans (node lifetimes, block processing, spill runs,
  // merges) for --trace-json. Both default off; the disabled hot path pays
  // one branch per block and never touches the clock.
  bool stats = false;
  obs::Tracer* tracer = nullptr;
};

struct NodeMetrics {
  std::string commands;           // fused chain display, " | " separated
  bool parallel = false;
  bool streamed_combine = false;  // combined output streams as parts arrive
  bool per_block = false;         // stream-chain node (kStatelessStream)
  bool window = false;            // chain ends in a window stage (kWindow)
  // Parallel segment ran sharded: each worker executed a fused
  // StreamProcessor/WindowProcessor sub-chain over a contiguous slice
  // (exec::run_slice_fused) instead of whole-string Command::run hops.
  bool sharded = false;
  std::size_t shard_slice_bytes = 0;  // slice size the feeder targeted
  int chunks = 0;                 // blocks processed by this node
  std::size_t in_bytes = 0;
  std::size_t out_bytes = 0;
  std::size_t spilled_bytes = 0;  // bytes written to disk by this node
  int spill_runs = 0;             // sorted runs spilled (external merge)
  double seconds = 0;             // active span (first input to close)

  // Populated only when StreamConfig::stats is on (see obs/metrics.h for
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

  // Batch/serial unification (kq::Executor maps exec::StageMetrics into
  // NodeMetrics so every mode reports through one shape). Zero/false on
  // streaming runs, where combining is incremental and per-node.
  std::string combiner;                // synthesized combiner display name
  bool combiner_eliminated = false;    // Theorem 5 applied to this stage
  bool combine_fallback = false;       // combiner failed; reran serially
};

struct StreamResult {
  bool ok = true;
  std::string error;               // set when !ok
  double seconds = 0;
  std::size_t peak_inflight_bytes = 0;  // high-water mark across channels
  std::size_t spilled_bytes = 0;        // total spilled across nodes
  // Input bytes the BlockReader delivered — far below the input size when
  // a prefix-bounded stage (head) cancelled the upstream early.
  std::size_t bytes_read = 0;
  std::vector<NodeMetrics> nodes;
  bool stopped_early = false;      // the sink returned false (ok stays true)
  bool combine_undefined = false;  // !ok because a combiner bailed mid-fold
  bool batch_fallback = false;     // string overload reran via batch path
};

// Receives output in order; return false to stop the run early (the graph
// tears down, the result stays ok with stopped_early set).
using Sink = std::function<bool(std::string_view)>;

// DEPRECATED entry points: new call sites should go through kq::Executor
// (exec/executor.h), which folds these overloads, the batch runner, and the
// serial reference behind one options/result shape. They remain for one PR
// as the facade's implementation layer and for tests that exercise the
// stream runtime directly; CI's deprecation gate rejects new uses in src/
// and bench/ outside the wrapper TUs.

// Core entry point: drain `input` through the dataflow graph into `sink`.
StreamResult run_streaming(const std::vector<exec::ExecStage>& stages,
                           std::istream& input, const Sink& sink,
                           exec::ThreadPool& pool, const StreamConfig& config);

// Stream into an ostream (the CLI's stdin → stdout path).
StreamResult run_streaming(const std::vector<exec::ExecStage>& stages,
                           std::istream& input, std::ostream& output,
                           exec::ThreadPool& pool, const StreamConfig& config);

// Stream from a file descriptor. Unlike the istream overloads, the fd
// source is poll(2)-driven, so upstream cancellation (a satisfied head, a
// closed sink) wakes a node blocked in a long read on an idle pipe
// promptly instead of at the next block boundary.
StreamResult run_streaming_fd(const std::vector<exec::ExecStage>& stages,
                              int input_fd, const Sink& sink,
                              exec::ThreadPool& pool,
                              const StreamConfig& config);
StreamResult run_streaming_fd(const std::vector<exec::ExecStage>& stages,
                              int input_fd, std::ostream& output,
                              exec::ThreadPool& pool,
                              const StreamConfig& config);

// In-memory convenience for tests and benches. If (and only if)
// incremental combination turns out undefined mid-stream (the batch
// runner's combine-fallback guard), reruns through exec::run_pipeline and
// sets `batch_fallback`; other streaming failures propagate as !ok.
StreamResult run_streaming_string(const std::vector<exec::ExecStage>& stages,
                                  std::string_view input, std::string* output,
                                  exec::ThreadPool& pool,
                                  const StreamConfig& config);

}  // namespace kq::stream
