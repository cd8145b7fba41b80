// Graph wiring: cuts the plan into segments, connects them with bounded
// channels, and runs each segment's node body (stream/nodes.h) on its own
// thread until the stream drains, stops early, or fails.
#include "stream/dataflow.h"

#include <algorithm>
#include <cerrno>
#include <memory>
#include <thread>

#include "stream/nodes.h"

namespace kq::stream {
namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// True when the runtime will actually fan this stage out to workers: the
// plan wanted parallelism, the config allows it, and records are '\n'
// lines. Slices are cut at the record delimiter, so under a custom one a
// slice can end mid-line and every line-based command (and combiner)
// would see a truncated line. A plan-parallel stage that does not run
// parallel (k = 1, or a custom delimiter) is a sequential node, where
// declared streamability is strictly better than the materialize drain.
bool runs_parallel(const exec::ExecStage& stage, const ExecOptions& config) {
  return stage.parallel && config.parallelism > 1 &&
         stage.combine != nullptr && config.delimiter == '\n';
}

// True when the stage may run as (part of) a per-block stream-chain node.
// Streamability is a statement about *record*-aligned blocks, and the
// line-based built-ins define records by '\n', so a custom delimiter keeps
// the materialize path (same rule as the line-based spill paths).
bool stream_chain_stage(const exec::ExecStage& stage,
                        const ExecOptions& config) {
  if (config.delimiter != '\n' || !stage.command) return false;
  const cmd::Streamability s = stage.command->streamability();
  if (s == cmd::Streamability::kNone || s == cmd::Streamability::kWindow)
    return false;
  if (stage.memory_class == exec::MemoryClass::kStatelessStream) return true;
  return !runs_parallel(stage, config) && s == cmd::Streamability::kPerRecord;
}

// True when the stage runs as the window-bounded terminal of a stream
// chain: declared kWindow and effectively sequential (the plan may still
// parallelize a window command like wc through its synthesized combiner;
// the window node only replaces the sequential materialize drain).
bool window_stage(const exec::ExecStage& stage, const ExecOptions& config) {
  if (config.delimiter != '\n' || !stage.command) return false;
  if (stage.command->streamability() != cmd::Streamability::kWindow)
    return false;
  if (stage.memory_class == exec::MemoryClass::kWindowStream) return true;
  return !runs_parallel(stage, config);
}

std::vector<Segment> build_segments(const std::vector<exec::ExecStage>& stages,
                                    const ExecOptions& config) {
  std::vector<Segment> segments;
  std::size_t i = 0;
  while (i < stages.size()) {
    Segment seg;
    seg.chain.push_back(&stages[i]);
    if (window_stage(stages[i], config)) {
      // A window stage is a complete (single-stage) chain: its finish()
      // emission happens after all input, so nothing can fuse behind it.
      seg.stream = true;
      seg.window = true;
    } else if (stream_chain_stage(stages[i], config)) {
      // Fuse the maximal run of streamable stages into one per-block node:
      // a `grep | tr | cut` chain costs one channel hop, not three. A
      // window stage may join as the chain's terminal member — `grep |
      // uniq` absorbs grep's per-block output directly into the run
      // window — but ends the fusion: its emission order is finish()'s,
      // not the input's.
      seg.stream = true;
      while (i + 1 < stages.size()) {
        if (stream_chain_stage(stages[i + 1], config)) {
          ++i;
          seg.chain.push_back(&stages[i]);
        } else if (window_stage(stages[i + 1], config)) {
          ++i;
          seg.chain.push_back(&stages[i]);
          seg.window = true;
          break;
        } else {
          break;
        }
      }
    } else if (runs_parallel(stages[i], config)) {
      seg.parallel = true;
      // Mirror the batch runner's elimination condition: a stage whose
      // concat combiner is eliminated feeds its substreams straight into
      // the next parallel stage, which here means fusing both into one
      // worker chain. A streamable next stage is left out: it prefers its
      // own stream-chain node (head fused into a worker chain would lose
      // the early exit that makes it O(blocks)).
      while (config.use_elimination && seg.chain.back()->eliminate_combiner &&
             i + 1 < stages.size() && runs_parallel(stages[i + 1], config) &&
             !stream_chain_stage(stages[i + 1], config)) {
        ++i;
        seg.chain.push_back(&stages[i]);
      }
      // Sharded mode: every fused member was recorded shard-eligible by
      // lower_plan (per-record or window) and every non-terminal member is
      // per-record — a window's emission happens at slice end, so nothing
      // can cascade behind it inside a slice.
      seg.sharded = true;
      for (const exec::ExecStage* s : seg.chain)
        seg.sharded = seg.sharded && s->shardable && s->command &&
                      (s == seg.chain.back() ||
                       s->command->streamability() ==
                           cmd::Streamability::kPerRecord);
    }
    ++i;
    segments.push_back(std::move(seg));
  }
  return segments;
}

ExecOptions sanitize(ExecOptions config) {
  if (config.parallelism < 1) config.parallelism = 1;
  if (config.block_size == 0) config.block_size = 1;
  if (config.max_inflight == 0)
    config.max_inflight =
        2 * static_cast<std::size_t>(config.parallelism) + 2;
  return config;
}

// The memory class the runtime *actually* gives this node — mirrors the
// dispatch in run_dataflow/run_sequential rather than echoing the
// plan's label (under a custom delimiter a plan-parallel stage runs
// sequential and a plan-sortable one materializes; a parallel segment's
// residency is its combiner's).
const char* node_memory_label(const Segment& seg, const ExecOptions& config) {
  if (seg.window) return "window-stream";
  if (seg.stream) return "stateless-stream";
  if (seg.parallel) {
    if (seg.sharded) {
      // Shard workers hold O(block + window) each; the combining tree's
      // residency is the combiner's (concat streams, merge spills).
      switch (seg.chain.back()->memory_class) {
        case exec::MemoryClass::kSortableSpill: return "sharded-spill-merge";
        case exec::MemoryClass::kStreaming: return "sharded-streaming";
        default: return "sharded";
      }
    }
    return exec::memory_class_name(seg.chain.back()->memory_class);
  }
  const exec::ExecStage& stage = *seg.chain.front();
  if (stage.memory_class == exec::MemoryClass::kSortableSpill &&
      config.delimiter == '\n' && stage.command)
    return "sortable-spill";
  return "materialize";
}

}  // namespace

ExecResult run_dataflow(const std::vector<exec::ExecStage>& stages,
                        BlockReader& reader, const Sink& sink,
                        exec::ThreadPool& pool,
                        const ExecOptions& raw_config) {
  const ExecOptions config = sanitize(raw_config);
  ExecResult result;
  result.io_backend = "poll";  // the one I/O engine (src/io/engine.h)
  auto start = Clock::now();

  auto read_error_message = [&config](int err) {
    if (err == EMSGSIZE)
      return "input record larger than the spill threshold (" +
             std::to_string(config.spill_threshold) +
             " bytes) with no delimiter in sight; raise --spill-threshold "
             "or check --delimiter: output truncated";
    return "input read error (errno " + std::to_string(err) +
           "): output truncated";
  };

  if (stages.empty()) {  // identity pipeline: forward blocks
    while (auto block = reader.next()) {
      if (!sink(*block)) {
        result.stopped_early = true;
        break;
      }
    }
    if (!result.stopped_early && reader.error() != 0) {
      result.ok = false;
      result.error = read_error_message(reader.error());
    }
    result.bytes_read = reader.bytes_delivered();
    result.seconds = seconds_since(start);
    return result;
  }

  std::vector<Segment> segments = build_segments(stages, config);
  const std::size_t n = segments.size();

  Shared shared;
  shared.reader = &reader;
  if (config.tracer) reader.set_tracer(config.tracer);
  // The pool may retain at most one in-flight budget of free capacity:
  // enough for steady-state circulation, without letting a release-heavy
  // node (a window absorbing blocks and emitting nothing) park the whole
  // stream's blocks as dead pool capacity.
  shared.pool.set_budget(config.max_inflight * config.block_size);
  std::vector<std::unique_ptr<Channel>> links;  // segment i -> i+1
  for (std::size_t i = 0; i + 1 < n; ++i)
    links.push_back(
        std::make_unique<Channel>(config.max_inflight, &shared.gauge));

  std::vector<std::unique_ptr<ParallelCtx>> ctxs(n);
  // One telemetry bundle per node; counters allocate only under stats so
  // the disabled run carries null pointers everywhere.
  std::vector<std::unique_ptr<obs::StageCounters>> counters;
  std::vector<NodeTelemetry> teles(n);
  if (config.stats) {
    counters.resize(n);
    reader.enable_wait_timing();
  }
  result.nodes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.nodes[i].commands = segments[i].display();
    result.nodes[i].parallel = segments[i].parallel;
    result.nodes[i].per_block = segments[i].stream;
    result.nodes[i].window = segments[i].window;
    result.nodes[i].sharded = segments[i].sharded;
    if (config.stats) {
      counters[i] = std::make_unique<obs::StageCounters>();
      teles[i].counters = counters[i].get();
      result.nodes[i].memory = node_memory_label(segments[i], config);
    }
    teles[i].tracer = config.tracer;
    teles[i].label = result.nodes[i].commands;
    if (segments[i].parallel) {
      // Sharded segments fan out in 2 · block_size slices (fewer
      // combine-tree parts, fewer processor setups) and scale the in-flight
      // slot count down to keep the same byte budget
      // (max_inflight · block_size); the floor of parallelism + 1 slots
      // keeps every worker busy plus one slice queued. A chain with a
      // black-box member takes block-sized chunks.
      std::size_t inflight = config.max_inflight;
      std::size_t slice = config.block_size;
      if (segments[i].sharded) {
        slice = 2 * config.block_size;
        const std::size_t budget = config.max_inflight * config.block_size;
        inflight = std::max<std::size_t>(
            static_cast<std::size_t>(config.parallelism) + 1,
            (budget + slice - 1) / slice);
        result.nodes[i].shard_slice_bytes = slice;
      }
      ctxs[i] = std::make_unique<ParallelCtx>(inflight, &shared.gauge);
      ctxs[i]->sharded = segments[i].sharded;
      ctxs[i]->slice_bytes = slice;
      ctxs[i]->cascade_step = config.block_size;
      ctxs[i]->chain = segments[i].commands();
      // A feeder stalled on the in-flight bound is send-blocked: its
      // output backpressure arrives through the slot semaphore.
      if (config.stats)
        ctxs[i]->slots.set_telemetry(&counters[i]->send_blocked_ns);
    }
  }
  if (config.stats) {
    // links[i] connects node i's push side to node i+1's pull side. All
    // telemetry wiring (these calls, the semaphore attach above, and
    // reader.enable_wait_timing/set_tracer) completes before the `threads`
    // vector below spawns anything — and set_telemetry takes the channel
    // lock besides, so even a late attach would be race-free (it would
    // just miss waits that already happened).
    for (std::size_t i = 0; i + 1 < n; ++i)
      links[i]->set_telemetry(&counters[i]->send_blocked_ns,
                              &counters[i + 1]->recv_blocked_ns);
  }
  for (const auto& link : links) shared.channels.push_back(link.get());
  for (const auto& ctx : ctxs) {
    if (ctx) {
      shared.channels.push_back(&ctx->results);
      shared.semaphores.push_back(&ctx->slots);
    }
  }

  // Starts one node thread: names its trace row, spans the node's life, and
  // turns an escaping exception into the run's failure (`what` prefixes
  // the message) followed by `on_throw`. `timed` records the node's span.
  std::vector<std::thread> threads;
  auto launch = [&](const NodeTelemetry& tele, const char* role,
                    const char* what, std::function<void()> body,
                    std::function<void()> on_throw, NodeMetrics* timed) {
    threads.emplace_back([&tele, role, what, body = std::move(body),
                          on_throw = std::move(on_throw), timed, &shared,
                          start] {
      if (tele.tracer)
        tele.tracer->set_thread_name(*role ? tele.label + role : tele.label);
      auto span = obs::span(tele.tracer, "node: " + tele.label, "node");
      try {
        body();
      } catch (const std::exception& e) {
        std::string message = what;
        message += e.what();
        shared.fail(message);
        on_throw();
      }
      if (timed) timed->seconds = seconds_since(start);
    });
  };

  for (std::size_t i = 0; i < n; ++i) {
    Ports io;
    if (i == 0) {
      io.pull = [&reader] { return reader.next(); };
    } else {
      Channel* in = links[i - 1].get();
      io.pull = [in]() -> std::optional<std::string> {
        std::optional<Chunk> c = in->pop();
        if (!c) return std::nullopt;
        return std::move(c->bytes);
      };
    }
    if (i + 1 == n) {
      io.push = [&sink, &shared](std::string&& bytes) {
        if (sink(bytes)) return true;
        shared.stop();  // sink asked to stop: clean teardown, still ok
        return false;
      };
      io.close_out = [] {};
      io.out_closed = [&shared] { return shared.stopped.load(); };
    } else {
      Channel* out = links[i].get();
      auto ordinal = std::make_shared<std::size_t>(0);
      io.push = [out, ordinal](std::string&& bytes) {
        return out->push(Chunk{(*ordinal)++, std::move(bytes)});
      };
      io.close_out = [out] { out->close(); };
      io.out_closed = [out] { return out->read_closed(); };
    }
    // Upstream cancellation: read-close the incoming channel (wakes a
    // blocked producer, whose failed push cascades the close further up)
    // and stop this segment's own feeder if it has one. The BlockReader is
    // cancelled outright — in a linear pipeline a close anywhere makes
    // everything upstream moot, and the reader's fd source polls, so even
    // a node-0 read blocked on an idle pipe wakes within one poll tick
    // instead of at the next (possibly never-arriving) block boundary.
    Channel* in_link = i > 0 ? links[i - 1].get() : nullptr;
    ParallelCtx* ctx_ptr = ctxs[i].get();
    BlockReader* reader_ptr = &reader;
    io.cancel_upstream = [in_link, ctx_ptr, reader_ptr] {
      if (ctx_ptr) {
        ctx_ptr->stop_input.store(true);
        ctx_ptr->slots.cancel();
      }
      if (in_link) in_link->close_read();
      reader_ptr->cancel();
    };

    const Segment& seg = segments[i];
    NodeMetrics& metrics = result.nodes[i];
    const NodeTelemetry& tele = teles[i];

    // Stats wrappers: count records crossing the node's boundaries without
    // touching the node implementations. Pulled blocks are record-aligned
    // (the BlockReader and every node cut at delimiters), so per-block
    // record counts sum exactly; pushes count only what downstream
    // accepted.
    if (tele.counters) {
      obs::StageCounters* sc = tele.counters;
      const char delim = config.delimiter;
      io.pull = [base = std::move(io.pull), sc,
                 delim]() -> std::optional<std::string> {
        std::optional<std::string> piece = base();
        if (piece)
          sc->records_in.fetch_add(obs::count_records(*piece, delim),
                                   std::memory_order_relaxed);
        return piece;
      };
      io.push = [base = std::move(io.push), sc, delim](std::string&& bytes) {
        const std::uint64_t records = obs::count_records(bytes, delim);
        if (!base(std::move(bytes))) return false;
        sc->records_out.fetch_add(records, std::memory_order_relaxed);
        return true;
      };
    }

    if (seg.parallel) {
      ParallelCtx& ctx = *ctxs[i];
      launch(
          tele, " (feeder)", "feeder failed: ",
          [&ctx, &metrics, pull = io.pull, &tele, &shared, &pool] {
            run_feeder(ctx, metrics, pull, tele, shared, pool);
          },
          [&ctx] {
            ctx.expected.store(static_cast<std::ptrdiff_t>(ctx.submitted));
          },
          nullptr);
      launch(
          tele, " (collector)", "collector failed: ",
          [&seg, &ctx, &metrics, io, &tele, &shared, &pool, &config] {
            run_collector(seg, ctx, metrics, io, tele, shared, pool, config);
          },
          io.close_out, &metrics);
    } else {
      auto run_node = seg.stream ? run_stream_chain : run_sequential;
      launch(
          tele, "", seg.stream ? "stream stage failed: " : "stage failed: ",
          [run_node, &seg, &metrics, io, &tele, &shared, &config] {
            run_node(seg, metrics, io, tele, shared, config);
          },
          io.close_out, &metrics);
    }
  }

  for (std::thread& t : threads) t.join();
  // Feeder threads are joined, so no task is submitted any more; wait out
  // any straggler pool tasks before the contexts go out of scope.
  for (const auto& ctx : ctxs)
    if (ctx)
      for (std::future<void>& task : ctx->tasks) task.wait();

  result.ok = !shared.failed.load();
  result.stopped_early = shared.stopped.load();
  result.combine_undefined = shared.combine_undefined.load();
  result.bytes_read = reader.bytes_delivered();
  if (!result.ok) {
    sync::MutexLock lock(shared.error_mu);
    result.error = shared.error;
  } else if (!result.stopped_early && reader.error() != 0) {
    // The source died mid-stream: everything downstream completed over a
    // truncated prefix, which must not pass as success.
    result.ok = false;
    result.error = read_error_message(reader.error());
  }
  result.peak_inflight_bytes = shared.gauge.peak();
  for (const NodeMetrics& node : result.nodes)
    result.spilled_bytes += node.spilled_bytes;
  if (config.stats) {
    // Every writer thread has been joined (and every pool task waited
    // out), so relaxed loads observe the final totals.
    for (std::size_t i = 0; i < n; ++i) {
      NodeMetrics& m = result.nodes[i];
      const obs::StageCounters& c = *counters[i];
      m.records_in = c.records_in.load(std::memory_order_relaxed);
      m.records_out = c.records_out.load(std::memory_order_relaxed);
      m.send_blocked_ns = c.send_blocked_ns.load(std::memory_order_relaxed);
      m.recv_blocked_ns = c.recv_blocked_ns.load(std::memory_order_relaxed);
      m.pool_hits = c.pool_hits.load(std::memory_order_relaxed);
      m.pool_misses = c.pool_misses.load(std::memory_order_relaxed);
      m.shard_slices = c.shard_slices.load(std::memory_order_relaxed);
      m.worker_busy_ns = c.worker_busy_ns.load(std::memory_order_relaxed);
      m.combine_ns = c.combine_ns.load(std::memory_order_relaxed);
      m.early_exit = obs::early_exit_name(c.early_exit_cause());
    }
    // Node 0 pulls straight from the BlockReader: its input-side blocked
    // time is the reader's poll waits, not a channel's.
    result.nodes[0].recv_blocked_ns += reader.wait_ns();
  }
  result.seconds = seconds_since(start);
  return result;
}

}  // namespace kq::stream
