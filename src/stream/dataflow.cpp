// Placement and graph wiring: place() cuts the plan into nodes, and
// run_dataflow connects them with bounded channels and runs each node's
// body (stream/nodes.h) on its own thread until the stream drains, stops
// early, or fails.
#include "stream/dataflow.h"

#include <algorithm>
#include <cerrno>
#include <memory>
#include <thread>

#include "stream/nodes.h"
#include "unixcmd/topn.h"

namespace kq::stream {
namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// What one stage can become in this run, before fusion.
enum class Role {
  kParallel,  // fans out to the pool
  kPerBlock,  // runs per block through its stream processor
  kWindow,    // runs through its window processor, ending a chain
  kWhole,     // needs its whole input in one node
};

// A stage fans out when the plan made it parallel, k > 1, and records are
// '\n' lines: slices are cut at the delimiter, so under a custom one a
// slice could end mid-line, and the line-based built-ins (whose
// streamability and comparators are statements about '\n' lines) run
// whole. A plan-parallel stage that does not fan out runs sequentially,
// where its declared streamability beats a whole-input run; a stage
// lower_plan classed as a stream or window stage stays one at any k.
Role role_of(const exec::ExecStage& stage, const ExecOptions& options) {
  const bool lines = options.delimiter == '\n';
  const bool fans_out = stage.parallel && stage.combine != nullptr &&
                        options.parallelism > 1 && lines;
  if (lines && stage.command) {
    const cmd::Streamability s = stage.command->streamability();
    const exec::MemoryClass m = stage.memory_class;
    if (s == cmd::Streamability::kWindow &&
        (m == exec::MemoryClass::kWindowStream || !fans_out))
      return Role::kWindow;
    if (s == cmd::Streamability::kPerRecord &&
        (m == exec::MemoryClass::kStatelessStream || !fans_out))
      return Role::kPerBlock;
    if (s == cmd::Streamability::kPrefix &&
        m == exec::MemoryClass::kStatelessStream)
      return Role::kPerBlock;
  }
  return fans_out ? Role::kParallel : Role::kWhole;
}

// The comparator a stage orders its own input under: lower_plan's
// sort_spec for a plan-sequential stage, re-derived for a plan-parallel
// one, whose sort_spec is its merge combiner's (that orders f's outputs,
// not raw input). Null for a command that is no sort.
std::shared_ptr<const cmd::SortSpec> input_order(
    const exec::ExecStage& stage) {
  return stage.parallel ? cmd::sort_spec_of(*stage.command) : stage.sort_spec;
}

// Fills a placed node's label, bound and `bounded`: the table in
// docs/ARCHITECTURE.md ("Placement").
void describe(Placement& p, const ExecOptions& options) {
  const bool spill = options.spill_threshold != 0;
  const bool sharded = p.kind == NodeKind::kShardedParallel;
  const char* no_spill = "O(input): spilling disabled (--spill-threshold 0)";
  switch (p.kind) {
    case NodeKind::kParallel:
    case NodeKind::kShardedParallel:
      if (p.combine == Combine::kFold) {
        p.label = sharded ? "sharded-streaming" : "streaming";
        p.bound = sharded ? "O(k x slice): sharded sub-chains feed a fold"
                          : "O(k x block): chunk outputs feed a fold";
      } else if (p.combine == Combine::kMerge) {
        p.label = sharded ? "sharded-spill-merge" : "sortable-spill";
        p.bounded = spill;
        p.bound = !spill    ? no_spill
                  : sharded ? "O(k x window + spill threshold): a window "
                              "per slot, sorted runs on disk"
                            : "O(k x block + spill threshold): a sorted "
                              "chunk per slot, sorted runs on disk";
      } else {
        p.label = sharded ? "sharded" : "materialize";
        p.bounded = false;
        p.bound = p.combine == Combine::kRerun
                      ? "O(input): held parts joined for one rerun"
                      : "O(input): held parts wait for one k-way combine";
      }
      return;
    case NodeKind::kStreamChain:
      p.label = "stateless-stream";
      p.bound = "O(block): fused per-block stream chain";
      return;
    case NodeKind::kWindowChain:
      p.label = "window-stream";
      if (cmd::fused_sort_spec_of(*p.stages.back()->command)) {
        p.bound = "O(N): fused bounded top-N window";
      } else if (!p.spec) {
        p.bound = "O(window): bounded by the command's own window";
      } else if (spill) {
        p.bound = "O(min(window, spill threshold)): then sorted runs on disk";
      } else {
        p.bounded = false;
        p.bound = "O(distinct input): sorted runs disabled "
                  "(--spill-threshold 0)";
      }
      return;
    case NodeKind::kExternalSort:
      p.label = "sortable-spill";
      p.bounded = spill;
      p.bound = spill ? "O(spill threshold): sorted runs on disk" : no_spill;
      return;
    case NodeKind::kWholeInput:
      p.label = "materialize";
      p.bounded = false;
      p.bound = "O(input): the stage runs once over its whole input";
      return;
  }
}

ExecOptions sanitize(ExecOptions config) {
  if (config.parallelism < 1) config.parallelism = 1;
  if (config.block_size == 0) config.block_size = 1;
  if (config.max_inflight == 0)
    config.max_inflight =
        2 * static_cast<std::size_t>(config.parallelism) + 2;
  return config;
}

}  // namespace

std::vector<const cmd::Command*> Placement::commands() const {
  std::vector<const cmd::Command*> out;
  for (const exec::ExecStage* s : stages) out.push_back(s->command.get());
  return out;
}

std::string Placement::display() const {
  std::string out;
  for (const exec::ExecStage* s : stages) {
    if (!out.empty()) out += " | ";
    out += s->command->display_name();
  }
  return out;
}

std::vector<Placement> place(const std::vector<exec::ExecStage>& stages,
                             const ExecOptions& options) {
  std::vector<Placement> nodes;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    Placement p;
    p.first = i;
    p.stages.push_back(&stages[i]);
    const Role role = role_of(stages[i], options);
    if (role == Role::kWindow) {
      // A window's finish() emits after all its input, so nothing fuses
      // behind it.
      p.kind = NodeKind::kWindowChain;
    } else if (role == Role::kPerBlock) {
      // The maximal run of per-block stages is one node: a `grep | tr |
      // cut` chain costs one channel hop, not three. A window stage may
      // join as the terminal (`grep | uniq` absorbs grep's output into the
      // run window), and ends the chain.
      p.kind = NodeKind::kStreamChain;
      while (p.kind == NodeKind::kStreamChain && i + 1 < stages.size()) {
        const Role next = role_of(stages[i + 1], options);
        if (next != Role::kPerBlock && next != Role::kWindow) break;
        p.stages.push_back(&stages[++i]);
        if (next == Role::kWindow) p.kind = NodeKind::kWindowChain;
      }
    } else if (role == Role::kParallel) {
      // A stage whose concat combiner is eliminated (Theorem 5) feeds its
      // parts straight into the next parallel stage: here, one worker
      // chain. A next stage with a per-block role keeps its own chain node
      // (head fused into a worker chain would lose the early exit that
      // makes it O(blocks)).
      while (options.use_elimination && p.stages.back()->eliminate_combiner &&
             i + 1 < stages.size() &&
             role_of(stages[i + 1], options) == Role::kParallel)
        p.stages.push_back(&stages[++i]);
      // Sharded: every member was recorded shard-eligible by lower_plan
      // (it runs through a stream or window processor), and only the
      // terminal may be a window, whose emission comes at slice end.
      bool sharded = true;
      for (const exec::ExecStage* s : p.stages)
        sharded = sharded && s->shardable && s->command &&
                  (s == p.stages.back() || s->command->streamability() ==
                                               cmd::Streamability::kPerRecord);
      p.kind = sharded ? NodeKind::kShardedParallel : NodeKind::kParallel;
      // The collector's one strategy: the combining stage's fold, where
      // lower_plan bound one; else a merge under the merge combiner's
      // comparator; else held parts, joined for a rerun or handed to the
      // k-way combine.
      const exec::ExecStage& combining = *p.stages.back();
      if (combining.fold) {
        p.combine = Combine::kFold;
      } else if (combining.sort_spec && !combining.rerun_combiner) {
        p.combine = Combine::kMerge;
        p.spec = combining.sort_spec;
      } else if (combining.rerun_combiner) {
        p.combine = Combine::kRerun;
      } else {
        p.combine = Combine::kDeferred;
      }
    } else {
      // A sort-class stage sorts externally under its own comparator
      // ('\n' records: sort is line-based); anything else runs once over
      // its whole input.
      const exec::ExecStage& s = stages[i];
      if (s.memory_class == exec::MemoryClass::kSortableSpill && s.command &&
          options.delimiter == '\n')
        p.spec = input_order(s);
      p.kind = p.spec ? NodeKind::kExternalSort : NodeKind::kWholeInput;
    }
    if (p.kind == NodeKind::kWindowChain)
      p.spec = input_order(*p.stages.back());
    describe(p, options);
    nodes.push_back(std::move(p));
  }
  return nodes;
}

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

  const std::vector<Placement> nodes = place(stages, config);
  const std::size_t n = nodes.size();

  Shared shared;
  shared.reader = &reader;
  if (config.tracer) reader.set_tracer(config.tracer);
  // The pool may retain at most what the run circulates: one in-flight
  // budget of blocks, and for each sharded node (below) a part per slot
  // beside its slices and the slice its feeder fills. Less drops buffers a
  // node needs again at its next burst; more would let a release-heavy
  // node (a window absorbing blocks and emitting nothing) park the
  // stream's blocks as dead pool capacity.
  const std::size_t inflight_budget = config.max_inflight * config.block_size;
  std::size_t pool_budget = inflight_budget;
  std::vector<std::unique_ptr<Channel>> links;  // node i -> i+1
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
    const Placement& node = nodes[i];
    const bool sharded = node.kind == NodeKind::kShardedParallel;
    result.nodes[i].commands = node.display();
    result.nodes[i].parallel = node.parallel();
    result.nodes[i].sharded = sharded;
    if (config.stats) {
      counters[i] = std::make_unique<obs::StageCounters>();
      teles[i].counters = counters[i].get();
      result.nodes[i].memory = node.label;
    }
    teles[i].tracer = config.tracer;
    teles[i].label = result.nodes[i].commands;
    if (node.parallel()) {
      // Every parallel node, sharded or not, fans out chunks of at most
      // one block, at most max_inflight of them at once.
      if (sharded) {
        result.nodes[i].shard_slice_bytes = config.block_size;
        pool_budget += inflight_budget + config.block_size;
      }
      ctxs[i] = std::make_unique<ParallelCtx>(
          config.max_inflight, config.block_size, &shared.gauge);
      ctxs[i]->sharded = sharded;
      ctxs[i]->chain = node.commands();
      ctxs[i]->merge_spec = node.spec;  // a parallel node's is a merge's
      if (node.combine == Combine::kFold)
        ctxs[i]->fold.emplace(node.stages.back()->fold());
      // A feeder stalled on the in-flight bound is send-blocked: its
      // output backpressure arrives through the slot semaphore.
      if (config.stats)
        ctxs[i]->slots.set_telemetry(&counters[i]->send_blocked_ns);
    }
  }
  shared.pool.set_limits(pool_budget, config.block_size);
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
      // The reader's blocks come from the pool, charged to node 0.
      io.pull = [&reader, &shared, &tele = teles[0]] {
        return reader.next([&](std::size_t min_capacity) {
          return shared.acquire(min_capacity, tele);
        });
      };
    } else {
      Channel* in = links[i - 1].get();
      io.pull = [in]() -> std::optional<std::string> {
        std::optional<Chunk> c = in->pop();
        if (!c) return std::nullopt;
        return std::move(c->bytes);
      };
    }
    if (i + 1 == n) {
      // The sink is a buffer's last reader: it goes back to the pool.
      io.push = [&sink, &shared](std::string&& bytes) {
        const bool more = sink(bytes);
        shared.pool.release(std::move(bytes));
        if (more) return true;
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
    // and stop this node's own feeder if it has one. The BlockReader is
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

    const Placement& node = nodes[i];
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

    if (node.parallel()) {
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
          [&node, &ctx, &metrics, io, &tele, &shared, &pool, &config] {
            run_collector(node, ctx, metrics, io, tele, shared, pool, config);
          },
          io.close_out, &metrics);
    } else {
      const bool chain = node.kind == NodeKind::kStreamChain ||
                         node.kind == NodeKind::kWindowChain;
      auto run_node = chain ? run_stream_chain : run_sequential;
      launch(
          tele, "", chain ? "stream stage failed: " : "stage failed: ",
          [run_node, &node, &metrics, io, &tele, &shared, &config] {
            run_node(node, metrics, io, tele, shared, config);
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
