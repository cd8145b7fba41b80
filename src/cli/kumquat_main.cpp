// The `kumquat` command-line driver: the end-user interface to the
// library (Figure 2's workflow as a tool).
//
//   kumquat synthesize '<command>'          synthesize and print combiners
//   kumquat compile '<pipeline>'            print the parallel plan
//   kumquat check [--json] '<pipeline>'     static diagnostics, no execution
//   kumquat run [--jobs N] [--no-opt] [--stream|--batch] [--block-size N]
//               '<pipeline>'                execute data-parallel,
//                                           stdin -> stdout
//
// `run` executes through kq::Executor (exec/executor.h), defaulting to the
// streaming dataflow runtime (src/stream/): stdin is consumed in
// record-aligned blocks and never materialized whole, so memory stays
// bounded on arbitrarily large inputs; eligible parallel segments run
// sharded (per-shard stream sub-chains feeding an incremental combining
// tree). `--batch` selects the original in-memory staged runner through
// the same facade. --jobs (alias -k) defaults to the hardware thread
// count, capped at 16, identically in both modes, and also bounds the
// threads that synthesize the pipeline's combiners before the run.
//
// `synthesize` resolves a command to a built-in when known, otherwise to a
// real binary through fork/exec — synthesis needs nothing from a command
// but its behaviour, which is the point of the paper. `run`, `compile` and
// `check` resolve built-ins only: a stage that names no built-in (or a
// built-in with an unsupported flag) is KQ-EXEC, and `run` refuses it with
// exit 2 before reading stdin.

#include <malloc.h>
#include <unistd.h>

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench_support/catalog.h"
#include "check/check.h"
#include "compile/optimize.h"
#include "compile/plan.h"
#include "exec/executor.h"
#include "obs/trace.h"
#include "procexec/external_command.h"
#include "text/shellwords.h"
#include "unixcmd/registry.h"

namespace {

using namespace kq;

cmd::CommandPtr resolve(const std::vector<std::string>& argv,
                        std::string* how) {
  std::string error;
  if (cmd::CommandPtr c = cmd::make_command(argv, &error)) {
    *how = "built-in";
    return c;
  }
  if (!argv.empty() && procexec::program_exists(argv[0])) {
    *how = "external binary";
    return std::make_shared<procexec::ExternalCommand>(argv);
  }
  *how = error;
  return nullptr;
}

int cmd_synthesize(const std::string& command_line) {
  auto argv = text::shell_split(command_line);
  if (!argv || argv->empty()) {
    std::cerr << "kumquat: cannot parse command line\n";
    return 2;
  }
  std::string how;
  cmd::CommandPtr command = resolve(*argv, &how);
  if (!command) {
    std::cerr << "kumquat: " << how << "\n";
    return 2;
  }
  std::cerr << "command:   " << command->display_name() << " (" << how
            << ")\n";
  synth::SynthesisResult result = synth::synthesize(*command, *argv);
  if (!result.success) {
    std::cerr << "no combiner: " << result.failure_reason << "\n";
    return 1;
  }
  std::cerr << "space:     " << result.space.total() << " candidates ("
            << result.space.rec << " RecOp + " << result.space.strct
            << " StructOp + " << result.space.run << " RunOp)\n"
            << "rounds:    " << result.rounds << ", "
            << result.observation_count << " observations, "
            << result.seconds << " s\n"
            << "certify:   " << result.sufficiency.verdict << "\n"
            << "plausible combiners:\n";
  for (const auto& g : result.plausible)
    std::cout << "  " << dsl::to_string(g) << "\n";
  std::cout << "selected: " << result.combiner.to_string() << "\n";
  return 0;
}

struct CompiledPipeline {
  compile::Plan plan;
  std::vector<exec::ExecStage> stages;
};

// `parallelism` bounds the threads that synthesize the pipeline's
// distinct commands (0 = the hardware default, as for -k); `fs` holds the
// files its stages name (the catalog's fixtures).
std::optional<CompiledPipeline> compile_line(const std::string& pipeline,
                                             bool rewrite,
                                             obs::Tracer* tracer = nullptr,
                                             int parallelism = 0,
                                             const vfs::Vfs* fs = nullptr) {
  std::string error;
  auto parsed = compile::parse_pipeline(pipeline, &error);
  if (!parsed) {
    std::cerr << "kumquat: " << error << "\n";
    return std::nullopt;
  }
  static synth::SynthesisCache cache;
  compile::PlanOptions options;
  options.parallelism = parallelism;
  options.tracer = tracer;  // records "synthesize <cmd>" compile spans
  CompiledPipeline out{
      compile::compile_pipeline(*parsed, cache, options, fs), {}};
  // Whole-pipeline rewrites (sort|head -> bounded top-n) run before
  // combiner elimination: a fused stage is sequential and ends an
  // elimination chain. --no-rewrite restores the per-stage plan.
  if (rewrite) compile::rewrite_bounded_windows(out.plan);
  compile::eliminate_intermediate_combiners(out.plan);
  out.stages = compile::lower_plan(out.plan);
  return out;
}

// `compile` prints the plan with the analyzer's diagnostics inline next to
// the memory:/rewritten-from: annotations — the diagnostics and memory
// labels come from the same check::analyze call `kumquat check` renders, at
// `run`'s defaults, so the two verbs can never disagree. With --check the
// verdict also drives the exit code (0 clean, 1 warnings, 2 errors);
// without it compile keeps exit 0.
int cmd_compile(const std::string& pipeline, bool rewrite, bool with_check) {
  auto compiled = compile_line(pipeline, rewrite);
  if (!compiled) return 2;
  check::Options check_options;
  check_options.rewrites_enabled = rewrite;
  check::Report report =
      check::analyze(compiled->plan, compiled->stages, check_options);
  std::cout << "plan: " << compiled->plan.parallelized() << "/"
            << compiled->plan.total() << " stages parallel, "
            << compiled->plan.eliminated() << " combiner(s) eliminated\n";
  for (std::size_t i = 0; i < compiled->plan.stages.size(); ++i) {
    const auto& stage = compiled->plan.stages[i];
    std::cout << "  " << stage.parsed.display << "\n    combiner: "
              << (stage.synthesis && stage.synthesis->success
                      ? stage.synthesis->combiner.to_string()
                      : "none")
              << "\n    mode:     "
              << (!stage.parallel
                      ? (!stage.rewritten_from.empty()
                             ? "sequential (fused bounded window)"
                             : (stage.sequential_rerun
                                    ? "sequential (rerun does not reduce)"
                                    : "sequential"))
                      : (stage.eliminate ? "parallel (combiner eliminated)"
                                         : "parallel"))
              << "\n";
    if (!stage.rewritten_from.empty())
      std::cout << "    rewritten-from: " << stage.rewritten_from << "\n";
    std::cout << "    memory:   " << report.stages[i].memory_class << "\n";
    // A multi-stage diagnostic (a rewrite near-miss span) prints once, at
    // the first stage of its span.
    for (const check::Diagnostic& d : report.diagnostics)
      if (d.stage_begin == static_cast<int>(i))
        std::cout << "    check:    " << check::format_diagnostic(d) << "\n";
  }
  if (with_check) {
    std::cout << "check: " << report.status() << " (" << report.errors()
              << " error(s), " << report.warnings() << " warning(s), "
              << report.infos() << " info)\n";
    return report.exit_code();
  }
  return 0;
}

// `check`: the static analyzer as a verb. Analyzes the compiled plan
// without executing anything; --catalog sweeps every pipeline of the
// 70-script crossval catalog instead of one operand. Exit code: 0 clean
// (at most info), 1 warnings, 2 errors.
int cmd_check(const std::string& pipeline, bool rewrite, bool json,
              std::size_t spill_threshold, bool catalog) {
  check::Options options;
  options.run.spill_threshold = spill_threshold;
  options.rewrites_enabled = rewrite;
  std::vector<check::PipelineReport> reports;
  auto add = [&](const std::string& name, const std::string& line,
                 const vfs::Vfs* fs) {
    auto compiled = compile_line(line, rewrite, nullptr, 0, fs);
    if (!compiled) return false;
    reports.push_back({name, line, check::analyze(compiled->plan,
                                                  compiled->stages, options)});
    return true;
  };
  if (catalog) {
    // The catalog's file-consuming stages (comm, xargs, cat operands) need
    // their fixtures installed in a VFS before make_command resolves them.
    vfs::Vfs fs;
    for (const bench::Script& script : bench::all_scripts()) {
      bench::prepare_input(script, 1 << 10, 1, fs);
      for (const std::string& line : script.pipelines)
        if (!add(script.suite + "/" + script.name, line, &fs)) return 2;
    }
  } else if (!add(pipeline, pipeline, nullptr)) {
    return 2;
  }
  if (json) {
    check::write_json(reports, std::cout);
  } else {
    for (const check::PipelineReport& entry : reports) {
      if (catalog) std::cout << "== " << entry.name << "\n";
      check::render_human(entry.report, entry.pipeline, std::cout);
    }
  }
  return check::exit_code(reports);
}

// Human-readable ns -> "12.3ms"-style duration for the --stats table.
std::string format_ms(std::uint64_t ns) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(1)
      << static_cast<double>(ns) / 1e6 << "ms";
  return out.str();
}

// The per-stage --stats table (stderr). One row per dataflow node:
//
//   stage  memory  blocks  records in/out  bytes in/out  blocked(send/recv)
//   pool(hit/miss)  spill(runs/bytes)  early-exit
//
// Counter semantics are documented in docs/OBSERVABILITY.md.
void print_stream_stats(const kq::ExecResult& result) {
  std::cerr << "kumquat stats: " << result.nodes.size() << " node(s), peak "
            << result.peak_inflight_bytes << " bytes in flight, read "
            << result.bytes_read << " input bytes\n";
  for (std::size_t i = 0; i < result.nodes.size(); ++i) {
    const stream::NodeMetrics& n = result.nodes[i];
    std::cerr << "  [" << i << "] " << n.commands << "\n"
              << "      memory=" << n.memory
              << (n.parallel ? " parallel" : "")
              << (n.sharded ? " sharded" : "")
              << (n.streamed_combine ? " streamed-combine" : "");
    if (n.parallel) std::cerr << " combine=" << format_ms(n.combine_ns);
    std::cerr << "\n"
              << "      blocks=" << n.chunks << " records=" << n.records_in
              << "/" << n.records_out << " bytes=" << n.in_bytes << "/"
              << n.out_bytes << "\n"
              << "      blocked send=" << format_ms(n.send_blocked_ns)
              << " recv=" << format_ms(n.recv_blocked_ns)
              << " pool=" << n.pool_hits << "/"
              << (n.pool_hits + n.pool_misses);
    if (n.spill_runs != 0 || n.spilled_bytes != 0)
      std::cerr << " spill=" << n.spill_runs << " runs/" << n.spilled_bytes
                << " bytes";
    if (!n.early_exit.empty())
      std::cerr << " early-exit=" << n.early_exit;
    std::cerr << "\n";
    if (n.sharded)
      std::cerr << "      shard slice=" << n.shard_slice_bytes
                << " bytes slices=" << n.shard_slices
                << " worker-busy=" << format_ms(n.worker_busy_ns) << "\n";
  }
}

// Batch-path --stats: the staged runner's per-stage metrics, carried in the
// same unified NodeMetrics rows the facade returns for stream runs.
void print_batch_stats(const kq::ExecResult& result) {
  std::cerr << "kumquat stats: " << result.nodes.size()
            << " stage(s), batch\n";
  for (std::size_t i = 0; i < result.nodes.size(); ++i) {
    const stream::NodeMetrics& n = result.nodes[i];
    std::cerr << "  [" << i << "] " << n.commands << "\n"
              << "      " << (n.parallel ? "parallel" : "sequential")
              << (n.combiner_eliminated ? " (combiner eliminated)" : "")
              << (n.combine_fallback ? " (combine fallback)" : "")
              << " chunks=" << n.chunks << " bytes=" << n.in_bytes << "/"
              << n.out_bytes << " seconds=" << n.seconds << "\n";
  }
}

int cmd_run(const std::string& pipeline, int k, bool optimize, bool streaming,
            std::size_t block_size, std::size_t spill_threshold,
            char delimiter, bool rewrite, bool stats,
            const std::string& trace_path, bool check_only) {
  // One facade for both modes: --jobs/-k, elimination, and the streaming
  // knobs resolve identically whether the staged runner or the dataflow
  // runtime executes the plan. k == 0 resolves the hardware default.
  kq::ExecOptions options;
  options.mode = streaming ? kq::ExecMode::kStream : kq::ExecMode::kBatch;
  options.parallelism = k;
  options.use_elimination = optimize;
  options.block_size = block_size;
  options.spill_threshold = spill_threshold;
  options.delimiter = delimiter;
  options.stats = stats;

  // --check: static analysis of the exact plan this run would execute, at
  // these settings, then exit with the analyzer's verdict instead of
  // reading stdin.
  if (check_only) {
    auto compiled = compile_line(pipeline, rewrite, nullptr, k);
    if (!compiled) return 2;
    check::Options check_options;
    check_options.run = options;
    check_options.rewrites_enabled = rewrite;
    check::Report report =
        check::analyze(compiled->plan, compiled->stages, check_options);
    check::render_human(report, pipeline, std::cout);
    return report.exit_code();
  }
  // Fail on an unwritable trace path *before* compiling or consuming any
  // input: a run whose trace silently vanished is worse than no run.
  std::ofstream trace_out;
  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_path.empty()) {
    trace_out.open(trace_path, std::ios::out | std::ios::trunc);
    if (!trace_out) {
      std::cerr << "kumquat: cannot open trace file '" << trace_path
                << "' for writing\n";
      return 2;
    }
    tracer = std::make_unique<obs::Tracer>();
  }

  // -k also bounds the threads that synthesize combiners: -k 1 compiles
  // on this thread alone.
  auto compiled = compile_line(pipeline, rewrite, tracer.get(), k);
  if (!compiled) return 2;
  // A stage that resolved to no built-in cannot run (lower_plan's marker
  // command would print an error line as its output): refuse the plan
  // before reading stdin, with the diagnostic `kumquat check` calls KQ-EXEC.
  bool unresolved = false;
  for (std::size_t i = 0; i < compiled->plan.stages.size(); ++i) {
    const compile::PlannedStage& stage = compiled->plan.stages[i];
    if (stage.command) continue;
    std::cerr << "kumquat: KQ-EXEC: stage [" << i << "] '"
              << stage.parsed.display << "' cannot execute: "
              << (stage.seq_detail.empty() ? "command did not resolve"
                                           : stage.seq_detail)
              << "\n";
    unresolved = true;
  }
  if (unresolved) return 2;

  options.tracer = tracer.get();
  kq::Executor executor(options);
  const int resolved_k = executor.options().parallelism;

  // Serializes the trace (if any); returns false when the write failed.
  auto write_trace = [&]() -> bool {
    if (!tracer) return true;
    tracer->write_chrome_json(trace_out);
    trace_out.flush();
    if (!trace_out) {
      std::cerr << "kumquat: failed writing trace file '" << trace_path
                << "'\n";
      return false;
    }
    std::cerr << "kumquat: wrote " << tracer->event_count()
              << " trace events to " << trace_path << "\n";
    return true;
  };

  if (streaming) {
#ifdef __GLIBC__
    // Keep block-sized strings mmap-backed: glibc's dynamic mmap threshold
    // would otherwise grow past the block size and retire freed blocks
    // into resident arena pages, inflating RSS by O(100 MiB) on long runs
    // — allocator slack, but indistinguishable from a leak to anyone
    // watching the bounded-memory runtime. The sharded path's blocks,
    // slices and parts now circulate through the run's BufferPool, so the
    // pin's remaining cost is the per-block kernels' line indexes in a
    // chain node (a 1 MiB block of short lines indexes past 128 KiB).
    // Measured without it on kqbench's inputs (4-vCPU VM): fold's k=1 run
    // took 23% less CPU, but wf's k=4 peak RSS rose from 28.2 to 41.7 MiB.
    // It can go once those kernels stop building line vectors (ROADMAP's
    // byte-kernel item).
    mallopt(M_MMAP_THRESHOLD, 128 << 10);
#endif
    std::ios::sync_with_stdio(false);
  }
  // Read stdin by fd, not istream: in stream mode the fd source is
  // poll(2)-driven, so an early exit (a satisfied `head`) wakes a read
  // blocked on an idle pipe promptly instead of at the next block
  // boundary; in batch mode the facade slurps the fd whole.
  kq::ExecResult result = executor.run(
      compiled->stages, kq::Source::from_fd(STDIN_FILENO), std::cout);
  std::cout.flush();
  bool trace_ok = write_trace();
  if (!result.ok) {
    // An undefined combine is the one failure --batch recovers from: its
    // per-stage serial fallback reruns the stage whole.
    std::cerr << "kumquat: " << (streaming ? "streaming " : "") << "run failed: "
              << result.error
              << (result.combine_undefined ? " (rerun with --batch)" : "")
              << "\n";
    return 1;
  }
  std::cerr << "kumquat: " << result.seconds << " s at k=" << resolved_k;
  if (streaming) {
    // kqbench/run.py fingerprints a run by this "(io=...)" field.
    std::cerr << ", streaming (io=" << result.io_backend << ")";
    std::cerr << ", read " << result.bytes_read
              << " input bytes, peak " << result.peak_inflight_bytes
              << " bytes in flight";
    if (result.spilled_bytes != 0)
      std::cerr << ", spilled " << result.spilled_bytes << " bytes to disk";
    std::cerr << "\n";
    if (stats) print_stream_stats(result);
  } else {
    std::cerr << ", batch\n";
    if (stats) print_batch_stats(result);
  }
  return trace_ok ? 0 : 1;
}

// Parses a one-byte record delimiter: a single character, or one of the
// escapes \t \n \0 \\. Multi-byte delimiters are rejected with a message
// (the block reader realigns on exactly one byte).
bool parse_delimiter(const char* text, char* out, std::string* error) {
  std::size_t len = std::strlen(text);
  if (len == 1) {
    *out = text[0];
    return true;
  }
  if (len == 2 && text[0] == '\\') {
    switch (text[1]) {
      case 't': *out = '\t'; return true;
      case 'n': *out = '\n'; return true;
      case '0': *out = '\0'; return true;
      case '\\': *out = '\\'; return true;
    }
  }
  *error = len == 0 ? "--delimiter requires a byte argument"
                    : "--delimiter takes a single byte (got \"" +
                          std::string(text) +
                          "\"); multi-byte delimiters are not supported";
  return false;
}

// Parses the size operand of `flag` into *out: "1048576", "64K", "4M",
// "1G" (case-insensitive suffixes), and "0" where `zero_ok`. On trailing
// garbage, NaN, or a size outside [1, 1 TiB] prints what the flag accepts
// and returns false.
bool parse_size_flag(const char* flag, const char* text, bool zero_ok,
                     std::size_t* out) {
  if (zero_ok && std::strcmp(text, "0") == 0) {
    *out = 0;  // spilling (and the record cap) off
    return true;
  }
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  const bool digits = end != text;
  double unit = 1;
  if (*end == 'k' || *end == 'K') unit = 1024, ++end;
  else if (*end == 'm' || *end == 'M') unit = 1024.0 * 1024, ++end;
  else if (*end == 'g' || *end == 'G') unit = 1024.0 * 1024 * 1024, ++end;
  const double bytes = value * unit;
  // NaN fails both comparisons; the upper bound keeps the cast defined.
  if (digits && *end == '\0' && bytes >= 1 && bytes <= 1099511627776.0) {
    *out = static_cast<std::size_t>(bytes);
    return true;
  }
  std::cerr << "kumquat: " << flag << " takes " << (zero_ok ? "0 or " : "")
            << "a size in [1, 1T] bytes with an optional K/M/G suffix (got '"
            << text << "')\n";
  return false;
}

// The most workers -k/--jobs may ask for.
constexpr int kMaxJobs = 1024;

// Parses a -k/--jobs operand: the whole argument must be a decimal integer
// in [1, kMaxJobs]; on anything else prints the range and returns false.
bool parse_jobs(const char* flag, const char* text, int* out) {
  const char* end = text + std::strlen(text);
  const auto [stop, error] = std::from_chars(text, end, *out);
  if (error == std::errc() && stop == end && *out >= 1 && *out <= kMaxJobs)
    return true;
  std::cerr << "kumquat: " << flag << " takes an integer in [1, " << kMaxJobs
            << "] (got '" << text << "')\n";
  return false;
}

// The operand of the value-taking flag at argv[*i], advancing *i; null
// after reporting a flag given as the last argument.
const char* flag_operand(const char* verb, int argc, char** argv, int* i) {
  if (*i + 1 < argc) return argv[++*i];
  std::cerr << "kumquat: " << verb << ": " << argv[*i] << " requires a value\n";
  return nullptr;
}

void usage() {
  std::cerr << "usage:\n"
               "  kumquat synthesize '<command>'\n"
               "  kumquat compile [--no-rewrite] [--check] '<pipeline>'\n"
               "  kumquat check [--json] [--no-rewrite] "
               "[--spill-threshold N[K|M|G]|0]\n"
               "                [--catalog | '<pipeline>']\n"
               "  kumquat run [--jobs N|-k N] [--no-opt] [--no-rewrite] "
               "[--stream|--batch]\n"
               "              [--block-size N[K|M|G]] "
               "[--spill-threshold N[K|M|G]|0]\n"
               "              [--delimiter C]\n"
               "              [--stats] [--trace-json FILE]\n"
               "              [--check] '<pipeline>'  (stdin -> stdout)\n"
               "\n"
               "  run executes through kq::Executor: the streaming dataflow\n"
               "  runtime by default (bounded memory, default 1M blocks;\n"
               "  eligible parallel stages run sharded). Nodes that would\n"
               "  accumulate more than --spill-threshold (default 64M) spill\n"
               "  to disk; 0 disables spilling. --delimiter sets the record\n"
               "  byte the streaming reader realigns on (default \\n; accepts\n"
               "  \\t \\n \\0 escapes; under any other byte, parallel stages\n"
               "  run sequentially). --batch selects the in-memory staged\n"
               "  runner, which ignores the streaming-only flags. --jobs\n"
               "  (alias -k) defaults to the hardware thread count (max 16),\n"
               "  accepts 1 to 1024, and applies identically in both modes.\n"
               "  It also bounds the threads that synthesize the pipeline's\n"
               "  combiners before the run (-k 1 synthesizes on one thread).\n"
               "\n"
               "  compile and run fuse bounded top-N patterns by default\n"
               "  ('sort | head -n N', 'uniq -c | sort -rn | head -n K')\n"
               "  into O(N) window stages; --no-rewrite keeps the original\n"
               "  per-stage plan.\n"
               "\n"
               "  --stats prints a per-stage telemetry table to stderr\n"
               "  (records, bytes, blocked time, spill activity). "
               "--trace-json\n"
               "  writes a Chrome trace-event file loadable in Perfetto\n"
               "  (see docs/OBSERVABILITY.md).\n"
               "\n"
               "  check analyzes the compiled plan without executing it and\n"
               "  emits coded diagnostics (KQ-MEM, KQ-PROBE, KQ-ORDER,\n"
               "  KQ-DEAD, KQ-REWRITE, KQ-EXEC — see docs/CHECKS.md); exit\n"
               "  code 0 = clean, 1 = warnings, 2 = errors. --json emits the\n"
               "  versioned machine-readable document; --catalog sweeps the\n"
               "  70-pipeline crossval catalog. `run --check` and `compile\n"
               "  --check` apply the same analyzer to the plan those verbs\n"
               "  would use.\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    usage();
    return 2;
  }
  std::string verb = argv[1];
  if (verb == "synthesize") return cmd_synthesize(argv[2]);
  if (verb == "compile") {
    bool rewrite = true;
    bool with_check = false;
    std::string pipeline;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--no-rewrite") == 0) {
        rewrite = false;
      } else if (std::strcmp(argv[i], "--check") == 0) {
        with_check = true;
      } else if (std::strncmp(argv[i], "--", 2) == 0) {
        // A typo'd flag silently compiled as the pipeline would mislead
        // anyone comparing rewritten vs unrewritten plans.
        std::cerr << "kumquat: compile: unknown option " << argv[i] << "\n";
        return 2;
      } else if (!pipeline.empty()) {
        // An unquoted pipeline arrives as several operands; keeping only
        // the last would silently compile the wrong thing.
        std::cerr << "kumquat: compile: unexpected operand '" << argv[i]
                  << "' (quote the pipeline)\n";
        return 2;
      } else {
        pipeline = argv[i];
      }
    }
    if (pipeline.empty()) {
      usage();
      return 2;
    }
    return cmd_compile(pipeline, rewrite, with_check);
  }
  if (verb == "check") {
    bool rewrite = true;
    bool json = false;
    bool catalog = false;
    std::size_t spill_threshold = 64 << 20;
    std::string pipeline;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--no-rewrite") == 0) {
        rewrite = false;
      } else if (std::strcmp(argv[i], "--json") == 0) {
        json = true;
      } else if (std::strcmp(argv[i], "--catalog") == 0) {
        catalog = true;
      } else if (std::strcmp(argv[i], "--spill-threshold") == 0) {
        const char* value = flag_operand("check", argc, argv, &i);
        if (!value || !parse_size_flag("--spill-threshold", value, true,
                                       &spill_threshold))
          return 2;
      } else if (std::strncmp(argv[i], "--", 2) == 0) {
        // A typo'd flag silently analyzed as the pipeline would report
        // diagnostics for the wrong thing.
        std::cerr << "kumquat: check: unknown option " << argv[i] << "\n";
        return 2;
      } else if (!pipeline.empty()) {
        std::cerr << "kumquat: check: unexpected operand '" << argv[i]
                  << "' (quote the pipeline)\n";
        return 2;
      } else {
        pipeline = argv[i];
      }
    }
    if (catalog != pipeline.empty()) {
      // Exactly one of --catalog / a pipeline operand must be given.
      usage();
      return 2;
    }
    return cmd_check(pipeline, rewrite, json, spill_threshold, catalog);
  }
  if (verb == "run") {
    int k = 0;  // 0 = the hardware default (kq::default_parallelism())
    bool optimize = true;
    bool streaming = true;
    bool rewrite = true;
    std::size_t block_size = 1 << 20;
    std::size_t spill_threshold = 64 << 20;
    char delimiter = '\n';
    bool stats = false;
    bool check_only = false;
    std::string trace_path;
    std::string pipeline;
    for (int i = 2; i < argc; ++i) {
      const char* flag = argv[i];
      if (std::strcmp(flag, "-k") == 0 || std::strcmp(flag, "--jobs") == 0) {
        const char* value = flag_operand("run", argc, argv, &i);
        if (!value || !parse_jobs(flag, value, &k)) return 2;
      } else if (std::strcmp(argv[i], "--no-opt") == 0) {
        optimize = false;
      } else if (std::strcmp(argv[i], "--no-rewrite") == 0) {
        rewrite = false;
      } else if (std::strcmp(argv[i], "--check") == 0) {
        check_only = true;
      } else if (std::strcmp(argv[i], "--stream") == 0) {
        streaming = true;
      } else if (std::strcmp(argv[i], "--batch") == 0) {
        streaming = false;
      } else if (std::strcmp(argv[i], "--block-size") == 0) {
        const char* value = flag_operand("run", argc, argv, &i);
        if (!value || !parse_size_flag(flag, value, false, &block_size))
          return 2;
      } else if (std::strcmp(argv[i], "--spill-threshold") == 0) {
        const char* value = flag_operand("run", argc, argv, &i);
        if (!value || !parse_size_flag(flag, value, true, &spill_threshold))
          return 2;
      } else if (std::strcmp(argv[i], "--delimiter") == 0) {
        const char* value = flag_operand("run", argc, argv, &i);
        if (!value) return 2;
        std::string error;
        if (!parse_delimiter(value, &delimiter, &error)) {
          std::cerr << "kumquat: " << error << "\n";
          return 2;
        }
      } else if (std::strcmp(argv[i], "--stats") == 0) {
        stats = true;
      } else if (std::strcmp(argv[i], "--trace-json") == 0) {
        const char* value = flag_operand("run", argc, argv, &i);
        if (!value) return 2;
        trace_path = value;
        if (trace_path.empty()) {
          std::cerr << "kumquat: --trace-json requires a file path\n";
          return 2;
        }
      } else if (std::strncmp(argv[i], "--", 2) == 0) {
        // A typo'd --no-rewrite silently running WITH the rewrite would
        // make an A/B comparison pass vacuously.
        std::cerr << "kumquat: run: unknown option " << argv[i] << "\n";
        return 2;
      } else if (!pipeline.empty()) {
        std::cerr << "kumquat: run: unexpected operand '" << argv[i]
                  << "' (quote the pipeline)\n";
        return 2;
      } else {
        pipeline = argv[i];
      }
    }
    if (pipeline.empty()) {
      usage();
      return 2;
    }
    return cmd_run(pipeline, k, optimize, streaming, block_size,
                   spill_threshold, delimiter, rewrite, stats, trace_path,
                   check_only);
  }
  usage();
  return 2;
}
