// kqbench_layers: the in-process half of the kqbench benchmark (run.py is
// the other half). It links libkumquat and calls each layer's public
// functions directly, so the benchmark can time a layer without going
// through the CLI. Three verbs, each printing one JSON object on stdout:
//
//   kqbench_layers gen <workload> <seed> <bytes> <path>
//       Writes the seeded input of one workload (scan, fold or wf).
//
//   kqbench_layers setup <pipeline> <seconds>
//       Times the CLI's compile sequence with a cold SynthesisCache
//       (parse_pipeline -> compile_pipeline -> rewrite_bounded_windows ->
//       eliminate_intermediate_combiners -> lower_plan), repeated for about
//       <seconds>, and reports the plan's shape.
//
//   kqbench_layers trace <workload> <run> <pipeline> <input> <expect>
//                        <out-dir> <spill-threshold> <untraced-runs>
//       The traced pass: untraced and traced kq::Executor runs at the
//       default k (fd source, file sink; a <spill-threshold> of 0 keeps the
//       library default), then compile, source-read,
//       per-stage and combine replays. Every call into a layer sits in one
//       of the benchmark's own spans; they are written once, at the end, to
//       <out-dir>/bench_spans.json, and the runtime's own spans to
//       <out-dir>/runtime_trace.json.
//
// Every output the pass produces is compared byte for byte with <expect>,
// the GNU coreutils output for the same input.

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "compile/optimize.h"
#include "compile/pipeline.h"
#include "compile/plan.h"
#include "exec/executor.h"
#include "obs/trace.h"
#include "stream/block_reader.h"
#include "synth/synthesize.h"

namespace {

using namespace kq;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr double kMiB = 1024.0 * 1024.0;
// The runtime's block size and its derived shard slice (ExecOptions
// defaults, which the CLI shares): the replays cut their input the same way.
constexpr std::size_t kBlockBytes = 1 << 20;
constexpr std::size_t kSliceBytes = 2 * kBlockBytes;

// ------------------------------------------------------------------ json --

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    out += json_num(values[i]);
  }
  return out + "]";
}

// A flat JSON object built field by field.
class JsonObject {
 public:
  JsonObject& raw(std::string_view key, std::string_view value) {
    body_ += body_.empty() ? "" : ", ";
    body_ += json_str(key);
    body_ += ": ";
    body_ += value;
    return *this;
  }
  JsonObject& str(std::string_view key, std::string_view value) {
    return raw(key, json_str(value));
  }
  JsonObject& num(std::string_view key, double value) {
    return raw(key, json_num(value));
  }
  JsonObject& flag(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ----------------------------------------------------------------- spans --

// The benchmark's own spans: one per call into a layer, named after the
// layer, nested through a stack (this tool is single-threaded). Kept in
// memory and written once by write().
class Spans {
 public:
  // Records one span over its lifetime; inert when `spans` is null.
  class Scope {
   public:
    Scope(Spans* spans, std::string name) : spans_(spans) {
      if (spans_) id_ = spans_->open(std::move(name));
    }
    ~Scope() {
      if (spans_) spans_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::size_t id_ = 0;
  };

  Spans(std::string workload, int run)
      : workload_(std::move(workload)), run_(run), epoch_(Clock::now()) {}

  bool write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << (i ? ",\n " : "")
          << JsonObject()
                 .num("id", static_cast<double>(i))
                 .num("parent", r.parent)
                 .str("name", r.name)
                 .str("workload", workload_)
                 .num("run", run_)
                 .num("start_ns", static_cast<double>(r.start_ns))
                 .num("end_ns", static_cast<double>(r.end_ns))
                 .done();
    }
    out << "]\n";
    out.flush();
    return static_cast<bool>(out);
  }

 private:
  struct Record {
    std::string name;
    double parent = -1;  // index of the enclosing span, -1 at top level
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }
  std::size_t open(std::string name) {
    Record r;
    r.name = std::move(name);
    r.parent = stack_.empty() ? -1 : static_cast<double>(stack_.back());
    r.start_ns = now_ns();
    records_.push_back(std::move(r));
    stack_.push_back(records_.size() - 1);
    return records_.size() - 1;
  }
  void close(std::size_t id) {
    records_[id].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  std::string workload_;
  int run_;
  Clock::time_point epoch_;
  std::vector<Record> records_;
  std::vector<std::size_t> stack_;
};

// ------------------------------------------------------------- workloads --

// scan: mostly distinct lines of mixed-case words and numbers; about one
// line in four holds "apple" once lowercased.
std::string gen_scan(std::size_t bytes, std::uint64_t seed) {
  static constexpr std::string_view kWords[] = {
      "Apple",  "pineapple", "GRAPPLE", "banana", "Cherry", "kumquat",
      "Orange", "lemon",     "Mango",   "grape",  "Peach",  "plum",
      "PEAR",   "fig",       "Lime",    "melon",  "Berry",  "date",
      "Guava",  "kiwi",      "Papaya",  "quince", "Olive",  "walnut",
      "Almond", "cashew",    "Pecan",   "hazel",  "CHESTNUT", "acorn",
      "Maple",  "cedar"};
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> word(0, std::size(kWords) - 1);
  std::uniform_int_distribution<std::uint64_t> number(0, 999999999);
  std::string out;
  out.reserve(bytes + 128);
  char buf[32];
  while (out.size() < bytes) {
    out += kWords[word(rng)];
    out += ' ';
    out += kWords[word(rng)];
    std::snprintf(buf, sizeof(buf), " %" PRIu64 " ", number(rng));
    out += buf;
    out += kWords[word(rng)];
    std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", number(rng));
    out += buf;
  }
  return out;
}

// fold: keys from a 2^48 space, each repeated in a run of 1 to 4 copies,
// so uniq -c's output is over half its input and runs straddle slices.
std::string gen_fold(std::size_t bytes, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> copies(1, 4);
  std::string out;
  out.reserve(bytes + 128);
  char line[32];
  while (out.size() < bytes) {
    int n = std::snprintf(line, sizeof(line), "k%012" PRIx64 "\n",
                          rng() & ((std::uint64_t{1} << 48) - 1));
    for (int c = copies(rng); c > 0; --c) out.append(line, n);
  }
  return out;
}

// wf: prose whose words follow Zipf's law (rank^-1) over 2048 words, so
// the top word ("the") is about one word in eight, as in English text.
// The vocabulary is fixed; only the draws depend on the seed.
std::string gen_wf(std::size_t bytes, std::uint64_t seed) {
  static constexpr std::string_view kCommon[] = {
      "the",   "of",    "and",   "to",    "a",     "in",    "that",  "he",
      "was",   "it",    "his",   "is",    "with",  "as",    "for",   "had",
      "you",   "not",   "be",    "her",   "on",    "at",    "by",    "which",
      "have",  "or",    "from",  "this",  "him",   "but",   "all",   "she",
      "they",  "were",  "my",    "are",   "me",    "one",   "their", "so",
      "an",    "said",  "them",  "we",    "who",   "would", "been",  "will",
      "no",    "when",  "there", "if",    "more",  "out",   "up",    "into",
      "light", "night", "house", "river", "stone", "bread", "iron",  "cloud"};
  static constexpr std::string_view kSyllables[] = {
      "ka", "lo", "mi", "ren", "tas", "vel", "do", "quin",
      "bra", "sel", "tor", "nu", "phi", "gar", "wen", "zo"};
  constexpr std::size_t kVocabulary = 2048;
  std::vector<std::string> words(std::begin(kCommon), std::end(kCommon));
  for (std::size_t i = words.size(); i < kVocabulary; ++i) {
    std::string w;
    for (std::size_t x = i; x != 0; x /= 16) w += kSyllables[x % 16];
    words.push_back(std::move(w));
  }
  std::vector<double> weights(kVocabulary);
  for (std::size_t i = 0; i < kVocabulary; ++i) weights[i] = 1.0 / (i + 1);
  std::discrete_distribution<std::size_t> pick(weights.begin(), weights.end());
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> words_per_line(4, 12);
  std::uniform_int_distribution<int> roll(0, 19);
  std::string out;
  out.reserve(bytes + 256);
  while (out.size() < bytes) {
    int n = words_per_line(rng);
    for (int i = 0; i < n; ++i) {
      std::string w = words[pick(rng)];
      if (i == 0 || roll(rng) == 0)
        w[0] = static_cast<char>(w[0] - 'a' + 'A');
      if (i) out += ' ';
      out += w;
      int p = roll(rng);
      if (p == 1) out += ',';
      if (p == 2 && i == n - 1) out += '.';
    }
    out += '\n';
    if (roll(rng) == 4) out += '\n';  // paragraph break
  }
  return out;
}

int cmd_gen(const std::string& workload, std::uint64_t seed,
            std::size_t bytes, const std::string& path) {
  std::string data;
  if (workload == "scan") data = gen_scan(bytes, seed);
  else if (workload == "fold") data = gen_fold(bytes, seed);
  else if (workload == "wf") data = gen_wf(bytes, seed);
  else {
    std::cerr << "kqbench_layers: unknown workload '" << workload << "'\n";
    return 2;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) {
    std::cerr << "kqbench_layers: cannot write " << path << "\n";
    return 1;
  }
  std::cout << JsonObject().num("bytes", static_cast<double>(data.size()))
                   .done()
            << "\n";
  return 0;
}

// --------------------------------------------------------------- compile --

struct Compiled {
  // Owns the synthesis results the plan's stages point into.
  std::unique_ptr<synth::SynthesisCache> cache =
      std::make_unique<synth::SynthesisCache>();
  compile::Plan plan;
  std::vector<exec::ExecStage> stages;
  double synth_s = 0;  // compile_pipeline with a cold cache
  double plan_s = 0;   // parse + rewrite + eliminate + lower
};

// The CLI's compile sequence (src/cli/kumquat_main.cpp compile_line), with
// a cold cache, timed step by step. Spans are optional.
bool compile_cold(const std::string& pipeline, Compiled* out,
                  Spans* spans = nullptr) {
  auto t0 = Clock::now();
  std::string error;
  std::optional<compile::ParsedPipeline> parsed;
  {
    Spans::Scope s(spans, "compile.parse");
    parsed = compile::parse_pipeline(pipeline, &error);
  }
  if (!parsed) {
    std::cerr << "kqbench_layers: " << error << "\n";
    return false;
  }
  double parse_s = seconds_since(t0);
  auto t1 = Clock::now();
  {
    Spans::Scope s(spans, "compile.synth");
    out->plan = compile::compile_pipeline(*parsed, *out->cache);
  }
  out->synth_s = seconds_since(t1);
  auto t2 = Clock::now();
  {
    Spans::Scope s(spans, "compile.rewrite");
    compile::rewrite_bounded_windows(out->plan);
  }
  {
    Spans::Scope s(spans, "compile.eliminate");
    compile::eliminate_intermediate_combiners(out->plan);
  }
  {
    Spans::Scope s(spans, "compile.lower");
    out->stages = compile::lower_plan(out->plan);
  }
  out->plan_s = parse_s + seconds_since(t2);
  return true;
}

std::string plan_json(const Compiled& c) {
  std::string stages = "[";
  for (std::size_t i = 0; i < c.plan.stages.size(); ++i) {
    const compile::PlannedStage& p = c.plan.stages[i];
    const exec::ExecStage& e = c.stages[i];
    stages += (i ? ", " : "");
    stages += JsonObject()
                  .str("display", p.parsed.display)
                  .flag("parallel", p.parallel)
                  .flag("eliminate", p.eliminate)
                  .flag("shardable", e.shardable)
                  .str("memory", exec::memory_class_name(e.memory_class))
                  .str("combiner", e.combiner_name)
                  .done();
  }
  stages += "]";
  return JsonObject()
      .num("parallel_stages", c.plan.parallelized())
      .num("total_stages", c.plan.total())
      .raw("stages", stages)
      .done();
}

int cmd_setup(const std::string& pipeline, double budget_s) {
  constexpr int kMinReps = 5;
  std::vector<double> samples;
  Compiled last;
  auto start = Clock::now();
  while (static_cast<int>(samples.size()) < kMinReps ||
         seconds_since(start) < budget_s) {
    Compiled c;
    auto t = Clock::now();
    if (!compile_cold(pipeline, &c)) return 1;
    samples.push_back(seconds_since(t));
    last = std::move(c);
  }
  // The library's run defaults, which the CLI mirrors; the end-to-end pass
  // records them in its fingerprint.
  const ExecOptions defaults;
  std::cout << JsonObject()
                   .raw("setup_s", json_list(samples))
                   .raw("plan", plan_json(last))
                   .raw("defaults",
                        JsonObject()
                            .num("block_size",
                                 static_cast<double>(defaults.block_size))
                            .num("spill_threshold",
                                 static_cast<double>(defaults.spill_threshold))
                            .num("parallelism", default_parallelism())
                            .done())
                   .done()
            << "\n";
  return 0;
}

// ----------------------------------------------------------------- trace --

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = std::move(buf).str();
  return true;
}

// Byte offset of the first difference, or -1 when equal.
long long first_diff(std::string_view got, std::string_view want) {
  std::size_t n = std::min(got.size(), want.size());
  auto mm = std::mismatch(got.begin(), got.begin() + n, want.begin());
  std::size_t at = static_cast<std::size_t>(mm.first - got.begin());
  if (at < n || got.size() != want.size()) return static_cast<long long>(at);
  return -1;
}

// Record-aligned pieces of about `target` bytes: each ends at the first
// newline at or past `target` (the last piece may end unterminated).
std::vector<std::string_view> cut_records(std::string_view data,
                                          std::size_t target) {
  std::vector<std::string_view> pieces;
  std::size_t pos = 0;
  while (pos < data.size()) {
    std::size_t end = data.size();
    if (data.size() - pos > target) {
      std::size_t nl = data.find('\n', pos + target - 1);
      if (nl != std::string_view::npos) end = nl + 1;
    }
    pieces.push_back(data.substr(pos, end - pos));
    pos = end;
  }
  return pieces;
}

// Runs one stage single-threaded the way the runtime's nodes do: per-record
// stages through stream_processor(), window stages through
// window_processor(), everything else (sort) through one execute().
std::string replay_stage(const cmd::Command& command, std::string_view input,
                         const char** how) {
  std::string out;
  if (auto proc = command.stream_processor()) {
    *how = "stream";
    for (std::string_view block : cut_records(input, kBlockBytes))
      if (!proc->process(block, &out)) break;
    proc->finish(&out);
  } else if (auto window = command.window_processor()) {
    *how = "window";
    for (std::string_view block : cut_records(input, kBlockBytes))
      window->push(block, &out);
    window->finish([&out](std::string_view piece) {
      out.append(piece);
      return true;
    });
  } else {
    *how = "execute";
    out = command.execute(input).out;
  }
  return out;
}

// Output sink writing straight to a file descriptor, as the CLI's stdout.
class FdSink {
 public:
  explicit FdSink(const std::string& path)
      : fd_(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644)) {}
  ~FdSink() {
    if (fd_ >= 0) ::close(fd_);
  }
  FdSink(const FdSink&) = delete;
  FdSink& operator=(const FdSink&) = delete;

  bool ok() const { return fd_ >= 0 && !failed_; }
  stream::Sink sink() {
    return [this](std::string_view data) {
      while (!data.empty()) {
        ssize_t n = ::write(fd_, data.data(), data.size());
        if (n <= 0) {
          failed_ = true;
          return false;
        }
        data.remove_prefix(static_cast<std::size_t>(n));
      }
      return true;
    };
  }

 private:
  int fd_;
  bool failed_ = false;
};

struct RunOutcome {
  bool ok = false;
  long long diff = -1;  // first differing byte against the reference
  double wall_s = 0;
  ExecResult result;
};

// One in-process Executor run, stdin-style fd source to a file sink, with
// the output read back and compared against the reference.
RunOutcome executor_run(const std::vector<exec::ExecStage>& stages,
                        const ExecOptions& options, const std::string& input,
                        const std::string& out_path,
                        const std::string& expect) {
  RunOutcome o;
  int fd = ::open(input.c_str(), O_RDONLY);
  if (fd < 0) return o;
  {
    FdSink sink(out_path);
    Executor executor(options);
    auto t = Clock::now();
    o.result = executor.run(stages, Source::from_fd(fd), sink.sink());
    o.wall_s = seconds_since(t);
    o.ok = o.result.ok && sink.ok();
  }
  ::close(fd);
  std::string got;
  if (!read_file(out_path, &got)) o.ok = false;
  o.diff = first_diff(got, expect);
  if (o.diff >= 0) o.ok = false;
  return o;
}

std::string nodes_json(const ExecResult& r) {
  std::string out = "[";
  for (std::size_t i = 0; i < r.nodes.size(); ++i) {
    const stream::NodeMetrics& n = r.nodes[i];
    out += (i ? ", " : "");
    out += JsonObject()
               .str("commands", n.commands)
               .flag("parallel", n.parallel)
               .flag("sharded", n.sharded)
               .str("memory", n.memory)
               .num("seconds", n.seconds)
               .num("in_bytes", static_cast<double>(n.in_bytes))
               .num("out_bytes", static_cast<double>(n.out_bytes))
               .num("worker_busy_ns", static_cast<double>(n.worker_busy_ns))
               .num("send_blocked_ns", static_cast<double>(n.send_blocked_ns))
               .num("recv_blocked_ns", static_cast<double>(n.recv_blocked_ns))
               .num("pool_hits", static_cast<double>(n.pool_hits))
               .num("pool_misses", static_cast<double>(n.pool_misses))
               .num("shard_slices", static_cast<double>(n.shard_slices))
               .num("spill_runs", n.spill_runs)
               .num("spilled_bytes", static_cast<double>(n.spilled_bytes))
               .done();
  }
  return out + "]";
}

int cmd_trace(const std::string& workload, int run,
              const std::string& pipeline, const std::string& input_path,
              const std::string& expect_path, const std::string& out_dir,
              std::size_t spill_threshold, int untraced_runs) {
  std::string expect, input;
  if (!read_file(expect_path, &expect) || !read_file(input_path, &input)) {
    std::cerr << "kqbench_layers: cannot read the input or reference\n";
    return 1;
  }
  Spans spans(workload, run);
  int attempted = 0, failed = 0;
  std::string failures = "[";
  auto check = [&](const char* what, bool ok, long long diff) {
    ++attempted;
    if (ok) return;
    failures += (failed++ ? ", " : "");
    failures += JsonObject().str("what", what).num("first_diff", diff).done();
  };

  Compiled compiled;
  {
    Spans::Scope s(&spans, "compile");
    if (!compile_cold(pipeline, &compiled, &spans)) return 1;
  }
  const std::vector<exec::ExecStage>& stages = compiled.stages;

  ExecOptions options;
  if (spill_threshold != 0) options.spill_threshold = spill_threshold;
  const std::string out_path = out_dir + "/traced.out";
#ifdef __GLIBC__
  // The CLI sets this after compiling, before a streaming run; the
  // in-process runs and replays allocate under the same rule.
  mallopt(M_MMAP_THRESHOLD, 128 << 10);
#endif

  // Untraced runs first: the base of obs.trace_overhead.
  std::vector<double> untraced;
  for (int i = 0; i < untraced_runs; ++i) {
    Spans::Scope s(&spans, "exec.untraced");
    RunOutcome o = executor_run(stages, options, input_path, out_path, expect);
    check("untraced executor run", o.ok, o.diff);
    untraced.push_back(o.wall_s);
  }

  obs::Tracer tracer;
  ExecOptions traced_options = options;
  traced_options.stats = true;
  traced_options.tracer = &tracer;
  RunOutcome traced;
  {
    Spans::Scope s(&spans, "exec.traced");
    traced = executor_run(stages, traced_options, input_path, out_path,
                          expect);
  }
  check("traced executor run", traced.ok, traced.diff);
  {
    std::ofstream trace_out(out_dir + "/runtime_trace.json", std::ios::trunc);
    tracer.write_chrome_json(trace_out);
  }
  const int k = Executor(options).options().parallelism;

  // Layer replays. compile: medians over a few cold compiles.
  std::vector<double> synth_s, plan_s;
  for (int i = 0; i < 3; ++i) {
    Spans::Scope s(&spans, "compile");
    Compiled c;
    compile_cold(pipeline, &c, &spans);
    synth_s.push_back(c.synth_s);
    plan_s.push_back(c.plan_s);
  }

  // io: drain the warm input through the fd BlockReader, no processing;
  // the median of three.
  std::vector<double> read_s;
  for (int i = 0; i < 3; ++i) {
    Spans::Scope s(&spans, "io.read");
    int fd = ::open(input_path.c_str(), O_RDONLY);
    stream::BlockReaderOptions ro;
    ro.block_size = options.block_size;
    auto t = Clock::now();
    {
      stream::BlockReader reader(fd, ro);
      while (reader.next()) {
      }
    }
    read_s.push_back(seconds_since(t));
    ::close(fd);
  }
  std::sort(read_s.begin(), read_s.end());

  // unixcmd: a chained single-threaded replay, stage by stage.
  std::string stage_rows = "[";
  std::vector<std::string> stage_inputs;  // input of each stage, kept for
  std::string data = input;               // the combine replay below
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const char* how = "";
    std::string out;
    auto t = Clock::now();
    {
      Spans::Scope s(&spans, "unixcmd " + stages[i].command->display_name());
      out = replay_stage(*stages[i].command, data, &how);
    }
    double dt = seconds_since(t);
    stage_rows += (i ? ", " : "");
    stage_rows += JsonObject()
                      .str("display", stages[i].command->display_name())
                      .str("via", how)
                      .num("in_bytes", static_cast<double>(data.size()))
                      .num("out_bytes", static_cast<double>(out.size()))
                      .num("seconds", dt)
                      .done();
    stage_inputs.push_back(std::move(data));
    data = std::move(out);
  }
  stage_rows += "]";
  long long replay_diff = first_diff(data, expect);
  check("chained stage replay", replay_diff < 0, replay_diff);

  // dsl: one k-way combine per combining stage, over the outputs of the
  // stage's fused chain on 2 MiB slices of the chain's input. A stage's
  // combiner runs unless it was eliminated into the next parallel stage;
  // an eliminated run of stages shares its first stage's input slices.
  std::string combine_rows = "[";
  int combining = 0;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const exec::ExecStage& st = stages[i];
    if (!st.parallel || !st.combine || st.eliminate_combiner) continue;
    std::size_t first = i;
    while (first > 0 && stages[first - 1].parallel &&
           stages[first - 1].eliminate_combiner)
      --first;
    std::vector<std::string> parts;
    for (std::string_view slice : cut_records(stage_inputs[first],
                                              kSliceBytes)) {
      std::string piece(slice);
      for (std::size_t j = first; j <= i; ++j)
        piece = stages[j].command->execute(piece).out;
      parts.push_back(std::move(piece));
    }
    std::optional<std::string> combined;
    auto t = Clock::now();
    {
      Spans::Scope s(&spans, "dsl.combine " + st.command->display_name());
      combined = st.combine(parts);
    }
    double dt = seconds_since(t);
    std::string_view want = i + 1 < stages.size()
                                ? std::string_view(stage_inputs[i + 1])
                                : std::string_view(data);
    long long diff = combined ? first_diff(*combined, want) : 0;
    check("k-way combine replay", combined && diff < 0, diff);
    combine_rows += (combining++ ? ", " : "");
    combine_rows += JsonObject()
                        .str("display", st.command->display_name())
                        .str("combiner", st.combiner_name)
                        .num("parts", static_cast<double>(parts.size()))
                        .num("seconds", dt)
                        .done();
  }
  combine_rows += "]";

  const std::string spans_path = out_dir + "/bench_spans.json";
  if (!spans.write(spans_path)) {
    std::cerr << "kqbench_layers: cannot write " << spans_path << "\n";
    return 1;
  }
  failures += "]";
  const ExecResult& r = traced.result;
  std::cout
      << JsonObject()
             .num("k", k)
             .str("io_backend", r.io_backend)
             .num("block_size", static_cast<double>(options.block_size))
             .num("spill_threshold",
                  static_cast<double>(options.spill_threshold))
             .num("attempted", attempted)
             .num("failed", failed)
             .raw("failures", failures)
             .raw("untraced_wall_s", json_list(untraced))
             .num("traced_wall_s", traced.wall_s)
             .num("peak_inflight_bytes",
                  static_cast<double>(r.peak_inflight_bytes))
             .num("spilled_bytes", static_cast<double>(r.spilled_bytes))
             .num("bytes_read", static_cast<double>(r.bytes_read))
             .raw("nodes", nodes_json(r))
             .raw("plan", plan_json(compiled))
             .raw("synth_s", json_list(synth_s))
             .raw("plan_s", json_list(plan_s))
             .num("read_mib_s", static_cast<double>(input.size()) / kMiB /
                                    read_s[1])
             .raw("stages", stage_rows)
             .raw("combines", combine_rows)
             .str("spans", spans_path)
             .str("runtime_trace", out_dir + "/runtime_trace.json")
             .done()
      << "\n";
  return 0;
}

std::size_t parse_size(const char* text) {
  return static_cast<std::size_t>(std::strtoull(text, nullptr, 10));
}

}  // namespace

int main(int argc, char** argv) {
  std::string verb = argc > 1 ? argv[1] : "";
  if (verb == "gen" && argc == 6)
    return cmd_gen(argv[2], std::strtoull(argv[3], nullptr, 10),
                   parse_size(argv[4]), argv[5]);
  if (verb == "setup" && argc == 4)
    return cmd_setup(argv[2], std::strtod(argv[3], nullptr));
  if (verb == "trace" && argc == 10)
    return cmd_trace(argv[2], std::atoi(argv[3]), argv[4], argv[5], argv[6],
                     argv[7], parse_size(argv[8]), std::atoi(argv[9]));
  std::cerr << "usage: kqbench_layers gen <workload> <seed> <bytes> <path>\n"
               "       kqbench_layers setup <pipeline> <seconds>\n"
               "       kqbench_layers trace <workload> <run> <pipeline> "
               "<input> <expect> <out-dir> <spill-threshold> "
               "<untraced-runs>\n";
  return 2;
}
