// google-benchmark micro suite for the runtime primitives: stream
// splitting, k-way merge, combiner evaluation, regex search, and the
// built-in commands on realistic data.

#include <benchmark/benchmark.h>

#include "bench_support/workloads.h"
#include "dsl/eval.h"
#include "dsl/kway.h"
#include "exec/splitter.h"
#include "exec/thread_pool.h"
#include "regex/regex.h"
#include "unixcmd/registry.h"
#include "unixcmd/sort_cmd.h"

namespace {

std::string sample_text(std::size_t bytes) {
  static kq::vfs::Vfs fs;
  return kq::bench::generate_workload(kq::bench::Workload::kGutenberg, bytes,
                                      42, fs);
}

void BM_SplitStream(benchmark::State& state) {
  std::string input = sample_text(1 << 20);
  for (auto _ : state) {
    auto chunks =
        kq::exec::split_stream(input, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(chunks);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_SplitStream)->Arg(2)->Arg(16);

void BM_KWayMerge(benchmark::State& state) {
  auto spec = kq::cmd::SortSpec::parse({});
  std::string sorted = spec->sort_stream(sample_text(1 << 18));
  auto chunks = kq::exec::split_stream(sorted, static_cast<int>(
                                                   state.range(0)));
  std::vector<std::string> parts;
  for (auto c : chunks) parts.push_back(spec->sort_stream(c));
  std::vector<std::string_view> views(parts.begin(), parts.end());
  for (auto _ : state) {
    std::string merged = spec->merge_streams(views);
    benchmark::DoNotOptimize(merged);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sorted.size()));
}
BENCHMARK(BM_KWayMerge)->Arg(2)->Arg(16);

void BM_Stitch2Eval(benchmark::State& state) {
  kq::cmd::CommandPtr uniq = kq::cmd::make_command_line("uniq -c");
  kq::cmd::CommandPtr sort = kq::cmd::make_command_line("sort");
  std::string sorted = sort->run(sample_text(1 << 16));
  auto chunks = kq::exec::split_stream(sorted, 2);
  std::string y1 = uniq->run(chunks[0]);
  std::string y2 = uniq->run(chunks.size() > 1 ? chunks[1] : chunks[0]);
  kq::dsl::Combiner g = kq::dsl::combiner_stitch2_add_first(' ');
  for (auto _ : state) {
    auto v = kq::dsl::eval(g, y1, y2);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_Stitch2Eval);

void BM_RegexSearch(benchmark::State& state) {
  auto re = kq::regex::Regex::compile("light.*light");
  std::string text = sample_text(1 << 16);
  for (auto _ : state) {
    bool hit = re->search(text);
    benchmark::DoNotOptimize(hit);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_RegexSearch);

void BM_BuiltinCommand(benchmark::State& state, const char* line) {
  kq::cmd::CommandPtr command = kq::cmd::make_command_line(line);
  std::string input = sample_text(1 << 18);
  for (auto _ : state) {
    std::string out = command->run(input);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK_CAPTURE(BM_BuiltinCommand, tr, "tr A-Z a-z");
BENCHMARK_CAPTURE(BM_BuiltinCommand, sort, "sort");
BENCHMARK_CAPTURE(BM_BuiltinCommand, uniq_c, "uniq -c");
BENCHMARK_CAPTURE(BM_BuiltinCommand, grep, "grep light");
BENCHMARK_CAPTURE(BM_BuiltinCommand, wc_l, "wc -l");
BENCHMARK_CAPTURE(BM_BuiltinCommand, awk_nf, "awk '{print NF}'");

void BM_ParallelMap(benchmark::State& state) {
  kq::exec::ThreadPool pool(static_cast<int>(state.range(0)));
  kq::cmd::CommandPtr command = kq::cmd::make_command_line("tr A-Z a-z");
  std::string input = sample_text(1 << 20);
  auto chunks =
      kq::exec::split_stream(input, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::vector<std::future<std::string>> runs;
    for (std::string_view chunk : chunks)
      runs.push_back(
          pool.submit([&command, chunk] { return command->run(chunk); }));
    for (auto& run : runs) {
      std::string out = run.get();
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_ParallelMap)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
