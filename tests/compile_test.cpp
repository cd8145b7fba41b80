// Tests for the pipeline compiler: parsing, plan construction (which
// stages parallelize, which stay sequential), the elimination optimization
// (Theorem 5), and end-to-end equivalence of compiled parallel pipelines
// with serial execution — including the §2 word-frequency example.

#include <gtest/gtest.h>

#include <iomanip>
#include <set>
#include <sstream>

#include "bench_support/catalog.h"
#include "compile/optimize.h"
#include "compile/pipeline.h"
#include "compile/plan.h"
#include "exec/executor.h"
#include "obs/trace.h"

namespace kq::compile {
namespace {

// ------------------------------------------------------------- parsing --

TEST(ParsePipeline, SplitsStages) {
  auto p = parse_pipeline("tr A-Z a-z | sort | uniq -c");
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->stages.size(), 3u);
  EXPECT_EQ(p->stages[0].argv[0], "tr");
  EXPECT_EQ(p->stages[2].display, "uniq -c");
}

TEST(ParsePipeline, DropsLeadingCat) {
  auto p = parse_pipeline("cat $IN | sort | uniq");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->stages.size(), 2u);
  // The pipeline's input is stdin: a leading cat of nothing, of `-` or of
  // a shell parameter names it.
  for (const char* line : {"cat | sort", "cat - | sort", "cat ${IN} | sort"}) {
    p = parse_pipeline(line);
    ASSERT_TRUE(p.has_value()) << line;
    ASSERT_EQ(p->stages.size(), 1u) << line;
    EXPECT_EQ(p->stages[0].display, "sort") << line;
  }
}

TEST(ParsePipeline, RefusesALeadingCatOfAFile) {
  // Dropped like `cat $IN`, a leading cat of a file had the run read stdin
  // in the file's place. It is refused, naming the file.
  for (const std::string line :
       {"cat /etc/passwd | sort", "cat a b | sort", "cat - a | sort"}) {
    std::string error;
    EXPECT_FALSE(parse_pipeline(line, &error).has_value()) << line;
    std::string quoted = "'";
    quoted.append(line, 0, line.find(" |")).append("'");
    EXPECT_NE(error.find(quoted), std::string::npos) << error;
    EXPECT_NE(error.find("stdin"), std::string::npos) << error;
  }
}

TEST(ParsePipeline, QuotedPipeCharacter) {
  auto p = parse_pipeline("grep '|' | wc -l");
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->stages.size(), 2u);
  EXPECT_EQ(p->stages[0].argv[1], "|");
}

TEST(ParsePipeline, RejectsEmptyStage) {
  EXPECT_FALSE(parse_pipeline("sort | | uniq").has_value());
  EXPECT_FALSE(parse_pipeline("", nullptr).has_value());
}

// ----------------------------------------------------------------- plan --

struct Compiled {
  Plan plan;
  std::vector<exec::ExecStage> stages;
};

Compiled compile_line(const std::string& script,
                      synth::SynthesisCache& cache) {
  auto parsed = parse_pipeline(script);
  EXPECT_TRUE(parsed.has_value()) << script;
  Plan plan = compile_pipeline(*parsed, cache);
  eliminate_intermediate_combiners(plan);
  auto stages = lower_plan(plan);
  return {std::move(plan), std::move(stages)};
}

TEST(Plan, WordFrequencyExample) {
  // The §2 pipeline: tr -cs stays sequential (rerun, no reduction);
  // tr A-Z a-z parallelizes with its combiner eliminated before sort;
  // sort merges; uniq -c stitches; sort -rn merges.
  synth::SynthesisCache cache;
  auto c = compile_line(
      "cat $IN | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | "
      "sort -rn",
      cache);
  ASSERT_EQ(c.plan.total(), 5);
  const auto& s = c.plan.stages;
  EXPECT_FALSE(s[0].parallel);         // tr -cs ... sequential
  EXPECT_TRUE(s[0].sequential_rerun);
  EXPECT_TRUE(s[1].parallel);          // tr A-Z a-z
  EXPECT_TRUE(s[1].eliminate);         // concat before parallel sort
  EXPECT_TRUE(s[2].parallel);          // sort
  EXPECT_FALSE(s[2].eliminate);
  EXPECT_TRUE(s[3].parallel);          // uniq -c
  EXPECT_TRUE(s[4].parallel);          // sort -rn
  EXPECT_EQ(c.plan.parallelized(), 4);
  EXPECT_EQ(c.plan.eliminated(), 1);
}

TEST(Plan, UnknownCommandStaysSerial) {
  synth::SynthesisCache cache;
  auto parsed = parse_pipeline("frobnicate | sort");
  ASSERT_TRUE(parsed.has_value());
  Plan plan = compile_pipeline(*parsed, cache);
  EXPECT_FALSE(plan.stages[0].parallel);
  EXPECT_EQ(plan.stages[0].command, nullptr);
  EXPECT_TRUE(plan.stages[1].parallel);
}

TEST(Plan, TrDeleteNewlineNotEliminated) {
  // tr -d '\n' has a concat combiner but breaks the Theorem 5
  // newline-termination precondition.
  synth::SynthesisCache cache;
  auto c = compile_line("tr -d ',' | tr -d '\\n' | wc -c", cache);
  EXPECT_TRUE(c.plan.stages[1].parallel);
  EXPECT_FALSE(c.plan.stages[1].eliminate);
}

TEST(Plan, LastStageNeverEliminated) {
  synth::SynthesisCache cache;
  auto c = compile_line("tr A-Z a-z | sed s/a/b/", cache);
  EXPECT_FALSE(c.plan.stages.back().eliminate);
}

TEST(Plan, EliminationRequiresParallelSuccessor) {
  synth::SynthesisCache cache;
  // grep (concat) followed by sed 2q (rerun-only, sequential because it
  // does not reduce... actually 2q reduces heavily; use an unknown command
  // to force a serial successor).
  auto parsed = parse_pipeline("tr A-Z a-z | frobnicate");
  ASSERT_TRUE(parsed.has_value());
  Plan plan = compile_pipeline(*parsed, cache);
  eliminate_intermediate_combiners(plan);
  EXPECT_FALSE(plan.stages[0].eliminate);
}

// ---------------------------------------------------- parallel compile --

// Everything a stage's plan and lowering take from synthesis, as one line.
std::string stage_record(const PlannedStage& p, const exec::ExecStage& e) {
  std::ostringstream out;
  out << std::setprecision(17) << p.parsed.display
      << " parallel=" << p.parallel << " rerun=" << p.sequential_rerun
      << " eliminate=" << p.eliminate
      << " reason=" << seq_reason_name(p.seq_reason)
      << " detail=" << p.seq_detail;
  if (p.synthesis) {
    const synth::SynthesisResult& r = *p.synthesis;
    out << " combiner=" << r.combiner.to_string() << " plausible=";
    for (const dsl::Combiner& g : r.plausible) out << dsl::to_string(g) << ";";
    out << " rounds=" << r.rounds << " observations=" << r.observation_count
        << " reduction=" << r.reduction_ratio
        << " verdict=" << r.sufficiency.verdict;
  }
  out << " lowered=" << e.combiner_name
      << " memory=" << exec::memory_class_name(e.memory_class)
      << " shardable=" << e.shardable;
  return out.str();
}

TEST(ParallelCompile, CatalogPlansMatchAtParallelismOneAndFour) {
  // Every catalog pipeline compiled with a fresh cache, so each of its
  // distinct commands synthesizes: concurrently at parallelism 4, on the
  // calling thread at 1. The plans must not tell the two apart.
  vfs::Vfs fs;
  int pipelines = 0;
  for (const bench::Script& script : bench::all_scripts()) {
    bench::prepare_input(script, 1 << 10, 1, fs);
    for (const std::string& line : script.pipelines) {
      auto parsed = parse_pipeline(line);
      ASSERT_TRUE(parsed.has_value()) << line;
      std::vector<std::string> records[2];
      for (int i = 0; i < 2; ++i) {
        synth::SynthesisCache cache;
        PlanOptions options;
        options.parallelism = i == 0 ? 1 : 4;
        Plan plan = compile_pipeline(*parsed, cache, options, &fs);
        eliminate_intermediate_combiners(plan);
        std::vector<exec::ExecStage> stages = lower_plan(plan);
        for (std::size_t s = 0; s < plan.stages.size(); ++s)
          records[i].push_back(stage_record(plan.stages[s], stages[s]));
      }
      EXPECT_EQ(records[0], records[1])
          << script.suite << "/" << script.name << ": " << line;
      ++pipelines;
    }
  }
  EXPECT_GE(pipelines, 70);
}

// The "synthesize <cmd>" spans of one cold compile: command -> tid, in
// the order the trace lists them.
std::vector<std::pair<std::string, std::string>> synthesis_spans(
    const std::string& pipeline, int parallelism) {
  obs::Tracer tracer;
  synth::SynthesisCache cache;
  PlanOptions options;
  options.parallelism = parallelism;
  options.tracer = &tracer;
  auto parsed = parse_pipeline(pipeline);
  EXPECT_TRUE(parsed.has_value()) << pipeline;
  compile_pipeline(*parsed, cache, options);
  std::ostringstream json;
  tracer.write_chrome_json(json);
  // write_chrome_json prints one event per line.
  std::vector<std::pair<std::string, std::string>> spans;
  std::istringstream lines(json.str());
  const std::string name_key = "\"name\": \"synthesize ";
  const std::string tid_key = "\"tid\": ";
  for (std::string line; std::getline(lines, line);) {
    const std::size_t name = line.find(name_key);
    const std::size_t tid = line.find(tid_key);
    if (name == std::string::npos || tid == std::string::npos) continue;
    const std::size_t name_at = name + name_key.size();
    const std::size_t tid_at = tid + tid_key.size();
    spans.emplace_back(line.substr(name_at, line.find('"', name_at) - name_at),
                       line.substr(tid_at, line.find(',', tid_at) - tid_at));
  }
  return spans;
}

const char kWordFrequency[] =
    "tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn";

std::set<std::string> tids_of(
    const std::vector<std::pair<std::string, std::string>>& spans) {
  std::set<std::string> tids;
  for (const auto& span : spans) tids.insert(span.second);
  return tids;
}

TEST(ParallelCompile, ParallelismOneSynthesizesOnTheCallingThread) {
  auto spans = synthesis_spans(kWordFrequency, 1);
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(tids_of(spans).size(), 1u);
}

TEST(ParallelCompile, RepeatedCommandSynthesizesOnce) {
  auto spans = synthesis_spans("sort | uniq | sort", 4);
  ASSERT_EQ(spans.size(), 2u);
  std::set<std::string> names;
  for (const auto& span : spans) names.insert(span.first);
  EXPECT_EQ(names, (std::set<std::string>{"sort", "uniq"}));
}

TEST(ParallelCompile, ParallelismFourSynthesizesOnSeveralThreads) {
  auto spans = synthesis_spans(kWordFrequency, 4);
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_GT(tids_of(spans).size(), 1u);
}

// ------------------------------------------------- end-to-end execution --

std::string gutenberg_sample() {
  std::string text;
  const char* sentences[] = {
      "It was the best of times it was the worst of times",
      "Call me Ishmael some years ago never mind how long",
      "In the beginning God created the heaven and the earth",
      "It is a truth universally acknowledged that a single man",
  };
  for (int i = 0; i < 120; ++i) {
    text += sentences[i % 4];
    text.push_back('\n');
  }
  return text;
}

class PipelineEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(PipelineEquivalence, ParallelMatchesSerial) {
  const std::string script = GetParam();
  synth::SynthesisCache cache;
  auto parsed = parse_pipeline(script);
  ASSERT_TRUE(parsed.has_value());
  Plan plan = compile_pipeline(*parsed, cache);
  eliminate_intermediate_combiners(plan);
  auto stages = lower_plan(plan);

  std::string input = gutenberg_sample();
  const std::string serial = exec::run_serial(stages, input);
  for (int k : {2, 3, 5}) {
    for (bool optimized : {false, true}) {
      ExecOptions options;
      options.parallelism = k;
      options.use_elimination = optimized;
      options.block_size = 4 << 10;
      ExecResult r = Executor(options).run_collect(stages, input);
      EXPECT_TRUE(r.ok) << script << ": " << r.error;
      EXPECT_EQ(r.output, serial)
          << script << (optimized ? " (optimized" : " (unoptimized")
          << ", k=" << k << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CoreScripts, PipelineEquivalence,
    ::testing::Values(
        "tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn",
        "tr A-Z a-z | sort",
        "sort | uniq",
        "sort | uniq -c | sort -rn",
        "grep 'the' | wc -l",
        "tr -s ' ' '\\n' | sort -u",
        "cut -d ' ' -f 1 | sort | uniq -c",
        "sed s/the/THE/ | grep -c THE",
        "awk '{print NF}' | sort -n | uniq -c",
        "rev | sort | rev",
        "tr -d '\\n' | wc -c",
        "grep -v '^$' | head -n 5"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return "script_" + std::to_string(info.index);
    });

}  // namespace
}  // namespace kq::compile
