// Fd-source tests for the streaming runtime. The whole 70-script crossval
// catalog runs from a real file descriptor — so source reads AND spill I/O
// route through the I/O engine (src/io/) — at k in {1, 4}, under the
// default '\n' record delimiter and under a custom ';' delimiter over the
// same inputs with a ';' written every 37 bytes, so records end mid-line.
// Every run must be byte-identical to the serial oracle. The custom-
// delimiter repros (grep -c, grep, uniq -c at k in {1, 2, 4}) pin the rule
// that a plan-parallel stage runs sequentially under a custom delimiter:
// a slice cut at ';' can end mid-line, which every line-based command
// would see as a truncated line.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <random>
#include <string>
#include <vector>

#include "bench_support/catalog.h"
#include "compile/optimize.h"
#include "compile/plan.h"
#include "exec/executor.h"
#include "exec/runner.h"
#include "unixcmd/registry.h"

namespace kq {
namespace {

synth::SynthesisCache& shared_cache() {
  static synth::SynthesisCache c;
  return c;
}

vfs::Vfs& shared_fs() {
  static vfs::Vfs v;
  return v;
}

// An unlinked temp file holding `content`; rewind() re-arms it for the
// next run (the engine reads via file-position semantics, so a reset
// offset replays the same stream).
class FdInput {
 public:
  explicit FdInput(const std::string& content) {
    char path[] = "/tmp/kq-fd-source-XXXXXX";
    fd_ = ::mkstemp(path);
    EXPECT_GE(fd_, 0);
    ::unlink(path);
    EXPECT_EQ(::write(fd_, content.data(), content.size()),
              static_cast<ssize_t>(content.size()));
  }
  ~FdInput() {
    if (fd_ >= 0) ::close(fd_);
  }
  int rewind() {
    EXPECT_EQ(::lseek(fd_, 0, SEEK_SET), 0);
    return fd_;
  }

 private:
  int fd_ = -1;
};

kq::ExecOptions stream_options(int k, char delimiter,
                               std::size_t block_size = 2048) {
  kq::ExecOptions o;
  o.parallelism = k;
  o.block_size = block_size;
  o.delimiter = delimiter;
  return o;
}

std::vector<exec::ExecStage> compile_stages(const std::string& pipeline) {
  auto parsed = compile::parse_pipeline(pipeline);
  EXPECT_TRUE(parsed.has_value()) << pipeline;
  compile::Plan plan = compile::compile_pipeline(*parsed, shared_cache(), {});
  compile::rewrite_bounded_windows(plan);
  compile::eliminate_intermediate_combiners(plan);
  return compile::lower_plan(plan);
}

// `input` with a ';' written after every 37th byte: ';'-delimited records
// that end mid-line.
std::string with_semicolons(const std::string& input) {
  std::string out;
  out.reserve(input.size() + input.size() / 37 + 1);
  for (std::size_t i = 0; i < input.size(); ++i) {
    out += input[i];
    if ((i + 1) % 37 == 0) out += ';';
  }
  return out;
}

// ------------------------------------------------------- catalog crossval --

class FdSourceCrossval
    : public ::testing::TestWithParam<const bench::Script*> {};

TEST_P(FdSourceCrossval, ByteIdenticalToSerialUnderEachDelimiter) {
  const bench::Script& script = *GetParam();
  const std::string lines =
      bench::prepare_input(script, 24 * 1024, 7, shared_fs());

  for (const std::string& pipeline : script.pipelines) {
    auto parsed = compile::parse_pipeline(pipeline);
    ASSERT_TRUE(parsed.has_value()) << pipeline;
    compile::Plan plan =
        compile::compile_pipeline(*parsed, shared_cache(), {}, &shared_fs());
    compile::eliminate_intermediate_combiners(plan);
    auto stages = compile::lower_plan(plan);

    for (char delimiter : {'\n', ';'}) {
      const std::string input =
          delimiter == '\n' ? lines : with_semicolons(lines);
      const std::string serial = exec::run_serial(stages, input);
      FdInput fd(input);
      for (int k : {1, 4}) {
        kq::Executor executor(stream_options(k, delimiter));
        kq::ExecResult r = executor.run_collect(
            stages, kq::Source::from_fd(fd.rewind()));
        SCOPED_TRACE(::testing::Message()
                     << script.suite << "/" << script.name << ": "
                     << pipeline << " delimiter="
                     << (delimiter == '\n' ? "\\n" : ";") << " k=" << k);
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.output, serial);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScripts, FdSourceCrossval,
    ::testing::ValuesIn([] {
      std::vector<const bench::Script*> ptrs;
      for (const bench::Script& s : bench::all_scripts()) ptrs.push_back(&s);
      return ptrs;
    }()),
    [](const ::testing::TestParamInfo<const bench::Script*>& info) {
      std::string name = info.param->suite + "_" + info.param->name;
      std::string out;
      for (char c : name)
        out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      return out;
    });

// ------------------------------------------------ custom-delimiter repros --

// Runs `pipeline` from an fd at --delimiter ';' --block-size 512, the
// shape of `kumquat run -k K --delimiter ';' --block-size 512`.
std::string run_semicolon(const std::string& pipeline,
                          const std::string& input, int k) {
  FdInput fd(input);
  kq::Executor executor(stream_options(k, ';', /*block_size=*/512));
  kq::ExecResult r = executor.run_collect(compile_stages(pipeline),
                                          kq::Source::from_fd(fd.rewind()));
  EXPECT_TRUE(r.ok) << pipeline << " k=" << k << ": " << r.error;
  return r.output;
}

// 4000 records alternating `xxappleyy;` and `xxyy;`, with no '\n': the
// whole input is one line. A slice cut at ';' would end mid-line, and a
// per-slice grep would count (or print) that line once per slice.
std::string apple_records() {
  std::string out;
  for (int i = 0; i < 4000; ++i) out += i % 2 == 0 ? "xxappleyy;" : "xxyy;";
  return out;
}

TEST(CustomDelimiter, GrepCountSeesOneLineAtEveryK) {
  const std::string input = apple_records();
  for (int k : {1, 2, 4})
    EXPECT_EQ(run_semicolon("grep -c apple", input, k), "1\n") << "k=" << k;
}

TEST(CustomDelimiter, GrepPrintsTheWholeLineOnceAtEveryK) {
  const std::string input = apple_records();
  for (int k : {1, 2, 4})
    EXPECT_EQ(run_semicolon("grep apple", input, k), input + "\n")
        << "k=" << k;
}

TEST(CustomDelimiter, UniqCountMatchesTheWholeInputAtEveryK) {
  // Records (c\n){1,3}; — runs of equal lines, and ";c" lines, straddle
  // the ';' record boundaries.
  std::mt19937 rng(11);
  std::string input;
  for (int i = 0; i < 4000; ++i) {
    for (int j = 0, n = 1 + static_cast<int>(rng() % 3); j < n; ++j)
      input += "c\n";
    input += ';';
  }
  const std::string expect =
      exec::run_serial(compile_stages("uniq -c"), input);
  for (int k : {1, 2, 4})
    EXPECT_EQ(run_semicolon("uniq -c", input, k), expect) << "k=" << k;
}

}  // namespace
}  // namespace kq
