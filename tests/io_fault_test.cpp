// Fault-injection tests for the I/O engine (src/io/). Every scenario is a
// scripted io::FaultPlan — short reads, EINTR storms, EAGAIN, hard
// ENOSPC/EIO on spill writes, cancellation landing mid-fill — replayed as
// a deterministic unit test. The seam sits inside kq::io, so each scenario
// must produce byte-identical output or a coded [KQ-IO] error, never a
// silently truncated stream.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "compile/optimize.h"
#include "compile/plan.h"
#include "exec/executor.h"
#include "exec/runner.h"
#include "io/fault.h"
#include "stream/block_reader.h"
#include "stream/spill.h"
#include "unixcmd/registry.h"

namespace kq {
namespace {

synth::SynthesisCache& shared_cache() {
  static synth::SynthesisCache c;
  return c;
}

std::vector<exec::ExecStage> compile_stages(const std::string& pipeline) {
  auto parsed = compile::parse_pipeline(pipeline);
  EXPECT_TRUE(parsed.has_value()) << pipeline;
  compile::Plan plan = compile::compile_pipeline(*parsed, shared_cache(), {});
  compile::rewrite_bounded_windows(plan);
  compile::eliminate_intermediate_combiners(plan);
  return compile::lower_plan(plan);
}

// An unlinked temp file pre-loaded with `content`, rewound for reading.
class TempInput {
 public:
  explicit TempInput(const std::string& content) {
    char path[] = "/tmp/kq-io-fault-XXXXXX";
    fd_ = ::mkstemp(path);
    EXPECT_GE(fd_, 0);
    ::unlink(path);
    EXPECT_EQ(::write(fd_, content.data(), content.size()),
              static_cast<ssize_t>(content.size()));
    EXPECT_EQ(::lseek(fd_, 0, SEEK_SET), 0);
  }
  ~TempInput() {
    if (fd_ >= 0) ::close(fd_);
  }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

std::string lines(int n) {
  std::string out;
  for (int i = 0; i < n; ++i)
    out += "record-" + std::to_string(i * 7919 % 101) + "-" +
           std::to_string(i) + "\n";
  return out;
}

// Drains a BlockReader, concatenating every delivered block.
std::string drain(stream::BlockReader& reader) {
  std::string out;
  while (auto block = reader.next()) out += *block;
  return out;
}

io::Fault fault(io::FaultOp op, io::Fault::Kind kind, std::size_t at,
                std::size_t repeat = 1, std::size_t cap = 0, int err = 0) {
  io::Fault f;
  f.op = op;
  f.kind = kind;
  f.at = at;
  f.repeat = repeat;
  f.cap = cap;
  f.err = err;
  return f;
}

// ------------------------------------------------------- source failpoints --

TEST(IoFaultTest, ShortReadsDeliverByteIdenticalStream) {
  const std::string content = lines(400);
  TempInput input(content);
  io::FaultPlan plan;
  // Clamp the first 8 source reads to a few bytes each: blocks must still
  // realign on record boundaries and nothing may be dropped or duplicated.
  plan.add(fault(io::FaultOp::kSourceRead, io::Fault::Kind::kShortOp,
            /*at=*/0, /*repeat=*/8, /*cap=*/5));
  stream::BlockReader reader(input.fd(), {/*block_size=*/64}, &plan);
  EXPECT_EQ(drain(reader), content);
  EXPECT_EQ(reader.error(), 0);
  EXPECT_EQ(plan.fired(), 8u);
}

TEST(IoFaultTest, EintrStormIsInvisibleToTheStream) {
  const std::string content = lines(100);
  TempInput input(content);
  io::FaultPlan plan;
  // 50 consecutive EINTRs before the first byte, then another burst mid
  // stream: both must be retried without surfacing an error.
  plan.add(fault(io::FaultOp::kSourceRead, io::Fault::Kind::kEintr,
            /*at=*/0, /*repeat=*/50));
  plan.add(fault(io::FaultOp::kSourceRead, io::Fault::Kind::kEintr,
            /*at=*/55, /*repeat=*/10));
  stream::BlockReader reader(input.fd(), {/*block_size=*/128}, &plan);
  EXPECT_EQ(drain(reader), content);
  EXPECT_EQ(reader.error(), 0);
  EXPECT_GE(plan.fired(), 50u);
}

TEST(IoFaultTest, EagainRetriesWithoutDataLoss) {
  const std::string content = lines(60);
  TempInput input(content);
  io::FaultPlan plan;
  plan.add(fault(io::FaultOp::kSourceRead, io::Fault::Kind::kEagain,
            /*at=*/1, /*repeat=*/4));
  stream::BlockReader reader(input.fd(), {/*block_size=*/64}, &plan);
  EXPECT_EQ(drain(reader), content);
  EXPECT_EQ(reader.error(), 0);
  EXPECT_EQ(plan.fired(), 4u);
}

TEST(IoFaultTest, HardReadErrorSurfacesErrnoAndTruncates) {
  const std::string content = lines(200);
  TempInput input(content);
  io::FaultPlan plan;
  plan.add(fault(io::FaultOp::kSourceRead, io::Fault::Kind::kErrno,
            /*at=*/2, /*repeat=*/1, /*cap=*/0, /*err=*/EIO));
  stream::BlockReader reader(input.fd(), {/*block_size=*/64}, &plan);
  std::string got = drain(reader);
  EXPECT_EQ(reader.error(), EIO);
  // The delivered stream is a strict prefix of the input, never garbage.
  EXPECT_LT(got.size(), content.size());
  EXPECT_EQ(content.compare(0, got.size(), got), 0);
}

TEST(IoFaultTest, CancellationLandsMidFillAsCleanEof) {
  const std::string content = lines(500);
  TempInput input(content);
  io::FaultPlan plan;
  stream::BlockReader reader(input.fd(), {/*block_size=*/64}, &plan);
  // The 4th read attempt cancels the reader from "another thread" (the
  // hook runs synchronously, which pins the cancellation to an exact
  // attempt index — the replayable version of a racing downstream close).
  io::Fault cancel;
  cancel.op = io::FaultOp::kSourceRead;
  cancel.kind = io::Fault::Kind::kCancel;
  cancel.at = 3;
  cancel.hook = [&reader] { reader.cancel(); };
  plan.add(std::move(cancel));
  std::string got = drain(reader);
  EXPECT_EQ(reader.error(), 0) << "cancellation is a clean EOF, not an error";
  EXPECT_TRUE(reader.cancelled());
  EXPECT_LT(got.size(), content.size());
  EXPECT_EQ(content.compare(0, got.size(), got), 0);
  EXPECT_EQ(plan.fired(), 1u);
}

// -------------------------------------------------------- spill failpoints --

TEST(IoFaultTest, SpillWriteEnospcSurfacesCodedError) {
  io::FaultPlan plan;
  plan.add(fault(io::FaultOp::kSpillWrite, io::Fault::Kind::kErrno,
            /*at=*/0, /*repeat=*/1, /*cap=*/0, /*err=*/ENOSPC));
  stream::SpillFile file(&plan);
  ASSERT_TRUE(file.valid());
  EXPECT_FALSE(file.append("doomed bytes\n"));
  EXPECT_NE(file.error().find("[KQ-IO]"), std::string::npos) << file.error();
  EXPECT_NE(file.error().find("ENOSPC"), std::string::npos) << file.error();
  EXPECT_EQ(plan.fired(), 1u);
}

TEST(IoFaultTest, PartialWriteThenEnospcNeverTruncatesSilently) {
  io::FaultPlan plan;
  // First chunk lands short (3 bytes), the continuation hits ENOSPC: the
  // run must surface the coded error — the historical bug was ignoring the
  // partial write(2) result and recording a truncated run as complete.
  plan.add(fault(io::FaultOp::kSpillWrite, io::Fault::Kind::kShortOp,
            /*at=*/0, /*repeat=*/1, /*cap=*/3));
  plan.add(fault(io::FaultOp::kSpillWrite, io::Fault::Kind::kErrno,
            /*at=*/1, /*repeat=*/1, /*cap=*/0, /*err=*/ENOSPC));
  stream::SpillFile file(&plan);
  ASSERT_TRUE(file.valid());
  EXPECT_FALSE(file.append("twelve bytes\n"));
  EXPECT_NE(file.error().find("[KQ-IO]"), std::string::npos) << file.error();
  EXPECT_EQ(plan.fired(), 2u);
}

TEST(IoFaultTest, ShortWritesRoundTripByteIdentical) {
  io::FaultPlan plan;
  // Every one of the first 20 write attempts is clamped to 7 bytes: the
  // engine's continuation path must reassemble the exact byte sequence.
  plan.add(fault(io::FaultOp::kSpillWrite, io::Fault::Kind::kShortOp,
            /*at=*/0, /*repeat=*/20, /*cap=*/7));
  stream::SpillFile file(&plan);
  ASSERT_TRUE(file.valid());
  const std::string payload = lines(40);
  ASSERT_TRUE(file.append(payload)) << file.error();
  EXPECT_EQ(file.size(), payload.size());
  std::string back(payload.size(), '\0');
  std::string error;
  ASSERT_TRUE(file.read_exact(0, back.data(), back.size(), &error)) << error;
  EXPECT_EQ(back, payload);
  EXPECT_GT(plan.fired(), 0u);
}

TEST(IoFaultTest, SpillReadEioSurfacesCodedError) {
  io::FaultPlan plan;
  stream::SpillFile file(&plan);
  ASSERT_TRUE(file.valid());
  ASSERT_TRUE(file.append("some spilled bytes\n"));
  plan.add(fault(io::FaultOp::kSpillRead, io::Fault::Kind::kErrno,
            /*at=*/0, /*repeat=*/1, /*cap=*/0, /*err=*/EIO));
  char buf[8];
  std::string error;
  EXPECT_FALSE(file.read_exact(0, buf, sizeof buf, &error));
  EXPECT_NE(error.find("[KQ-IO]"), std::string::npos) << error;
  EXPECT_NE(error.find("EIO"), std::string::npos) << error;
}

TEST(IoFaultTest, SpillReadEintrRetriesToFullRead) {
  io::FaultPlan plan;
  stream::SpillFile file(&plan);
  ASSERT_TRUE(file.valid());
  const std::string payload = lines(30);
  ASSERT_TRUE(file.append(payload));
  plan.add(fault(io::FaultOp::kSpillRead, io::Fault::Kind::kEintr,
            /*at=*/0, /*repeat=*/6));
  std::string back(payload.size(), '\0');
  std::string error;
  ASSERT_TRUE(file.read_exact(0, back.data(), back.size(), &error)) << error;
  EXPECT_EQ(back, payload);
  EXPECT_EQ(plan.fired(), 6u);
}

TEST(IoFaultTest, SpillMergerEnospcFailsCleanly) {
  io::FaultPlan plan;
  plan.add(fault(io::FaultOp::kSpillWrite, io::Fault::Kind::kErrno,
            /*at=*/0, /*repeat=*/1, /*cap=*/0, /*err=*/ENOSPC));
  auto spec = cmd::SortSpec::parse({});
  ASSERT_TRUE(spec.has_value());
  stream::SpillMerger merger(std::make_shared<const cmd::SortSpec>(*spec),
                             stream::SpillMerger::Input::kUnsortedBlocks,
                             /*threshold=*/64, nullptr, &plan);
  bool ok = true;
  for (int i = 0; i < 64 && ok; ++i)
    ok = merger.add("zw-" + std::to_string(i) + "\n");
  if (ok)
    ok = merger.finish([](std::string&&) { return true; }, 4096);
  EXPECT_FALSE(ok);
  EXPECT_NE(merger.error().find("[KQ-IO]"), std::string::npos)
      << merger.error();
}

TEST(IoFaultTest, SpillReadFailureWhileRangesReadConcurrently) {
  // The final merge cuts and reads one spill file from several range
  // tasks at once; a single failed read must fail the run with a coded
  // [KQ-IO] message (each read reports its own error, so the concurrent
  // readers share no error state — the TSan job runs this).
  const std::string content = lines(20000);
  TempInput input(content);
  io::FaultPlan plan;
  plan.add(fault(io::FaultOp::kSpillRead, io::Fault::Kind::kErrno,
            /*at=*/5, /*repeat=*/1, /*cap=*/0, /*err=*/EIO));

  kq::ExecOptions options;
  options.mode = kq::ExecMode::kStream;
  options.parallelism = 4;
  options.block_size = 4096;
  options.spill_threshold = 16 * 1024;
  options.fault_plan = &plan;
  kq::Executor executor(options);
  kq::ExecResult result = executor.run_collect(
      compile_stages("sort"), kq::Source::from_fd(input.fd()));
  ASSERT_FALSE(result.ok) << "a failed spill read must fail the run";
  EXPECT_NE(result.error.find("[KQ-IO]"), std::string::npos) << result.error;
  EXPECT_EQ(plan.fired(), 1u);
}

// --------------------------------------------------- whole-pipeline faults --

TEST(IoFaultTest, PipelineSurvivesSourceFaultStorm) {
  const std::string content = lines(3000);
  const std::string expect =
      exec::run_serial(compile_stages("sort | uniq -c"), content);

  TempInput input(content);
  io::FaultPlan plan;
  plan.add(fault(io::FaultOp::kSourceRead, io::Fault::Kind::kEintr,
            /*at=*/0, /*repeat=*/20));
  plan.add(fault(io::FaultOp::kSourceRead, io::Fault::Kind::kShortOp,
            /*at=*/25, /*repeat=*/10, /*cap=*/13));
  plan.add(fault(io::FaultOp::kSpillWrite, io::Fault::Kind::kShortOp,
            /*at=*/0, /*repeat=*/16, /*cap=*/37));

  kq::ExecOptions options;
  options.mode = kq::ExecMode::kStream;
  options.parallelism = 2;
  options.block_size = 1024;
  options.spill_threshold = 4096;  // force the spill path under the faults
  options.fault_plan = &plan;
  kq::Executor executor(options);
  kq::ExecResult result = executor.run_collect(
      compile_stages("sort | uniq -c"), kq::Source::from_fd(input.fd()));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.output, expect);
  EXPECT_GT(plan.fired(), 0u);
}

TEST(IoFaultTest, PipelineEnospcFailsWithCodedErrorNotTruncation) {
  const std::string content = lines(3000);
  TempInput input(content);
  io::FaultPlan plan;
  plan.add(fault(io::FaultOp::kSpillWrite, io::Fault::Kind::kErrno,
            /*at=*/2, /*repeat=*/1, /*cap=*/0, /*err=*/ENOSPC));

  kq::ExecOptions options;
  options.mode = kq::ExecMode::kStream;
  options.parallelism = 2;
  options.block_size = 1024;
  options.spill_threshold = 2048;
  options.fault_plan = &plan;
  kq::Executor executor(options);
  kq::ExecResult result = executor.run_collect(
      compile_stages("sort"), kq::Source::from_fd(input.fd()));
  ASSERT_FALSE(result.ok)
      << "a spill device running out of space must fail the run, not "
         "silently emit a truncated sort";
  EXPECT_NE(result.error.find("[KQ-IO]"), std::string::npos) << result.error;
  EXPECT_EQ(plan.fired(), 1u);
}

}  // namespace
}  // namespace kq
