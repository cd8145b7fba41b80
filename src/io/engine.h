// The syscall layer under the streaming runtime's I/O: source reads for
// BlockReader fds, and spill-run writes / merge-phase reads for the spill
// machinery (stream/spill.cpp). Source reads are a poll(2)+read loop with a
// short cancellation tick; spill I/O is synchronous pwrite/pread. Every
// I/O attempt first consults the run's io::FaultPlan (io/fault.h), which
// is why this is a type at all: the fault seam lives inside it.
//
// Thread safety: an Engine is thread-COMPATIBLE, owned by exactly one node
// thread (the single-owner convention of docs/CONCURRENCY.md). It holds
// only the FaultPlan pointer, and FaultPlan::next() is synchronized, so
// engines on different threads may share one plan.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace kq::io {

class FaultPlan;

// Shared flags between a BlockReader and the engine's source-read loop,
// passed by pointer so the loop can honor cancellation, report idleness
// and errors, and charge opt-in wait time. All pointers outlive the read
// (they live in the BlockReader's shared_ptr state).
struct SourceCtl {
  const std::atomic<bool>* cancel = nullptr;   // consumer asked us to stop
  std::atomic<bool>* idle = nullptr;           // out: source has no more *now*
  const std::atomic<bool>* time_waits = nullptr;  // opt-in wait timing
  std::atomic<std::uint64_t>* wait_ns = nullptr;  // out: idle-wait total
  int* error = nullptr;                        // out: errno on hard failure
};

class Engine {
 public:
  // `faults` is a test-only seam; production runs leave it null.
  explicit Engine(FaultPlan* faults = nullptr) : faults_(faults) {}

  // Source read for BlockReader: up to `n` bytes into `buf`, returning the
  // count. 0 means end of input, cancellation, or a hard error (then
  // *ctl.error is the errno). A cancel() while the producer is idle is
  // noticed within one ~50 ms poll tick.
  std::size_t read_source(int fd, char* buf, std::size_t n,
                          const SourceCtl& ctl) const;

  // Spill-run write of `bytes` at `offset`, complete before returning.
  // False on a hard error, with a coded "[KQ-IO] ..." message in *error.
  bool write_at(int fd, std::string_view bytes, std::size_t offset,
                std::string* error) const;

  // Merge-phase read: exactly `n` bytes at `offset`. False on error or
  // unexpected EOF, with a coded message in *error.
  bool read_at(int fd, char* buf, std::size_t n, std::size_t offset,
               std::string* error) const;

 private:
  FaultPlan* faults_;
};

// Coded diagnostic for I/O failures, e.g.
//   "[KQ-IO] spill write: No space left on device (ENOSPC)".
// The KQ-IO code is documented in docs/CHECKS.md alongside the static
// checker's KQ-S/KQ-W codes.
std::string coded_error(const char* op, int err);
std::string coded_error(const char* op, const std::string& detail);

}  // namespace kq::io
