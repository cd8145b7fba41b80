// Deterministic fault injection for the I/O engine (src/io/engine.h).
//
// The engine consults one FaultPlan immediately before each I/O
// *attempt* (a source read, a spill write chunk, a spill read chunk). A
// matching fault then replaces or perturbs that attempt:
//
//   - kShortOp clamps the attempt's byte count, forcing the short-read /
//     partial-write continuation paths that real kernels exercise rarely.
//   - kEintr and kEagain make the attempt behave exactly as if the
//     syscall had returned that errno (no syscall is issued), so EINTR
//     storms and readability-evaporated retries are replayable.
//   - kErrno surfaces a hard errno (ENOSPC, EIO, ...) from the attempt.
//   - kCancel invokes a caller-provided hook (typically
//     BlockReader::cancel) and then retries, landing a cancellation at an
//     exact mid-fill attempt index.
//
// Because the consultation point is *inside* kq::io, a scenario scripted
// once in tests/io_fault_test.cpp drives the same retry and error paths
// that a real kernel would, at an exact attempt index.
//
// Thread safety: next() is fully synchronized (engines on different
// threads may share one plan); the hooks run outside the lock. The lock
// is a leaf — next() never calls back into locked kq code — so it takes
// LockRank::kNone.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "stream/sync.h"

namespace kq::io {

// Which logical operation an attempt belongs to. Attempt indices count
// per-op, so a plan can say "the 3rd spill write fails" independently of
// how many source reads happened first.
enum class FaultOp { kSourceRead, kSpillWrite, kSpillRead };

struct Fault {
  enum class Kind { kShortOp, kEintr, kEagain, kErrno, kCancel };

  FaultOp op = FaultOp::kSourceRead;
  Kind kind = Kind::kEintr;
  // Fires on attempt indices [at, at + repeat) of `op` (0-based);
  // repeat > 1 models bursts (e.g. 50 consecutive EINTRs).
  std::size_t at = 0;
  std::size_t repeat = 1;
  std::size_t cap = 0;   // kShortOp: clamp the attempt to this many bytes
  int err = 0;           // kErrno: the errno to surface
  std::function<void()> hook;  // kCancel: invoked when the fault fires
};

// What the engine should do with the current attempt.
struct FaultDecision {
  enum class Action {
    kProceed,  // no fault: issue the real syscall
    kShortOp,  // issue the syscall, but for at most `cap` bytes
    kRetry,    // behave as EINTR/EAGAIN: skip the syscall, loop again
    kFail,     // surface `err` as a hard error without a syscall
  };
  Action action = Action::kProceed;
  std::size_t cap = 0;
  int err = 0;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  void add(Fault fault) {
    sync::MutexLock lock(mu_);
    faults_.push_back(std::move(fault));
  }

  // Called by an engine once per I/O attempt. Increments the per-op
  // attempt counter, fires at most one matching fault (first match in
  // add() order), and runs its kCancel hook outside the lock.
  FaultDecision next(FaultOp op);

  // How many faults have fired so far — lets a test assert a scenario
  // actually exercised its failpoints instead of silently missing them.
  std::size_t fired() const {
    sync::MutexLock lock(mu_);
    return fired_;
  }

 private:
  mutable sync::Mutex mu_{sync::LockRank::kNone};
  std::vector<Fault> faults_ GUARDED_BY(mu_);
  std::size_t attempts_[3] GUARDED_BY(mu_) = {0, 0, 0};
  std::size_t fired_ GUARDED_BY(mu_) = 0;
};

}  // namespace kq::io
