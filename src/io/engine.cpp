#include "io/engine.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "io/fault.h"

namespace kq::io {
namespace {

// Poll interval for the source's cancellation check: short enough that a
// cancelled reader blocked on an idle pipe wakes promptly, long enough
// that an active stream pays one cheap always-ready poll per read.
constexpr int kCancelPollMs = 50;

const char* errno_name(int err) {
  switch (err) {
    case EINTR: return "EINTR";
    case EAGAIN: return "EAGAIN";
    case EBADF: return "EBADF";
    case EIO: return "EIO";
    case ENOSPC: return "ENOSPC";
    case EFBIG: return "EFBIG";
    case EINVAL: return "EINVAL";
    case ENOMEM: return "ENOMEM";
    case EMSGSIZE: return "EMSGSIZE";
    case EDQUOT: return "EDQUOT";
    case EPIPE: return "EPIPE";
    default: return nullptr;
  }
}

// Consults the fault seam for one attempt; kShortOp clamps *want (a cap of
// 0 is treated as 1 so a clamped attempt still makes progress).
FaultDecision consult(FaultPlan* faults, FaultOp op, std::size_t* want) {
  if (faults == nullptr) return {};
  FaultDecision d = faults->next(op);
  if (d.action == FaultDecision::Action::kShortOp)
    *want = std::min(*want, std::max<std::size_t>(1, d.cap));
  return d;
}

}  // namespace

std::size_t Engine::read_source(int fd, char* buf, std::size_t n,
                                const SourceCtl& ctl) const {
  while (true) {
    if (ctl.cancel->load()) return 0;  // consumer-side stop, not error
    std::size_t want = n;
    const FaultDecision fault = consult(faults_, FaultOp::kSourceRead, &want);
    if (fault.action == FaultDecision::Action::kRetry)
      continue;  // injected EINTR/EAGAIN: recheck cancel, re-poll
    if (fault.action == FaultDecision::Action::kFail) {
      *ctl.error = fault.err;
      return 0;
    }
    // Wait for readability with a timeout instead of blocking in read(2):
    // a cancel() while the producer pipe is idle is noticed at the next
    // poll tick, not at the next (possibly never-arriving) block boundary.
    // Regular files are always readable, so the poll is one cheap syscall
    // on the non-pipe path.
    struct pollfd pfd{fd, POLLIN, 0};
    // Wait timing is opt-in (BlockReader::enable_wait_timing): only then
    // is the clock consulted, and only a timed-out poll — an actual wait
    // for the producer — is charged, so the saturated path stays
    // clock-free apart from one relaxed flag load per read.
    bool timing = ctl.time_waits->load(std::memory_order_relaxed);
    std::chrono::steady_clock::time_point t0;
    if (timing) t0 = std::chrono::steady_clock::now();
    int ready = ::poll(&pfd, 1, kCancelPollMs);
    if (timing && ready == 0) {
      ctl.wait_ns->fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count()),
          std::memory_order_relaxed);
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      *ctl.error = errno;
      return 0;
    }
    if (ready == 0) continue;  // timeout: recheck cancellation
    ssize_t got = ::read(fd, buf, want);
    if (got > 0) {
      // Source gone idle? (zero-timeout poll after a successful read). A
      // pipe read returns at most the pipe capacity (~64 KiB), so a short
      // read alone cannot distinguish "producer is saturating the pipe"
      // (keep batching toward a full block) from "producer went quiet"
      // (flush what we have — see BlockReader::next). The poll must retry
      // EINTR: a signal landing here would otherwise read as "idle"
      // (poll() == -1 != 0) and trigger a spurious early flush — harmless
      // for correctness but it shrinks blocks under signal load. A
      // non-EINTR poll failure reports not-idle (keep batching); the main
      // loop's poll will surface any persistent error.
      int now;
      do {
        pfd.revents = 0;
        now = ::poll(&pfd, 1, 0);
      } while (now < 0 && errno == EINTR);
      ctl.idle->store(now == 0);
      return static_cast<std::size_t>(got);
    }
    if (got == 0) return 0;
    if (errno == EINTR) continue;  // signal mid-read: re-poll and retry
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // O_NONBLOCK fd whose readability evaporated between poll and read
      // (another consumer, or a spurious wakeup): wait again rather than
      // misreporting a transient condition as a hard stream error.
      continue;
    }
    *ctl.error = errno;  // hard error: flag it, end the stream
    return 0;
  }
}

bool Engine::write_at(int fd, std::string_view bytes, std::size_t offset,
                      std::string* error) const {
  while (!bytes.empty()) {
    std::size_t want = bytes.size();
    const FaultDecision fault = consult(faults_, FaultOp::kSpillWrite, &want);
    if (fault.action == FaultDecision::Action::kRetry) continue;
    if (fault.action == FaultDecision::Action::kFail) {
      *error = coded_error("spill write", fault.err);
      return false;
    }
    ssize_t wrote =
        ::pwrite(fd, bytes.data(), want, static_cast<off_t>(offset));
    if (wrote < 0) {
      if (errno == EINTR) continue;
      *error = coded_error("spill write", errno);
      return false;
    }
    if (wrote == 0) {
      // A zero-byte pwrite with a nonzero count is a stuck device;
      // retrying would spin forever and a silent return would leave the
      // run truncated (the old ENOSPC-adjacent bug).
      *error = coded_error("spill write", "wrote 0 bytes (device full?)");
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(wrote));
    offset += static_cast<std::size_t>(wrote);
  }
  return true;
}

bool Engine::read_at(int fd, char* buf, std::size_t n, std::size_t offset,
                     std::string* error) const {
  while (n > 0) {
    std::size_t want = n;
    const FaultDecision fault = consult(faults_, FaultOp::kSpillRead, &want);
    if (fault.action == FaultDecision::Action::kRetry) continue;
    if (fault.action == FaultDecision::Action::kFail) {
      *error = coded_error("spill read", fault.err);
      return false;
    }
    ssize_t got = ::pread(fd, buf, want, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      *error = coded_error("spill read", errno);
      return false;
    }
    if (got == 0) {
      *error = coded_error("spill read", "unexpected end of spill file");
      return false;
    }
    buf += got;
    offset += static_cast<std::size_t>(got);
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

std::string coded_error(const char* op, int err) {
  std::string message = "[KQ-IO] ";
  message += op;
  message += ": ";
  message += std::strerror(err);
  if (const char* name = errno_name(err)) {
    message += " (";
    message += name;
    message += ")";
  }
  return message;
}

std::string coded_error(const char* op, const std::string& detail) {
  std::string message = "[KQ-IO] ";
  message += op;
  message += ": ";
  message += detail;
  return message;
}

}  // namespace kq::io
