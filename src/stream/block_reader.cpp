#include "stream/block_reader.h"

#include <algorithm>
#include <cerrno>
#include <istream>

#include "io/engine.h"
#include "obs/trace.h"

namespace kq::stream {
namespace {

BlockReaderOptions sanitize(BlockReaderOptions options) {
  options.block_size = std::max<std::size_t>(1, options.block_size);
  return options;
}

// Slice size for the istream source's cancellation checks: an istream read
// cannot be interrupted, so instead of asking for a whole block at once
// the source reads ≤4 KiB at a time and rechecks the cancel flag between
// slices — a cancel mid-fill is noticed within one slice (at most a few
// records) rather than at the next block boundary. Small enough for
// prompt embedded cancellation, large enough that the per-slice virtual
// call vanishes against the buffered stream read.
constexpr std::size_t kCancelSliceBytes = 4096;

BlockReader::ReadFn stream_source(std::istream& in, std::shared_ptr<int> error,
                                  std::shared_ptr<std::atomic<bool>> cancel) {
  return [&in, error = std::move(error),
          cancel = std::move(cancel)](char* buf,
                                      std::size_t n) -> std::size_t {
    std::size_t total = 0;
    while (total < n) {
      if (cancel->load()) break;  // mid-fill stop: deliver what we have
      std::size_t want = std::min(n - total, kCancelSliceBytes);
      in.read(buf + total, static_cast<std::streamsize>(want));
      if (in.bad()) {
        *error = EIO;  // lost the stream, not just EOF
        break;
      }
      std::size_t got = static_cast<std::size_t>(in.gcount());
      total += got;
      if (got < want) break;  // end of input
    }
    return total;
  };
}

// The fd source: the engine's poll(2)+read loop (src/io/engine.h), handed a
// SourceCtl view of the reader's shared flag state per read.
BlockReader::ReadFn engine_source(
    io::Engine engine, int fd, std::shared_ptr<int> error,
    std::shared_ptr<std::atomic<bool>> cancel,
    std::shared_ptr<std::atomic<bool>> idle,
    std::shared_ptr<std::atomic<bool>> time_waits,
    std::shared_ptr<std::atomic<std::uint64_t>> wait_ns) {
  return [engine, fd, error = std::move(error), cancel = std::move(cancel),
          idle = std::move(idle), time_waits = std::move(time_waits),
          wait_ns = std::move(wait_ns)](char* buf,
                                        std::size_t n) -> std::size_t {
    io::SourceCtl ctl;
    ctl.cancel = cancel.get();
    ctl.idle = idle.get();
    ctl.time_waits = time_waits.get();
    ctl.wait_ns = wait_ns.get();
    ctl.error = error.get();
    return engine.read_source(fd, buf, n, ctl);
  };
}

}  // namespace

BlockReader::BlockReader(std::istream& in, BlockReaderOptions options)
    : read_(stream_source(in, error_, cancel_)), options_(sanitize(options)) {}

BlockReader::BlockReader(int fd, BlockReaderOptions options,
                         io::FaultPlan* faults)
    : read_(engine_source(io::Engine(faults), fd, error_, cancel_, idle_,
                          time_waits_, wait_ns_)),
      options_(sanitize(options)) {}

BlockReader::BlockReader(ReadFn read, BlockReaderOptions options)
    : read_(std::move(read)), options_(sanitize(options)) {}

void BlockReader::fill() {
  if (cancel_->load()) {  // callback sources: noticed between fills
    eof_ = true;
    return;
  }
  auto span = obs::span(tracer_.load(std::memory_order_acquire),
                        "source-fill", "source");
  std::size_t old = pending_.size();
  pending_.resize(old + options_.block_size);
  std::size_t got = read_(pending_.data() + old, options_.block_size);
  pending_.resize(old + got);
  if (got == 0) eof_ = true;
  span.arg("bytes", got);
}

std::optional<std::string> BlockReader::next(const Acquire& acquire) {
  while (!eof_ && pending_.size() < options_.block_size) {
    // An idle source (the fd path's zero-timeout poll after the last read:
    // a pipe between bursts, never a regular file) has no more bytes
    // *right now*. Waiting for a full block would hold already-read
    // records hostage to a producer that may stay idle indefinitely
    // (`seq 20 | head -n 5` through a still-open pipe), so deliver the
    // complete records on hand and leave the partial tail pending. The
    // check runs *before* fill() blocks: a burst that overshot the block
    // boundary leaves complete records in pending_ across next() calls,
    // and those must flush without waiting for the producer's next write.
    // `flush_scan_` remembers how far previous idle checks got, keeping
    // the delimiter scan linear when an idle producer dribbles a long
    // delimiter-free record.
    if (idle_->load()) {
      if (pending_.find(options_.delimiter, flush_scan_) !=
          std::string::npos)
        break;
      flush_scan_ = pending_.size();
    }
    fill();
  }
  if (pending_.empty()) return std::nullopt;

  std::size_t cut;
  if (eof_ && pending_.size() <= options_.block_size) {
    // Everything left fits in one block; a missing trailing delimiter just
    // means the final block carries a partial last record.
    cut = pending_.size();
  } else {
    std::size_t last = pending_.rfind(options_.delimiter,
                                      options_.block_size - 1);
    if (last != std::string::npos) {
      cut = last + 1;  // the delimiter stays with its record
    } else {
      // A single record longer than the block: extend until its terminating
      // delimiter (or end of input) so the record is never split. A
      // max_record_size cap bounds this growth: one delimiter-free record
      // would otherwise accumulate the rest of the input in pending_.
      std::size_t from = options_.block_size;
      std::size_t end = pending_.find(options_.delimiter, from);
      while (end == std::string::npos && !eof_) {
        if (options_.max_record_size != 0 &&
            pending_.size() > options_.max_record_size) {
          *error_ = EMSGSIZE;  // record too large to buffer; see header
          eof_ = true;
          pending_.clear();
          pending_.shrink_to_fit();
          return std::nullopt;
        }
        from = pending_.size();
        fill();
        end = pending_.find(options_.delimiter, from);
      }
      cut = (end == std::string::npos) ? pending_.size() : end + 1;
    }
  }

  std::string block;
  if (acquire) block = acquire(std::max(cut, options_.block_size));
  block.assign(pending_, 0, cut);
  pending_.erase(0, cut);
  flush_scan_ = 0;  // pending_ shifted: stale idle-scan offset
  bytes_delivered_ += block.size();
  return block;
}

}  // namespace kq::stream
