#include "stream/channel.h"

#include <chrono>

namespace kq::stream {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

}  // namespace

void MemoryGauge::add(std::size_t n) {
  std::size_t now = current_.fetch_add(n) + n;
  std::size_t seen = peak_.load();
  while (seen < now && !peak_.compare_exchange_weak(seen, now)) {
  }
}

void MemoryGauge::sub(std::size_t n) { current_.fetch_sub(n); }

Channel::Channel(std::size_t capacity, MemoryGauge* gauge)
    : capacity_(capacity == 0 ? 1 : capacity), gauge_(gauge) {}

// The wait helpers read the clock only when a wait is actually needed AND a
// telemetry counter is attached, so untelemetered (or never-blocking) paths
// stay clock-free.
void Channel::wait_not_full(MutexLock& lock) {
  if (closed_ || queue_.size() < capacity_) return;
  if (send_blocked_ns_ == nullptr) {
    while (!closed_ && queue_.size() >= capacity_) not_full_.wait(lock);
    return;
  }
  const auto start = Clock::now();
  while (!closed_ && queue_.size() >= capacity_) not_full_.wait(lock);
  send_blocked_ns_->fetch_add(ns_since(start), std::memory_order_relaxed);
}

void Channel::wait_not_empty(MutexLock& lock) {
  if (closed_ || !queue_.empty()) return;
  if (recv_blocked_ns_ == nullptr) {
    while (!closed_ && queue_.empty()) not_empty_.wait(lock);
    return;
  }
  const auto start = Clock::now();
  while (!closed_ && queue_.empty()) not_empty_.wait(lock);
  recv_blocked_ns_->fetch_add(ns_since(start), std::memory_order_relaxed);
}

bool Channel::push(Chunk chunk) {
  MutexLock lock(mu_);
  wait_not_full(lock);
  if (closed_) return false;
  if (gauge_) gauge_->add(chunk.bytes.size());
  queue_.push_back(std::move(chunk));
  not_empty_.notify_one();
  return true;
}

std::optional<Chunk> Channel::pop() {
  MutexLock lock(mu_);
  wait_not_empty(lock);
  if (queue_.empty()) return std::nullopt;  // closed and drained
  Chunk chunk = std::move(queue_.front());
  queue_.pop_front();
  if (gauge_) gauge_->sub(chunk.bytes.size());
  not_full_.notify_one();
  return chunk;
}

void Channel::drain_and_wake(bool discard) {
  closed_ = true;
  if (discard) {
    if (gauge_) {
      for (const Chunk& c : queue_) gauge_->sub(c.bytes.size());
    }
    queue_.clear();
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

void Channel::close() {
  MutexLock lock(mu_);
  drain_and_wake(/*discard=*/false);
}

void Channel::abort() {
  MutexLock lock(mu_);
  drain_and_wake(/*discard=*/true);
}

void Channel::close_read() {
  MutexLock lock(mu_);
  read_closed_ = true;
  drain_and_wake(/*discard=*/true);
}

bool Channel::read_closed() const {
  MutexLock lock(mu_);
  return read_closed_;
}

Semaphore::Semaphore(std::size_t slots) : slots_(slots == 0 ? 1 : slots) {}

void Semaphore::wait_ready(MutexLock& lock) {
  if (cancelled_ || slots_ > 0) return;
  if (blocked_ns_ == nullptr) {
    while (!cancelled_ && slots_ == 0) cv_.wait(lock);
    return;
  }
  const auto start = Clock::now();
  while (!cancelled_ && slots_ == 0) cv_.wait(lock);
  blocked_ns_->fetch_add(ns_since(start), std::memory_order_relaxed);
}

bool Semaphore::acquire() {
  MutexLock lock(mu_);
  wait_ready(lock);
  if (cancelled_) return false;
  --slots_;
  return true;
}

void Semaphore::release() {
  MutexLock lock(mu_);
  ++slots_;
  cv_.notify_one();
}

void Semaphore::cancel() {
  MutexLock lock(mu_);
  cancelled_ = true;
  cv_.notify_all();
}

std::string BufferPool::acquire(std::size_t min_capacity,
                                std::atomic<std::uint64_t>* hits,
                                std::atomic<std::uint64_t>* misses) {
  {
    MutexLock lock(mu_);
    std::size_t best = free_.size();  // best fit
    for (std::size_t i = free_.size(); i-- > 0;) {
      const std::size_t cap = free_[i].capacity();
      if (cap >= min_capacity &&
          (best == free_.size() || cap < free_[best].capacity()))
        best = i;
    }
    if (best != free_.size()) {
      if (hits) hits->fetch_add(1, std::memory_order_relaxed);
      std::string buf = std::move(free_[best]);
      if (best + 1 != free_.size()) free_[best] = std::move(free_.back());
      free_.pop_back();
      cached_bytes_ -= buf.capacity();
      return buf;
    }
  }
  if (misses) misses->fetch_add(1, std::memory_order_relaxed);
  std::string buf;
  buf.reserve(min_capacity);
  return buf;
}

void BufferPool::release(std::string&& buf) {
  if (buf.capacity() < kMinBytes) return;  // the allocator's to recycle
  buf.clear();  // keeps the allocation
  MutexLock lock(mu_);
  if (buf.capacity() < min_bytes_ ||
      cached_bytes_ + buf.capacity() > budget_bytes_)
    return;  // deallocate
  cached_bytes_ += buf.capacity();
  free_.push_back(std::move(buf));
}

}  // namespace kq::stream
