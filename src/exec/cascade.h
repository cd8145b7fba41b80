// The processor cascade: a fused run of streamable stages executed block by
// block — per-record/prefix cmd::StreamProcessors, optionally ending in one
// cmd::WindowProcessor. The one implementation behind the stream-chain node
// (stream/chain_node.cpp) and the slice executor (exec::run_slice_fused).
// Owned by one thread; fresh processors per instance.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "unixcmd/command.h"

namespace kq::exec {

class Cascade {
 public:
  // The buffer the terminal stage appends to. Called at most once per feed,
  // and only when a block reaches the terminal, so a pooled buffer is taken
  // only when there is output to hold.
  using Buffer = std::function<std::string*()>;

  // Every member of `chain` declares kPerRecord or kPrefix, except that the
  // last may declare kWindow. Throws std::logic_error for a member without
  // the processor its declaration promises (failing beats dropping data).
  explicit Cascade(std::span<const cmd::Command* const> chain);

  // The window terminal, or null when the last processor is the terminal.
  cmd::WindowProcessor* window() const { return window_.get(); }

  // Cascades one record-aligned block through processors [from, m) into the
  // terminal, which appends straight into *buffer() (a window absorbs the
  // block and appends what it settles). from == m hands a processor's tail
  // to the terminal itself. Returns whether the terminal ran.
  bool feed(std::string_view block, std::size_t from, const Buffer& buffer);

  // True once a prefix stage (head) reports its output complete.
  bool satisfied() const;

  // True once the terminal stage has been handed non-empty input.
  bool terminal_fed() const { return terminal_fed_; }

  // End of input: each still-open processor's tail cascades through the
  // rest of the chain (stages before a satisfied one are skipped: their
  // output could only feed a stage that needs nothing). `settle`, if set,
  // runs after each tail that reached the terminal; its first false stops
  // the flush and is returned. Ending the window is the caller's.
  bool flush(const Buffer& buffer, const std::function<bool()>& settle);

 private:
  std::vector<std::unique_ptr<cmd::StreamProcessor>> procs_;
  std::unique_ptr<cmd::WindowProcessor> window_;
  std::vector<std::string> bufs_;  // intermediates, reused per block
  std::vector<bool> done_;         // output complete (kPrefix bound)
  bool terminal_fed_ = false;
};

}  // namespace kq::exec
