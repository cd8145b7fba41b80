#include "exec/cascade.h"

#include <algorithm>
#include <stdexcept>

namespace kq::exec {

Cascade::Cascade(std::span<const cmd::Command* const> chain) {
  for (std::size_t j = 0; j < chain.size(); ++j) {
    const cmd::Command& c = *chain[j];
    if (j + 1 == chain.size() &&
        c.streamability() == cmd::Streamability::kWindow) {
      window_ = c.window_processor();
      if (!window_)
        throw std::logic_error("stage '" + c.display_name() +
                               "' classified window-bounded but has no "
                               "window processor");
      break;
    }
    auto p = c.stream_processor();
    if (!p)
      throw std::logic_error("stage '" + c.display_name() +
                             "' classified streamable but has no stream "
                             "processor");
    procs_.push_back(std::move(p));
  }
  bufs_.resize(procs_.size());
  done_.assign(procs_.size(), false);
}

bool Cascade::feed(std::string_view block, std::size_t from,
                   const Buffer& buffer) {
  const std::size_t m = procs_.size();
  std::string_view cur = block;
  for (std::size_t j = from; j < m; ++j) {
    if (done_[j]) return false;  // complete: the rest of the chain saw all
    if (!window_ && j + 1 == m) {
      if (!cur.empty()) terminal_fed_ = true;
      if (!procs_[j]->process(cur, buffer())) done_[j] = true;
      return true;
    }
    bufs_[j].clear();
    if (!procs_[j]->process(cur, &bufs_[j])) done_[j] = true;
    cur = bufs_[j];
  }
  if (!window_) {  // from == m: the last processor's own tail
    buffer()->append(cur);
    return true;
  }
  if (cur.empty()) return false;
  terminal_fed_ = true;
  window_->push(cur, buffer());  // emits only what later input can't change
  return true;
}

bool Cascade::satisfied() const {
  return std::find(done_.begin(), done_.end(), true) != done_.end();
}

bool Cascade::flush(const Buffer& buffer,
                    const std::function<bool()>& settle) {
  const std::size_t m = procs_.size();
  std::size_t first = 0;
  while (first < m && !done_[first]) ++first;
  std::string tail;
  for (std::size_t j = first < m ? first + 1 : 0; j < m; ++j) {
    if (done_[j]) continue;
    tail.clear();
    procs_[j]->finish(&tail);
    if (!tail.empty() && feed(tail, j + 1, buffer) && settle && !settle())
      return false;
  }
  return true;
}

}  // namespace kq::exec
