#include "exec/parallel.h"

#include "exec/cascade.h"
#include "text/streams.h"

// Thread safety: no locks here by design. Each worker owns its slice's
// string exclusively and `chain` is read-only for the duration of the call.
// Commands run through this path must be const-callable from multiple
// threads (cmd::Command::run is const and stateless; commands that
// dereference file names go through vfs::Vfs, which locks).
// run_slice_fused builds fresh processors per call, so processor state
// never crosses slices or threads.

namespace kq::exec {

// `owned` holds the slice and each stage's output replaces it, so the
// slice is given up as soon as the first stage has consumed it rather than
// held while a black-box stage runs whole.
std::string run_slice_fused(const std::vector<const cmd::Command*>& chain,
                            std::string owned, std::size_t step,
                            bool* last_fed, std::string out,
                            const Recycle& recycle) {
  if (step == 0) step = 1;
  // Replaces `owned` with the next stage's output, giving the consumed
  // buffer back to the caller.
  auto advance = [&](std::string&& next) {
    if (recycle) recycle(std::move(owned));
    owned = std::move(next);
  };
  const std::size_t n = chain.size();
  std::string_view cur = owned;
  bool fed = !cur.empty();  // whether the last stage got input
  std::size_t i = 0;
  while (i < n) {
    // The maximal cascade run from i: per-record/prefix stages, optionally
    // terminated by one window stage. A black-box stage runs whole.
    auto tier = [&](std::size_t s) { return chain[s]->streamability(); };
    std::size_t j = i;
    while (j < n && (tier(j) == cmd::Streamability::kPerRecord ||
                     tier(j) == cmd::Streamability::kPrefix))
      ++j;
    if (j < n && tier(j) == cmd::Streamability::kWindow) ++j;
    if (j == i) {
      if (i + 1 == n) fed = !cur.empty();
      advance(chain[i]->run(cur));
      cur = owned;
      ++i;
      continue;
    }
    Cascade cascade(std::span(chain.data() + i, j - i));
    // The last run writes into the caller's buffer.
    std::string into = j == n ? std::move(out) : std::string();
    into.clear();
    const Cascade::Buffer buffer = [&into] { return &into; };
    text::for_each_block(cur, step, '\n', [&](std::string_view piece) {
      cascade.feed(piece, 0, buffer);
      return !cascade.satisfied();
    });
    cascade.flush(buffer, nullptr);
    if (cmd::WindowProcessor* window = cascade.window()) {
      window->finish([&into](std::string_view piece) {
        into.append(piece);
        return true;
      });
    }
    if (j == n) fed = cascade.terminal_fed();
    advance(std::move(into));
    cur = owned;
    i = j;
  }
  if (last_fed) *last_fed = fed;
  // A result that fills less than half its buffer (a count, a last line, a
  // sparse sort -u run) moves into a fitted string and the buffer goes
  // back: the caller may hold results, and a held result should keep no
  // more than twice its size.
  if (recycle && owned.size() < owned.capacity() / 2) {
    std::string fitted(owned);
    recycle(std::move(owned));
    return fitted;
  }
  return owned;
}

}  // namespace kq::exec
