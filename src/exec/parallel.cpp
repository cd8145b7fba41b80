#include "exec/parallel.h"

#include "exec/cascade.h"
#include "text/streams.h"

// Thread safety: no locks here by design. Each worker owns its chunk's
// string exclusively; `chain` and `chunks` are read-only for the duration
// of the call; and all cross-thread publication happens through
// ThreadPool::submit / future::get, whose synchronization orders the
// worker's writes before the caller's reads. Commands run through this
// path must be const-callable from multiple threads (cmd::Command::run is
// const and stateless; commands that dereference file names go through
// vfs::Vfs, which locks). run_slice_fused builds fresh processors per call,
// so processor state never crosses slices or threads.

namespace kq::exec {
namespace {

// The slice executor. `owned` holds the slice when the caller handed it
// over (`view` is then null) and each stage's output replaces it, so the
// slice is given up as soon as the first stage has consumed it rather than
// held while a black-box stage runs whole. The batch mapper's chunks view
// one shared input instead.
std::string run_chain(const std::vector<const cmd::Command*>& chain,
                      std::string owned, const std::string_view* view,
                      std::size_t step, bool* last_fed, std::string out,
                      const Recycle& recycle) {
  if (step == 0) step = 1;
  // Replaces `owned` with the next stage's output, giving the consumed
  // buffer back to the caller.
  auto advance = [&](std::string&& next) {
    if (recycle) recycle(std::move(owned));
    owned = std::move(next);
  };
  const std::size_t n = chain.size();
  std::string_view cur = view ? *view : std::string_view(owned);
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
  if (n == 0 && view) return std::string(*view);
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

}  // namespace

std::vector<std::string> map_chunks(const cmd::Command& command,
                                    const std::vector<std::string_view>& chunks,
                                    ThreadPool& pool) {
  std::vector<const cmd::Command*> chain = {&command};
  return map_chunks_chain(chain, chunks, pool);
}

std::vector<std::string> map_chunks_chain(
    const std::vector<const cmd::Command*>& chain,
    const std::vector<std::string_view>& chunks, ThreadPool& pool) {
  // Thin client of the fused slice executor: one pool task per chunk, each
  // running the whole chain over its contiguous slice.
  std::vector<std::future<std::string>> futures;
  futures.reserve(chunks.size());
  for (std::string_view chunk : chunks) {
    futures.push_back(pool.submit([&chain, chunk] {
      return run_chain(chain, {}, &chunk, kSliceStep, nullptr, {}, nullptr);
    }));
  }
  std::vector<std::string> outputs;
  outputs.reserve(futures.size());
  for (auto& f : futures) outputs.push_back(f.get());
  return outputs;
}

std::string run_slice_fused(const std::vector<const cmd::Command*>& chain,
                            std::string slice, std::size_t step,
                            bool* last_fed, std::string out,
                            const Recycle& recycle) {
  return run_chain(chain, std::move(slice), nullptr, step, last_fed,
                   std::move(out), recycle);
}

}  // namespace kq::exec
