#include "exec/parallel.h"

#include <memory>

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

// Cuts `data` into record-aligned pieces of roughly `step` bytes (records
// longer than a step travel whole) and hands each to `fn`; stops early when
// `fn` returns false. Same cut rule as the runtime's emit_blocks.
template <typename Fn>
void for_each_step(std::string_view data, std::size_t step, Fn&& fn) {
  while (data.size() > step) {
    std::size_t cut = data.rfind('\n', step - 1);
    if (cut == std::string_view::npos) {
      cut = data.find('\n', step);
      if (cut == std::string_view::npos) break;
    }
    if (!fn(data.substr(0, cut + 1))) return;
    data.remove_prefix(cut + 1);
  }
  if (!data.empty()) fn(data);
}

bool cascadable(const cmd::Command& c) {
  const cmd::Streamability s = c.streamability();
  return s == cmd::Streamability::kPerRecord ||
         s == cmd::Streamability::kPrefix;
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
  // running the whole chain over its contiguous slice. The 64 KiB step
  // keeps per-stage intermediates cache-resident without changing output.
  constexpr std::size_t kBatchStep = 64 << 10;
  std::vector<std::future<std::string>> futures;
  futures.reserve(chunks.size());
  for (std::string_view chunk : chunks) {
    futures.push_back(pool.submit(
        [&chain, chunk] { return run_slice_fused(chain, chunk, kBatchStep); }));
  }
  std::vector<std::string> outputs;
  outputs.reserve(futures.size());
  for (auto& f : futures) outputs.push_back(f.get());
  return outputs;
}

std::string run_slice_fused(const std::vector<const cmd::Command*>& chain,
                            std::string_view slice, std::size_t step,
                            bool* last_fed) {
  if (step == 0) step = 1;
  std::string owned;
  std::string_view cur = slice;
  const std::size_t n = chain.size();
  bool fed = !slice.empty();  // the last stage's input so far
  if (last_fed) *last_fed = fed;
  if (n == 0) return std::string(slice);
  std::size_t i = 0;
  while (i < n) {
    if (i + 1 == n) fed = !cur.empty();
    if (chain[i]->streamability() == cmd::Streamability::kNone) {
      owned = chain[i]->run(cur);
      cur = owned;
      ++i;
      continue;
    }

    // Collect the maximal cascade run: per-record/prefix processors,
    // optionally terminated by one window stage.
    std::vector<std::unique_ptr<cmd::StreamProcessor>> procs;
    std::size_t j = i;
    while (j < n && cascadable(*chain[j])) {
      auto p = chain[j]->stream_processor();
      if (!p) break;  // contract violation; fall back to run() below
      procs.push_back(std::move(p));
      ++j;
    }
    std::unique_ptr<cmd::WindowProcessor> window;
    if (j < n && chain[j]->streamability() == cmd::Streamability::kWindow) {
      window = chain[j]->window_processor();
      if (window) ++j;
    }
    if (j == i) {  // declared streamable but no processor: run whole
      owned = chain[i]->run(cur);
      cur = owned;
      ++i;
      continue;
    }

    const std::size_t m = procs.size();
    std::string out;
    std::vector<std::string> bufs(m);   // intermediates, reused per step
    std::vector<bool> done(m, false);   // output complete (kPrefix bound)
    // The chain's last stage is in this run: the window, else procs[m - 1].
    // Its input so far decides `fed`.
    const bool last_in_run = j == n;
    if (last_in_run && m + (window ? 1 : 0) > 1) fed = false;
    auto feed = [&](std::string_view data, std::size_t from) {
      std::string_view c = data;
      for (std::size_t p = from; p < m; ++p) {
        if (done[p]) return;  // complete: the rest of the run saw all
        if (last_in_run && !window && p + 1 == m && !c.empty()) fed = true;
        bufs[p].clear();
        if (!procs[p]->process(c, &bufs[p])) done[p] = true;
        c = bufs[p];
      }
      if (window) {
        if (last_in_run && !c.empty()) fed = true;
        if (!c.empty()) window->push(c, &out);
      } else {
        out.append(c);
      }
    };
    auto input_done = [&] {
      for (std::size_t p = 0; p < m; ++p)
        if (done[p]) return true;
      return false;
    };
    for_each_step(cur, step, [&](std::string_view piece) {
      feed(piece, 0);
      return !input_done();
    });
    // End-of-slice flush, mirroring run_stream_chain: each still-open
    // processor's tail cascades through the rest of the run; stages before
    // a completed one are skipped.
    std::size_t first = 0;
    while (first < m && !done[first]) ++first;
    std::string tail;
    for (std::size_t p = (first < m ? first + 1 : 0); p < m; ++p) {
      if (done[p]) continue;
      tail.clear();
      procs[p]->finish(&tail);
      if (!tail.empty()) feed(tail, p + 1);
    }
    if (window) {
      window->finish([&](std::string_view piece) {
        out.append(piece);
        return true;
      });
    }
    owned = std::move(out);
    cur = owned;
    i = j;
  }
  if (last_fed) *last_fed = fed;
  if (cur.data() == slice.data() && cur.size() == slice.size())
    return std::string(slice);
  return owned;
}

}  // namespace kq::exec
