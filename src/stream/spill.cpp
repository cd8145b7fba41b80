#include "stream/spill.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <future>
#include <utility>

#include "exec/thread_pool.h"
#include "obs/trace.h"
#include "stream/channel.h"
#include "unixcmd/sort_cmd.h"

namespace kq::stream {
namespace {

// Cursor buffer target: small enough that merging hundreds of runs stays
// cheap, large enough to amortize pread syscalls.
constexpr std::size_t kCursorRead = 64 * 1024;
// A disk run's index step: cutting the run reads one interval this long
// (plus the line that straddles its end).
constexpr std::size_t kIndexStride = 64 * 1024;
// The smallest output budget of one in-flight range, and the block size
// of a batch merged into a disk run.
constexpr std::size_t kMinRangeBudget = 256 * 1024;
constexpr std::size_t kRunBlock = 64 * 1024;
// Room past a merged block's target for the line that crosses it.
constexpr std::size_t kBlockSlack = 4 * 1024;
// At most this many ranges per way: bounds the cut reads (two index
// intervals per run per range) at tiny thresholds.
constexpr std::size_t kMaxRangesPerWay = 16;

using RunRef = SpillMerger::RunRef;

// Streams the lines of one sorted run's byte range — disk-backed (bounded
// buffer) or resident (a view, no copy). line() stays valid until the next
// advance() on the same cursor, which is all the merge heap needs. A read
// error stays with the cursor.
class RunCursor {
 public:
  RunCursor(const SpillFile* file, std::size_t offset, std::size_t size)
      : file_(file), next_offset_(offset), remaining_(size) {}

  explicit RunCursor(std::string_view resident) : data_(resident) {}

  const std::string& error() const { return error_; }
  std::string_view line() const { return line_; }

  bool advance() {
    if (!error_.empty()) return false;
    std::size_t nl = data_.find('\n', pos_);
    while (nl == std::string_view::npos && remaining_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
      const std::size_t want = std::min(remaining_, kCursorRead);
      const std::size_t old = buf_.size();
      buf_.resize(old + want);
      if (!file_->read_exact(next_offset_, buf_.data() + old, want, &error_))
        return false;
      next_offset_ += want;
      remaining_ -= want;
      data_ = buf_;
      nl = data_.find('\n', old);
    }
    if (nl == std::string_view::npos) {
      // Runs are newline-normalized by sort_stream and the merge, so this
      // only fires on a defensively-handled unterminated tail.
      if (pos_ >= data_.size()) return false;
      line_ = data_.substr(pos_);
      pos_ = data_.size();
      return true;
    }
    line_ = data_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return true;
  }

 private:
  const SpillFile* file_ = nullptr;
  std::size_t next_offset_ = 0;
  std::size_t remaining_ = 0;
  std::string buf_;        // disk runs: the bytes read and not yet consumed
  std::string_view data_;  // buf_, or the resident run
  std::size_t pos_ = 0;
  std::string_view line_;
  std::string error_;
};

// The start of the line holding byte `at` of `text` (text starts a line).
std::size_t line_start(std::string_view text, std::size_t at) {
  if (at == 0) return 0;
  const std::size_t nl = text.rfind('\n', at - 1);
  return nl == std::string_view::npos ? 0 : nl + 1;
}

// The end of the line starting at `at`: one past its '\n', or text's end.
std::size_t line_end(std::string_view text, std::size_t at) {
  const std::size_t nl = text.find('\n', at);
  return nl == std::string_view::npos ? text.size() : nl + 1;
}

std::string_view line_at(std::string_view text, std::size_t at) {
  std::size_t end = line_end(text, at);
  if (end > at && text[end - 1] == '\n') --end;
  return text.substr(at, end - at);
}

// Upper-bound cut of sorted lines: the offset of the first line of `text`
// that sorts after `key`, by binary search over byte offsets.
std::size_t upper_bound_cut(std::string_view text, const cmd::SortSpec& spec,
                            std::string_view key) {
  std::size_t lo = 0;
  std::size_t hi = text.size();  // lo and hi are line starts
  while (lo < hi) {
    const std::size_t s = std::max(lo, line_start(text, lo + (hi - lo) / 2));
    if (spec.compare(line_at(text, s), key) <= 0) {
      lo = line_end(text, s);
    } else {
      hi = s;
    }
  }
  return lo;
}

// The same cut in a disk run: the index narrows it to one interval, which
// is read and searched. False on a read error (in *error).
bool disk_cut(const SpillFile& file, const SpillMerger::RunExtent& run,
              const cmd::SortSpec& spec, std::string_view key,
              std::size_t* cut, std::string* error) {
  const auto& index = run.index;
  auto after = std::upper_bound(
      index.begin(), index.end(), key,
      [&](std::string_view k, const SpillMerger::IndexEntry& e) {
        return spec.compare(k, e.line) < 0;
      });
  if (after == index.begin()) {
    *cut = 0;
    return true;
  }
  const std::size_t begin = std::prev(after)->offset;
  const std::size_t end = after == index.end() ? run.size : after->offset;
  std::string interval(end - begin, '\0');
  if (!file.read_exact(run.offset + begin, interval.data(), interval.size(),
                       error))
    return false;
  *cut = begin + upper_bound_cut(interval, spec, key);
  return true;
}

// One key range of a merge: every run's lines L with lo < L <= hi (no lo
// for the first range, no hi for the last), merged with ties broken on run
// index and -u dedup within the range. run() merges until the output it
// holds reaches a budget, so a range can be merged partly on a pool thread
// and finished, block by block, by the thread that emits it.
class RangeMerge {
 public:
  RangeMerge(const cmd::SortSpec& spec, const SpillFile* file,
             const std::vector<RunRef>& runs, const std::string* lo,
             const std::string* hi, MemoryGauge* gauge)
      : spec_(spec), file_(file), runs_(runs), lo_(lo), hi_(hi),
        gauge_(gauge) {}
  ~RangeMerge() {
    if (gauge_) gauge_->sub(held_);
  }
  RangeMerge(const RangeMerge&) = delete;
  RangeMerge& operator=(const RangeMerge&) = delete;

  // Merges until `budget` bytes of whole blocks are held, the range is
  // done, or `stop` is set; then the caller takes the blocks. A read error
  // ends the range with error() set. Held blocks count on the gauge.
  void run(std::size_t budget, std::size_t block_size,
           const std::atomic<bool>* stop) {
    if (!opened_ && !open()) return;
    while (!done_ && held_ < budget) {
      if (stop && stop->load(std::memory_order_relaxed)) return;
      const std::size_t n = merge_block(block_size);
      held_ += n;
      if (gauge_) gauge_->add(n);
    }
  }

  bool done() const { return done_; }
  const std::string& error() const { return error_; }
  void fail(std::string message) {
    error_ = std::move(message);
    done_ = true;
  }

  std::vector<std::string> take_blocks() {
    if (gauge_) gauge_->sub(held_);
    held_ = 0;
    return std::exchange(blocks_, {});
  }

 private:
  // A min-heap via inverted comparison, ties to the lower run index (runs
  // are input-ordered, so this is SortSpec::merge_streams' stability).
  auto heap_less() {
    return [this](std::size_t a, std::size_t b) {
      const int c = spec_.compare(cursors_[a].line(), cursors_[b].line());
      if (c != 0) return c > 0;
      return a > b;
    };
  }

  // Cuts every run at the range's bounds and loads the merge heap.
  bool open() {
    opened_ = true;
    cursors_.reserve(runs_.size());
    for (const RunRef& run : runs_) {
      std::size_t begin = 0;
      std::size_t end = run.size();
      if (!cut(run, lo_, &begin) || !cut(run, hi_, &end)) return false;
      if (end < begin) end = begin;
      if (run.disk) {
        cursors_.emplace_back(file_, run.disk->offset + begin, end - begin);
      } else {
        cursors_.emplace_back(run.text.substr(begin, end - begin));
      }
    }
    for (std::size_t i = 0; i < cursors_.size(); ++i) {
      if (cursors_[i].advance()) {
        heap_.push_back(i);
      } else if (!cursors_[i].error().empty()) {
        fail(cursors_[i].error());
        return false;
      }
    }
    std::make_heap(heap_.begin(), heap_.end(), heap_less());
    done_ = heap_.empty();
    return true;
  }

  bool cut(const RunRef& run, const std::string* key, std::size_t* at) {
    if (!key) return true;
    if (!run.disk) {
      *at = upper_bound_cut(run.text, spec_, *key);
      return true;
    }
    std::string error;
    if (disk_cut(*file_, *run.disk, spec_, *key, at, &error)) return true;
    fail(std::move(error));
    return false;
  }

  // Merges one block of at least `block_size` bytes (less at the range's
  // end) onto blocks_ and returns its size; a read error ends the range.
  std::size_t merge_block(std::size_t block_size) {
    const auto less = heap_less();
    // Reserved up front: grown from empty, a 1 MiB block would map fresh
    // pages at every doubling past the CLI's 128 KiB mmap threshold.
    std::string out;
    out.reserve(block_size + kBlockSlack);
    while (!heap_.empty() && out.size() < block_size) {
      std::pop_heap(heap_.begin(), heap_.end(), less);
      const std::size_t q = heap_.back();
      heap_.pop_back();
      const std::string_view line = cursors_[q].line();
      if (!spec_.unique() || !have_last_ ||
          spec_.compare(last_, line) != 0) {
        if (spec_.unique()) {
          last_.assign(line);
          have_last_ = true;
        }
        out += line;
        out += '\n';
      }
      if (cursors_[q].advance()) {
        heap_.push_back(q);
        std::push_heap(heap_.begin(), heap_.end(), less);
      } else if (!cursors_[q].error().empty()) {
        fail(cursors_[q].error());
        return 0;
      }
    }
    done_ = heap_.empty();
    const std::size_t n = out.size();
    if (n > 0) blocks_.push_back(std::move(out));
    return n;
  }

  const cmd::SortSpec& spec_;
  const SpillFile* file_;
  const std::vector<RunRef>& runs_;
  const std::string* lo_;
  const std::string* hi_;
  MemoryGauge* const gauge_;
  std::vector<RunCursor> cursors_;
  std::vector<std::size_t> heap_;
  std::string last_;  // -u: the last line kept
  bool have_last_ = false;
  std::vector<std::string> blocks_;
  std::size_t held_ = 0;
  bool opened_ = false;
  bool done_ = false;
  std::string error_;
};

// Splitters for `ranges` key ranges of about equal bytes: lines sampled
// from every run (resident runs at a fixed byte step, disk runs at their
// index entries), each weighted by the bytes it stands for, sorted, and
// cut at equal weight. Compare-equal splitters collapse into one.
std::vector<std::string> pick_splitters(const std::vector<RunRef>& runs,
                                        const cmd::SortSpec& spec,
                                        std::size_t total,
                                        std::size_t ranges) {
  struct Sample {
    std::string_view line;
    std::size_t weight;
  };
  std::vector<Sample> samples;
  const std::size_t step = std::max<std::size_t>(4096, total / (16 * ranges));
  for (const RunRef& run : runs) {
    if (run.disk) {
      const auto& index = run.disk->index;
      for (std::size_t i = 0; i < index.size(); ++i) {
        const std::size_t end =
            i + 1 < index.size() ? index[i + 1].offset : run.disk->size;
        samples.push_back({index[i].line, end - index[i].offset});
      }
      continue;
    }
    for (std::size_t at = 0; at < run.text.size();) {
      const std::size_t next =
          at + step >= run.text.size()
              ? run.text.size()
              : line_end(run.text, line_start(run.text, at + step));
      samples.push_back({line_at(run.text, at), next - at});
      at = next;
    }
  }
  std::stable_sort(samples.begin(), samples.end(),
                   [&](const Sample& a, const Sample& b) {
                     return spec.compare(a.line, b.line) < 0;
                   });
  std::vector<std::string> splitters;
  std::size_t seen = 0;
  for (const Sample& sample : samples) {
    seen += sample.weight;
    if (splitters.size() + 1 >= ranges) break;
    if (seen * ranges < total * (splitters.size() + 1)) continue;
    if (!splitters.empty() && spec.compare(splitters.back(), sample.line) == 0)
      continue;
    splitters.emplace_back(sample.line);
  }
  return splitters;
}

// Waits for `task`, running queued pool tasks meanwhile. When the queue is
// empty the task is running on another thread, so a plain wait is safe.
void wait_stealing(exec::ThreadPool& pool, std::future<void>& task) {
  while (task.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
    if (!pool.try_run_one()) {
      task.wait();
      return;
    }
}

// Appends `piece` to `batch`, a buffer that is written out once it reaches
// `threshold` (0: never), so a batch ends with the piece that reaches it.
// Once the string's next doubling would reach half of that, room for the
// whole batch is reserved instead: doubled at the end, the string would
// copy the batch into twice its size. The batch's room stays within the
// threshold plus two of the largest pieces.
void append_to_batch(std::string& batch, std::string_view piece,
                     std::size_t threshold) {
  const std::size_t need = batch.size() + piece.size();
  if (threshold != 0 && need > batch.capacity()) {
    const std::size_t whole = threshold + 2 * piece.size();
    if (2 * std::max(need, 2 * batch.capacity()) >= whole)
      batch.reserve(std::max(need, whole));
  }
  batch += piece;
}

}  // namespace

// -------------------------------------------------------------- SpillFile --

SpillFile::SpillFile(io::FaultPlan* faults) : engine_(faults) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || *dir == '\0') dir = "/tmp";
  std::string path = std::string(dir) + "/kumquat-spill-XXXXXX";
  fd_ = ::mkstemp(path.data());
  if (fd_ < 0) {
    error_ = io::coded_error("spill mkstemp", errno);
    return;
  }
  ::unlink(path.c_str());  // reclaimed even on abnormal exit
}

SpillFile::~SpillFile() {
  if (fd_ >= 0) ::close(fd_);
}

bool SpillFile::append(std::string_view bytes) {
  if (fd_ < 0) return false;
  if (!error_.empty()) return false;
  // Appends are offset writes at the logical size; a failure (including
  // the partial-write-then-ENOSPC shape that used to truncate a run
  // silently) surfaces as a coded [KQ-IO] error.
  if (!engine_.write_at(fd_, bytes, size_, &error_)) return false;
  size_ += bytes.size();
  return true;
}

bool SpillFile::read_exact(std::size_t offset, char* buf, std::size_t n,
                           std::string* error) const {
  return engine_.read_at(fd_, buf, n, offset, error);
}

// ------------------------------------------------------------ SpillMerger --

SpillMerger::SpillMerger(std::shared_ptr<const cmd::SortSpec> spec,
                         Input mode, std::size_t threshold,
                         MemoryGauge* gauge, io::FaultPlan* faults)
    : spec_(std::move(spec)), mode_(mode), threshold_(threshold),
      gauge_(gauge), faults_(faults) {}

SpillMerger::~SpillMerger() { drop_mem(mem_bytes_); }

void SpillMerger::drop_mem(std::size_t n) {
  if (gauge_) gauge_->sub(n);
  mem_bytes_ -= n;
}

std::size_t SpillMerger::range_budget() const {
  if (threshold_ == 0) return static_cast<std::size_t>(-1);
  return std::max(threshold_ / (2 * ways_), kMinRangeBudget);
}

std::size_t SpillMerger::resident_bound() const {
  if (threshold_ == 0) return static_cast<std::size_t>(-1);
  return threshold_ + ways_ * range_budget();
}

bool SpillMerger::add(std::string&& piece) {
  if (!error_.empty()) return false;
  mem_bytes_ += piece.size();
  if (gauge_) gauge_->add(piece.size());
  if (mode_ == Input::kUnsortedBlocks) {
    append_to_batch(buffer_, piece, threshold_);
  } else {
    if (!piece.empty()) parts_.push_back(std::move(piece));
  }
  if (threshold_ == 0 || mem_bytes_ < threshold_) return true;
  return flush_run();
}

bool SpillMerger::append_run(RunExtent& run, std::string_view bytes) {
  // Index the first line starting at or past every kIndexStride bytes of
  // the run (`bytes` starts a line).
  for (std::size_t at = run.next_index > run.size ? run.next_index - run.size
                                                  : 0;
       at < bytes.size();) {
    const std::size_t start = at == 0 ? 0 : line_end(bytes, at - 1);
    if (start >= bytes.size()) break;
    run.index.push_back({run.size + start, std::string(line_at(bytes, start))});
    run.next_index = run.size + start + kIndexStride;
    at = start + kIndexStride;
  }
  if (!file_->append(bytes)) {
    error_ = file_->error();
    return false;
  }
  run.size += bytes.size();
  spilled_bytes_ += bytes.size();
  return true;
}

bool SpillMerger::flush_run() {
  if (!file_) file_ = std::make_unique<SpillFile>(faults_);
  if (!file_->valid()) {
    error_ = file_->error();
    return false;
  }
  auto span = obs::span(tracer_, label_ + ": spill-run", "spill");
  RunExtent run;
  run.offset = file_->size();
  if (mode_ == Input::kUnsortedBlocks) {
    // Written from the batch's sorted line index a block at a time, so the
    // batch is never held a second time as a sorted copy.
    spec_->sort_stream(buffer_, kRunBlock, [&](std::string_view block) {
      return append_run(run, block);
    });
    buffer_.clear();
    buffer_.shrink_to_fit();
  } else {
    std::vector<RunRef> batch;
    for (const std::string& part : parts_) batch.push_back({part, nullptr});
    if (merge_runs(batch, kRunBlock, [&](std::string&& block) {
          return append_run(run, block);
        }))
      parts_.clear();
  }
  drop_mem(mem_bytes_);
  span.arg("bytes", run.size);
  if (!error_.empty()) return false;
  if (run.size > 0) runs_.push_back(std::move(run));
  return true;
}

bool SpillMerger::merge_runs(const std::vector<RunRef>& runs,
                             std::size_t block_size, const Emit& emit) {
  std::size_t total = 0;
  for (const RunRef& run : runs) total += run.size();
  const std::size_t budget = range_budget();
  std::size_t ranges = 1;
  if (pool_ && ways_ > 1 && runs.size() > 1)
    ranges = std::clamp(total / budget + 1, ways_, kMaxRangesPerWay * ways_);
  const std::vector<std::string> splitters =
      ranges > 1 ? pick_splitters(runs, *spec_, total, ranges)
                 : std::vector<std::string>();
  const std::size_t n = splitters.size() + 1;
  auto range = [&](std::size_t i) {
    return std::make_unique<RangeMerge>(
        *spec_, file_.get(), runs, i > 0 ? &splitters[i - 1] : nullptr,
        i + 1 < n ? &splitters[i] : nullptr, gauge_);
  };

  // Ranges [emitted, submitted) run ahead as pool tasks, at most ways_ of
  // them, each holding at most `budget` bytes of output; the emitting
  // thread takes each in order and finishes it block by block.
  std::vector<std::unique_ptr<RangeMerge>> tasks(n);
  std::vector<std::future<void>> futures(n);
  std::atomic<bool> stop{false};
  std::size_t submitted = 0;
  struct WaitAll {  // no task outlives this call, however it returns
    std::atomic<bool>& stop;
    std::vector<std::future<void>>& futures;
    exec::ThreadPool* pool;
    ~WaitAll() {
      stop.store(true);
      for (std::future<void>& f : futures)
        if (f.valid()) wait_stealing(*pool, f);
    }
  } wait_all{stop, futures, pool_};
  auto submit = [&](std::size_t i) {
    tasks[i] = range(i);
    futures[i] = pool_->submit([task = tasks[i].get(), &stop, budget,
                                block_size, i, this] {
      obs::Tracer::Span span;
      if (tracer_) {
        span = tracer_->span(label_ + ": merge-range", "spill");
        span.arg("range", i);
      }
      try {
        task->run(budget, block_size, &stop);
      } catch (const std::exception& e) {
        task->fail(e.what());
      }
    });
  };

  for (std::size_t i = 0; i < n; ++i) {
    if (n > 1) {
      for (; submitted < n && submitted < i + ways_; ++submitted)
        submit(submitted);
      wait_stealing(*pool_, futures[i]);
    } else {
      tasks[i] = range(i);
    }
    RangeMerge& task = *tasks[i];
    for (;;) {
      if (!task.error().empty()) {
        error_ = task.error();
        return false;
      }
      for (std::string& block : task.take_blocks())
        if (!emit(std::move(block))) return true;
      if (task.done()) break;
      task.run(block_size, block_size, nullptr);
    }
    tasks[i].reset();
  }
  return true;
}

bool SpillMerger::finish(const std::function<bool(std::string&&)>& push,
                         std::size_t block_size) {
  if (!error_.empty()) return false;
  auto merge_span = obs::span(tracer_, label_ + ": spill-merge", "spill");
  std::string sorted;  // kUnsortedBlocks: the batch that never spilled
  std::vector<RunRef> runs;
  for (const RunExtent& run : runs_) runs.push_back({{}, &run});
  if (mode_ == Input::kUnsortedBlocks) {
    if (!buffer_.empty()) sorted = spec_->sort_stream(buffer_);
    buffer_.clear();
    buffer_.shrink_to_fit();
    if (!sorted.empty()) runs.push_back({sorted, nullptr});
  } else {
    for (const std::string& part : parts_) runs.push_back({part, nullptr});
  }
  merge_span.arg("runs", runs.size());
  merge_span.arg("spilled_bytes", spilled_bytes_);
  const bool ok = merge_runs(runs, block_size, push);
  parts_.clear();
  drop_mem(mem_bytes_);
  file_.reset();  // release the disk now; runs_ stays for the stats
  return ok;
}

}  // namespace kq::stream
