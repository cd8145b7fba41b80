// Built-in `grep` over the BRE engine. Flags: -v (invert), -c (count),
// -i (case-insensitive), combined forms (-vc, -vi, -vci). Exit status
// follows grep: 0 if any line selected, 1 otherwise, 2 when a search
// passed its backtracking budget (regex.h).

#include <algorithm>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "regex/regex.h"
#include "text/strings.h"
#include "unixcmd/builtins.h"

namespace kq::cmd {
namespace {

// The first occurrence of `needle` (two bytes or more) in `hay` at or after
// `from`, or npos. With SSE2 the needle's first and last bytes are compared
// at 16 offsets at once and memcmp confirms a candidate (both bytes must
// agree, so in text a candidate is rare); the tail, and other targets, use
// glibc's memmem. On x86-64 text the loop runs at about twice memmem's
// speed: `grep -c apple` over 64 MiB takes 0.044 s with it, 0.086 s
// without.
std::size_t find_literal(std::string_view hay, std::string_view needle,
                         std::size_t from) {
  const char* s = hay.data();
  const std::size_t n = hay.size(), k = needle.size();
  std::size_t i = from;
#if defined(__SSE2__)
  const __m128i first = _mm_set1_epi8(needle.front());
  const __m128i last = _mm_set1_epi8(needle.back());
  for (; i + k - 1 + 16 <= n; i += 16) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + i));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + i + k - 1));
    auto mask = static_cast<unsigned>(_mm_movemask_epi8(
        _mm_and_si128(_mm_cmpeq_epi8(first, a), _mm_cmpeq_epi8(last, b))));
    for (; mask != 0; mask &= mask - 1) {
      const std::size_t at = i + static_cast<std::size_t>(__builtin_ctz(mask));
      if (std::memcmp(s + at + 1, needle.data() + 1, k - 2) == 0) return at;
    }
  }
#endif
  const void* hit = memmem(s + i, n - i, needle.data(), k);
  return hit ? static_cast<std::size_t>(static_cast<const char*>(hit) - s)
             : std::string_view::npos;
}

class GrepCommand final : public Command {
 public:
  GrepCommand(std::string name, regex::Regex re, bool invert, bool count,
              bool fold)
      : Command(std::move(name)), re_(std::move(re)), invert_(invert),
        count_(count), fold_(fold) {}

  Result execute(std::string_view input) const override {
    std::string out;
    std::uint64_t selected = 0;
    std::string folded;
    try {
      selected = scan(input, count_ ? nullptr : &out, &folded);
    } catch (const regex::BudgetExceeded& e) {
      return {std::move(out), 2, regex_trouble(*this, e)};
    }
    if (count_) {
      out = std::to_string(selected);
      out.push_back('\n');
    }
    return {std::move(out), selected > 0 ? 0 : 1, {}};
  }

  // Plain grep is a pure per-line filter (GNU grep re-terminates a matched
  // unterminated final line, so even that case composes per block); -c is
  // a counter window, which holds one count and prints it at the end.
  Streamability streamability() const override {
    return count_ ? Streamability::kWindow : Streamability::kPerRecord;
  }
  std::unique_ptr<StreamProcessor> stream_processor() const override;
  std::unique_ptr<WindowProcessor> window_processor() const override;

  // scan() for the processors: a search past its budget throws the
  // stage's coded message (std::runtime_error), which fails the node.
  std::uint64_t select(std::string_view block, std::string* out,
                       std::string* folded) const {
    try {
      return scan(block, out, folded);
    } catch (const regex::BudgetExceeded& e) {
      throw std::runtime_error(regex_trouble(*this, e));
    }
  }

 private:
  // Selects the lines of `block` (an unterminated last line is a line),
  // appending them to *out, re-terminated, when `out` is set; returns how
  // many were selected. Lines are walked in place: find_literal finds the
  // next line holding the required literal, the lines passed over on the way
  // are unselected as one span, and only the hit's line goes to the regex.
  // Adjacent selected lines leave in one append. Under -i the block is
  // folded once, into *folded (a processor's, reused block after block),
  // and the original bytes are output.
  std::uint64_t scan(std::string_view block, std::string* out,
                     std::string* folded) const {
    std::string_view hay = block;
    if (fold_) {
      folded->assign(block);
      text::fold_lower(folded);
      hay = *folded;
    }
    const std::string& lit = re_.required_literal();
    const std::size_t n = block.size();
    std::uint64_t selected = 0;
    std::size_t run_begin = 0, run_end = 0;  // selected, not yet appended
    auto emit = [&](std::size_t begin, std::size_t end) {
      if (!out) return;
      if (begin != run_end) {
        out->append(block.substr(run_begin, run_end - run_begin));
        run_begin = begin;
      }
      run_end = end;
    };
    // The line [begin, end), `end` at its '\n' or the end of the block.
    auto decide = [&](std::size_t begin, std::size_t end, bool match) {
      if (match == invert_) return;
      ++selected;
      emit(begin, std::min(end + 1, n));
    };
    // Lines [from, to) hold no literal, so none matches; `to` follows a
    // '\n' or is the end of the block.
    auto pass_over = [&](std::size_t from, std::size_t to) {
      if (!invert_ || from == to) return;
      selected += text::count_char(block.substr(from, to - from), '\n') +
                  (block[to - 1] != '\n' ? 1 : 0);
      emit(from, to);
    };
    auto line_end = [&](std::size_t from) {
      const void* nl = std::memchr(hay.data() + from, '\n', n - from);
      return nl ? static_cast<std::size_t>(static_cast<const char*>(nl) -
                                           hay.data())
                : n;
    };
    if (lit.find('\n') != std::string::npos) {  // no line holds a '\n'
      pass_over(0, n);
    } else if (lit.empty()) {
      for (std::size_t pos = 0; pos < n;) {
        const std::size_t end = line_end(pos);
        decide(pos, end, re_.search(hay.substr(pos, end - pos)));
        pos = end + 1;
      }
    } else {
      for (std::size_t pos = 0; pos < n;) {
        const std::size_t at = lit.size() == 1
                                   ? hay.find(lit.front(), pos)
                                   : find_literal(hay, lit, pos);
        if (at == std::string_view::npos) {
          pass_over(pos, n);
          break;
        }
        const void* before = memrchr(hay.data() + pos, '\n', at - pos);
        const std::size_t begin =
            before ? static_cast<std::size_t>(
                         static_cast<const char*>(before) - hay.data()) + 1
                   : pos;
        pass_over(pos, begin);
        const std::size_t end = line_end(at + lit.size());
        decide(begin, end,
               re_.literal_only() ||
                   re_.search(hay.substr(begin, end - begin)));
        pos = end + 1;
      }
    }
    if (out) {
      out->append(block.substr(run_begin, run_end - run_begin));
      if (run_end == n && n > 0 && block[n - 1] != '\n') out->push_back('\n');
    }
    return selected;
  }

  regex::Regex re_;
  bool invert_, count_, fold_;
};

// Plain grep per block, appending straight into the caller's buffer.
// PerBlockProcessor would build each block's output in a string of its own
// and copy it over: `grep e` over 64 MiB at k = 1 takes 0.25 s that way,
// 0.16 s here.
class GrepProcessor final : public StreamProcessor {
 public:
  explicit GrepProcessor(const GrepCommand& grep) : grep_(grep) {}
  bool process(std::string_view block, std::string* out) override {
    grep_.select(block, out, &folded_);
    return true;
  }

 private:
  const GrepCommand& grep_;
  std::string folded_;
};

std::unique_ptr<StreamProcessor> GrepCommand::stream_processor() const {
  if (count_) return nullptr;
  return std::make_unique<GrepProcessor>(*this);
}

// grep -c as a window: the count of every block's selected lines, printed
// at the end of input. O(1) state, so a k = 1 run streams.
class GrepCountWindow final : public WindowProcessor {
 public:
  explicit GrepCountWindow(const GrepCommand& grep) : grep_(grep) {}

  void push(std::string_view block, std::string* out) override {
    (void)out;
    count_ += grep_.select(block, nullptr, &folded_);
  }
  void finish(const Sink& sink) override {
    std::string line = std::to_string(count_);
    line.push_back('\n');
    sink(line);
  }
  std::size_t state_bytes() const override { return 0; }

 private:
  const GrepCommand& grep_;
  std::string folded_;
  std::uint64_t count_ = 0;
};

std::unique_ptr<WindowProcessor> GrepCommand::window_processor() const {
  if (!count_) return nullptr;
  return std::make_unique<GrepCountWindow>(*this);
}

}  // namespace

CommandPtr make_grep(const Argv& argv, std::string* error) {
  bool invert = false, count = false, fold = false;
  std::string pattern;
  bool have_pattern = false;
  for (std::size_t i = 1; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (!have_pattern && a.size() >= 2 && a[0] == '-') {
      for (std::size_t j = 1; j < a.size(); ++j) {
        switch (a[j]) {
          case 'v': invert = true; break;
          case 'c': count = true; break;
          case 'i': fold = true; break;
          case 'e': break;  // -e PATTERN handled by position
          default:
            if (error) *error = "grep: unsupported flag";
            return nullptr;
        }
      }
    } else if (!have_pattern) {
      pattern = a;
      have_pattern = true;
    } else {
      if (error) *error = "grep: file operands not supported";
      return nullptr;
    }
  }
  if (!have_pattern) {
    if (error) *error = "grep: missing pattern";
    return nullptr;
  }
  // Case-insensitivity: we lower-case both the scanned line and the literal
  // characters of the pattern (classes already cover both cases or are
  // lowered the same way).
  std::string compiled_pattern = fold ? text::to_lower(pattern) : pattern;
  std::string err;
  auto re = regex::Regex::compile(compiled_pattern, &err);
  if (!re) {
    if (error) *error = "grep: bad pattern: " + err;
    return nullptr;
  }
  return std::make_shared<GrepCommand>(argv_to_display(argv), std::move(*re),
                                       invert, count, fold);
}

}  // namespace kq::cmd
