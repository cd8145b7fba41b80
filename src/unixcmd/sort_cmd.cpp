#include "unixcmd/sort_cmd.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>

#include "text/streams.h"

namespace kq::cmd {
namespace {

bool is_blank(char c) { return c == ' ' || c == '\t'; }

std::string_view skip_blanks(std::string_view s) {
  std::size_t i = 0;
  while (i < s.size() && is_blank(s[i])) ++i;
  return s.substr(i);
}

// GNU-style numeric comparison of string prefixes: optional blanks, optional
// minus sign, digits, optional fraction. Non-numeric prefixes compare as 0.
struct NumView {
  bool negative = false;
  std::string_view integer;   // leading zeros stripped
  std::string_view fraction;  // trailing zeros stripped
  bool zero() const { return integer.empty() && fraction.empty(); }
};

NumView parse_numeric(std::string_view s) {
  s = skip_blanks(s);
  std::size_t i = 0;
  NumView v;
  if (i < s.size() && s[i] == '-') {
    v.negative = true;
    ++i;
  }
  std::size_t int_start = i;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
  std::string_view integer = s.substr(int_start, i - int_start);
  while (!integer.empty() && integer.front() == '0') integer.remove_prefix(1);
  v.integer = integer;
  if (i < s.size() && s[i] == '.') {
    ++i;
    std::size_t frac_start = i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    std::string_view fraction = s.substr(frac_start, i - frac_start);
    while (!fraction.empty() && fraction.back() == '0')
      fraction.remove_suffix(1);
    v.fraction = fraction;
  }
  if (v.zero()) v.negative = false;  // -0 == 0
  return v;
}

int numeric_compare(std::string_view a, std::string_view b) {
  NumView x = parse_numeric(a), y = parse_numeric(b);
  if (x.negative != y.negative) return x.negative ? -1 : 1;
  int sign = x.negative ? -1 : 1;
  if (x.integer.size() != y.integer.size())
    return sign * (x.integer.size() < y.integer.size() ? -1 : 1);
  if (int c = x.integer.compare(y.integer); c != 0)
    return sign * (c < 0 ? -1 : 1);
  if (int c = x.fraction.compare(y.fraction); c != 0)
    return sign * (c < 0 ? -1 : 1);
  return 0;
}

int raw_compare(std::string_view a, std::string_view b) {
  // Bytewise (LC_ALL=C) comparison treating chars as unsigned.
  std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    unsigned char ca = static_cast<unsigned char>(a[i]);
    unsigned char cb = static_cast<unsigned char>(b[i]);
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

int text_compare(std::string_view a, std::string_view b, bool fold,
                 bool dictionary) {
  std::size_t i = 0, j = 0;
  while (true) {
    if (dictionary) {
      auto skippable = [](char c) {
        unsigned char uc = static_cast<unsigned char>(c);
        return !(std::isalnum(uc) || is_blank(c));
      };
      while (i < a.size() && skippable(a[i])) ++i;
      while (j < b.size() && skippable(b[j])) ++j;
    }
    if (i >= a.size() || j >= b.size()) break;
    unsigned char ca = static_cast<unsigned char>(a[i]);
    unsigned char cb = static_cast<unsigned char>(b[j]);
    if (fold) {
      ca = static_cast<unsigned char>(std::toupper(ca));
      cb = static_cast<unsigned char>(std::toupper(cb));
    }
    if (ca != cb) return ca < cb ? -1 : 1;
    ++i;
    ++j;
  }
  bool a_done = i >= a.size(), b_done = j >= b.size();
  if (a_done && b_done) return 0;
  return a_done ? -1 : 1;
}

// The offset just past the first `fields` fields of `line`. As GNU sort
// splits a line without -t, a field is a run of blanks and the non-blank
// run after it, so a field's leading blanks belong to it.
std::size_t skip_fields(std::string_view line, int fields) {
  std::size_t pos = 0;
  for (; fields > 0 && pos < line.size(); --fields) {
    while (pos < line.size() && is_blank(line[pos])) ++pos;
    while (pos < line.size() && !is_blank(line[pos])) ++pos;
  }
  return pos;
}

// The key `key` selects from `line`: from the start of its first field
// (past that field's leading blanks under -b) to the end of its last
// field, or of the line. A key that ends before it starts is empty.
std::string_view extract_key(std::string_view line, const SortKey& key) {
  std::size_t begin = skip_fields(line, key.start_field - 1);
  if (key.blanks)
    while (begin < line.size() && is_blank(line[begin])) ++begin;
  const std::size_t end =
      key.end_field == 0 ? line.size() : skip_fields(line, key.end_field);
  return end <= begin ? std::string_view() : line.substr(begin, end - begin);
}

}  // namespace

std::optional<SortSpec> SortSpec::parse(const std::vector<std::string>& flags,
                                        std::string* error) {
  SortSpec spec;
  for (const std::string& f : flags) {
    if (f.rfind("--parallel", 0) == 0) continue;  // accepted, ignored
    if (f == "--stable") {
      spec.stable_only_ = true;
      continue;
    }
    if (f.size() < 2 || f[0] != '-') {
      if (error) *error = "sort: unsupported operand " + f;
      return std::nullopt;
    }
    if (f[1] == 'k') {
      // -kF[.C][opts][,G[.C][opts]]
      SortKey key;
      std::size_t i = 2;
      auto read_int = [&](int& out) {
        // Saturating: a field number past INT_MAX selects a field no line
        // has (like GNU) instead of overflowing into a garbage index.
        std::size_t start = i;
        while (i < f.size() && std::isdigit(static_cast<unsigned char>(f[i])))
          ++i;
        if (i == start) return false;
        auto v = parse_count(std::string_view(f).substr(start, i - start));
        out = static_cast<int>(
            std::min<long>(*v, std::numeric_limits<int>::max()));
        return true;
      };
      if (!read_int(key.start_field)) {
        if (error) *error = "sort: bad key spec " + f;
        return std::nullopt;
      }
      if (key.start_field == 0) {
        if (error) *error = "sort: field number is zero in " + f;
        return std::nullopt;
      }
      auto read_opts = [&](SortKey& k) {
        while (i < f.size() && f[i] != ',') {
          switch (f[i]) {
            case 'n': k.numeric = true; break;
            case 'r': k.reverse = true; break;
            case 'f': k.fold = true; break;
            case 'd': k.dictionary = true; break;
            default: return false;
          }
          ++i;
        }
        return true;
      };
      if (!read_opts(key)) {
        if (error) *error = "sort: bad key option in " + f;
        return std::nullopt;
      }
      if (i < f.size() && f[i] == ',') {
        ++i;
        if (!read_int(key.end_field)) {
          if (error) *error = "sort: bad key spec " + f;
          return std::nullopt;
        }
        if (key.end_field == 0) {
          if (error) *error = "sort: field number is zero in " + f;
          return std::nullopt;
        }
        if (!read_opts(key)) {
          if (error) *error = "sort: bad key option in " + f;
          return std::nullopt;
        }
      }
      spec.keys_.push_back(key);
      continue;
    }
    for (std::size_t i = 1; i < f.size(); ++i) {
      switch (f[i]) {
        case 'n': spec.numeric_ = true; break;
        case 'r': spec.reverse_ = true; break;
        case 'f': spec.fold_ = true; break;
        case 'd': spec.dictionary_ = true; break;
        case 'u': spec.unique_ = true; break;
        case 'm': spec.merge_mode_ = true; break;
        case 's': spec.stable_only_ = true; break;
        case 'b': spec.blanks_ = true; break;
        default:
          if (error) *error = std::string("sort: unsupported flag -") + f[i];
          return std::nullopt;
      }
    }
  }
  spec.raw_keys_ = spec.keys_.empty() && !spec.numeric_ && !spec.fold_ &&
                   !spec.dictionary_ && !spec.blanks_;
  // The canonical flags spell the order (merge and the sortedness checks
  // parse them back): -s only where it drops a last-resort comparison. They
  // spell the keys as written, before the inheritance below, which parsing
  // them back repeats.
  std::string global;
  if (spec.numeric_) global += "n";
  if (spec.reverse_) global += "r";
  if (spec.fold_) global += "f";
  if (spec.dictionary_) global += "d";
  if (spec.blanks_) global += "b";
  if (spec.stable_only_ && !spec.raw_keys_ && !spec.unique_) global += "s";
  if (spec.unique_) global += "u";
  // Appended, not `"-" + global`: the rvalue operator+ form trips GCC 12's
  // -Wrestrict false positive inside libstdc++ (GCC PR 105329).
  std::string canon;
  if (!global.empty()) {
    canon = "-";
    canon += global;
  }
  for (const SortKey& k : spec.keys_) {
    if (!canon.empty()) canon += " ";
    canon += "-k";
    canon += std::to_string(k.start_field);
    if (k.end_field) {
      canon += ",";
      canon += std::to_string(k.end_field);
    }
    if (k.numeric) canon += "n";
    if (k.reverse) canon += "r";
    if (k.fold) canon += "f";
    if (k.dictionary) canon += "d";
  }
  spec.canonical_flags_ = canon;
  // As in GNU sort, a key with no ordering option of its own takes every
  // global one (-n, -f, -d, -b and -r); a key with any takes none.
  for (SortKey& k : spec.keys_) {
    if (k.numeric || k.reverse || k.fold || k.dictionary) continue;
    k.numeric = spec.numeric_;
    k.reverse = spec.reverse_;
    k.fold = spec.fold_;
    k.dictionary = spec.dictionary_;
    k.blanks = spec.blanks_;
  }
  return spec;
}

int SortSpec::compare_keys(std::string_view a, std::string_view b) const {
  if (keys_.empty()) {
    if (blanks_) {
      a = skip_blanks(a);
      b = skip_blanks(b);
    }
    if (numeric_) return numeric_compare(a, b);
    if (fold_ || dictionary_) return text_compare(a, b, fold_, dictionary_);
    return raw_compare(a, b);
  }
  for (const SortKey& key : keys_) {
    const std::string_view ka = extract_key(a, key);
    const std::string_view kb = extract_key(b, key);
    int c = key.numeric ? numeric_compare(ka, kb)
            : key.fold || key.dictionary
                ? text_compare(ka, kb, key.fold, key.dictionary)
                : raw_compare(ka, kb);
    if (key.reverse) c = -c;
    if (c != 0) return c;
  }
  return 0;
}

// GNU's order: the keys (each reversed by its own -r; without -k, the
// whole line under the global options, reversed by -r), then the whole
// line's bytes, reversed by the global -r, unless -s or -u.
int SortSpec::compare(std::string_view a, std::string_view b) const {
  int c = compare_keys(a, b);
  if (keys_.empty() && reverse_) c = -c;
  if (c != 0 || raw_keys_ || stable_only_ || unique_) return c;
  c = raw_compare(a, b);
  return reverse_ ? -c : c;
}

namespace {

// One line of a sort's input: 8 bytes with 32-bit fields, where a view
// takes 16.
template <typename Offset>
struct LineRecord {
  Offset offset;
  Offset length;
};

// The lines of `input` (text::lines' split: an unterminated tail counts)
// as an exact-size record array, stably ordered by `spec`, -u deduped.
template <typename Offset>
std::vector<LineRecord<Offset>> sorted_records(const SortSpec& spec,
                                               std::string_view input) {
  const char* const base = input.data();
  std::size_t n = static_cast<std::size_t>(
      std::count(input.begin(), input.end(), '\n'));
  if (!input.empty() && input.back() != '\n') ++n;
  std::vector<LineRecord<Offset>> records;
  records.reserve(n);
  for (std::size_t start = 0; start < input.size();) {
    const void* nl = std::memchr(base + start, '\n', input.size() - start);
    const std::size_t end =
        nl ? static_cast<std::size_t>(static_cast<const char*>(nl) - base)
           : input.size();
    records.push_back(
        {static_cast<Offset>(start), static_cast<Offset>(end - start)});
    start = end + 1;
  }
  auto line = [base](const LineRecord<Offset>& r) {
    return std::string_view(base + r.offset, r.length);
  };
  std::stable_sort(records.begin(), records.end(),
                   [&](const LineRecord<Offset>& a,
                       const LineRecord<Offset>& b) {
                     return spec.compare(line(a), line(b)) < 0;
                   });
  // Under -u compare() has no last-resort tiebreak, so 0 means equal keys.
  if (spec.unique())
    records.erase(std::unique(records.begin(), records.end(),
                              [&](const LineRecord<Offset>& a,
                                  const LineRecord<Offset>& b) {
                                return spec.compare(line(a), line(b)) == 0;
                              }),
                  records.end());
  return records;
}

// Whether `input` takes 32-bit records: its offsets and lengths fit.
bool narrow_records(std::string_view input) {
  return input.size() <= std::numeric_limits<std::uint32_t>::max();
}

// The sorted lines of `input` handed to `emit` in pieces of at least
// `piece` bytes (see SortSpec::sort_stream).
template <typename Offset>
bool emit_sorted(const SortSpec& spec, std::string_view input,
                 std::size_t piece,
                 const std::function<bool(std::string_view)>& emit) {
  std::string block;
  block.reserve(piece);
  for (const LineRecord<Offset>& r : sorted_records<Offset>(spec, input)) {
    block.append(input.data() + r.offset, r.length);
    block.push_back('\n');
    if (block.size() < piece) continue;
    if (!emit(block)) return false;
    block.clear();
  }
  return block.empty() || emit(block);
}

}  // namespace

template <typename Offset>
std::string SortSpec::sort_stream_with(std::string_view input) const {
  const auto records = sorted_records<Offset>(*this, input);
  std::size_t size = records.size();
  for (const LineRecord<Offset>& r : records) size += r.length;
  std::string out;
  out.reserve(size);
  for (const LineRecord<Offset>& r : records) {
    out.append(input.data() + r.offset, r.length);
    out.push_back('\n');
  }
  return out;
}

template std::string SortSpec::sort_stream_with<std::uint32_t>(
    std::string_view) const;
template std::string SortSpec::sort_stream_with<std::uint64_t>(
    std::string_view) const;

std::string SortSpec::sort_stream(std::string_view input) const {
  return narrow_records(input) ? sort_stream_with<std::uint32_t>(input)
                               : sort_stream_with<std::uint64_t>(input);
}

bool SortSpec::sort_stream(
    std::string_view input, std::size_t piece,
    const std::function<bool(std::string_view)>& emit) const {
  return narrow_records(input)
             ? emit_sorted<std::uint32_t>(*this, input, piece, emit)
             : emit_sorted<std::uint64_t>(*this, input, piece, emit);
}

std::string SortSpec::merge_streams(
    const std::vector<std::string_view>& streams) const {
  // One cursor per stream: its head line and the bytes after it (a
  // trailing partial line counts, as in text::lines).
  struct Cursor {
    std::string_view line;
    std::string_view rest;
    bool advance() {
      if (rest.empty()) return false;
      const std::size_t nl = rest.find('\n');
      line = rest.substr(0, nl);
      rest = nl == std::string_view::npos ? std::string_view()
                                          : rest.substr(nl + 1);
      return true;
    }
  };
  std::vector<Cursor> cursors;
  cursors.reserve(streams.size());
  std::size_t size = 0;
  for (std::string_view s : streams) {
    cursors.push_back({{}, s});
    size += s.size() + (!s.empty() && s.back() != '\n' ? 1 : 0);
  }
  std::string out;
  out.reserve(size);

  // k-way merge through a binary min-heap of cursor indices; ties break on
  // the cursor index, giving sort -m's stable earlier-file-first order.
  auto heap_less = [&](std::size_t a, std::size_t b) {
    int c = compare(cursors[a].line, cursors[b].line);
    if (c != 0) return c > 0;  // std::*_heap builds a max-heap: invert
    return a > b;
  };
  std::vector<std::size_t> heap;
  heap.reserve(cursors.size());
  for (std::size_t q = 0; q < cursors.size(); ++q)
    if (cursors[q].advance()) heap.push_back(q);
  std::make_heap(heap.begin(), heap.end(), heap_less);

  std::string_view last;  // -u: the last line kept
  bool have_last = false;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_less);
    const std::size_t q = heap.back();
    heap.pop_back();
    const std::string_view line = cursors[q].line;
    if (!unique_ || !have_last || compare_keys(last, line) != 0) {
      out += line;
      out += '\n';
      last = line;
      have_last = true;
    }
    if (cursors[q].advance()) {
      heap.push_back(q);
      std::push_heap(heap.begin(), heap.end(), heap_less);
    }
  }
  return out;
}

bool SortSpec::is_sorted_stream(std::string_view input) const {
  // Adjacent lines, walked in place (text::lines' split: a trailing
  // partial line counts).
  std::string_view prev;
  for (std::size_t start = 0; start < input.size();) {
    std::size_t end = input.find('\n', start);
    if (end == std::string_view::npos) end = input.size();
    const std::string_view line = input.substr(start, end - start);
    if (start != 0 && compare(prev, line) > 0) return false;
    prev = line;
    start = end + 1;
  }
  return true;
}

namespace {

// `sort -u` as a window: the only state the output depends on is the set of
// *distinct* lines, ordered by the spec's comparator. An ordered set keyed
// by compare() reproduces execute() exactly — stable_sort puts the
// earliest-input line first within each equal-key class and -u keeps it,
// and std::set::insert likewise keeps the first-inserted element — so the
// window is O(distinct output), not O(input). When the distinct set itself
// outgrows the runtime's budget, drain_sorted_run() exports it as one
// sorted run (the state *is* a sorted -u stream) and the dataflow node
// spills it through the external merge, whose cross-run -u dedup and
// run-index tie-break preserve the same first-occurrence choice.
class SortUniqueWindowProcessor final : public WindowProcessor {
 public:
  explicit SortUniqueWindowProcessor(const SortSpec* spec)
      : set_(Cmp{spec}) {}

  void push(std::string_view block, std::string* out) override {
    (void)out;  // any line can still be preceded; nothing is final
    for (std::string_view line : text::lines(block)) {
      // One tree walk per line: lower_bound doubles as the duplicate
      // check and the insertion hint.
      auto it = set_.lower_bound(line);
      if (it != set_.end() && !set_.key_comp()(line, *it)) continue;
      set_.emplace_hint(it, line);
      bytes_ += line.size() + kPerLineOverhead;
    }
  }

  void finish(const Sink& sink) override {
    std::string buf;
    for (const std::string& line : set_) {
      buf += line;
      buf.push_back('\n');
      if (buf.size() >= kFlushBytes) {
        if (!sink(buf)) return;
        buf.clear();
      }
    }
    if (!buf.empty()) sink(buf);
  }

  std::size_t state_bytes() const override { return bytes_; }

  bool drain_sorted_run(std::string* out) override {
    out->clear();
    out->reserve(bytes_);
    for (const std::string& line : set_) {
      *out += line;
      out->push_back('\n');
    }
    set_.clear();
    bytes_ = 0;
    return true;
  }

 private:
  struct Cmp {
    using is_transparent = void;  // heterogeneous find: no alloc on dups
    const SortSpec* spec;
    bool operator()(std::string_view a, std::string_view b) const {
      return spec->compare(a, b) < 0;
    }
  };
  // Rough allocator cost of a set node beyond the line's own bytes.
  static constexpr std::size_t kPerLineOverhead =
      sizeof(std::string) + 4 * sizeof(void*);
  static constexpr std::size_t kFlushBytes = 64 << 10;

  std::set<std::string, Cmp> set_;
  std::size_t bytes_ = 0;
};

class SortCommand final : public Command {
 public:
  SortCommand(std::string name, SortSpec spec)
      : Command(std::move(name)), spec_(std::move(spec)) {}

  Result execute(std::string_view input) const override {
    return {spec_.sort_stream(input), 0, {}};
  }

  // Without -u, sort's state is the whole input (the external merge sort
  // bounds it instead); with -u the distinct set is the window, and every
  // supported comparator yields the same first-occurrence representative
  // as stable_sort + dedup, so the window declaration is safe whenever -u
  // parses.
  Streamability streamability() const override {
    return spec_.unique() ? Streamability::kWindow : Streamability::kNone;
  }
  std::unique_ptr<WindowProcessor> window_processor() const override {
    if (!spec_.unique()) return nullptr;
    return std::make_unique<SortUniqueWindowProcessor>(&spec_);
  }

  const SortSpec& spec() const { return spec_; }

 private:
  SortSpec spec_;
};

}  // namespace

std::shared_ptr<const SortSpec> sort_spec_of(const Command& command) {
  const auto* sort = dynamic_cast<const SortCommand*>(&command);
  if (sort == nullptr) return nullptr;
  return std::make_shared<const SortSpec>(sort->spec());
}

CommandPtr make_sort_command(const Argv& argv, std::string* error) {
  std::vector<std::string> flags(argv.begin() + 1, argv.end());
  auto spec = SortSpec::parse(flags, error);
  if (!spec) return nullptr;
  if (spec->merge_mode()) {
    if (error) *error = "sort: -m as a pipeline stage is not supported";
    return nullptr;
  }
  return std::make_shared<SortCommand>(argv_to_display(argv),
                                       std::move(*spec));
}

CommandPtr make_sort(const Argv& argv, std::string* error) {
  return make_sort_command(argv, error);
}

}  // namespace kq::cmd
