// Built-in `tr`: translate, delete, squeeze. Supports the POSIX/GNU set
// syntax used throughout the benchmark suite: ranges (a-z, A-Za-z), escapes
// (\n \t \\ and octal \012), character classes ([:punct:], [:lower:], ...),
// repetition fill ([c*], [\012*]), complement (-c), squeeze (-s), delete
// (-d), and their combinations (-cs, -sc, -d).

#include <array>
#include <cctype>
#include <optional>

#include "unixcmd/builtins.h"

namespace kq::cmd {
namespace {

struct ExpandedSet {
  std::string chars;
  // Position in `chars` where a [c*] fill marker appeared (SET2 only);
  // the fill character repeats to pad SET2 to SET1's length.
  int fill_pos = -1;
  char fill_char = 0;
};

// Decodes one possibly-escaped character at s[i]; advances i.
std::optional<char> decode_escape(std::string_view s, std::size_t& i) {
  if (s[i] != '\\') return s[i++];
  ++i;
  if (i >= s.size()) return '\\';
  char c = s[i];
  if (c >= '0' && c <= '7') {
    int value = 0, digits = 0;
    while (i < s.size() && digits < 3 && s[i] >= '0' && s[i] <= '7') {
      value = value * 8 + (s[i] - '0');
      ++i;
      ++digits;
    }
    return static_cast<char>(value);
  }
  ++i;
  switch (c) {
    case 'n': return '\n';
    case 't': return '\t';
    case 'r': return '\r';
    case 'a': return '\a';
    case 'b': return '\b';
    case 'f': return '\f';
    case 'v': return '\v';
    default: return c;
  }
}

bool append_named_class(std::string_view name, std::string& out) {
  for (int c = 0; c < 256; ++c) {
    unsigned char uc = static_cast<unsigned char>(c);
    bool in = false;
    if (name == "alpha") in = std::isalpha(uc);
    else if (name == "digit") in = std::isdigit(uc);
    else if (name == "alnum") in = std::isalnum(uc);
    else if (name == "upper") in = std::isupper(uc);
    else if (name == "lower") in = std::islower(uc);
    else if (name == "punct") in = std::ispunct(uc);
    else if (name == "space") in = std::isspace(uc);
    else if (name == "blank") in = (c == ' ' || c == '\t');
    else if (name == "cntrl") in = std::iscntrl(uc);
    else if (name == "print") in = std::isprint(uc);
    else if (name == "graph") in = std::isgraph(uc);
    else if (name == "xdigit") in = std::isxdigit(uc);
    else return false;
    if (in) out.push_back(static_cast<char>(c));
  }
  return true;
}

std::optional<ExpandedSet> expand_set(std::string_view spec,
                                      std::string* error) {
  ExpandedSet set;
  std::size_t i = 0;
  while (i < spec.size()) {
    // Bracket forms: [:class:], [=c=], [c*n].
    if (spec[i] == '[') {
      if (i + 1 < spec.size() && spec[i + 1] == ':') {
        std::size_t close = spec.find(":]", i + 2);
        if (close != std::string_view::npos) {
          if (!append_named_class(spec.substr(i + 2, close - i - 2),
                                  set.chars)) {
            if (error) *error = "tr: invalid character class";
            return std::nullopt;
          }
          i = close + 2;
          continue;
        }
      }
      if (i + 3 < spec.size() && spec[i + 1] == '=' && spec[i + 3] == '=' &&
          i + 4 < spec.size() && spec[i + 4] == ']') {
        set.chars.push_back(spec[i + 2]);
        i += 5;
        continue;
      }
      // [c*n] or [c*] where c may itself be escaped.
      std::size_t j = i + 1;
      if (j < spec.size()) {
        std::size_t char_start = j;
        auto c = decode_escape(spec, j);
        if (c && j < spec.size() && spec[j] == '*') {
          std::size_t k = j + 1;
          std::size_t digits_start = k;
          while (k < spec.size() && std::isdigit(
                     static_cast<unsigned char>(spec[k])))
            ++k;
          if (k < spec.size() && spec[k] == ']') {
            std::string_view digits = spec.substr(
                digits_start, k - digits_start);
            if (digits.empty() || digits == "0") {
              set.fill_pos = static_cast<int>(set.chars.size());
              set.fill_char = *c;
            } else {
              // Checked repeat count (octal with a leading 0, else
              // decimal): an overflowing std::stol would abort the
              // process, and the eager expansion below cannot honor a
              // multi-GiB repeat anyway, so counts past the cap (and
              // digits invalid for the base) are rejected — truncating
              // instead would silently re-pair every later SET1/SET2
              // position.
              constexpr unsigned long long kMaxRepeat = 1 << 20;
              const unsigned long long base = digits[0] == '0' ? 8 : 10;
              unsigned long long n = 0;
              bool valid = true;
              for (char dch : digits) {
                const unsigned long long dv =
                    static_cast<unsigned long long>(dch - '0');
                if (dv >= base) {
                  valid = false;
                  break;
                }
                n = n * base + dv;
                if (n > kMaxRepeat) break;  // rejected below; no overflow
              }
              if (!valid || n > kMaxRepeat) {
                if (error) *error = "tr: invalid or too large repeat count";
                return std::nullopt;
              }
              set.chars.append(static_cast<std::size_t>(n), *c);
            }
            i = k + 1;
            continue;
          }
        }
        (void)char_start;
      }
      // Fall through: literal '['.
    }
    std::size_t before = i;
    auto c1 = decode_escape(spec, i);
    if (!c1) {
      if (error) *error = "tr: bad escape";
      return std::nullopt;
    }
    // Range c1-c2 (the '-' must be followed by a character).
    if (i + 1 < spec.size() && spec[i] == '-' && spec[i + 1] != '\0') {
      std::size_t j = i + 1;
      auto c2 = decode_escape(spec, j);
      if (c2 && static_cast<unsigned char>(*c1) <=
                    static_cast<unsigned char>(*c2)) {
        for (int ch = static_cast<unsigned char>(*c1);
             ch <= static_cast<unsigned char>(*c2); ++ch)
          set.chars.push_back(static_cast<char>(ch));
        i = j;
        continue;
      }
      if (error) *error = "tr: range endpoints out of order";
      return std::nullopt;
    }
    (void)before;
    set.chars.push_back(*c1);
  }
  return set;
}

std::string complement_chars(std::string_view chars) {
  std::array<bool, 256> in{};
  for (char c : chars) in[static_cast<unsigned char>(c)] = true;
  std::string out;
  for (int c = 0; c < 256; ++c)
    if (!in[static_cast<std::size_t>(c)]) out.push_back(static_cast<char>(c));
  return out;
}

class TrCommand final : public Command {
 public:
  TrCommand(std::string name, bool del, bool squeeze, std::string set1,
            std::string set2, std::string squeeze_set)
      : Command(std::move(name)), delete_(del), squeeze_(squeeze) {
    member1_.fill(false);
    squeeze_members_.fill(false);
    for (int c = 0; c < 256; ++c) map_[static_cast<std::size_t>(c)] =
        static_cast<char>(c);
    for (char c : set1) member1_[static_cast<unsigned char>(c)] = true;
    if (!set2.empty()) {
      for (std::size_t i = 0; i < set1.size(); ++i) {
        char to = i < set2.size() ? set2[i] : set2.back();
        map_[static_cast<unsigned char>(set1[i])] = to;
      }
    }
    for (char c : squeeze_set) squeeze_members_[static_cast<unsigned char>(c)] =
        true;
  }

  // The byte-level transform; `last_squeezed` carries the squeeze run
  // across calls so per-block streaming matches one whole-input pass even
  // when a squeezed run straddles a block boundary. It holds the run's
  // unsigned byte value, or -1 for none, so byte 0xFF is a byte like any
  // other and not "no run".
  void transform(std::string_view input, std::string* out,
                 int* last_squeezed) const {
    out->reserve(out->size() + input.size());
    for (char c : input) {
      unsigned char uc = static_cast<unsigned char>(c);
      if (delete_) {
        if (member1_[uc]) continue;
        if (squeeze_ && squeeze_members_[uc] && *last_squeezed == uc) continue;
        out->push_back(c);
        *last_squeezed = squeeze_members_[uc] ? uc : -1;
        continue;
      }
      char t = map_[uc];
      unsigned char ut = static_cast<unsigned char>(t);
      if (squeeze_ && squeeze_members_[ut] && *last_squeezed == ut) continue;
      out->push_back(t);
      *last_squeezed = squeeze_members_[ut] ? ut : -1;
    }
  }

  Result execute(std::string_view input) const override {
    std::string out;
    int last_squeezed = -1;
    transform(input, &out, &last_squeezed);
    return {std::move(out), 0, {}};
  }

  // Per-byte, but streamable only while record alignment survives: every
  // downstream consumer (stream chains, parallel feeders, spill sorts)
  // assumes mid-stream blocks end on a record boundary. A tr that deletes
  // or translates away '\n' emits blocks that end mid-record — the exact
  // case combiner elimination guards with outputs_newline_terminated — so it
  // must materialize. Translating *into* '\n' or squeezing it is fine: the
  // final byte of an aligned block stays '\n' (a squeeze can only drop a
  // leading repeat, never the block's last newline).
  Streamability streamability() const override {
    const auto nl = static_cast<unsigned char>('\n');
    const bool keeps_alignment =
        delete_ ? !member1_[nl] : map_[nl] == '\n';
    return keeps_alignment ? Streamability::kPerRecord
                           : Streamability::kNone;
  }
  std::unique_ptr<StreamProcessor> stream_processor() const override;

 private:
  bool delete_;
  bool squeeze_;
  std::array<bool, 256> member1_;
  std::array<bool, 256> squeeze_members_;
  std::array<char, 256> map_;
};

// tr is a per-byte map/filter; only the squeeze run survives a block
// boundary, carried here as the processor's one int of state.
class TrStreamProcessor final : public StreamProcessor {
 public:
  explicit TrStreamProcessor(const TrCommand& command) : command_(command) {}
  bool process(std::string_view block, std::string* out) override {
    command_.transform(block, out, &last_squeezed_);
    return true;
  }

 private:
  const TrCommand& command_;
  int last_squeezed_ = -1;
};

std::unique_ptr<StreamProcessor> TrCommand::stream_processor() const {
  if (streamability() == Streamability::kNone) return nullptr;
  return std::make_unique<TrStreamProcessor>(*this);
}

}  // namespace

CommandPtr make_tr(const Argv& argv, std::string* error) {
  bool complement = false, del = false, squeeze = false, truncate = false;
  std::vector<std::string> sets;
  for (std::size_t i = 1; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (a.size() >= 2 && a[0] == '-' && a != "-" &&
        !std::isdigit(static_cast<unsigned char>(a[1])) && sets.empty()) {
      for (std::size_t j = 1; j < a.size(); ++j) {
        switch (a[j]) {
          case 'c': case 'C': complement = true; break;
          case 'd': del = true; break;
          case 's': squeeze = true; break;
          case 't': truncate = true; break;
          default:
            if (error) *error = "tr: unsupported flag";
            return nullptr;
        }
      }
    } else {
      sets.push_back(a);
    }
  }
  if (sets.empty() || sets.size() > 2) {
    if (error) *error = "tr: expected one or two sets";
    return nullptr;
  }
  auto e1 = expand_set(sets[0], error);
  if (!e1) return nullptr;
  std::string set1 = e1->chars;
  if (complement) set1 = complement_chars(set1);

  std::string set2;
  if (sets.size() == 2) {
    auto e2 = expand_set(sets[1], error);
    if (!e2) return nullptr;
    set2 = e2->chars;
    if (e2->fill_pos >= 0 && set2.size() < set1.size()) {
      set2.insert(static_cast<std::size_t>(e2->fill_pos),
                  std::string(set1.size() - set2.size(), e2->fill_char));
    }
    if (truncate && set1.size() > set2.size()) set1.resize(set2.size());
  }
  if (del && sets.size() == 2 && !squeeze) {
    if (error) *error = "tr: extra operand with -d";
    return nullptr;
  }
  // Squeeze applies to SET2 when translating, otherwise to SET1.
  std::string squeeze_set;
  if (squeeze) squeeze_set = sets.size() == 2 && !del ? set2 : set1;
  if (del && squeeze && sets.size() == 2) squeeze_set = set2;

  return std::make_shared<TrCommand>(argv_to_display(argv), del, squeeze,
                                     std::move(set1), std::move(set2),
                                     std::move(squeeze_set));
}

}  // namespace kq::cmd
