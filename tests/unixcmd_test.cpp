// Unit tests for the built-in command substrate: every command/flag
// combination that appears in the paper's benchmark suite (Table 10 and
// Table 9), plus edge cases around empty input, missing trailing newlines,
// and error statuses.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <random>

#include "text/streams.h"
#include "unixcmd/registry.h"
#include "unixcmd/sort_cmd.h"
#include "vfs/vfs.h"

namespace kq::cmd {
namespace {

std::string run(const std::string& command_line, std::string_view input,
                const vfs::Vfs* fs = nullptr) {
  std::string error;
  CommandPtr c = make_command_line(command_line, &error, fs);
  EXPECT_NE(c, nullptr) << command_line << ": " << error;
  if (!c) return "<make_command failed>";
  return c->run(input);
}

Result exec(const std::string& command_line, std::string_view input,
            const vfs::Vfs* fs = nullptr) {
  std::string error;
  CommandPtr c = make_command_line(command_line, &error, fs);
  EXPECT_NE(c, nullptr) << command_line << ": " << error;
  if (!c) return {"", 255, error};
  return c->execute(input);
}

// ------------------------------------------------------------------ cat --

TEST(Cat, Identity) {
  EXPECT_EQ(run("cat", "a\nb\n"), "a\nb\n");
  EXPECT_EQ(run("cat", ""), "");
}

TEST(Cat, ReadsVfsFiles) {
  vfs::Vfs fs;
  fs.write("f1", "one\n");
  fs.write("f2", "two\n");
  EXPECT_EQ(run("cat f1 f2", "ignored", &fs), "one\ntwo\n");
}

TEST(Cat, MissingFileSetsStatus) {
  vfs::Vfs fs;
  Result r = exec("cat nope", "", &fs);
  EXPECT_NE(r.status, 0);
}

// ------------------------------------------------------------------- tr --

TEST(Tr, SimpleTranslate) {
  EXPECT_EQ(run("tr A-Z a-z", "Hello World\n"), "hello world\n");
}

TEST(Tr, BracketedSets) {
  EXPECT_EQ(run("tr '[A-Z]' '[a-z]'", "ABC[]\n"), "abc[]\n");
  EXPECT_EQ(run("tr '[a-z]' 'P'", "abc XY\n"), "PPP XY\n");
}

TEST(Tr, SpaceToNewline) {
  EXPECT_EQ(run("tr ' ' '\\n'", "a b\n"), "a\nb\n");
}

TEST(Tr, ComplementSqueezeToNewline) {
  // The §2 example command: break into words, squeezing delimiters.
  EXPECT_EQ(run("tr -cs A-Za-z '\\n'", "one, two!!three\n"),
            "one\ntwo\nthree\n");
}

TEST(Tr, ComplementSqueezeLeadingSeparator) {
  // A leading non-letter becomes a single leading newline.
  EXPECT_EQ(run("tr -cs A-Za-z '\\n'", "  lead\n"), "\nlead\n");
}

TEST(Tr, DeleteNewlines) {
  EXPECT_EQ(run("tr -d '\\n'", "a\nb\nc\n"), "abc");
}

TEST(Tr, DeleteComma) {
  EXPECT_EQ(run("tr -d ','", "1,2,3\n"), "123\n");
}

TEST(Tr, DeletePunct) {
  EXPECT_EQ(run("tr -d '[:punct:]'", "a.b,c!d\n"), "abcd\n");
}

TEST(Tr, SqueezeOnly) {
  EXPECT_EQ(run("tr -s ' ' '\\n'", "a  b\n"), "a\nb\n");
}

TEST(Tr, SqueezeTreatsByteFFAsAByte) {
  // As GNU tr answers under LC_ALL=C: a run of 0xFF squeezes to one 0xFF,
  // leading, repeated or trailing, and never reads as "no run yet".
  EXPECT_EQ(run("tr -s '\\377'", "\xff\xff" "a\xff"), "\xff" "a\xff");
  EXPECT_EQ(run("tr -s '\\377'", "a\xff\xff\xff"), "a\xff");
  EXPECT_EQ(run("tr -cs 'a-z'", "a\xff\xff" "b\n"), "a\xff" "b\n");
  EXPECT_EQ(run("tr -cs 'a-z'", "\xff\xff" "a\xff\xff"), "\xff" "a\xff");
  EXPECT_EQ(run("tr -ds 'a' '\\377'", "\xff\xff" "a\xff\xff" "b\xff\xff"),
            "\xff" "b\xff");
}

TEST(Tr, OctalFillSet) {
  // poets: tr -sc '[A-Z][a-z]' '[\012*]' — complement to newlines, squeeze.
  EXPECT_EQ(run("tr -sc '[A-Z][a-z]' '[\\012*]'", "It's 42 words\n"),
            "It\ns\nwords\n");
}

TEST(Tr, VowelSqueeze) {
  EXPECT_EQ(run("tr -sc 'AEIOUaeiou' '[\\012*]'", "banana\n"),
            "\na\na\na\n");
}

TEST(Tr, NamedClasses) {
  EXPECT_EQ(run("tr '[:lower:]' '[:upper:]'", "mixed Case\n"),
            "MIXED CASE\n");
}

TEST(Tr, UnsupportedFlagRejected) {
  std::string error;
  EXPECT_EQ(make_command_line("tr -z a b", &error), nullptr);
}

// ----------------------------------------------------------------- sort --

TEST(Sort, Bytewise) {
  EXPECT_EQ(run("sort", "b\na\nc\n"), "a\nb\nc\n");
}

TEST(Sort, EmptyInput) { EXPECT_EQ(run("sort", ""), ""); }

TEST(Sort, Numeric) {
  EXPECT_EQ(run("sort -n", "10\n9\n-2\n"), "-2\n9\n10\n");
}

TEST(Sort, NumericEqualKeysFallBackToBytewise) {
  // GNU last-resort comparison orders equal numeric keys bytewise.
  EXPECT_EQ(run("sort -n", "0b\n0a\n"), "0a\n0b\n");
}

TEST(Sort, ReverseNumeric) {
  EXPECT_EQ(run("sort -rn", "1 x\n10 y\n2 z\n"), "10 y\n2 z\n1 x\n");
}

TEST(Sort, FoldCase) {
  EXPECT_EQ(run("sort -f", "b\nA\n"), "A\nb\n");
}

TEST(Sort, Unique) {
  EXPECT_EQ(run("sort -u", "b\na\nb\na\n"), "a\nb\n");
}

TEST(Sort, KeyNumeric) {
  EXPECT_EQ(run("sort -k1n", "10 a\n2 b\n"), "2 b\n10 a\n");
}

// GNU-compat -n edge cases: parse_numeric skips leading blanks, reads an
// optional '-' and digits, and treats anything non-numeric as 0. These lock
// in the tie orders the external merge (stream/spill.*) must reproduce.

TEST(Sort, NumericLeadingBlanksIgnored) {
  // "  10" parses as 10 despite the indent, like GNU sort -n (implicit -b).
  EXPECT_EQ(run("sort -n", "  10\n9\n 2\n"), " 2\n9\n  10\n");
}

TEST(Sort, NumericBareMinusCountsAsZero) {
  // A bare "-" has a sign but no digits: value 0, not negative infinity.
  // Ties against other zeros break bytewise ('-' 0x2D < '0' 0x30).
  EXPECT_EQ(run("sort -n", "1\n-\n0\n-1\n"), "-1\n-\n0\n1\n");
}

TEST(Sort, NumericNonNumericPrefixesTieAsZero) {
  // "abc" and "xyz" both parse as 0: they tie with "0" numerically and the
  // last-resort bytewise comparison orders the group.
  EXPECT_EQ(run("sort -n", "xyz\n1\nabc\n0\n"), "0\nabc\nxyz\n1\n");
}

TEST(Sort, NumericStableKeepsTieInputOrder) {
  // -s drops the last-resort comparison: all-zero keys keep input order.
  EXPECT_EQ(run("sort -ns", "xyz\nabc\n0\nmno\n"), "xyz\nabc\n0\nmno\n");
}

TEST(Sort, NumericStableStillSortsDistinctKeys) {
  // Distinct keys sort; the two 2-keyed lines keep their input order.
  EXPECT_EQ(run("sort -ns", "2 b\n1 z\n2 a\n"), "1 z\n2 b\n2 a\n");
}

TEST(Sort, NumericUniqueCollapsesZeroTies) {
  // -u compares keys only: every non-numeric line is "0", so one survivor —
  // the first in sorted order (stable, so the first zero-key line seen).
  EXPECT_EQ(run("sort -nu", "xyz\nabc\n1\n0\n"), "xyz\n1\n");
}

TEST(Sort, BlanksFlagSkipsLeadingBlanks) {
  // GNU (LC_ALL=C) compares keyless -b lines from their first non-blank,
  // with the whole line's bytes as the last resort; without -b the blank
  // sorts first.
  EXPECT_EQ(run("sort -b", " b\na\n"), "a\n b\n");
  EXPECT_EQ(run("sort", " b\na\n"), " b\na\n");
  const std::string input = " b\na\n\ta\n a\nb\n";
  EXPECT_EQ(run("sort -b", input), "\ta\n a\na\n b\nb\n");
  EXPECT_EQ(run("sort -rb", input), "b\n b\na\n a\n\ta\n");
  EXPECT_EQ(run("sort -bu", input), "a\n b\n");
  EXPECT_EQ(run("sort -sb", input), "a\n\ta\n a\n b\nb\n");
}

TEST(Sort, ParallelFlagIgnored) {
  EXPECT_EQ(run("sort --parallel=1", "b\na\n"), "a\nb\n");
}

TEST(SortSpec, MergePreSortedStreams) {
  auto spec = SortSpec::parse({});
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->merge_streams({"a\nc\n", "b\nd\n"}), "a\nb\nc\nd\n");
}

TEST(SortSpec, MergeNumeric) {
  auto spec = SortSpec::parse({"-n"});
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->merge_streams({"2\n10\n", "3\n"}), "2\n3\n10\n");
}

TEST(SortSpec, IsSortedStream) {
  auto spec = SortSpec::parse({"-n"});
  EXPECT_TRUE(spec->is_sorted_stream("2\n10\n"));
  EXPECT_FALSE(spec->is_sorted_stream("10\n2\n"));
}

// ------------------------------------------------- sort: differentials --

// A random stream over the bytes a sort must order bytewise: NUL, 0xFF
// and CR beside digits, both cases, blanks, '-' and '.'. It has empty
// lines, numeric keys, blank-separated fields, a long shared prefix, runs
// of duplicates and, one time in three, an unterminated last line. (CI's
// sort smoke builds its GNU comparison file from the same classes.)
std::string random_sort_stream(std::mt19937_64& rng) {
  static const char kBytes[] = {'\0', '\xff', '\r', ' ', '\t', '-', '.',
                                '0',  '1',    '9',  'a', 'b',  'z', 'A',
                                'B',  'Z',    '!',  '~'};
  const std::string prefix(40, 'p');
  std::vector<std::string> seen;
  std::string out;
  const int lines = static_cast<int>(rng() % 120);
  for (int i = 0; i < lines; ++i) {
    std::string line;
    switch (rng() % 6) {
      case 0:  // an empty line
        break;
      case 1:  // a line seen before
        if (!seen.empty()) line = seen[rng() % seen.size()];
        break;
      case 2:  // a numeric key, sometimes with a fraction and a field
        line = std::to_string(static_cast<int>(rng() % 41) - 20);
        if (rng() % 2) line += ".5";
        if (rng() % 2) line += " x";
        break;
      case 3:  // the shared prefix
        line = prefix;
        [[fallthrough]];
      default:
        for (int n = static_cast<int>(rng() % 12); n > 0; --n)
          line += kBytes[rng() % sizeof(kBytes)];
    }
    seen.push_back(line);
    for (int copies = rng() % 4 == 0 ? 1 + static_cast<int>(rng() % 4) : 1;
         copies > 0; --copies) {
      out += line;
      out += '\n';
    }
  }
  if (!out.empty() && rng() % 3 == 0) out.pop_back();
  return out;
}

// sort_stream's reference: text::lines, std::stable_sort under compare()
// and adjacent dedup. Under -u compare() has no last-resort tiebreak, so
// compare() == 0 means equal keys.
std::string reference_sort(const SortSpec& spec, std::string_view input) {
  auto ls = text::lines(input);
  std::stable_sort(ls.begin(), ls.end(),
                   [&](std::string_view a, std::string_view b) {
                     return spec.compare(a, b) < 0;
                   });
  std::vector<std::string_view> kept;
  for (std::string_view l : ls) {
    if (spec.unique() && !kept.empty() && spec.compare(kept.back(), l) == 0)
      continue;
    kept.push_back(l);
  }
  return text::unlines_views(kept);
}

// merge_streams as it was before it merged in place: one text::lines
// vector per stream, a heap of stream indices, then unlines_views.
std::string reference_merge(const SortSpec& spec,
                            const std::vector<std::string_view>& streams) {
  std::vector<std::vector<std::string_view>> queues;
  for (std::string_view s : streams) queues.push_back(text::lines(s));
  std::vector<std::size_t> idx(streams.size(), 0);
  std::vector<std::string_view> out;
  auto heap_less = [&](std::size_t a, std::size_t b) {
    const int c = spec.compare(queues[a][idx[a]], queues[b][idx[b]]);
    if (c != 0) return c > 0;
    return a > b;
  };
  std::vector<std::size_t> heap;
  for (std::size_t q = 0; q < queues.size(); ++q)
    if (!queues[q].empty()) heap.push_back(q);
  std::make_heap(heap.begin(), heap.end(), heap_less);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_less);
    const std::size_t q = heap.back();
    heap.pop_back();
    const std::string_view line = queues[q][idx[q]++];
    if (!spec.unique() || out.empty() || spec.compare(out.back(), line) != 0)
      out.push_back(line);
    if (idx[q] < queues[q].size()) {
      heap.push_back(q);
      std::push_heap(heap.begin(), heap.end(), heap_less);
    }
  }
  return text::unlines_views(out);
}

// Every subset of the flags the tests cover: 2^8 flag sets.
std::vector<std::vector<std::string>> sort_flag_sets() {
  static const char* kFlags[] = {"-r", "-u",  "-s",  "-n",
                                 "-f", "-d", "-k2", "-k1,1n"};
  std::vector<std::vector<std::string>> sets;
  for (unsigned mask = 0; mask < (1u << 8); ++mask) {
    std::vector<std::string> flags;
    for (unsigned bit = 0; bit < 8; ++bit)
      if (mask & (1u << bit)) flags.emplace_back(kFlags[bit]);
    sets.push_back(std::move(flags));
  }
  return sets;
}

std::string joined(const std::vector<std::string>& flags) {
  std::string out;
  for (const std::string& f : flags) {
    out += f;
    out += ' ';
  }
  return out;
}

TEST(SortSpec, SortStreamMatchesStableSortReference) {
  std::mt19937_64 rng(2022);
  for (const auto& flags : sort_flag_sets()) {
    auto spec = SortSpec::parse(flags);
    ASSERT_TRUE(spec.has_value()) << joined(flags);
    for (int trial = 0; trial < 6; ++trial) {
      const std::string input = random_sort_stream(rng);
      const std::string expect = reference_sort(*spec, input);
      ASSERT_EQ(spec->sort_stream(input), expect)
          << "flags " << joined(flags) << "trial " << trial;
      ASSERT_EQ(spec->sort_stream_with<std::uint64_t>(input), expect)
          << "64-bit records, flags " << joined(flags);
    }
  }
}

TEST(SortSpec, SortStreamPiecesEndAtLinesAndJoinToTheWhole) {
  std::mt19937_64 rng(7);
  for (const auto& flags : {std::vector<std::string>{},
                            std::vector<std::string>{"-u"},
                            std::vector<std::string>{"-rn", "-k2"}}) {
    auto spec = SortSpec::parse(flags);
    ASSERT_TRUE(spec.has_value());
    for (int trial = 0; trial < 20; ++trial) {
      const std::string input = random_sort_stream(rng);
      for (std::size_t piece : {1, 7, 64, 1 << 20}) {
        std::vector<std::string> pieces;
        ASSERT_TRUE(spec->sort_stream(input, piece, [&](std::string_view p) {
          pieces.emplace_back(p);
          return true;
        }));
        std::string whole;
        for (std::size_t i = 0; i < pieces.size(); ++i) {
          ASSERT_FALSE(pieces[i].empty());
          EXPECT_EQ(pieces[i].back(), '\n');
          if (i + 1 < pieces.size()) {
            EXPECT_GE(pieces[i].size(), piece);
          }
          whole += pieces[i];
        }
        EXPECT_EQ(whole, spec->sort_stream(input))
            << "flags " << joined(flags) << "piece " << piece;
      }
      // A false from the sink stops the pieces at once.
      int calls = 0;
      const bool finished =
          spec->sort_stream(input, 1, [&](std::string_view) {
            ++calls;
            return false;
          });
      EXPECT_EQ(finished, input.empty());
      EXPECT_EQ(calls, input.empty() ? 0 : 1);
    }
  }
}

TEST(SortSpec, MergeStreamsMatchesTheLineVectorMerge) {
  std::mt19937_64 rng(31);
  for (const auto& flags : sort_flag_sets()) {
    auto spec = SortSpec::parse(flags);
    ASSERT_TRUE(spec.has_value()) << joined(flags);
    for (int trial = 0; trial < 4; ++trial) {
      // Mostly sorted streams, as the merge combiner gets them; one in
      // four is left unsorted, where both merges must agree on garbage.
      std::vector<std::string> streams(rng() % 6);
      for (std::string& s : streams) {
        s = random_sort_stream(rng);
        if (rng() % 4 != 0) {
          const bool unterminated = !s.empty() && s.back() != '\n';
          s = reference_sort(*spec, s);
          if (unterminated && !s.empty()) s.pop_back();
        }
      }
      const std::vector<std::string_view> views(streams.begin(),
                                                streams.end());
      ASSERT_EQ(spec->merge_streams(views), reference_merge(*spec, views))
          << "flags " << joined(flags) << "trial " << trial;
    }
  }
}

// Lines that tell a bytewise order apart from a signed or offset one:
// shared prefixes of 7 to 40 bytes, then NUL, 0x80, 0xFF and their
// neighbours, or letters whose order -f changes ('_' sorts between the
// cases); empty lines, duplicates and, one time in three, an unterminated
// last line.
std::string random_byte_stream(std::mt19937_64& rng) {
  static const char kTail[] = {'\0', '\x01', '\x7f', '\x80', '\x81',
                               '\xfe', '\xff', 'a',    'A',    '_'};
  std::vector<std::string> prefixes;
  for (std::size_t len : {0, 7, 8, 9, 12, 16, 40}) {
    std::string prefix;
    for (std::size_t i = 0; i < len; ++i) {
      const char c = static_cast<char>(rng() % 256);
      prefix += c == '\n' ? ' ' : c;
    }
    prefixes.push_back(std::move(prefix));
  }
  std::string out;
  for (int i = static_cast<int>(rng() % 100); i > 0; --i) {
    std::string line = prefixes[rng() % prefixes.size()];
    for (int n = static_cast<int>(rng() % 4); n > 0; --n)
      line += kTail[rng() % sizeof(kTail)];
    for (int copies = 1 + static_cast<int>(rng() % 2); copies > 0; --copies) {
      out += line;
      out += '\n';
    }
  }
  if (!out.empty() && rng() % 3 == 0) out.pop_back();
  return out;
}

// The lines of `streams`, split at '\n' (an unterminated tail counts).
std::vector<std::string> split_lines(
    const std::vector<std::string_view>& streams) {
  std::vector<std::string> out;
  for (std::string_view s : streams)
    for (std::size_t start = 0; start < s.size();) {
      std::size_t end = s.find('\n', start);
      if (end == std::string_view::npos) end = s.size();
      out.emplace_back(s.substr(start, end - start));
      start = end + 1;
    }
  return out;
}

// `sort [-r] [-u] [-s] [-f] [-b]` under LC_ALL=C without SortSpec: lines
// ordered by their unsigned bytes (from the first non-blank under -b,
// upper-cased under -f; lines that -b or -f make alike fall back to their
// own bytes unless -s or -u), equal keys kept in input order, and deduped
// under -u.
std::string c_locale_sort(const std::vector<std::string_view>& streams,
                          bool reverse, bool unique, bool stable, bool fold,
                          bool blanks = false) {
  auto key = [blanks](const std::string& line) {
    std::size_t i = 0;
    while (blanks && i < line.size() && (line[i] == ' ' || line[i] == '\t'))
      ++i;
    return line.substr(i);
  };
  auto bytes_cmp = [](const std::string& a, const std::string& b,
                      bool upper) {
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int x = static_cast<unsigned char>(a[i]);
      int y = static_cast<unsigned char>(b[i]);
      if (upper) {
        x = std::toupper(x);
        y = std::toupper(y);
      }
      if (x != y) return x < y ? -1 : 1;
    }
    if (a.size() == b.size()) return 0;
    return a.size() < b.size() ? -1 : 1;
  };
  auto cmp = [&](const std::string& a, const std::string& b) {
    int c = bytes_cmp(key(a), key(b), fold);
    if (c == 0 && (fold || blanks) && !stable && !unique)
      c = bytes_cmp(a, b, false);
    return reverse ? -c : c;
  };
  std::vector<std::string> ls = split_lines(streams);
  std::stable_sort(ls.begin(), ls.end(),
                   [&](const std::string& a, const std::string& b) {
                     return cmp(a, b) < 0;
                   });
  if (unique)
    ls.erase(std::unique(ls.begin(), ls.end(),
                         [&](const std::string& a, const std::string& b) {
                           return cmp(a, b) == 0;
                         }),
             ls.end());
  std::string out;
  for (const std::string& l : ls) {
    out += l;
    out += '\n';
  }
  return out;
}

// `stream` with 1-3 blanks (spaces and tabs) in front of about half its
// lines, so -b's key differs from the line.
std::string with_leading_blanks(std::string_view stream,
                                std::mt19937_64& rng) {
  std::string out;
  for (std::size_t start = 0; start < stream.size();) {
    std::size_t end = stream.find('\n', start);
    end = end == std::string_view::npos ? stream.size() : end + 1;
    if (rng() % 2)
      for (int n = 1 + static_cast<int>(rng() % 3); n > 0; --n)
        out += rng() % 2 ? ' ' : '\t';
    out.append(stream.substr(start, end - start));
    start = end;
  }
  return out;
}

TEST(SortSpec, KeylessSortAndMergeMatchACLocaleReference) {
  // Without a key, -n or -d, compare() is the bytewise compare (from the
  // first non-blank under -b, folded under -f, with a bytewise tiebreak
  // only then). Checked here against an order built without SortSpec, over
  // bytes where signed chars, an offset slip or a dropped tiebreak would
  // show, and over lines with leading blanks.
  std::mt19937_64 rng(80);
  for (unsigned mask = 0; mask < 32; ++mask) {
    const bool reverse = mask & 1, unique = mask & 2, stable = mask & 4,
               fold = mask & 8, blanks = mask & 16;
    std::vector<std::string> flags;
    if (reverse) flags.emplace_back("-r");
    if (unique) flags.emplace_back("-u");
    if (stable) flags.emplace_back("-s");
    if (fold) flags.emplace_back("-f");
    if (blanks) flags.emplace_back("-b");
    auto spec = SortSpec::parse(flags);
    ASSERT_TRUE(spec.has_value()) << joined(flags);
    for (int trial = 0; trial < 40; ++trial) {
      std::string input = trial % 4 == 3 ? random_sort_stream(rng)
                                         : random_byte_stream(rng);
      if (trial % 2) input = with_leading_blanks(input, rng);
      const std::string expect =
          c_locale_sort({input}, reverse, unique, stable, fold, blanks);
      ASSERT_EQ(spec->sort_stream(input), expect)
          << "flags " << joined(flags) << "trial " << trial;
      ASSERT_EQ(spec->sort_stream_with<std::uint64_t>(input), expect)
          << "64-bit records, flags " << joined(flags);

      std::vector<std::string> streams(1 + rng() % 4);
      for (std::string& s : streams)
        s = spec->sort_stream(
            with_leading_blanks(random_byte_stream(rng), rng));
      const std::vector<std::string_view> views(streams.begin(),
                                                streams.end());
      ASSERT_EQ(spec->merge_streams(views),
                c_locale_sort(views, reverse, unique, stable, fold, blanks))
          << "merge, flags " << joined(flags) << "trial " << trial;
    }
  }
}

// ----------------------------------------------------------------- uniq --

TEST(Uniq, CollapsesAdjacent) {
  EXPECT_EQ(run("uniq", "a\na\nb\na\n"), "a\nb\na\n");
}

TEST(Uniq, CountFormatsWidth7) {
  EXPECT_EQ(run("uniq -c", "a\na\nb\n"), "      2 a\n      1 b\n");
}

TEST(Uniq, CountEmptyLines) {
  EXPECT_EQ(run("uniq -c", "\n\n\n"), "      3 \n");
}

TEST(Uniq, EmptyInput) { EXPECT_EQ(run("uniq -c", ""), ""); }

// ------------------------------------------------------------------- wc --

TEST(Wc, CountLines) {
  EXPECT_EQ(run("wc -l", "a\nb\nc\n"), "3\n");
  EXPECT_EQ(run("wc -l", ""), "0\n");
}

TEST(Wc, CountWords) {
  EXPECT_EQ(run("wc -w", "one two\nthree\n"), "3\n");
}

TEST(Wc, CountBytes) {
  EXPECT_EQ(run("wc -c", "abc\n"), "4\n");
}

TEST(Wc, DefaultThreeColumns) {
  EXPECT_EQ(run("wc", "a b\n"), "      1       2       4\n");
}

// ----------------------------------------------------------------- grep --

TEST(Grep, SelectsMatchingLines) {
  EXPECT_EQ(run("grep light", "daylight\ndark\nlights\n"),
            "daylight\nlights\n");
}

TEST(Grep, CountFlag) {
  EXPECT_EQ(run("grep -c light", "daylight\ndark\n"), "1\n");
  EXPECT_EQ(run("grep -c light", "dark\n"), "0\n");
}

TEST(Grep, InvertFlag) {
  EXPECT_EQ(run("grep -v '^0$'", "1\n0\n02\n"), "1\n02\n");
}

TEST(Grep, InvertCount) {
  EXPECT_EQ(run("grep -vc x", "x\ny\nz\n"), "2\n");
}

TEST(Grep, CaseInsensitive) {
  EXPECT_EQ(run("grep -i '[aeiou]'", "SKY\nAloud\n"), "Aloud\n");
}

TEST(Grep, ExitStatusReflectsSelection) {
  EXPECT_EQ(exec("grep x", "x\n").status, 0);
  EXPECT_EQ(exec("grep x", "y\n").status, 1);
}

TEST(Grep, FourLetterWords) {
  EXPECT_EQ(run("grep -c '^....$'", "word\nabcde\nfour\n"), "2\n");
}

// The line walk's edges, as GNU grep under LC_ALL=C answers them.
TEST(Grep, UnterminatedLastLineIsALine) {
  const std::string input = "apple\nbanana\napricot";
  EXPECT_EQ(run("grep a", input), "apple\nbanana\napricot\n");
  EXPECT_EQ(run("grep -c p", input), "2\n");
  EXPECT_EQ(run("grep -v an", input), "apple\napricot\n");
  EXPECT_EQ(run("grep -c ''", "x\ny"), "2\n");
}

TEST(Grep, EmptyLinesAreLines) {
  const std::string input = "a\n\nb\n\n";
  EXPECT_EQ(run("grep -v a", input), "\nb\n\n");
  EXPECT_EQ(run("grep -c '^$'", input), "2\n");
  EXPECT_EQ(run("grep -c ''", input), "4\n");
  EXPECT_EQ(run("grep ''", "\n"), "\n");
}

TEST(Grep, EmptyInputHasNoLines) {
  EXPECT_EQ(run("grep ''", ""), "");
  EXPECT_EQ(exec("grep ''", "").status, 1);
  EXPECT_EQ(run("grep -c ''", ""), "0\n");
  EXPECT_EQ(run("grep -vc x", ""), "0\n");
  EXPECT_EQ(exec("grep -c x", "").status, 1);
}

// ------------------------------------------------------------------ cut --

TEST(Cut, CharacterRanges) {
  EXPECT_EQ(run("cut -c 1-4", "abcdefg\nxy\n"), "abcd\nxy\n");
  EXPECT_EQ(run("cut -c 1-1", "abc\n"), "a\n");
  EXPECT_EQ(run("cut -c 3-3", "abc\n"), "c\n");
}

TEST(Cut, FieldsWithDelimiter) {
  EXPECT_EQ(run("cut -d ',' -f 1", "a,b,c\n"), "a\n");
  EXPECT_EQ(run("cut -d ',' -f 2", "a,b,c\n"), "b\n");
}

TEST(Cut, FieldListOutputsInInputOrder) {
  // GNU cut ignores the order in the -f list.
  EXPECT_EQ(run("cut -d ',' -f 3,1", "a,b,c\n"), "a,c\n");
  EXPECT_EQ(run("cut -d ',' -f 1,3", "a,b,c\n"), "a,c\n");
}

TEST(Cut, LineWithoutDelimiterPassesThrough) {
  EXPECT_EQ(run("cut -d ',' -f 2", "nodelim\n"), "nodelim\n");
}

TEST(Cut, MissingFieldsAreEmpty) {
  EXPECT_EQ(run("cut -d ',' -f 5", "a,b\n"), "\n");
}

TEST(Cut, TabIsDefaultDelimiter) {
  EXPECT_EQ(run("cut -f 2", "a\tb\tc\n"), "b\n");
}

TEST(Cut, QuoteDelimiter) {
  EXPECT_EQ(run("cut -d '\"' -f 2", "say \"hello world\" now\n"),
            "hello world\n");
}

// ------------------------------------------------------------------ sed --

TEST(Sed, SubstituteFirst) {
  EXPECT_EQ(run("sed s/o/0/", "foo\n"), "f0o\n");
}

TEST(Sed, SubstituteGlobal) {
  EXPECT_EQ(run("sed s/o/0/g", "foo\n"), "f00\n");
}

TEST(Sed, StripTimeOfDay) {
  // analytics-mts: sed 's/T..:..:..//'
  EXPECT_EQ(run("sed 's/T..:..:..//'", "2020-01-05T08:31:22,v1\n"),
            "2020-01-05,v1\n");
}

TEST(Sed, CaptureGroupReplacement) {
  EXPECT_EQ(run("sed 's/T\\(..\\):..:../,\\1/'", "2020-01-05T08:31:22,v1\n"),
            "2020-01-05,08,v1\n");
}

TEST(Sed, PrefixWithSemicolonDelimiter) {
  EXPECT_EQ(run("sed 's;^;pg/;'", "book.txt\n"), "pg/book.txt\n");
}

TEST(Sed, AppendAtEndOfLine) {
  EXPECT_EQ(run("sed s/$/0s/", "196\n197\n"), "1960s\n1970s\n");
}

TEST(Sed, QuitAfterN) {
  EXPECT_EQ(run("sed 2q", "a\nb\nc\nd\n"), "a\nb\n");
  EXPECT_EQ(run("sed 100q", "a\nb\n"), "a\nb\n");
}

TEST(Sed, DeleteLineN) {
  EXPECT_EQ(run("sed 1d", "a\nb\nc\n"), "b\nc\n");
  EXPECT_EQ(run("sed 3d", "a\nb\nc\n"), "a\nb\n");
}

TEST(Sed, DeleteLastLine) {
  EXPECT_EQ(run("sed '$d'", "a\nb\nc\n"), "a\nb\n");
}

TEST(Sed, EmptyMatchesAnswerAsGnuSed) {
  // Bytes from GNU sed 4.9 under LC_ALL=C. The mandatory first iteration of
  // \+ may match empty, and under /g an empty match where the last match
  // ended is no match.
  struct Case {
    const char* script;
    const char* input;
    const char* gnu;
  };
  const Case cases[] = {
      {"sed 's/x\\(y*\\)\\+z/Q/'", "xz\n", "Q\n"},
      {"sed 's/\\(a*\\)\\+b/X/'", "b\n", "X\n"},
      {"sed 's/\\(\\)\\+/X/'", "x\n", "Xx\n"},
      {"sed 's/ */_/g'", "a  b\n", "_a_b_\n"},
      {"sed 's/[0-9]*/#/g'", "ab12c\n", "#a#b#c#\n"},
      {"sed 's/a*/X/g'", "baaac\n", "XbXcX\n"},
  };
  for (const Case& c : cases)
    EXPECT_EQ(run(c.script, c.input), c.gnu) << c.script;
}

// ------------------------------------------------------------------ awk --

TEST(Awk, NumericPatternSelectsLines) {
  EXPECT_EQ(run("awk \"\\$1 >= 1000\"", "1500 x\n30 y\n2000 z\n"),
            "1500 x\n2000 z\n");
}

TEST(Awk, PatternWithPrintAction) {
  EXPECT_EQ(run("awk \"\\$1 >= 2 {print \\$2}\"", "3 cats\n1 dog\n"),
            "cats\n");
}

TEST(Awk, LengthPattern) {
  EXPECT_EQ(run("awk \"length >= 16\"", "short\nthis-is-a-very-long-word\n"),
            "this-is-a-very-long-word\n");
}

TEST(Awk, RebuildRecordSqueezesBlanks) {
  // awk "{$1=$1};1" canonicalizes whitespace.
  EXPECT_EQ(run("awk '{$1=$1};1'", "  a   b \n"), "a b\n");
}

TEST(Awk, PrintSecondThenWhole) {
  EXPECT_EQ(run("awk '{print $2, $0}'", "one two\n"), "two one two\n");
}

TEST(Awk, PrintNf) {
  EXPECT_EQ(run("awk '{print NF}'", "a b c\n\nx\n"), "3\n0\n1\n");
}

TEST(Awk, OfsVariable) {
  EXPECT_EQ(run("awk -v OFS=\"\\t\" '{print $2,$1}'", "a b\n"), "b\ta\n");
}

TEST(Awk, EqualityPattern) {
  EXPECT_EQ(run("awk \"\\$1 == 2 {print \\$2, \\$3}\"", "2 x y\n3 a b\n"),
            "x y\n");
}

TEST(Awk, TruthyConstantRule) {
  EXPECT_EQ(run("awk 1", "a\nb\n"), "a\nb\n");
}

TEST(Awk, ProgramsOutsideTheSubsetAreRefused) {
  // These names once read as plain variables ("") and a print's '>' as a
  // comparison, so the program answered with status 0: `END {print NR}`
  // printed nothing, `{print $1 > "x"}` printed 0 twice. They are refused
  // when the command is built.
  for (const char* line :
       {"awk 'END {print NR}'", "awk 'BEGIN {print 1}'", "awk 'NR==1'",
        "awk 'FNR == 2'", "awk '{printf $1}'", "awk '{print $1 > \"x\"}'",
        "awk '{print $2, $1 > $3}'", "awk '{print $1 >= 2}'",
        "awk '{next}'", "awk '{exit}'",
        "awk '$1 == 1 {getline}'", "awk '{print OFS}'", "awk '{print FS}'",
        "awk 'FILENAME'", "awk '{print RSTART, RLENGTH}'", "awk 'if'",
        "awk '{print substr}'", "awk -v FS=, '{print $1}'"}) {
    std::string error;
    EXPECT_EQ(make_command_line(line, &error), nullptr) << line;
    EXPECT_EQ(error.rfind("awk: unsupported", 0), 0u) << line << ": " << error;
  }
  // What the subset implements still builds.
  for (const char* line :
       {"awk '{print NF}'", "awk 'length >= 8'", "awk '$1 >= 2 {print $2}'",
        "awk -v OFS=, '{print $2,$1}'", "awk -v x=3 '$1 > x'",
        "awk '$1 > 2 {print $1 < 2}'"})
    EXPECT_NE(make_command_line(line), nullptr) << line;
}

// ----------------------------------------------------------- head / tail --

TEST(Head, DefaultTen) {
  std::string in;
  for (int i = 0; i < 15; ++i) in += std::to_string(i) + "\n";
  std::string expect;
  for (int i = 0; i < 10; ++i) expect += std::to_string(i) + "\n";
  EXPECT_EQ(run("head", in), expect);
}

TEST(Head, DashN) {
  EXPECT_EQ(run("head -n 1", "a\nb\n"), "a\n");
  EXPECT_EQ(run("head -15", "a\nb\n"), "a\nb\n");
  EXPECT_EQ(run("head -n 3", "a\nb\nc\nd\n"), "a\nb\nc\n");
}

TEST(Tail, LastN) {
  EXPECT_EQ(run("tail -n 1", "a\nb\nc\n"), "c\n");
  EXPECT_EQ(run("tail -n 2", "a\nb\nc\n"), "b\nc\n");
}

TEST(Tail, FromLineN) {
  EXPECT_EQ(run("tail +2", "a\nb\nc\n"), "b\nc\n");
  EXPECT_EQ(run("tail +3", "a\nb\nc\n"), "c\n");
  EXPECT_EQ(run("tail -n +2", "a\nb\nc\n"), "b\nc\n");
}

// ----------------------------------------------------------------- comm --

TEST(Comm, SuppressColumns23) {
  vfs::Vfs fs;
  fs.write("dict", "apple\nberry\n");
  EXPECT_EQ(run("comm -23 - dict", "apple\nzebra\n", &fs), "zebra\n");
}

TEST(Comm, ErrorsOnUnsortedInput) {
  vfs::Vfs fs;
  fs.write("dict", "a\nb\n");
  Result r = exec("comm -23 - dict", "z\na\n", &fs);
  EXPECT_NE(r.status, 0);
}

TEST(Comm, AllColumns) {
  vfs::Vfs fs;
  fs.write("dict", "b\nc\n");
  EXPECT_EQ(run("comm - dict", "a\nb\n", &fs), "a\n\t\tb\n\tc\n");
}

// ---------------------------------------------------------------- xargs --

TEST(Xargs, CatConcatenatesFiles) {
  vfs::Vfs fs;
  fs.write("f1", "one\n");
  fs.write("f2", "two\n");
  EXPECT_EQ(run("xargs cat", "f1\nf2\n", &fs), "one\ntwo\n");
}

TEST(Xargs, FileReportsTypes) {
  vfs::Vfs fs;
  fs.write("a.txt", "hello\n");
  EXPECT_EQ(run("xargs file", "a.txt\n", &fs), "a.txt: ASCII text\n");
}

TEST(Xargs, WcPerLine) {
  vfs::Vfs fs;
  fs.write("f1", "x\ny\n");
  fs.write("f2", "z\n");
  EXPECT_EQ(run("xargs -L 1 wc -l", "f1\nf2\n", &fs), "2 f1\n1 f2\n");
}

TEST(Xargs, MissingFileErrors) {
  vfs::Vfs fs;
  EXPECT_NE(exec("xargs cat", "ghost\n", &fs).status, 0);
}

// ----------------------------------------------------------------- misc --

TEST(Rev, ReversesEachLine) {
  EXPECT_EQ(run("rev", "abc\nxy\n"), "cba\nyx\n");
}

TEST(Col, RemovesBackspaceOverstrikes) {
  EXPECT_EQ(run("col -bx", "a\bb\n"), "b\n");
}

TEST(Col, ExpandsTabs) {
  EXPECT_EQ(run("col -bx", "a\tb\n"), "a       b\n");
}

TEST(Fmt, OneWordPerLine) {
  EXPECT_EQ(run("fmt -w1", "one two  three\n"), "one\ntwo\nthree\n");
}

TEST(Fmt, WrapsAtWidth) {
  EXPECT_EQ(run("fmt -w7", "aa bb cc\n"), "aa bb\ncc\n");
}

TEST(Iconv, TransliteratesAccents) {
  EXPECT_EQ(run("iconv -f utf-8 -t ascii//translit", "caf\xC3\xA9\n"),
            "cafe\n");
}

TEST(Iconv, PassesAsciiThrough) {
  EXPECT_EQ(run("iconv -f utf-8 -t ascii//translit", "plain\n"), "plain\n");
}

// ------------------------------------------------------------- registry --

TEST(Registry, UnknownCommandFails) {
  std::string error;
  EXPECT_EQ(make_command_line("frobnicate -x", &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(Registry, StripsLeadingPath) {
  EXPECT_NE(make_command_line("/usr/bin/sort -n"), nullptr);
}

TEST(Registry, IsBuiltin) {
  EXPECT_TRUE(is_builtin("sort"));
  EXPECT_TRUE(is_builtin("/usr/bin/tr"));
  EXPECT_FALSE(is_builtin("python3"));
}

TEST(Registry, DisplayNameRoundTrips) {
  CommandPtr c = make_command_line("tr -cs A-Za-z '\\n'");
  ASSERT_NE(c, nullptr);
  CommandPtr again = make_command_line(c->display_name());
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->run("a  b\n"), c->run("a  b\n"));
}

}  // namespace
}  // namespace kq::cmd
