// Tests for the BRE-subset engine, covering every pattern in the benchmark
// suite plus the generator used for preprocessing dictionaries.

#include <gtest/gtest.h>

#include "regex/node.h"
#include "regex/regex.h"

namespace kq::regex {
namespace {

bool matches(const std::string& pattern, const std::string& line) {
  auto re = Regex::compile(pattern);
  EXPECT_TRUE(re.has_value()) << "pattern failed to compile: " << pattern;
  return re && re->search(line);
}

TEST(Compile, RejectsBadPatterns) {
  EXPECT_FALSE(Regex::compile("[abc").has_value());
  EXPECT_FALSE(Regex::compile("\\(x").has_value());
  EXPECT_FALSE(Regex::compile("a\\").has_value());
}

TEST(Compile, BracketRangesCompareByteValues) {
  // LC_ALL=C grep accepts [a-\xff]: 0xFF sorts after 'a' as a byte.
  EXPECT_TRUE(matches("[a-\xff]", "\xff"));
  EXPECT_TRUE(matches("[a-\xff]", "z"));
  EXPECT_FALSE(matches("[a-\xff]", "`"));  // 0x60, below 'a'
  EXPECT_TRUE(matches("[\x80-\xff]", "x\x90"));
  EXPECT_FALSE(Regex::compile("[\xff-a]").has_value());
}

TEST(Layers, RequiredLiteralIsReadOffTheTree) {
  auto literal = [](const char* p) {
    auto re = Regex::compile(p);
    EXPECT_TRUE(re.has_value()) << p;
    return std::make_pair(re->required_literal(), re->literal_only());
  };
  using L = std::pair<std::string, bool>;
  EXPECT_EQ(literal("apple"), L("apple", true));
  EXPECT_EQ(literal("\\."), L(".", true));
  EXPECT_EQ(literal("To:"), L("To:", true));
  EXPECT_EQ(literal("[@]"), L("@", true));  // a one-byte bracket
  EXPECT_EQ(literal("\\(apple\\)"), L("apple", true));
  EXPECT_EQ(literal(""), L("", true));  // every line matches
  EXPECT_EQ(literal("^apple"), L("apple", false));
  EXPECT_EQ(literal("light.*light"), L("light", false));
  EXPECT_EQ(literal("ap*le"), L("le", false));
  EXPECT_EQ(literal("ab\\+c"), L("ab", false));
  EXPECT_EQ(literal("\\(apple\\|pineapple\\)"), L("apple", false));
  EXPECT_EQ(literal("T\\(..\\):..:.."), L("T", false));
  EXPECT_EQ(literal("[KQRBN]"), L("", false));
  EXPECT_EQ(literal("x\\?"), L("", false));
}

TEST(Layers, PastTheDfaCapTheNfaIsSimulated) {
  // An 'a' twelve bytes from the end of a match needs 2^12 DFA states,
  // past the cap, and so does one twelve bytes from its start for the
  // reversed automaton: search() and find() then run the NFA state set by
  // state set.
  std::string eleven;
  for (int i = 0; i < 11; ++i) eleven += "[ab]";
  const std::string p = "[ab]*a" + eleven + "\\|" + eleven + "a[ab]*";
  int groups = 0;
  auto root = detail::parse(p, &groups, nullptr);
  ASSERT_NE(root, nullptr);
  EXPECT_FALSE(detail::Automaton::build(*root, /*reverse=*/false)->has_dfa());
  EXPECT_FALSE(detail::Automaton::build(*root, /*reverse=*/true)->has_dfa());
  const std::string hit = "ba" + std::string(11, 'b');
  EXPECT_TRUE(matches(p, hit));
  EXPECT_TRUE(matches(p, "cc" + hit + "cc"));
  EXPECT_FALSE(matches(p, std::string(13, 'b')));
  auto re = Regex::compile(p);
  auto m = re->find("cc" + hit + "cc");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->begin, 2u);
  EXPECT_EQ(m->end, 2u + hit.size());
  // A small pattern keeps its table.
  auto small = detail::parse("light.*light", &groups, nullptr);
  EXPECT_TRUE(detail::Automaton::build(*small, false)->has_dfa());
}

TEST(Match, Literals) {
  EXPECT_TRUE(matches("1969", "in 1969 unix"));
  EXPECT_FALSE(matches("1969", "in 1970 unix"));
  EXPECT_TRUE(matches("AT&T", "from AT&T labs"));
}

TEST(Match, Dot) {
  EXPECT_TRUE(matches("light.light", "lightXlight"));
  EXPECT_FALSE(matches("light.light", "lightlight"));
}

TEST(Match, Star) {
  EXPECT_TRUE(matches("light.*light", "light and moonlight"));
  EXPECT_TRUE(matches("ab*c", "ac"));
  EXPECT_TRUE(matches("ab*c", "abbbc"));
  EXPECT_FALSE(matches("ab*c", "adc"));
}

TEST(Match, Anchors) {
  EXPECT_TRUE(matches("^....$", "word"));
  EXPECT_FALSE(matches("^....$", "words"));
  EXPECT_TRUE(matches("^0$", "0"));
  EXPECT_FALSE(matches("^0$", "10"));
  // '$' not at the end is a literal.
  EXPECT_TRUE(matches("a$b", "a$b"));
}

TEST(Match, BracketExpressions) {
  EXPECT_TRUE(matches("[KQRBN]", "Qxe5"));
  EXPECT_FALSE(matches("[KQRBN]", "exd5"));
  EXPECT_TRUE(matches("^[A-Z]", "Word"));
  EXPECT_FALSE(matches("^[A-Z]", "word"));
  EXPECT_TRUE(matches("[a-z]", "X y"));
}

TEST(Match, NegatedClass) {
  EXPECT_TRUE(matches("^[^aeiou]*$", "rhythm"));
  EXPECT_FALSE(matches("^[^aeiou]*$", "vowel"));
}

TEST(Match, VowelSandwich) {
  // poets 1syllable_words: ^[^aeiou]*[aeiou][^aeiou]*$
  const std::string p = "^[^aeiou]*[aeiou][^aeiou]*$";
  EXPECT_TRUE(matches(p, "cat"));
  EXPECT_TRUE(matches(p, "a"));
  EXPECT_FALSE(matches(p, "beer"));
  EXPECT_FALSE(matches(p, "audio"));
}

TEST(Match, EscapedDot) {
  EXPECT_TRUE(matches("\\.", "a.b"));
  EXPECT_FALSE(matches("\\.", "ab"));
}

TEST(Match, NamedClasses) {
  EXPECT_TRUE(matches("[[:digit:]]", "a1"));
  EXPECT_FALSE(matches("[[:digit:]]", "abc"));
  EXPECT_TRUE(matches("^[[:upper:]][[:lower:]]*$", "Hello"));
}

TEST(Match, Backreferences) {
  // oneliners nfa-regex: \(.\).*\1\(.\).*\2\(.\).*\3\(.\).*\4
  // The repeats are sequential: c1 ... c1 c2 ... c2 (verified against GNU
  // grep: "aabb" matches, "abab" does not).
  const std::string p = "\\(.\\).*\\1\\(.\\).*\\2";
  EXPECT_TRUE(matches(p, "aabb"));
  EXPECT_TRUE(matches(p, "xa_x_aybyb"));
  EXPECT_FALSE(matches(p, "abab"));
  EXPECT_FALSE(matches(p, "abcd"));
}

TEST(Match, FourfoldBackreference) {
  const std::string p =
      "\\(.\\).*\\1\\(.\\).*\\2\\(.\\).*\\3\\(.\\).*\\4";
  EXPECT_TRUE(matches(p, "aabbccdd"));
  EXPECT_TRUE(matches(p, "xxyyzzww"));
  EXPECT_FALSE(matches(p, "abcdabcd"));
  EXPECT_FALSE(matches(p, "abcdefgh"));
}

TEST(Match, GnuExtensions) {
  EXPECT_TRUE(matches("ab\\+c", "abbc"));
  EXPECT_FALSE(matches("ab\\+c", "ac"));
  EXPECT_TRUE(matches("ab\\?c", "ac"));
  EXPECT_TRUE(matches("cat\\|dog", "hotdog"));
  EXPECT_FALSE(matches("cat\\|dog", "bird"));
}

TEST(Find, ReportsLeftmostMatch) {
  auto re = Regex::compile("b+*");  // '*' after '+' literal: stays literal
  ASSERT_TRUE(re.has_value());
  auto re2 = Regex::compile("ab");
  auto m = re2->find("xxabyab");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->begin, 2u);
  EXPECT_EQ(m->end, 4u);
}

TEST(Find, GreedyStar) {
  auto re = Regex::compile("a.*b");
  auto m = re->find("aXbYb");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->begin, 0u);
  EXPECT_EQ(m->end, 5u);  // greedy reaches the last b
}

TEST(Replace, FirstOnly) {
  auto re = Regex::compile("o");
  EXPECT_EQ(re->replace("foo", "0"), "f0o");
}

TEST(Replace, Global) {
  auto re = Regex::compile("o");
  EXPECT_EQ(re->replace("foo", "0", /*global=*/true), "f00");
}

TEST(Replace, BackrefInReplacement) {
  // analytics-mts: sed 's/T\(..\):..:../,\1/'
  auto re = Regex::compile("T\\(..\\):..:..");
  EXPECT_EQ(re->replace("2020-01-05T08:31:22,v1", ",\\1"),
            "2020-01-05,08,v1");
}

TEST(Replace, WholeMatchAmpersand) {
  auto re = Regex::compile("ab");
  EXPECT_EQ(re->replace("ab", "[&]"), "[ab]");
}

TEST(Replace, EmptyMatchAtLineStart) {
  // sed "s;^;PREFIX;" prepends to the line.
  auto re = Regex::compile("^");
  EXPECT_EQ(re->replace("file.txt", "dir/"), "dir/file.txt");
}

TEST(Replace, DollarAppends) {
  // unix50: sed s/$/0s/ appends to each line.
  auto re = Regex::compile("$");
  EXPECT_EQ(re->replace("196", "0s"), "1960s");
}

TEST(Generator, SamplesMatchPattern) {
  auto re = Regex::compile("light.light");
  auto samples = re->sample_matches(6, 42);
  ASSERT_FALSE(samples.empty());
  for (const std::string& s : samples) {
    EXPECT_TRUE(re->search(s)) << s;
    EXPECT_EQ(s.size(), 11u);
  }
}

TEST(Generator, SamplesDistinct) {
  auto re = Regex::compile("[a-z][a-z][a-z]");
  auto samples = re->sample_matches(8, 7);
  for (std::size_t i = 0; i < samples.size(); ++i)
    for (std::size_t j = i + 1; j < samples.size(); ++j)
      EXPECT_NE(samples[i], samples[j]);
}

TEST(Generator, HandlesBackrefs) {
  auto re = Regex::compile("\\(ab\\)x\\1");
  auto samples = re->sample_matches(2, 3);
  ASSERT_FALSE(samples.empty());
  EXPECT_EQ(samples[0], "abxab");
}

TEST(Generator, LiteralPattern) {
  auto re = Regex::compile("AT&T");
  auto samples = re->sample_matches(3, 1);
  ASSERT_EQ(samples.size(), 1u);  // only one distinct match exists
  EXPECT_EQ(samples[0], "AT&T");
}

}  // namespace
}  // namespace kq::regex
