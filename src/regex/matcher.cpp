// compile(), the backtracking layer, and the Regex entry points that pick a
// layer per question (regex.h has the division of labor).

#include <cstring>

#include "regex/node.h"
#include "regex/regex.h"

namespace kq::regex {
namespace detail {
namespace {

bool nullable(const Node& n) {
  switch (n.kind) {
    case Kind::kLiteral:
    case Kind::kAny:
    case Kind::kClass:
      return false;
    case Kind::kBolAnchor:
    case Kind::kEolAnchor:
    case Kind::kBackref:  // may have captured ""
      return true;
    case Kind::kStar:
      return n.min_repeat == 0 || nullable(*n.children[0]);
    case Kind::kGroup:
      return nullable(*n.children[0]);
    case Kind::kSeq:
      for (const NodePtr& c : n.children)
        if (!nullable(*c)) return false;
      return true;
    case Kind::kAlt:
      for (const NodePtr& c : n.children)
        if (nullable(*c)) return true;
      return false;
  }
  return true;
}

class ProgramBuilder {
 public:
  Program take() {
    emit({Inst::kMatch});
    return std::move(p_);
  }

  void build(const Node& n) {
    switch (n.kind) {
      case Kind::kLiteral:
      case Kind::kAny:
      case Kind::kClass:
        emit({Inst::kByte, 0, 0, -1, set_of(n)});
        return;
      case Kind::kBolAnchor:
        emit({Inst::kBol});
        return;
      case Kind::kEolAnchor:
        emit({Inst::kEol});
        return;
      case Kind::kBackref:
        emit({Inst::kBackref, n.index});
        return;
      case Kind::kGroup: {
        // A group past \9 cannot be referenced, so it captures nothing.
        const bool captures = n.index <= 9;
        const int start = captures ? p_.registers++ : 0;
        if (captures) emit({Inst::kMark, start});
        build(*n.children[0]);
        if (captures) emit({Inst::kCap, n.index, start});
        return;
      }
      case Kind::kSeq:
        for (const NodePtr& c : n.children) build(*c);
        return;
      case Kind::kAlt: {
        std::vector<int> to_end;
        to_end.reserve(n.children.size());
        for (std::size_t b = 0; b + 1 < n.children.size(); ++b) {
          const int split = emit({Inst::kSplit});
          build(*n.children[b]);
          to_end.push_back(emit({Inst::kJmp}));
          p_.code[static_cast<std::size_t>(split)].x = here();
        }
        build(*n.children.back());
        for (int j : to_end) p_.code[static_cast<std::size_t>(j)].x = here();
        return;
      }
      case Kind::kStar:
        build_repeat(n);
        return;
    }
  }

 private:
  // Greedy: one more repetition is tried before what follows. A repetition
  // of a one-byte atom is one kRun, which backtracks a byte at a time
  // without a stack entry per byte. An optional iteration that matched
  // empty is refused (its progress guard), which ends an empty loop; the
  // mandatory first iteration of \+ may match empty, as in POSIX.
  void build_repeat(const Node& n) {
    const Node& child = *n.children[0];
    if (is_atom(child)) {
      emit({Inst::kRun, 0, n.min_repeat, n.max_repeat, set_of(child)});
      return;
    }
    auto iteration = [&](bool optional) {
      const bool guard = optional && nullable(child);
      const int reg = guard ? p_.registers++ : 0;
      if (guard) emit({Inst::kMark, reg});
      build(child);
      if (guard) emit({Inst::kProgress, reg});
    };
    if (n.max_repeat == 1) {
      const int split = emit({Inst::kSplit});
      iteration(true);
      p_.code[static_cast<std::size_t>(split)].x = here();
      return;
    }
    if (n.min_repeat > 0) iteration(false);
    const int loop = emit({Inst::kSplit});
    iteration(true);
    emit({Inst::kJmp, loop});
    p_.code[static_cast<std::size_t>(loop)].x = here();
  }

  int emit(Inst i) {
    p_.code.push_back(i);
    return here() - 1;
  }
  int here() const { return static_cast<int>(p_.code.size()); }
  int set_of(const Node& n) {
    p_.sets.push_back(atom_set(n));
    return static_cast<int>(p_.sets.size()) - 1;
  }

  Program p_;
};

// One backtracking run per start offset, depth first in the order the
// program prefers. Undo entries restore registers and captures as the
// stack unwinds past them.
class Backtracker {
 public:
  Backtracker(const Program& program, std::string_view text,
              const std::string& pattern)
      : prog_(program), text_(text), pattern_(pattern),
        budget_(backtrack_budget(text.size())),
        regs_(static_cast<std::size_t>(program.registers)) {}

  // True with *m filled when a match begins at `start`. Every instruction,
  // every byte a kRun scans and every byte a kBackref compares is a step;
  // the runs from every start offset of the line share its budget.
  bool run(std::size_t start, Match* m) {
    caps_.fill({Match::kNpos, Match::kNpos});
    stack_.clear();
    stack_.push_back({Frame::kResume, 0, start, 0});
    while (!stack_.empty()) {
      Frame& f = stack_.back();
      int pc = f.index;
      std::size_t pos = f.a;
      switch (f.kind) {
        case Frame::kRegister:
          regs_[static_cast<std::size_t>(f.index)] = f.a;
          stack_.pop_back();
          continue;
        case Frame::kCapture:
          caps_[static_cast<std::size_t>(f.index)] = {f.a, f.b};
          stack_.pop_back();
          continue;
        case Frame::kResume:
          stack_.pop_back();
          break;
        case Frame::kRange:  // the longest run left first
          pos = f.b;
          if (f.b > f.a) {
            --f.b;
          } else {
            stack_.pop_back();
          }
          break;
      }
      if (thread(pc, pos)) {
        m->begin = start;
        m->end = end_;
        m->groups = caps_;
        return true;
      }
    }
    return false;
  }

 private:
  struct Frame {
    enum Kind : std::uint8_t { kResume, kRange, kRegister, kCapture } kind;
    int index;  // pc, register or group
    // The position; a run's range; the register's or the group's old value.
    std::size_t a, b;
  };

  bool thread(int pc, std::size_t pos) {
    const std::size_t n = text_.size();
    for (;;) {
      if (++steps_ > budget_) throw BudgetExceeded(pattern_, budget_, n);
      const Inst& in = prog_.code[static_cast<std::size_t>(pc)];
      switch (in.op) {
        case Inst::kByte:
          if (pos >= n || !in_set(in.set, text_[pos])) return false;
          ++pos;
          break;
        case Inst::kRun: {
          const std::size_t limit =
              in.max < 0 ? n
                         : std::min(n, pos + static_cast<std::size_t>(in.max));
          std::size_t end = pos;
          while (end < limit && in_set(in.set, text_[end])) ++end;
          steps_ += end - pos;
          const std::size_t least = pos + static_cast<std::size_t>(in.y);
          if (end < least) return false;
          if (end > least)
            stack_.push_back({Frame::kRange, pc + 1, least, end - 1});
          pos = end;
          break;
        }
        case Inst::kSplit:
          stack_.push_back({Frame::kResume, in.x, pos, 0});
          break;
        case Inst::kJmp:
          pc = in.x;
          continue;
        case Inst::kMark: {
          std::size_t& reg = regs_[static_cast<std::size_t>(in.x)];
          stack_.push_back({Frame::kRegister, in.x, reg, 0});
          reg = pos;
          break;
        }
        case Inst::kProgress:
          if (pos == regs_[static_cast<std::size_t>(in.x)]) return false;
          break;
        case Inst::kCap: {
          auto& cap = caps_[static_cast<std::size_t>(in.x)];
          stack_.push_back({Frame::kCapture, in.x, cap.first, cap.second});
          cap = {regs_[static_cast<std::size_t>(in.y)], pos};
          break;
        }
        case Inst::kBol:
          if (pos != 0) return false;
          break;
        case Inst::kEol:
          if (pos != n) return false;
          break;
        case Inst::kBackref: {
          auto [b, e] = caps_[static_cast<std::size_t>(in.x)];
          if (b == Match::kNpos) return false;  // unparticipating group
          if (e - b > n - pos) return false;
          steps_ += e - b;
          if (text_.substr(pos, e - b) != text_.substr(b, e - b)) return false;
          pos += e - b;
          break;
        }
        case Inst::kMatch:
          end_ = pos;
          return true;
      }
      ++pc;
    }
  }

  bool in_set(int set, char c) const {
    return prog_.sets[static_cast<std::size_t>(set)]
                     [static_cast<unsigned char>(c)];
  }

  const Program& prog_;
  std::string_view text_;
  const std::string& pattern_;
  const std::uint64_t budget_;
  std::uint64_t steps_ = 0;
  std::vector<std::size_t> regs_;
  std::array<std::pair<std::size_t, std::size_t>, 10> caps_{};
  std::vector<Frame> stack_;
  std::size_t end_ = 0;
};

// The leftmost-greedy matches of one line, in order: the reversed automaton
// marks where a match can begin, and the backtracker runs only there.
class Finder {
 public:
  Finder(const Compiled& c, std::string_view line, const std::string& pattern,
         int groups)
      : line_(line), vm_(c.program, line, pattern), groups_(groups) {
    if (!c.literal.text.empty() &&
        line.find(c.literal.text) == std::string_view::npos) {
      none_ = true;
    } else if (c.reverse) {
      c.reverse->mark_starts(line, &starts_);
    }
  }

  std::optional<Match> next(std::size_t from) {
    for (std::size_t s = from; !none_ && s <= line_.size(); ++s) {
      if (!starts_.empty()) {
        const void* hit =
            std::memchr(starts_.data() + s, 1, starts_.size() - s);
        if (!hit) break;
        s = static_cast<std::size_t>(static_cast<const std::uint8_t*>(hit) -
                                     starts_.data());
      }
      Match m;
      if (vm_.run(s, &m)) {
        m.group_count = groups_;
        return m;
      }
    }
    return std::nullopt;
  }

 private:
  std::string_view line_;
  Backtracker vm_;
  int groups_;
  bool none_ = false;
  std::vector<std::uint8_t> starts_;  // empty: every offset is a candidate
};

}  // namespace

Program compile_program(const Node& root) {
  ProgramBuilder b;
  b.build(root);
  return b.take();
}

}  // namespace detail

BudgetExceeded::BudgetExceeded(const std::string& pattern,
                               std::uint64_t budget, std::size_t line_size)
    : std::runtime_error([&] {
        std::string message = "pattern '";
        message += pattern;
        message += "' needs more than ";
        message += std::to_string(budget);
        message += " backtracking steps on a line of ";
        message += std::to_string(line_size);
        message += " bytes";
        return message;
      }()) {}

Regex::Regex() = default;
Regex::Regex(Regex&&) noexcept = default;
Regex& Regex::operator=(Regex&&) noexcept = default;
Regex::~Regex() = default;

std::optional<Regex> Regex::compile(std::string_view pattern,
                                    std::string* error) {
  int groups = 0;
  auto root = detail::parse(pattern, &groups, error);
  if (!root) return std::nullopt;
  auto c = std::make_shared<detail::Compiled>();
  c->literal = detail::required_literal(*root);
  c->forward = detail::Automaton::build(*root, /*reverse=*/false);
  c->reverse = detail::Automaton::build(*root, /*reverse=*/true);
  c->program = detail::compile_program(*root);
  Regex re;
  re.pattern_ = std::string(pattern);
  re.root_ = std::move(root);
  re.compiled_ = std::move(c);
  re.group_count_ = groups;
  return re;
}

const std::string& Regex::required_literal() const {
  return compiled_->literal.text;
}

bool Regex::literal_only() const { return compiled_->literal.whole; }

bool Regex::search(std::string_view line) const {
  const detail::Compiled& c = *compiled_;
  if (!c.literal.text.empty() &&
      line.find(c.literal.text) == std::string_view::npos)
    return false;
  if (c.literal.whole) return true;
  if (c.forward) return c.forward->search(line);
  return detail::Finder(c, line, pattern_, group_count_).next(0).has_value();
}

std::optional<Match> Regex::find(std::string_view line,
                                 std::size_t from) const {
  return detail::Finder(*compiled_, line, pattern_, group_count_).next(from);
}

namespace {

// Expands a sed-style replacement: & is the whole match, \1..\9 captures,
// \\ a literal backslash, \n a newline, \& a literal ampersand.
void expand_replacement(std::string& out, std::string_view replacement,
                        std::string_view text, const Match& m) {
  for (std::size_t i = 0; i < replacement.size(); ++i) {
    char c = replacement[i];
    if (c == '&') {
      out.append(text.substr(m.begin, m.end - m.begin));
    } else if (c == '\\' && i + 1 < replacement.size()) {
      char e = replacement[++i];
      if (e >= '1' && e <= '9') {
        out.append(m.group(text, e - '0'));
      } else if (e == 'n') {
        out.push_back('\n');
      } else if (e == 't') {
        out.push_back('\t');
      } else {
        out.push_back(e);
      }
    } else {
      out.push_back(c);
    }
  }
}

}  // namespace

std::string Regex::replace(std::string_view line, std::string_view replacement,
                           bool global, bool* replaced) const {
  detail::Finder finder(*compiled_, line, pattern_, group_count_);
  std::string out;
  std::size_t pos = 0;
  std::size_t last_end = std::string_view::npos;  // the last match's end
  bool any = false;
  while (pos <= line.size()) {
    auto m = finder.next(pos);
    if (!m) break;
    if (m->begin == m->end && m->begin == last_end) {
      // An empty match where the last match ended is no match, as in POSIX
      // and GNU sed: `s/a*/X/g` makes `baaac` `XbXcX`.
      if (pos < line.size()) out.push_back(line[pos]);
      ++pos;
      continue;
    }
    last_end = m->end;
    out.append(line.substr(pos, m->begin - pos));
    expand_replacement(out, replacement, line, *m);
    any = true;
    if (m->end == m->begin) {
      // Empty-width match: emit the next character to guarantee progress.
      if (m->end < line.size()) out.push_back(line[m->end]);
      pos = m->end + 1;
    } else {
      pos = m->end;
    }
    if (!global) break;
  }
  if (pos <= line.size()) out.append(line.substr(pos));
  if (replaced) *replaced = any;
  return out;
}

}  // namespace kq::regex
