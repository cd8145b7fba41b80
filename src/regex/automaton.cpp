// The automaton layer: a Thompson NFA over byte sets, determinized eagerly
// into a transition table over byte classes (bytes no pattern set tells
// apart share a column). Past kMaxDfaStates the table is dropped and the
// NFA is simulated one state set per byte instead: slower, still one pass.

#include <algorithm>
#include <map>

#include "regex/node.h"

namespace kq::regex::detail {
namespace {

constexpr std::size_t kMaxDfaStates = 1024;
constexpr std::uint8_t kMatchNow = 1;    // a match ends here
constexpr std::uint8_t kMatchAtEnd = 2;  // one ends here if the text does
constexpr std::uint32_t kDead = 0;       // no match can end later
constexpr std::uint32_t kMatched = 1;    // forward search: a match ended
constexpr std::uint32_t kStart = 2;      // the scan's first position

// The match state is NFA state 0; sets are sorted.
bool holds_match(const std::vector<int>& set) {
  return std::binary_search(set.begin(), set.end(), 0);
}

}  // namespace

int Automaton::add(State s) {
  states_.push_back(s);
  return static_cast<int>(states_.size()) - 1;
}

// Compiles `n` followed by state `next`, returning its entry. Reversed, a
// sequence runs back to front and ^ and $ trade places, so the automaton
// reads the text from its end.
int Automaton::compile(const Node& n, int next, bool reverse) {
  switch (n.kind) {
    case Kind::kLiteral:
    case Kind::kAny:
    case Kind::kClass:
      sets_.push_back(atom_set(n));
      return add({State::kByte, next, -1, static_cast<int>(sets_.size()) - 1});
    case Kind::kBolAnchor:
      return add({reverse ? State::kEol : State::kBol, next});
    case Kind::kEolAnchor:
      return add({reverse ? State::kBol : State::kEol, next});
    case Kind::kGroup:
      return compile(*n.children[0], next, reverse);
    case Kind::kSeq:
      if (reverse) {
        for (const NodePtr& c : n.children) next = compile(*c, next, reverse);
      } else {
        for (auto c = n.children.rbegin(); c != n.children.rend(); ++c)
          next = compile(**c, next, reverse);
      }
      return next;
    case Kind::kAlt: {
      int entry = compile(*n.children.back(), next, reverse);
      for (std::size_t b = n.children.size() - 1; b-- > 0;)
        entry = add({State::kSplit, compile(*n.children[b], next, reverse),
                     entry});
      return entry;
    }
    case Kind::kStar: {
      if (n.max_repeat == 1)
        return add({State::kSplit,
                    compile(*n.children[0], next, reverse), next});
      const int loop = add({State::kSplit, -1, next});
      const int body = compile(*n.children[0], loop, reverse);
      states_[static_cast<std::size_t>(loop)].out = body;
      return n.min_repeat > 0 ? body : loop;
    }
    case Kind::kBackref:
      break;  // build() refuses such trees
  }
  return next;
}

// The epsilon closure of `seeds`: the byte-consuming states and the match
// state it reaches, plus any $ not yet known to hold (kept, so the end of
// the text can follow it). ^ is followed only at the scan's first position.
void Automaton::close(const StateSet& seeds, bool at_bol, bool at_eol,
                      std::vector<std::uint32_t>& seen, std::uint32_t stamp,
                      StateSet* out) const {
  out->clear();
  StateSet stack(seeds.rbegin(), seeds.rend());
  while (!stack.empty()) {
    const int s = stack.back();
    stack.pop_back();
    auto& mark = seen[static_cast<std::size_t>(s)];
    if (mark == stamp) continue;
    mark = stamp;
    const State& st = states_[static_cast<std::size_t>(s)];
    switch (st.op) {
      case State::kByte:
      case State::kMatch:
        out->push_back(s);
        break;
      case State::kSplit:
        stack.push_back(st.out1);
        stack.push_back(st.out);
        break;
      case State::kBol:
        if (at_bol) stack.push_back(st.out);
        break;
      case State::kEol:
        if (at_eol) {
          stack.push_back(st.out);
        } else {
          out->push_back(s);
        }
        break;
    }
  }
  std::sort(out->begin(), out->end());
}

// One byte: every state of `from` that accepts it advances, and a new match
// may start after it (the search is unanchored).
void Automaton::step(const StateSet& from, unsigned char byte,
                     std::vector<std::uint32_t>& seen, std::uint32_t stamp,
                     StateSet* out) const {
  StateSet seeds;
  for (int s : from) {
    const State& st = states_[static_cast<std::size_t>(s)];
    if (st.op == State::kByte && sets_[static_cast<std::size_t>(st.set)][byte])
      seeds.push_back(st.out);
  }
  seeds.push_back(start_);
  close(seeds, /*at_bol=*/false, /*at_eol=*/false, seen, stamp, out);
}

// Whether a match ends here (kMatchNow), and whether one does if the text
// ends here too, where $ holds (kMatchAtEnd).
std::uint8_t Automaton::flags_of(const StateSet& t, bool at_bol,
                                 std::vector<std::uint32_t>& seen,
                                 std::uint32_t stamp) const {
  StateSet end;
  close(t, at_bol, /*at_eol=*/true, seen, stamp, &end);
  return static_cast<std::uint8_t>((holds_match(t) ? kMatchNow : 0) |
                                   (holds_match(end) ? kMatchAtEnd : 0));
}

void Automaton::build_classes() {
  std::map<std::vector<bool>, std::uint8_t> ids;
  for (std::size_t b = 0; b < 256; ++b) {
    std::vector<bool> signature;
    signature.reserve(sets_.size());
    for (const ByteSet& s : sets_) signature.push_back(s[b]);
    class_of_[b] =
        ids.emplace(std::move(signature), static_cast<std::uint8_t>(ids.size()))
            .first->second;
  }
  classes_ = ids.size();
}

bool Automaton::build_dfa(bool stop_at_match) {
  std::vector<std::uint32_t> seen(states_.size(), 0);
  std::uint32_t stamp = 0;
  std::vector<StateSet> sets = {{}, {}};  // kDead, kMatched
  flags_ = {0, kMatchNow | kMatchAtEnd};
  std::map<StateSet, std::uint32_t> ids = {{StateSet{}, kDead}};
  StateSet t;
  close({start_}, /*at_bol=*/true, /*at_eol=*/false, seen, ++stamp, &t);
  flags_.push_back(flags_of(t, /*at_bol=*/true, seen, ++stamp));
  sets.push_back(std::move(t));
  std::array<unsigned char, 256> representative{};
  for (std::size_t b = 256; b-- > 0;)
    representative[class_of_[b]] = static_cast<unsigned char>(b);
  next_.assign(3 * classes_, 0);
  std::fill_n(next_.begin() + static_cast<std::ptrdiff_t>(classes_),
              classes_, kMatched);
  for (std::size_t id = kStart; id < sets.size(); ++id) {
    for (std::size_t c = 0; c < classes_; ++c) {
      StateSet u;
      step(sets[id], representative[c], seen, ++stamp, &u);
      std::uint32_t target;
      if (stop_at_match && holds_match(u)) {
        target = kMatched;
      } else if (auto it = ids.find(u); it != ids.end()) {
        target = it->second;
      } else {
        if (sets.size() == kMaxDfaStates) return false;
        target = static_cast<std::uint32_t>(sets.size());
        ids.emplace(u, target);
        flags_.push_back(flags_of(u, /*at_bol=*/false, seen, ++stamp));
        sets.push_back(std::move(u));
        next_.resize(sets.size() * classes_, 0);
      }
      next_[id * classes_ + c] = target;
    }
  }
  return true;
}

std::unique_ptr<Automaton> Automaton::build(const Node& root, bool reverse) {
  if (has_backref(root)) return nullptr;
  std::unique_ptr<Automaton> a(new Automaton());
  a->add({State::kMatch});  // state 0
  a->start_ = a->compile(root, 0, reverse);
  a->build_classes();
  if (!a->build_dfa(/*stop_at_match=*/!reverse)) {
    a->next_.clear();
    a->flags_.clear();
  }
  return a;
}

bool Automaton::search(std::string_view line) const {
  if (has_dfa()) {
    const std::uint32_t* next = next_.data();
    const std::size_t k = classes_;
    std::uint32_t s = kStart;
    if (flags_[s] & kMatchNow) return true;  // a match before any byte
    for (char c : line) {
      if (s <= kMatched) return s == kMatched;
      s = next[s * k + class_of_[static_cast<unsigned char>(c)]];
    }
    return flags_[s] != 0;
  }
  std::vector<std::uint32_t> seen(states_.size(), 0);
  std::uint32_t stamp = 0;
  StateSet t, u;
  close({start_}, /*at_bol=*/true, /*at_eol=*/false, seen, ++stamp, &t);
  for (char c : line) {
    if (holds_match(t)) return true;
    step(t, static_cast<unsigned char>(c), seen, ++stamp, &u);
    t.swap(u);
  }
  return flags_of(t, line.empty(), seen, ++stamp) != 0;
}

void Automaton::mark_starts(std::string_view line,
                            std::vector<std::uint8_t>* starts) const {
  const std::size_t n = line.size();
  starts->assign(n + 1, 0);
  // Reading back from the end, a match of the reversed pattern ending at i
  // is a match of the pattern starting at i; the text's start is position 0.
  auto starts_here = [n](std::size_t i, std::uint8_t flags) {
    return (flags & (i == 0 ? kMatchNow | kMatchAtEnd : kMatchNow)) != 0;
  };
  if (has_dfa()) {
    std::uint32_t s = kStart;
    (*starts)[n] = starts_here(n, flags_[s]);
    for (std::size_t i = n; i-- > 0;) {
      s = next_[s * classes_ + class_of_[static_cast<unsigned char>(line[i])]];
      if (s == kDead) return;
      (*starts)[i] = starts_here(i, flags_[s]);
    }
    return;
  }
  std::vector<std::uint32_t> seen(states_.size(), 0);
  std::uint32_t stamp = 0;
  StateSet t, u;
  close({start_}, /*at_bol=*/true, /*at_eol=*/false, seen, ++stamp, &t);
  (*starts)[n] = starts_here(n, flags_of(t, true, seen, ++stamp));
  for (std::size_t i = n; i-- > 0;) {
    step(t, static_cast<unsigned char>(line[i]), seen, ++stamp, &u);
    t.swap(u);
    if (t.empty()) return;
    (*starts)[i] = starts_here(i, flags_of(t, false, seen, ++stamp));
  }
}

}  // namespace kq::regex::detail
