// Facts read off the AST: one-byte atoms, backreferences, and the required
// literal grep searches a block for before any line is checked.

#include <algorithm>

#include "regex/node.h"

namespace kq::regex::detail {
namespace {

// What every match of a subtree is known to hold.
struct Info {
  bool exact = false;   // every match is `text` (anchors aside)
  bool plain = true;    // no anchor constrains where it may match
  std::string text;     // when exact
  std::string prefix;   // every match starts with it
  std::string suffix;   // every match ends with it
  std::string factor;   // every match contains it (the longest found)
};

void keep_longer(std::string& best, std::string candidate) {
  if (candidate.size() > best.size()) best = std::move(candidate);
}

Info exactly(std::string text, bool plain) {
  Info i;
  i.exact = true;
  i.plain = plain;
  i.text = i.prefix = i.suffix = i.factor = std::move(text);
  return i;
}

Info analyze(const Node& n) {
  switch (n.kind) {
    case Kind::kLiteral:
      return exactly(std::string(1, n.ch), true);
    case Kind::kClass:
      if (n.cls.count() == 1) {
        std::size_t b = 0;
        while (!n.cls[b]) ++b;
        return exactly(std::string(1, static_cast<char>(b)), true);
      }
      return {};
    case Kind::kAny:
    case Kind::kBackref:
      return {};
    case Kind::kBolAnchor:
    case Kind::kEolAnchor:
      return exactly("", false);  // zero-width: literals run through it
    case Kind::kGroup:
      return analyze(*n.children[0]);
    case Kind::kStar: {
      Info child = analyze(*n.children[0]);
      if (child.exact && child.text.empty()) return child;
      Info i;
      i.plain = child.plain;
      if (n.min_repeat > 0) {  // x\+ starts and ends as x does
        i.prefix = child.prefix;
        i.suffix = child.suffix;
        i.factor = child.factor;
      }
      return i;
    }
    case Kind::kAlt: {
      Info i = analyze(*n.children[0]);
      if (n.children.size() == 1) return i;
      for (std::size_t b = 1; b < n.children.size(); ++b) {
        Info branch = analyze(*n.children[b]);
        i.plain = i.plain && branch.plain;
        i.exact = i.exact && branch.exact && branch.text == i.text;
        auto p = std::mismatch(i.prefix.begin(), i.prefix.end(),
                               branch.prefix.begin(), branch.prefix.end());
        i.prefix.erase(p.first, i.prefix.end());
        auto s = std::mismatch(i.suffix.rbegin(), i.suffix.rend(),
                               branch.suffix.rbegin(), branch.suffix.rend());
        i.suffix.erase(i.suffix.begin(), s.first.base());
      }
      if (!i.exact) {
        i.text.clear();
        i.factor = i.prefix.size() >= i.suffix.size() ? i.prefix : i.suffix;
      }
      return i;
    }
    case Kind::kSeq: {
      Info i = exactly("", true);
      std::string run;  // the literal bytes that end at this point
      for (const NodePtr& c : n.children) {
        Info child = analyze(*c);
        i.plain = i.plain && child.plain;
        if (child.exact) {
          run += child.text;
          if (i.exact) i.text += child.text;
          continue;
        }
        keep_longer(i.factor, run + child.prefix);
        keep_longer(i.factor, child.factor);
        if (i.exact) i.prefix = i.text + child.prefix;
        i.exact = false;
        run = child.suffix;
      }
      if (i.exact) return exactly(i.text, i.plain);
      keep_longer(i.factor, run);
      i.text.clear();
      i.suffix = run;
      return i;
    }
  }
  return {};
}

}  // namespace

bool is_atom(const Node& n) {
  return n.kind == Kind::kLiteral || n.kind == Kind::kAny ||
         n.kind == Kind::kClass;
}

ByteSet atom_set(const Node& n) {
  ByteSet s;
  if (n.kind == Kind::kLiteral) {
    s.set(static_cast<unsigned char>(n.ch));
  } else if (n.kind == Kind::kAny) {
    s.set();
    s.reset(static_cast<unsigned char>('\n'));
  } else {
    s = n.cls;
  }
  return s;
}

bool has_backref(const Node& n) {
  if (n.kind == Kind::kBackref) return true;
  for (const NodePtr& c : n.children)
    if (has_backref(*c)) return true;
  return false;
}

RequiredLiteral required_literal(const Node& root) {
  Info i = analyze(root);
  if (i.exact) return {i.text, i.plain};
  return {i.factor, false};
}

}  // namespace kq::regex::detail
