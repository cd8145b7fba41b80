// Built-in micro-awk covering the programs in the benchmark suite:
// pattern-only rules ($1 >= 1000, length >= 16, 1), print actions with
// field/NF/$0 expressions and OFS joining, record-rebuilding assignments
// ({$1=$1}), -v OFS=... pre-assignments, and ';'-separated rules. A
// program outside that subset is refused, never run with a guessed
// meaning: one that names another keyword, built-in function or built-in
// variable, or redirects a print's output.
//
// Field semantics follow awk defaults: records split on runs of blanks with
// leading blanks ignored; assigning any field rebuilds $0 joined by OFS.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>

#include "text/streams.h"
#include "unixcmd/builtins.h"

namespace kq::cmd {
namespace {

// ---------------------------------------------------------------- values --

struct Value {
  std::string str;
  double num = 0;
  bool numeric = false;  // a number literal / NF / length / numeric-string

  static Value number(double d) {
    Value v;
    v.num = d;
    v.numeric = true;
    return v;
  }
  static Value text(std::string s, bool strnum) {
    Value v;
    v.str = std::move(s);
    if (strnum) {
      v.numeric = true;
      v.num = std::strtod(v.str.c_str(), nullptr);
    }
    return v;
  }

  std::string to_output() const {
    if (!str.empty() || !numeric) return str;
    double intpart;
    if (std::modf(num, &intpart) == 0.0 && std::abs(num) < 1e15) {
      return std::to_string(static_cast<long long>(num));
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", num);
    return buf;
  }
};

bool looks_numeric(std::string_view s) {
  std::size_t i = 0;
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  std::size_t start = i;
  if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
  bool digits = false;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
    ++i;
    digits = true;
  }
  if (i < s.size() && s[i] == '.') {
    ++i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
      ++i;
      digits = true;
    }
  }
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  return digits && i == s.size() && start < s.size();
}

// ---------------------------------------------------------------- record --

class Record {
 public:
  explicit Record(std::string_view line) : line_(line) {}

  const std::string& whole(const std::string& ofs) {
    if (rebuilt_) rebuild(ofs);
    return line_;
  }

  std::string field(std::size_t n, const std::string& ofs) {
    if (n == 0) return whole(ofs);
    split();
    return n <= fields_.size() ? fields_[n - 1] : std::string();
  }

  std::size_t nf() {
    split();
    return fields_.size();
  }

  void assign_field(std::size_t n, std::string value) {
    split();
    if (n == 0) {
      line_ = std::move(value);
      split_done_ = false;
      fields_.clear();
      rebuilt_ = false;
      return;
    }
    if (n > fields_.size()) fields_.resize(n);
    fields_[n - 1] = std::move(value);
    rebuilt_ = true;
  }

 private:
  void split() {
    if (split_done_) return;
    split_done_ = true;
    fields_.clear();
    std::size_t i = 0;
    while (i < line_.size()) {
      while (i < line_.size() && (line_[i] == ' ' || line_[i] == '\t')) ++i;
      if (i >= line_.size()) break;
      std::size_t start = i;
      while (i < line_.size() && line_[i] != ' ' && line_[i] != '\t') ++i;
      fields_.emplace_back(line_.substr(start, i - start));
    }
  }

  void rebuild(const std::string& ofs) {
    std::string out;
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ofs;
      out += fields_[i];
    }
    line_ = std::move(out);
    rebuilt_ = false;
  }

  std::string line_;
  std::vector<std::string> fields_;
  bool split_done_ = false;
  bool rebuilt_ = false;
};

// Names awk gives a meaning this subset does not implement: its keywords,
// built-in functions and built-in variables, but for print, length and NF.
// Read as plain variables they would be "", and `END {print NR}` would
// print nothing with status 0.
bool unsupported_name(std::string_view name) {
  static constexpr std::string_view kNames[] = {
      "BEGIN", "END", "BEGINFILE", "ENDFILE", "function", "func", "if",
      "else", "while", "for", "do", "break", "continue", "next", "nextfile",
      "exit", "return", "delete", "in", "getline", "print", "printf",
      "substr", "index", "split", "sub", "gsub", "gensub", "match",
      "sprintf", "sin", "cos", "atan2", "exp", "log", "sqrt", "int", "rand",
      "srand", "tolower", "toupper", "system", "close", "fflush", "systime",
      "strftime", "asort", "asorti", "NR", "FNR", "FS", "OFS", "ORS", "RS",
      "RT", "FILENAME", "SUBSEP", "RSTART", "RLENGTH", "CONVFMT", "OFMT",
      "ENVIRON", "ARGC", "ARGV", "FPAT", "FIELDWIDTHS", "IGNORECASE",
      "PROCINFO", "ERRNO"};
  return std::find(std::begin(kNames), std::end(kNames), name) !=
         std::end(kNames);
}

// ------------------------------------------------------------------- ast --

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind { kNumber, kString, kField, kNf, kLength, kVar, kCompare };
  Kind kind;
  double number = 0;
  std::string text;        // kString literal / kVar name / kCompare operator
  ExprPtr lhs, rhs;        // kField index in lhs; kCompare operands
};

struct Statement {
  enum class Kind { kPrint, kAssignField, kExpr };
  Kind kind;
  std::vector<ExprPtr> args;  // print arguments
  ExprPtr target_index;       // assignment: field index
  ExprPtr value;              // assignment RHS / expression statement
};

struct Rule {
  ExprPtr pattern;  // null = match every record
  std::vector<Statement> action;
  bool has_action = false;  // pattern-only rules print $0
};

// ----------------------------------------------------------------- lexer --

struct Token {
  enum class Kind {
    kNumber, kString, kDollar, kIdent, kOp, kLbrace, kRbrace, kSemi,
    kComma, kEnd
  };
  Kind kind;
  double number = 0;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) { advance(); }

  const Token& peek() const { return tok_; }
  Token take() {
    Token t = tok_;
    advance();
    return t;
  }

  bool failed() const { return failed_; }

 private:
  void advance() {
    while (pos_ < src_.size() &&
           (src_[pos_] == ' ' || src_[pos_] == '\t' || src_[pos_] == '\n'))
      ++pos_;
    if (pos_ >= src_.size()) {
      tok_ = {Token::Kind::kEnd, 0, ""};
      return;
    }
    char c = src_[pos_];
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && pos_ + 1 < src_.size() &&
         std::isdigit(static_cast<unsigned char>(src_[pos_ + 1])))) {
      std::size_t end = pos_;
      while (end < src_.size() &&
             (std::isdigit(static_cast<unsigned char>(src_[end])) ||
              src_[end] == '.'))
        ++end;
      tok_ = {Token::Kind::kNumber,
              std::strtod(std::string(src_.substr(pos_, end - pos_)).c_str(),
                          nullptr),
              ""};
      pos_ = end;
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t end = pos_;
      while (end < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[end])) ||
              src_[end] == '_'))
        ++end;
      tok_ = {Token::Kind::kIdent, 0,
              std::string(src_.substr(pos_, end - pos_))};
      pos_ = end;
      return;
    }
    switch (c) {
      case '$': tok_ = {Token::Kind::kDollar, 0, ""}; ++pos_; return;
      case '{': tok_ = {Token::Kind::kLbrace, 0, ""}; ++pos_; return;
      case '}': tok_ = {Token::Kind::kRbrace, 0, ""}; ++pos_; return;
      case ';': tok_ = {Token::Kind::kSemi, 0, ""}; ++pos_; return;
      case ',': tok_ = {Token::Kind::kComma, 0, ""}; ++pos_; return;
      case '"': {
        std::string text;
        ++pos_;
        while (pos_ < src_.size() && src_[pos_] != '"') {
          if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) {
            char e = src_[pos_ + 1];
            text.push_back(e == 'n' ? '\n' : e == 't' ? '\t' : e);
            pos_ += 2;
          } else {
            text.push_back(src_[pos_]);
            ++pos_;
          }
        }
        if (pos_ >= src_.size()) {
          failed_ = true;
          tok_ = {Token::Kind::kEnd, 0, ""};
          return;
        }
        ++pos_;
        tok_ = {Token::Kind::kString, 0, std::move(text)};
        return;
      }
      default: break;
    }
    // Operators: >= <= == != > < =
    for (std::string_view op : {">=", "<=", "==", "!="}) {
      if (src_.substr(pos_, 2) == op) {
        tok_ = {Token::Kind::kOp, 0, std::string(op)};
        pos_ += 2;
        return;
      }
    }
    if (c == '>' || c == '<' || c == '=') {
      tok_ = {Token::Kind::kOp, 0, std::string(1, c)};
      ++pos_;
      return;
    }
    failed_ = true;
    tok_ = {Token::Kind::kEnd, 0, ""};
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  Token tok_;
  bool failed_ = false;
};

// ---------------------------------------------------------------- parser --

class Parser {
 public:
  explicit Parser(std::string_view src) : lex_(src) {}

  std::optional<std::vector<Rule>> parse() {
    std::vector<Rule> rules;
    while (lex_.peek().kind != Token::Kind::kEnd) {
      if (lex_.peek().kind == Token::Kind::kSemi) {
        lex_.take();
        continue;
      }
      Rule rule;
      if (lex_.peek().kind != Token::Kind::kLbrace) {
        rule.pattern = parse_expr();
        if (!rule.pattern) return std::nullopt;
      }
      if (lex_.peek().kind == Token::Kind::kLbrace) {
        lex_.take();
        rule.has_action = true;
        while (lex_.peek().kind != Token::Kind::kRbrace) {
          if (lex_.peek().kind == Token::Kind::kEnd) return std::nullopt;
          if (lex_.peek().kind == Token::Kind::kSemi) {
            lex_.take();
            continue;
          }
          auto stmt = parse_statement();
          if (!stmt) return std::nullopt;
          rule.action.push_back(std::move(*stmt));
        }
        lex_.take();  // consume '}'
      }
      if (!rule.pattern && !rule.has_action) return std::nullopt;
      rules.push_back(std::move(rule));
    }
    if (lex_.failed() || rules.empty()) return std::nullopt;
    return rules;
  }

 private:
  std::optional<Statement> parse_statement() {
    if (lex_.peek().kind == Token::Kind::kIdent &&
        lex_.peek().text == "print") {
      lex_.take();
      Statement stmt;
      stmt.kind = Statement::Kind::kPrint;
      if (lex_.peek().kind != Token::Kind::kSemi &&
          lex_.peek().kind != Token::Kind::kRbrace) {
        while (true) {
          ExprPtr e = parse_expr();
          if (!e) return std::nullopt;
          // awk reads a top-level '>' in a print list as output
          // redirection (mawk reads `>=` there the same way).
          if (e->kind == Expr::Kind::kCompare && e->text[0] == '>')
            return std::nullopt;
          stmt.args.push_back(std::move(e));
          if (lex_.peek().kind == Token::Kind::kComma) {
            lex_.take();
            continue;
          }
          break;
        }
      }
      return stmt;
    }
    if (lex_.peek().kind == Token::Kind::kDollar) {
      lex_.take();
      ExprPtr index = parse_primary();
      if (!index) return std::nullopt;
      if (lex_.peek().kind == Token::Kind::kOp && lex_.peek().text == "=") {
        lex_.take();
        ExprPtr value = parse_expr();
        if (!value) return std::nullopt;
        Statement stmt;
        stmt.kind = Statement::Kind::kAssignField;
        stmt.target_index = std::move(index);
        stmt.value = std::move(value);
        return stmt;
      }
      // Bare field expression statement ($1;): evaluate and discard.
      auto field = std::make_unique<Expr>();
      field->kind = Expr::Kind::kField;
      field->lhs = std::move(index);
      Statement stmt;
      stmt.kind = Statement::Kind::kExpr;
      stmt.value = finish_compare(std::move(field));
      if (!stmt.value) return std::nullopt;
      return stmt;
    }
    ExprPtr e = parse_expr();
    if (!e) return std::nullopt;
    Statement stmt;
    stmt.kind = Statement::Kind::kExpr;
    stmt.value = std::move(e);
    return stmt;
  }

  ExprPtr parse_expr() {
    ExprPtr lhs = parse_primary();
    if (!lhs) return nullptr;
    return finish_compare(std::move(lhs));
  }

  ExprPtr finish_compare(ExprPtr lhs) {
    if (lex_.peek().kind == Token::Kind::kOp && lex_.peek().text != "=") {
      std::string op = lex_.take().text;
      ExprPtr rhs = parse_primary();
      if (!rhs) return nullptr;
      auto cmp = std::make_unique<Expr>();
      cmp->kind = Expr::Kind::kCompare;
      cmp->text = std::move(op);
      cmp->lhs = std::move(lhs);
      cmp->rhs = std::move(rhs);
      return cmp;
    }
    return lhs;
  }

  ExprPtr parse_primary() {
    const Token& t = lex_.peek();
    switch (t.kind) {
      case Token::Kind::kNumber: {
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kNumber;
        e->number = lex_.take().number;
        return e;
      }
      case Token::Kind::kString: {
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kString;
        e->text = lex_.take().text;
        return e;
      }
      case Token::Kind::kDollar: {
        lex_.take();
        ExprPtr index = parse_primary();
        if (!index) return nullptr;
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kField;
        e->lhs = std::move(index);
        return e;
      }
      case Token::Kind::kIdent: {
        std::string name = lex_.take().text;
        if (name != "NF" && name != "length" && unsupported_name(name))
          return nullptr;
        auto e = std::make_unique<Expr>();
        if (name == "NF") {
          e->kind = Expr::Kind::kNf;
        } else if (name == "length") {
          e->kind = Expr::Kind::kLength;
        } else {
          e->kind = Expr::Kind::kVar;
          e->text = std::move(name);
        }
        return e;
      }
      default:
        return nullptr;
    }
  }

  Lexer lex_;
};

// ------------------------------------------------------------ evaluation --

class AwkProgram {
 public:
  AwkProgram(std::vector<Rule> rules,
             std::map<std::string, std::string> vars)
      : rules_(std::move(rules)), vars_(std::move(vars)) {
    if (!vars_.count("OFS")) vars_["OFS"] = " ";
  }

  std::string run(std::string_view input) const {
    std::string out;
    for (std::string_view line : text::lines(input)) {
      Record rec(line);
      for (const Rule& rule : rules_) {
        bool matched = true;
        if (rule.pattern) matched = truthy(eval(*rule.pattern, rec));
        if (!matched) continue;
        if (!rule.has_action) {
          out += rec.whole(ofs());
          out.push_back('\n');
          continue;
        }
        for (const Statement& stmt : rule.action) exec(stmt, rec, out);
      }
    }
    return out;
  }

 private:
  const std::string& ofs() const { return vars_.at("OFS"); }

  static bool truthy(const Value& v) {
    if (v.numeric && v.str.empty()) return v.num != 0;
    return !v.str.empty();
  }

  Value eval(const Expr& e, Record& rec) const {
    switch (e.kind) {
      case Expr::Kind::kNumber:
        return Value::number(e.number);
      case Expr::Kind::kString:
        return Value::text(e.text, false);
      case Expr::Kind::kNf:
        return Value::number(static_cast<double>(rec.nf()));
      case Expr::Kind::kLength:
        return Value::number(static_cast<double>(rec.whole(ofs()).size()));
      case Expr::Kind::kVar: {
        auto it = vars_.find(e.text);
        std::string v = it == vars_.end() ? std::string() : it->second;
        return Value::text(std::move(v), false);
      }
      case Expr::Kind::kField: {
        Value idx = eval(*e.lhs, rec);
        std::size_t n = static_cast<std::size_t>(idx.num);
        std::string f = rec.field(n, ofs());
        bool strnum = looks_numeric(f);
        return Value::text(std::move(f), strnum);
      }
      case Expr::Kind::kCompare: {
        Value a = eval(*e.lhs, rec);
        Value b = eval(*e.rhs, rec);
        int c;
        if (a.numeric && b.numeric) {
          c = a.num < b.num ? -1 : a.num > b.num ? 1 : 0;
        } else {
          std::string sa = a.to_output(), sb = b.to_output();
          c = sa < sb ? -1 : sa > sb ? 1 : 0;
        }
        bool r = e.text == ">=" ? c >= 0
               : e.text == "<=" ? c <= 0
               : e.text == "==" ? c == 0
               : e.text == "!=" ? c != 0
               : e.text == ">" ? c > 0
               : c < 0;
        return Value::number(r ? 1 : 0);
      }
    }
    return Value::number(0);
  }

  void exec(const Statement& stmt, Record& rec, std::string& out) const {
    switch (stmt.kind) {
      case Statement::Kind::kPrint: {
        if (stmt.args.empty()) {
          out += rec.whole(ofs());
        } else {
          for (std::size_t i = 0; i < stmt.args.size(); ++i) {
            if (i != 0) out += ofs();
            out += eval(*stmt.args[i], rec).to_output();
          }
        }
        out.push_back('\n');
        break;
      }
      case Statement::Kind::kAssignField: {
        Value idx = eval(*stmt.target_index, rec);
        Value v = eval(*stmt.value, rec);
        rec.assign_field(static_cast<std::size_t>(idx.num), v.to_output());
        break;
      }
      case Statement::Kind::kExpr:
        (void)eval(*stmt.value, rec);
        break;
    }
  }

  std::vector<Rule> rules_;
  std::map<std::string, std::string> vars_;
};

class AwkCommand final : public Command {
 public:
  AwkCommand(std::string name, AwkProgram program)
      : Command(std::move(name)), program_(std::move(program)) {}

  Result execute(std::string_view input) const override {
    return {program_.run(input), 0, {}};
  }

 private:
  AwkProgram program_;
};

std::string unescape_assignment_value(std::string_view v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] == '\\' && i + 1 < v.size()) {
      char e = v[++i];
      out.push_back(e == 'n' ? '\n' : e == 't' ? '\t' : e);
    } else {
      out.push_back(v[i]);
    }
  }
  return out;
}

}  // namespace

CommandPtr make_awk(const Argv& argv, std::string* error) {
  std::map<std::string, std::string> vars;
  std::string program_text;
  bool have_program = false;
  for (std::size_t i = 1; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (a == "-v") {
      if (i + 1 >= argv.size()) {
        if (error) *error = "awk: -v needs an assignment";
        return nullptr;
      }
      const std::string& assignment = argv[++i];
      std::size_t eq = assignment.find('=');
      if (eq == std::string::npos) {
        if (error) *error = "awk: bad -v assignment";
        return nullptr;
      }
      // OFS is the one built-in variable the subset implements (FS, say,
      // would be ignored and every field split on blanks).
      const std::string name = assignment.substr(0, eq);
      if (name != "OFS" && unsupported_name(name)) {
        if (error) (*error = "awk: unsupported -v ").append(name);
        return nullptr;
      }
      vars[name] = unescape_assignment_value(assignment.substr(eq + 1));
      continue;
    }
    if (!have_program) {
      program_text = a;
      have_program = true;
      continue;
    }
    if (error) *error = "awk: file operands not supported";
    return nullptr;
  }
  if (!have_program) {
    if (error) *error = "awk: missing program";
    return nullptr;
  }
  Parser parser(program_text);
  auto rules = parser.parse();
  if (!rules) {
    if (error) *error = "awk: unsupported program";
    return nullptr;
  }
  return std::make_shared<AwkCommand>(
      argv_to_display(argv), AwkProgram(std::move(*rules), std::move(vars)));
}

}  // namespace kq::cmd
