// Built-in `sed` for the script forms used by the benchmarks:
//   [N]s<D>regex<D>replacement<D>[g]   substitute (any delimiter character)
//   Nq                                 quit after line N (prints 1..N)
//   Nd  /  $d                          delete line N / the last line
// Multiple ';'-separated commands are applied left to right per line.

#include <algorithm>
#include <cctype>
#include <optional>

#include "regex/regex.h"
#include "text/streams.h"
#include "unixcmd/builtins.h"

namespace kq::cmd {
namespace {

struct SedCommandSpec {
  enum class Kind { kSubstitute, kQuit, kDelete } kind;
  // Address: 0 = every line, >0 = that line, -1 = last line ($).
  long address = 0;
  std::optional<regex::Regex> re;
  std::string replacement;
  bool global = false;
};

std::optional<std::vector<SedCommandSpec>> parse_script(
    std::string_view script, std::string* error) {
  std::vector<SedCommandSpec> cmds;
  std::size_t i = 0;
  auto fail = [&](const char* msg) {
    if (error) *error = std::string("sed: ") + msg;
    return std::nullopt;
  };
  while (i < script.size()) {
    while (i < script.size() && (script[i] == ';' || script[i] == ' ')) ++i;
    if (i >= script.size()) break;
    SedCommandSpec spec{SedCommandSpec::Kind::kSubstitute, 0, std::nullopt,
                        "", false};
    // Optional numeric or $ address (saturating parse: an address past
    // LONG_MAX acts as "beyond every line" instead of overflowing).
    if (std::isdigit(static_cast<unsigned char>(script[i]))) {
      std::size_t start = i;
      while (i < script.size() &&
             std::isdigit(static_cast<unsigned char>(script[i])))
        ++i;
      spec.address = *parse_count(script.substr(start, i - start));
    } else if (script[i] == '$') {
      spec.address = -1;
      ++i;
    }
    if (i >= script.size()) return fail("missing command");
    char c = script[i];
    if (c == 'q') {
      spec.kind = SedCommandSpec::Kind::kQuit;
      ++i;
      if (spec.address == 0) return fail("q requires an address");
      cmds.push_back(std::move(spec));
      continue;
    }
    if (c == 'd') {
      spec.kind = SedCommandSpec::Kind::kDelete;
      ++i;
      if (spec.address == 0) return fail("unaddressed d deletes everything");
      cmds.push_back(std::move(spec));
      continue;
    }
    if (c == 's') {
      ++i;
      if (i >= script.size()) return fail("missing s delimiter");
      char delim = script[i];
      ++i;
      auto read_until_delim = [&](std::string& out) {
        while (i < script.size() && script[i] != delim) {
          if (script[i] == '\\' && i + 1 < script.size()) {
            if (script[i + 1] == delim) {
              out.push_back(delim);
              i += 2;
              continue;
            }
            out.push_back(script[i]);
            out.push_back(script[i + 1]);
            i += 2;
            continue;
          }
          out.push_back(script[i]);
          ++i;
        }
        if (i >= script.size()) return false;
        ++i;  // consume delimiter
        return true;
      };
      std::string pattern, replacement;
      if (!read_until_delim(pattern)) return fail("unterminated s pattern");
      if (!read_until_delim(replacement))
        return fail("unterminated s replacement");
      while (i < script.size() && script[i] != ';') {
        if (script[i] == 'g') {
          spec.global = true;
        } else if (script[i] != ' ') {
          return fail("unsupported s flag");
        }
        ++i;
      }
      std::string re_err;
      auto re = regex::Regex::compile(pattern, &re_err);
      if (!re) return fail("bad pattern");
      spec.kind = SedCommandSpec::Kind::kSubstitute;
      spec.re = std::move(*re);
      spec.replacement = std::move(replacement);
      cmds.push_back(std::move(spec));
      continue;
    }
    return fail("unsupported command");
  }
  if (cmds.empty()) return fail("empty script");
  return cmds;
}

// Applies every spec to one line (1-based line_no; last_line is the final
// line's number, or 0 when unknown — legal only for scripts without `$`
// addresses). Returns false when the line is deleted; *quit is set when a
// q command fires (the line itself still prints).
bool apply_specs(const std::vector<SedCommandSpec>& cmds, std::string* line,
                 long line_no, long last_line, bool* quit) {
  for (const SedCommandSpec& spec : cmds) {
    bool addressed = spec.address == 0 || spec.address == line_no ||
                     (spec.address == -1 && line_no == last_line);
    if (!addressed) continue;
    switch (spec.kind) {
      case SedCommandSpec::Kind::kSubstitute:
        *line = spec.re->replace(*line, spec.replacement, spec.global);
        break;
      case SedCommandSpec::Kind::kDelete:
        return false;
      case SedCommandSpec::Kind::kQuit:
        *quit = true;
        break;
    }
  }
  return true;
}

// Runs the script over the lines of `text`, appending kept lines to *out
// and advancing the 1-based running counter *line_no. `whole_input`
// resolves `$` addresses against text's own line count; false means the
// last line's number is unknowable (streaming — the caller's
// streamability contract excludes `$`). Every kept line re-terminates
// except an unterminated final line of `text` (GNU sed preserves the
// missing newline). Returns true once a q command fires. Both execute()
// and the stream processor run through here, so batch and per-block
// output cannot diverge.
bool run_script(const std::vector<SedCommandSpec>& cmds,
                std::string_view text, long* line_no, bool whole_input,
                std::string* out) {
  auto ls = text::lines(text);
  const long last_line =
      whole_input ? *line_no + static_cast<long>(ls.size()) : 0;
  for (std::size_t i = 0; i < ls.size(); ++i) {
    ++*line_no;
    std::string current(ls[i]);
    bool quit = false;
    if (apply_specs(cmds, &current, *line_no, last_line, &quit)) {
      *out += current;
      if (i + 1 < ls.size() || text.ends_with('\n')) out->push_back('\n');
    }
    if (quit) return true;
  }
  return false;
}

class SedCommand final : public Command {
 public:
  SedCommand(std::string name, std::vector<SedCommandSpec> cmds)
      : Command(std::move(name)), cmds_(std::move(cmds)) {
    for (const SedCommandSpec& spec : cmds_) {
      if (spec.address == -1) needs_last_line_ = true;
      if (spec.kind == SedCommandSpec::Kind::kQuit) has_quit_ = true;
    }
  }

  Result execute(std::string_view input) const override {
    std::string out;
    out.reserve(input.size());
    long line_no = 0;
    try {
      run_script(cmds_, input, &line_no, /*whole_input=*/true, &out);
    } catch (const regex::BudgetExceeded& e) {
      return {std::move(out), 2, regex_trouble(*this, e)};
    }
    return {std::move(out), 0, {}};
  }

  // Line-addressed scripts stream with a line counter as the only state;
  // `Nq` is prefix-bounded (output complete once it fires); `$` needs the
  // last line's number, which a streaming node cannot know.
  Streamability streamability() const override {
    if (needs_last_line_) return Streamability::kNone;
    return has_quit_ ? Streamability::kPrefix : Streamability::kPerRecord;
  }
  std::unique_ptr<StreamProcessor> stream_processor() const override;

  // A line-addressed command changes behavior at its largest address:
  // below it `sed 5000q` / `5000d` / `5000s…` are indistinguishable from
  // cat / the unaddressed script, so certification can be blind past it.
  std::optional<long> scale_bound() const override {
    long max_address = 0;
    for (const SedCommandSpec& spec : cmds_)
      max_address = std::max(max_address, spec.address);
    if (max_address == 0) return std::nullopt;
    return max_address;
  }

 private:
  friend class SedStreamProcessor;
  std::vector<SedCommandSpec> cmds_;
  bool needs_last_line_ = false;
  bool has_quit_ = false;
};

class SedStreamProcessor final : public StreamProcessor {
 public:
  explicit SedStreamProcessor(const SedCommand& command)
      : command_(command) {}

  bool process(std::string_view block, std::string* out) override {
    if (quit_) return false;
    try {
      quit_ = run_script(command_.cmds_, block, &line_no_,
                         /*whole_input=*/false, out);
    } catch (const regex::BudgetExceeded& e) {
      throw std::runtime_error(regex_trouble(command_, e));
    }
    return !quit_;
  }

 private:
  const SedCommand& command_;
  long line_no_ = 0;
  bool quit_ = false;
};

std::unique_ptr<StreamProcessor> SedCommand::stream_processor() const {
  if (needs_last_line_) return nullptr;
  return std::make_unique<SedStreamProcessor>(*this);
}

}  // namespace

CommandPtr make_sed(const Argv& argv, std::string* error) {
  std::string script;
  bool have_script = false;
  for (std::size_t i = 1; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (a == "-e") continue;
    if (a == "-n" || (a.size() >= 2 && a[0] == '-' && a != "-")) {
      if (error) *error = "sed: unsupported flag " + a;
      return nullptr;
    }
    if (have_script) {
      if (error) *error = "sed: file operands not supported";
      return nullptr;
    }
    script = a;
    have_script = true;
  }
  if (!have_script) {
    if (error) *error = "sed: missing script";
    return nullptr;
  }
  auto cmds = parse_script(script, error);
  if (!cmds) return nullptr;
  return std::make_shared<SedCommand>(argv_to_display(argv),
                                      std::move(*cmds));
}

}  // namespace kq::cmd
