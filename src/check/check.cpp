#include "check/check.h"

#include <algorithm>
#include <initializer_list>
#include <ostream>
#include <string_view>

#include "synth/synthesize.h"
#include "unixcmd/builtins.h"
#include "unixcmd/sort_cmd.h"
#include "unixcmd/topn.h"

namespace kq::check {
namespace {

// Append-based concatenation. Diagnostic messages are built through this
// instead of chained string operator+ because the rvalue operator+ chain
// trips GCC 12's -Wrestrict false positive inside libstdc++ under -O3
// (GCC PR 105329), which the -Werror build no longer suppresses.
std::string concat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (std::string_view p : parts) out += p;
  return out;
}

// argv[0] with any leading path stripped — the registry's own notion of
// the program name, so near-miss detection sees `/usr/bin/sort` as sort.
std::string program_of(const compile::PlannedStage& stage) {
  if (stage.parsed.argv.empty()) return "";
  std::string prog = stage.parsed.argv[0];
  if (auto slash = prog.rfind('/'); slash != std::string::npos)
    prog = prog.substr(slash + 1);
  return prog;
}

std::shared_ptr<const cmd::SortSpec> spec_of(
    const compile::PlannedStage& stage) {
  if (!stage.command) return nullptr;
  return cmd::sort_spec_of(*stage.command);
}

// True when the comparator consults collation classes beyond raw bytes
// (-f fold case, -d dictionary order): the built-in comparator is fixed at
// byte order (LC_ALL=C semantics), so results can diverge from GNU sort
// under another locale. Canonical flags spell fold as 'f' and dictionary
// as 'd' in both the global and per-key positions.
bool collation_sensitive(const cmd::SortSpec& spec) {
  const std::string& flags = spec.canonical_flags();
  return flags.find('f') != std::string::npos ||
         flags.find('d') != std::string::npos;
}

std::string span_display(const compile::Plan& plan, int begin, int end) {
  std::string out;
  for (int i = begin; i <= end; ++i) {
    if (!out.empty()) out += " | ";
    out += plan.stages[static_cast<std::size_t>(i)].parsed.display;
  }
  return out;
}

class Analyzer {
 public:
  Analyzer(const compile::Plan& plan,
           const std::vector<exec::ExecStage>& lowered,
           const Options& options)
      : plan_(plan),
        lowered_(lowered),
        options_(options),
        // The nodes the run builds at its settings.
        nodes_(stream::place(lowered, Executor(options.run).options())) {
    for (std::size_t n = 0; n < nodes_.size(); ++n)
      node_of_.insert(node_of_.end(), nodes_[n].stages.size(), n);
  }

  Report run() {
    for (int i = 0; i < total(); ++i) {
      summarize(i);
      check_exec(i);
      if (static_cast<int>(node(i).first) == i) check_mem(node(i));
      check_probe(i);
      check_order(i);
    }
    check_dead();
    check_rewrite();
    std::stable_sort(report_.diagnostics.begin(), report_.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       return a.stage_begin < b.stage_begin;
                     });
    return std::move(report_);
  }

 private:
  const compile::PlannedStage& planned(int i) const {
    return plan_.stages[static_cast<std::size_t>(i)];
  }
  const exec::ExecStage& lowered(int i) const {
    return lowered_[static_cast<std::size_t>(i)];
  }
  // The node the runtime runs stage `i` in.
  const stream::Placement& node(int i) const {
    return nodes_[node_of_[static_cast<std::size_t>(i)]];
  }
  int total() const { return static_cast<int>(plan_.stages.size()); }

  void emit(std::string code, Severity severity, int begin, int end,
            std::string message, std::string hint) {
    report_.diagnostics.push_back(Diagnostic{
        std::move(code), severity, begin, end, span_display(plan_, begin, end),
        std::move(message), std::move(hint)});
  }

  void summarize(int i) {
    const compile::PlannedStage& p = planned(i);
    StageSummary s;
    s.display = p.parsed.display;
    s.mode = p.parallel ? "parallel" : "sequential";
    s.seq_reason = compile::seq_reason_name(p.seq_reason);
    s.memory_class = node(i).label;
    s.bound = node(i).bound;
    report_.stages.push_back(std::move(s));
  }

  // KQ-EXEC: the registry resolved the stage to nothing, so `kumquat run`
  // refuses the pipeline (exit 2, before reading stdin; a library caller
  // running lower_plan's stages gets a failure marker instead of output).
  // Always an error — the pipeline cannot produce correct results.
  void check_exec(int i) {
    const compile::PlannedStage& p = planned(i);
    if (p.command) return;
    emit("KQ-EXEC", Severity::kError, i, i,
         concat({"stage cannot execute: ",
                 p.seq_detail.empty() ? "command did not resolve"
                                      : std::string_view(p.seq_detail)}),
         "pipelines run built-in commands only; see src/unixcmd/registry.cpp "
         "for the supported set");
  }

  // KQ-MEM: the node running the stage holds O(input) at the run's
  // settings (Placement::bounded). One diagnostic per node, spanning its
  // stages, whose message is the node's bound; a node with a comparator
  // (a sort, a merge, a distinct-set window) is bounded by spilling.
  void check_mem(const stream::Placement& node) {
    const int begin = static_cast<int>(node.first);
    if (node.bounded || !planned(begin).command) return;  // or KQ-EXEC
    emit("KQ-MEM", Severity::kWarning, begin,
         begin + static_cast<int>(node.stages.size()) - 1,
         concat({"the ", node.label, " node running this holds ",
                 node.bound}),
         node.spec ? "re-enable spilling (--spill-threshold N) so the node "
                     "exports sorted runs past the threshold"
                   : "bound it upstream (filter or head before this stage) "
                     "or teach the built-in a StreamProcessor/"
                     "WindowProcessor form");
  }

  // KQ-PROBE: the probe-coverage guard fired — the command's declared
  // scale bound outran every certification probe, so the synthesized
  // combiner is statistically blind exactly where it matters and the
  // planner kept the stage sequential. Surfaced as an explained lint
  // instead of a silent fallback.
  void check_probe(int i) {
    const compile::PlannedStage& p = planned(i);
    if (p.seq_reason != compile::SeqReason::kProbeGuard) return;
    std::string message = concat(
        {"combiner certification is blind past the probe cap: ",
         p.seq_detail});
    if (p.synthesis) {
      message += "; probes straddled ";
      if (p.synthesis->probed_bounds.empty()) {
        message += "no literal bound";
      } else {
        message += "bound(s)";
        for (long b : p.synthesis->probed_bounds) {
          message += ' ';
          message += std::to_string(b);
        }
      }
      message += ", so the certified combiner was never observed crossing ";
      message += std::to_string(p.probe_bound);
    }
    emit("KQ-PROBE", Severity::kWarning, i, i, std::move(message),
         concat({"stage runs sequential (its streaming lowering is exact at "
                 "any size); lower the bound to <= ",
                 std::to_string(synth::kProbeCountCap),
                 " to make it certifiable and parallel"}));
  }

  // KQ-ORDER: the stage's result depends on input order or collation in a
  // way parallel recombination has to reconstruct. Collation-sensitive
  // comparators (-f/-d) are warnings — the built-in collates in byte order
  // (LC_ALL=C), so GNU tools under another locale can disagree; pure
  // merge-recombination order notes are info.
  void check_order(int i) {
    const compile::PlannedStage& p = planned(i);
    if (!p.command) return;
    const exec::ExecStage& stage = lowered(i);
    auto spec = stage.sort_spec;
    if (!spec && stage.parallel && stage.primary)
      spec = stage.primary->merge_spec;  // the order its parts merge under
    if (spec && collation_sensitive(*spec)) {
      emit("KQ-ORDER", Severity::kWarning, i, i,
           concat({"comparator is collation-sensitive (canonical flags ",
                   spec->canonical_flags().empty()
                       ? "(none)"
                       : std::string_view(spec->canonical_flags()),
                   "): the built-in collates in byte order (LC_ALL=C), so "
                   "GNU sort under a non-C locale may order differently"}),
           "run the reference pipeline under LC_ALL=C when comparing "
           "outputs");
      return;
    }
    const stream::Placement& n = node(i);
    if (n.combine == stream::Combine::kMerge &&
        n.stages.back() == &lowered(i)) {
      emit("KQ-ORDER", Severity::kInfo, i, i,
           "parallel recombination is a k-way merge: output order is "
           "re-established by the comparator, and equal keys across chunk "
           "boundaries keep input order only because the merge is stable "
           "over chunk order",
           "");
    }
  }

  // KQ-DEAD: stages that do no work — identity `cat` mid-pipeline, a sort
  // re-sorting an identically-sorted stream, `uniq` after `sort -u`.
  void check_dead() {
    for (int i = 0; i < total(); ++i) {
      const compile::PlannedStage& p = planned(i);
      if (p.parsed.argv.size() == 1 && program_of(p) == "cat") {
        emit("KQ-DEAD", Severity::kWarning, i, i,
             "`cat` with no operands is the identity on its stdin: the "
             "stage copies every byte without changing the stream",
             "remove the stage");
      }
      if (i + 1 < total()) {
        auto a = spec_of(planned(i));
        auto b = spec_of(planned(i + 1));
        if (a && b && a->canonical_flags() == b->canonical_flags() &&
            a->unique() == b->unique()) {
          emit("KQ-DEAD", Severity::kWarning, i + 1, i + 1,
               concat({"`", planned(i + 1).parsed.display,
                       "` re-sorts a stream the previous stage already "
                       "sorted under the same comparator: the second sort "
                       "is the identity"}),
               "remove the second sort stage");
        }
        if (a && a->unique() && planned(i + 1).command &&
            cmd::is_uniq_command(*planned(i + 1).command) &&
            planned(i + 1).parsed.argv.size() == 1) {
          emit("KQ-DEAD", Severity::kWarning, i + 1, i + 1,
               concat({"`uniq` after `", planned(i).parsed.display,
                       "`: -u already removed every duplicate, so uniq has "
                       "nothing left to collapse"}),
               "remove the uniq stage");
        }
      }
    }
  }

  // KQ-REWRITE: a bounded-window rewrite pattern (sort|head, or
  // uniq|sort|head) almost matched — name exactly the precondition that
  // blocked rewrite_bounded_windows, or the --no-rewrite flag when the
  // pattern matches fully but the pass was skipped. Fully-fused patterns
  // no longer appear here: the rewrite replaced them with one stage.
  void check_rewrite() {
    std::vector<bool> in_triple(static_cast<std::size_t>(total()), false);
    for (int i = 0; i + 2 < total(); ++i) {
      if (program_of(planned(i)) != "uniq" ||
          program_of(planned(i + 1)) != "sort" ||
          program_of(planned(i + 2)) != "head")
        continue;
      std::string blocked = blocked_reason(i + 1, i + 2);
      if (blocked.empty() && planned(i).command &&
          !cmd::is_uniq_command(*planned(i).command))
        blocked = "the first stage is not the built-in uniq";
      emit_rewrite(i, i + 2, "uniq | sort | head", "bounded top-k",
                   std::move(blocked));
      for (int j = i; j <= i + 2; ++j)
        in_triple[static_cast<std::size_t>(j)] = true;
    }
    for (int i = 0; i + 1 < total(); ++i) {
      if (in_triple[static_cast<std::size_t>(i)]) continue;
      if (program_of(planned(i)) != "sort" ||
          program_of(planned(i + 1)) != "head")
        continue;
      emit_rewrite(i, i + 1, "sort | head", "bounded top-n",
                   blocked_reason(i, i + 1));
    }
  }

  // Why the (sort at `si`, head at `hi`) pair cannot fuse; empty when
  // every precondition holds.
  std::string blocked_reason(int si, int hi) {
    const compile::PlannedStage& s = planned(si);
    const compile::PlannedStage& h = planned(hi);
    if (!s.command)
      return "the sort stage's flags are not supported by the built-in "
             "comparator, so no fusion spec exists";
    if (!spec_of(s))
      return "the sort stage carries no usable comparator spec";
    if (!h.command)
      return "the head stage did not resolve to the built-in head";
    if (!cmd::head_line_count(*h.command))
      return "head runs in byte mode (-c) or carries no line count: a byte "
             "cut can split mid-record, which no sorted window reproduces";
    return "";
  }

  void emit_rewrite(int begin, int end, const std::string& pattern,
                    const std::string& target, std::string blocked) {
    if (blocked.empty()) {
      if (options_.rewrites_enabled) return;  // would have fused
      emit("KQ-REWRITE", Severity::kInfo, begin, end,
           concat({"pattern `", pattern, "` matches the ", target,
                   " rewrite but the pass was disabled (--no-rewrite): the "
                   "stages run unfused at O(input) sort cost"}),
           "drop --no-rewrite to fuse into one O(N) window stage");
      return;
    }
    emit("KQ-REWRITE", Severity::kInfo, begin, end,
         concat({"pattern `", pattern, "` almost fused into a ", target,
                 " window stage, but ", blocked}),
         "adjust the stage so the precondition holds to get the O(N) "
         "fused form");
  }

  const compile::Plan& plan_;
  const std::vector<exec::ExecStage>& lowered_;
  Options options_;
  const std::vector<stream::Placement> nodes_;
  std::vector<std::size_t> node_of_;  // per stage: its index in nodes_
  Report report_;
};

int count_severity(const Report& r, Severity s) {
  int n = 0;
  for (const Diagnostic& d : r.diagnostics)
    if (d.severity == s) ++n;
  return n;
}

void json_escape(const std::string& text, std::ostream& out) {
  for (char c : text) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          out << c;
        }
    }
  }
}

void write_string(const char* key, const std::string& value,
                  std::ostream& out) {
  out << '"' << key << "\": \"";
  json_escape(value, out);
  out << '"';
}

}  // namespace

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

int Report::errors() const { return count_severity(*this, Severity::kError); }
int Report::warnings() const {
  return count_severity(*this, Severity::kWarning);
}
int Report::infos() const { return count_severity(*this, Severity::kInfo); }

int Report::exit_code() const {
  if (errors() > 0) return 2;
  if (warnings() > 0) return 1;
  return 0;
}

const char* Report::status() const {
  if (errors() > 0) return "errors";
  if (warnings() > 0) return "warnings";
  return diagnostics.empty() ? "clean" : "info";
}

Report analyze(const compile::Plan& plan,
               const std::vector<exec::ExecStage>& lowered,
               const Options& options) {
  return Analyzer(plan, lowered, options).run();
}

std::string format_diagnostic(const Diagnostic& d) {
  std::string line = d.code;
  line += ' ';
  line += severity_name(d.severity);
  line += ": ";
  line += d.message;
  if (!d.hint.empty()) {
    line += " (fix: ";
    line += d.hint;
    line += ")";
  }
  return line;
}

void render_human(const Report& report, const std::string& pipeline,
                  std::ostream& out) {
  out << "kumquat check: " << pipeline << "\n";
  for (std::size_t i = 0; i < report.stages.size(); ++i) {
    const StageSummary& s = report.stages[i];
    out << "  [" << i << "] " << s.display << "\n      " << s.mode;
    if (s.mode == "sequential") out << " (" << s.seq_reason << ")";
    out << "  memory=" << s.memory_class << "  rss=" << s.bound << "\n";
  }
  if (report.diagnostics.empty()) {
    out << "diagnostics: none\n";
  } else {
    out << "diagnostics:\n";
    for (const Diagnostic& d : report.diagnostics) {
      out << "  [" << d.stage_begin;
      if (d.stage_end != d.stage_begin) out << "-" << d.stage_end;
      out << "] " << format_diagnostic(d) << "\n";
    }
  }
  out << "verdict: " << report.status() << " (" << report.errors()
      << " error(s), " << report.warnings() << " warning(s), "
      << report.infos() << " info)\n";
}

void write_json(const std::vector<PipelineReport>& reports,
                std::ostream& out) {
  int errors = 0, warnings = 0, infos = 0, stages = 0;
  for (const PipelineReport& p : reports) {
    errors += p.report.errors();
    warnings += p.report.warnings();
    infos += p.report.infos();
    stages += static_cast<int>(p.report.stages.size());
  }
  const char* status = errors > 0    ? "errors"
                       : warnings > 0 ? "warnings"
                       : infos > 0    ? "info"
                                      : "clean";
  out << "{\n  \"kumquat_check_version\": 1,\n  \"status\": \"" << status
      << "\",\n  \"exit_code\": " << exit_code(reports)
      << ",\n  \"summary\": {\"pipelines\": " << reports.size()
      << ", \"stages\": " << stages << ", \"errors\": " << errors
      << ", \"warnings\": " << warnings << ", \"infos\": " << infos
      << "},\n  \"pipelines\": [";
  for (std::size_t p = 0; p < reports.size(); ++p) {
    const PipelineReport& entry = reports[p];
    out << (p ? ",\n    {" : "\n    {");
    write_string("name", entry.name, out);
    out << ", ";
    write_string("pipeline", entry.pipeline, out);
    out << ", \"status\": \"" << entry.report.status()
        << "\",\n      \"stages\": [";
    for (std::size_t i = 0; i < entry.report.stages.size(); ++i) {
      const StageSummary& s = entry.report.stages[i];
      out << (i ? ",\n        {" : "\n        {") << "\"index\": " << i
          << ", ";
      write_string("display", s.display, out);
      out << ", ";
      write_string("mode", s.mode, out);
      out << ", ";
      write_string("seq_reason", s.seq_reason, out);
      out << ", ";
      write_string("memory_class", s.memory_class, out);
      out << ", ";
      write_string("rss_model", s.bound, out);
      out << "}";
    }
    out << (entry.report.stages.empty() ? "]" : "\n      ]");
    out << ",\n      \"diagnostics\": [";
    for (std::size_t i = 0; i < entry.report.diagnostics.size(); ++i) {
      const Diagnostic& d = entry.report.diagnostics[i];
      out << (i ? ",\n        {" : "\n        {");
      write_string("code", d.code, out);
      out << ", \"severity\": \"" << severity_name(d.severity)
          << "\", \"stage_begin\": " << d.stage_begin
          << ", \"stage_end\": " << d.stage_end << ", ";
      write_string("stage", d.stage, out);
      out << ", ";
      write_string("message", d.message, out);
      out << ", ";
      write_string("hint", d.hint, out);
      out << "}";
    }
    out << (entry.report.diagnostics.empty() ? "]" : "\n      ]");
    out << "\n    }";
  }
  out << (reports.empty() ? "]" : "\n  ]") << "\n}\n";
}

int exit_code(const std::vector<PipelineReport>& reports) {
  int worst = 0;
  for (const PipelineReport& p : reports)
    worst = std::max(worst, p.report.exit_code());
  return worst;
}

}  // namespace kq::check
