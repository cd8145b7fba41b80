// Table 8: histogram of synthesized plausible combiners across every
// unique command in the benchmark suite (the paper counts concat 81,
// rerun 30, merge 16, back-'\n'-add 12, plus first/second/fuse/stitch/
// stitch2 variants).

#include <map>

#include "bench_common.h"
#include "text/shellwords.h"
#include "unixcmd/registry.h"

int main(int argc, char** argv) {
  using namespace kq::bench;
  (void)standard_options(argc, argv);
  kq::vfs::Vfs& fs = bench_fs();
  // Fixtures for file-consuming and dictionary commands.
  generate_workload(Workload::kBookList, 1 << 14, 1, fs);
  generate_workload(Workload::kScriptList, 1 << 14, 1, fs);
  install_spell_dictionary(fs, 1);

  std::map<std::string, int> plausible_hist;
  std::map<std::string, int> selected_hist;
  int synthesized = 0, failed = 0;
  for (const std::string& command_line : unique_commands()) {
    auto argv_words = kq::text::shell_split(command_line);
    if (!argv_words) continue;
    std::string error;
    kq::cmd::CommandPtr command =
        kq::cmd::make_command(*argv_words, &error, &fs);
    if (!command) continue;
    const kq::synth::SynthesisResult result = kq::synth::synthesize(
        *command, *argv_words, kq::synth::SynthesisConfig{}, &fs);
    if (!result.success) {
      ++failed;
      continue;
    }
    ++synthesized;
    for (const auto& g : result.plausible) plausible_hist[to_string(g)]++;
    // The paper's counts correspond to the class-preferred selection
    // (rerun only counts when no RecOp/StructOp combiner survived).
    for (const auto& g : result.combiner.combiners())
      selected_hist[to_string(g)]++;
  }

  std::cout << "Table 8: synthesized combiners across " << synthesized
            << " commands (" << failed << " without a combiner)\n";
  auto print_hist = [](const std::map<std::string, int>& hist,
                       const char* title) {
    std::cout << "\n" << title << "\n";
    std::vector<std::pair<int, std::string>> sorted;
    for (const auto& [name, count] : hist) sorted.push_back({count, name});
    std::sort(sorted.rbegin(), sorted.rend());
    TextTable table({"Count", "Combiner"});
    for (const auto& [count, name] : sorted)
      table.add_row({std::to_string(count), name});
    table.print(std::cout);
  };
  print_hist(selected_hist,
             "Selected (class-preferred) combiners -- the paper's counting:");
  print_hist(plausible_hist, "All plausible combiners:");
  std::cout << "\nPaper reference: concat 81, rerun 30 (22 a-b + 8 b-a), "
               "merge(*) 16, (back '\\n' add) 12, plus first/second/fuse/"
               "stitch/stitch2/offset variants; 113 of 121 commands "
               "synthesized.\n";
  return 0;
}
