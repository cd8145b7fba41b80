// Factories for the built-in command substrate. Each factory parses its own
// argv (argv[0] is the program name) and returns nullptr with *error set if
// the flag combination is not supported. The supported combinations cover
// every command/flag pair in the paper's benchmark suite (Table 10 and
// Table 9) plus common nearby variants.
#pragma once

#include <cstddef>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "unixcmd/command.h"
#include "vfs/vfs.h"

namespace kq::cmd {

using Argv = std::vector<std::string>;

// Parses a nonnegative decimal count, saturating at the type's maximum
// instead of overflowing (signed overflow would be UB and yield a garbage
// count): `head -n 99999999999999999999` means "all of it", matching GNU,
// which accepts absurd counts as effectively infinite. Returns nullopt on
// empty or non-digit input. Shared by every built-in that parses counts
// (head/tail line counts, sed addresses, sort -k field numbers, cut
// position lists, fmt widths).
std::optional<long> parse_count(std::string_view s);
std::optional<std::size_t> parse_size_count(std::string_view s);

// The coded message of a grep or sed stage whose regex search passed its
// backtracking budget (regex::BudgetExceeded): the stage fails with it.
std::string regex_trouble(const Command& command, const std::exception& e);

CommandPtr make_cat(const Argv& argv, const vfs::Vfs* fs, std::string* error);
CommandPtr make_tr(const Argv& argv, std::string* error);
CommandPtr make_sort(const Argv& argv, std::string* error);
CommandPtr make_uniq(const Argv& argv, std::string* error);
CommandPtr make_wc(const Argv& argv, std::string* error);
CommandPtr make_grep(const Argv& argv, std::string* error);
CommandPtr make_cut(const Argv& argv, std::string* error);
CommandPtr make_sed(const Argv& argv, std::string* error);
CommandPtr make_awk(const Argv& argv, std::string* error);
CommandPtr make_head(const Argv& argv, std::string* error);
CommandPtr make_tail(const Argv& argv, std::string* error);
CommandPtr make_comm(const Argv& argv, const vfs::Vfs* fs, std::string* error);
CommandPtr make_xargs(const Argv& argv, const vfs::Vfs* fs,
                      std::string* error);
CommandPtr make_col(const Argv& argv, std::string* error);
CommandPtr make_paste(const Argv& argv, std::string* error);
CommandPtr make_fmt(const Argv& argv, std::string* error);
CommandPtr make_rev(const Argv& argv, std::string* error);
CommandPtr make_iconv(const Argv& argv, std::string* error);

// The line count of a built-in `head -n N` (or `head -N` / bare `head`)
// instance; nullopt when `command` is not one or runs in -c byte mode.
// Lets the pipeline-rewrite pass (compile::rewrite_bounded_windows) match
// `sort | head -n N` without re-parsing argv.
std::optional<long> head_line_count(const Command& command);

// True iff `command` is the built-in uniq (any flag combination). The
// rewrite pass fuses `uniq … | sort | head -n K` into one bounded top-k
// node; uniq qualifies because its window is O(1) — the current run.
bool is_uniq_command(const Command& command);

}  // namespace kq::cmd
