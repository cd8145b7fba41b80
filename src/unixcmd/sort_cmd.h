// Built-in `sort` and the comparator/merge machinery shared with the DSL's
// `merge <flags>` combiner (§3.5: merge is "sort -m <flags>").
//
// Supported flags: -n (numeric), -r (reverse), -f (fold case), -u (unique),
// -d (dictionary order), -b (leading blanks skipped: a keyless compare
// starts at each line's first non-blank, and a key at its first field's
// first non-blank), -s (stable), -m (merge mode), -kF[,G][opts] key specs
// like -k1n / -k1,1 / -k2, and --parallel=N (accepted, ignored — the
// evaluation infrastructure forces serial sort just like the paper's, §4).
// Keys follow GNU sort without -t: a field is a run of blanks and the
// non-blank run after it, so a key keeps its leading blanks unless -b, and
// a key with no option of its own takes the global ones.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "unixcmd/builtins.h"

namespace kq::cmd {

struct SortKey {
  int start_field = 1;   // 1-based
  int end_field = 0;     // 0 = through end of line
  bool numeric = false;
  bool reverse = false;
  bool fold = false;
  bool dictionary = false;
  bool blanks = false;   // skip the first field's leading blanks (-b)
};

class SortSpec {
 public:
  // Parses sort flags (argv without the program name). Returns nullopt on
  // unsupported flags.
  static std::optional<SortSpec> parse(const std::vector<std::string>& flags,
                                       std::string* error = nullptr);

  // Three-way comparison of two lines under this spec, in output order.
  int compare(std::string_view a, std::string_view b) const;

  // True iff a precedes-or-equals b in output order.
  bool less_equal(std::string_view a, std::string_view b) const {
    return compare(a, b) <= 0;
  }

  // Sorts the lines of stream `input` (uniq-filtering if -u). A sort holds
  // its input plus 8 bytes per line: an exact-size array of {offset,
  // length} records with 32-bit fields, ordered by stable_sort under
  // compare() and written into a string reserved to the output's size.
  std::string sort_stream(std::string_view input) const;

  // The same output handed to `emit` in pieces of at least `piece` bytes
  // (the last may be shorter), each ending with a line's '\n'; -u dedups
  // across pieces. Stops at the first false from `emit` and returns it.
  bool sort_stream(std::string_view input, std::size_t piece,
                   const std::function<bool(std::string_view)>& emit) const;

  // sort_stream over `Offset`-wide records: sort_stream calls it with
  // std::uint32_t under 4 GiB and std::uint64_t at or past it. Both widths
  // are instantiated, so the wide one runs on any input.
  template <typename Offset>
  std::string sort_stream_with(std::string_view input) const;

  // Merges k pre-sorted streams stably (`sort -m`); streams that are not
  // sorted produce the same garbage real sort -m would, so callers check
  // sortedness for legality first (see dsl::domain).
  std::string merge_streams(const std::vector<std::string_view>& streams) const;

  // True iff the lines of `input` are already in output order.
  bool is_sorted_stream(std::string_view input) const;

  bool unique() const { return unique_; }
  bool merge_mode() const { return merge_mode_; }
  const std::string& canonical_flags() const { return canonical_flags_; }

 private:
  int compare_keys(std::string_view a, std::string_view b) const;

  bool numeric_ = false;
  bool reverse_ = false;
  bool fold_ = false;
  bool dictionary_ = false;
  bool blanks_ = false;  // -b
  bool unique_ = false;
  bool merge_mode_ = false;
  bool stable_only_ = false;  // -s: no last-resort comparison
  bool raw_keys_ = true;  // compare_keys is already the bytewise compare
  std::vector<SortKey> keys_;
  std::string canonical_flags_;
};

CommandPtr make_sort_command(const Argv& argv, std::string* error);

// The SortSpec behind a built-in `sort` command instance, or nullptr when
// `command` is not one. Lets the streaming runtime (stream/spill.*) run a
// sequential sort stage as an external merge sort — spec->sort_stream is
// the command's exact semantics, so spilled sorted runs re-merged under the
// same comparator reproduce its output byte-for-byte.
std::shared_ptr<const SortSpec> sort_spec_of(const Command& command);

}  // namespace kq::cmd
