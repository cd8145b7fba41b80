// The slice executor every parallel worker runs: a fused chain of commands
// over one record-aligned slice.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "unixcmd/command.h"

namespace kq::exec {

// The cascade step of every slice run: each stage's per-step intermediate,
// and a window's per-step line index, stay cache-sized and below glibc's
// mmap threshold (the CLI pins it at 128 KiB), so they come from the heap
// and are reused step after step. At 64 KiB, 14-byte lines put `uniq`'s
// line index at exactly that threshold. Output does not depend on the
// step.
inline constexpr std::size_t kSliceStep = 32 << 10;

// Receives a buffer the slice executor is done with.
using Recycle = std::function<void(std::string&&)>;

// Runs a fused chain over one contiguous record-aligned slice: maximal
// runs of declared-streamable stages go block by block through one
// exec::Cascade (the same processor cascade a stream-chain node drives; a
// window stage terminates its run), so per-stage intermediates stay O(step)
// instead of O(slice); black-box stages run whole on the materialized
// intermediate. The slice is given up once the first stage has consumed
// it, as each intermediate is: to `recycle` when set, else freed. `step`
// is the cascade's internal block size (records longer than a step travel
// whole). Byte-identical to chaining Command::run by the streamability
// contract — this is the one slice executor behind every parallel worker.
// When the chain ends in a cascade run, its output is written into `out`
// (cleared first), so a buffer with room for the result never grows; a
// black-box last stage returns its own buffer instead. With `recycle` set,
// a result that fills less than half its buffer comes back in a fitted
// copy and the buffer goes to `recycle`, so a result the caller holds
// keeps at most twice its size. When `last_fed` is non-null it is set to
// whether the chain's last stage received any input (a combine drops the
// parts of slices whose combining stage saw nothing: they are f(""), and
// x ++ "" = x).
std::string run_slice_fused(const std::vector<const cmd::Command*>& chain,
                            std::string slice, std::size_t step,
                            bool* last_fed = nullptr, std::string out = {},
                            const Recycle& recycle = nullptr);

}  // namespace kq::exec
