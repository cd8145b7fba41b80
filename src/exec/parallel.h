// Data-parallel primitives: map a command (or a fused chain of commands)
// over input chunks on the thread pool.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "exec/thread_pool.h"
#include "unixcmd/command.h"

namespace kq::exec {

// Runs `command` on every chunk concurrently; returns outputs in order.
std::vector<std::string> map_chunks(const cmd::Command& command,
                                    const std::vector<std::string_view>& chunks,
                                    ThreadPool& pool);

// Runs a chain of commands (stage fusion after combiner elimination) on
// every chunk: chunk -> cmd[0] -> cmd[1] -> ... -> output.
std::vector<std::string> map_chunks_chain(
    const std::vector<const cmd::Command*>& chain,
    const std::vector<std::string_view>& chunks, ThreadPool& pool);

// Runs a fused chain over one contiguous record-aligned slice: maximal
// runs of declared-streamable stages go block by block through one
// exec::Cascade (the same processor cascade a stream-chain node drives; a
// window stage terminates its run), so per-stage intermediates stay O(step)
// instead of O(slice); black-box stages run whole on the materialized
// intermediate. The slice is freed once the first stage has consumed it,
// as each intermediate is. `step` is the cascade's internal block size
// (records longer than a step travel whole). Byte-identical to chaining
// Command::run by the streamability contract — this is the one slice
// executor behind every parallel streaming worker and (over views of one
// input) the batch mapper. When `last_fed` is non-null it is set to
// whether the chain's last stage received any input (a combine drops the
// parts of slices whose combining stage saw nothing: they are f(""), and
// x ++ "" = x).
std::string run_slice_fused(const std::vector<const cmd::Command*>& chain,
                            std::string slice, std::size_t step,
                            bool* last_fed = nullptr);

}  // namespace kq::exec
