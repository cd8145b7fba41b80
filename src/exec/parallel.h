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

// Runs a fused chain over one contiguous record-aligned slice the way a
// stream-chain node would: maximal runs of declared-streamable stages
// cascade block by block through their cmd::StreamProcessors (a window
// stage absorbs the run's output through its cmd::WindowProcessor and
// terminates the run), so per-stage intermediates stay O(step) instead of
// O(slice); black-box stages break the cascade and run whole on the
// materialized intermediate. `step` is the cascade's internal block size
// (records longer than a step travel whole). Byte-identical to chaining
// Command::run by the streamability contract — this is the single slice
// executor behind both the batch mapper and the sharded streaming workers.
// When `last_fed` is non-null it is set to whether the chain's last stage
// received any input (a combine drops the parts of slices whose combining
// stage saw nothing: they are f(""), and x ++ "" = x).
std::string run_slice_fused(const std::vector<const cmd::Command*>& chain,
                            std::string_view slice, std::size_t step,
                            char delimiter = '\n', bool* last_fed = nullptr);

}  // namespace kq::exec
