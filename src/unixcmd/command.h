// The black-box command abstraction at the heart of KumQuat (Definition
// 3.2): a command is a deterministic function from input stream to output
// stream. The synthesizer, runtime, and compiler only ever interact with
// commands through this interface, which enforces the paper's black-box
// assumption by construction.
//
// Implementations must be thread-safe: the parallel runtime calls
// `execute` concurrently from multiple worker threads on one instance.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace kq::cmd {

// The outcome of running a command on an input stream. `status != 0`
// models a Unix command exiting with an error (used by preprocessing's
// probe-input classification, §3.2); `out` still carries any partial
// output the command produced.
struct Result {
  std::string out;
  int status = 0;
  std::string err;

  bool ok() const { return status == 0; }
};

// How a command's output relates to record-aligned prefixes of its input.
// This is the streamability declaration that lets the streaming runtime
// (stream/dataflow.cpp) run a stage per block instead of materializing its
// whole input — the order-aware-dataflow / PaSh notion of a pure
// stateless/streaming command, declared rather than inferred because the
// built-ins know their own semantics.
//
// The contract every tier shares: blocks are *record-aligned* — each block
// the runtime feeds ends at a record boundary (the final block may not),
// and each block a processor emits must end at a record boundary too,
// except the emission that is genuinely the end of its output stream. A
// command whose output can break that alignment (tr -d '\n' deletes the
// delimiter) must declare kNone. See docs/ARCHITECTURE.md for how the
// executor maps each tier onto a dataflow node.
enum class Streamability {
  // Black box: the command may need the whole input at once.
  kNone,
  // Record-wise: there is a processor p (possibly stateful, with bounded
  // state) such that feeding record-aligned blocks in order and
  // concatenating the outputs equals one whole-input execute(). Pure
  // per-record filters/maps (grep, tr, cut, rev) and bounded-state
  // line-counting forms (tail +N, sed Nd) fall here.
  kPerRecord,
  // Record-wise over a bounded prefix: after some point the output is
  // complete and further input cannot change it (head -n N, sed Nq). The
  // runtime may cancel the upstream graph once the processor reports done.
  kPrefix,
  // Window-bounded: the command needs the *whole* input but only a bounded
  // window of state at any moment — `tail -n N` holds the last N records,
  // `uniq` one run, `wc` a few counters, `sort -u` its distinct set. A
  // WindowProcessor absorbs record-aligned blocks (emitting any output that
  // is already final, like uniq's completed runs) and flushes the residue
  // at end of input through finish(). Because finish() reorders emission
  // relative to input, a window stage terminates a fused stream chain.
  kWindow,
};

// Stateful per-block executor behind a streamable command. One processor
// serves exactly one stream: the runtime feeds record-aligned blocks in
// input order and concatenates the appended outputs, which must equal
// execute() over the concatenated blocks.
//
// Contract (kPerRecord / kPrefix):
//   - input blocks arrive record-aligned and in order; outputs must stay
//     record-aligned (only the final emission may end mid-record, and only
//     because the output stream genuinely ends there);
//   - state carried across blocks must be bounded by the command's own
//     constants (a squeeze run, a skip counter, a remaining-count), never
//     by the input size — unbounded state belongs in a WindowProcessor;
//   - finish() emits any end-of-input tail; after finish() the processor
//     is spent.
// Unlike Command (shared across worker threads), a processor is owned by a
// single dataflow node and need not be thread-safe.
class StreamProcessor {
 public:
  virtual ~StreamProcessor() = default;
  // Processes one record-aligned block, appending output to *out. Returns
  // false once the output is complete regardless of further input (a
  // kPrefix command satisfied its bound): the caller stops feeding this
  // stream and may cancel upstream work. Must append nothing on any call
  // after the one that returned false.
  virtual bool process(std::string_view block, std::string* out) = 0;
  // Appends any end-of-input tail output. Most streamable commands emit
  // everything in process(); the default is a no-op.
  virtual void finish(std::string* out) { (void)out; }
};

// Stateful bounded-window executor behind a kWindow command. One processor
// serves exactly one stream: the runtime feeds record-aligned blocks in
// input order; output that later input can no longer change may be appended
// during push() (uniq's completed runs), everything still held in the
// window flushes at end of input through finish(). The concatenation of all
// push() outputs followed by the finish() emission must equal execute()
// over the concatenated blocks.
//
// Contract (kWindow):
//   - input blocks arrive record-aligned and in order; push() emissions
//     must stay record-aligned, and finish()'s pieces must each end at a
//     record boundary except the last (an unterminated final record is the
//     command's own stream end, as in GNU tail);
//   - the resident window must be bounded by the command's semantics
//     (tail's N records, uniq's one run, top-n's N entries), and
//     state_bytes() must report it honestly — it is the runtime's spill
//     trigger and the denominator of every O(window) memory claim;
//   - finish() is single-shot and terminal; a window stage therefore ends
//     a fused stream chain (its emission order is finish()'s, not the
//     input's);
//   - drain_sorted_run()/seal()/output_limit() exist for the spill path
//     and default to "unsupported"/no-op/unlimited — see each below.
// Owned by a single dataflow node; need not be thread-safe.
class WindowProcessor {
 public:
  // Receives finish()'s residue in record-aligned pieces; returns false to
  // stop emission early (the consumer closed — cancellation propagates
  // through finish()).
  using Sink = std::function<bool(std::string_view)>;

  virtual ~WindowProcessor() = default;

  // Absorbs one record-aligned block into the window, appending any output
  // that is already final to *out.
  virtual void push(std::string_view block, std::string* out) = 0;

  // Emits everything still held in the window at end of input. Stops early
  // (and may discard the rest) once `sink` returns false. Single-shot.
  virtual void finish(const Sink& sink) = 0;

  // Bytes currently resident in the window — the node's spill trigger and
  // the honest denominator of the O(window) memory claim.
  virtual std::size_t state_bytes() const = 0;

  // For windows whose state is itself a sorted stream under the owning
  // stage's comparator (sort -u's distinct set, top-n's bounded heap):
  // moves the state into *out as a newline-terminated sorted stream and
  // resets the window, so the runtime can spill it as one sorted run and
  // keep the window bounded by the spill threshold. Default: unsupported
  // (the runtime then keeps the window resident).
  virtual bool drain_sorted_run(std::string* out) {
    (void)out;
    return false;
  }

  // Called once at end of input, before the *final* drain_sorted_run on
  // the spill path: absorbs any cross-record residue that normally flushes
  // inside finish() into the window state (a fused top-k's pending uniq
  // run), appending output the sealing finalizes to *out. Plain windows
  // have no such residue; the default is a no-op. Never called when
  // finish() will run — finish() subsumes it.
  virtual void seal(std::string* out) { (void)out; }

  // For windows whose output is a bounded prefix of their merged sorted
  // state (top-n emits only its first N records): the maximum number of
  // records finish() may emit. The runtime caps the external merge's
  // re-streamed emission at this many records when the window spilled;
  // nullopt means unlimited. Must agree with finish(), which enforces the
  // same bound on the unspilled path itself.
  virtual std::optional<std::size_t> output_limit() const {
    return std::nullopt;
  }
};

class Command {
 public:
  virtual ~Command() = default;

  Command(const Command&) = delete;
  Command& operator=(const Command&) = delete;

  // The command line this instance models, e.g. "tr -cs A-Za-z '\n'".
  const std::string& display_name() const { return display_name_; }

  // Runs the command on `input`, producing output and an exit status.
  virtual Result execute(std::string_view input) const = 0;

  // Convenience wrapper for the common success path.
  std::string run(std::string_view input) const { return execute(input).out; }

  // This command's streamability class; kNone unless a built-in declares
  // otherwise. Must agree with the processor factories: stream_processor()
  // is non-null iff kPerRecord/kPrefix, window_processor() iff kWindow.
  virtual Streamability streamability() const { return Streamability::kNone; }

  // The largest input scale (in records or bytes) at which this command's
  // behavior changes, parsed from its own arguments — head/tail counts,
  // sed line addresses — or nullopt when behavior is scale-free.
  // Certification probes straddle numeric literals only up to
  // synth::kProbeCountCap, so the planner keeps a stage whose bound
  // exceeds every probe sequential: below the bound such a command is
  // indistinguishable from `cat`, and a combiner certified purely on
  // those observations is wrong exactly on the inputs too big to probe.
  virtual std::optional<long> scale_bound() const { return std::nullopt; }

  // A fresh per-stream processor for a streamable command (the instance
  // must outlive the processor). Null for kNone and kWindow commands.
  virtual std::unique_ptr<StreamProcessor> stream_processor() const {
    return nullptr;
  }

  // A fresh per-stream window processor for a kWindow command (the
  // instance must outlive the processor). Null otherwise.
  virtual std::unique_ptr<WindowProcessor> window_processor() const {
    return nullptr;
  }

 protected:
  explicit Command(std::string display_name)
      : display_name_(std::move(display_name)) {}

 private:
  std::string display_name_;
};

// Processor for commands whose execute() is already record-wise pure:
// running the command block-by-block and concatenating equals one
// whole-input run (no state crosses a record boundary). Shared by grep,
// cut, rev, and the other stateless per-record built-ins.
class PerBlockProcessor final : public StreamProcessor {
 public:
  explicit PerBlockProcessor(const Command& command) : command_(command) {}
  // Appends to `out`, keeping its buffer: a caller's buffer with room for
  // the result (a pooled part or block) must not be swapped for this
  // block's. Only an empty one too small to hold it takes the result's.
  bool process(std::string_view block, std::string* out) override {
    Result r = command_.execute(block);
    if (out->empty() && out->capacity() < r.out.size())
      *out = std::move(r.out);
    else
      out->append(r.out);
    return true;
  }

 private:
  const Command& command_;
};

using CommandPtr = std::shared_ptr<const Command>;

// Renders argv back into a display string (quoting words with spaces or
// backslashes so the name round-trips through the pipeline parser).
std::string argv_to_display(const std::vector<std::string>& argv);

// Wraps a C++ callable as a Command; handy in tests and examples.
template <typename Fn>
class LambdaCommand final : public Command {
 public:
  LambdaCommand(std::string name, Fn fn)
      : Command(std::move(name)), fn_(std::move(fn)) {}
  Result execute(std::string_view input) const override {
    return Result{fn_(input), 0, {}};
  }

 private:
  Fn fn_;
};

template <typename Fn>
CommandPtr make_lambda_command(std::string name, Fn fn) {
  return std::make_shared<LambdaCommand<Fn>>(std::move(name), std::move(fn));
}

}  // namespace kq::cmd
