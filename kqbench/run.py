#!/usr/bin/env python3
"""kqbench: kumquat end to end and layer by layer, against GNU coreutils.

    python3 kqbench/run.py --workload scan|fold|wf|all --seed N
                           --seconds S --trace 0|1 [--out FILE]
    python3 kqbench/run.py compare A B

Run it from the root of a kumquat checkout. The first run builds the CLI
and the layer tool (kqbench_layers) from source into .bench_build/kqbench.

--trace 0 is the end-to-end pass. It generates the workload's seeded input,
computes GNU's output once as the reference, times the CLI's compile in
process (setup_s), then alternates `kumquat run` at the default k and at
-k 1 for S seconds, closed loop, one job at a time, stdin from a file warm
in the page cache and stdout to a file. Every output must equal GNU's byte
for byte. Metrics are medians over the run; the gated times are ratios
within each back-to-back pair of runs (speedup, cpu_vs_k1), and the raw
seconds are printed and kept in the result file beside them.

--trace 1 is the traced pass. kqbench_layers runs the pipeline in process
with counters and the runtime tracer on, then replays each layer under the
benchmark's own spans; a few untraced CLI and GNU runs add the process and
reference rows. The pass repeats for S seconds and each row is its median
over the passes.

Each run prints a table, writes a result file (default under
.bench_build/kqbench/results/) and ends its stdout with one JSON line:
{"correct", "attempted", "failed", "metrics"}. `compare` prints, per
workload, every metric's median and quartiles on each side (a side is a
result file or a directory of them) and exits 2 when the two sides'
fingerprints differ.

Workloads, seeds and the metric each layer row should move live in
kqbench/spec.json; metric names, units and bounds in BENCHMARK.json.
"""

import argparse
import collections
import glob
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "kqbench")
KUMQUAT = os.path.join(BUILD, "kumquat")
LAYERS = os.path.join(BUILD, "kqbench_layers")
MIB = 1024 * 1024
SETUP_SLICE_S = 0.1      # in-process cold compiles before each CLI pair
TRACE_CLI_RUNS = 3       # untraced CLI runs in a traced pass (proc.*)
TRACE_GNU_RUNS = 3       # timed GNU runs in a traced pass (ref.*)
UNTRACED_RUNS = 3        # in-process untraced runs, the trace-overhead base
RUN_TIMEOUT_S = 120      # one kumquat or GNU run; a hang counts as failed
MAX_NODES = 5            # per-node rows stream.n0 .. stream.n4
with open(os.path.join(HERE, "spec.json")) as spec_file:
    SPEC = json.load(spec_file)


def fail(message):
    print(f"kqbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ------------------------------------------------------------------ build --

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "cli", "kumquat_main.cpp")):
        fail(f"no kumquat sources in {ROOT} (run from a kumquat checkout)")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "kumquat_cli", "kqbench_layers"])
    log = os.path.join(BUILD, "build.log")
    with open(log, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                fail(f"build failed: {' '.join(step)} (log: {log})")


def layers(*args):
    """Runs one kqbench_layers verb and returns its JSON result."""
    proc = subprocess.run([LAYERS] + [str(a) for a in args],
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        fail(f"kqbench_layers {args[0]} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------- runs --

# One child process: wall seconds, exit code, wait4 rusage, stderr text.
Run = collections.namedtuple("Run", "wall code usage err")


def spawn(argv, stdin_path, stdout_path, env=None):
    """Runs argv with stdin and stdout on files; wall time and rusage come
    from the parent's clock and wait4 on this one child."""
    err_path = stdout_path + ".err"
    # Drop the previous run's output outside the timed window, instead of
    # truncating it inside the child's open.
    for path in (stdout_path, err_path):
        if os.path.exists(path):
            os.unlink(path)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, stdin_path, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ if env is None else env,
                          file_actions=actions)
    watchdog = threading.Timer(RUN_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    with open(err_path, errors="replace") as f:
        err = f.read()
    return Run(wall, os.waitstatus_to_exitcode(status), usage, err)


def first_diff(path, ref_path):
    """Offset of the first byte where two files differ, or -1."""
    offset = 0
    with open(path, "rb") as a, open(ref_path, "rb") as b:
        while True:
            x, y = a.read(MIB), b.read(MIB)
            if x != y:
                n = min(len(x), len(y))
                return offset + next((i for i in range(n) if x[i] != y[i]), n)
            if not x:
                return -1
            offset += len(x)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(4 * MIB), b""):
            h.update(chunk)
    return h.hexdigest()


class Workload:
    """One workload's inputs, reference and runners for one seed."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.spec = SPEC["workloads"][name]
        self.dir = os.path.join(BUILD, "work", name)
        os.makedirs(self.dir, exist_ok=True)
        self.input = os.path.join(self.dir, "input")
        self.ref = os.path.join(self.dir, "gnu.out")
        self.out = os.path.join(self.dir, "kumquat.out")
        self.attempted = 0
        self.failures = []

    def prepare(self):
        layers("gen", self.name, self.seed, self.spec["input_bytes"],
               self.input)
        gnu = self.run_gnu()
        if gnu.code != 0:
            fail(f"GNU reference for {self.name} exited {gnu.code}: "
                 f"{gnu.err.strip()}")
        # Write both back now: otherwise the kernel flushes them about 30 s
        # later, in the middle of the timed runs. They stay in the cache.
        for path in (self.input, self.ref):
            fd = os.open(path, os.O_RDONLY)
            os.fsync(fd)
            os.close(fd)
        self.input_bytes = os.path.getsize(self.input)
        self.input_sha256 = sha256(self.input)
        self.ref_bytes = os.path.getsize(self.ref)
        self.ref_sha256 = sha256(self.ref)
        # A warm-up run pages the CLI binary in before anything is timed.
        spawn([KUMQUAT, "run", self.spec["pipeline"]], os.devnull, self.out)

    def discard_outputs(self):
        """Deletes the run's large outputs before the kernel writes them
        back, which would disturb the next run."""
        for path in glob.glob(os.path.join(self.dir, "**", "*.out*"),
                              recursive=True):
            if os.path.abspath(path) != os.path.abspath(self.ref):
                os.unlink(path)

    def run_gnu(self, out_path=None):
        env = dict(os.environ, LC_ALL="C")
        # `cat |` pipes the input, so wc prints no column padding.
        return spawn(["sh", "-c", "cat | " + self.spec["pipeline"]],
                     self.input, out_path or self.ref, env)

    def run_kumquat(self, k1):
        argv = [KUMQUAT, "run"]
        if self.spec["spill_threshold"]:
            argv += ["--spill-threshold", str(self.spec["spill_threshold"])]
        if k1:
            argv += ["-k", "1"]
        run = spawn(argv + [self.spec["pipeline"]], self.input, self.out)
        self.attempted += 1
        diff = first_diff(self.out, self.ref) if run.code == 0 else None
        if run.code != 0 or diff >= 0:
            width = "k=1" if k1 else "default k"
            detail = (f"exit {run.code}: {run.err.strip()[-200:]}"
                      if run.code != 0 else f"first differing byte {diff}")
            self.failures.append(f"{self.name} at {width}: {detail}")
            print(f"kqbench: FAIL {self.name} at {width}: {detail}",
                  file=sys.stderr)
        return run

    def fingerprint(self, k, io_backend, defaults):
        return {
            "workload": self.name,
            "seed": self.seed,
            "input_size": self.spec["input_bytes"],
            "input_bytes": self.input_bytes,
            "input_sha256": self.input_sha256,
            "reference_bytes": self.ref_bytes,
            "reference_sha256": self.ref_sha256,
            "k": k,
            "nproc": len(os.sched_getaffinity(0)),
            "io_backend": io_backend,
            "block_size": defaults["block_size"],
            "spill_threshold": (self.spec["spill_threshold"]
                                or defaults["spill_threshold"]),
        }


def cli_facts(run):
    """Resolved k, I/O backend and spilled bytes from a run's stderr line."""
    k = re.search(r" at k=(\d+)", run.err)
    io = re.search(r"\(io=(\w+)\)", run.err)
    spilled = re.search(r"spilled (\d+) bytes", run.err)
    return (int(k.group(1)) if k else 0, io.group(1) if io else "",
            int(spilled.group(1)) if spilled else 0)


def cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


# ----------------------------------------------------------------- guards --

def guards(w, plan, sharded_of, spilled, ref_path):
    """Checks that the workload still exercises the layers it was chosen
    for. Returns {guard: (holds, observed)}; a broken guard only warns."""
    g = w.spec["guards"]
    stages = {s["display"]: s for s in plan["stages"]}
    out = {}
    if g.get("all_parallel"):
        out["all_parallel"] = (plan["parallel_stages"] == plan["total_stages"],
                               f"{plan['parallel_stages']}/{plan['total_stages']} stages parallel")
    for display in g.get("sharded", []):
        out[f"sharded {display}"] = (sharded_of(display), "")
    for display in g.get("sequential", []):
        par = stages.get(display, {}).get("parallel")
        out[f"sequential {display}"] = (par is False, f"parallel={par}")
    if g.get("no_spill"):
        out["no_spill"] = (spilled == 0, f"{spilled} bytes spilled")
    if g.get("spill"):
        out["spill"] = (spilled > 0, f"{spilled} spilled")
    if "min_output_ratio" in g:
        ratio = w.ref_bytes / w.input_bytes
        out["output_ratio"] = (ratio >= g["min_output_ratio"],
                               f"output/input {ratio:.3f}")
    if "max_count_below" in g:
        with open(ref_path, "rb") as f:
            top = f.readline().split()
        count = int(top[0]) if top else 0
        out["max_count"] = (count < g["max_count_below"],
                            f"top count {count}")
    for name, (holds, observed) in out.items():
        if not holds:
            print(f"kqbench: WARNING {w.name} guard '{name}' no longer holds"
                  f" ({observed}); the workload may not exercise its layer",
                  file=sys.stderr)
    return {name: {"holds": holds, "observed": observed}
            for name, (holds, observed) in out.items()}


# ------------------------------------------------------------ end to end --

def end_to_end(w, seconds):
    # Pairs of back-to-back runs, one at the default k and one at -k 1. The
    # gated times are ratios within a pair: a busy spell of the shared host
    # lasts minutes and slows every run in it by 10-50%, so it moves both
    # runs of a pair, and their ratio much less than either.
    default, k1, setup_s = [], [], []
    start = time.perf_counter()
    while not default or time.perf_counter() - start < seconds:
        # Compile timing is spread over the run like the CLI runs.
        setup = layers("setup", w.spec["pipeline"], SETUP_SLICE_S)
        setup_s += setup["setup_s"]
        default.append(w.run_kumquat(False))
        k1.append(w.run_kumquat(True))
    facts = [cli_facts(r) for r in default]
    k = max(f[0] for f in facts)
    io_backend = max(f[1] for f in facts)
    spilled = max(f[2] for f in facts)
    plan = setup["plan"]
    shardable = {s["display"]: s["shardable"] for s in plan["stages"]}
    pairs = list(zip(default, k1))
    samples = {
        "speedup": [b.wall / a.wall for a, b in pairs],
        "cpu_vs_k1": [cpu_s(a.usage) / cpu_s(b.usage) for a, b in pairs],
        "peak_rss_mib": [r.usage.ru_maxrss / 1024 for r in default],
        "peak_rss_k1_mib": [r.usage.ru_maxrss / 1024 for r in k1],
        "setup_s": setup_s,
    }
    # Raw seconds: printed and kept, not gated (they move with the host).
    raw_samples = {
        "wall_s": [r.wall for r in default],
        "wall_k1_s": [r.wall for r in k1],
        "cpu_s": [cpu_s(r.usage) for r in default],
        "cpu_k1_s": [cpu_s(r.usage) for r in k1],
    }
    metrics = {name: median(v) for name, v in samples.items()}
    # The host slows single compiles at random by up to half, and how often
    # it does drifts over minutes, which moves a median with it: over five
    # wf runs the fastest compile spread by 11% and a median by 16%.
    metrics["setup_s"] = min(setup_s)
    result = {
        "fingerprint": w.fingerprint(k, io_backend, setup["defaults"]),
        "samples": dict(samples, **raw_samples),
        "metrics": metrics,
        "statistic": {"setup_s": "fastest"},
        "raw": {name: median(v) for name, v in raw_samples.items()},
        "guards": guards(w, plan, lambda d: shardable.get(d, False),
                         spilled, w.ref),
        "plan": plan,
    }
    return result


# ----------------------------------------------------------------- traced --

def span_kind(name):
    """The runtime span's kind: '<label>: spill-run' -> 'spill-run'."""
    if name.startswith(("node: ", "synthesize ")):
        return name.split(" ", 1)[0].rstrip(":")
    return name.rsplit(": ", 1)[-1]


def runtime_span_totals(path):
    by_name = collections.defaultdict(float)
    for event in load_json(path)["traceEvents"]:
        if event.get("ph") == "X":
            by_name[event["name"]] += event["dur"] / 1e6
    by_kind = collections.defaultdict(float)
    for name, s in by_name.items():
        by_kind[span_kind(name)] += s
    return dict(by_name), dict(by_kind)


def bench_span_totals(spans):
    """Total and self time per span name; self time is a span's duration
    minus the part its child spans cover."""
    child = collections.defaultdict(int)
    for s in spans:
        if s["parent"] >= 0:
            child[int(s["parent"])] += s["end_ns"] - s["start_ns"]
    totals = collections.defaultdict(lambda: {"count": 0, "total_s": 0.0,
                                              "self_s": 0.0})
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        s["self_ns"] = dur - child[int(s["id"])]
        t = totals[s["name"]]
        t["count"] += 1
        t["total_s"] += dur / 1e9
        t["self_s"] += s["self_ns"] / 1e9
    return dict(totals)


def traced(w, run_index, seconds):
    """Repeats the traced pass for `seconds`. Each metric is its median over
    the passes; the spans written out are the last pass's."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(trace_pass(w, run_index))
    result = passes[-1]
    result["metrics"] = {name: median([p["metrics"][name] for p in passes])
                         for name in result["metrics"]}
    result["bases"] = {name: f"last of {len(passes)} passes: {base}"
                       for name, base in result["bases"].items()}
    with open(result["spans_file"], "w") as f:
        json.dump(result.pop("spans_doc"), f, indent=1)
    return result


def trace_pass(w, run_index):
    trace_dir = os.path.join(w.dir, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    threshold = w.spec["spill_threshold"] or 0
    t = layers("trace", w.name, run_index, w.spec["pipeline"], w.input,
               w.ref, trace_dir, threshold, UNTRACED_RUNS)
    w.attempted += t["attempted"]
    for f in t["failures"]:
        msg = (f"{w.name} at default k ({f['what']}): first differing byte "
               f"{int(f['first_diff'])}")
        w.failures.append(msg)
        print(f"kqbench: FAIL {msg}", file=sys.stderr)

    cli = [w.run_kumquat(False) for _ in range(TRACE_CLI_RUNS)]
    gnu = [w.run_gnu(os.path.join(trace_dir, "gnu.out"))
           for _ in range(TRACE_GNU_RUNS)]
    k = t["k"]
    nodes = t["nodes"]
    by_name, by_kind = runtime_span_totals(t["runtime_trace"])
    spans = load_json(t["spans"])
    bench_totals = bench_span_totals(spans)

    m = {}
    m["compile.synth_s"] = median(t["synth_s"])
    m["compile.plan_s"] = median(t["plan_s"])
    m["compile.parallel_stages"] = t["plan"]["parallel_stages"]
    m["io.read_mib_s"] = t["read_mib_s"]
    stage_names = w.spec["stages"]
    for name in all_stage_names():
        m[f"unixcmd.{name}.mib_s"] = 0.0
    for name, row in zip(stage_names, t["stages"]):
        m[f"unixcmd.{name}.mib_s"] = row["in_bytes"] / MIB / row["seconds"]
    m["dsl.combine_s"] = sum(c["seconds"] for c in t["combines"])
    m["stream.combine_fold_s"] = by_kind.get("combine-fold", 0.0)
    busy = sum(n["worker_busy_ns"] for n in nodes) / 1e9
    busy_span = sum(n["seconds"] for n in nodes if n["sharded"])
    m["exec.worker_busy_s"] = busy
    m["exec.parallel_eff"] = busy / (k * busy_span) if busy_span else 0.0
    m["stream.send_blocked_s"] = sum(n["send_blocked_ns"] for n in nodes) / 1e9
    m["stream.recv_blocked_s"] = sum(n["recv_blocked_ns"] for n in nodes) / 1e9
    for i in range(MAX_NODES):
        n = nodes[i] if i < len(nodes) else None
        m[f"stream.n{i}.send_blocked_s"] = n["send_blocked_ns"] / 1e9 if n else 0.0
        m[f"stream.n{i}.recv_blocked_s"] = n["recv_blocked_ns"] / 1e9 if n else 0.0
    m["stream.spill_bytes"] = t["spilled_bytes"]
    m["stream.spill_runs"] = sum(n["spill_runs"] for n in nodes)
    m["stream.spill_write_s"] = by_kind.get("spill-run", 0.0)
    m["stream.spill_merge_s"] = by_kind.get("spill-merge", 0.0)
    m["stream.peak_inflight_mib"] = t["peak_inflight_bytes"] / MIB
    hits = sum(n["pool_hits"] for n in nodes)
    acquires = hits + sum(n["pool_misses"] for n in nodes)
    m["stream.pool_hit_frac"] = hits / acquires if acquires else 0.0
    m["proc.sys_s"] = median([r.usage.ru_stime for r in cli])
    m["proc.minflt"] = median([r.usage.ru_minflt for r in cli])
    m["proc.nvcsw"] = median([r.usage.ru_nvcsw for r in cli])
    untraced = median(t["untraced_wall_s"])
    m["obs.traced_wall_s"] = t["traced_wall_s"]
    m["obs.trace_overhead"] = t["traced_wall_s"] / untraced
    gnu_wall = median([r.wall for r in gnu])
    m["ref.gnu_wall_s"] = gnu_wall
    m["ref.gnu_ratio"] = median([r.wall for r in cli]) / gnu_wall

    bases = {
        "exec.parallel_eff": f"{busy:.3f} s worker busy / ({k} x "
                             f"{busy_span:.3f} s span of the sharded nodes)",
        "stream.pool_hit_frac": f"{hits}/{acquires} BufferPool acquires",
        "obs.trace_overhead": f"traced {t['traced_wall_s']:.3f} s / untraced "
                              f"median {untraced:.3f} s, in process",
        "ref.gnu_ratio": f"kumquat CLI median {median([r.wall for r in cli]):.3f}"
                         f" s / GNU median {gnu_wall:.3f} s",
        "stream.combine_fold_s": f"{m['stream.combine_fold_s']:.3f} s of "
                                 f"{t['traced_wall_s']:.3f} s traced wall",
    }
    sharded = {n["commands"]: n["sharded"] for n in nodes}
    defaults = {"block_size": t["block_size"],
                "spill_threshold": t["spill_threshold"]}
    return {
        "fingerprint": w.fingerprint(k, t["io_backend"], defaults),
        "metrics": m,
        "bases": bases,
        "nodes": nodes,
        "stages": [dict(row, metric=f"unixcmd.{n}.mib_s")
                   for n, row in zip(stage_names, t["stages"])],
        "combines": t["combines"],
        "bench_totals": bench_totals,
        "runtime_kinds": by_kind,
        "guards": guards(w, t["plan"],
                         lambda d: any(d in c and s for c, s in sharded.items()),
                         t["spilled_bytes"], w.ref),
        "plan": t["plan"],
        "spans_file": os.path.join(trace_dir, "spans.json"),
        "spans_doc": {"workload": w.name, "run": run_index,
                      "bench_spans": spans, "bench_totals": bench_totals,
                      "runtime_totals": by_name, "runtime_kinds": by_kind},
        "runtime_trace_file": t["runtime_trace"],
    }


def all_stage_names():
    names = []
    for spec in SPEC["workloads"].values():
        names += [n for n in spec["stages"] if n not in names]
    return names


# ------------------------------------------------------------------ report --

def declared_metrics(trace):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return {m["name"]: m for m in bench["per_layer" if trace else "end_to_end"]}


def run_counter():
    path = os.path.join(BUILD, "run_counter")
    n = int(open(path).read()) + 1 if os.path.isfile(path) else 0
    with open(path, "w") as f:
        f.write(str(n))
    return n


def measure(name, seed, seconds, trace, out_path):
    w = Workload(name, seed)
    w.prepare()
    run_index = run_counter()
    result = (traced(w, run_index, seconds) if trace
              else end_to_end(w, seconds))
    w.discard_outputs()
    declared = declared_metrics(trace)
    if set(declared) != set(result["metrics"]):
        fail(f"metrics {sorted(set(declared) ^ set(result['metrics']))} "
             f"differ from BENCHMARK.json")
    fp = result["fingerprint"]
    result.update(trace=trace, run=run_index, attempted=w.attempted,
                  failed=len(w.failures), failures=w.failures)
    print(f"kqbench {name}: {w.spec['pipeline']}")
    print(f"  seed {seed}, input {fp['input_bytes'] / MIB:.1f} MiB "
          f"sha256 {fp['input_sha256'][:16]}, k={fp['k']} of nproc "
          f"{fp['nproc']}, io={fp['io_backend']}, block "
          f"{fp['block_size']} B, spill threshold {fp['spill_threshold']} B")
    samples = result.get("samples", {})
    rows = [(m, result["metrics"][m], spec["unit"], "")
            for m, spec in declared.items()]
    rows += [(m, v, "s", " not gated") for m, v in result.get("raw", {}).items()]
    for metric, v, unit, note in rows:
        line = f"  {metric:<26} {v:>12.6g} {unit:<6}"
        if metric in samples:
            q1, q3 = quartiles(samples[metric])
            stat = result.get("statistic", {}).get(metric, "median")
            line += (f" {stat} of {len(samples[metric])}"
                     f" (q1 {q1:.4g}, q3 {q3:.4g})")
        if metric in result.get("bases", {}):
            line += f" [{result['bases'][metric]}]"
        print(line + note)
    print(f"  {'fail_frac':<26} {len(w.failures) / w.attempted:>12.6g} "
          f"{'ratio':<6} {len(w.failures)} of {w.attempted} runs")
    for g, v in result["guards"].items():
        print(f"  guard {g}: {'ok' if v['holds'] else 'BROKEN'}"
              f"{' (' + v['observed'] + ')' if v['observed'] else ''}")
    if not out_path:
        results = os.path.join(BUILD, "results")
        os.makedirs(results, exist_ok=True)
        out_path = os.path.join(
            results, f"{run_index:05d}-{name}-s{seed}-t{int(trace)}.json")
    with open(out_path, "w") as f:
        json.dump(result, f, indent=1)
    print(f"  result: {os.path.relpath(out_path, ROOT)}")
    return result, declared


def main_run(args):
    names = ["scan", "fold", "wf"] if args.workload == "all" else [args.workload]
    build()
    # Spill files (kumquat's and GNU sort's) stay inside the checkout.
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    results = []
    for name in names:
        out = args.out if len(names) == 1 else None
        results.append((name,) + measure(name, args.seed, args.seconds,
                                         args.trace, out))
    attempted = sum(r["attempted"] for _, r, _ in results)
    failed = sum(r["failed"] for _, r, _ in results)
    metrics = {}
    for name, r, declared in results:
        prefix = "" if len(results) == 1 else name + "."
        for metric, spec in declared.items():
            metrics[prefix + metric] = {"value": r["metrics"][metric],
                                        "unit": spec["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ----------------------------------------------------------------- compare --

# Knobs both sides must share; the input itself is checked per seed.
FINGERPRINT_KEYS = ("input_size", "k", "nproc", "io_backend", "block_size",
                    "spill_threshold")


def load_side(path):
    files = ([path] if os.path.isfile(path)
             else sorted(glob.glob(os.path.join(path, "*.json"))))
    if not files:
        fail(f"no result files at {path}")
    return [load_json(f) for f in files]


def main_compare(args):
    sides = [load_side(args.a), load_side(args.b)]
    by_workload = [collections.defaultdict(list) for _ in sides]
    for side, grouped in zip(sides, by_workload):
        for r in side:
            grouped[r["fingerprint"]["workload"]].append(r)
    mismatch = []
    for workload in sorted(set(by_workload[0]) & set(by_workload[1])):
        runs = by_workload[0][workload] + by_workload[1][workload]
        for key in FINGERPRINT_KEYS:
            values = {json.dumps(r["fingerprint"].get(key)) for r in runs}
            if len(values) > 1:
                mismatch.append(f"{workload}: {key} differs: "
                                f"{', '.join(sorted(values))}")
        inputs = collections.defaultdict(set)
        for r in runs:
            fp = r["fingerprint"]
            inputs[fp["seed"]].add((fp["input_bytes"], fp["input_sha256"]))
        for seed, found in sorted(inputs.items()):
            if len(found) > 1:
                mismatch.append(f"{workload}: seed {seed} inputs differ")
    if mismatch:
        for line in mismatch:
            print(f"kqbench compare: {line}", file=sys.stderr)
        return 2
    header = f"{'median':>11} {'q1':>11} {'q3':>11} {'n':>3}"
    for workload in sorted(set(by_workload[0]) | set(by_workload[1])):
        print(f"== {workload}: A = {args.a}, B = {args.b}")
        print(f"  {'metric':<26} A {header}   B {header} {'B/A':>7}")
        # Gated metrics first, then the raw seconds kept beside them.
        rows = [[dict(r["metrics"], **r.get("raw", {}))
                 for r in grouped.get(workload, [])]
                for grouped in by_workload]
        metrics = []
        for side in rows:
            for r in side:
                metrics += [m for m in r if m not in metrics]
        for metric in metrics:
            cells, medians = [], []
            for side in rows:
                values = [r[metric] for r in side if metric in r]
                medians.append(median(values) if values else None)
                if not values:
                    cells.append(f"{'-':>11} {'':>11} {'':>11} {0:>3}")
                    continue
                q1, q3 = quartiles(values)
                cells.append(f"{medians[-1]:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                             f"{len(values):>3}")
            ratio = (f"{medians[1] / medians[0]:>7.3f}"
                     if None not in medians and medians[0] else f"{'-':>7}")
            print(f"  {metric:<26}   {cells[0]}     {cells[1]} {ratio}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a", help="result file or directory (side A)")
        p.add_argument("b", help="result file or directory (side B)")
        return main_compare(p.parse_args(sys.argv[2:]))
    seeds = SPEC["seeds"]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["scan", "fold", "wf", "all"])
    p.add_argument("--seed", type=int, default=seeds["default"])
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="result file (default: under "
                                 ".bench_build/kqbench/results/)")
    return main_run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
