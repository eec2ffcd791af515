#!/usr/bin/env python3
"""The linrv benchmark: the paper's monitor path, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload session-enforce --seed 1 --seconds 25 --trace 0

Workloads: session-enforce, session-observe, pool-kv, gen-check (see
perfbench/README.md for why each exists and what it shows). The script builds
the `linrv` CLI and the `perfbench` driver with cargo (into CARGO_TARGET_DIR,
default `.bench_build`), runs seeded rounds of the workload at N and 4N for
the given seconds, checks every output, and prints one line per metric
(`name value unit n=samples`) followed by one JSON result line:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json;
with `--trace 1` they are its per-layer metrics, from a traced run whose spans
are written to `.perfbench/spans-<workload>-seed<seed>.jsonl`.

Exit status: 0 when every output was correct, 1 when an output was wrong
(the result line says `"correct": false`), 2 when the benchmark could not run.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Operations per round at N and 4N: total over the two sessions for
# session-*, over all clients for pool-kv, per process (of two) for
# gen-check. Each workload is stopped once a round's resident memory passes
# its ceiling (MB); README.md records the measured peaks next to them.
WORKLOADS = {
    "session-enforce": {"sizes": (25, 100), "ceiling_mb": 1024},
    "session-observe": {"sizes": (60, 240), "ceiling_mb": 2048},
    "pool-kv": {"sizes": (1000, 4000), "ceiling_mb": 1024},
    "gen-check": {"sizes": (100, 400), "ceiling_mb": 1024},
}

# The kinds with a specialized monitor; each gets one correct and one
# --faulty trace per round and size.
GEN_KINDS = ("queue", "stack", "set", "priority-queue", "counter", "register")
GEN_PROCESSES = 2

# Times are CPU time, not wall-clock time: on this shared virtual machine the
# wall time of identical work varied up to 2x with how much CPU the host
# granted (hypervisor steal reached a third of the CPU), while its CPU time
# stayed steady. Phases are timed with the process CPU clock, calls with the
# calling thread's CPU clock, child processes by their rusage.

# A `linrv check` (or probe) that has used this much CPU time is killed. It
# counts as a deadline miss, not as failed: it gave no wrong output, it ran
# out of the time the benchmark grants one trace. A miss lowers `ok_frac` and
# adds its CPU time and no operations to the time metrics. TRACE_WALL_CAP_S
# bounds its wall time as well.
TRACE_DEADLINE_S = 0.25
TRACE_WALL_CAP_S = 5.0

# Wall-clock limits for a round and a trace generation. A round past its
# limit counts as failed; a generation past its limit stops the benchmark.
ROUND_DEADLINE_S = 60.0
GEN_DEADLINE_S = 30.0

# Every per-layer metric: the crate (layer) it measures, the end-to-end
# metrics a change to that layer should move, and the workloads it is
# measured on. An empty `moves` marks a control.
LAYER_MAP = {
    "drv.announce_ms": ("linrv-core::drv", ["ops_per_s", "op_p50_us", "growth_exp", "peak_rss_mb"], ["session-observe", "session-enforce"]),
    "drv.announce_p50_us": ("linrv-core::drv", ["ops_per_s", "op_p50_us", "growth_exp"], ["session-observe", "session-enforce"]),
    "drv.collect_ms": ("linrv-core::drv", ["ops_per_s", "op_p50_us", "growth_exp", "peak_rss_mb"], ["session-observe", "session-enforce"]),
    "drv.collect_p50_us": ("linrv-core::drv", ["ops_per_s", "op_p50_us", "growth_exp"], ["session-observe", "session-enforce"]),
    "drv.view_len_p50": ("linrv-core::drv", ["ops_per_s", "growth_exp", "peak_rss_mb"], ["session-observe", "session-enforce"]),
    "drv.view_len_max": ("linrv-core::drv", ["growth_exp", "peak_rss_mb"], ["session-observe", "session-enforce"]),
    "runtime.inner_ms": ("linrv-runtime", [], ["session-observe", "session-enforce"]),
    "verifier.publish_ms": ("linrv-core::verifier", ["ops_per_s", "peak_rss_mb"], ["session-observe", "session-enforce"]),
    "verifier.publish_p50_us": ("linrv-core::verifier", ["ops_per_s", "op_p50_us"], ["session-observe", "session-enforce"]),
    "verifier.scan_ms": ("linrv-core::verifier", ["ops_per_s", "op_p95_us", "growth_exp"], ["session-enforce"]),
    "verifier.tuples_max": ("linrv-core::verifier", ["ops_per_s", "op_p95_us", "growth_exp"], ["session-enforce"]),
    "sketch.build_ms": ("linrv-core::sketch", ["ops_per_s", "op_p95_us", "growth_exp"], ["session-enforce"]),
    "sketch.build_p50_us": ("linrv-core::sketch", ["ops_per_s", "op_p95_us", "growth_exp"], ["session-enforce"]),
    "sketch.events_max": ("linrv-core::sketch", ["ops_per_s", "op_p95_us", "growth_exp"], ["session-enforce"]),
    "check.membership_ms": ("linrv-check", ["ops_per_s", "op_p95_us", "growth_exp"], ["session-enforce"]),
    "check.membership_p50_us": ("linrv-check", ["ops_per_s", "op_p95_us", "growth_exp"], ["session-enforce"]),
    "verdict.scan_ms": ("linrv-core::verifier", ["verdict_ms"], ["session-observe", "session-enforce"]),
    "verdict.sketch_ms": ("linrv-core::sketch", ["verdict_ms"], ["session-observe", "session-enforce"]),
    "verdict.membership_ms": ("linrv-check", ["verdict_ms"], ["session-observe", "session-enforce"]),
    "bench.trace_overhead_frac": ("perfbench", [], ["session-enforce", "session-observe", "pool-kv"]),
    "bench.op_ms": ("perfbench", [], ["session-enforce", "session-observe", "pool-kv"]),
    "bench.remainder_ms": ("perfbench", [], ["session-enforce", "session-observe", "pool-kv"]),
    "pool.session_p50_us": ("linrv-pool", ["op_p50_us", "ops_per_s"], ["pool-kv"]),
    "pool.op_ms": ("linrv-pool", ["op_p50_us", "ops_per_s"], ["pool-kv"]),
    "pool.quiesce_ms": ("linrv-pool", ["verdict_ms"], ["pool-kv"]),
    "pool.check_all_ms": ("linrv-pool", ["verdict_ms"], ["pool-kv"]),
    "pool.queued_max": ("linrv-pool", ["verdict_ms"], ["pool-kv"]),
    "pool.ingested": ("linrv-pool", ["ops_per_s"], ["pool-kv"]),
    "pool.processed": ("linrv-pool", ["ops_per_s"], ["pool-kv"]),
    "pool.checks": ("linrv-pool", ["ops_per_s"], ["pool-kv"]),
    "pool.steals": ("linrv-pool", ["ops_per_s"], ["pool-kv"]),
    "pool.events_per_check": ("linrv-pool", ["ops_per_s"], ["pool-kv"]),
    "pool.gced_events": ("linrv-pool", ["peak_rss_mb"], ["pool-kv"]),
    "pool.retained_events": ("linrv-pool", ["peak_rss_mb"], ["pool-kv"]),
    "pool.gc_ratio": ("linrv-pool", ["peak_rss_mb"], ["pool-kv"]),
    "runtime.record_ms": ("linrv-runtime", ["setup_s"], ["gen-check"]),
    "trace.decode_ms": ("linrv-trace", ["ops_per_s"], ["gen-check"]),
    "check.stream_ms": ("linrv-check", ["ops_per_s", "trace_p50_ms", "ok_frac", "growth_exp"], ["gen-check"]),
    "check.rechecks": ("linrv-check", ["ops_per_s", "trace_p50_ms", "ok_frac", "growth_exp"], ["gen-check"]),
    "check.batch_ms": ("linrv-check", ["ops_per_s", "trace_p50_ms", "ok_frac", "growth_exp"], ["gen-check"]),
    "check.specialized_share": ("linrv-check", ["ops_per_s", "trace_p50_ms", "ok_frac", "growth_exp"], ["gen-check"]),
    "check.stream_over_batch": ("linrv-check", ["ops_per_s", "trace_p50_ms", "ok_frac", "growth_exp"], ["gen-check"]),
    "check.deadline_misses": ("linrv-check", ["ops_per_s", "trace_p50_ms", "ok_frac", "growth_exp"], ["gen-check"]),
}


class Stop(Exception):
    """The benchmark cannot run (exit 2, no result line)."""


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q):
    """Linear interpolation between closest ranks."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low, high = math.floor(pos), math.ceil(pos)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def growth(t_small, t_large):
    """The exponent k in t(4N) = 4^k t(N), from median times."""
    if not t_small or not t_large or median(t_small) <= 0:
        return 0.0
    return math.log(median(t_large) / median(t_small)) / math.log(4)


def rss_mb(pid):
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def cpu_s(pid):
    """User plus system CPU time of a running process, in clock ticks' resolution."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Outcome:
    """How one child process ended."""

    def __init__(self, status, wall_s, cpu_s, maxrss_mb, stdout, stopped, start):
        self.status = status  # exit code, or None when it was killed
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.maxrss_mb = maxrss_mb
        self.stdout = stdout
        self.stopped = stopped  # None, "deadline" or "memory"
        self.start = start  # perf_counter() at launch


def run_child(cmd, deadline_s, ceiling_mb, out_path, cpu_deadline_s=None):
    """Runs `cmd` with stdout to `out_path`, killing it past the wall-clock
    deadline, past the CPU-time deadline (when given) or once its resident
    memory passes the ceiling, and waits until it ended.

    A watchdog thread samples the child; the main thread waits for the exit
    without reaping it, so the watchdog can never signal a reused pid.
    """
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL)
    lock = threading.Lock()
    state = {"exited": False, "stopped": None}

    def watch():
        while True:
            time.sleep(0.005)
            with lock:
                if state["exited"]:
                    return
                stopped = None
                if time.perf_counter() - start > deadline_s:
                    stopped = "deadline"
                elif cpu_deadline_s is not None and cpu_s(proc.pid) >= cpu_deadline_s:
                    stopped = "deadline"
                elif rss_mb(proc.pid) > ceiling_mb:
                    stopped = "memory"
                if stopped:
                    state["stopped"] = stopped
                    os.kill(proc.pid, signal.SIGKILL)
                    return

    watchdog = threading.Thread(target=watch, daemon=True)
    watchdog.start()
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - start
    with lock:
        state["exited"] = True
    watchdog.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as out:
        stdout = out.read().decode("utf-8", "replace")
    stopped = state["stopped"]
    code = None if stopped else proc.returncode
    cpu = usage.ru_utime + usage.ru_stime
    return Outcome(code, wall, cpu, usage.ru_maxrss / 1024, stdout, stopped, start)


class Run:
    """Counts, output checks, spans and metrics of one benchmark run."""

    def __init__(self, workload, seed, seconds, trace, binaries, workdir):
        self.origin = time.perf_counter()
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.linrv, self.perfbench = binaries
        self.workdir = workdir  # spans are written here
        self.scratch = os.path.join(workdir, f"run-{os.getpid()}")  # child outputs, traces
        self.sizes = WORKLOADS[workload]["sizes"]
        self.ceiling_mb = WORKLOADS[workload]["ceiling_mb"]
        self.attempted = 0
        self.failed = 0
        self.missed = 0  # units stopped at their deadline; not in `failed`
        self.wrong = []
        self.guard_stopped = False
        self.metrics = {}  # name -> (value, samples)
        self.spans = []  # [name, start_ns, end_ns, parent, op]

    def metric(self, name, value, samples):
        if not math.isfinite(value):
            value = 0.0
        self.metrics[name] = (value, samples)

    def note_wrong(self, what):
        if len(self.wrong) < 8:
            self.wrong.append(what)

    def add_spans(self, spans, op_base):
        """Adds one round's spans; parents are indices within `spans`."""
        base = len(self.spans)
        for name, start, end, parent, op in spans:
            parent = parent + base if parent >= 0 else -1
            self.spans.append([name, start, end, parent, op_base + op])

    def ns(self, perf_s):
        return int((perf_s - self.origin) * 1e9)

    def span(self, name, start_s, end_s, parent, op):
        """Records a span measured here; returns its index."""
        self.spans.append([name, self.ns(start_s), self.ns(end_s), parent, op])
        return len(self.spans) - 1

    def out(self, name):
        return os.path.join(self.scratch, name)

    def skip(self):
        """Counts a unit the memory guard left unrun."""
        self.attempted += 1
        self.failed += 1

    def write_spans(self):
        path = os.path.join(self.workdir, f"spans-{self.workload}-seed{self.seed}.jsonl")
        with open(path, "w") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                parent = parent if parent >= 0 else None
                out.write(json.dumps({"id": index, "name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "op": op}) + "\n")

    def layer_totals(self):
        """Self time (ns) and call durations (ns) per span name."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        self_ns, calls = {}, {}
        for (name, start, end, _, _), mine in zip(self.spans, own):
            self_ns[name] = self_ns.get(name, 0) + mine
            calls.setdefault(name, []).append(end - start)
        return self_ns, calls


# In-process workloads: session-enforce, session-observe, pool-kv.

def in_process_round(run, index, size_index, traced):
    """Runs one round in its own process; returns its JSON, or None when the
    memory guard or the round deadline stopped it."""
    ops = run.sizes[size_index]
    cmd = [run.perfbench, "round", run.workload, "--seed", str(run.seed), "--round", str(index),
           "--ops", str(ops), "--trace", "1" if traced else "0"]
    out = run_child(cmd, ROUND_DEADLINE_S, run.ceiling_mb, run.out("round.json"))
    run.attempted += ops
    if out.stopped or out.status != 0:
        run.failed += ops
        if out.stopped == "memory":
            run.guard_stopped = True
        elif out.stopped is None:
            raise Stop(f"{' '.join(cmd)} exited with status {out.status}")
        return None
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if result["attempted"] != ops:
        raise Stop(f"round ran {result['attempted']} of {ops} operations")
    run.failed += ops - result["ok"]
    for what in result["wrong"]:
        run.note_wrong(f"{run.workload} round {index}: {what}")
    result["maxrss_mb"] = out.maxrss_mb
    return result


def drive_in_process(run):
    deadline = time.perf_counter() + run.seconds
    plain = ([], [])
    traced = []
    index = 0
    while not run.guard_stopped and (index == 0 or time.perf_counter() < deadline):
        if run.trace:
            # The same 4N plan untraced and traced, for the overhead.
            for bucket, with_spans in ((plain[1], False), (traced, True)):
                result = in_process_round(run, index, 1, with_spans)
                if result:
                    bucket.append(result)
                    if with_spans:
                        run.add_spans(result["spans"], index << 32)
        else:
            for size_index in (0, 1):
                result = in_process_round(run, index, size_index, False)
                if result:
                    plain[size_index].append(result)
        index += 1
    if run.trace:
        in_process_layers(run, plain[1], traced)
    else:
        in_process_end_to_end(run, plain)


def in_process_end_to_end(run, plain):
    small, large = plain
    throughput = [r["ok"] / r["timed_s"] for r in large if r["timed_s"] > 0]
    run.metric("ops_per_s", median(throughput), sum(r["ok"] for r in large))
    latencies_us = [ns / 1e3 for r in large for ns in r["latencies_ns"]]
    run.metric("op_p50_us", median(latencies_us), len(latencies_us))
    run.metric("op_p95_us", quantile(latencies_us, 0.95), len(latencies_us))
    history_ms = [(r["timed_s"] + r["verdict_s"]) * 1e3 for r in large]
    run.metric("trace_p50_ms", median(history_ms), len(history_ms))
    run.metric("growth_exp", growth([r["timed_s"] for r in small], [r["timed_s"] for r in large]),
               min(len(small), len(large)))
    verdict_ms = [r["verdict_s"] * 1e3 for r in large]
    run.metric("verdict_ms", median(verdict_ms), len(verdict_ms))
    peaks = [r["maxrss_mb"] for r in large]
    run.metric("peak_rss_mb", median(peaks), len(peaks))
    setups = [r["setup_s"] for r in small + large]
    run.metric("setup_s", median(setups), len(setups))


def in_process_layers(run, plain, traced):
    rounds = max(len(traced), 1)
    self_ns, calls = run.layer_totals()
    if traced and plain:
        overhead = median([r["timed_s"] for r in traced]) / median([r["timed_s"] for r in plain]) - 1
        run.metric("bench.trace_overhead_frac", overhead, min(len(traced), len(plain)))
    ops = calls.get("op", [])
    run.metric("bench.op_ms", sum(ops) / 1e6 / rounds, len(ops))
    run.metric("bench.remainder_ms", self_ns.get("op", 0) / 1e6 / rounds, len(ops))
    for layer in ("drv.announce", "drv.collect", "runtime.inner", "verifier.publish",
                  "verifier.scan", "sketch.build", "check.membership", "verdict.scan",
                  "verdict.sketch", "verdict.membership", "pool.op", "pool.quiesce",
                  "pool.check_all"):
        run.metric(f"{layer}_ms", self_ns.get(layer, 0) / 1e6 / rounds, len(calls.get(layer, [])))
    for layer in ("drv.announce", "drv.collect", "verifier.publish", "sketch.build",
                  "check.membership", "pool.session"):
        durations_us = [ns / 1e3 for ns in calls.get(layer, [])]
        run.metric(f"{layer}_p50_us", median(durations_us), len(durations_us))

    def gauge(name):
        return [v for r in traced for v in r["gauges"].get(name, [])]

    view_lens = gauge("view_len")
    run.metric("drv.view_len_p50", median(view_lens), len(view_lens))
    for metric, name in (("drv.view_len_max", "view_len"), ("verifier.tuples_max", "tuples"),
                         ("sketch.events_max", "events"), ("pool.queued_max", "queued")):
        samples = gauge(name)
        run.metric(metric, max(samples, default=0.0), len(samples))
    per_round = {name: statistics.fmean(gauge(name)) if gauge(name) else 0.0
                 for name in ("ingested", "processed", "checks", "steals", "gced", "retained")}
    samples = len(gauge("checks"))
    for metric, name in (("pool.ingested", "ingested"), ("pool.processed", "processed"),
                         ("pool.checks", "checks"), ("pool.steals", "steals"),
                         ("pool.gced_events", "gced"), ("pool.retained_events", "retained")):
        run.metric(metric, per_round[name], samples)
    run.metric("pool.events_per_check", per_round["processed"] / max(per_round["checks"], 1), samples)
    run.metric("pool.gc_ratio", per_round["gced"] / max(per_round["processed"], 1), samples)


# gen-check: the `linrv gen | linrv check` user path.

def gen_seed(seed, index, kind_index):
    return (seed * 1_000_003 + index * len(GEN_KINDS) + kind_index) % (1 << 63)


def trace_set(run, index, size_index):
    """Generates round `index`'s traces at one size; returns their specs and
    the generation time."""
    ops = run.sizes[size_index]
    traces, busy = [], 0.0
    for kind_index, kind in enumerate(GEN_KINDS):
        for faulty in (False, True):
            path = run.out(f"r{index}-{ops}-{kind}{'-faulty' if faulty else ''}.jsonl")
            cmd = [run.linrv, "gen", "--kind", kind, "--seed", str(gen_seed(run.seed, index, kind_index)),
                   "--processes", str(GEN_PROCESSES), "--ops", str(ops), "--out", path]
            if faulty:
                cmd.append("--faulty")
            out = run_child(cmd, GEN_DEADLINE_S, run.ceiling_mb, run.out("gen.out"))
            if out.status != 0:
                raise Stop(f"{' '.join(cmd)} failed ({out.stopped or out.status})")
            busy += out.cpu_s
            if run.trace:
                run.span("runtime.record", out.start, out.start + out.wall_s, -1, index << 32)
            traces.append({"path": path, "kind": kind, "faulty": faulty, "ops": ops * GEN_PROCESSES})
    return traces, busy


def check_trace(run, trace, index, extra=()):
    """Runs `linrv check` on one trace and applies the output check."""
    cmd = [run.linrv, "check", trace["path"], "--quiet", *extra]
    out = run_child(cmd, TRACE_WALL_CAP_S, run.ceiling_mb, run.out("check.out"), TRACE_DEADLINE_S)
    run.attempted += 1
    expected = 1 if trace["faulty"] else 0
    if out.stopped == "deadline":
        run.missed += 1
    elif out.stopped:
        run.failed += 1
        run.guard_stopped = True
    elif out.status != expected:
        run.failed += 1
        what = {(0, 1): "false alarm", (1, 0): "missed violation"}.get((expected, out.status), f"exit {out.status}")
        run.note_wrong(f"gen-check round {index}: {what} on {os.path.basename(trace['path'])}")
    return out


def gen_check_untraced(run):
    deadline = time.perf_counter() + run.seconds
    setups, round_s = [], ([], [])
    throughput = []  # per 4N round: operations of passed correct traces per second
    correct = []  # (ops, cpu_s, passed) of correct traces at 4N
    faulty_ms, peaks = [], []
    index = 0
    while not run.guard_stopped and (index == 0 or time.perf_counter() < deadline):
        sets = [trace_set(run, index, size_index) for size_index in (0, 1)]
        setups.append(sum(busy for _, busy in sets))
        for size_index, (traces, _) in enumerate(sets):
            busy, peak, ops = 0.0, 0.0, 0
            for trace in traces:
                if run.guard_stopped:
                    run.skip()
                    continue
                out = check_trace(run, trace, index)
                peak = max(peak, out.maxrss_mb)
                if size_index == 0 and not trace["faulty"]:
                    busy += out.cpu_s
                if size_index == 1:
                    if trace["faulty"]:
                        faulty_ms.append(out.cpu_s * 1e3)
                    else:
                        busy += out.cpu_s
                        ops += trace["ops"] if out.status == 0 else 0
                        correct.append((trace["ops"], out.cpu_s, out.status == 0))
            if not run.guard_stopped:
                round_s[size_index].append(busy)
                if size_index == 1:
                    peaks.append(peak)
                    throughput.append(ops / busy)
        index += 1
    run.metric("ops_per_s", median(throughput), sum(n for n, _, passed in correct if passed))
    per_op_us = [cpu / n * 1e6 for n, cpu, _ in correct]
    run.metric("op_p50_us", median(per_op_us), len(per_op_us))
    run.metric("op_p95_us", quantile(per_op_us, 0.95), len(per_op_us))
    times_ms = [cpu * 1e3 for _, cpu, _ in correct]
    run.metric("trace_p50_ms", median(times_ms), len(times_ms))
    run.metric("growth_exp", growth(*round_s), min(map(len, round_s)))
    run.metric("verdict_ms", median(faulty_ms), len(faulty_ms))
    run.metric("peak_rss_mb", median(peaks), len(peaks))
    run.metric("setup_s", median(setups), len(setups))


def probe(run, trace, phase, parent, op):
    """Runs the layer probe under the deadline and records its phases as
    spans. Returns the decode time, the phase's time (a phase cut off by the
    deadline counts the rest of the probe's time) and the phase's line."""
    cmd = [run.perfbench, "probe", trace["path"], phase]
    out = run_child(cmd, TRACE_WALL_CAP_S, run.ceiling_mb, run.out("probe.out"), TRACE_DEADLINE_S)
    run.guard_stopped |= out.stopped == "memory"
    lines = {line["phase"]: line for line in map(json.loads, out.stdout.splitlines())}
    child = run.span(f"probe.{phase}", out.start, out.start + out.wall_s, parent, op)
    offset = run.ns(out.start)
    for name, layer in (("decode", "trace.decode"), (phase, f"check.{phase}")):
        if name in lines:
            line = lines[name]
            run.spans.append([layer, offset + line["start_ns"], offset + line["end_ns"], child, op])

    def ms(name):
        line = lines.get(name)
        return (line["end_ns"] - line["start_ns"]) / 1e6 if line else 0.0

    decode_ms = ms("decode")
    phase_ms = ms(phase) if phase in lines else out.cpu_s * 1e3 - decode_ms
    return decode_ms, phase_ms, lines.get(phase, {})


def gen_check_traced(run):
    deadline = time.perf_counter() + run.seconds
    per_round = {"decode": [], "stream": [], "batch": [], "rechecks": [], "misses": []}
    routes, ratios = [], []
    index = 0
    while not run.guard_stopped and (index == 0 or time.perf_counter() < deadline):
        traces, _ = trace_set(run, index, 1)
        totals = dict.fromkeys(per_round, 0.0)
        for number, trace in enumerate(traces):
            if run.guard_stopped:
                run.skip()
                continue
            op = (index << 32) + number
            root = run.span("trace", time.perf_counter(), 0, -1, op)
            stats_path = run.out("check-stats.json")
            if os.path.exists(stats_path):
                os.remove(stats_path)
            out = check_trace(run, trace, index, [f"--stats={stats_path}"])
            run.span("check.cli", out.start, out.start + out.wall_s, root, op)
            if out.stopped == "deadline":
                totals["misses"] += 1
            elif os.path.exists(stats_path):
                totals["rechecks"] += rechecks(stats_path)
            decode_ms, batch_ms, batch = probe(run, trace, "batch", root, op)
            _, stream_ms, _ = probe(run, trace, "stream", root, op)
            run.spans[root][2] = run.ns(time.perf_counter())
            routes.append(batch.get("route") == "specialized")
            if batch_ms > 0:
                ratios.append(stream_ms / batch_ms)
            totals["decode"] += decode_ms
            totals["batch"] += batch_ms
            totals["stream"] += stream_ms
        if not run.guard_stopped:
            for name in per_round:
                per_round[name].append(totals[name])
        index += 1
    rounds = len(per_round["batch"])
    self_ns, _ = run.layer_totals()
    run.metric("runtime.record_ms", self_ns.get("runtime.record", 0) / 1e6 / max(rounds, 1), rounds)
    for metric, name in (("trace.decode_ms", "decode"), ("check.stream_ms", "stream"),
                         ("check.batch_ms", "batch"), ("check.rechecks", "rechecks"),
                         ("check.deadline_misses", "misses")):
        run.metric(metric, statistics.fmean(per_round[name]) if rounds else 0.0, rounds)
    run.metric("check.specialized_share", sum(routes) / len(routes) if routes else 0.0, len(routes))
    run.metric("check.stream_over_batch", median(ratios), len(ratios))


def rechecks(stats_path):
    with open(stats_path) as stats:
        families = json.load(stats)["families"]
    for family in families:
        if family["name"] == "linrv_check_rechecks_total":
            return sum(series["value"] for series in family["series"])
    return 0


# Entry point.

def build(root):
    """Builds the CLI and the driver; returns their paths."""
    if not (os.path.isfile(os.path.join(root, "Cargo.toml")) and os.path.isdir(os.path.join(root, "crates"))):
        raise Stop("run from the root of a linrv checkout (Cargo.toml and crates/ not found)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (["cargo", "build", "--release", "--offline", "-q", "-p", "linrv-cli"],
                ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
                 os.path.join(HERE, "Cargo.toml")]):
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            raise Stop(f"build failed: {' '.join(cmd)}")
    return os.path.join(target, "release", "linrv"), os.path.join(target, "release", "perfbench")


def declared_metrics(trace):
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as spec:
        spec = json.load(spec)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    parser = argparse.ArgumentParser(description="The linrv monitor-path benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    root = os.getcwd()
    try:
        declared = declared_metrics(args.trace)
        binaries = build(root)
        run = Run(args.workload, args.seed, args.seconds, args.trace, binaries,
                  os.path.join(root, ".perfbench"))
        os.makedirs(run.scratch, exist_ok=True)
        try:
            if args.workload != "gen-check":
                drive_in_process(run)
            elif args.trace:
                gen_check_traced(run)
            else:
                gen_check_untraced(run)
        finally:
            shutil.rmtree(run.scratch, ignore_errors=True)
    except Stop as stop:
        print(f"perfbench: {stop}", file=sys.stderr)
        return 2
    if args.trace:
        run.write_spans()
    else:
        run.metric("ok_frac", 1 - (run.failed + run.missed) / max(run.attempted, 1), run.attempted)
    metrics = {}
    for name, unit in declared.items():
        # A layer the workload does not exercise spent no time and did no work.
        value, samples = run.metrics.get(name, (0.0, 0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value:.6g} {unit} n={samples}")
    for what in run.wrong:
        print(f"WRONG: {what}")
    if run.missed:
        print(f"deadline misses: {run.missed} of {run.attempted} traces")
    if run.guard_stopped:
        print(f"memory guard: stopped at {run.ceiling_mb} MB")
    correct = not run.wrong
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
