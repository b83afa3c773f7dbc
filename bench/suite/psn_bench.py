#!/usr/bin/env python3
"""End-to-end benchmark suite for psn_cli (see README.md in this directory).

One measured run of one workload; the last stdout line is the result JSON:
    psn_bench.py --workload W --seed N --seconds S --trace 0|1
One full set (every workload: warm-up, R reps, traced pass) into a file:
    psn_bench.py run --seed N --reps R --out FILE [--build DIR]
Parent against change, one row per workload and end-to-end metric:
    psn_bench.py compare --parent A.json [...] --change B.json [...]

Builds bench/suite (psn_cli plus the tracer psn_bench_layers) into
.bench_build at the repository root on first use. Python stdlib only.
"""

import argparse
import datetime
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
DEFAULT_BUILD = os.path.join(ROOT, ".bench_build")

# A fault plan inside every horizon below (sim/fault grammar). The first
# partition covers the opening occupancy ramp on purpose: without it, the
# physical-eps race audit flags an error there on about 1 seed in 400 (seed
# 28), a checker defect the README lists, not a slow-down to measure.
FAULTS = "cut:1-3@1+5;crash:2@5+4;crash:5@200+30;cut:2-7@300+60"

# Each workload is one closed-loop batch job: one psn_cli process at a time,
# at most 3 threads, each rep a fresh process. A rep takes well under a
# second, so one run's median rests on tens of reps: on a shared host,
# slow-downs come in bursts of seconds, and many short reps outvote them.
WORKLOADS = {
    "hall_broadcast": {
        "kind": "run",
        "args": ["run", "--doors", "32", "--seconds", "300", "--threads", "1",
                 "--metrics"],
    },
    "city_unicast": {
        "kind": "run",
        "args": ["run", "--scenario", "city", "--doors", "3000",
                 "--seconds", "2", "--shards", "4", "--shard-threads", "2",
                 "--threads", "1", "--metrics"],
    },
    "check_faulty": {
        "kind": "check",
        "args": ["check", "--doors", "20", "--seconds", "450",
                 "--loss", "0.1", "--ge", "0.05,0.3,0.01,0.6",
                 "--faults", FAULTS, "--trace-cap", "4000000"],
    },
    "serve_ingest": {
        "kind": "serve",
        "args": ["serve", "--procs", "17"],
        # Set-up: the trace the timed serve reads on stdin.
        "trace_args": ["run", "--doors", "16", "--seconds", "450",
                       "--loss", "0.05", "--faults", FAULTS, "--threads", "1",
                       "--trace-cap", "8000000"],
    },
}

MIN_REPS = 3
SETUP_REPS = 25        # in-process set-ups per run (run/check workloads)
SERVE_SETUP_REPS = 3   # trace generations per run (serve_ingest)
TRACED_REPS = 3        # traced reps per workload in a set (`run`)
RACE_PAIR_CAP = 100000  # check::RaceScanConfig::max_races
# Absolute floors under the relative bounds, where a tiny base makes a
# relative bound meaningless.
BOUND_FLOORS = {"setup_s": 0.02, "peak_rss_mb": 2.0}


class BenchError(Exception):
    """The benchmark itself cannot run (no sources, build failed, ...)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# --------------------------------------------------------------------------
# Build


def build_type(build_dir):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"CMAKE_BUILD_TYPE:[^=]*=(.*)", line)
                if m:
                    return m.group(1).strip() or "unspecified"
    except FileNotFoundError:
        pass
    return "unspecified"


def build(build_dir):
    """Configures (once) and builds the suite; returns the binaries."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError(f"no repository sources at {ROOT}")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SUITE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    # Timing numbers from an unoptimized tree must never be recorded (the
    # same guard bench/run_bench.sh applies).
    kind = build_type(build_dir)
    if kind not in ("Release", "RelWithDebInfo"):
        raise BenchError(f"{build_dir} is CMAKE_BUILD_TYPE={kind}; "
                         "configure with -DCMAKE_BUILD_TYPE=Release")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "psn_cli",
           "psn_bench_layers", "psn_bench_exec", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    os.makedirs(os.path.join(build_dir, "work"), exist_ok=True)
    return {
        "cli": os.path.join(build_dir, "psn", "examples", "psn_cli"),
        "layers": os.path.join(build_dir, "psn_bench_layers"),
        "exec": os.path.join(build_dir, "psn_bench_exec"),
        "work": os.path.join(build_dir, "work"),
        "build_type": kind,
    }


# --------------------------------------------------------------------------
# Child processes


class Proc:
    """One finished child, run through psn_bench_exec: wall, CPU and peak
    RSS as wait4 measured them, and its stdout."""

    def __init__(self, bins, argv, out_path, stdin_path=None):
        launched = subprocess.run(
            [bins["exec"], out_path, stdin_path or "-"] + argv,
            stdout=subprocess.PIPE, text=True)
        if launched.returncode != 0:
            raise BenchError(f"cannot launch {argv[0]}")
        usage = json.loads(launched.stdout)
        self.wall_s = usage["wall_s"]
        self.cpu_s = usage["cpu_s"]
        self.rss_mb = usage["peak_rss_kb"] / 1024.0
        self.code = usage["exit"]
        with open(out_path, encoding="utf-8", errors="replace") as f:
            self.out = f.read()


def sha256(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
    return h.hexdigest()


def file_digest(path):
    """(sha256, line count) of a file, read in chunks."""
    h, lines = hashlib.sha256(), 0
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), lines


def metrics_table(text):
    """The counters of psn_cli's --metrics table."""
    rows = re.findall(r"^\| (\S+)\s+\| counter\s+\| (\d+)\s+\|$", text, re.M)
    return {name: int(value) for name, value in rows}


def check_summary(text):
    at = text.find("psn-check verdict")
    return text[at:].strip() if at >= 0 else ""


def race_pairs(summary):
    return [int(n) for n in
            re.findall(r"^\s*race-audit\.\S+: \d+ event\(s\), (\d+) pair",
                       summary, re.M)]


class Gate:
    """The correctness gate of one rep: ok/why, a digest of the gated
    outputs, the rep's work items, and the counters the traced run must
    reproduce."""

    def __init__(self, ok, why, digest="", items=0, counters=None):
        self.ok, self.why, self.digest = ok, why, digest
        self.items, self.counters = items, counters or {}


def gate_run(p, csv_path):
    if p.code != 0:
        return Gate(False, f"exit code {p.code}")
    with open(csv_path) as f:
        csv = f.read()
    metrics_at = p.out.find("metrics (merged")
    digest = sha256(csv, p.out[metrics_at:])
    counters = metrics_table(p.out)
    events = counters.get("sim.events_executed", 0)
    world = counters.get("world.events", 0)
    observed = counters.get("root.observed_updates", 0)
    if events <= 0 or not 0 < observed <= world:
        return Gate(False, "implausible counters", digest)
    for row in csv.splitlines()[1:]:
        name, occ, tp, _fp, fn = row.split(",")[:5]
        if int(tp) + int(fn) != int(occ):
            return Gate(False, f"{name}: TP + FN != occurrences", digest)
    return Gate(True, "", digest, events, counters)


def gate_check(p):
    summary = check_summary(p.out)
    if p.code != 0:
        return Gate(False, f"exit code {p.code}")
    if not summary.startswith("psn-check verdict: clean"):
        return Gate(False, "verdict not clean", sha256(summary))
    pairs = race_pairs(summary)
    # A scan stopped at the cap may have missed the race that explains an
    # error, so a truncated audit never counts as clean.
    if not pairs or max(pairs) >= RACE_PAIR_CAP:
        return Gate(False, "race audit truncated at the pair cap",
                    sha256(summary))
    events = re.search(r"^\s*lamport: (\d+) event", summary, re.M)
    return Gate(True, "", sha256(summary), int(events.group(1)),
                {"check_summary": summary, "race_pairs_max": max(pairs)})


def gate_serve(p, lines):
    if p.code != 0:
        return Gate(False, f"exit code {p.code}")
    eof = [json.loads(l) for l in p.out.splitlines()
           if l.startswith('{"event":"eof"')]
    if len(eof) != 1:
        return Gate(False, "no eof event", sha256(p.out))
    eof = eof[0]
    if eof["verdict"] != "clean" or eof["records"] != lines or eof["rejected"]:
        return Gate(False, f"eof {eof}", sha256(p.out))
    counters = {k: eof[k] for k in ("records", "violations", "peak_pending",
                                    "rejected")}
    return Gate(True, "", sha256(p.out), lines, counters)


# --------------------------------------------------------------------------
# Measurement


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Runner:
    """Measures one workload at one seed: set-up, warm-up, timed reps."""

    def __init__(self, bins, name, seed):
        self.bins, self.name, self.seed = bins, name, seed
        self.w = WORKLOADS[name]
        self.work = bins["work"]
        self.attempted = 0
        self.failures = []
        self.digest = None
        self.gate = None  # the last passing gate of a timed rep
        self.trace_path = None
        self.lines = 0

    def cli_args(self, args):
        return [self.bins["cli"]] + args + ["--seed", str(self.seed)]

    def record(self, gate):
        """Counts one gated process; outputs must repeat byte for byte."""
        self.attempted += 1
        if gate.ok and self.digest is not None and gate.digest != self.digest:
            gate = Gate(False, "outputs differ between reps of one seed")
        if not gate.ok:
            self.failures.append(gate.why)
            log(f"psn_bench: {self.name} seed {self.seed}: FAILED: {gate.why}")
        elif self.digest is None:
            self.digest = gate.digest
        return gate

    def setup(self):
        """Set-up time samples (s). Run/check workloads: the in-process
        world pre-roll plus system construction. serve_ingest: generating
        the trace the timed serve reads."""
        if self.w["kind"] != "serve":
            p = self.layers(["--setup-reps", str(SETUP_REPS), "--"] +
                            self.cli_args(self.w["args"])[1:], "setup")
            self.attempted += 1
            if p.code != 0:
                self.failures.append(f"setup exit code {p.code}")
                return []
            return json.loads(p.out.splitlines()[-1])["setup_s"]
        path = os.path.join(self.work, f"serve-{self.seed}.jsonl")
        samples, digests = [], set()
        for _ in range(SERVE_SETUP_REPS):
            p = Proc(self.bins,
                     self.cli_args(self.w["trace_args"] + ["--trace", path]),
                     path + ".out")
            self.attempted += 1
            if p.code != 0:
                self.failures.append(f"trace generation exit code {p.code}")
                return samples
            samples.append(p.wall_s)
            digest, self.lines = file_digest(path)
            digests.add(digest)
        if len(digests) != 1:
            self.failures.append("trace generation is not deterministic")
        self.trace_path = path
        return samples

    def rep(self):
        """One timed, gated rep; returns (Proc, Gate)."""
        out = os.path.join(self.work, f"{self.name}-{self.seed}.out")
        kind = self.w["kind"]
        if kind == "run":
            csv = os.path.join(self.work, f"{self.name}-{self.seed}.csv")
            p = Proc(self.bins, self.cli_args(self.w["args"] + ["--csv", csv]),
                     out)
            gate = gate_run(p, csv)
        elif kind == "check":
            p = Proc(self.bins, self.cli_args(self.w["args"]), out)
            gate = gate_check(p)
        else:
            p = Proc(self.bins, [self.bins["cli"]] + self.w["args"], out,
                     self.trace_path)
            gate = gate_serve(p, self.lines)
        return p, self.record(gate)

    def layers(self, args, tag):
        out = os.path.join(self.work, f"{self.name}-{self.seed}.{tag}.out")
        return Proc(self.bins, [self.bins["layers"]] + args, out)

    def prepare(self):
        """Set-up and one discarded warm-up rep (page cache, CPU frequency,
        lazy set-up). Returns the end-to-end samples to fill, or None when
        set-up failed."""
        setup = self.setup()
        if self.failures:
            return None
        self.rep()
        return {"wall_s": [], "cpu_s": [], "peak_rss_mb": [],
                "items_per_s": [], "setup_s": setup}

    def timed_rep(self, samples):
        p, gate = self.rep()
        if gate.ok:
            self.gate = gate
            samples["wall_s"].append(p.wall_s)
            samples["cpu_s"].append(p.cpu_s)
            samples["peak_rss_mb"].append(p.rss_mb)
            samples["items_per_s"].append(gate.items / p.wall_s)

    def measure(self, seconds):
        """prepare(), then timed reps until `seconds` have passed (at least
        MIN_REPS). Returns the samples, or None when set-up failed."""
        samples = self.prepare()
        if samples is None:
            return None
        done, start = 0, time.perf_counter()
        while done < MIN_REPS or time.perf_counter() - start < seconds:
            self.timed_rep(samples)
            done += 1
        return samples

    def traced(self, seconds, samples, reps=None):
        """Per-layer metrics: traced in-process reps until `seconds` have
        passed (or exactly `reps`), medians across reps, plus the ladder.
        `samples` are the black-box samples the attribution is checked
        against."""
        per_rep = []
        start = time.perf_counter()
        while (len(per_rep) < (reps or 1) or
               (reps is None and time.perf_counter() - start < seconds)):
            spans_path = os.path.join(self.work,
                                      f"{self.name}-{self.seed}.spans")
            args = ["--spans", spans_path, "--run", str(len(per_rep))]
            if self.w["kind"] == "serve":
                args += ["--serve", self.trace_path, "--procs",
                         self.w["args"][2]]
            else:
                args += ["--"] + self.cli_args(self.w["args"])[1:]
            p = self.layers(args, "layers")
            self.attempted += 1
            if p.code != 0:
                self.failures.append(f"traced run exit code {p.code}")
                return None
            result = json.loads(p.out.splitlines()[-1])
            with open(spans_path) as f:
                spans = [json.loads(l) for l in f]
            per_rep.append(layer_metrics(spans, result,
                                         median(samples["wall_s"]),
                                         self.gate.counters, self.lines))
        ladder = self.layers(["--ladder"], "ladder")
        self.attempted += 1
        if ladder.code != 0:
            self.failures.append(f"ladder exit code {ladder.code}")
            return None
        metrics = {k: median([r[0][k] for r in per_rep]) for k in per_rep[0][0]}
        metrics.update(json.loads(ladder.out.splitlines()[-1]))
        self_s = {k: median([r[1].get(k, 0.0) for r in per_rep])
                  for k in per_rep[0][1]}
        return metrics, self_s


def layer_metrics(spans, result, e2e_wall, expected, lines):
    """Per-layer metrics of one traced rep, plus each span name's self time
    (its duration minus the time its child spans cover). `e2e_wall` is the
    black-box median wall time, `expected` the black-box counters."""
    dur, items, allocs, self_ns = {}, {}, {}, {}
    child_ns = {}
    for s in spans:
        d = s["end_ns"] - s["start_ns"]
        if s["parent"] >= 0:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + d
    for s in spans:
        d = s["end_ns"] - s["start_ns"]
        n = s["name"]
        dur[n] = dur.get(n, 0) + d
        items[n] = items.get(n, 0) + s["items"]
        allocs[n] = allocs.get(n, 0) + s["allocs"]
        self_ns[n] = self_ns.get(n, 0) + max(0, d - child_ns.get(s["id"], 0))

    def secs(n):
        return dur.get(n, 0) * 1e-9

    def per(n, table=dur):
        return table.get(n, 0) / items[n] if items.get(n) else 0.0

    counters = result["counters"]
    root = dur["pipeline"]
    m = {
        "world.preroll_s": secs("world.preroll"),
        "core.system_build_s": secs("core.system_build"),
        "core.system_run_s": secs("core.system_run"),
        "core.system_run_ns_per_sim_event": per("core.system_run"),
        "core.system_run_allocs_per_sim_event":
            per("core.system_run", allocs),
        "sim.trace_merge_s": secs("sim.trace_merge"),
        "core.oracle_s": secs("core.oracle"),
        "core.oracle_ns_per_world_event": per("core.oracle"),
    }
    for d in ("delivery-order", "strobe-scalar", "strobe-vector",
              "physical-eps"):
        m[f"core.detector.{d}_ns_per_update"] = per(f"core.detector.{d}")
    m.update({
        "analysis.score_s": secs("analysis.score"),
        "check.check_run_s": secs("check.check_run"),
        "check.check_run_ns_per_record": per("check.check_run"),
        "check.check_run_allocs_per_record": per("check.check_run", allocs),
        "check.race_scan_s": secs("check.race_scan"),
        "check.fault_spans_s": secs("check.fault_spans"),
        "check.audit_s": secs("check.audit"),
        "check.race_pairs_max": result.get("race_pairs_max", 0),
        "serve.parse_ns_per_line": per("serve.parse"),
        "check.stream_feed_ns_per_record": per("check.stream_feed"),
        "serve.session_ns_per_line": per("serve.session"),
        "serve.session_allocs_per_line": per("serve.session", allocs),
        "check.peak_pending_sends": counters.get("peak_pending", 0),
    })
    m["serve.session_self_ns_per_line"] = max(
        0.0, m["serve.session_ns_per_line"] - m["serve.parse_ns_per_line"] -
        m["check.stream_feed_ns_per_record"])
    if lines:
        m["serve.io_ns_per_line"] = (e2e_wall * 1e9 / lines -
                                     m["serve.session_ns_per_line"])
        untraced = result["session_untraced_s"] * 1e9
        traced = dur["serve.session"] + dur.get("serve.session_setup", 0) + \
            dur.get("serve.session_finish", 0)
        m["bench.tracing_overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    else:
        m["serve.io_ns_per_line"] = 0.0
        m["bench.tracing_overhead_pct"] = 100.0 * (root * 1e-9 / e2e_wall - 1)
    m["bench.span_coverage_pct"] = 100.0 * (1.0 - self_ns["pipeline"] / root)
    if "check_summary" in expected:
        match = result.get("check_summary", "").strip() == \
            expected["check_summary"]
    else:
        match = bool(counters) and all(expected.get(k) == v
                                       for k, v in counters.items())
    m["bench.layers_match_e2e"] = 1 if match else 0
    return m, {k: v * 1e-9 for k, v in self_ns.items()}


# --------------------------------------------------------------------------
# Entry points


def one_run(args):
    """One measured run of one workload; prints the result line."""
    spec = load_spec()
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload}")
    bins = build(DEFAULT_BUILD)
    r = Runner(bins, args.workload, args.seed)
    if args.trace == 0:
        samples = r.measure(args.seconds)
        wanted = spec["end_to_end"]
        values = ({k: median(v) for k, v in samples.items()}
                  if samples and r.gate else {})
    else:
        # Half the time for the black-box baseline the attribution is
        # checked against, half for traced reps.
        samples = r.measure(args.seconds / 2)
        layers = r.traced(args.seconds / 2, samples) if r.gate else None
        wanted = spec["per_layer"]
        values = layers[0] if layers else {}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if values and missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    failed = len(r.failures)
    print(json.dumps({"correct": failed == 0 and bool(values),
                      "attempted": max(1, r.attempted), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 and values else 1


def context(bins, seed):
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {"build_type": bins["build_type"], "git_sha": sha or "unknown",
            "nproc": os.cpu_count(), "seed": seed,
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds")}


def run_set(args):
    """Every workload: set-up, warm-up, `reps` timed reps, and the traced
    pass (TRACED_REPS traced reps and the ladder). The timed reps go round
    the workloads in turn, so a burst of host load costs each workload one
    rep instead of one workload all of them."""
    spec = load_spec()
    bins = build(os.path.abspath(args.build))
    out = {"context": context(bins, args.seed), "workloads": {}}
    runners = [Runner(bins, w["name"], args.seed) for w in spec["workloads"]]
    samples = {r.name: r.prepare() for r in runners}
    for _ in range(args.reps):
        for r in runners:
            if samples[r.name] is not None:
                r.timed_rep(samples[r.name])
    exit_code = 0
    for r in runners:
        name, e2e = r.name, samples[r.name]
        layers = (r.traced(0, e2e, reps=TRACED_REPS)
                  if e2e and r.gate else None)
        e2e_rows = {}
        for m in spec["end_to_end"]:
            v = e2e[m["name"]] if e2e else []
            q1, q3 = quartiles(v)
            e2e_rows[m["name"]] = {"median": median(v), "q1": q1, "q3": q3,
                                   "n": len(v), "unit": m["unit"],
                                   "samples": v}
        out["workloads"][name] = {
            "attempted": r.attempted, "failed": len(r.failures),
            "failures": r.failures, "digest": r.digest, "e2e": e2e_rows,
            "layers": layers[0] if layers else {},
            "self_s": layers[1] if layers else {},
        }
        print(f"== {name} (seed {args.seed}, {r.attempted} attempted, "
              f"{len(r.failures)} failed)")
        for k, row in e2e_rows.items():
            print(f"  {k:<24} {row['median']:>14.6g} {row['unit']:<9} "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n {row['n']}")
        for m in spec["per_layer"]:
            v = out["workloads"][name]["layers"].get(m["name"], 0.0)
            print(f"  {m['name']:<44} {v:>14.6g} {m['unit']}")
        if r.failures:
            exit_code = 1
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
    return exit_code


def verdict(metric, better, bound, parent, change, pairs):
    """better / within / worse / unresolved for one metric on one workload.
    A spread wider than the bound is unresolved unless the change wins every
    pair. A gain needs the change to win 9 pairs in 10 and the medians to
    differ by more than the parent's own quartile spread."""
    sign = 1.0 if better == "lower" else -1.0
    pm, cm = median(parent), median(change)
    slack = max(bound * abs(pm), BOUND_FLOORS.get(metric, 0.0))
    worse_by = sign * (cm - pm)
    spread = max(q3 - q1 for q1, q3 in (quartiles(parent), quartiles(change)))
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    if wins == len(pairs):
        return "better"
    if spread > slack:
        return "unresolved"
    if worse_by > slack:
        return "worse"
    q1, q3 = quartiles(parent)
    if wins >= 0.9 * len(pairs) and -worse_by > q3 - q1:
        return "better"
    return "within"


def compared_values(p_runs, c_runs):
    """Each side's values and the (parent, change) pairs to count wins over.
    With several result files a side's values are the per-file medians, and
    the i-th files of the two sides form a pair (the 10-pair protocol). With
    one file each, they are the rep samples, every parent sample paired with
    every change sample."""
    if len(p_runs) > 1 and len(p_runs) == len(c_runs):
        ps, cs = [median(r) for r in p_runs], [median(r) for r in c_runs]
        return ps, cs, list(zip(ps, cs))
    ps = [median(r) for r in p_runs] if len(p_runs) > 1 else p_runs[0]
    cs = [median(r) for r in c_runs] if len(c_runs) > 1 else c_runs[0]
    return ps, cs, [(p, c) for p in ps for c in cs]


def compare(args):
    spec = load_spec()
    sides = []
    for files in (args.parent, args.change):
        side = {}
        for path in files:
            with open(path) as f:
                res = json.load(f)
            seed = res["context"]["seed"]
            for name, w in res["workloads"].items():
                s = side.setdefault(name, {"runs": {}, "attempted": 0,
                                           "failed": 0, "digests": {}})
                s["attempted"] += w["attempted"]
                s["failed"] += w["failed"]
                s["digests"][seed] = w["digest"]
                for metric, row in w["e2e"].items():
                    if row["samples"]:
                        s["runs"].setdefault(metric, []).append(row["samples"])
        sides.append(side)
    parent, change = sides
    exit_code = 0

    def stat(values):
        q1, q3 = quartiles(values)
        return f"{median(values):.5g} [{q1:.5g}, {q3:.5g}]"

    print(f"{'workload':<16} {'metric':<13} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'change/parent':>13} "
          f"{'bound':>5} verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in parent or name not in change:
            print(f"{name:<16} missing on one side")
            exit_code = 1
            continue
        p, c = parent[name], change[name]
        for m in spec["end_to_end"]:
            p_runs, c_runs = p["runs"].get(m["name"]), c["runs"].get(m["name"])
            if not p_runs or not c_runs:
                print(f"{name:<16} {m['name']:<13} no samples")
                exit_code = 1
                continue
            ps, cs, pairs = compared_values(p_runs, c_runs)
            v = verdict(m["name"], m["better"], m["bound"], ps, cs, pairs)
            if v == "worse":
                exit_code = 1
            ratio = median(cs) / median(ps) if median(ps) else float("inf")
            print(f"{name:<16} {m['name']:<13} {stat(ps):<36} {stat(cs):<36} "
                  f"{ratio:>12.3f}x {m['bound']:>5.2f} {v} (base: parent "
                  f"median {median(ps):.5g} {m['unit']}, n {len(ps)}/{len(cs)})")
        for seed in sorted(set(p["digests"]) & set(c["digests"])):
            if p["digests"][seed] != c["digests"][seed]:
                print(f"{name:<16} outputs changed at seed {seed} "
                      f"(digest {p['digests'][seed]} -> {c['digests'][seed]})")
        share = [s["failed"] / max(1, s["attempted"]) for s in (p, c)]
        if share[1] != share[0]:
            print(f"{name:<16} failure share {share[0]:.3f} -> {share[1]:.3f}")
        if share[1] > share[0]:
            exit_code = 1
    return exit_code


def main():
    argv = sys.argv[1:]
    try:
        if argv and argv[0] == "run":
            ap = argparse.ArgumentParser(prog="psn_bench.py run")
            ap.add_argument("--seed", type=int, default=1)
            ap.add_argument("--reps", type=int, default=5)
            ap.add_argument("--out", required=True)
            ap.add_argument("--build", default=DEFAULT_BUILD)
            return run_set(ap.parse_args(argv[1:]))
        if argv and argv[0] == "compare":
            ap = argparse.ArgumentParser(prog="psn_bench.py compare")
            ap.add_argument("--parent", nargs="+", required=True)
            ap.add_argument("--change", nargs="+", required=True)
            return compare(ap.parse_args(argv[1:]))
        ap = argparse.ArgumentParser(prog="psn_bench.py")
        ap.add_argument("--workload", required=True)
        ap.add_argument("--seed", type=int, required=True)
        ap.add_argument("--seconds", type=float, required=True)
        ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
        return one_run(ap.parse_args(argv))
    except BenchError as e:
        log(f"psn_bench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
