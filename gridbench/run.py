#!/usr/bin/env python3
"""Verdict-grid benchmark for dcft (see gridbench/README.md).

    python3 gridbench/run.py --workload ring-grid --seed 1 --seconds 25 \
        --trace 0

Builds gridbench/ (the dcft library from src/, grid_worker and the
reference workload calibrate) into .bench_build/gridbench, then runs one
workload as a closed loop: one client, one grid in flight, every grid in a
fresh grid_worker process. Timings are scaled to a fixed host speed by the
reference workload, which runs between passes.
Every grid's verdicts, masking distances and Monte Carlo blocks are
checked against gridbench/expected.json. The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.

Other modes:
    --record     rerun every grid at the recorded seed and rewrite
                 gridbench/expected.json (only on a commit whose outputs
                 are known good)
    --self-test  check that wrong expectations, crashes, time-outs and the
                 memory guard are all counted as failures
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "gridbench"
OUT = ROOT / ".bench_build" / "gridbench-out"
TMP = OUT / "tmp"  # TMPDIR of the build and the workers: stay in the checkout
STORE = OUT / "store"  # warm-grid's graph store
WORKER = BUILD / "grid_worker"
CALIBRATE = BUILD / "calibrate"
EXPECTED = HERE / "expected.json"

# The reference workload (calibrate.cpp) runs before the first pass and
# after every pass, and its checksum is fixed. Timings are reported in
# seconds at the host speed where the reference takes REF_NOMINAL_S:
# measured time x REF_NOMINAL_S / reference time, so a shared host that
# slows everything down cancels out.
REF_CHECKSUM = "4989529664333825767"
REF_NOMINAL_S = 0.30

# Monte Carlo base_seed at which expected.json pins the blocks exactly
# (the catalog-standard estimate of apps::graded_blocks).
RECORDED_SEED = 1
GRADES = ("failsafe", "nonmasking", "masking")

# Per-grid guards: address-space limit (a runaway grid ends in bad_alloc
# instead of driving the host out of memory) and a wall-clock limit.
MEM_LIMIT_MB = 4096
TIME_LIMIT_S = 60.0

MIN_PASSES = 3  # per pass kind, even when --seconds runs out first
SETUP_REPS = {"cold": 15, "warm": 3}


@dataclass(frozen=True)
class Grid:
    system: str
    size: int
    graded: bool = False

    @property
    def key(self):
        return f"{self.system} {self.size}" + (" --graded" if self.graded else "")


CATALOG = [("memory", 6), ("tmr", 4), ("byzantine", 6), ("token-ring", 6),
           ("spanning-tree", 6), ("election", 4), ("termination", 6),
           ("barrier", 8), ("reset", 10), ("abp", 6)]
GRADED = [("byzantine", 5), ("barrier", 8), ("reset", 8), ("abp", 6),
          ("token-ring", 6)]

WORKLOADS = {
    "ring-grid": [Grid("token-ring", 7)],
    "catalog-grid": [Grid(s, n) for s, n in CATALOG],
    "graded-grid": [Grid(s, n, graded=True) for s, n in GRADED],
    "warm-grid": [Grid("token-ring", 7)],
}
WARM = {"warm-grid"}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}

# Knobs that change the measured program: refused whenever set.
REFUSED_ENV = ("DCFT_NO_COMPILE", "DCFT_NO_BATCH", "DCFT_NO_EXPLORE_CACHE",
               "DCFT_DIRECT_MAP_MAX", "DCFT_PARALLEL_WORK_MIN")
REFUSED_PREFIX = ("DCFT_SPILL", "DCFT_EXPLORE_CACHE_", "DCFT_GRAPH_STORE_")
# Observability knobs: allowed only in a traced run, and passed on to the
# traced passes only.
OBS_ENV = ("DCFT_TELEMETRY", "DCFT_TRACE", "DCFT_PROGRESS")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def die(message, code=2):
    log(f"gridbench: {message}")
    sys.exit(code)


# ---------------------------------------------------------------------------
# Build and environment


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"dcft sources not found under {ROOT / 'src'}; run from a "
            "checkout of the repository")
    if shutil.which("cmake") is None:
        die("cmake not found")
    TMP.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(TMP))
    steps = []
    cache = BUILD / "CMakeCache.txt"
    if (not cache.is_file() or cache.stat().st_mtime
            < (HERE / "CMakeLists.txt").stat().st_mtime):
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                  "--target", "grid_worker", "calibrate"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            die("build failed: " + " ".join(cmd), 1)


def clean_env(workload, traced):
    """The worker environment, or exit when a knob would skew the run."""
    env = dict(os.environ, TMPDIR=str(TMP))
    refused = [k for k in env if k in REFUSED_ENV or k.startswith(REFUSED_PREFIX)]
    if "DCFT_GRAPH_STORE" in env and workload not in WARM:
        refused.append("DCFT_GRAPH_STORE")
    if not traced:
        refused += [k for k in env if k.startswith(OBS_ENV)]
    if refused:
        die("refusing to run with " + ", ".join(sorted(refused)) +
            " set: it changes the measured program (see gridbench/README.md)")
    if "DCFT_GRAPH_STORE" in env:
        log("gridbench: DCFT_GRAPH_STORE replaced by the benchmark's own store")
        del env["DCFT_GRAPH_STORE"]
    plain = {k: v for k, v in env.items() if not k.startswith(OBS_ENV)}
    return plain, env


def host_block(worker_doc):
    meminfo = Path("/proc/meminfo").read_text().split()
    ram = int(meminfo[meminfo.index("MemTotal:") + 1]) * 1024
    commit = None
    if shutil.which("git"):
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = p.stdout.strip() if p.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    uname = platform.uname()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "verifier_threads": worker_doc.get("threads"),
        "verifier_threads_env": os.environ.get("DCFT_VERIFIER_THREADS"),
        "build_type": worker_doc.get("build_type"),
        "kernel": f"{uname.system} {uname.release}",
        "machine": uname.machine,
        "ram_bytes": ram,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# One grid


@dataclass
class GridRun:
    grid: Grid
    start_ns: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    doc: dict | None  # worker output; None when the grid did not finish
    error: str | None


def run_grid(grid, env, *, seed=RECORDED_SEED, traced=False, load_only=False,
             mem_mb=MEM_LIMIT_MB, time_s=TIME_LIMIT_S):
    argv = [str(WORKER), grid.system, str(grid.size)]
    if grid.graded and not load_only:
        argv += ["--graded", "--mc-seed", str(seed)]
    argv += ["--traced"] * traced + ["--load-only"] * load_only

    def guard():  # runs in the child between fork and exec
        limit = mem_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        signal.setitimer(signal.ITIMER_REAL, time_s)  # survives exec

    out_path, err_path = OUT / "worker.out", OUT / "worker.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                preexec_fn=guard)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = (time.monotonic_ns() - start) / 1e9
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    rss = usage.ru_maxrss / 1024.0
    doc, error = None, None
    code = proc.returncode
    if code < 0:
        sig = -code
        error = {signal.SIGALRM: f"time limit ({time_s:g} s)",
                 signal.SIGKILL: "killed (out of memory?)"}.get(
            sig, f"crashed with {signal.Signals(sig).name}")
    elif code != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()
        error = f"exit {code}: " + (tail[-1] if tail else "no message")
    else:
        try:
            doc = json.loads(out_path.read_text())
        except ValueError as exc:
            error = f"unreadable output: {exc}"
    return GridRun(grid, start, wall, cpu, rss, doc, error)


def run_reference(env):
    """(wall s, cpu s) of one reference run, in a fresh process."""
    start = time.monotonic_ns()
    proc = subprocess.Popen([str(CALIBRATE)], stdout=subprocess.PIPE, env=env)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = (time.monotonic_ns() - start) / 1e9
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if proc.returncode != 0 or out.decode().strip() != REF_CHECKSUM:
        die(f"reference workload failed (exit {proc.returncode}, output "
            f"{out[:40]!r}); the benchmark's own build is broken", 1)
    return wall, usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------------
# Output oracle


def exact_numbers(value):
    """Worker doubles arrive as '%.17g' strings; turn them into floats."""
    if isinstance(value, dict):
        return {k: exact_numbers(v) for k, v in value.items()}
    if isinstance(value, str):
        return float(value)
    return value


def observed(doc):
    """The checked outputs of one grid, keyed by variant."""
    out = {}
    for v in doc["variants"]:
        row = {g: v[g] for g in GRADES}
        if "graded" in v:
            g = v["graded"]
            row["masking_distance"] = {"masking": g["masking"],
                                       "distance": g["distance"]}
            row["monte_carlo"] = exact_numbers(g["monte_carlo"])
        out[v["variant"]] = row
    return out


def queries_of(expected_row):
    return len(GRADES) + 2 * ("monte_carlo" in expected_row)


def mc_invariants(mc, seed, expected_mc):
    """The report_check --graded invariants, for seeds not pinned exactly."""
    problems = []
    if mc["base_seed"] != seed:
        problems.append(f"base_seed {mc['base_seed']} != {seed}")
    if mc["runs"] != expected_mc["runs"] or mc["runs"] <= 0:
        problems.append(f"runs {mc['runs']}")
    if mc["violated_runs"] != mc["time_to_violation"]["count"]:
        problems.append("violated_runs != time_to_violation.count")
    if not 0.0 <= mc["violation_rate"] <= 1.0:
        problems.append(f"violation_rate {mc['violation_rate']} outside [0,1]")
    return problems


def check_grid(run, expected, seed):
    """(queries attempted, list of failure strings) for one grid run."""
    want = expected.get(run.grid.key)
    if want is None:
        return 1, [f"{run.grid.key}: no recorded expectation"]
    attempted = sum(queries_of(row) for row in want.values())
    if run.error is not None:
        return attempted, [f"{run.grid.key}: {run.error}"] * attempted
    got = observed(run.doc)
    failures = [f"{run.grid.key}: unexpected variant {v}"
                for v in got if v not in want]
    attempted += len(failures)
    for variant, row in want.items():
        label = f"{run.grid.key} {variant}"
        have = got.get(variant)
        if have is None:
            failures += [f"{label}: missing"] * queries_of(row)
            continue
        for g in GRADES:
            if have[g] != row[g]:
                failures.append(f"{label} {g}: got {have[g]}, want {row[g]}")
        if "monte_carlo" not in row:
            continue
        if have.get("masking_distance") != row["masking_distance"]:
            failures.append(f"{label} masking distance: got "
                            f"{have.get('masking_distance')}, want "
                            f"{row['masking_distance']}")
        mc = have.get("monte_carlo")
        if mc is None:
            failures.append(f"{label} monte carlo: missing")
        elif seed == RECORDED_SEED:
            if mc != row["monte_carlo"]:
                failures.append(f"{label} monte carlo: got {mc}, want "
                                f"{row['monte_carlo']}")
        else:
            failures += [f"{label} monte carlo: {p}"
                         for p in mc_invariants(mc, seed, row["monte_carlo"])]
    return attempted, failures


def load_expected():
    if not EXPECTED.is_file():
        die(f"{EXPECTED} missing; record it with --record", 1)
    doc = json.loads(EXPECTED.read_text())
    if doc.get("recorded_seed") != RECORDED_SEED:
        die("expected.json was recorded at another Monte Carlo seed", 1)
    return doc["grids"]


# ---------------------------------------------------------------------------
# Per-layer split (traced passes)

# Library layers a grade call is split into; what remains is the call's
# self time. verify/explore includes verify/compile.
QUERY_CHILDREN = ("verify/explore", "verify/check_tolerance/materialize",
                  "verify/closure", "verify/safety", "verify/liveness",
                  "verify/graph_store/load")

PER_LAYER = {
    "verify.explore_s": "s",
    "verify.explore.nodes": "count",
    "verify.explore.program_edges": "count",
    "verify.explore.fault_edges": "count",
    "verify.explore.edge_bytes": "bytes",
    "verify.explore.states_per_s": "1/s",
    "verify.explore.parallel_levels": "count",
    "verify.kernel.compiled_ratio": "frac",
    "verify.kernel.kcall_ops": "count",
    "verify.kernel.kcall_fallbacks": "count",
    "verify.compile_s": "s",
    "verify.materialize_s": "s",
    "verify.materialize.states_scanned": "count",
    "verify.query.failsafe_s": "s",
    "verify.query.nonmasking_s": "s",
    "verify.query.masking_s": "s",
    "verify.closure_s": "s",
    "verify.safety_s": "s",
    "verify.liveness_s": "s",
    "verify.cache.hits": "count",
    "verify.cache.misses": "count",
    "verify.store.load_s": "s",
    "verify.store.populate_s": "s",
    "verify.store.bytes": "bytes",
    "runtime.mc_s": "s",
    "runtime.mc.steps": "count",
    "runtime.mc.steps_per_s": "1/s",
    "runtime.monitor_s": "s",
    "verify.game_s": "s",
    "verify.game.nodes": "count",
    "apps.load_s": "s",
    "obs.trace_overhead_frac": "frac",
}


def ratio(num, den):
    return num / den if den else 0.0


def self_times(spans):
    """Self time (s) per benchmark span name: duration minus the part
    covered by its child spans."""
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["dur_ns"]
    out = {}
    for s, c in zip(spans, child):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["dur_ns"] - c) / 1e9
    return out


def layers_of_pass(runs):
    """Per-layer metrics of one traced pass, summed over its grids."""
    timers, counters = {}, {}
    actions = batchable = kcall_ops = game_nodes = 0
    query = {g: 0.0 for g in GRADES}
    load_s = coverage_s = game_explore_s = 0.0
    for run in runs:
        tel = run.doc["telemetry"]
        for k, v in tel["timers"].items():
            timers[k] = timers.get(k, 0) + v / 1e9
        for k, v in tel["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for v in run.doc["variants"]:
            actions += v["kernel"]["actions"]
            batchable += v["kernel"]["batchable_actions"]
            kcall_ops += v["kernel"]["kcall_ops"]
            game_nodes += v.get("graded", {}).get("game_nodes", 0)
        for s in run.doc["spans"]:
            dur = s["dur_ns"] / 1e9
            layers = s["layers"]
            if s["name"] in query:
                query[s["name"]] += dur - sum(
                    layers.get(k, 0) for k in QUERY_CHILDREN) / 1e9
            elif s["name"] == "load":
                load_s += dur
            elif s["name"] == "coverage":
                coverage_s += dur
            elif s["name"] == "graded":
                game_explore_s += layers.get("verify/explore", 0) / 1e9
    t = lambda k: timers.get(k, 0.0)  # noqa: E731
    c = lambda k: counters.get(k, 0)  # noqa: E731
    explore_all = t("verify/explore")
    mc_all = t("runtime/estimate_tolerance")
    out = {
        "verify.explore_s": explore_all - t("verify/compile"),
        "verify.explore.nodes": c("verify/explore/nodes"),
        "verify.explore.program_edges": c("verify/explore/program_edges"),
        "verify.explore.fault_edges": c("verify/explore/fault_edges"),
        "verify.explore.edge_bytes": c("verify/mem/edges_bytes"),
        "verify.explore.states_per_s": ratio(c("verify/explore/nodes"),
                                             explore_all),
        "verify.explore.parallel_levels":
            c("verify/explore/levels") - c("verify/explore/levels_below_threshold"),
        "verify.kernel.compiled_ratio": ratio(batchable, actions),
        "verify.kernel.kcall_ops": kcall_ops,
        "verify.kernel.kcall_fallbacks": c("verify/kernel/kcall_fallbacks"),
        "verify.compile_s": t("verify/compile") + coverage_s,
        "verify.materialize_s": t("verify/check_tolerance/materialize"),
        "verify.materialize.states_scanned":
            c("verify/predicate_eval/states_scanned"),
        "verify.closure_s": t("verify/closure"),
        "verify.safety_s": t("verify/safety"),
        "verify.liveness_s": t("verify/liveness"),
        "verify.cache.hits": c("verify/explore_cache/hits"),
        "verify.cache.misses": c("verify/explore_cache/misses"),
        "verify.store.load_s": t("verify/graph_store/load"),
        "runtime.mc_s": mc_all - t("sim/run/monitor_hooks"),
        "runtime.mc.steps": c("sim/steps"),
        "runtime.mc.steps_per_s": ratio(c("sim/steps"), mc_all),
        "runtime.monitor_s": t("sim/run/monitor_hooks"),
        "verify.game_s": t("verify/masking_distance") - game_explore_s,
        "verify.game.nodes": game_nodes,
        "apps.load_s": load_s,
    }
    for g in GRADES:
        out[f"verify.query.{g}_s"] = query[g]
    return out


def chrome_events(runs, driver_spans):
    """Chrome trace-event JSON (chrome://tracing, Perfetto): driver spans
    on the driver's pid, each grid's benchmark spans on the worker's pid.
    Both sides read CLOCK_MONOTONIC, so timestamps line up."""
    events = [{"name": name, "ph": "X", "pid": 0, "tid": 0,
               "ts": start / 1e3, "dur": dur / 1e3, "args": args}
              for name, start, dur, args in driver_spans]
    for i, run in enumerate(runs, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": i,
                       "args": {"name": run.grid.key}})
        for s in run.doc["spans"]:
            args = dict(s["layers"])
            if "variant" in s:
                args["variant"] = s["variant"]
            events.append({"name": s["name"], "ph": "X", "pid": i, "tid": 0,
                           "ts": s["ts_ns"] / 1e3, "dur": s["dur_ns"] / 1e3,
                           "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# Workload run


class Tally:
    def __init__(self, expected, seed):
        self.expected, self.seed = expected, seed
        self.attempted, self.failures = 0, []

    def check(self, run):
        attempted, failures = check_grid(run, self.expected, self.seed)
        self.attempted += attempted
        self.failures += failures
        for f in failures[:3]:
            log(f"gridbench: FAIL {f}")


def dir_bytes(path):
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def setup(grids, env, warm, tally, driver_spans):
    """Loads every system of the workload in fresh processes (and, for the
    warm workload, populates the graph store), SETUP_REPS times. Returns
    (setup seconds per rep, store populate seconds per rep)."""
    reps, populates = [], []
    for _ in range(SETUP_REPS["warm" if warm else "cold"]):
        start = time.monotonic_ns()
        for grid in dict.fromkeys(grids):
            run = run_grid(grid, env, load_only=True)
            if run.error is not None:
                tally.check(run)
        if warm:
            shutil.rmtree(STORE, ignore_errors=True)
            run = run_grid(grids[0], env)
            tally.check(run)
            populates.append(run.wall_s)
            driver_spans.append(("store_populate", run.start_ns,
                                 int(run.wall_s * 1e9), {}))
        dur = time.monotonic_ns() - start
        reps.append(dur / 1e9)
        driver_spans.append(("setup", start, dur, {}))
    return reps, populates


def run_pass(grids, rng, env, tally, traced, seed):
    order = list(grids)
    rng.shuffle(order)
    runs = []
    start = time.monotonic_ns()
    for grid in order:
        run = run_grid(grid, env, seed=seed, traced=traced)
        tally.check(run)
        runs.append(run)
    return {
        "start_ns": start,
        "elapsed_ns": time.monotonic_ns() - start,
        "order": [g.key for g in order],
        "wall_s": sum(r.wall_s for r in runs),
        "cpu_s": sum(r.cpu_s for r in runs),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "runs": runs,
        "ok": all(r.error is None for r in runs),
    }


def benchmark(args):
    grids = WORKLOADS[args.workload]
    warm = args.workload in WARM
    plain_env, traced_env = clean_env(args.workload, args.trace)
    if warm:
        plain_env["DCFT_GRAPH_STORE"] = traced_env["DCFT_GRAPH_STORE"] = str(STORE)
    build()
    expected = load_expected()
    tally = Tally(expected, args.seed)
    rng = random.Random(args.seed)
    driver_spans = []

    # A reference run brackets set-up and every pass; each is scaled by the
    # mean of the two around it.
    refs = [run_reference(plain_env)]
    setup_reps, populates = setup(grids, plain_env, warm, tally, driver_spans)
    refs.append(run_reference(plain_env))
    setup_ref = (refs[0][0] + refs[1][0]) / 2

    # Closed loop: plain passes, alternating with traced passes in a traced
    # run, until --seconds have passed and each kind has MIN_PASSES.
    plain, traced = [], []
    deadline = time.monotonic() + args.seconds
    while True:
        want_traced = bool(args.trace) and len(traced) < len(plain)
        p = run_pass(grids, rng, traced_env if want_traced else plain_env,
                     tally, want_traced, args.seed)
        refs.append(run_reference(plain_env))
        ref_wall, ref_cpu = ((a + b) / 2 for a, b in zip(refs[-2], refs[-1]))
        p["wall_nominal_s"] = p["wall_s"] * REF_NOMINAL_S / ref_wall
        p["cpu_nominal_s"] = p["cpu_s"] * REF_NOMINAL_S / ref_cpu
        (traced if want_traced else plain).append(p)
        driver_spans.append(("pass", p["start_ns"], p["elapsed_ns"],
                             {"traced": want_traced, "order": p["order"]}))
        enough = len(plain) >= MIN_PASSES and (
            not args.trace or len(traced) >= MIN_PASSES)
        if enough and time.monotonic() >= deadline:
            break

    docs = [r.doc for p in plain for r in p["runs"] if r.doc is not None]
    host = host_block(docs[0] if docs else {})
    raw = {"wall_s": statistics.median(p["wall_s"] for p in plain),
           "cpu_s": statistics.median(p["cpu_s"] for p in plain),
           "setup_s": statistics.median(setup_reps),
           "ref_wall_s": statistics.median(r[0] for r in refs),
           "ref_cpu_s": statistics.median(r[1] for r in refs)}
    e2e = {"wall_s": statistics.median(p["wall_nominal_s"] for p in plain),
           "cpu_s": statistics.median(p["cpu_nominal_s"] for p in plain),
           "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
           "setup_s": raw["setup_s"] * REF_NOMINAL_S / setup_ref}
    failed = len(tally.failures)
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "plain_passes": len(plain), "traced_passes": len(traced),
              "setup_reps_s": setup_reps, "end_to_end": e2e,
              "measured": raw, "ref_nominal_s": REF_NOMINAL_S,
              "failed_frac": ratio(failed, tally.attempted),
              "failures": tally.failures[:50],
              "pass_wall_s": [p["wall_s"] for p in plain],
              "ref_s": refs}

    if args.trace:
        ok = [p["runs"] for p in traced if p["ok"]]
        rows = [layers_of_pass(runs) for runs in ok]
        layers = {k: statistics.median(r[k] for r in rows)
                  for k in rows[0]} if rows else {}
        layers["verify.store.populate_s"] = (statistics.median(populates)
                                             if populates else 0.0)
        layers["verify.store.bytes"] = dir_bytes(STORE) if warm else 0
        layers["obs.trace_overhead_frac"] = statistics.median(
            p["wall_nominal_s"] for p in traced) / e2e["wall_s"] - 1.0
        selfs = [{} for _ in ok]
        for acc, runs in zip(selfs, ok):
            for run in runs:
                for n, v in self_times(run.doc["spans"]).items():
                    acc[n] = acc.get(n, 0.0) + v
        result["span_self_s"] = {n: statistics.median(s.get(n, 0.0) for s in selfs)
                                 for n in sorted({n for s in selfs for n in s})}
        result["per_layer"] = layers
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(chrome_events(
            [r for runs in ok for r in runs], driver_spans)))
        log(f"gridbench: chrome trace written to {trace_path}")
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in e2e.items()}

    if warm:
        shutil.rmtree(STORE, ignore_errors=True)
    result_path = OUT / (f"result-{args.workload}-seed{args.seed}"
                         f"-trace{int(args.trace)}.json")
    result_path.write_text(json.dumps(result, indent=1, default=str))

    log(f"gridbench: {args.workload} seed {args.seed}: {len(plain)} plain + "
        f"{len(traced)} traced passes, host {json.dumps(host)}")
    for k, v in e2e.items():
        log(f"  {k:<36} {v:>14.6g} {END_TO_END[k]}")
    for k, v in raw.items():
        log(f"  {'measured ' + k:<36} {v:>14.6g} s")
    log(f"  {'failed_frac':<36} {result['failed_frac']:>14.6g} frac "
        f"({failed}/{tally.attempted} queries)")
    if args.trace:
        for k, u in PER_LAYER.items():
            log(f"  {k:<36} {metrics[k]['value']:>14.6g} {u}")
        for n, s in result["span_self_s"].items():
            log(f"  span {n:<31} {s:>14.6g} s self")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# --record and --self-test


def record():
    build()
    env, _ = clean_env("ring-grid", False)
    grids = {}
    for grid in dict.fromkeys(g for gs in WORKLOADS.values() for g in gs):
        run = run_grid(grid, env)
        if run.error is not None:
            die(f"{grid.key}: {run.error}", 1)
        grids[grid.key] = observed(run.doc)
        log(f"gridbench: recorded {grid.key} ({run.wall_s:.3f} s)")
    EXPECTED.write_text(json.dumps(
        {"recorded_seed": RECORDED_SEED, "grids": grids}, indent=1,
        sort_keys=True) + "\n")
    log(f"gridbench: wrote {EXPECTED}")
    return 0


def self_test():
    """Every failure class the oracle and guards know must be counted."""
    build()
    env, _ = clean_env("catalog-grid", False)
    expected = load_expected()
    small, graded = Grid("tmr", 4), Grid("abp", 6, graded=True)

    def failures(run, exp=expected, seed=RECORDED_SEED):
        return len(check_grid(run, exp, seed)[1])

    def mutated(grid, edit):
        exp = json.loads(json.dumps(expected))
        edit(next(iter(exp[grid.key].values())))
        return exp

    def flip(row):
        row["masking"] = not row["masking"]

    def shift_distance(row):
        row["masking_distance"]["distance"] = 99

    def shift_mc(row):
        row["monte_carlo"]["faults_absorbed"]["p50"] += 1

    ok_small, ok_graded = run_grid(small, env), run_grid(graded, env)
    other_seed = run_grid(graded, env, seed=RECORDED_SEED + 6)
    ring = Grid("token-ring", 7)
    cases = [
        ("clean catalog grid", failures(ok_small), 0),
        ("clean graded grid", failures(ok_graded), 0),
        ("graded grid at another seed", failures(
            other_seed, seed=RECORDED_SEED + 6), 0),
        ("wrong verdict", failures(ok_small, mutated(small, flip)), 1),
        ("wrong distance", failures(ok_graded, mutated(graded, shift_distance)), 1),
        ("wrong monte carlo block", failures(ok_graded, mutated(graded, shift_mc)), 1),
        ("crash (nonzero exit)", failures(dataclasses.replace(
            run_grid(Grid("no-such-system", 4), env), grid=small)),
         sum(queries_of(row) for row in expected[small.key].values())),
        ("time limit", failures(run_grid(ring, env, time_s=0.05)),
         len(GRADES)),
        ("memory limit", failures(run_grid(ring, env, mem_mb=128)),
         len(GRADES)),
    ]
    bad = 0
    for name, got, want in cases:
        status = "ok" if got == want else "WRONG"
        bad += got != want
        log(f"  {status:<6} {name}: {got} failed queries (want {want})")
    log("gridbench: self-test " + ("passed" if not bad else "FAILED"))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=RECORDED_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.record:
        return record()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
