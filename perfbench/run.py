#!/usr/bin/env python3
"""lapspec benchmark: end-to-end and per-layer metrics for four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload determination-cold --seed 1 --seconds 10 --trace 0

The benchmark imports lapspec from ``src/`` next to this directory and drives
its public ``verify_*`` and ``enumerate_*`` functions the way a user would:
one process, one thread, a closed loop in which the next pass starts only
when the previous one has finished.  Passes repeat until ``--seconds`` have
been measured (at least one pass).  Every pass is checked; any failed check
makes the run exit with status 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures
untraced passes for ``--seconds``, then traced passes for ``--seconds``, and
prints the per-layer metrics.  The last line of standard output is always
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs every workload untraced and traced, each in its own
process, and prints every table.  See README.md for the metric list.
"""

from __future__ import annotations

import argparse
import builtins
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import ROOT as NO_SPAN, Tracer

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK = HERE / ".work"

WORKLOADS = ("determination-cold", "determination-warm", "census", "algebra")
DS_RANGE = range(6, 11)
SETUP_REPEATS = 15

# Work counts pinned at the seed commit; any change is a wrong answer.
PINNED_MEMBERS = {6: 4, 7: 6, 8: 10, 9: 13, 10: 18}
PINNED_POOLS = {6: 19, 7: 67, 8: 236, 9: 797, 10: 2678}
PINNED_CENSUS = {"0": 1, "1": 1, "2": 2, "3": 4, "4": 11, "5": 34, "6": 156, "7": 1044}
PINNED_THETA_MISMATCHED = 156

# (suite name, verify function, keyword arguments, takes the seed)
ALGEBRA_SUITES = (
    ("recurrences", "verify_recurrences", {"path_n_max": 40, "p_max": 8, "k_max": 5, "r_max": 8}, False),
    ("special-values", "verify_special_values", {"n_max": 200}, False),
    ("generating-identity", "verify_generating_identity", {"r_max": 50}, False),
    ("dumbbell-table", "verify_dumbbell_table", {"p_max": 8, "k_max": 5}, False),
    ("theta-table", "verify_theta_table", {"r_max": 8}, False),
    ("family-values", "verify_family_values", {"p_max": 8, "k_max": 5, "r_max": 8}, False),
    ("deletion-formula", "verify_deletion_suite",
     {"family_n_max": 12, "samples": 100, "sample_n_max": 9}, True),
    ("invariants", "verify_invariants_suite", {"samples": 200, "n_max": 10}, True),
    ("within-family", "verify_within_family", {"n_max": 20}, False),
)
SUITE_FUNCTIONS = {
    "determination": "verify_determination",
    "cospectral-structure": "verify_cospectral_structure",
    "census": "verify_census",
    **{suite: fn for suite, fn, _, _ in ALGEBRA_SUITES},
}
# Suites long enough to be timed on their own; shorter ones count in wall_s only.
TIMED_SUITES = ("determination", "cospectral-structure", "recurrences",
                "deletion-formula", "dumbbell-table", "theta-table")

# Traced layers: (module, public function).  Span names are "<module>.<function>".
LAYER_FUNCTIONS = (
    ("canonical", "canonical_form"),
    ("graph6", "graph6_encode"),
    ("graph6", "graph6_decode"),
    ("enumeration", "enumerate_graphs"),
    ("enumeration", "enumerate_by_vertex_growth"),
    ("graphs", "connected_components"),
    ("graphs", "classify_bicyclic"),
    ("laplacian", "charpoly"),
    ("laplacian", "det_bareiss"),
    ("laplacian", "verify_deletion_formula"),
    ("polynomials", "substitute_y"),
    ("termtables", "identity_lhs"),
    ("recurrences", "dumbbell_charpoly_rec"),
    ("recurrences", "theta_charpoly_rec"),
    ("invariants", "invariants_from_charpoly"),
    ("invariants", "degree_constraint_solver"),
)
LAYER_METHODS = (
    ("termtables", "TermTable.instantiate"),
    ("reports", "VerificationReport.to_json"),
)
SIZE_BUCKETS = (("canonical.canonical_form", 7), ("canonical.canonical_form", 10),
                ("laplacian.charpoly", 10), ("laplacian.charpoly", 40))
ENUMERATORS = {"enumeration.enumerate_graphs", "enumeration.enumerate_by_vertex_growth"}


# --- speed calibration -----------------------------------------------------
# On a shared virtual machine the speed swings between fast and slow phases
# lasting seconds to minutes (up to 1.5x between runs).  While setup and the
# untraced passes run, a timer signal interrupts the work every PROBE_INTERVAL
# seconds to time one reference sample; the probe's own time is taken out of
# every measured interval and from every span.  A time is then scaled to the
# reference speed: raw seconds * REF_SECONDS / mean probe time while it was
# measured.  The reference loop shares no code with lapspec, so a faster
# lapspec cannot speed it up.
REF_SECONDS = 0.01
PROBE_INTERVAL = 0.1
PROBE_BURST = 20


def reference_sample() -> int:
    """About 10 ms of integer arithmetic and small dict and tuple work."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(12000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        acc += len((key, acc & 15, i)) + (key in table)
    for i in range(45000):
        acc += i * i % 7
    return acc


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_ns = 0

    def sample(self, *_) -> None:
        start = time.perf_counter_ns()
        reference_sample()
        elapsed = time.perf_counter_ns() - start
        self.samples.append(elapsed / 1e9)
        self.spent_ns += elapsed

    def burst(self) -> None:
        for _ in range(PROBE_BURST):
            self.sample()

    def clock_ns(self) -> int:
        """perf_counter_ns minus the time spent in the probe."""
        return time.perf_counter_ns() - self.spent_ns

    def clock(self) -> float:
        return self.clock_ns() / 1e9

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self, since: int = 0) -> float:
        """Factor from raw to reference-speed seconds over samples[since:]."""
        return REF_SECONDS / statistics.fmean(self.samples[since:])


# --- passes and checks -----------------------------------------------------

class Gates:
    """Correctness checks; each one counts as attempted, failures are kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


class Pass:
    """Raw timings, reports and observed cache reads of one pass."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.raw_s = 0.0
        self.speed = 1.0  # raw to reference-speed seconds, see SpeedProbe
        self.raw_suite_s: dict[str, float] = {}
        self.reports: list = []
        self.cache_reads: list[tuple[str, int]] = []
        self.spans: tuple[int, int] = (0, 0)

    def timed(self, suite: str, fn, *args, **kwargs):
        start = self.clock()
        report = fn(*args, **kwargs)
        self.raw_suite_s[suite] = self.raw_suite_s.get(suite, 0.0) + self.clock() - start
        self.reports.append(report)
        return report

    @property
    def wall_s(self) -> float:
        return self.raw_s * self.speed


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def fresh_import(clock):
    """Import lapspec from scratch and load its term tables; returns
    (raw seconds, package)."""
    for key in [k for k in sys.modules if k == "lapspec" or k.startswith("lapspec.")]:
        del sys.modules[key]
    start = clock()
    lib = importlib.import_module("lapspec")
    lib.dumbbell_table()
    lib.theta_table()
    return clock() - start, lib


def clear_memo(lib) -> None:
    # The in-process pool memo; a renamed memo surfaces as a failed cold guard.
    memo = getattr(lib.enumeration, "_memo", None)
    if memo is not None:
        memo.clear()


@contextlib.contextmanager
def watch_reads(directory: Path, sink: list, tracer: Tracer | None):
    """Record every file opened for reading under directory, with the
    innermost traced span at the time."""
    prefix = str(directory) + os.sep
    real_open = builtins.open

    def open_(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and "r" in mode:
            if os.fspath(file).startswith(prefix):
                sink.append((os.fspath(file), tracer.current() if tracer else NO_SPAN))
        return real_open(file, mode, *args, **kwargs)

    builtins.open = io.open = open_
    try:
        yield
    finally:
        builtins.open = io.open = real_open


# --- workloads -------------------------------------------------------------
# Each workload has setup(lib, ctx), run(lib, ctx, p) filling one Pass, and
# check(ctx, p, gates) for its pinned results.  ctx is a dict owned by the run.

def no_setup(lib, ctx) -> None:
    pass


def determination_suites(lib, ctx, p: Pass, cache: Path) -> None:
    with watch_reads(cache, p.cache_reads, ctx.get("tracer")):
        for n in DS_RANGE:
            p.timed("determination", lib.verify_determination, n, cache_dir=cache)
            p.timed("cospectral-structure", lib.verify_cospectral_structure, n, cache_dir=cache)


def check_determination(p: Pass, gates: Gates) -> None:
    for r in p.reports:
        n = r.parameters["n"]
        gates.check(r.passed, f"{r.suite} n={n} passed")
        gates.check(r.counts.get("members") == PINNED_MEMBERS[n], f"{r.suite} n={n} members")
        gates.check(r.counts.get("pool") == PINNED_POOLS[n], f"{r.suite} n={n} pool")


def cold_run(lib, ctx, p: Pass) -> None:
    ctx["cache"] = Path(tempfile.mkdtemp(prefix="cold-", dir=WORK))
    clear_memo(lib)
    determination_suites(lib, ctx, p, ctx["cache"])


def cold_check(ctx, p: Pass, gates: Gates) -> None:
    check_determination(p, gates)
    cache = ctx.pop("cache")
    gates.check(any(cache.iterdir()), "cold pass wrote its pools to the fresh cache directory")
    shutil.rmtree(cache)


def warm_setup(lib, ctx) -> None:
    ctx["cache"] = Path(tempfile.mkdtemp(prefix="warm-", dir=WORK))
    for n in DS_RANGE:
        lib.enumerate_graphs(lib.EnumerationTask(n, n + 1, connected=True), cache_dir=ctx["cache"])


def warm_run(lib, ctx, p: Pass) -> None:
    clear_memo(lib)
    determination_suites(lib, ctx, p, ctx["cache"])


def warm_check(ctx, p: Pass, gates: Gates) -> None:
    check_determination(p, gates)
    gates.check(len(p.cache_reads) > 0, "warm pass read pools from the cache directory")


def census_run(lib, ctx, p: Pass) -> None:
    clear_memo(lib)
    p.timed("census", lib.verify_census, n_max=7)


def census_check(ctx, p: Pass, gates: Gates) -> None:
    (r,) = p.reports
    gates.check(r.passed, "census passed")
    gates.check(r.details.get("totals") == PINNED_CENSUS, "census totals")


def algebra_run(lib, ctx, p: Pass) -> None:
    for suite, fn, kwargs, seeded in ALGEBRA_SUITES:
        args = dict(kwargs, seed=ctx["seed"]) if seeded else kwargs
        p.timed(suite, getattr(lib, fn), **args)


def algebra_check(ctx, p: Pass, gates: Gates) -> None:
    for r in p.reports:
        gates.check(r.passed, f"{r.suite} passed")
        if r.suite == "theta-table":
            gates.check(r.counts.get("table_mismatched_tuples") == PINNED_THETA_MISMATCHED,
                        "theta-table mismatched tuples")


WORKLOAD_STEPS = {
    "determination-cold": (no_setup, cold_run, cold_check),
    "determination-warm": (warm_setup, warm_run, warm_check),
    "census": (no_setup, census_run, census_check),
    "algebra": (no_setup, algebra_run, algebra_check),
}


# --- measurement -----------------------------------------------------------

def measure(workload: str, lib, ctx, seconds: float, gates: Gates, probe: SpeedProbe,
            baseline: list[str] | None, tracer: Tracer | None = None) -> list[Pass]:
    """Closed loop of passes for at least `seconds`; every pass is checked,
    and its timing-free reports must match the baseline byte for byte.
    Each pass gets the speed factor of the probes taken while it ran."""
    _, run, check = WORKLOAD_STEPS[workload]
    clock = probe.clock
    passes: list[Pass] = []
    deadline = clock() + seconds
    while not passes or clock() < deadline:
        p = Pass(clock)
        lo = len(tracer) if tracer else 0
        mark = len(probe.samples)
        start = clock()
        run(lib, ctx, p)
        p.raw_s = clock() - start
        p.speed = probe.speed(mark)
        check(ctx, p, gates)
        texts = [r.without_timing().to_json() for r in p.reports]
        if tracer:
            p.spans = (lo, len(tracer))
        if baseline is None:
            baseline = texts
        else:
            gates.check(texts == baseline, "reports identical across passes apart from timing")
        passes.append(p)
    return passes


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def suite_samples(passes: list[Pass]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for p in passes:
        for suite, s in p.raw_suite_s.items():
            out.setdefault(suite, []).append(s * p.speed)
    return out


def layer_metrics(workload: str, tracer: Tracer, traced: list[Pass], untraced: list[Pass],
                  gates: Gates) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced passes, plus suite times and the
    overhead ratio against the untraced ones.  Times are calibrated."""
    per_pass = []
    for p in traced:
        stats = tracer.spans_between(*p.spans)
        per_pass.append((stats, work_counts(stats, p), p.speed))
    stats, counts, _ = per_pass[0]
    for other_stats, other_counts, _ in per_pass[1:]:
        gates.check(other_stats.calls == stats.calls and other_counts == counts,
                    "traced work counts repeat exactly across passes")
    guard_work(workload, counts, gates)

    def med(f) -> float:
        return median([f(s) * speed for s, _, speed in per_pass])

    out: dict[str, tuple[float, str]] = {}
    for name in [f"{m}.{f}" for m, f in LAYER_FUNCTIONS + LAYER_METHODS]:
        out[f"{name}.calls"] = (stats.calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (med(lambda s: s.self_s(name)), "s")
        out[f"{name}.us_per_call"] = (med(lambda s: s.us_per_call(name)), "us")
    for name, size in SIZE_BUCKETS:
        out[f"{name}.us_per_call.n{size}"] = (med(lambda s: s.us_per_call(name, size)), "us")
    for suite in SUITE_FUNCTIONS:
        out[f"verify.{suite}.self_s"] = (med(lambda s: s.self_s(f"verify.{suite}")), "s")
    for key in ("grown_tasks", "disk_tasks", "memo_tasks"):
        out[f"enumeration.{key}"] = (counts[key], "count")
    for n in DS_RANGE:
        out[f"enumeration.pool_size.n{n}"] = (counts["pool"].get(n, 0), "count")
    calls, distinct = counts["enum_canonical_calls"], counts["distinct_forms"]
    out["enumeration.dedup_yield"] = (distinct / calls if calls else 0.0, "ratio")
    out["enumeration.dedup_yield.base"] = (calls, "count")
    out["enumeration.dedup_yield.distinct"] = (distinct, "count")
    out["verify.determination.comparisons"] = (counts["comparisons"], "count")
    out["trace.overhead_ratio"] = (median([p.wall_s for p in traced])
                                   / median([p.wall_s for p in untraced]), "ratio")
    suites = suite_samples(untraced)
    for suite in TIMED_SUITES:
        out[f"suite_s.{suite}"] = (median(suites.get(suite, [])), "s")
    return out


def work_counts(stats, p: Pass) -> dict:
    """Enumeration task sources, dedup yield and report counts of one pass."""
    enum_graphs = "enumeration.enumerate_graphs"
    read_by = {stats.nearest(span, {enum_graphs}) for _, span in p.cache_reads}
    grew = set()
    enum_calls = 0
    forms = set()
    for i in stats.indices("canonical.canonical_form"):
        owner = stats.nearest(stats.tracer.parent_of[i], ENUMERATORS)
        if owner != NO_SPAN:
            enum_calls += 1
            forms.add(stats.tracer.results[i])
            grew.add(owner)
    by_kind = {"grown": 0, "disk": 0, "memo": 0}
    sizes = {"grown": set(), "disk": set(), "memo": set()}
    for i in stats.indices(enum_graphs):
        kind = "disk" if i in read_by else "grown" if i in grew else "memo"
        by_kind[kind] += 1
        sizes[kind].add(stats.tracer.size_of[i])
    determination = [r for r in p.reports if r.suite == "determination"]
    return {**{f"{kind}_tasks": c for kind, c in by_kind.items()},
            "grown_n": sizes["grown"], "disk_n": sizes["disk"],
            "enum_canonical_calls": enum_calls, "distinct_forms": len(forms),
            "pool": {r.parameters["n"]: r.counts["pool"] for r in determination},
            "comparisons": sum(r.counts.get("comparisons", 0) for r in determination)}


def guard_work(workload: str, counts: dict, gates: Gates) -> None:
    """A traced pass may not pass by doing less work than its workload claims."""
    wanted = set(DS_RANGE)
    if workload == "determination-cold":
        gates.check(wanted <= counts["grown_n"], "cold pass grew every pool")
        gates.check(counts["enum_canonical_calls"] >= sum(PINNED_POOLS.values()),
                    "cold pass canonicalized at least every pool graph")
    elif workload == "determination-warm":
        gates.check(wanted <= counts["disk_n"], "warm pass read every pool from disk")
    elif workload == "census":
        gates.check(counts["grown_tasks"] > 0, "census grew its classes")
        gates.check(counts["enum_canonical_calls"] >= sum(PINNED_CENSUS.values()),
                    "census canonicalized at least every class")


# --- output ----------------------------------------------------------------

def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return (out.stdout.strip() or None) if out.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lapspec").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def print_table(title: str, rows: list[tuple[str, float, str, list[float]]]) -> None:
    print(f"== {title}")
    for name, value, unit, samples in rows:
        line = f"  {name:<48} {value:>14.6g} {unit:<6}"
        if samples:
            q1, q3 = quartiles(samples)
            line += f"  q1={q1:.6g} q3={q3:.6g} n={len(samples)}"
        print(line)


def run_workload(args) -> int:
    os.environ.pop("LAPSPEC_CACHE_DIR", None)
    if not (SRC / "lapspec" / "__init__.py").is_file():
        fail(f"no lapspec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    print("env: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "git_commit": git_commit(),
        "source_sha256": source_digest()}))

    setup, _, _ = WORKLOAD_STEPS[args.workload]
    ctx = {"seed": args.seed}
    gates = Gates()
    probe = SpeedProbe()
    clock = probe.clock
    try:
        probe.burst()
        with probe.sampling():
            imports = []
            for _ in range(SETUP_REPEATS):
                seconds, lib = fresh_import(clock)
                imports.append(seconds)
            if not Path(lib.__file__).resolve().is_relative_to(SRC.resolve()):
                fail(f"imported lapspec from {lib.__file__}, not from {SRC}")
            start = clock()
            setup(lib, ctx)
            raw_setup_s = median(imports) + clock() - start
            setup_speed = probe.speed()
            untraced = measure(args.workload, lib, ctx, args.seconds, gates, probe, None)
            if args.trace:
                tracer = Tracer(probe.clock_ns)
                functions = [(f"{m}.{f}", f"lapspec.{m}", f) for m, f in LAYER_FUNCTIONS]
                functions += [(f"verify.{s}", "lapspec.verify", f)
                              for s, f in SUITE_FUNCTIONS.items()]
                methods = [(f"{m}.{f}", f"lapspec.{m}", f) for m, f in LAYER_METHODS]
                baseline = [r.without_timing().to_json() for r in untraced[0].reports]
                tracer.install("lapspec", functions, methods)
                ctx["tracer"] = tracer
                try:
                    traced = measure(args.workload, lib, ctx, args.seconds, gates, probe,
                                     baseline, tracer)
                finally:
                    tracer.uninstall()
                    ctx.pop("tracer")

        if args.trace:
            metrics = layer_metrics(args.workload, tracer, traced, untraced, gates)
            tracer.write(WORK / f"trace-{args.workload}.tsv", [p.spans[0] for p in traced])
            print_table(f"{args.workload} per-layer ({len(traced)} traced passes)",
                        [(k, v, u, []) for k, (v, u) in metrics.items()])
        else:
            walls = [p.wall_s for p in untraced]
            metrics = {
                "wall_s": (median(walls), "s"),
                "setup_s": (raw_setup_s * setup_speed, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            raw_walls = [p.raw_s for p in untraced]
            speeds = [p.speed for p in untraced]
            rows = [("wall_s", median(walls), "s", walls),
                    ("wall_s.raw", median(raw_walls), "s", raw_walls),
                    ("speed_factor", median(speeds), "x", speeds),
                    ("reference_sample.raw", median(probe.samples), "s", probe.samples),
                    ("setup_s", raw_setup_s * setup_speed, "s", []),
                    ("setup_s.raw", raw_setup_s, "s", []),
                    ("setup_s.import.raw", median(imports), "s", imports)]
            for suite, samples in suite_samples(untraced).items():
                rows.append((f"suite_s.{suite}", median(samples), "s", samples))
            rows.append(("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", []))
            rows.append(("failed_ratio", len(gates.failures) / gates.attempted, "ratio", []))
            print_table(f"{args.workload} end-to-end ({len(untraced)} passes)", rows)
    finally:
        cache = ctx.get("cache")
        if cache is not None:
            shutil.rmtree(cache, ignore_errors=True)

    for label in gates.failures:
        print(f"FAIL: {label}")
    print(json.dumps({
        "correct": not gates.failures,
        "attempted": gates.attempted,
        "failed": len(gates.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not gates.failures else 1


def run_all(args) -> int:
    """Every workload untraced then traced, each in a child process."""
    results = {}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            status = status or out.returncode
            try:
                results[f"{workload}/trace{trace}"] = json.loads(lines[-1])
            except json.JSONDecodeError:
                status = status or 1
    print(json.dumps({
        "correct": status == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{key}/{name}": m for key, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=20260825,
                        help="seed for the sampled algebra suites")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure passes for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
