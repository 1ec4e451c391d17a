#!/usr/bin/env python3
"""Alternating before/after runs of the lapspec benchmark.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --base <commit> --workload determination-cold \\
        --seconds 8 --pairs 10

The committed files of ``--base`` are extracted with ``git archive`` into a
temporary directory.  Each pair then runs

    python3 perfbench/run.py --workload W --seconds S --trace 0

once in that tree and once in this checkout, each in its own process, with
the side that runs first alternating from pair to pair so that a slow phase
of the machine does not always fall on the same side.  For a run that does
not report ``correct`` true the script prints its pair number, side, exit
code, what kind of failure it was and its ``FAIL:`` lines, and the last 40
lines of its standard output and of its standard error (where a traceback
goes), and goes on with the next run.  A run whose last lines of standard
error hold ``StatisticsError`` is the known crash of the benchmark's speed probe on a
short pass (ROADMAP item 1); any other failed run is a gate failure when
it printed ``FAIL:`` lines, and another exception otherwise.  At the end, over the pairs in which both runs were correct, for every
metric of the result lines, the script prints the median and quartiles of
each side, the change of the medians, whether the checkout shows a gain,
in how many pairs the checkout was the better side, and a verdict for each
end-to-end metric of the checkout's ``BENCHMARK.json`` (read only), with
its relative ``bound`` (0.15 is 15%).

A gain (``yes``, else ``no``) needs both: the checkout was the better side
in at least nine tenths of the pairs, ties counting for neither, and its
median is better than the base's by more than the base runs' q1-q3 spread.
The verdicts are:

- ``worse``: the checkout's median is worse than the base's by more than
  the bound;
- ``unresolved``: the base runs' q1-q3 spread, over the base median, is
  wider than the bound, and the checkout did not win every pair;
- ``ok`` otherwise.

A metric is better lower unless ``BENCHMARK.json`` says otherwise.  The
script then prints how many runs of each side failed, and exits 1 if any
did.

Standard library only; nothing under ``perfbench/`` is imported or written
by this script (the benchmark itself writes its scratch files there).
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]
TAIL_LINES = 40


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartiles, inclusive method, as the benchmark prints them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def verdict(row: dict, sign: int, bound: float | None) -> str:
    """``worse``, ``unresolved`` or ``ok`` for a summary row under a relative
    bound, as the module docstring defines them; "" without a bound.  sign
    is 1 for a metric better lower and -1 for one better higher."""
    if bound is None:
        return ""
    if sign * row["delta"] > bound:
        return "worse"
    q1, q3 = row["base_quartiles"]
    if q3 - q1 > bound * abs(row["base_median"]) and row["wins"] < row["pairs"]:
        return "unresolved"
    return "ok"


def gain(row: dict, sign: int) -> str:
    """``yes`` or ``no`` for a summary row, by the gain rule of the module
    docstring; sign as for ``verdict``."""
    q1, q3 = row["base_quartiles"]
    margin = sign * (row["base_median"] - row["change_median"])
    return "yes" if 10 * row["wins"] >= 9 * row["pairs"] and margin > q3 - q1 else "no"


def summarize(base: list[dict[str, float]], change: list[dict[str, float]],
              better: dict[str, str], bounds: dict[str, float] | None = None) -> list[dict]:
    """One row per metric present in every run of both sides: medians and
    quartiles of each side, the relative change of the medians, the
    number of pairs (base[i], change[i]) in which the change was strictly
    better, with ``better[name]`` "lower" (the default) or "higher", the
    gain and the verdict under ``bounds[name]``."""
    bounds = bounds or {}
    runs = base + change
    names = [name for name in runs[0] if all(name in run for run in runs)] if runs else []
    rows = []
    for name in names:
        before = [run[name] for run in base]
        after = [run[name] for run in change]
        sign = -1 if better.get(name, "lower") == "higher" else 1
        mid_before, mid_after = statistics.median(before), statistics.median(after)
        row = {
            "metric": name,
            "base_median": mid_before,
            "base_quartiles": quartiles(before),
            "change_median": mid_after,
            "change_quartiles": quartiles(after),
            "delta": mid_after / mid_before - 1 if mid_before else float("nan"),
            "wins": sum(sign * (a - b) < 0 for b, a in zip(before, after)),
            "pairs": min(len(before), len(after)),
        }
        row["gain"] = gain(row, sign)
        row["verdict"] = verdict(row, sign, bounds.get(name))
        rows.append(row)
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'metric':<14} {'base median':>12} {'base q1-q3':>21} "
             f"{'change median':>14} {'change q1-q3':>21} {'delta':>8} {'gain':>4} {'won':>7} "
             f"verdict"]
    for r in rows:
        bq, cq = r["base_quartiles"], r["change_quartiles"]
        lines.append(f"{r['metric']:<14} {r['base_median']:>12.6g} "
                     f"{bq[0]:>10.6g}-{bq[1]:<10.6g} {r['change_median']:>14.6g} "
                     f"{cq[0]:>10.6g}-{cq[1]:<10.6g} {r['delta']:>+8.1%} {r['gain']:>4} "
                     f"{r['wins']:>3}/{r['pairs']:<3} {r['verdict']}")
    return "\n".join(lines)


def extract(commit: str, into: Path) -> None:
    """The committed files of commit, written under into."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=REPO,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def parse_run(stdout: str) -> tuple[dict | None, list[str]]:
    """The result line of a benchmark run's standard output, or None when
    its last line is not one, and the run's ``FAIL:`` lines."""
    lines = stdout.rstrip("\n").split("\n")
    failures = [line for line in lines if line.startswith("FAIL:")]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    return (result if isinstance(result, dict) else None), failures


class Run(NamedTuple):
    """One untraced benchmark run: its result line (or None), exit code,
    ``FAIL:`` lines, and the last ``TAIL_LINES`` lines of its standard
    output and standard error."""

    result: dict | None
    code: int
    failures: list[str]
    out_tail: list[str]
    err_tail: list[str]

    @property
    def correct(self) -> bool:
        return self.result is not None and bool(self.result.get("correct"))


def run_once(tree: Path, workload: str, seconds: float) -> Run:
    """One untraced benchmark run in tree."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    result, failures = parse_run(out.stdout)
    return Run(result, out.returncode, failures, out.stdout.splitlines()[-TAIL_LINES:],
               (out.stderr or "").splitlines()[-TAIL_LINES:])


PROBE_CRASH = "the speed probe's StatisticsError on a short pass (ROADMAP item 1)"


def failure_kind(run: Run) -> str:
    """What kind of failure a run that did not report correct true was, as
    the module docstring sorts them."""
    if any("StatisticsError" in line for line in run.err_tail):
        return PROBE_CRASH
    return "a gate failure" if run.failures else "another exception"


def report_failed(pair: int, side: str, run: Run) -> None:
    """What a run that did not report correct true left behind."""
    label = f"pair {pair} {side}"
    print(f"pair {pair}: the {side} run exited {run.code} and did not report "
          f"correct true: {failure_kind(run)}", file=sys.stderr)
    for line in run.failures:
        print(f"{label}: {line}", file=sys.stderr)
    print(f"{label}: last {len(run.out_tail)} lines of its output:")
    print("\n".join(run.out_tail))
    if run.err_tail:
        print(f"{label}: last {len(run.err_tail)} lines of its standard error:")
        print("\n".join(run.err_tail))


def end_to_end_metrics() -> list[dict]:
    """The end-to-end metrics of the checkout's ``BENCHMARK.json``."""
    try:
        spec = json.loads((REPO / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError):
        return []
    return spec.get("end_to_end", [])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    runs: dict[str, list[dict[str, float]]] = {"base": [], "change": []}
    failed = {"base": 0, "change": 0}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        trees = {"base": Path(tmp), "change": REPO}
        extract(args.base, trees["base"])
        for i in range(args.pairs):
            pair: dict[str, dict[str, float]] = {}
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                run = run_once(trees[side], args.workload, args.seconds)
                if not run.correct:
                    failed[side] += 1
                    report_failed(i + 1, side, run)
                    continue
                pair[side] = {k: m["value"] for k, m in run.result["metrics"].items()}
                print(f"pair {i + 1} {side}: " + " ".join(
                    f"{k}={v:.6g}" for k, v in pair[side].items()), flush=True)
            if len(pair) == 2:  # a pair is compared only when both runs were correct
                for side, values in pair.items():
                    runs[side].append(values)
    metrics = end_to_end_metrics()
    better = {m["name"]: m.get("better", "lower") for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics if "bound" in m}
    print(format_rows(summarize(runs["base"], runs["change"], better, bounds)))
    if any(failed.values()):
        print(f"failed runs: base {failed['base']} of {args.pairs}, "
              f"change {failed['change']} of {args.pairs}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
