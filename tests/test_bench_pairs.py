import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_of_fixed_runs():
    base = [{"wall_s": w, "peak_rss_mb": 30.0, "hits": h}
            for w, h in [(1.0, 5), (1.2, 6), (1.1, 7), (1.4, 8)]]
    change = [{"wall_s": w, "peak_rss_mb": 30.0, "hits": h}
              for w, h in [(0.9, 6), (1.3, 6), (0.8, 9), (1.0, 9)]]
    rows = {r["metric"]: r for r in bench_pairs.summarize(
        base, change, {"wall_s": "lower", "hits": "higher"})}
    assert list(rows) == ["wall_s", "peak_rss_mb", "hits"]

    wall = rows["wall_s"]
    assert wall["base_median"] == pytest.approx(1.15)
    assert wall["change_median"] == pytest.approx(0.95)
    assert wall["base_quartiles"] == pytest.approx((1.075, 1.25))
    assert wall["change_quartiles"] == pytest.approx((0.875, 1.075))
    assert wall["delta"] == pytest.approx(0.95 / 1.15 - 1)
    assert (wall["wins"], wall["pairs"]) == (3, 4)  # pair 2 got slower

    # a tie is no win; a metric not in the map is better lower
    assert (rows["peak_rss_mb"]["wins"], rows["peak_rss_mb"]["delta"]) == (0, 0)
    # better higher: pairs 1, 3 and 4 rose, pair 2 tied
    assert rows["hits"]["wins"] == 3


def test_summary_keeps_only_metrics_of_every_run():
    base = [{"wall_s": 1.0, "extra": 2.0}, {"wall_s": 1.0}]
    change = [{"wall_s": 2.0, "extra": 1.0}, {"wall_s": 2.0, "extra": 1.0}]
    rows = bench_pairs.summarize(base, change, {})
    assert [r["metric"] for r in rows] == ["wall_s"]
    assert rows[0]["base_quartiles"] == (1.0, 1.0)
    assert rows[0]["wins"] == 0
    assert bench_pairs.summarize([], [], {}) == []


def test_parse_keeps_the_result_and_the_failed_gates():
    out = ("env: {}\n== determination-warm end-to-end (3 passes)\n"
           "FAIL: determination n=8 pool\nFAIL: warm pass read pools from the cache directory\n"
           '{"correct": false, "attempted": 9, "failed": 2, "metrics": {}}\n')
    result, failures = bench_pairs.parse_run(out)
    assert result == {"correct": False, "attempted": 9, "failed": 2, "metrics": {}}
    assert failures == ["FAIL: determination n=8 pool",
                        "FAIL: warm pass read pools from the cache directory"]
    # a run that died before its result line: no result, no gates
    assert bench_pairs.parse_run("env: {}\nTraceback (most recent call last):\n") \
        == (None, [])
    assert bench_pairs.parse_run("") == (None, [])
    assert bench_pairs.parse_run("[1, 2]\n") == (None, [])


def _result_line(wall):
    return json.dumps({"correct": True, "metrics": {"wall_s": {"value": wall}}}) + "\n"


def test_a_failed_run_reports_pair_side_exit_code_and_gates(monkeypatch, capsys):
    # pair 1 runs the base first, and that run fails; the other three pass
    failed = ("FAIL: determination n=8 pool\n"
              '{"correct": false, "attempted": 9, "failed": 1, "metrics": {}}\n')
    calls = []

    def run(cmd, **kwargs):
        calls.append(kwargs["cwd"])
        if len(calls) == 1:
            return subprocess.CompletedProcess(cmd, 1, stdout=failed, stderr="")
        wall = 1.0 if kwargs["cwd"] != bench_pairs.REPO else 0.9
        return subprocess.CompletedProcess(cmd, 0, stdout=_result_line(wall), stderr="")

    monkeypatch.setattr(bench_pairs, "extract", lambda commit, into: None)
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.main(["--base", "HEAD", "--workload", "determination-warm",
                             "--pairs", "2"]) == 1
    # every run is made, base and change alternating who goes first
    assert [cwd == bench_pairs.REPO for cwd in calls] == [False, True, True, False]
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "pair 1: the base run exited 1 and did not report correct true: a gate failure",
        "pair 1 base: FAIL: determination n=8 pool",
        "failed runs: base 1 of 2, change 0 of 2"]
    # only pair 2, where both runs were correct, is compared
    wall = [line for line in captured.out.splitlines() if line.startswith("wall_s")]
    assert len(wall) == 1 and wall[0].split()[-2] == "1/1"


def test_a_failed_run_prints_the_tail_of_its_output(monkeypatch, capsys):
    lines = [f"line {i}" for i in range(1, 51)]
    trace = ["Traceback (most recent call last):", '  File "perfbench/run.py"',
             "statistics.StatisticsError: fmean requires at least one data point"]

    def run(cmd, **kwargs):
        if kwargs["cwd"] != bench_pairs.REPO:
            return subprocess.CompletedProcess(cmd, 1, stdout="\n".join(lines) + "\n",
                                               stderr="\n".join(trace) + "\n")
        return subprocess.CompletedProcess(cmd, 0, stdout=_result_line(1.0), stderr="")

    monkeypatch.setattr(bench_pairs, "extract", lambda commit, into: None)
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.main(["--base", "HEAD", "--workload", "determination-warm",
                             "--pairs", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:45] == (["pair 1 base: last 40 lines of its output:"] + lines[-40:]
                        + ["pair 1 base: last 3 lines of its standard error:"] + trace)
    assert out[45] == "pair 1 change: wall_s=1"


_PROBE_TRACE = ("Traceback (most recent call last):\n"
                '  File "perfbench/run.py", line 1, in <module>\n'
                "statistics.StatisticsError: fmean requires at least one data point\n")
_OTHER_TRACE = ("Traceback (most recent call last):\n"
                '  File "perfbench/run.py", line 1, in <module>\n'
                "ZeroDivisionError: division by zero\n")
_FAILED_GATE = ("FAIL: warm pass read pools from the cache directory\n"
                '{"correct": false, "attempted": 9, "failed": 1, "metrics": {}}\n')


@pytest.mark.parametrize("stdout, stderr, kind", [
    ("env: {}\n", _PROBE_TRACE, bench_pairs.PROBE_CRASH),
    # the probe crash wins over FAIL: lines printed before it
    (_FAILED_GATE, _PROBE_TRACE, bench_pairs.PROBE_CRASH),
    (_FAILED_GATE, "", "a gate failure"),
    ("env: {}\n", _OTHER_TRACE, "another exception"),
    ("", "", "another exception")],
    ids=["probe-crash", "probe-crash-after-gates", "gate", "exception", "no-output"])
def test_a_failed_run_is_labelled_by_its_kind(monkeypatch, capsys, stdout, stderr, kind):
    def run(cmd, **kwargs):
        if kwargs["cwd"] == bench_pairs.REPO:
            return subprocess.CompletedProcess(cmd, 1, stdout=stdout, stderr=stderr)
        return subprocess.CompletedProcess(cmd, 0, stdout=_result_line(1.0), stderr="")

    monkeypatch.setattr(bench_pairs, "extract", lambda commit, into: None)
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.main(["--base", "HEAD", "--workload", "determination-warm",
                             "--pairs", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == ("pair 1: the change run exited 1 and did not report correct true: "
                      + kind)
    gates = [line for line in stdout.splitlines() if line.startswith("FAIL:")]
    assert err[1:-1] == [f"pair 1 change: {line}" for line in gates]


def _verdicts(base, change, better=None):
    rows = bench_pairs.summarize([{"m": v} for v in base], [{"m": v} for v in change],
                                 better or {}, {"m": 0.15})
    return rows[0]["verdict"]


def test_verdict_of_fixed_runs():
    # the change median 20% worse than the base median, bound 15%
    assert _verdicts([1.0] * 4, [1.2] * 4) == "worse"
    assert _verdicts([1.0] * 4, [1.1] * 4) == "ok"
    assert _verdicts([1.0] * 4, [0.5] * 4) == "ok"
    # base q1-q3 spread 1.0-1.4 over median 1.2 is 33%, wider than 15%:
    # unresolved unless the change won every pair
    wide = [1.0, 1.4, 1.0, 1.4]
    assert _verdicts(wide, [1.1, 1.5, 1.1, 1.1]) == "unresolved"
    assert _verdicts(wide, [0.9, 1.3, 0.9, 1.3]) == "ok"
    # worse beats unresolved
    assert _verdicts(wide, [1.5] * 4) == "worse"
    # better higher: a 20% fall is worse
    assert _verdicts([10.0] * 4, [8.0] * 4, {"m": "higher"}) == "worse"
    assert _verdicts([10.0] * 4, [12.0] * 4, {"m": "higher"}) == "ok"
    # a metric without a bound gets no verdict
    rows = bench_pairs.summarize([{"x": 1.0}], [{"x": 9.0}], {}, {"m": 0.15})
    assert rows[0]["verdict"] == ""


def _stub_runs(monkeypatch, stdout_of):
    """Benchmark runs answered by stdout_of(is_base) without running anything."""
    def run(cmd, **kwargs):
        is_base = kwargs["cwd"] != bench_pairs.REPO
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout_of(is_base))

    monkeypatch.setattr(bench_pairs, "extract", lambda commit, into: None)
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)


def test_summary_reads_the_bounds_of_benchmark_json(monkeypatch, capsys):
    # wall_s 30% worse (bound 0.15), setup_s equal, peak_rss_mb 1% worse (bound 0.1)
    def stdout_of(is_base):
        wall, rss = (1.0, 30.0) if is_base else (1.3, 30.3)
        metrics = {"wall_s": {"value": wall}, "setup_s": {"value": 0.4},
                   "peak_rss_mb": {"value": rss}}
        return json.dumps({"correct": True, "metrics": metrics}) + "\n"

    _stub_runs(monkeypatch, stdout_of)
    assert bench_pairs.main(["--base", "HEAD", "--workload", "census", "--pairs", "2"]) == 0
    verdicts = {line.split()[0]: line.split()[-1]
                for line in capsys.readouterr().out.splitlines()[-3:]}
    assert verdicts == {"wall_s": "worse", "setup_s": "ok", "peak_rss_mb": "ok"}



def _gain(base, change, better=None):
    rows = bench_pairs.summarize([{"m": v} for v in base], [{"m": v} for v in change],
                                 better or {})
    return rows[0]["gain"]


def test_gain_of_fixed_runs():
    # base median 10.0, q1-q3 spread 9.925-10.075 = 0.15
    base = [9.8, 9.9, 9.9, 10.0, 10.0, 10.0, 10.0, 10.1, 10.1, 10.2]
    # 9 of 10 pairs won, medians 0.5 apart: a gain
    change = [9.5] * 9 + [10.5]
    assert _gain(base, change) == "yes"
    # 8 of 10 won is below nine tenths
    assert _gain(base, [9.5] * 8 + [10.5] * 2) == "no"
    # a tie is no win
    assert _gain(base, [9.5] * 8 + [10.5, base[-1]]) == "no"
    # every pair won, but the medians are only 0.1 apart
    assert _gain(base, [v - 0.1 for v in base]) == "no"
    assert _gain(base, [v - 0.25 for v in base]) == "yes"
    # better higher: a rise is the gain, a fall is not
    assert _gain(base, [v + 0.5 for v in base], {"m": "higher"}) == "yes"
    assert _gain(base, change, {"m": "higher"}) == "no"


def test_gain_is_printed_before_won_and_verdict(monkeypatch, capsys):
    # wall_s 10% better in both pairs; setup_s equal
    def stdout_of(is_base):
        metrics = {"wall_s": {"value": 1.0 if is_base else 0.9},
                   "setup_s": {"value": 0.4}}
        return json.dumps({"correct": True, "metrics": metrics}) + "\n"

    _stub_runs(monkeypatch, stdout_of)
    assert bench_pairs.main(["--base", "HEAD", "--workload", "algebra", "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3].split()[-3:] == ["gain", "won", "verdict"]
    assert {line.split()[0]: line.split()[-3:] for line in lines[-2:]} == {
        "wall_s": ["yes", "2/2", "ok"], "setup_s": ["no", "0/2", "ok"]}
