"""The benchmark harness's speed probe, loaded read-only from
``perfbench/run.py`` (no bytecode is written next to it)."""

import importlib.util
import statistics
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def run_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its tracer
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop("tracer", None)
    return module


@pytest.mark.xfail(strict=True, raises=statistics.StatisticsError,
                   reason="SpeedProbe.speed averages no samples when a pass ends "
                          "before the first timer probe")
def test_a_pass_shorter_than_the_probe_interval_gets_a_speed(run_module):
    # measure() marks len(probe.samples) before a pass and asks for the speed
    # of the samples taken since; a pass under PROBE_INTERVAL takes none
    probe = run_module.SpeedProbe()
    probe.sample()
    assert probe.speed(len(probe.samples)) > 0
