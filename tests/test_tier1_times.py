import importlib.util
import json
import subprocess
from pathlib import Path

_path = Path(__file__).resolve().parents[1] / "tools" / "tier1_times.py"
_spec = importlib.util.spec_from_file_location("tier1_times", _path)
tier1_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tier1_times)

JUNIT = """<?xml version="1.0" encoding="utf-8"?><testsuites name="pytest tests">
<testsuite name="pytest" errors="1" failures="1" skipped="2" tests="8" time="3.5">
<testcase classname="tests.test_acceptance" name="test_01_recurrences" time="0.250" />
<testcase classname="tests.test_acceptance" name="test_02_values" time="1.500">
  <failure message="assert False">trace</failure></testcase>
<testcase classname="tests.test_laplacian.TestAdjugate" name="test_a" time="0.125" />
<testcase classname="tests.test_laplacian.TestAdjugate.Inner" name="test_b" time="0.375" />
<testcase classname="tests.test_probe" name="test_short_pass" time="0.017">
  <skipped type="pytest.xfail" message="known crash" /></testcase>
<testcase classname="tests.test_probe" name="test_other" time="0.000">
  <skipped type="pytest.skip" message="not here" /></testcase>
<testcase classname="tests.test_probe" name="test_fixture" time="0.010">
  <error message="failed on setup">boom</error></testcase>
<testcase classname="tests.test_sub.test_deep" name="test_c" time="1.000" />
</testsuite></testsuites>"""


def test_parse_a_fixed_report(monkeypatch):
    def no_subprocess(*args, **kwargs):
        raise AssertionError("the parser starts no subprocess")

    monkeypatch.setattr(subprocess, "run", no_subprocess)
    summary = tier1_times.parse_junit(JUNIT)
    # slowest first; a test class, nested or not, belongs to its module
    assert list(summary["files"].items()) == [
        ("tests/test_acceptance.py", 1.75),
        ("tests/test_sub/test_deep.py", 1.0),
        ("tests/test_laplacian.py", 0.5),
        ("tests/test_probe.py", 0.027),
    ]
    assert summary["criteria"] == {"test_01_recurrences": 0.25, "test_02_values": 1.5}
    assert list(summary["criteria"]) == ["test_01_recurrences", "test_02_values"]
    assert summary["counts"] == {"passed": 4, "failed": 1, "error": 1, "skipped": 1,
                                 "xfailed": 1}


def test_report_ends_with_the_summary_as_json():
    summary = tier1_times.parse_junit(JUNIT)
    summary.update(wall_s=4.2, exit_code=1)
    lines = tier1_times.report(summary).split("\n")
    assert json.loads(lines[-1]) == summary
    assert "      1.50  test_02_values" in lines
    assert "      1.75  all criteria" in lines
    assert "4 passed, 1 failed, 1 error, 1 skipped, 1 xfailed" in lines
    assert "pytest wall time 4.20 s, exit code 1" in lines
