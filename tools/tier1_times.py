#!/usr/bin/env python3
"""Tier-1 wall time, per test file and per acceptance criterion.

Run from anywhere inside the repository:

    python3 tools/tier1_times.py

The script runs the tier-1 suite in the repository, with ``src`` on
``PYTHONPATH``:

    python3 -m pytest -q --continue-on-collection-errors -p no:cacheprovider \\
        --junitxml <temporary directory>/tier1.xml

and reads the JUnit XML it leaves.  It prints the seconds of each test
file (slowest first), the seconds of each acceptance criterion (the tests
of ``tests/test_acceptance.py``, in file order), the numbers of passed,
failed, errored, skipped and xfailed tests, and the wall time of the
pytest process; its last line is all of that as one JSON object.  It
exits with pytest's exit code.

A test's file is read off its JUnit ``classname``: the dotted parts before
the first one that starts with a capital letter (a test class) are the
module path.  A test with a ``failure`` element is failed, one with an
``error`` element errored (a setup error or a collection failure), one
with a ``skipped`` element of type ``pytest.xfail`` xfailed, one with
another ``skipped`` element skipped, and every other one passed.

Standard library only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ACCEPTANCE = "tests/test_acceptance.py"
OUTCOMES = ("passed", "failed", "error", "skipped", "xfailed")


def file_of(classname: str) -> str:
    """The file of a JUnit classname: ``tests.test_x.TestY`` is
    ``tests/test_x.py``."""
    parts = []
    for part in classname.split("."):
        if part[:1].isupper():
            break
        parts.append(part)
    return "/".join(parts) + ".py"


def outcome(case: ET.Element) -> str:
    """passed, failed, error, skipped or xfailed for one testcase element."""
    if case.find("failure") is not None:
        return "failed"
    if case.find("error") is not None:
        return "error"
    skipped = case.find("skipped")
    if skipped is not None:
        return "xfailed" if skipped.get("type") == "pytest.xfail" else "skipped"
    return "passed"


def parse_junit(text: str) -> dict:
    """Per-file seconds, per-criterion seconds and outcome counts of one
    JUnit XML report, as the module docstring defines them."""
    files: dict[str, float] = {}
    criteria: dict[str, float] = {}
    counts = dict.fromkeys(OUTCOMES, 0)
    for case in ET.fromstring(text).iter("testcase"):
        seconds = float(case.get("time", 0))
        path = file_of(case.get("classname", ""))
        files[path] = files.get(path, 0.0) + seconds
        if path == ACCEPTANCE:
            criteria[case.get("name", "")] = seconds
        counts[outcome(case)] += 1
    files = {path: round(seconds, 3)
             for path, seconds in sorted(files.items(), key=lambda item: -item[1])}
    return {"files": files, "criteria": criteria, "counts": counts}


def report(summary: dict) -> str:
    """The printed report of a summary: one line per file and per criterion,
    the counts and the wall time, then the summary as one JSON line."""
    lines = ["seconds per test file:"]
    lines += [f"  {seconds:8.2f}  {path}" for path, seconds in summary["files"].items()]
    lines.append("seconds per acceptance criterion:")
    lines += [f"  {seconds:8.2f}  {name}" for name, seconds in summary["criteria"].items()]
    lines.append(f"  {sum(summary['criteria'].values()):8.2f}  all criteria")
    lines.append(", ".join(f"{count} {name}" for name, count in summary["counts"].items()))
    lines.append(f"pytest wall time {summary['wall_s']:.2f} s, exit code {summary['exit_code']}")
    lines.append(json.dumps(summary, sort_keys=True))
    return "\n".join(lines)


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="tier1-") as tmp:
        xml_path = Path(tmp) / "tier1.xml"
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "pytest", "-q",
                               "--continue-on-collection-errors", "-p", "no:cacheprovider",
                               "--junitxml", str(xml_path)],
                              cwd=REPO, env=env, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        if not xml_path.exists():
            print(f"pytest exited {done.returncode} and wrote no JUnit XML", file=sys.stderr)
            return done.returncode or 1
        summary = parse_junit(xml_path.read_text())
    summary["wall_s"] = round(wall, 3)
    summary["exit_code"] = done.returncode
    print(report(summary))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
