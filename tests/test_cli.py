import argparse
import inspect
import json
import re
from pathlib import Path

import pytest

from lapspec import cli
from lapspec.cli import MAX_CLI_VERTICES, main
from lapspec.enumeration import EnumerationTask
from lapspec.graph6 import graph6_encode
from lapspec.graphs import Graph, make_theta
from lapspec.reports import VerificationReport
from lapspec.verify import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCharpoly:
    def test_dumbbell_with_check(self, capsys):
        code, out = run(capsys, "charpoly", "dumbbell", "3", "0", "3", "--check")
        assert code == 0
        assert "routes agree: yes" in out
        assert "x^6" in out

    def test_theta_coeffs(self, capsys):
        code, out = run(capsys, "charpoly", "theta", "1", "1", "1")
        assert code == 0
        assert "[0, 60, -92, 51, -12, 1]" in out

    def test_json_format(self, capsys):
        code, out = run(capsys, "charpoly", "theta", "2", "1", "0",
                        "--format", "json", "--check")
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] == 5 and payload["edges"] == 6
        assert payload["routes"]["agree"] is True
        assert payload["routes"]["recurrence"] == payload["routes"]["matrix"]
        assert payload["charpoly"]["coeffs"][-1] == 1

    def test_g6_input(self, capsys):
        spec = graph6_encode(make_theta(1, 1, 0)).decode("ascii")
        code, out = run(capsys, "charpoly", "g6", spec)
        assert code == 0
        assert "x^4" in out

    def test_check_unavailable_for_g6(self, capsys):
        with pytest.raises(SystemExit):
            main(["charpoly", "g6", "A_", "--check"])

    def test_bad_arity(self, capsys):
        with pytest.raises(SystemExit):
            main(["charpoly", "dumbbell", "3", "0"])

    def test_bad_params(self, capsys):
        with pytest.raises(SystemExit):
            main(["charpoly", "dumbbell", "2", "0", "3"])

    def test_bad_g6(self, capsys):
        with pytest.raises(SystemExit):
            main(["charpoly", "g6", "\x7f\x7f"])

    def test_non_integer_params(self, capsys):
        with pytest.raises(SystemExit):
            main(["charpoly", "theta", "1", "one", "0"])


class TestInvariants:
    @pytest.mark.parametrize("argv,tau", [
        (("invariants", "dumbbell", "4", "1", "3"), 12),
        (("invariants", "theta", "2", "1", "0"), 11),
        (("invariants", "cycle", "5"), 5),
    ])
    def test_known_tree_counts(self, capsys, argv, tau):
        code, out = run(capsys, *argv)
        assert code == 0
        assert f"spanning trees    = {tau}" in out

    def test_json(self, capsys):
        code, out = run(capsys, "invariants", "path", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"vertices": 4, "edges": 3, "components": 1,
                           "spanning_trees": 1, "degree_square_sum": 10}

    def test_disconnected_g6(self, capsys):
        code, out = run(capsys, "invariants", "g6", "A?")
        assert code == 0
        assert "undefined (disconnected)" in out


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out = run(capsys, "verify", "generating-identity", "--r-max", "6")
        assert code == 0
        assert out.startswith("PASS generating-identity")

    def test_json_report_round_trips(self, capsys):
        code, out = run(capsys, "verify", "special-values", "--n-max", "20",
                        "--format", "json")
        assert code == 0
        report = VerificationReport.from_json(out)
        assert report.passed
        assert report.parameters == {"n_max": 20}
        assert report.to_json() == out.rstrip("\n")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run(capsys, "verify", "generating-identity", "--r-max", "4",
                        "--format", "json", "--out", str(target))
        assert code == 0
        report = VerificationReport.from_json(target.read_text())
        assert report.passed
        assert "PASS" in out  # summary still goes to stdout

    def test_determination_cache_dir_writes_the_pool_file(self, capsys, tmp_path):
        code, _ = run(capsys, "verify", "determination", "--n", "6",
                      "--cache-dir", str(tmp_path))
        assert code == 0
        assert list(tmp_path.iterdir()) == \
            [tmp_path / EnumerationTask(6, 7, connected=True).cache_name()]

    def test_determination_cache_dir_refuses_a_pool_without_a_pinned_digest(self, capsys,
                                                                           tmp_path):
        assert main(["verify", "determination", "--n", "13", "--cap", "13",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "pinned digests" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_census_takes_no_cache_dir(self, capsys, tmp_path):
        # the census grows both routes on every run, so no file may stand
        # in for either
        with pytest.raises(SystemExit) as info:
            main(["verify", "census", "--n-max", "5", "--cache-dir", str(tmp_path)])
        assert info.value.code == 2
        assert "--cache-dir is not a parameter of suite 'census'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,name", [
        (("special-values", "--n-max", "-5"), "n_max"),
        (("generating-identity", "--r-max", "-3"), "r_max"),
        (("invariants", "--samples", "-4"), "samples"),
    ])
    def test_negative_bound_is_a_usage_error(self, capsys, argv, name):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{name} must be >= 0" in captured.err

    @pytest.mark.parametrize("argv,name", [
        (("deletion-formula", "--sample-n-max", "1"), "sample_n_max"),
        (("invariants", "--n-max", "1"), "n_max"),
    ])
    def test_sample_bound_below_two_is_a_usage_error(self, capsys, argv, name):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{name} must be >= 2 when samples > 0, got 1" in captured.err

    def test_negative_seed_is_accepted(self, capsys):
        code, _ = run(capsys, "verify", "invariants", "--samples", "3",
                      "--n-max", "5", "--seed", "-1")
        assert code == 0

    def test_flag_not_for_suite(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "census", "--p-max", "4"])

    def test_determination_requires_n(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "determination"])

    def test_determination_runs(self, capsys):
        code, out = run(capsys, "verify", "determination", "--n", "6")
        assert code == 0
        assert "PASS determination" in out

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "everything"])

    def test_seed_flag(self, capsys):
        code_a, out_a = run(capsys, "verify", "invariants", "--samples", "5",
                            "--n-max", "6", "--seed", "9", "--format", "json")
        code_b, out_b = run(capsys, "verify", "invariants", "--samples", "5",
                            "--n-max", "6", "--seed", "9", "--format", "json")
        assert code_a == code_b == 0
        a = VerificationReport.from_json(out_a).without_timing()
        b = VerificationReport.from_json(out_b).without_timing()
        assert a == b


class TestDerivedSurface:
    """The verify flags come from the suite signatures; pin what they add up to."""

    BOUND_FLAGS = {"--path-n-max", "--p-max", "--k-max", "--r-max", "--n-max",
                   "--n", "--family-n-max", "--samples", "--sample-n-max",
                   "--seed", "--cap", "--cache-dir"}

    @staticmethod
    def _verify_parser():
        sub = next(action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        return sub.choices["verify"]

    def test_flag_set(self):
        flags = {option for action in self._verify_parser()._actions
                 for option in action.option_strings}
        assert flags == self.BOUND_FLAGS | {"-h", "--help", "--format", "--out"}

    def test_suite_names_match_readme(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = readme.split("\nSuites: ", 1)[1].split(". ", 1)[0]
        names = re.findall(r"`([a-z-]+)`", listed)
        assert len(names) == 12
        assert sorted(SUITES) == sorted(names)

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_each_suite_takes_exactly_its_signature(self, suite, monkeypatch, capsys):
        taken = set(inspect.signature(SUITES[suite]).parameters)
        calls = []

        def stub(**kwargs):
            calls.append(kwargs)
            return VerificationReport(suite, "stub", {}, True)

        monkeypatch.setitem(SUITES, suite, stub)
        for flag in sorted(self.BOUND_FLAGS):
            name = flag[2:].replace("-", "_")
            argv = ["verify", suite, flag, "3"]
            if name != "n" and "n" in taken:
                argv += ["--n", "6"]
            if name in taken:
                assert main(argv) == 0
                assert calls.pop()[name] == (3 if name != "cache_dir" else "3")
            else:
                with pytest.raises(SystemExit) as info:
                    main(argv)
                assert info.value.code == 2
        capsys.readouterr()


class TestVertexLimit:
    OVER = MAX_CLI_VERTICES + 1

    @pytest.mark.parametrize("command", ["charpoly", "invariants"])
    @pytest.mark.parametrize("spec", [
        ("path", str(OVER)),
        ("cycle", str(OVER)),
        ("dumbbell", str(OVER // 2), "1", str(OVER // 2)),
        ("g6", graph6_encode(Graph(OVER)).decode("ascii")),
    ], ids=["path", "cycle", "dumbbell", "g6"])
    def test_just_over_the_limit_is_refused(self, capsys, command, spec):
        with pytest.raises(SystemExit) as info:
            main([command, *spec])
        assert info.value.code == 2
        assert f"{self.OVER} vertices; at most {MAX_CLI_VERTICES}" in capsys.readouterr().err

    def test_parametric_kinds_are_checked_before_building(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("graph built before the size check")
        monkeypatch.setattr(cli, "make_path", refuse)
        with pytest.raises(SystemExit) as info:
            main(["charpoly", "path", "1000000"])
        assert info.value.code == 2

    @pytest.mark.parametrize("spec", [
        ("path", str(MAX_CLI_VERTICES)),
        ("g6", graph6_encode(Graph(MAX_CLI_VERTICES)).decode("ascii")),
    ], ids=["path", "g6"])
    def test_the_limit_itself_is_accepted(self, spec):
        g, _ = cli._parse_graph_spec(cli.build_parser(), spec[0], list(spec[1:]))
        assert g.n == MAX_CLI_VERTICES
