"""Each counterexample branch of the recurrences suite, the
"computational routes disagree" branch of both term-table suites, a wrong
closed form of the family-values suite and a duplicate of the
within-family suite, made to fire.  A case makes one route wrong at
exactly one input, by one added to the charpoly or value it returns there,
or gives one member the formula of another, and checks that:

- the report fails, and its counterexamples are exactly that input;
- every count and every detail is what the unpatched suite reports;
- ``lapspec verify`` exits 1, and its text and its JSON name the input.

The table suites' wrong route is the recurrence: a wrong matrix charpoly
would also change the left-hand side the table is compared with, and so
the table counts."""

import pytest

from lapspec import recurrences, termtables, verify
from lapspec.cli import main
from lapspec.graphs import dumbbell_graph, make_path, theta_graph
from lapspec.reports import VerificationReport
from lapspec.verify import SUITES

RECURRENCES = {"path_n_max": 6, "p_max": 5, "k_max": 2, "r_max": 3}
DUMBBELL_TABLE = {"p_max": 5, "k_max": 2}
THETA_TABLE = {"r_max": 3}
FAMILY_VALUES = {"p_max": 5, "k_max": 2, "r_max": 3}
WITHIN_FAMILY = {"n_max": 8}


def wrong_graph_charpoly(bad):
    """``laplacian_charpoly``, one more at the graph bad."""
    real = verify.laplacian_charpoly
    return "laplacian_charpoly", lambda g: real(g) + 1 if g == bad else real(g)


def wrong_interior(n):
    """``trailing_charpolys``, one more on the trailing n x n block."""
    real = verify.trailing_charpolys

    def wrong(mat):
        blocks = real(mat)
        blocks[n] = blocks[n] + 1
        return blocks
    return "trailing_charpolys", wrong


def one_more_at(module, name, bad):
    """The function ``<module>.<name>``, one more at the parameters bad."""
    real = getattr(module, name)
    return name, lambda *params: real(*params) + 1 if params == bad else real(*params)


def theta_twin(bad, twin):
    """The theta formula ``recurrences._theta``, run by both the value and
    the charpoly route of within-family, giving at the parameters bad what
    it gives at twin."""
    real = recurrences._theta
    return "_theta", lambda x, u, *params: real(x, u, *(twin if params == bad else params))


ROUTES_DISAGREE = "computational routes disagree"
CASES = {
    "path": ("recurrences", RECURRENCES, verify,
             wrong_graph_charpoly(make_path(5)), {"case": "path", "n": 5}),
    "interior": ("recurrences", RECURRENCES, verify,
                 wrong_interior(3), {"case": "interior", "n": 3}),
    "dumbbell": ("recurrences", RECURRENCES, verify,
                 wrong_graph_charpoly(dumbbell_graph(5, 2, 4)),
                 {"case": "dumbbell", "p": 5, "k": 2, "q": 4}),
    "theta": ("recurrences", RECURRENCES, verify,
              wrong_graph_charpoly(theta_graph(3, 2, 1)),
              {"case": "theta", "r": 3, "s": 2, "t": 1}),
    "dumbbell-table": ("dumbbell-table", DUMBBELL_TABLE, termtables,
                       one_more_at(termtables, "dumbbell_charpoly_rec", (5, 2, 4)),
                       {"family": "dumbbell", "p": 5, "k": 2, "q": 4,
                        "failure": ROUTES_DISAGREE}),
    "theta-table": ("theta-table", THETA_TABLE, termtables,
                    one_more_at(termtables, "theta_charpoly_rec", (3, 2, 1)),
                    {"family": "theta", "r": 3, "s": 2, "t": 1,
                     "failure": ROUTES_DISAGREE}),
    "family-values-dumbbell": ("family-values", FAMILY_VALUES, verify,
                               one_more_at(verify, "dumbbell_value_at4", (5, 2, 4)),
                               {"family": "dumbbell", "p": 5, "k": 2, "q": 4}),
    "family-values-theta": ("family-values", FAMILY_VALUES, verify,
                            one_more_at(verify, "theta_value_at4", (3, 2, 1)),
                            {"family": "theta", "r": 3, "s": 2, "t": 1}),
    # theta(3, 1, 1) and theta(2, 2, 1) are both on 7 vertices
    "within-family": ("within-family", WITHIN_FAMILY, recurrences,
                      theta_twin((3, 1, 1), (2, 2, 1)),
                      {"n": 7, "first": {"family": "theta", "r": 2, "s": 2, "t": 1},
                       "second": {"family": "theta", "r": 3, "s": 1, "t": 1}}),
}


def cli_args(suite, kwargs):
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in kwargs.items()]
    return ["verify", suite, *flags]


@pytest.mark.parametrize("suite, kwargs, module, patch, expected",
                         CASES.values(), ids=CASES)
def test_one_wrong_route_is_exactly_one_counterexample(monkeypatch, capsys, suite,
                                                        kwargs, module, patch, expected):
    clean = SUITES[suite](**kwargs)
    assert clean.passed and not clean.counterexamples
    monkeypatch.setattr(module, *patch)

    report = SUITES[suite](**kwargs)
    assert not report.passed
    assert report.counterexamples == [expected]
    assert report.counts == clean.counts
    assert report.details == clean.details

    assert main(cli_args(suite, kwargs)) == 1
    text = capsys.readouterr().out.splitlines()
    assert text[0].startswith(f"FAIL {suite}: ")
    assert text[1:] == [f"  counterexample: {expected}"]

    assert main([*cli_args(suite, kwargs), "--format", "json"]) == 1
    printed = VerificationReport.from_json(capsys.readouterr().out)
    assert not printed.passed
    assert printed.counterexamples == [expected]
