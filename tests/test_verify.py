import builtins
import gc
import io
import os
import tracemalloc
from dataclasses import asdict

import pytest

from graph_helpers import relabel

from lapspec import enumeration, invariants, verify
from lapspec.canonical import canonical_form
from lapspec.enumeration import DEFAULT_CAP, EnumerationTask, enumerate_graphs
from lapspec.graph6 import graph6_decode, graph6_encode
from lapspec.graphs import DumbbellParams, Graph, ThetaParams
from lapspec.laplacian import charpoly, laplacian
from lapspec.polynomials import IntPoly, X
from lapspec.reports import VerificationReport
from lapspec.verify import (dumbbell_parameter_grid, family_members,
                            member_charpoly, theta_parameter_grid,
                            verify_census, verify_cospectral_structure,
                            verify_deletion_suite, verify_determination,
                            verify_dumbbell_table, verify_family_values,
                            verify_generating_identity, verify_invariants_suite,
                            verify_recurrences, verify_special_values,
                            verify_theta_table, verify_within_family)


class TestFamilyEnumeration:
    def test_grids(self):
        assert dumbbell_parameter_grid(6) == [DumbbellParams(3, 0, 3)]
        assert dumbbell_parameter_grid(5) == []
        assert theta_parameter_grid(4) == [ThetaParams(1, 1, 0)]
        assert set(theta_parameter_grid(6)) == {ThetaParams(2, 1, 1),
                                                ThetaParams(2, 2, 0),
                                                ThetaParams(3, 1, 0)}

    def test_grids_keep_the_members_of_the_full_grids_in_order(self):
        for n in range(-1, 41):
            dumbbells = [d for d in verify._dumbbell_grid(n, n) if d.vertex_count == n]
            thetas = [h for h in verify._theta_grid(n) if h.vertex_count == n]
            assert dumbbell_parameter_grid(n) == sorted(dumbbells,
                                                        key=lambda d: (d.p, d.k, d.q))
            assert theta_parameter_grid(n) == thetas

    def test_members_on_six_vertices(self):
        members = family_members(6)
        assert len(members) == 4
        assert all(g.n == 6 and g.m == 7 for g in members)
        params = {g.family for g in members}
        assert DumbbellParams(3, 0, 3) in params

    def test_members_carry_usable_params(self):
        for g in family_members(7):
            phi = member_charpoly(g)
            assert phi.degree == 7
            assert phi.coeff(7) == 1

    def test_below_range(self):
        assert family_members(3) == []


class TestSuitesPass:
    def test_recurrences(self):
        report = verify_recurrences(path_n_max=10, p_max=4, k_max=1, r_max=3)
        assert report.passed
        assert report.counts["dumbbells"] == 4 * 2  # ordered pairs from {3,4}, two k

    def test_special_values(self):
        assert verify_special_values(n_max=50).passed

    def test_special_values_build_no_polynomials(self):
        # The values come from the recurrence run in the integers: a few
        # small ints per n, where the polynomials to n = 1000 take over 100 MB.
        tracemalloc.start()
        try:
            report = verify_special_values(n_max=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed and report.counts["evaluations"] == 3 * 1001
        assert peak < 1 << 20

    def test_generating_identity(self):
        report = verify_generating_identity(r_max=12)
        assert report.passed and report.counts["checked"] == 13

    def test_dumbbell_table(self):
        report = verify_dumbbell_table(p_max=5, k_max=1)
        assert report.passed
        assert report.counts["table_mismatched_tuples"] == 0
        assert all(item["table_matches"] for item in report.details["tuples"])

    def test_theta_table_flags_known_bad_term(self):
        report = verify_theta_table(r_max=3)
        assert report.passed  # the two computational routes agree everywhere
        assert report.counts["table_mismatched_tuples"] == report.counts["tuples"]
        for item in report.details["tuples"]:
            assert not item["table_matches"]
            assert len(item["diffs"]) == 1

    def test_family_values(self):
        assert verify_family_values(p_max=5, k_max=1, r_max=3).passed

    def test_deletion(self):
        report = verify_deletion_suite(family_n_max=7, samples=10, sample_n_max=6)
        assert report.passed
        assert report.counts["vertex_checks"] > report.counts["family_members"]

    def test_invariants(self):
        assert verify_invariants_suite(samples=30, n_max=7).passed

    def test_within_family(self):
        report = verify_within_family(n_max=10)
        assert report.passed
        assert report.counts["members"] == sum(
            len(family_members(n)) for n in range(4, 11))

    def test_within_family_builds_no_graphs(self, monkeypatch):
        built = []
        init = Graph.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counted)
        assert verify_within_family(n_max=12).passed
        assert built == []

    def count_family_charpolys(self, monkeypatch):
        calls = []
        real = verify._family_charpoly
        monkeypatch.setattr(verify, "_family_charpoly",
                            lambda params: calls.append(params) or real(params))
        return calls

    def test_within_family_builds_no_charpoly_without_a_shared_value(self, monkeypatch):
        calls = self.count_family_charpolys(monkeypatch)
        assert verify_within_family(n_max=20).passed
        assert calls == []

    def test_within_family_falls_back_where_every_value_is_shared(self, monkeypatch):
        # every Laplacian charpoly is 0 at 0, so at x0 = 0 every member
        # shares its value with the other members of its n and gets its
        # charpoly; only theta(1, 1, 0) is alone, on n = 4
        expected = verify_within_family(n_max=20).without_timing().to_json()
        calls = self.count_family_charpolys(monkeypatch)
        monkeypatch.setattr(verify, "_X0", 0)
        report = verify_within_family(n_max=20)
        assert len(set(calls)) == len(calls) == report.counts["members"] - 1
        assert ThetaParams(1, 1, 0) not in calls
        assert report.without_timing().to_json() == expected

    def test_within_family_at_80(self):
        report = verify_within_family(n_max=80)
        assert report.passed and report.counts["members"] == 52247

    def test_family_values_are_the_recurrence_charpolys_at_four(self):
        u = verify._u_table(4, 8)
        for d in verify._dumbbell_grid(8, 5):
            assert verify._family_value(d, 4, u) == \
                verify.dumbbell_charpoly_rec(d.p, d.k, d.q).eval(4)
        for h in verify._theta_grid(8):
            assert verify._family_value(h, 4, u) == \
                verify.theta_charpoly_rec(h.r, h.s, h.t).eval(4)

    def test_a_wrong_invariant_keeps_the_counterexample_dict(self, monkeypatch):
        # one more spanning tree counted directly at the third sample
        graphs = []
        real = verify.spanning_tree_count

        def wrong(g):
            graphs.append(g)
            return real(g) + (len(graphs) == 3)

        monkeypatch.setattr(verify, "spanning_tree_count", wrong)
        report = verify_invariants_suite(samples=30, n_max=7)
        g = graphs[2]
        derived = invariants.invariants_from_charpoly(charpoly(laplacian(g)))
        assert report.counterexamples == [{
            "graph6": canonical_form(g).decode("ascii"),
            "derived": asdict(derived),
            "direct": {"vertices": g.n, "edges": g.m, "components": 1,
                       "spanning_trees": derived.spanning_trees + 1,
                       "degree_square_sum": derived.degree_square_sum}}]


class TestPoolSuites:
    def test_determination_small(self, bicyclic_pool):
        report = verify_determination(6)
        assert report.passed
        assert report.counts["members"] == 4
        assert report.counts["pool"] == len(bicyclic_pool(6))
        assert {"family": "dumbbell", "p": 3, "k": 0, "q": 3} in report.details["members"]

    def test_mates_are_compared_by_pool_form(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_memo", {})
        verify_determination(8)
        calls = []
        monkeypatch.setattr(verify, "canonical_form",
                            lambda g: calls.append(g) or canonical_form(g))
        assert verify_determination(8).passed
        # one call per member; the mates' forms come from the pool
        assert len(calls) == 10

    def test_structure_small(self):
        report = verify_cospectral_structure(6)
        assert report.passed
        assert report.counts["profile_graphs"] == report.counts["members"] == 4
        assert report.counts["cospectral_hits"] == 4

    @pytest.mark.parametrize("wrong, extra, missing", [
        # p one too long and q one too short: (4, 0, 4) becomes the member
        # (5, 0, 3), whose own graph then reads as (6, 0, 2)
        (lambda d: DumbbellParams(d.p + 1, d.k, d.q - 1),
         [(4, 2, 2), (5, 1, 2), (6, 0, 2)], [(3, 2, 3), (4, 1, 3), (4, 0, 4)]),
        # the two cycles out of normal form
        (lambda d: DumbbellParams(d.q, d.k, d.p),
         [(3, 1, 4), (3, 0, 5)], [(4, 1, 3), (5, 0, 3)]),
    ], ids=["p-off-by-one", "cycles-swapped"])
    def test_wrong_classified_parameters_fail(self, monkeypatch, wrong, extra, missing):
        classify = verify.classify_bicyclic

        def misread(g):
            params = classify(g)
            return wrong(params) if isinstance(params, DumbbellParams) else params

        monkeypatch.setattr(verify, "classify_bicyclic", misread)
        report = verify_cospectral_structure(8)
        assert not report.passed
        assert report.counts["profile_graphs"] == report.counts["members"] == 10

        rows = [{"family": "dumbbell", "p": p, "k": k, "q": q, "failure": failure}
                for triples, failure in [
                    (extra, "profile graph classified as no member, or twice"),
                    (missing, "member parameters not read off a profile graph")]
                for p, k, q in triples]
        assert sorted(map(repr, report.counterexamples)) == sorted(map(repr, rows))

    def test_a_recurrence_that_is_no_laplacian_charpoly_is_reported(self, monkeypatch):
        # x + 1 has a nonzero constant term, so no invariants can be read
        # off it; the member fails instead of the suite raising.
        monkeypatch.setattr(verify, "dumbbell_charpoly_rec", lambda p, k, q: X + 1)
        report = verify_cospectral_structure(6)
        assert not report.passed
        params = {"family": "dumbbell", "p": 3, "k": 0, "q": 3}
        assert report.counterexamples == [
            {**params, "failure": "member has no cospectral pool graph"},
            {**params, "failure": "solver did not force profile", "solved": None}]

    def test_census_small(self):
        report = verify_census(n_max=5)
        assert report.passed
        assert report.details["totals"] == {"0": 1, "1": 1, "2": 2, "3": 4,
                                            "4": 11, "5": 34}

    def test_census_takes_no_cache_dir(self, tmp_path):
        # both routes are grown on every run, so no cache file can stand in
        # for the edge route
        with pytest.raises(TypeError):
            verify_census(n_max=5, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_census_refuses_relabeled_edge_route(self, monkeypatch):
        # Same classes, but one graph not canonically labeled: its encoding
        # is no canonical form, so the routes no longer agree.
        enumerate_graphs = verify.enumerate_graphs

        def relabeled(task, **kwargs):
            pool = enumerate_graphs(task, **kwargs)
            if (task.n, task.m) == (4, 3):
                pool[0] = relabel(pool[0], [3, 2, 1, 0])
                assert graph6_encode(pool[0]) != canonical_form(pool[0])
            return pool

        monkeypatch.setattr(verify, "enumerate_graphs", relabeled)
        report = verify_census(n_max=4)
        assert not report.passed
        assert report.counterexamples == [{"n": 4, "edge_route": 11, "vertex_route": 11}]

    def test_census_compares_each_edge_count(self, monkeypatch):
        # The edge route answers (4, 2) with the (4, 4) classes and the
        # other way round: every class of n = 4 still comes out once, so only
        # the per-level comparison sees it.
        enumerate_graphs = verify.enumerate_graphs

        def swapped(task, **kwargs):
            m = {2: 4, 4: 2}.get(task.m, task.m) if task.n == 4 else task.m
            return enumerate_graphs(EnumerationTask(task.n, m), **kwargs)

        monkeypatch.setattr(verify, "enumerate_graphs", swapped)
        report = verify_census(n_max=4)
        assert not report.passed
        assert report.counterexamples == [
            {"n": 4, "m": 2, "edge_route": 2, "vertex_route": 2},
            {"n": 4, "m": 4, "edge_route": 2, "vertex_route": 2}]


@pytest.fixture
def charpoly_calls(monkeypatch):
    """A private pool memo, and the size of every matrix the pool suites
    hand to charpoly, in call order.  The invariants module's charpoly is
    counted too, so a Berkowitz run for member invariants would show."""
    monkeypatch.setattr(enumeration, "_memo", {})
    calls = []

    def counted(mat):
        calls.append(len(mat))
        return charpoly(mat)

    for module in (verify, invariants):
        monkeypatch.setattr(module, "charpoly", counted)
    return calls


def fresh_json(monkeypatch, suite, n):
    """Timing-free JSON of suite(n) run against an empty memo."""
    memo = enumeration._memo
    monkeypatch.setattr(enumeration, "_memo", {})
    try:
        return suite(n).without_timing().to_json()
    finally:
        monkeypatch.setattr(enumeration, "_memo", memo)


@pytest.fixture
def value_calls(monkeypatch):
    """The vertex count of every graph the pool suites evaluate at x0, in
    call order."""
    calls = []
    value = verify._charpoly_value

    def counted(g, x):
        calls.append(g.n)
        return value(g, x)

    monkeypatch.setattr(verify, "_charpoly_value", counted)
    return calls


@pytest.fixture
def decode_calls(monkeypatch):
    """Every form the enumeration module decodes, in call order."""
    calls = []
    decode = enumeration.graph6_decode
    monkeypatch.setattr(enumeration, "graph6_decode",
                        lambda form: calls.append(form) or decode(form))
    return calls


class TestSharedPoolCharpolys:
    def run_pair(self, value_calls, charpoly_calls, n):
        """Values at x0 and charpolys computed by determination then
        cospectral-structure at n, and the two reports."""
        values, charpolys = len(value_calls), len(charpoly_calls)
        reports = verify_determination(n), verify_cospectral_structure(n)
        return (len(value_calls) - values, len(charpoly_calls) - charpolys), reports

    def assert_as_fresh(self, monkeypatch, reports):
        for report in reports:
            suite = verify.SUITES[report.suite]
            assert report.without_timing().to_json() == fresh_json(
                monkeypatch, suite, report.parameters["n"])

    def test_pair_computes_each_pool_value_once(self, monkeypatch, value_calls,
                                                charpoly_calls, decode_calls):
        made, reports = self.run_pair(value_calls, charpoly_calls, 8)
        # the pool's values once; Berkowitz on each member's own copy in
        # each suite, and none for the member invariants
        assert made == (236, 10 + 10)
        # and the pool is decoded once
        assert len(decode_calls) == len(set(decode_calls)) == 236
        self.assert_as_fresh(monkeypatch, reports)

    def test_clearing_the_memo_ends_the_reuse(self, monkeypatch, value_calls,
                                              charpoly_calls, decode_calls):
        assert self.run_pair(value_calls, charpoly_calls, 8)[0] == (236, 20)
        values, charpolys = len(value_calls), len(charpoly_calls)
        verify_cospectral_structure(8)
        assert len(value_calls) - values == 0
        assert len(charpoly_calls) - charpolys == 10
        assert len(decode_calls) == 236
        enumeration._memo.clear()
        made, reports = self.run_pair(value_calls, charpoly_calls, 8)
        assert made == (236, 20)
        assert len(decode_calls) == 2 * 236
        self.assert_as_fresh(monkeypatch, reports)

    def test_another_pool_is_not_reused(self, monkeypatch, value_calls, charpoly_calls,
                                        decode_calls):
        verify_determination(8)
        values, charpolys = len(value_calls), len(charpoly_calls)
        report = verify_cospectral_structure(9)
        assert value_calls[values:] == [9] * 797
        assert charpoly_calls[charpolys:] == [9] * 13
        assert len(decode_calls) == 236 + 797
        self.assert_as_fresh(monkeypatch, [report])


class TestWarmCache:
    """The benchmark's warm determination workload on n = 6..8: pools filled
    into a cache directory once, then passes that each clear the memo and
    run both pool suites against that directory."""

    SIZES = range(6, 9)
    SUITES = (verify_determination, verify_cospectral_structure)

    def run_pass(self, cache_dir=None) -> list[VerificationReport]:
        enumeration._memo.clear()
        return [suite(n, cache_dir=cache_dir) for n in self.SIZES for suite in self.SUITES]

    def test_passes_read_every_file_and_match_a_run_without_a_cache(self, tmp_path,
                                                                    monkeypatch):
        monkeypatch.setattr(enumeration, "_memo", {})
        for n in self.SIZES:
            enumerate_graphs(EnumerationTask(n, n + 1, connected=True), cache_dir=tmp_path)

        def files():
            return {path.name: (path.read_bytes(), path.stat().st_mtime_ns)
                    for path in tmp_path.iterdir()}

        filled = files()
        assert sorted(filled) == ["n6_m7_conn.g6", "n7_m8_conn.g6", "n8_m9_conn.g6"]
        fresh = [r.without_timing().to_json() for r in self.run_pass()]
        assert files() == filled

        # every file opened for reading under the cache directory, seen the
        # way the benchmark sees it
        reads = []
        real_open = io.open

        def watched(file, mode="r", *args, **kwargs):
            if "r" in mode and isinstance(file, (str, os.PathLike)):
                path = os.fspath(file)
                if os.path.dirname(path) == str(tmp_path):
                    reads.append(os.path.basename(path))
            return real_open(file, mode, *args, **kwargs)

        for _ in range(3):
            reads.clear()
            with monkeypatch.context() as patch:
                patch.setattr(builtins, "open", watched)
                patch.setattr(io, "open", watched)
                reports = self.run_pass(tmp_path)
            assert set(reads) == set(filled)
            assert [r.without_timing().to_json() for r in reports] == fresh
            assert all(r.passed for r in reports)
            assert [(r.counts["members"], r.counts["pool"]) for r in reports] == \
                [(4, 19)] * 2 + [(6, 67)] * 2 + [(10, 236)] * 2
            assert files() == filled


class TestValueFilter:
    @pytest.mark.parametrize("n", range(4, 10))
    def test_pool_values_are_the_charpoly_at_x0(self, n):
        pool, _, values = verify._bicyclic_pool(n, DEFAULT_CAP, None)
        assert values == [charpoly(laplacian(g)).eval(-3) for g in pool]
        assert verify._X0 == -3 and 0 not in values

    @pytest.mark.parametrize("suite", [verify_determination, verify_cospectral_structure])
    def test_berkowitz_alone_decides(self, monkeypatch, charpoly_calls, suite):
        # With every value equal, every pool graph is a candidate of every
        # member: the reports come out the same, from one charpoly per
        # pool graph.
        expected = fresh_json(monkeypatch, suite, 8)
        monkeypatch.setattr(verify, "_charpoly_value", lambda g, x: 0)
        monkeypatch.setattr(IntPoly, "eval", lambda self, x: 0)
        before = len(charpoly_calls)
        report = suite(8)
        assert len(charpoly_calls) - before == 236
        assert report.without_timing().to_json() == expected

    def miss_copy(self, monkeypatch):
        """Raise the value of the (3, 2, 3) dumbbell's own copy in the n = 8
        pool by 1, so no pool graph is a candidate for it; the dumbbell."""
        monkeypatch.setattr(enumeration, "_memo", {})
        member = family_members(8)[0]
        assert member.family == DumbbellParams(3, 2, 3)
        copy = graph6_decode(canonical_form(member))
        value = verify._charpoly_value
        monkeypatch.setattr(verify, "_charpoly_value",
                            lambda g, x: value(g, x) + (g == copy))
        return member

    def test_a_missed_copy_fails_determination(self, monkeypatch):
        member = self.miss_copy(monkeypatch)
        report = verify_determination(8)
        assert not report.passed
        assert report.counterexamples == [{**verify._params_dict(member.family),
                                           "failure": "match count", "mates": []}]

    def test_a_missed_copy_fails_cospectral_structure(self, monkeypatch):
        member = self.miss_copy(monkeypatch)
        report = verify_cospectral_structure(8)
        assert not report.passed
        assert report.counts["cospectral_hits"] == report.counts["members"] - 1
        assert report.counterexamples == [{**verify._params_dict(member.family),
                                           "failure": "member has no cospectral pool graph"}]


class TestReportHygiene:
    def test_deterministic_modulo_timing(self):
        a = verify_generating_identity(r_max=8)
        b = verify_generating_identity(r_max=8)
        assert a.without_timing() == b.without_timing()

    def test_seeded_suites_are_reproducible(self):
        a = verify_invariants_suite(samples=10, n_max=6, seed=7)
        b = verify_invariants_suite(samples=10, n_max=6, seed=7)
        assert a.without_timing() == b.without_timing()

    def test_json_round_trip(self):
        report = verify_theta_table(r_max=2)
        again = VerificationReport.from_json(report.to_json())
        assert again == report

    def test_parameters_recorded(self):
        report = verify_deletion_suite(family_n_max=6, samples=3,
                                       sample_n_max=5, seed=123)
        assert report.parameters["seed"] == 123
        assert report.parameters["samples"] == 3


class TestRunner:
    def test_parameters_bind_positional_and_default_arguments(self):
        report = verify_recurrences(3, k_max=0)
        assert report.parameters == {"path_n_max": 3, "p_max": 8, "k_max": 0,
                                     "r_max": 8}

    def test_cache_dir_is_not_a_parameter(self, tmp_path):
        report = verify_determination(6, cache_dir=tmp_path)
        assert report.parameters == {"n": 6, "cap": DEFAULT_CAP}

    @pytest.mark.parametrize("suite,kwargs", [
        (verify_dumbbell_table, {"p_max": -1}),
        (verify_within_family, {"n_max": -2}),
        (verify_census, {"n_max": 3, "cap": -1}),
        (verify_determination, {"n": -6}),
    ])
    def test_negative_bound_is_refused(self, suite, kwargs):
        name = next(key for key, value in kwargs.items() if value < 0)
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            suite(**kwargs)

    def test_negative_seed_is_a_seed(self):
        assert verify_invariants_suite(samples=3, n_max=5, seed=-7).passed

    @pytest.mark.parametrize("suite,kwargs,name", [
        (verify_deletion_suite, {"samples": 1, "sample_n_max": 1}, "sample_n_max"),
        (verify_deletion_suite, {"samples": 5, "sample_n_max": 0}, "sample_n_max"),
        (verify_invariants_suite, {"samples": 1, "n_max": 1}, "n_max"),
    ])
    def test_sample_bound_below_two_is_refused_before_any_work(self, monkeypatch,
                                                               suite, kwargs, name):
        def no_work(*args, **kwargs):
            raise AssertionError("the suite did work before refusing its bound")

        for work in ("family_members", "random_connected_graph", "charpoly"):
            monkeypatch.setattr(verify, work, no_work)
        with pytest.raises(ValueError, match=f"{name} must be >= 2 when samples > 0"):
            suite(**kwargs)

    def test_sample_bound_below_two_without_samples_is_accepted(self):
        assert verify_deletion_suite(family_n_max=5, samples=0, sample_n_max=1).passed
        assert verify_invariants_suite(samples=0, n_max=0).passed


# Small bounds for every suite; the pool suites run on a private empty memo.
GARBAGE_RUNS = {
    "recurrences": {"path_n_max": 10, "p_max": 4, "k_max": 1, "r_max": 3},
    "special-values": {"n_max": 50},
    "generating-identity": {"r_max": 12},
    "dumbbell-table": {"p_max": 5, "k_max": 1},
    "theta-table": {"r_max": 3},
    "family-values": {"p_max": 5, "k_max": 1, "r_max": 3},
    "deletion-formula": {"family_n_max": 8, "samples": 10},
    "invariants": {"samples": 30, "n_max": 7},
    "within-family": {"n_max": 10},
    "determination": {"n": 7},
    "cospectral-structure": {"n": 7},
    "census": {"n_max": 5},
}


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_suite_leaves_no_cyclic_garbage(monkeypatch, name):
    """A suite's work is freed by reference counting alone: with the cyclic
    collector off, a run leaves nothing for it to collect."""
    monkeypatch.setattr(enumeration, "_memo", {})
    gc.collect()
    gc.disable()
    try:
        assert verify.SUITES[name](**GARBAGE_RUNS[name]).passed
        assert gc.collect() == 0
    finally:
        gc.enable()
