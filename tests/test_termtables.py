import sys
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lapspec import polynomials, termtables
from lapspec.graphs import dumbbell_graph, theta_graph
from lapspec.laplacian import charpoly, laplacian
from lapspec.polynomials import ONE, ZERO, IntPoly, X
from lapspec.recurrences import dumbbell_charpoly_rec, theta_charpoly_rec
from lapspec.termtables import (AffineForm, _audit, _parse_table, audit_dumbbell_identity,
                                audit_theta_identity, dumbbell_table,
                                dumbbell_table_lowest_term, identity_lhs,
                                parse_affine, theta_table, theta_table_lowest_term)
from lapspec.verify import (_dumbbell_grid, _theta_grid, verify_dumbbell_table,
                            verify_theta_table)

# The grids of the benchmark's dumbbell-table and theta-table suites.
DUMBBELL_GRID = _dumbbell_grid(8, 5)
THETA_GRID = _theta_grid(8)

# Polynomials in y are IntPolys written in X.
_UNIT_CUBE = (X * X - 1) * (X * X - 1) * (X * X - 1)
_W = (X + 1) * (X + 1)


def y_power(k: int, coeff: int = 1) -> IntPoly:
    return IntPoly([0] * k + [coeff])


def terms(p: IntPoly) -> dict[int, int]:
    """A polynomial in y as the exponent -> nonzero coefficient dict that
    ``TermTable.instantiate`` returns."""
    return {e: c for e, c in enumerate(p.coeffs) if c}


def oracle_correction(n: int) -> IntPoly:
    """The fixed boundary polynomial f(n; y) = head(y) + y^(2n+2) tail(y),
    from the two coefficient lists ``identity_lhs`` reads."""
    return termtables._CORRECTION_HEAD + termtables._CORRECTION_TAIL * y_power(2 * n + 2)


def oracle_identity_lhs(phi: IntPoly, n: int) -> IntPoly:
    """The left-hand side from IntPoly products: y^n phi(y + 2 + 1/y) as
    sum_k c_k (y + 1)^(2k) y^(n-k), times (y^2 - 1)^3, plus f(n; y)."""
    shifted, w_k = ZERO, ONE  # w_k = (y + 1)^(2k)
    for k, c in enumerate(phi.coeffs):
        shifted = shifted + c * w_k * y_power(n - k)
        w_k = w_k * _W
    return shifted * _UNIT_CUBE + oracle_correction(n)


class TestParseAffine:
    def test_basic_forms(self):
        form = parse_affine("2r+2t+6", ("r", "s", "t"))
        assert form.evaluate({"r": 1, "s": 9, "t": 2}) == 12
        assert form.const == 6
        assert dict(form.coefs) == {"r": 2, "s": 0, "t": 2}

    def test_bare_and_signed(self):
        assert parse_affine("p", ("p",)).evaluate({"p": 5}) == 5
        assert parse_affine("-p+1", ("p",)).evaluate({"p": 5}) == -4
        assert parse_affine("0", ("p",)).evaluate({"p": 3}) == 0
        assert parse_affine("1+p", ("p",)).evaluate({"p": 2}) == 3

    def test_repeated_symbol_accumulates(self):
        assert parse_affine("p+p", ("p",)).evaluate({"p": 4}) == 8

    def test_rejects_garbage(self):
        for bad in ["", "2*", "p q", "2x", "++1", "3.5"]:
            with pytest.raises(ValueError):
                parse_affine(bad, ("p", "q"))

    def test_str_roundtrip(self):
        form = parse_affine("p+2q+2k+3", ("p", "k", "q"))
        again = parse_affine(str(form), ("p", "k", "q"))
        assert again == form
        assert str(AffineForm(0, (("p", 0),))) == "0"


class TestTables:
    def test_record_counts(self):
        assert len(dumbbell_table().terms) == 60
        assert len(theta_table().terms) == 36

    def test_symbols(self):
        assert dumbbell_table().symbols == ("p", "k", "q")
        assert theta_table().symbols == ("r", "s", "t")

    def test_instantiate_requires_all_symbols(self):
        with pytest.raises(ValueError):
            dumbbell_table().instantiate(p=3, k=0)
        with pytest.raises(ValueError):
            theta_table().instantiate(r=1, s=1, t=1, extra=0)

    def test_instantiation_is_laurent(self):
        poly = dumbbell_table().instantiate(p=3, k=0, q=3)
        assert isinstance(poly, dict)
        assert poly

    def test_negative_parity_gives_an_integer_sign(self):
        # (-1) ** -3 is the float -1.0; the sign comes from the parity's low bit
        poly = _parse_table("symbols: p\n 3 | p-5 | p\n").instantiate(p=2)
        assert poly == {2: -3}
        assert type(poly[2]) is int

    @pytest.mark.parametrize("table, grid", [(dumbbell_table(), DUMBBELL_GRID),
                                             (theta_table(), THETA_GRID)])
    def test_compiled_rows_match_term_by_term_evaluation(self, table, grid):
        for params in grid:
            values = dict(zip(table.symbols, (getattr(params, s) for s in table.symbols)))
            want: dict[int, int] = {}
            for t in table.terms:
                e = t.exponent.evaluate(values)
                want[e] = want.get(e, 0) \
                    + t.coeff * (-1 if t.parity.evaluate(values) % 2 else 1)
            assert table.instantiate(**values) \
                == {e: c for e, c in want.items() if c}, params

    def test_cancelling_terms_and_a_negative_exponent(self):
        table = _parse_table("symbols: p\n"
                             " 4 | p   | p+1\n"   # these two cancel
                             " 4 | p+1 | p+1\n"
                             " 7 | 0   | -p\n"    # wrong data: a negative exponent
                             " 1 | 1   | 2p\n")
        assert table.instantiate(p=3) == {-3: 7, 6: -1}


class TestCorrectionPoly:
    def test_fixed_head_and_tail(self):
        f = oracle_correction(5)
        head = {0: 1, 1: -2, 2: -3, 3: 4, 4: 4}
        tail = {12: -4, 13: -4, 14: 3, 15: 2, 16: -1}
        for e, c in {**head, **tail}.items():
            assert f.coeff(e) == c
        assert f.degree == 2 * 5 + 6

    def test_monotone_support(self):
        assert oracle_correction(9).coeff(10) == 0


class TestIdentityLhs:
    def test_degree_validation(self):
        with pytest.raises(ValueError):
            identity_lhs(dumbbell_charpoly_rec(3, 0, 3), 7)

    def test_dumbbell_lhs_equals_table(self):
        phi = dumbbell_charpoly_rec(3, 1, 4)
        lhs = identity_lhs(phi, 8)
        assert terms(lhs) == dumbbell_table().instantiate(p=4, k=1, q=3)

    def test_theta_lhs_differs_by_known_term(self):
        r, s, t = 2, 2, 1
        phi = theta_charpoly_rec(r, s, t)
        lhs = identity_lhs(phi, r + s + t + 2)
        table = theta_table().instantiate(r=r, s=s, t=t)
        assert table == terms(lhs + y_power(2 * r + 2 * t + 6, 2))


    @pytest.mark.parametrize("grid, graph, rec", [
        (DUMBBELL_GRID, lambda d: dumbbell_graph(d.p, d.k, d.q),
         lambda d: dumbbell_charpoly_rec(d.p, d.k, d.q)),
        (THETA_GRID, lambda h: theta_graph(h.r, h.s, h.t),
         lambda h: theta_charpoly_rec(h.r, h.s, h.t))])
    def test_matches_oracle_on_the_benchmark_grids(self, grid, graph, rec):
        for params in grid:
            g = graph(params)
            for phi in (charpoly(laplacian(g)), rec(params)):
                assert identity_lhs(phi, g.n) == oracle_identity_lhs(phi, g.n), params

    @settings(max_examples=150, deadline=None)
    @example(([0] * 40, 10**40))  # the top digit 2n + 6 is not 0
    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-10**40, 10**40), min_size=n, max_size=n),
        st.integers(-10**40, 10**40).filter(bool))))
    def test_matches_oracle_on_random_polys(self, case):
        low, top = case
        phi = IntPoly([*low, top])
        n = phi.degree
        assert identity_lhs(phi, n) == oracle_identity_lhs(phi, n)


class TestAudits:
    @pytest.mark.parametrize("p,k,q", [(3, 0, 3), (4, 2, 3), (6, 1, 5), (5, 0, 5)])
    def test_dumbbell_exact(self, p, k, q):
        result = audit_dumbbell_identity(p, k, q)
        assert result["routes_agree"]
        assert result["table_matches"]
        assert result["diffs"] == []

    @pytest.mark.parametrize("r,s,t", [(1, 1, 0), (1, 1, 1), (3, 2, 1), (4, 4, 4)])
    def test_theta_single_known_diff(self, r, s, t):
        result = audit_theta_identity(r, s, t)
        assert result["routes_agree"]
        assert not result["table_matches"]
        assert len(result["diffs"]) == 1
        diff = result["diffs"][0]
        assert diff["exponent"] == 2 * r + 2 * t + 6
        assert diff["table"] - diff["lhs"] == 2

    def test_a_negative_exponent_in_the_table_is_a_diff(self):
        # the dumbbell table plus two cancelling terms and one term at y^-p
        text = resources.files("lapspec.data").joinpath("dumbbell_terms.txt").read_text()
        table = _parse_table(text + " 5 | p | p+k\n 5 | p+1 | p+k\n 3 | 0 | -p\n")
        params = {"p": 4, "k": 1, "q": 3}
        assert table.instantiate(**params) == {**dumbbell_table().instantiate(**params), -4: 3}
        result = _audit(dumbbell_graph, dumbbell_charpoly_rec, table, **params)
        assert result["routes_agree"]
        assert not result["table_matches"]
        assert result["diffs"] == [{"exponent": -4, "lhs": 0, "table": 3}]

    def test_diffs_are_listed_by_ascending_exponent(self):
        table = _parse_table("symbols: p k q\n 1 | 0 | -p\n 2 | 0 | 40\n 1 | 0 | -q-p\n")
        diffs = _audit(dumbbell_graph, dumbbell_charpoly_rec, table, p=3, k=0, q=3)["diffs"]
        exponents = [d["exponent"] for d in diffs]
        lhs = identity_lhs(dumbbell_charpoly_rec(3, 0, 3), 6)
        assert exponents == sorted({-6, -3, 40, *terms(lhs)})


def _count_calls(monkeypatch, module, name):
    """Count calls to module.name made from any lapspec module."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("lapspec") \
                and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


class TestTableSuites:
    @pytest.mark.parametrize("suite, kwargs", [(verify_dumbbell_table, {"p_max": 5, "k_max": 2}),
                                               (verify_theta_table, {"r_max": 4})])
    def test_one_lhs_per_tuple_and_no_substitution(self, monkeypatch, suite, kwargs):
        # no substitution besides the one inside each identity_lhs call
        lhs_calls = _count_calls(monkeypatch, termtables, "identity_lhs")
        substitutions = _count_calls(monkeypatch, polynomials, "substitute_y")
        report = suite(**kwargs)
        assert report.passed
        assert len(lhs_calls) == len(substitutions) == report.counts["tuples"] > 0

    @pytest.mark.parametrize("wrong", [lambda rec: lambda *params: X + 1,
                                       lambda rec: lambda *params: rec(*params) + 1],
                             ids=["wrong-degree", "off-by-one"])
    @pytest.mark.parametrize("name, suite, kwargs", [
        ("dumbbell_charpoly_rec", verify_dumbbell_table, {"p_max": 3, "k_max": 0}),
        ("dumbbell_charpoly_rec", verify_dumbbell_table, {"p_max": 4, "k_max": 1}),
        ("theta_charpoly_rec", verify_theta_table, {"r_max": 2})])
    def test_a_wrong_recurrence_fails_every_tuple(self, monkeypatch, name, suite, kwargs, wrong):
        monkeypatch.setattr(termtables, name, wrong(getattr(termtables, name)))
        report = suite(**kwargs)
        assert not report.passed
        assert report.counts["tuples"] > 0
        assert len(report.counterexamples) == report.counts["tuples"]
        assert all(c["failure"] == "computational routes disagree"
                   for c in report.counterexamples)


class TestSmallestExponent:
    def test_frozen_values(self):
        assert dumbbell_table_lowest_term(3, 0, 3) == (3, -4)
        assert theta_table_lowest_term(3, 1, 1) == (4, 2)

    def test_dumbbell_exponent_law(self):
        # the minimal exponent is min(q, 2k+4); on the coincidence line
        # q = 2k+4 the merged coefficient is odd, so it cannot vanish
        for p in range(3, 9):
            for q in range(3, p + 1):
                for k in range(0, 4):
                    exp, coeff = dumbbell_table_lowest_term(p, k, q)
                    assert exp == min(q, 2 * k + 4), (p, k, q)
                    if q == 2 * k + 4:
                        assert coeff % 2 == 1, (p, k, q)

    def test_theta_exponent_law(self):
        # same shape: minimal exponent is min(s+t+2, 2t+4), odd merged
        # coefficient on the coincidence line s = t+2
        for r in range(0, 7):
            for s in range(0, r + 1):
                for t in range(0, s + 1):
                    if (s, t) == (0, 0):
                        continue
                    exp, coeff = theta_table_lowest_term(r, s, t)
                    assert exp == min(s + t + 2, 2 * t + 4), (r, s, t)
                    if s == t + 2:
                        assert coeff % 2 == 1, (r, s, t)
