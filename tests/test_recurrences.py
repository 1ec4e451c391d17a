import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lapspec import recurrences
from lapspec.graphs import dumbbell_graph, make_path, theta_graph
from lapspec.laplacian import charpoly, laplacian, submatrix_deleting, u_matrix
from lapspec.polynomials import IntPoly, X, kronecker_unpack, substitute_y
from lapspec.recurrences import (dumbbell_charpoly_rec, dumbbell_value_at4,
                                 path_charpoly_rec, path_value_at4,
                                 theta_charpoly_rec, theta_value_at4, u_poly_rec,
                                 u_value_at2, u_value_at4)


def submatrix_charpoly(g, delete):
    """Characteristic polynomial of L(g) with the given rows and columns
    removed; the diagonal keeps the degrees in g itself."""
    return charpoly(submatrix_deleting(laplacian(g), delete))


class TestInteriorPolys:
    def test_boundary_values(self):
        assert u_poly_rec(-2) == IntPoly.const(-1)
        assert u_poly_rec(-1) == IntPoly()
        assert u_poly_rec(0) == IntPoly((1,))
        assert u_poly_rec(1) == X - 2
        assert u_poly_rec(2) == (X - 2) * (X - 2) - 1
        with pytest.raises(ValueError):
            u_poly_rec(-3)

    def test_three_term_recurrence(self):
        for n in range(0, 15):
            lhs = u_poly_rec(n + 1)
            assert lhs == (X - 2) * u_poly_rec(n) - u_poly_rec(n - 1)

    @pytest.mark.parametrize("n", range(0, 12))
    def test_matches_matrix_route(self, n):
        assert u_poly_rec(n) == charpoly(u_matrix(n))


class TestNothingCached:
    def test_polynomials_are_freed_after_use(self):
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            assert u_poly_rec(200).degree == path_charpoly_rec(200).degree == 200
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(after - before) < 100_000


class TestPathPolys:
    def test_boundaries(self):
        assert path_charpoly_rec(0) == IntPoly()
        assert path_charpoly_rec(1) == X
        assert path_charpoly_rec(2) == X * (X - 2)
        with pytest.raises(ValueError):
            path_charpoly_rec(-1)

    def test_known_p3(self):
        # L(P3) spectrum is 0, 1, 3
        assert path_charpoly_rec(3) == X * (X - 1) * (X - 3)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_matches_matrix_route(self, n):
        assert path_charpoly_rec(n) == charpoly(laplacian(make_path(n)))

    def test_same_recurrence_as_interior(self):
        for n in range(1, 15):
            lhs = path_charpoly_rec(n + 1)
            assert lhs == (X - 2) * path_charpoly_rec(n) - path_charpoly_rec(n - 1)


class TestValuesAtSpecialPoints:
    @pytest.mark.parametrize("n", range(0, 30))
    def test_at_four_and_two(self, n):
        assert u_poly_rec(n).eval(4) == n + 1 == u_value_at4(n)
        assert path_charpoly_rec(n).eval(4) == 4 * n == path_value_at4(n)
        got = u_poly_rec(n).eval(2)
        assert got == u_value_at2(n)
        if n % 2 == 1:
            assert got == 0
        else:
            assert got == (-1) ** (n // 2)

    @pytest.mark.parametrize("x", [-3, 2, 4, 2 ** 40])
    def test_integer_sequences_agree_with_the_polynomials(self, x):
        # Evaluation at x is a ring homomorphism, so the recurrence run in
        # the integers gives the polynomials' values at x.
        interior = recurrences._interior_sequence(x)
        for n, value in zip(range(-2, 61), interior):
            assert value == u_poly_rec(n).eval(x), n
        for n, value in zip(range(61), recurrences._path_sequence(x)):
            assert value == path_charpoly_rec(n).eval(x), n

    def test_rejects_negative(self):
        for fn in (u_value_at4, u_value_at2, path_value_at4):
            with pytest.raises(ValueError):
                fn(-1)


class TestDumbbells:
    @pytest.mark.parametrize("p,k,q", [(3, 0, 3), (3, 1, 3), (4, 0, 3),
                                       (5, 2, 4), (3, 3, 6), (4, 1, 4)])
    def test_matches_matrix_route(self, p, k, q):
        want = charpoly(laplacian(dumbbell_graph(p, k, q)))
        assert dumbbell_charpoly_rec(p, k, q) == want

    def test_symmetric_in_cycle_order(self):
        assert dumbbell_charpoly_rec(3, 2, 5) == dumbbell_charpoly_rec(5, 2, 3)

    def test_helper_is_cycle_deleted_submatrix(self):
        # deleting one full cycle from the dumbbell leaves the helper block
        p, k, q = 4, 1, 3
        g = dumbbell_graph(p, k, q)
        helper = submatrix_charpoly(g, set(range(p)))
        u = recurrences._u_table(X, max(p, k, q))
        assert recurrences._dumbbell_helper(X, u, q, k) == helper
        # and keeping only the first cycle leaves the cycle block
        assert recurrences._block(X, u, p) == submatrix_charpoly(g, set(range(p, g.n)))

    def test_value_at_four(self):
        for p, k, q in [(3, 0, 3), (4, 2, 3), (6, 0, 5), (5, 5, 3)]:
            assert dumbbell_charpoly_rec(p, k, q).eval(4) == dumbbell_value_at4(p, k, q)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            dumbbell_charpoly_rec(2, 0, 3)
        with pytest.raises(ValueError):
            dumbbell_charpoly_rec(3, -1, 3)
        with pytest.raises(ValueError):
            dumbbell_value_at4(3, 0, 2)


class TestThetas:
    def test_frozen_example(self):
        # the 5-vertex theta with unit chains is complete bipartite 2x3;
        # spectrum 0, 2, 2, 3, 5
        want = X * (X - 2) * (X - 2) * (X - 3) * (X - 5)
        assert theta_charpoly_rec(1, 1, 1) == want
        assert theta_charpoly_rec(1, 1, 1).eval(4) == -16
        assert theta_value_at4(1, 1, 1) == -16

    @pytest.mark.parametrize("r,s,t", [(1, 1, 0), (2, 1, 0), (2, 2, 2),
                                       (3, 1, 1), (4, 3, 0), (5, 2, 1)])
    def test_matches_matrix_route(self, r, s, t):
        want = charpoly(laplacian(theta_graph(r, s, t)))
        assert theta_charpoly_rec(r, s, t) == want

    def test_helper_is_hub_deleted_submatrix(self):
        r, s, t = 3, 2, 1
        g = theta_graph(r, s, t)
        u = recurrences._u_table(X, max(r, s, t))
        assert recurrences._theta_helper(X, u, r, s, t) == submatrix_charpoly(g, {0})

    def test_value_at_four(self):
        for r, s, t in [(1, 1, 0), (3, 2, 1), (4, 4, 4), (5, 1, 0)]:
            assert theta_charpoly_rec(r, s, t).eval(4) == theta_value_at4(r, s, t)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            theta_charpoly_rec(1, 2, 0)  # not normalized
        with pytest.raises(ValueError):
            theta_charpoly_rec(2, 0, 0)  # two empty chains
        with pytest.raises(ValueError):
            theta_value_at4(0, 0, 0)


class TestGeneratingIdentity:
    @pytest.mark.parametrize("r", range(0, 12))
    def test_holds(self, r):
        assert recurrences._generating_identity_holds(r, u_poly_rec(r))

    def test_explicit_form(self):
        # (y^(r+2) - y^r) * sub(U_r) collapses to y^(2r+2) - 1; y^r sub(U_r)
        # is read back from 2^b as a polynomial in y (written in X), whose
        # coefficients are at most 4^r |U_r| <= 16^r in magnitude
        for r in range(6):
            b = 4 * r + 8
            shifted = kronecker_unpack(substitute_y(u_poly_rec(r), r, b), b, 2 * r)
            assert (X * X - 1) * shifted == IntPoly([-1] + [0] * (2 * r + 1) + [1])

    @pytest.mark.parametrize("r", range(0, 21))
    def test_rejects_wrong_interior_charpolys(self, r):
        u_r = u_poly_rec(r)
        for wrong in (u_r + 1, -u_r, u_poly_rec(r - 1)):
            assert not recurrences._generating_identity_holds(r, wrong)

    @pytest.mark.parametrize("r", [1, 5, 20])
    def test_rejects_a_wrong_charpoly_that_agrees_at_a_narrow_point(self, r):
        # y (z x - (z + 1)^2) with x = y + 2 + 1/y is z (y + 1)^2 - (z + 1)^2 y,
        # which vanishes at y = z = 2^w: a check run at width w would pass
        # this wrong u_r
        for w in range(1, 80):
            z = 1 << w
            wrong = u_poly_rec(r) + z * X - (z + 1) ** 2
            assert not recurrences._generating_identity_holds(r, wrong), w

    def test_rejects_a_degree_above_r(self):
        assert not recurrences._generating_identity_holds(2, u_poly_rec(3))


@st.composite
def dumbbells(draw, n_max: int = 40) -> tuple[int, int, int]:
    p = draw(st.integers(3, n_max - 3))
    q = draw(st.integers(3, n_max - p))
    k = draw(st.integers(0, n_max - p - q))
    return p, k, q


@st.composite
def thetas(draw, n_max: int = 40) -> tuple[int, int, int]:
    r = draw(st.integers(1, n_max - 3))
    s = draw(st.integers(1, min(r, n_max - 2 - r)))
    t = draw(st.integers(0, min(s, n_max - 2 - r - s)))
    return r, s, t


def _intpoly_dumbbell(p, k, q):
    return recurrences._dumbbell(X, recurrences._u_table(X, max(p, k, q)), p, k, q)


def _intpoly_theta(r, s, t):
    return recurrences._theta(X, recurrences._u_table(X, max(r, s, t)), r, s, t)


def _norm(poly: IntPoly) -> int:
    return sum(abs(c) for c in poly.coeffs)


class TestKroneckerRoute:
    """The integer evaluation at x = 2^b against the IntPoly evaluation of
    the same formulas."""

    @settings(max_examples=120, deadline=None)
    @given(dumbbells())
    @example((3, 0, 3))
    @example((3, 4, 9))
    @example((9, 0, 3))
    @example((17, 6, 17))
    @example((3, 34, 3))
    def test_dumbbells(self, pkq):
        assert dumbbell_charpoly_rec(*pkq) == _intpoly_dumbbell(*pkq)

    @settings(max_examples=120, deadline=None)
    @given(thetas())
    @example((1, 1, 0))
    @example((37, 1, 0))
    @example((9, 4, 4))
    @example((12, 12, 12))
    @example((20, 18, 0))
    def test_thetas(self, rst):
        assert theta_charpoly_rec(*rst) == _intpoly_theta(*rst)

    def test_norms_stay_below_half_the_digit_base(self):
        # The 1-norm bounds every coefficient; the module docstring derives
        # 8 * 4^n for both families, and b leaves room above it.
        cases = []
        for n in range(6, 41):
            cases += [(n, _intpoly_dumbbell(p, k, q))
                      for p, k, q in [(3, n - 6, 3), (n - 3, 0, 3),
                                      (n // 2, 0, n - n // 2), (4, n - 10, 6)]
                      if min(p, q) >= 3 and k >= 0]
            cases += [(n, _intpoly_theta(r, s, t))
                      for r, s, t in [(n - 3, 1, 0), (n - 4, 1, 1),
                                      (n - 2 - 2 * ((n - 2) // 3), (n - 2) // 3, (n - 2) // 3)]]
        for n, poly in cases:
            assert poly.degree == n
            assert _norm(poly) < 8 * 4 ** n < 2 ** (recurrences._kronecker_bits(n) - 1)

    def test_unpack_round_trips_extreme_digits(self):
        n, b = 3, recurrences._kronecker_bits(3)
        half = 1 << (b - 1)
        poly = IntPoly((half - 1, -half, 0, -half))
        assert kronecker_unpack(poly.eval(1 << b), b, n) == poly

    @pytest.mark.parametrize("top", [1, -1, 5])
    def test_unpack_raises_on_a_digit_above_degree_n(self, top):
        n, b = 4, recurrences._kronecker_bits(4)
        value = IntPoly((1, -2, 3, 0, 1, top)).eval(1 << b)
        with pytest.raises(ArithmeticError):
            kronecker_unpack(value, b, n)

    def test_unpack_raises_on_a_carry_out_of_degree_n(self):
        # 2^(b-1) at degree n is not a balanced digit: it carries upward.
        n, b = 4, recurrences._kronecker_bits(4)
        with pytest.raises(ArithmeticError):
            kronecker_unpack(1 << (b - 1) << (b * n), b, n)
