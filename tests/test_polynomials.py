import pytest

from lapspec.polynomials import ONE, X, ZERO, IntPoly, LaurentPoly, substitute_y


class TestIntPoly:
    def test_trailing_zeros_dropped(self):
        assert IntPoly((1, 2, 0, 0)) == IntPoly((1, 2))
        assert IntPoly((0, 0)) == ZERO

    def test_degree_and_coeff(self):
        p = IntPoly((3, 0, 5))
        assert p.degree == 2
        assert p.coeff(0) == 3
        assert p.coeff(1) == 0
        assert p.coeff(2) == 5
        assert p.coeff(17) == 0
        assert p.coeff(-1) == 0
        assert ZERO.degree == -1

    def test_ring_ops(self):
        assert (X - 1) * (X + 1) == X * X - 1
        assert (X + 2) - (X + 2) == ZERO
        assert -(X - 3) == 3 - X
        assert 2 * (X + 1) == IntPoly((2, 2))
        assert (X + 1) * 0 == ZERO
        assert ONE * (X + 5) == X + 5

    def test_mul_matches_eval(self):
        p = IntPoly((1, -4, 2))
        q = IntPoly((0, 3, 0, 1))
        for v in range(-5, 6):
            assert (p * q).eval(v) == p.eval(v) * q.eval(v)
            assert (p + q).eval(v) == p.eval(v) + q.eval(v)

    def test_eval_horner(self):
        p = IntPoly((7, -3, 0, 2))
        assert p.eval(0) == 7
        assert p.eval(1) == 6
        assert p.eval(-2) == 7 + 6 - 16

    def test_const(self):
        assert IntPoly.const(5) == IntPoly((5,))
        assert IntPoly.const(0) == ZERO

    def test_str_skips_zero_coeffs(self):
        assert str(IntPoly((0, 9, -6, 1))) == "9*x - 6*x^2 + x^3"
        assert str(ZERO) == "0"
        assert str(IntPoly((-1,))) == "-1"
        assert str(X) == "x"

    def test_hashable(self):
        assert len({X + 1, X + 1, X + 2}) == 2


class TestLaurentPoly:
    def test_cancellation(self):
        p = LaurentPoly({2: 1, -1: 3})
        assert not p - p
        assert LaurentPoly({0: 1, 1: -1}) + LaurentPoly({1: 1}) == 1

    def test_int_comparison(self):
        assert LaurentPoly({0: 4}) == 4
        assert LaurentPoly() == 0
        assert LaurentPoly({1: 1}) != 1

    def test_mul_with_negative_exponents(self):
        y = LaurentPoly.monomial(1)
        y_inv = LaurentPoly.monomial(-1)
        assert y * y_inv == 1
        assert (y + y_inv) * (y - y_inv) == LaurentPoly({2: 1, -2: -1})

    def test_shift(self):
        p = LaurentPoly({0: 1, 3: -2})
        assert p * LaurentPoly.monomial(-3) == LaurentPoly({-3: 1, 0: -2})
        assert p * LaurentPoly.monomial(2) * LaurentPoly.monomial(-2) == p

    def test_lowest_term(self):
        p = LaurentPoly({-4: 7, 0: 1, 5: -1})
        assert p.lowest_term() == (-4, 7)
        assert p.lowest_term()[0] == -4
        assert p.items()[-1][0] == 5
        with pytest.raises(ValueError):
            LaurentPoly().lowest_term()

    def test_items_sorted(self):
        p = LaurentPoly({3: 1, -2: 5, 0: -1})
        assert p.items() == [(-2, 5), (0, -1), (3, 1)]


class TestSubstitution:
    def test_structure(self):
        assert substitute_y(X) == LaurentPoly({1: 1, 0: 2, -1: 1})

    def test_linear(self):
        # x - 2 becomes y + 1/y
        assert substitute_y(X - 2) == LaurentPoly({1: 1, -1: 1})

    def test_square(self):
        got = substitute_y((X - 2) * (X - 2))
        assert got == LaurentPoly({2: 1, 0: 2, -2: 1})

    def test_constant(self):
        assert substitute_y(IntPoly.const(-7)) == -7
        assert substitute_y(ZERO) == 0

    @pytest.mark.parametrize("coeffs", [(0, 1), (1, -4, 2), (3, 0, 0, 1), (-2, 5, -5, 1, 1)])
    def test_ring_homomorphism(self, coeffs):
        p = IntPoly(coeffs)
        q = IntPoly((2, -1, 1))
        assert substitute_y(p * q) == substitute_y(p) * substitute_y(q)
        assert substitute_y(p + q) == substitute_y(p) + substitute_y(q)

    def test_symmetric_under_inversion(self):
        p = IntPoly((4, -1, 0, 2, 1))
        sub = substitute_y(p)
        flipped = LaurentPoly((-e, c) for e, c in sub.items())
        assert sub == flipped

    def test_exponent_range(self):
        sub = substitute_y(IntPoly((0, 0, 0, 1)))
        assert sub.lowest_term()[0] == -3
        assert sub.items()[-1][0] == 3
