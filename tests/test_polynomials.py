import pytest

from lapspec.polynomials import ONE, X, ZERO, IntPoly, kronecker_unpack, substitute_y


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


class TestSubstitution:
    """substitute_y(p, n, b) is y^n p(y + 2 + 1/y) at y = 2^b; ``sub`` reads
    it back as a polynomial in y (written in X) of degree <= 2n."""

    @staticmethod
    def sub(p, n, b=32):
        return kronecker_unpack(substitute_y(p, n, b), b, 2 * n)

    def test_structure(self):
        assert self.sub(X, 1) == IntPoly((1, 2, 1))

    def test_linear(self):
        # x - 2 becomes y + 1/y
        assert self.sub(X - 2, 1) == IntPoly((1, 0, 1))

    def test_square(self):
        got = self.sub((X - 2) * (X - 2), 2)
        assert got == IntPoly((1, 0, 2, 0, 1))

    def test_constant(self):
        assert substitute_y(IntPoly.const(-7), 0, 8) == -7
        assert substitute_y(ZERO, 0, 8) == 0
        assert self.sub(IntPoly.const(-7), 2) == IntPoly((0, 0, -7))

    @pytest.mark.parametrize("coeffs", [(0, 1), (1, -4, 2), (3, 0, 0, 1), (-2, 5, -5, 1, 1)])
    def test_ring_homomorphism(self, coeffs):
        p = IntPoly(coeffs)
        q = IntPoly((2, -1, 1))
        n = max(p.degree, q.degree)
        assert self.sub(p * q, p.degree + q.degree) \
            == self.sub(p, p.degree) * self.sub(q, q.degree)
        assert self.sub(p + q, n) == self.sub(p, n) + self.sub(q, n)

    def test_symmetric_under_inversion(self):
        p = IntPoly((4, -1, 0, 2, 1))
        coeffs = self.sub(p, 4).coeffs
        assert len(coeffs) == 9
        assert coeffs == coeffs[::-1]

    def test_exponent_range(self):
        sub = self.sub(IntPoly((0, 0, 0, 1)), 3)
        assert sub.coeff(0) != 0
        assert sub.degree == 6

    def test_rejects_degree_above_n(self):
        with pytest.raises(ValueError, match="above n"):
            substitute_y(X * X, 1, 8)
