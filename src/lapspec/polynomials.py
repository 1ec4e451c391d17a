"""Exact integer polynomial arithmetic.

There is one polynomial type, ``IntPoly``: a dense univariate polynomial
over Z, coefficient index = exponent.  It holds the characteristic
polynomials in x and, read back from a Kronecker point, the y-side
polynomials of the substitution x = y + 2 + 1/y, cleared of denominators
by a power of y.

Everything is arbitrary-precision int.  No floats enter any code path here.

``kronecker_unpack`` reads an integer polynomial back from its value at a
Kronecker point x = 2^b, as balanced base-2^b digits.  The recurrences, the
term-table left-hand sides and the second matrix charpoly route are all
computed as one such integer and read back here.  ``substitute_y`` is the
y side's Horner routine: it returns y^n p(y + 2 + 1/y) as its value at
y = 2^b.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, Union


def _render_terms(items) -> str:
    """Render nonzero (exponent, coefficient) pairs, exponents ascending."""
    parts: list[str] = []
    for exp, coeff in items:
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        if exp == 0:
            body = str(mag)
        else:
            power = "x" if exp == 1 else f"x^{exp}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts) if parts else "0"


class IntPoly:
    """Dense polynomial over Z in one variable (conventionally x)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self._coeffs = tuple(c)

    @classmethod
    def const(cls, value: int) -> "IntPoly":
        return cls((value,))

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients, index = exponent, no trailing zeros."""
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def coeff(self, k: int) -> int:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return 0

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == IntPoly.const(other)._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self._coeffs)

    def _combine(self, other: Union["IntPoly", int], sign: int) -> "IntPoly":
        """self + sign * other."""
        if isinstance(other, int):
            other = IntPoly.const(other)
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly(a + sign * b for a, b in
                       zip_longest(self._coeffs, other._coeffs, fillvalue=0))

    def __add__(self, other: Union["IntPoly", int]) -> "IntPoly":
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other: Union["IntPoly", int]) -> "IntPoly":
        return self._combine(other, -1)

    def __rsub__(self, other: int) -> "IntPoly":
        return IntPoly.const(other) - self

    def __mul__(self, other: Union["IntPoly", int]) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(other * c for c in self._coeffs)
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def eval(self, value: int) -> int:
        """Evaluate at an integer by Horner's rule."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * value + c
        return acc

    def __str__(self) -> str:
        return _render_terms(((e, c) for e, c in enumerate(self._coeffs) if c))

    def __repr__(self) -> str:
        return f"IntPoly({list(self._coeffs)!r})"


ZERO = IntPoly()
ONE = IntPoly((1,))
X = IntPoly((0, 1))


def kronecker_unpack(value: int, b: int, n: int) -> IntPoly:
    """The polynomial of degree <= n whose value at x = 2^b is value, read
    as n + 1 balanced base-2^b digits in [-2^(b-1), 2^(b-1)).  Raises
    ArithmeticError if anything is left above degree n."""
    half = 1 << (b - 1)
    mask = (1 << b) - 1
    coeffs = []
    for _ in range(n + 1):
        digit = value & mask
        if digit >= half:
            digit -= 1 << b
        coeffs.append(digit)
        value = (value - digit) >> b
    if value:
        raise ArithmeticError(f"value has digits above degree {n} at base 2^{b}")
    return IntPoly(coeffs)


def substitute_y(p: IntPoly, n: int, b: int) -> int:
    """The value at y = 2^b of y^n p(y + 2 + 1/y), for p of degree <= n.

    With y + 2 + 1/y = (y + 1)^2 / y this is sum_k c_k (y + 1)^(2k) y^(n-k),
    a polynomial in y.  Horner's rule in w = (y + 1)^2 runs from the top
    coefficient down, acc -> acc w + c_j y^(n-j), each product by w as three
    shifted copies of acc.  ``kronecker_unpack`` reads the coefficients back
    when b is wide enough for them; the callers bound b from the 1-norm,
    |(y + 1)^(2k)| = 4^k giving a 1-norm of at most 4^n |p|."""
    coeffs = p.coeffs
    if len(coeffs) > n + 1:
        raise ValueError(f"degree {p.degree} is above n={n}")
    acc = 0
    for j in range(len(coeffs) - 1, -1, -1):
        acc = (acc << 2 * b) + (acc << b + 1) + acc + (coeffs[j] << b * (n - j))
    return acc
