"""Exact integer polynomial arithmetic.

Two representations are used throughout the package:

  IntPoly      dense univariate polynomial over Z, coefficient index = exponent;
               this is the natural shape for characteristic polynomials in x.
  LaurentPoly  sparse polynomial over Z with integer (possibly negative)
               exponents; this is what the substitution x = y + 2 + 1/y
               produces.

Everything is arbitrary-precision int.  No floats enter any code path here.

``kronecker_unpack`` reads an integer polynomial back from its value at a
Kronecker point x = 2^b, as balanced base-2^b digits.  The recurrences, the
term-table left-hand sides and the second matrix charpoly route are all
computed as one such integer and read back here.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, Mapping, Union


def _render_terms(items, var: str) -> str:
    """Render nonzero (exponent, coefficient) pairs, exponents ascending."""
    parts: list[str] = []
    for exp, coeff in items:
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        if exp == 0:
            body = str(mag)
        else:
            power = var if exp == 1 else f"{var}^{exp}"
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
        return _render_terms(((e, c) for e, c in enumerate(self._coeffs) if c), "x")

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


class LaurentPoly:
    """Sparse polynomial over Z with integer exponents (negatives allowed)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[int, int], Iterable[tuple[int, int]]] = ()):
        acc: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            if coeff:
                acc[exp] = acc.get(exp, 0) + coeff
                if not acc[exp]:
                    del acc[exp]
        self._terms = acc

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls(((exp, coeff),))

    def items(self) -> list[tuple[int, int]]:
        """Nonzero (exponent, coefficient) pairs, exponents ascending."""
        return sorted(self._terms.items())

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == LaurentPoly.monomial(0, other)._terms
        return NotImplemented

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly((e, -c) for e, c in self._terms.items())

    def _combine(self, other: Union["LaurentPoly", int], sign: int) -> "LaurentPoly":
        """self + sign * other; the constructor merges equal exponents."""
        if isinstance(other, int):
            other = LaurentPoly.monomial(0, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly([*self._terms.items(),
                            *((e, sign * c) for e, c in other._terms.items())])

    def __add__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        return self._combine(other, -1)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return LaurentPoly.monomial(0, other) - self

    def __mul__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly((e, other * c) for e, c in self._terms.items())
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return LaurentPoly(out)

    __rmul__ = __mul__

    def lowest_term(self) -> tuple[int, int]:
        """(exponent, coefficient) of the minimal-exponent nonzero term."""
        if not self._terms:
            raise ValueError("zero polynomial has no lowest term")
        e = min(self._terms)
        return e, self._terms[e]

    def __str__(self) -> str:
        return _render_terms(self.items(), "y")

    def __repr__(self) -> str:
        return f"LaurentPoly({self.items()!r})"


def substitute_y(p: IntPoly) -> LaurentPoly:
    """Evaluate p at x = y + 2 + 1/y, exactly, by Horner's rule.

    The result of substituting into a degree-n polynomial has exponents
    in [-n, n] and is symmetric under y -> 1/y, since x is.  Horner runs
    on a dense coefficient list over exponents -h..h; multiplying it by
    y + 2 + 1/y is the stencil new[i] = a[i-1] + 2*a[i] + a[i+1], and one
    LaurentPoly is built at the end.
    """
    coeffs = p.coeffs
    if not coeffs:
        return LaurentPoly()
    acc = [coeffs[-1]]  # exponents -h..h, h = len(acc) // 2
    for c in reversed(coeffs[:-1]):
        pad = [0, 0, *acc, 0, 0]
        acc = [a + 2 * b + d for a, b, d in zip(pad, pad[1:], pad[2:])]
        acc[len(acc) // 2] += c
    h = len(acc) // 2
    return LaurentPoly({i - h: c for i, c in enumerate(acc) if c})
