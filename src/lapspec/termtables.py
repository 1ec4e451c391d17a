"""Parametric Laurent term tables and the y-side identities they tabulate.

For both families the Laplacian charpoly, pushed through x = y + 2 + 1/y and
cleared of denominators, satisfies

    y^n * (y^2 - 1)^3 * phi|_{x=y+2+1/y}  +  f(n; y)  =  (term table sum)

with n the vertex count and f the fixed boundary polynomial below.  The
tables live in data files (one term per line: coefficient, parity form,
exponent form, all affine in the family parameters) and are treated as data
under test: the verifiers compute the left side independently, from the
matrix charpoly, check that the recurrence charpoly equals the matrix one,
and report any exponent where the instantiated table disagrees.  A table
mismatch is reported, never patched.  The matrix charpoly is
``laplacian.laplacian_charpoly``: one elimination of 2^b I - L, its chains
folded into the two hubs, read back as balanced base-2^b digits.  It
shares no code with the recurrences.

Comparing the two charpolys is comparing the two left-hand sides.  The map
phi -> y^n (y^2 - 1)^3 phi|_{x=y+2+1/y} is linear, and it is injective: with
y + 2 + 1/y = (y + 1)^2 / y, a phi = sum_k c_k x^k of degree d <= n goes to
g(y) = y^n phi((y + 1)^2 / y) = sum_k c_k (y + 1)^(2k) y^(n-k), whose top
term c_d y^(n+d) is nonzero when phi is, and (y^2 - 1)^3 is a nonzero
factor.  So the left-hand sides are equal exactly when the charpolys are,
and each audit builds one left-hand side, from the matrix charpoly.

``identity_lhs`` computes that left-hand side as one integer at the
Kronecker point y = z = 2^b: g(z) by ``polynomials.substitute_y`` (Horner's
rule in w = (z + 1)^2), then three multiplications by z^2 - 1 and f(n; z)
added.  Every exponent is in 0..2n+6, and the map y -> 2^b is a ring
homomorphism, so the integer unpacks (``polynomials.kronecker_unpack``) into
the 2n + 7 balanced base-2^b digits in [-2^(b-1), 2^(b-1)) that are the
coefficients, an ``IntPoly`` in y, provided every coefficient is below
2^(b-1) in magnitude.  In the 1-norm |.| (sum of absolute
coefficients), |f g| <= |f| |g|, so |(y + 1)^(2k)| = 4^k <= 4^n gives
|g| <= 4^n |phi|, |(y^2 - 1)^3| = 8 and |f(n; y)| = 28.  Every coefficient
of the left-hand side is thus at most 8 * 4^n * |phi| + 28, and b is read
from the input so that 2^(b-1) exceeds that.

``TermTable.instantiate`` evaluates integer rows compiled once per table,
on first use: per term its coefficient and the constants of its parity and
exponent forms, and per symbol the column of its coefficients in each
form.  The exponents and parities of all terms are the constant columns
plus each symbol's value times its column; a term's sign is (-1)^parity,
read from the parity's low bit, so a negative parity still gives an integer
coefficient.  The result is a dict from exponent to nonzero coefficient, so
a negative exponent in wrong table data is kept, and the audit reports it.

The lowest-exponent term of an instantiated table is what pins down the
family parameters from the spectrum, which is why it gets dedicated
helpers here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

from .graphs import dumbbell_graph, theta_graph
from .laplacian import laplacian_charpoly
from .polynomials import IntPoly, kronecker_unpack, substitute_y
from .recurrences import dumbbell_charpoly_rec, theta_charpoly_rec


@dataclass(frozen=True)
class AffineForm:
    """Integer affine expression  const + sum(coef[sym] * sym)."""

    const: int
    coefs: tuple[tuple[str, int], ...]  # (symbol, coefficient), symbol order fixed

    def evaluate(self, values: dict[str, int]) -> int:
        return self.const + sum(c * values[s] for s, c in self.coefs)

    def __str__(self) -> str:
        parts = []
        for s, c in self.coefs:
            if c:
                parts.append(f"{c:+d}{s}" if abs(c) != 1 else (f"+{s}" if c > 0 else f"-{s}"))
        if self.const or not parts:
            parts.append(f"{self.const:+d}")
        joined = "".join(parts)
        return joined[1:] if joined.startswith("+") else joined


def parse_affine(text: str, symbols: tuple[str, ...]) -> AffineForm:
    expr = text.replace(" ", "")
    if not expr:
        raise ValueError("empty affine form")
    if not expr.startswith(("+", "-")):
        expr = "+" + expr
    const = 0
    coefs = dict.fromkeys(symbols, 0)
    pos = 0
    for m in re.finditer(r"([+-])(\d*)([A-Za-z]?)", expr):
        if m.start() != pos or (not m.group(2) and not m.group(3)):
            raise ValueError(f"cannot parse affine form {text!r}")
        pos = m.end()
        val = int(m.group(2) or 1) * (1 if m.group(1) == "+" else -1)
        sym = m.group(3)
        if sym:
            if sym not in coefs:
                raise ValueError(f"unknown symbol {sym!r} in {text!r}")
            coefs[sym] += val
        else:
            const += val
    if pos != len(expr):
        raise ValueError(f"cannot parse affine form {text!r}")
    return AffineForm(const, tuple((s, coefs[s]) for s in symbols))


@dataclass(frozen=True)
class TableTerm:
    coeff: int
    parity: AffineForm
    exponent: AffineForm


def _columns(forms: list[AffineForm], symbols: tuple[str, ...]) -> tuple:
    """(constants, one coefficient column per symbol) of a list of forms."""
    coefs = [dict(form.coefs) for form in forms]
    return (tuple(form.const for form in forms),
            tuple(tuple(c.get(s, 0) for c in coefs) for s in symbols))


def _evaluate_columns(columns: tuple, values: list[int]) -> list[int]:
    consts, cols = columns
    out = list(consts)
    for col, v in zip(cols, values):
        out = [o + a * v for o, a in zip(out, col)]
    return out


@dataclass(frozen=True)
class TermTable:
    symbols: tuple[str, ...]
    terms: tuple[TableTerm, ...]

    @cached_property
    def _rows(self) -> tuple:
        """Integer rows, compiled on first use: the coefficients, and the
        parity and exponent forms as columns (see the module docstring)."""
        return (tuple(t.coeff for t in self.terms),
                _columns([t.parity for t in self.terms], self.symbols),
                _columns([t.exponent for t in self.terms], self.symbols))

    def instantiate(self, **values: int) -> dict[int, int]:
        """Sum the terms at integer parameter values, as a dict from exponent
        to nonzero coefficient; colliding exponents accumulate, which is how
        parameter coincidences merge terms."""
        if set(values) != set(self.symbols):
            raise ValueError(f"expected values for {self.symbols}, got {sorted(values)}")
        coeffs, parity_columns, exponent_columns = self._rows
        vals = [values[s] for s in self.symbols]
        parities = _evaluate_columns(parity_columns, vals)
        exponents = _evaluate_columns(exponent_columns, vals)
        out: dict[int, int] = {}
        for e, c, p in zip(exponents, coeffs, parities):
            out[e] = out.get(e, 0) + (-c if p & 1 else c)
        return {e: c for e, c in out.items() if c}


def _parse_table(text: str) -> TermTable:
    symbols: tuple[str, ...] | None = None
    terms: list[TableTerm] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("symbols:"):
            symbols = tuple(line.split(":", 1)[1].split())
            continue
        if symbols is None:
            raise ValueError(f"line {lineno}: term before symbols header")
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 3 fields, got {len(fields)}")
        terms.append(TableTerm(
            coeff=int(fields[0]),
            parity=parse_affine(fields[1], symbols),
            exponent=parse_affine(fields[2], symbols),
        ))
    if symbols is None or not terms:
        raise ValueError("empty term table")
    return TermTable(symbols, tuple(terms))


@lru_cache(maxsize=None)
def load_table(name: str) -> TermTable:
    text = resources.files("lapspec.data").joinpath(name).read_text()
    return _parse_table(text)


def dumbbell_table() -> TermTable:
    return load_table("dumbbell_terms.txt")


def theta_table() -> TermTable:
    return load_table("theta_terms.txt")


# f(n; y) = head(y) + y^(2n+2) tail(y).
_CORRECTION_HEAD = IntPoly((1, -2, -3, 4, 4))
_CORRECTION_TAIL = IntPoly((-4, -4, 3, 2, -1))


def _lhs_bits(n: int, norm: int) -> int:
    """Digit width b for the left-hand side of a degree-n charpoly of 1-norm
    norm: 2^(b-1) > 8 * 4^n * norm + 28 (see the module docstring)."""
    return ((norm << (2 * n + 3)) + 28).bit_length() + 1


def identity_lhs(phi: IntPoly, n: int) -> IntPoly:
    """y^n (y^2-1)^3 phi|_{x=y+2+1/y} + f(n; y) for a degree-n charpoly,
    computed at the Kronecker point y = z = 2^b and unpacked, coefficient
    index = exponent of y."""
    if phi.degree != n:
        raise ValueError(f"charpoly degree {phi.degree} does not match n={n}")
    b = _lhs_bits(n, sum(map(abs, phi.coeffs)))
    acc = substitute_y(phi, n, b)
    for _ in range(3):
        acc = (acc << 2 * b) - acc
    z = 1 << b
    acc += _CORRECTION_HEAD.eval(z) + (_CORRECTION_TAIL.eval(z) << b * (2 * n + 2))
    return kronecker_unpack(acc, b, 2 * n + 6)


def _audit(make_graph, recurrence, table: TermTable, **params: int) -> dict:
    """One grid point of a y-side identity, for the family with this layout
    builder, recurrence charpoly and term table.  routes_agree compares the
    matrix charpoly (``laplacian_charpoly``, one elimination at a Kronecker
    point) and the recurrence charpoly, which is comparing their left-hand
    sides (the map between them is injective); the table is compared with
    the one left-hand side built from the matrix charpoly."""
    values = list(params.values())
    g = make_graph(*values)
    phi = laplacian_charpoly(g)
    lhs = identity_lhs(phi, g.n)
    instantiated = table.instantiate(**params)
    diffs = [{"exponent": e, "lhs": lhs.coeff(e), "table": instantiated.get(e, 0)}
             for e in sorted({*instantiated, *range(len(lhs.coeffs))})
             if lhs.coeff(e) != instantiated.get(e, 0)]
    return {
        "routes_agree": phi == recurrence(*values),
        "table_matches": not diffs,
        "diffs": diffs,
        "params": values,
    }


def audit_dumbbell_identity(p: int, k: int, q: int) -> dict:
    """One grid point of the dumbbell y-side identity: compares the matrix
    and recurrence charpolys and the instantiated table with the LHS."""
    return _audit(dumbbell_graph, dumbbell_charpoly_rec, dumbbell_table(), p=p, k=k, q=q)


def audit_theta_identity(r: int, s: int, t: int) -> dict:
    """One grid point of the theta y-side identity, same contract."""
    return _audit(theta_graph, theta_charpoly_rec, theta_table(), r=r, s=s, t=t)


def dumbbell_table_lowest_term(p: int, k: int, q: int) -> tuple[int, int]:
    return min(dumbbell_table().instantiate(p=p, k=k, q=q).items())


def theta_table_lowest_term(r: int, s: int, t: int) -> tuple[int, int]:
    return min(theta_table().instantiate(r=r, s=s, t=t).items())
