"""Invariants readable off a Laplacian characteristic polynomial.

For phi(L(G); x) = x^n + a_{n-1} x^{n-1} + ... + a_1 x (the constant term of
a Laplacian charpoly is always 0):

    vertices        n   = degree
    edges           m   = -a_{n-1} / 2          (trace = sum of eigenvalues)
    components      c   = multiplicity of the eigenvalue 0
    spanning trees  tau = |a_c| / n  when c = 1 (product of nonzero eigenvalues
                          is n * tau by the matrix-tree theorem)
    sum of squared degrees = a_{n-1}^2 - 2 a_{n-2} - 2m
                          (Newton's identity gives sum(lambda^2), and
                           trace(L^2) = sum d_i^2 + 2m)

These are exactly the quantities that are the same for L-cospectral graphs,
so they drive both the cospectrality decisions and the degree-profile forcing
argument implemented by degree_constraint_solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph
from .laplacian import charpoly, laplacian
from .polynomials import IntPoly


class InvalidCharpolyError(ValueError):
    """The polynomial cannot be the Laplacian charpoly of any graph."""


@dataclass(frozen=True)
class SpectralInvariants:
    vertices: int
    edges: int
    components: int
    spanning_trees: Optional[int]  # None when the graph is disconnected
    degree_square_sum: int


def invariants_from_charpoly(phi: IntPoly) -> SpectralInvariants:
    n = phi.degree
    if n < 1:
        raise InvalidCharpolyError("degree must be at least 1")
    if phi.coeff(n) != 1:
        raise InvalidCharpolyError("Laplacian charpoly must be monic")
    if phi.coeff(0) != 0:
        raise InvalidCharpolyError("Laplacian charpoly must have constant term 0")

    trace = -phi.coeff(n - 1)
    if trace < 0 or trace % 2:
        raise InvalidCharpolyError(f"eigenvalue sum {trace} is not an even nonnegative integer")
    m = trace // 2

    c = 0
    while phi.coeff(c) == 0:
        c += 1

    tau = None
    if c == 1:
        prod = abs(phi.coeff(1))
        tau, rem = divmod(prod, n)
        if rem:
            raise InvalidCharpolyError(
                f"nonzero-eigenvalue product {prod} is not divisible by n={n}")

    degree_square_sum = phi.coeff(n - 1) ** 2 - 2 * phi.coeff(n - 2) - 2 * m
    return SpectralInvariants(n, m, c, tau, degree_square_sum)


def graph_invariants(g: Graph) -> SpectralInvariants:
    """Invariants via the charpoly; the tests cross-check these against
    direct counts on the graph itself."""
    return invariants_from_charpoly(charpoly(laplacian(g)))


def degree_constraint_solver(inv: SpectralInvariants) -> Optional[dict[int, int]]:
    """Degree profile forced by the invariants of a connected graph with
    n + 1 edges and degree square sum 4n + 10, mirroring the counting
    argument: with x_i vertices of degree i,

        sum x_i = n,  sum i x_i = 2(n+1),  sum i^2 x_i = 4n + 10
        =>  sum (i-1)(i-2) x_i = 4

    and since (i-1)(i-2) >= 6 for i >= 4, the only solution in nonnegative
    integers is x_3 = 2, x_i = 0 for i >= 4, then x_1 = 0, x_2 = n - 2.
    That needs n >= 4, since no simple graph on fewer vertices has a
    vertex of degree 3.

    Returns {1: 0, 2: n-2, 3: 2} when forced, None when the invariants do
    not match the premise (which is an answer, not an error)."""
    n = inv.vertices
    if inv.components != 1 or inv.edges != n + 1:
        return None
    if inv.degree_square_sum != 4 * n + 10 or n < 4:
        return None
    return {1: 0, 2: n - 2, 3: 2}
