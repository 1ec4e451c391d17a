"""Three-term recurrences for path, dumbbell and theta charpolys.

Everything is driven by two sequences in x:

  phi(P_n)  Laplacian charpoly of the path on n vertices
  phi(U_n)  charpoly of the tridiagonal (2, -1) matrix of order n

with phi(P_0) = 0, phi(P_1) = x, phi(U_0) = 1, phi(U_1) = x - 2 and the
shared recurrence  f(n+1) = (x - 2) f(n) - f(n-1).  Running the recurrence
backwards extends phi(U) to phi(U_-1) = 0 and phi(U_-2) = -1, which lets the
dumbbell and theta formulas below absorb their own boundary cases (k = 0
bridge, length-0 chain) without special-casing.

``_sequence`` walks the recurrence from two seeds in whatever ring x lives
in: the IntPoly ``X``, the Kronecker integer z below, or a plain integer
point.  The interior sequence starts from the backward seeds u(-2) = -1 and
u(-1) = 0, the path sequence from phi(P_0) and phi(P_1).  Each call walks
one sequence as far as it needs and keeps nothing, so no module state grows
with the largest n ever asked; a caller that wants the values at one point
(the special values at x = 4 and x = 2) walks the sequence at that point
and never builds a polynomial.

The dumbbell formula goes through the helper polynomial of the "cycle plus
dangling path" block obtained by deleting the first cycle; the theta formula
goes through the helper obtained by deleting one hub.  Both come from
expanding det(xI - L) along the structure of the graph, and both are checked
against the direct matrix route in the tests rather than trusted.

Each formula is written once, over a ring element x and the values
u(j) = phi(U_j) in that ring, read from one walk of the interior sequence
(``_u_table``).  With x = X it computes IntPolys, which the tests compare
with charpolys of Laplacian submatrices.  ``dumbbell_charpoly_rec`` and
``theta_charpoly_rec`` evaluate the same formulas in the integers at the
Kronecker point x = z = 2^b, and unpack the result into n + 1 balanced
base-2^b digits in [-2^(b-1), 2^(b-1)).  The map x -> 2^b is a ring
homomorphism, so the integer is the value at z of the polynomial the
formula computes, and the unpacking returns that polynomial exactly when
every coefficient is below 2^(b-1) in magnitude and the degree is at most
n (anything left above degree n raises ArithmeticError).

The width b comes from a bound on the formulas as written, not from the
Laplacian spectrum, so a wrong formula cannot alias to the right charpoly.
In the 1-norm |f| (sum of absolute coefficients), |f g| <= |f| |g| and
|U_(j+1)| <= 3 |U_j| + |U_(j-1)|, so |U_j| <= 4^max(j, 0) for j >= -2.
Hence |block(c)| <= 4^c + 2 * 4^(c-2) + 2 <= 2 * 4^c for c >= 3, the
dumbbell helper has |.| <= 3 * 4^(q + max(k, 0)), and a dumbbell on
n = p + k + q vertices gives |.| <= 6 * 4^n + 3 * 4^(n-1) < 8 * 4^n.  The theta
helper has |.| <= 7 * 4^(r+s+t) (negative indices counted as 0), and a theta
on n = r + s + t + 2 vertices gives |.| <= (28 + 21 + 6) * 4^(n-2) < 8 * 4^n.
So every coefficient is below 8 * 4^n = 2^(2n+3), and b = 2n + 8 leaves a
factor of 16 to spare: 2^(b-1) = 2^(2n+7).
"""

from __future__ import annotations

from itertools import islice

from .polynomials import IntPoly, X, kronecker_unpack, substitute_y


def _sequence(x, f0, f1):
    """Yield f0, f1, f2, ... with f(j+1) = (x - 2) f(j) - f(j-1), without
    end, in the ring of x and the seeds."""
    step = x - 2
    while True:
        yield f0
        f0, f1 = f1, step * f1 - f0


def _interior_sequence(x):
    """phi(U_j) at x for j = -2, -1, 0, 1, ...; x - x is the zero of x's
    ring, so the seeds u(-2) = -1 and u(-1) = 0 live in that ring too."""
    zero = x - x
    return _sequence(x, zero - 1, zero)


def _path_sequence(x):
    """phi(P_j) at x for j = 0, 1, 2, ..., from phi(P_0) = 0 and phi(P_1) = x."""
    return _sequence(x, x - x, x)


def _u_table(x, top: int):
    """u(j) = phi(U_j) at x for -2 <= j <= top, from one walk of the
    sequence, as the lookup the family formulas take."""
    values = list(islice(_interior_sequence(x), top + 3))
    return lambda j: values[j + 2]


def u_poly_rec(n: int) -> IntPoly:
    """phi(U_n) for n >= -2 (negative indices by the backward recurrence)."""
    if n < -2:
        raise ValueError("u_poly_rec needs n >= -2")
    return next(islice(_interior_sequence(X), n + 2, None))


def path_charpoly_rec(n: int) -> IntPoly:
    """phi(L(P_n)) for n >= 0; the zero polynomial at n = 0."""
    if n < 0:
        raise ValueError("path_charpoly_rec needs n >= 0")
    return next(islice(_path_sequence(X), n, None))


# The family formulas, over a ring element x and u(j) = phi(U_j) in that
# ring for j >= -2 (see the module docstring).

def _block(x, u, c):
    """(x - 3) phi(U_{c-1}) - 2 phi(U_{c-2}) - 2 (-1)^c: the charpoly of a
    c-cycle carrying one degree-3 attachment vertex, degrees kept."""
    return (x - 3) * u(c - 1) - 2 * u(c - 2) - 2 * (-1) ** c


def _dumbbell_helper(x, u, q, k):
    """Charpoly of the dumbbell Laplacian block left after deleting the
    first cycle: a q-cycle with a dangling path of k vertices, degrees kept.

    Defined for q >= 3 and k >= -1; at k = -1 it degenerates to
    phi(U_{q-1}), which is what ``_dumbbell`` needs for the k = 0 dumbbell."""
    return _block(x, u, q) * u(k) - u(q - 1) * u(k - 1)


def _dumbbell(x, u, p, k, q):
    return _block(x, u, p) * _dumbbell_helper(x, u, q, k) \
        - u(p - 1) * _dumbbell_helper(x, u, q, k - 1)


def _theta_helper(x, u, r, s, t):
    """Charpoly of the theta Laplacian block left after deleting one hub:
    three disjoint paths plus the far hub of degree 3, degrees kept.

    Defined for r, s, t >= -1; a -1 slot collapses that chain into the
    hub-to-hub edge case that ``_theta`` needs."""
    ur, us, ut = u(r), u(s), u(t)
    return (x - 3) * ur * us * ut \
        - u(r - 1) * us * ut \
        - ur * u(s - 1) * ut \
        - ur * us * u(t - 1)


def _theta(x, u, r, s, t):
    return (x - 3) * _theta_helper(x, u, r, s, t) \
        - _theta_helper(x, u, r - 1, s, t) \
        - _theta_helper(x, u, r, s - 1, t) \
        - _theta_helper(x, u, r, s, t - 1) \
        - 2 * (-1) ** (s + t) * u(r) \
        - 2 * (-1) ** (r + t) * u(s) \
        - 2 * (-1) ** (r + s) * u(t)


def _kronecker_bits(n: int) -> int:
    """Digit width b for a formula result of degree n; see the module
    docstring for why every coefficient is below 2^(b-1) in magnitude."""
    return 2 * n + 8


def _at_kronecker_point(n: int, formula, *params: int) -> IntPoly:
    """formula(x, u, *params) as an IntPoly of degree <= n, computed in the
    integers at x = z = 2^b with u from u(j+1) = (z - 2) u(j) - u(j-1).
    The family formulas call u at indices -2..max(params) only."""
    b = _kronecker_bits(n)
    z = 1 << b
    return kronecker_unpack(formula(z, _u_table(z, max(params)), *params), b, n)


def dumbbell_charpoly_rec(p: int, k: int, q: int) -> IntPoly:
    """phi(L(D(p, k, q))) by the recurrence route, evaluated at a Kronecker
    point.

    Accepts any p, q >= 3 and k >= 0; the formula is symmetric in the two
    cycle roles, so no p >= q normalization is imposed here."""
    if min(p, q) < 3 or k < 0:
        raise ValueError(f"invalid dumbbell parameters (p={p}, k={k}, q={q})")
    return _at_kronecker_point(p + k + q, _dumbbell, p, k, q)


def theta_charpoly_rec(r: int, s: int, t: int) -> IntPoly:
    """phi(L(T(r, s, t))) by the recurrence route, evaluated at a Kronecker
    point; r >= s >= t >= 0 with (s, t) != (0, 0)."""
    if not (r >= s >= t >= 0) or (s, t) == (0, 0):
        raise ValueError(f"invalid theta parameters (r={r}, s={s}, t={t})")
    return _at_kronecker_point(r + s + t + 2, _theta, r, s, t)


# ---------------------------------------------------------------------------
# Closed forms for special values.  These are the quantities the uniqueness
# arguments lean on; each is checked against the recurrences in the tests.

def path_value_at4(n: int) -> int:
    """Closed form phi(L(P_n); 4) = 4n."""
    if n < 0:
        raise ValueError("n >= 0 required")
    return 4 * n


def u_value_at4(n: int) -> int:
    """Closed form phi(U_n; 4) = n + 1."""
    if n < 0:
        raise ValueError("n >= 0 required")
    return n + 1


def u_value_at2(n: int) -> int:
    """Closed form phi(U_n; 2): 0 for odd n, (-1)^(n/2) for even n."""
    if n < 0:
        raise ValueError("n >= 0 required")
    if n % 2:
        return 0
    return (-1) ** (n // 2)


def dumbbell_value_at4(p: int, k: int, q: int) -> int:
    """Closed form for phi(L(D(p, k, q)); 4)."""
    if min(p, q) < 3 or k < 0:
        raise ValueError(f"invalid dumbbell parameters (p={p}, k={k}, q={q})")
    sp = 1 - (-1) ** p
    sq = 1 - (-1) ** q
    return (4 * p * q * k
            - 2 * p * (2 * k + 1) * sq
            - 2 * q * (2 * k + 1) * sp
            + 4 * (k + 1) * sp * sq)


def theta_value_at4(r: int, s: int, t: int) -> int:
    """Closed form for phi(L(T(r, s, t)); 4)."""
    if min(r, s, t) < 0 or sorted((r, s, t))[1] == 0:
        raise ValueError(f"invalid theta parameters (r={r}, s={s}, t={t})")
    est = 1 + (-1) ** (s + t)
    ert = 1 + (-1) ** (r + t)
    ers = 1 + (-1) ** (r + s)
    return (4 * r * s * t
            - 2 * r * est - 2 * s * ert - 2 * t * ers
            - 2 * (1 + (-1) ** (s + t) + (-1) ** (r + t) + (-1) ** (r + s)))


def _generating_identity_holds(r: int, u_r: IntPoly) -> bool:
    """Check (y^(r+2) - y^r) * phi(U_r)|_{x=y+2+1/y} == y^(2r+2) - 1, given
    u_r = phi(U_r).

    This is the closed form for phi(U_r) in the substitution variable; it is
    the engine behind the y-side identities for both families.  Both sides
    are compared at the Kronecker point y = z = 2^b, the left one as
    (z^2 - 1) * substitute_y(u_r, r, b).  A u_r of degree above r leaves a
    negative power of y on the left, so the identity fails.  Otherwise the
    difference of the sides is a polynomial of 1-norm at most
    2 * 4^r |u_r| + 2 (see ``substitute_y``), and b makes 2^(b-1) larger than
    4^(r+1) |u_r| + 2: a nonzero polynomial whose coefficients are all below
    2^(b-1) in magnitude is nonzero at 2^b, so equal values mean equal
    polynomials."""
    if u_r.degree > r:
        return False
    b = ((sum(map(abs, u_r.coeffs)) << 2 * r + 2) + 2).bit_length() + 1
    lhs = substitute_y(u_r, r, b)
    return (lhs << 2 * b) - lhs == (1 << b * (2 * r + 2)) - 1
