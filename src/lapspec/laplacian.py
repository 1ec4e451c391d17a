"""Laplacian matrices and exact characteristic polynomials.

The reference characteristic polynomial is computed by the Berkowitz method,
which is division-free: every intermediate quantity is an integer, so the
result is exact by construction.  Its Toeplitz entries meet in the middle
and its polynomial products are integer products at a Kronecker point
(derived below).  The run works up through the trailing
principal submatrices, and its step k is exactly the run on the trailing
k x k block, so ``trailing_charpolys`` returns the charpolys of all of
those blocks from the one run that gives the whole matrix's (the
recurrences suite takes the charpolys of every interior matrix
``u_matrix(k)``, k <= n, from the run on ``u_matrix(n)``).  A second,
independent route (``charpoly_interpolated``) takes one Bareiss determinant
of 2^b I - M and reads the coefficients off it as n + 1 balanced base-2^b
digits (``polynomials.kronecker_unpack``); it exists only to cross-check
the first and is never used as the reference.  For a graph,
``laplacian_charpoly`` takes that route with a cheaper determinant (see
``_charpoly_value`` below).  Both, and the Bareiss
determinant, refuse a matrix that is not square, and both raise
ArithmeticError on an entry that is not an int: the width below is only
derived for integers.

Both routes' width comes from the Gershgorin bound.  Every complex
eigenvalue of M lies within R of the origin, R the largest absolute row
sum (2 Delta for a Laplacian of maximum degree Delta).  The coefficient of
x^(n-k) in det(xI - M) = prod (x - lambda_i) is, up to sign, the k-th
elementary symmetric function of the eigenvalues, at most C(n, k) R^k in
magnitude, so the charpoly's 1-norm (sum of absolute coefficients) is at
most (1 + R)^n.  With b = bit_length((1 + R)^n) + 2, 2^(b-1) > 2 (1 + R)^n
exceeds every coefficient in magnitude.  The map x -> 2^b is a ring
homomorphism, so the determinant is the charpoly's value at 2^b, and a
polynomial of degree n with every coefficient in [-2^(b-1), 2^(b-1)) is
the one reading of that value as n + 1 balanced base-2^b digits.

Step i of the Berkowitz run (i = n-1 down to 0) takes the trailing m x m
block [[a, R], [C, A]], m = n - i, and needs its Toeplitz entries R A^k C
for k = 0..m-2.  While that block is symmetric (row j's right part equals
column j's lower part for every j >= i; true for every Laplacian, for
``u_matrix`` and for their principal submatrices), R = C^T and A^T = A, so
for any 0 <= a <= k

    R A^k C = C^T (A^a)^T A^(k-a) C = (A^a C) . (A^(k-a) C) = w_a . w_(k-a)

with w_j = A^j C.  Meeting in the middle, a = k // 2, the largest index
read is k - k // 2 <= ceil((m-2)/2), so a step makes floor((m-1)/2)
products A w instead of the chain's m - 2, and each entry is one dot
product.  A block that is not symmetric leaves every larger block not
symmetric, so from the first such step on the run takes a = 0 and the
entry R . w_k: the plain chain.

Each step's result is det(xI - B) for a trailing m x m block B.  B is a
principal submatrix of M, so its absolute row sums are at most R, and by
the argument above its coefficients are below (1 + R)^m <= (1 + R)^n <
2^(b-2) in magnitude, with M's own b.  The run keeps det(xI - B) packed as
one integer P = sum c_t z^t, z = 2^b, c_t the coefficient of x^(m-t):
leading first, so the leading 1 is the digit at z^0.  With the Toeplitz
column packed as T = 1 - a z - sum over k of (R A^k C) z^(k+2), the
Berkowitz step's new coefficients c'_0..c'_m are those of z^0..z^m in the
polynomial product T(z) P(z); the ones above z^m are dropped.  The
integer T P is that product's value, and the part above z^m is a multiple
of z^(m+1), so T P = L mod z^(m+1) with L = sum over t <= m of c'_t z^t.
Since |c'_t| < 2^(b-2), |L| < 2^(b-2) * 2 z^m = z^(m+1) / 2, so L is the
balanced residue of T P modulo z^(m+1), one integer product and one mask,
and its m + 1 balanced digits are the new coefficients.  The entries of T
need no bound: they are never read as digits.  ``kronecker_unpack`` reads
P once at the end (after every step for ``trailing_charpolys``).  It
returns the digits as an ``IntPoly`` in z, whose top digit is the
constant term, 0 for a Laplacian; an ``IntPoly`` drops zero top
coefficients, so the digits are padded back to m + 1.

The value det(xI - M) at one integer x (``_charpoly_at``, one Bareiss
elimination) is that route's evaluation step.  For a graph's
Laplacian, ``_charpoly_value`` takes the same value with less work: it peels
the hung trees leaves first, a Schur complement kept in one integer pair per
vertex, and is left with the 2-core (for a connected (n, n+1) graph a theta,
a dumbbell or a figure-eight).  The core's vertices of degree 2 form chains
between its hubs, and each chain is eliminated by a product of 2 x 2
integer transfer matrices [[P, -Q], [Q, 0]], one per chain vertex, whose
first column holds the chain's continuant (the determinant of its
tridiagonal block) and whose other entries give the chain's Schur terms on
its end hubs.  What is left is the hub matrix, 2 x 2 for a theta or a
dumbbell and 1 x 1 for a figure-eight, kept multiplied by the product of
the continuants, and the value is its determinant divided exactly by that
product (once for two hubs, never for one).  Where this does not reduce
the core (no hub or more than two, a core vertex on no chain between hubs,
or a continuant that is 0 at x), it gives up and returns ``_charpoly_at``
of the whole Laplacian, the Bareiss elimination that is also its test
oracle.  Three kinds of suite use it.  The pool suites in ``verify`` take it
at x0 = -3 to find the few pool graphs whose charpoly can equal a member's
before running Berkowitz on them; no pool graph makes it give up there.
At x = 2^b, with the Gershgorin width b above, it is a charpoly route:
``laplacian_charpoly`` reads det(xI - L) off that one value as balanced
digits, the interpolation route of ``charpoly_interpolated`` with a
cheaper determinant.  It is the matrix route of the recurrences suite
(paths, dumbbells, thetas) and of both term-table audits, where it never
gives up: 2^b exceeds every eigenvalue, so 2^b I - L is positive definite
and no continuant is 0, and every graph there has at most two hubs.  The
deletion check below takes it as phi(L)(z) at its own width, where a graph
with more than two hubs (K4, many sampled graphs) falls back to Bareiss.
Bareiss skips the products of rows that are zero in the pivot column, so
sparse matrices cost less.

Also here: principal submatrices (vertex-deleted Laplacians keep the
degrees of the original graph), the tridiagonal matrix family behind the
path recurrences, the matrix-tree spanning tree count, and an executable
check of the vertex deletion expansion of phi(L(G)) at every vertex of a
graph at once.

The deletion check is one exact integer identity per vertex at the
Kronecker point x = z = 2^b.  With M = zI - L, every phi(L_S)(z) is the
principal minor det M_S of M with the rows and columns of S deleted.
``_adjugate`` builds det M and adj M by bordering, one vertex at a time:
with A and d the adjugate and determinant of the leading k x k block and
(r, c) the new row, v = A r, d' = c d - r . v and the next adjugate is
[[(d' A + v v^T) / d, -v], [-v^T, d]].  Each division is exact, since its
quotient is an entry of that integer adjugate, and M is symmetric, so one
triangle of about n^3 / 6 entry updates is all the work.  Then
phi(L_u)(z) = adj_uu, and by Jacobi's identity
phi(L_uv)(z) = (adj_uu adj_vv - adj_uv adj_vu) / det M, an exact division
(a remainder fails the vertex; it is never floored).  Each distinct cycle
vertex set Z gets one Bareiss determinant of M_Z.  phi(L)(z) itself is
``_charpoly_value(g, z)``, hung trees peeled and chains folded into at most
two hubs, or one Bareiss elimination of M beyond two hubs; it shares no code
with the bordering, and it must equal det M.

The width b comes from the spectrum.  L is positive semidefinite with
largest eigenvalue at most 2 Delta (Delta the maximum degree), and every
principal submatrix L_S has its eigenvalues in [0, 2 Delta] by interlacing.
So phi(L_S) = prod (x - lambda_i) has 1-norm (sum of absolute
coefficients) prod (1 + lambda_i) <= (1 + 2 Delta)^(n - |S|).  At a vertex
u on c_u cycles, phi(L) minus the right-hand side has 1-norm at most
(1 + 2 Delta)^n + (1 + Delta)(1 + 2 Delta)^(n-1)
+ Delta (1 + 2 Delta)^(n-2) + 2 c_u (1 + 2 Delta)^(n-3), which is below
(3 + 2c)(1 + 2 Delta)^n for c the largest number of cycles through one
vertex.  b is chosen with 2^b above that bound.  A nonzero integer
polynomial f of degree d with 1-norm below z has
|f(z)| >= z^d - (|f| - 1) z^(d-1) > 0, so the difference is zero exactly
when its value at z is.  z > 2 Delta also makes M positive definite: its
leading principal minors, the bordering's divisors, are all positive, so
none is 0."""

from __future__ import annotations

from itertools import chain, repeat, zip_longest
from operator import add, mul
from typing import Iterable

from .graphs import Graph
from .polynomials import IntPoly, kronecker_unpack

IntMatrix = list[list[int]]


def laplacian(g: Graph) -> IntMatrix:
    """L = D - A as a dense integer matrix."""
    mat = [[0] * g.n for _ in range(g.n)]
    for i, j in g.edges:
        mat[i][j] = mat[j][i] = -1
        mat[i][i] += 1
        mat[j][j] += 1
    return mat


def u_matrix(n: int) -> IntMatrix:
    """Tridiagonal n x n matrix with 2 on the diagonal and -1 off it: the
    principal submatrix of the Laplacian of a path on n + 2 vertices with
    both endpoints deleted."""
    if n < 0:
        raise ValueError("u_matrix needs n >= 0")
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = 2
        if i + 1 < n:
            mat[i][i + 1] = mat[i + 1][i] = -1
    return mat


def _require_square(mat: IntMatrix) -> int:
    """The order of mat; ValueError unless every row has len(mat) entries."""
    n = len(mat)
    for i, row in enumerate(mat):
        if len(row) != n:
            raise ValueError(f"matrix is not square: row {i} has {len(row)} "
                             f"entries, expected {n}")
    return n


def _kronecker_bits(mat: IntMatrix) -> tuple[int, int]:
    """(n, b): the order n of M and the Kronecker width
    b = bit_length((1 + R)^n) + 2, R the largest absolute row sum (see the
    module docstring).  Raises ValueError unless M is square, and
    ArithmeticError unless every entry is an int."""
    n = _require_square(mat)
    if not all(map(isinstance, chain.from_iterable(mat), repeat(int))):
        raise ArithmeticError("exact charpolys need integer entries")
    radius = max((sum(map(abs, row)) for row in mat), default=0)
    return n, ((1 + radius) ** n).bit_length() + 2


def _leading_first(packed: int, b: int, m: int) -> list[int]:
    """The m + 1 balanced base-2^b digits of packed, lowest first: the
    coefficients of a degree-m charpoly, leading first."""
    digits = kronecker_unpack(packed, b, m).coeffs
    return [*digits, *[0] * (m + 1 - len(digits))]


def _berkowitz(mat: IntMatrix,
               trail: list[list[int]] | None = None) -> list[int]:
    """det(xI - M) by the Berkowitz method, as coefficients leading first.
    Its step k gives det(xI - B) of the trailing principal k x k submatrix B
    of M; if trail is a list, the result of every step k = 0..n is appended
    to it.

    Works bottom-up over trailing principal submatrices [[a, R], [C, A]] of
    M, i = n-1 down to 0.  Each step multiplies the coefficients by the
    Toeplitz column 1, -a, -R C, -R A C, ..., -R A^(m-2) C of its m x m
    submatrix.  Entry k is w_a . w_(k-a) with w_j = A^j C and a = k // 2
    while the trailing submatrix is symmetric, and R . w_k (a = 0) from the
    first step where it is not (see the module docstring).

    A is kept as per-column lists of its nonzero (row, value) entries,
    indexed by absolute row and column; going from i to i - 1 it grows by
    one row (appended to the columns it touches) and one column, and is
    never rebuilt.  The product A w is a scatter: each nonzero w[j] adds
    w[j] times the entries of column j into the result, so zeros of both
    the matrix and the vector cost nothing.  Each w_j stops after the last
    row it can reach: C after its last nonzero, A w after len(w) + band
    rows, band the most rows a column of A reaches below its diagonal.  A
    dot product stops with its shorter vector, so on banded matrices (paths,
    ``u_matrix``, family Laplacians, whose labels follow their chains) the
    zeros below the reach cost nothing either.

    The coefficients stay packed in one integer, leading coefficient at
    z^0 with z = 2^b and b from ``_kronecker_bits``: the Toeplitz product
    is one integer product, cut to its low m + 1 balanced digits.  Raises
    ValueError unless M is square, and ArithmeticError unless every entry
    is an int.
    """
    n, b = _kronecker_bits(mat)
    packed = 1
    if trail is not None:
        trail.append([1])
    transposed = list(map(list, zip(*mat)))
    cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    band = 0
    symmetric = True
    for i in range(n - 1, -1, -1):
        m = n - i
        top = mat[i]
        row = top[i + 1:]  # R
        col = transposed[i]
        symmetric = symmetric and row == col[i + 1:]
        entries = cols[i] = [(r, v) for r, v in enumerate(col[i:], i) if v]
        below = entries[-1][0] - i if entries else 0
        ws = [col[i + 1:i + 1 + below]]  # w_j = A^j C, up to the last index read
        for _ in range((m - 1) // 2 if symmetric else m - 2):
            w = ws[-1]
            nxt = [0] * min(n, i + 1 + len(w) + band)
            for j, vj in enumerate(w, i + 1):
                if vj:
                    for r, val in cols[j]:
                        nxt[r] += val * vj
            ws.append(nxt[i + 1:])
        band = max(band, below)
        toeplitz = 0  # 1 - a z - sum over k of (R A^k C) z^(k+2), by Horner
        for k in range(m - 2, -1, -1):
            a = k // 2 if symmetric else 0
            toeplitz = (toeplitz << b) - sum(map(mul, ws[a] if symmetric else row, ws[k - a]))
        toeplitz = (((toeplitz << b) - top[i]) << b) + 1
        # Row i joins A for the next, larger submatrix; column i joined above.
        for j, val in enumerate(row, i + 1):
            if val:
                cols[j].append((i, val))
        half = 1 << b * (m + 1) - 1  # the low m + 1 digits, balanced
        packed = ((toeplitz * packed + half) & (2 * half - 1)) - half
        if trail is not None:
            trail.append(_leading_first(packed, b, m))
    return _leading_first(packed, b, n)


def charpoly(mat: IntMatrix) -> IntPoly:
    """det(xI - M) by the Berkowitz method (division-free, exact; see
    ``_berkowitz``).  Raises ValueError unless M is square, and
    ArithmeticError unless every entry is an int."""
    return IntPoly(reversed(_berkowitz(mat)))


def trailing_charpolys(mat: IntMatrix) -> list[IntPoly]:
    """det(xI - B) for the trailing principal k x k submatrix B of M, for
    k = 0..n, from one Berkowitz run: its step k is exactly the run on B.
    Raises ValueError unless M is square, and ArithmeticError unless every
    entry is an int."""
    trail: list[list[int]] = []
    _berkowitz(mat, trail)
    return [IntPoly(reversed(poly)) for poly in trail]


def det_bareiss(mat: IntMatrix) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination.
    Raises ValueError unless M is square."""
    n = _require_square(mat)
    if n == 0:
        return 1
    a = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k]
        akk = pivot[k]
        rest = range(k + 1, n)
        for i in rest:
            row = a[i]
            aik = row[k]
            if aik:
                for j in rest:
                    row[j] = (row[j] * akk - aik * pivot[j]) // prev
            else:  # a sparse row is only rescaled
                for j in rest:
                    row[j] = row[j] * akk // prev
            row[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


def _shifted(mat: IntMatrix, x: int) -> IntMatrix:
    """xI - M."""
    return [[(x if i == j else 0) - v for j, v in enumerate(row)]
            for i, row in enumerate(mat)]


def _charpoly_at(mat: IntMatrix, x: int) -> int:
    """det(xI - M) at an integer x, exactly, by Bareiss elimination."""
    return det_bareiss(_shifted(mat, x))


def _charpoly_value(g: Graph, x: int) -> int:
    """det(xI - L(g)) at an integer x, exactly: hung trees peeled leaves
    first, then the 2-core's chains folded into their end hubs.

    Each vertex v carries a pair (P_v, Q_v), starting at (x - deg v, 1); its
    row of the matrix still to be eliminated is Q_v times row v of the Schur
    complement, so P_v sits on the diagonal and Q_v at each neighbour.
    Absorbing a leaf v into its neighbour u sets (P_u, Q_u) to
    (P_u P_v - Q_u Q_v, Q_u P_v).  A tree root left with degree 0 gives the
    factor P_u, and what is left with degree >= 2 is the 2-core, whose matrix
    M has determinant det(xI - L) divided by those factors.

    The core's hubs are its vertices of degree >= 3, and every other core
    vertex lies on one chain of degree-2 vertices v_1..v_k from a hub a to
    a hub b (b = a for a cycle through a).  The product of the transfer
    matrices [[P, -Q], [Q, 0]] of v_1..v_k is
    [[K, -Q_1 K'], [Q_k K'', *]], with K the chain's continuant (the
    determinant of its tridiagonal block of M) and K', K'' those of
    v_2..v_k and v_1..v_(k-1).  With S the product of the -Q_i,
    eliminating the chain adds -Q_a Q_1 K' / K at (a, a), -Q_b Q_k K'' / K
    at (b, b), Q_a S / K at (a, b) and Q_b S / K at (b, a) of the hub
    matrix, all four at (a, a) when b = a.  The hub matrix is kept
    multiplied by the product G of the continuants, so it stays integral,
    and with h hubs det M = det(hub matrix) / G^(h - 1), an exact division
    (a remainder raises ArithmeticError).  Each step is a ring operation in
    x, so the value is exact for every x, also where a peeled P_v is 0.

    One rule gives up: where this does not reduce the core (no hub, more
    than two, a core vertex on no chain between hubs, or a continuant that
    is 0 at x), the value is ``_charpoly_at`` of the whole Laplacian, one
    Bareiss elimination of xI - L."""
    n = g.n
    deg = [0] * n
    link = [0] * n  # XOR of the neighbours still attached
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
        link[i] ^= j
        link[j] ^= i
    p = [x - d for d in deg]
    q = [1] * n
    value = x ** deg.count(0)
    leaves = [v for v, d in enumerate(deg) if d == 1]
    for v in leaves:  # grows as vertices become leaves
        if deg[v] != 1:  # the last vertex of its tree, already a root
            continue
        deg[v] = 0
        u = link[v]
        link[u] ^= v
        p[u], q[u] = p[u] * p[v] - q[u] * q[v], q[u] * p[v]
        deg[u] -= 1
        if deg[u] == 1:
            leaves.append(u)
        elif deg[u] == 0:
            value *= p[u]
    size = n - deg.count(0)  # of the core
    if not size:
        return value
    hubs = [v for v, d in enumerate(deg) if d > 2]
    if not 0 < len(hubs) <= 2:
        return _charpoly_at(laplacian(g), x)
    index = [0] * n
    hub = [[0] * len(hubs) for _ in hubs]
    for k, v in enumerate(hubs):
        index[v] = k
        hub[k][k] = p[v]
    starts = []
    for i, j in g.edges:
        if deg[i] > 2:
            if deg[j] > 2:
                hub[index[i]][index[j]] = q[i]
                hub[index[j]][index[i]] = q[j]
            elif deg[j]:
                starts.append((i, j))
        elif deg[i] and deg[j] > 2:
            starts.append((j, i))
    product = 1  # of the continuants
    seen = 0  # the chain vertices walked
    covered = len(hubs)
    for a, v in starts:
        if seen >> v & 1:
            continue  # walked from its other end
        # (k, c) and (e, f), the columns of the transfer product, end at
        # k = K, c = Q_k K'' and e = -Q_1 K'; signs ends at S
        k, c, e, f, signs = 1, 0, 0, 1, 1
        prev = a
        while deg[v] == 2:
            seen |= 1 << v
            pv, qv = p[v], q[v]
            k, c = pv * k - qv * c, qv * k
            e, f = pv * e - qv * f, qv * e
            signs *= -qv
            prev, v = v, link[v] ^ prev
            covered += 1
        if k == 0:
            return _charpoly_at(laplacian(g), x)
        # hub is G times the Schur complement so far; the chain's terms
        # over k become terms times the old G when hub is scaled by k.
        hub = [[k * entry for entry in row] for row in hub]
        i, j = index[a], index[v]
        qa, qb = q[a] * product, q[v] * product
        product *= k
        if i == j:
            hub[i][i] -= qa * (c - e - 2 * signs)
        else:
            hub[i][i] += qa * e
            hub[j][j] -= qb * c
            hub[i][j] += qa * signs
            hub[j][i] += qb * signs
    if covered != size:
        return _charpoly_at(laplacian(g), x)
    if len(hubs) == 1:
        return value * hub[0][0]
    det, remainder = divmod(hub[0][0] * hub[1][1] - hub[0][1] * hub[1][0], product)
    if remainder:
        raise ArithmeticError("the hub determinant is not a multiple of the continuants")
    return value * det


def charpoly_interpolated(mat: IntMatrix) -> IntPoly:
    """det(xI - M) read off one Bareiss determinant at the Kronecker point
    x = 2^b, with b from the Gershgorin bound (see the module docstring).

    Independent of the Berkowitz route; used as a cross-check oracle.
    Raises ValueError unless M is square, and ArithmeticError unless every
    entry is an int."""
    n, b = _kronecker_bits(mat)
    return kronecker_unpack(_charpoly_at(mat, 1 << b), b, n)


def laplacian_charpoly(g: Graph) -> IntPoly:
    """det(xI - L(g)) read off ``_charpoly_value`` at the Kronecker point
    x = 2^b: the interpolation route of ``charpoly_interpolated`` for a
    graph, at the same width b = bit_length((1 + 2 Delta)^n) + 2 (2 Delta
    is L's largest absolute row sum, read from the degrees without building
    L).  The value is exact at every integer x and falls back to one
    Bareiss elimination only where it cannot fold the core into one or two
    hubs."""
    b = ((1 + 2 * max(g.degree_sequence(), default=0)) ** g.n).bit_length() + 2
    return kronecker_unpack(_charpoly_value(g, 1 << b), b, g.n)


def submatrix_deleting(mat: IntMatrix, delete: Iterable[int]) -> IntMatrix:
    drop = set(delete)
    keep = [i for i in range(len(mat)) if i not in drop]
    return [[mat[i][j] for j in keep] for i in keep]


def spanning_tree_count(g: Graph) -> int:
    """Matrix-tree theorem: any cofactor of the Laplacian."""
    if g.n == 0:
        raise ValueError("spanning trees undefined for the empty graph")
    return det_bareiss(submatrix_deleting(laplacian(g), {0}))


def _extend_cycles(adj: list[set[int]], lowest: int, path: list[int],
                   on_path: set[int], cycles: list[tuple[int, ...]]) -> None:
    """Append to cycles every simple cycle that extends path, which starts
    at u = path[0] and holds the vertices of on_path, through vertices
    >= lowest, with second vertex < last vertex."""
    u = path[0]
    for w in adj[path[-1]]:
        if w == u:
            if len(path) >= 3 and path[1] < path[-1]:
                cycles.append(tuple(path))
        elif w >= lowest and w not in on_path:
            path.append(w)
            on_path.add(w)
            _extend_cycles(adj, lowest, path, on_path, cycles)
            on_path.discard(w)
            path.pop()


def _cycles_from(adj: list[set[int]], u: int, lowest: int) -> list[tuple[int, ...]]:
    """Simple cycles through u on vertices >= lowest, each listed once as a
    vertex tuple starting at u; orientation is fixed by second vertex < last
    vertex."""
    cycles: list[tuple[int, ...]] = []
    _extend_cycles(adj, lowest, [u], {u}, cycles)
    return cycles


def _adjugate(mat: IntMatrix) -> tuple[int, IntMatrix]:
    """(det M, adj M) of a symmetric M by bordering, in vertex order.

    Step k takes the adjugate A and determinant d of the leading k x k
    block to those of the leading (k + 1) x (k + 1) block, whose new row
    adds r = M[k][:k] and the corner c = M[k][k]:

        v = A r,  d' = c d - r . v,
        adj = [[(d' A + v v^T) / d, -v], [-v^T, d]]

    (the Schur complement of the block is d' / d).  Each division is exact:
    its quotient is an entry of the integer matrix adj.  A and adj are
    symmetric, so only the upper triangle is kept, column j holding
    A[0..j][j], and it is mirrored once at the end; v reads only the
    columns of k's earlier neighbours (the nonzero entries of r).  That is
    about n^3 / 6 entry updates, a sixth of a Gauss-Jordan elimination's.
    Raises ArithmeticError on a zero pivot (a leading principal minor of M
    that is 0) and ValueError unless M is square and symmetric."""
    _require_square(mat)
    if list(map(list, zip(*mat))) != mat:
        raise ValueError("matrix is not symmetric")
    cols: IntMatrix = []  # cols[j] = A[0..j][j]
    d = 1
    for k, row in enumerate(mat):
        v = None  # A r, from the columns of k's earlier neighbours
        for j, rj in enumerate(row[:k]):
            if rj:  # column j of A: cols[j], then A[j][i] = cols[i][j] below
                col = cols[j] + [c[j] for c in cols[j + 1:]]
                if rj != 1:
                    col = [rj * y for y in col]
                v = col if v is None else list(map(add, v, col))
        if v is None:
            v = [0] * k
        d2 = row[k] * d - sum(map(mul, row, v))
        if d2 == 0:
            raise ArithmeticError(f"zero pivot at step {k}")
        cols = [[(d2 * x + vi * y) // d for x, y in zip(col, v)]
                for col, vi in zip(cols, v)]
        cols.append([-x for x in v] + [d])
        d = d2
    return d, [col + list(rest[i + 1:])
               for i, (col, rest) in enumerate(zip(cols, zip_longest(*cols)))]


def _pair_minor(adjugate: IntMatrix, det: int, u: int, v: int) -> int | None:
    """det M with rows and columns u and v deleted, from det M and adj M by
    Jacobi's identity; None when the division leaves a remainder."""
    a = adjugate
    quotient, remainder = divmod(a[u][u] * a[v][v] - a[u][v] * a[v][u], det)
    return None if remainder else quotient


def _cycles_by_vertex(adj: list[set[int]]) -> list[list[tuple[int, ...]]]:
    """Every simple cycle once, from its smallest vertex, listed under each
    of its vertices."""
    through: list[list[tuple[int, ...]]] = [[] for _ in adj]
    for u in range(len(adj)):
        for cyc in _cycles_from(adj, u, u):
            for v in cyc:
                through[v].append(cyc)
    return through


def _deletion_bits(adj: list[set[int]], through: list[list[tuple[int, ...]]]) -> int:
    """The width b of the deletion check: 2^b > (3 + 2c)(1 + 2 Delta)^n,
    c the most cycles through one vertex (see the module docstring)."""
    degree = max(map(len, adj), default=0)
    most = max(map(len, through), default=0)
    return ((3 + 2 * most) * (1 + 2 * degree) ** len(adj)).bit_length()


def verify_deletion_formula(g: Graph) -> tuple[bool, ...]:
    """For each vertex u of g, whether the vertex deletion expansion of the
    Laplacian charpoly holds at u:

        phi(L) = (x - deg(u)) * phi(L_u) - sum over neighbors v of phi(L_uv)
                 - 2 * sum over cycles Z through u of (-1)^|Z| * phi(L_Z)

    where each L_S deletes the rows/columns of S but keeps g's degrees.

    The expansion is checked as an exact integer identity at x = 2^b, wide
    enough that it holds there exactly when it holds as polynomials (see the
    module docstring).  One bordering pass over M = 2^b I - L gives det M and
    adj M; phi(L_u) is read off adj M's diagonal and each phi(L_uv) by
    Jacobi's identity, and each distinct cycle vertex set gets one
    determinant, shared by every cycle on it (K4's three 4-cycles), while
    each cycle keeps its own term.  phi(L)(2^b) is ``_charpoly_value``,
    which shares no code with the bordering, and every vertex fails unless
    it is det M."""
    n = g.n
    adj = g.adjacency()
    through = _cycles_by_vertex(adj)
    z = 1 << _deletion_bits(adj, through)
    mat = laplacian(g)
    shifted = _shifted(mat, z)
    det, adjugate = _adjugate(shifted)
    if _charpoly_value(g, z) != det:
        return (False,) * n
    pairs = {(u, v): _pair_minor(adjugate, det, u, v) for u, v in g.edges}
    cycle_minors: dict[frozenset[int], int] = {}
    holds = []
    for u in range(n):
        edge_minors = [pairs[min(u, v), max(u, v)] for v in adj[u]]
        if None in edge_minors:
            holds.append(False)
            continue
        rhs = (z - len(adj[u])) * adjugate[u][u] - sum(edge_minors)
        for cyc in through[u]:
            key = frozenset(cyc)
            if key not in cycle_minors:
                cycle_minors[key] = det_bareiss(submatrix_deleting(shifted, key))
            rhs -= 2 * (-1) ** len(cyc) * cycle_minors[key]
        holds.append(rhs == det)
    return tuple(holds)
