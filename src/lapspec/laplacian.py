"""Laplacian matrices and exact characteristic polynomials.

The reference characteristic polynomial is computed by the Berkowitz method,
which is division-free: every intermediate quantity is an integer, so the
result is exact by construction.  The run works up through the trailing
principal submatrices, and its step k is exactly the run on the trailing
k x k block, so ``trailing_charpolys`` returns the charpolys of all of
those blocks from the one run that gives the whole matrix's (the
recurrences suite takes the charpolys of every interior matrix
``u_matrix(k)``, k <= n, from the run on ``u_matrix(n)``).  A second,
independent route (``charpoly_interpolated``) takes one Bareiss determinant
of 2^b I - M and reads the coefficients off it as n + 1 balanced base-2^b
digits (``polynomials.kronecker_unpack``); it exists only to cross-check
the first and is never used as the reference.  Both, and the Bareiss
determinant, refuse a matrix that is not square.

The second route's width comes from the Gershgorin bound.  Every complex
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

The value det(xI - M) at one integer x (``_charpoly_at``, one Bareiss
elimination) is that route's evaluation step.  For a graph's
Laplacian, ``_charpoly_value`` takes the same value with less work: it peels
the hung trees leaves first, a Schur complement kept in one integer pair per
vertex, and runs Bareiss only on the 2-core that is left (for a connected
(n, n+1) graph a theta, a dumbbell or a figure-eight).  The pool suites in
``verify`` use it to find the few pool graphs whose charpoly can equal a
member's before running Berkowitz on them, and ``_charpoly_at`` is its test
oracle.  Bareiss skips the products of rows that are zero in the pivot
column, so sparse matrices cost less.

Also here: principal submatrices (vertex-deleted Laplacians keep the
degrees of the original graph), the tridiagonal matrix family behind the
path recurrences, the matrix-tree spanning tree count, and an executable
check of the vertex deletion expansion of phi(L(G)) at every vertex of a
graph at once.

The deletion check is one exact integer identity per vertex at the
Kronecker point x = z = 2^b.  With M = zI - L, every phi(L_S)(z) is the
principal minor det M_S of M with the rows and columns of S deleted.  One
fraction-free Gauss-Jordan elimination (``_adjugate``) gives det M and
adj M, so phi(L_u)(z) = adj_uu, and by Jacobi's identity
phi(L_uv)(z) = (adj_uu adj_vv - adj_uv adj_vu) / det M, an exact division
(a remainder fails the vertex; it is never floored).  Each distinct cycle
vertex set Z gets one Bareiss determinant of M_Z.  phi(L) itself is still
one Berkowitz charpoly, and its value at z must equal det M.

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
leading principal minors, the elimination's pivots, are all positive, so
no pivot is 0."""

from __future__ import annotations

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


def _berkowitz(mat: IntMatrix,
               trail: list[list[int]] | None = None) -> list[int]:
    """det(xI - M) by the Berkowitz method, as coefficients leading first.
    Its step k gives det(xI - B) of the trailing principal k x k submatrix B
    of M; if trail is a list, the result of every step k = 0..n is appended
    to it.

    Works bottom-up over trailing principal submatrices [[a, R], [C, A]] of
    M, i = n-1 down to 0.  Each step multiplies the coefficient vector by the
    Toeplitz column 1, -a, -R C, -R A C, ..., -R A^(m-2) C of its m x m
    submatrix.  A is kept as per-column lists of its nonzero (row, value)
    entries, indexed by absolute row and column; going from i to i - 1 it
    grows by one row (appended to the columns it touches) and one column,
    and is never rebuilt.  The product A v is a scatter: each nonzero v[j]
    adds v[j] times the entries of column j into the result, so zeros of
    both the matrix and the vector cost nothing, which matters for the
    sparse Laplacians this package feeds in.  Raises ValueError unless M is
    square.
    """
    n = _require_square(mat)
    poly = [1]  # leading coefficient first
    if trail is not None:
        trail.append(poly)
    cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        m = n - i
        top = mat[i]
        row = [(j, top[j]) for j in range(i + 1, n) if top[j]]
        vec = [0] * n  # A^k C, by absolute row
        for r in range(i + 1, n):
            vec[r] = mat[r][i]
        toeplitz = [-top[i]]  # below the leading 1
        for k in range(m - 1):
            s = 0
            for j, val in row:
                s -= val * vec[j]
            toeplitz.append(s)
            if k < m - 2:
                nxt = [0] * n
                for j in range(i + 1, n):
                    vj = vec[j]
                    if vj:
                        for r, val in cols[j]:
                            nxt[r] += val * vj
                vec = nxt
        # Row and column i join A for the next, larger submatrix.
        for j, val in row:
            cols[j].append((i, val))
        cols[i] = [(r, mat[r][i]) for r in range(i, n) if mat[r][i]]
        new = poly + [0]  # the leading 1 times poly
        for ti, tv in enumerate(toeplitz, 1):
            if tv:
                for pj in range(m + 1 - ti):
                    new[ti + pj] += tv * poly[pj]
        poly = new
        if trail is not None:
            trail.append(poly)
    return poly


def charpoly(mat: IntMatrix) -> IntPoly:
    """det(xI - M) by the Berkowitz method (division-free, exact; see
    ``_berkowitz``).  Raises ValueError unless M is square."""
    return IntPoly(reversed(_berkowitz(mat)))


def trailing_charpolys(mat: IntMatrix) -> list[IntPoly]:
    """det(xI - B) for the trailing principal k x k submatrix B of M, for
    k = 0..n, from one Berkowitz run: its step k is exactly the run on B.
    Raises ValueError unless M is square."""
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
    first, then one Bareiss elimination of the 2-core.

    Each vertex v carries a pair (P_v, Q_v), starting at (x - deg v, 1); its
    row of the matrix still to be eliminated is Q_v times row v of the Schur
    complement, so P_v sits on the diagonal and Q_v at each neighbour.
    Absorbing a leaf v into its neighbour u sets (P_u, Q_u) to
    (P_u P_v - Q_u Q_v, Q_u P_v).  A tree root left with degree 0 gives the
    factor P_u, and what is left with degree >= 2 is the 2-core, whose matrix
    has determinant det(xI - L) divided by those factors.  Every step is a
    ring operation in x, so the value is exact for every x, also where a
    peeled P_v is 0."""
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
    core = [v for v, d in enumerate(deg) if d]
    at = [0] * n
    mat = [[0] * len(core) for _ in core]
    for k, v in enumerate(core):
        at[v] = k
        mat[k][k] = p[v]
    for i, j in g.edges:
        if deg[i] and deg[j]:
            mat[at[i]][at[j]] = q[i]
            mat[at[j]][at[i]] = q[j]
    return value * det_bareiss(mat)


def charpoly_interpolated(mat: IntMatrix) -> IntPoly:
    """det(xI - M) read off one Bareiss determinant at the Kronecker point
    x = 2^b, with b from the Gershgorin bound (see the module docstring).

    Independent of the Berkowitz route; used as a cross-check oracle.
    Raises ValueError unless M is square, and ArithmeticError unless every
    entry is an integer."""
    n = _require_square(mat)
    if not all(isinstance(v, int) for row in mat for v in row):
        raise ArithmeticError("the Kronecker route needs integer entries")
    radius = max((sum(map(abs, row)) for row in mat), default=0)
    b = ((1 + radius) ** n).bit_length() + 2
    return kronecker_unpack(_charpoly_at(mat, 1 << b), b, n)


def submatrix_deleting(mat: IntMatrix, delete: Iterable[int]) -> IntMatrix:
    drop = set(delete)
    keep = [i for i in range(len(mat)) if i not in drop]
    return [[mat[i][j] for j in keep] for i in keep]


def spanning_tree_count(g: Graph) -> int:
    """Matrix-tree theorem: any cofactor of the Laplacian."""
    if g.n == 0:
        raise ValueError("spanning trees undefined for the empty graph")
    return det_bareiss(submatrix_deleting(laplacian(g), {0}))


def _cycles_from(adj: list[set[int]], u: int, lowest: int) -> list[tuple[int, ...]]:
    """Simple cycles through u on vertices >= lowest, each listed once as a
    vertex tuple starting at u; orientation is fixed by second vertex < last
    vertex."""
    cycles: list[tuple[int, ...]] = []
    path = [u]
    on_path = {u}

    def dfs(v: int) -> None:
        for w in adj[v]:
            if w == u:
                if len(path) >= 3 and path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif w >= lowest and w not in on_path:
                path.append(w)
                on_path.add(w)
                dfs(w)
                on_path.discard(w)
                path.pop()

    dfs(u)
    return cycles


def _adjugate(mat: IntMatrix) -> tuple[int, IntMatrix]:
    """(det M, adj M) by one fraction-free Gauss-Jordan elimination
    (Bareiss/Montante) of [M | I], kept in one n x n array: step k turns
    column k of M into column k of the adjugate, so the array holds the
    columns of M not yet eliminated and those of adj M already made.
    Every division is exact.  Raises ArithmeticError on a zero pivot (a
    leading principal minor of M that is 0) and ValueError unless M is
    square."""
    n = _require_square(mat)
    a = [row[:] for row in mat]
    prev = 1
    for k in range(n):
        pivot = a[k]
        p = pivot[k]
        if p == 0:
            raise ArithmeticError(f"zero pivot at step {k}")
        for i in range(n):
            if i != k:
                f = a[i][k]
                if f:
                    a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot)]
                else:  # a row with nothing to eliminate is only rescaled
                    a[i] = [p * x // prev for x in a[i]]
                a[i][k] = -f
        pivot[k] = prev
        prev = p
    return prev, a


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
    module docstring).  One elimination of M = 2^b I - L gives det M and
    adj M; phi(L_u) is read off adj M's diagonal and each phi(L_uv) by
    Jacobi's identity, and each distinct cycle vertex set gets one
    determinant, shared by every cycle on it (K4's three 4-cycles), while
    each cycle keeps its own term.  phi(L) is one Berkowitz charpoly, and
    every vertex fails unless its value at 2^b is det M."""
    n = g.n
    adj = g.adjacency()
    through = _cycles_by_vertex(adj)
    z = 1 << _deletion_bits(adj, through)
    mat = laplacian(g)
    shifted = _shifted(mat, z)
    det, adjugate = _adjugate(shifted)
    if charpoly(mat).eval(z) != det:
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
