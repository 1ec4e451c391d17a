import importlib
from fractions import Fraction
from operator import mul
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_helpers import gauss_jordan_adjugate
from lapspec import termtables, verify
from lapspec.enumeration import (EnumerationTask, enumerate_graphs,
                                 random_connected_graph)
from lapspec.graphs import (Graph, dumbbell_graph, make_cycle, make_dumbbell,
                            make_path, make_theta, theta_graph)
from lapspec.laplacian import (_adjugate, _charpoly_at, _charpoly_value,
                               _cycles_by_vertex, _cycles_from, _deletion_bits,
                               _kronecker_bits, _pair_minor, _require_square,
                               _shifted, charpoly, charpoly_interpolated,
                               det_bareiss, laplacian, laplacian_charpoly,
                               submatrix_deleting,
                               spanning_tree_count, trailing_charpolys, u_matrix,
                               verify_deletion_formula)
from lapspec.polynomials import IntPoly, X

# the package re-exports the function laplacian under the module's name
laplacian_module = importlib.import_module("lapspec.laplacian")


def lagrange_charpoly(mat):
    """det(xI - M) from its values at x = 0..n (one Bareiss determinant
    each) by exact Lagrange interpolation over Fractions: an oracle for the
    Kronecker route of ``charpoly_interpolated``."""
    n = len(mat)
    points = list(range(n + 1))
    values = [_charpoly_at(mat, x0) for x0 in points]
    coeffs = [Fraction(0)] * (n + 1)
    for x0, y0 in zip(points, values):
        # basis polynomial prod_{x1 != x0} (x - x1) / (x0 - x1)
        basis = [Fraction(1)]
        denom = 1
        for x1 in points:
            if x1 == x0:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d + 1] += c
                new[d] -= c * x1
            basis = new
            denom *= x0 - x1
        scale = Fraction(y0, denom)
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    assert all(c.denominator == 1 for c in coeffs)
    return IntPoly(int(c) for c in coeffs)


def list_berkowitz(mat, trail=None):
    """det(xI - M) by the Berkowitz method, as coefficients leading first,
    with every Toeplitz entry a chain R A^k C and every product a double
    loop over coefficient lists: an oracle for ``laplacian._berkowitz``.
    If trail is a list, the result of every step k = 0..n is appended to
    it, the charpoly of the trailing k x k block.

    Works bottom-up over trailing principal submatrices [[a, R], [C, A]] of
    M, i = n-1 down to 0.  Each step multiplies the coefficient vector by
    the Toeplitz column 1, -a, -R C, -R A C, ..., -R A^(m-2) C of its m x m
    submatrix.  A is kept as per-column lists of its nonzero (row, value)
    entries, indexed by absolute row and column, and A v is a scatter over
    the nonzero entries of v."""
    n = _require_square(mat)
    poly = [1]  # leading coefficient first
    if trail is not None:
        trail.append(poly)
    cols = [[] for _ in range(n)]
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


def submatrix_charpoly(g, delete):
    """Characteristic polynomial of L(g) with the given rows and columns
    removed; the diagonal keeps the degrees in g itself."""
    return charpoly(submatrix_deleting(laplacian(g), delete))


def cycles_through(g, u):
    """All simple cycles containing u, each listed once as a vertex tuple
    starting at u; orientation is fixed by second vertex < last vertex."""
    return _cycles_from(g.adjacency(), u, 0)


def naive_det(mat):
    n = len(mat)
    if n == 0:
        return 1
    total = 0
    for j in range(n):
        if mat[0][j]:
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * naive_det(minor)
    return total


NON_SQUARE = pytest.mark.parametrize("mat", [
    [[1, 2]],
    [[1, 2, 3], [4, 5, 6]],
    [[1], [2]],
    [[1, 2], [3]],
    [[1, 2], [3, 4, 5]],
    [[]],
], ids=["1x2", "2x3", "2x1", "ragged-short", "ragged-long", "empty-row"])


class TestLaplacian:
    def test_structure(self):
        g = make_dumbbell(3, 1, 3)
        mat = laplacian(g)
        degs = [0] * g.n
        for i, j in g.edges:
            degs[i] += 1
            degs[j] += 1
        for i in range(g.n):
            assert mat[i][i] == degs[i]
            assert sum(mat[i]) == 0
            for j in range(g.n):
                assert mat[i][j] == mat[j][i]
                if i != j:
                    assert mat[i][j] in (0, -1)

    def test_empty(self):
        assert laplacian(Graph(0)) == []


class TestCharpoly:
    def test_known_small_spectra(self):
        # L(P2) has eigenvalues 0, 2
        assert charpoly(laplacian(make_path(2))) == X * (X - 2)
        # triangle: 0, 3, 3
        assert charpoly(laplacian(make_cycle(3))) == X * (X - 3) * (X - 3)
        # star on four vertices: 0, 1, 1, 4
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert charpoly(laplacian(star)) == X * (X - 1) * (X - 1) * (X - 4)
        # complete graph K4: 0, 4, 4, 4
        k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert charpoly(laplacian(k4)) == X * (X - 4) * (X - 4) * (X - 4)

    def test_empty_matrix(self):
        assert charpoly([]) == IntPoly((1,))

    def test_monic_with_zero_constant(self):
        g = make_theta(2, 2, 1)
        phi = charpoly(laplacian(g))
        assert phi.degree == g.n
        assert phi.coeff(g.n) == 1
        assert phi.coeff(0) == 0

    def test_agrees_with_interpolation_route(self):
        rng = Random(5)
        graphs = [make_dumbbell(4, 0, 3), make_theta(3, 1, 1), make_path(6)]
        graphs += [random_connected_graph(rng, rng.randint(2, 8), rng.randint(0, 4))
                   for _ in range(20)]
        for g in graphs:
            mat = laplacian(g)
            assert charpoly(mat) == charpoly_interpolated(mat)

    def test_kronecker_route_matches_lagrange_oracle(self):
        rng = Random(11)
        mats = [laplacian(make_dumbbell(4, 1, 3)), laplacian(make_theta(2, 2, 1))]
        for _ in range(30):
            n = rng.randint(0, 7)
            mats.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        for mat in mats:
            assert charpoly_interpolated(mat) == lagrange_charpoly(mat)

    @pytest.mark.parametrize("radius", [1, 2, 3, 64, 1000, 2 ** 30])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_width_at_the_gershgorin_bound(self, radius, n):
        # -R I: the charpoly (x + R)^n has 1-norm exactly (1 + R)^n
        minus_r = [[-radius if i == j else 0 for j in range(n)] for i in range(n)]
        phi = charpoly(minus_r)
        assert sum(map(abs, phi.coeffs)) == (1 + radius) ** n
        assert charpoly_interpolated(minus_r) == phi
        # constant negative entries -c: the charpoly is x^(n-1) (x + nc)
        unit = max(1, radius // n)
        constant = [[-unit] * n for _ in range(n)]
        assert charpoly_interpolated(constant) == charpoly(constant)
        # mixed signs, not symmetric, absolute row sums of the order of R
        mixed = [[(-1) ** (i + j * j) * unit * (1 + (i * j) % 3) for j in range(n)]
                 for i in range(n)]
        assert charpoly_interpolated(mixed) == charpoly(mixed)

    def test_interpolation_rejects_non_integer_charpoly(self):
        with pytest.raises(ArithmeticError):
            charpoly_interpolated([[Fraction(1, 2)]])

    @pytest.mark.parametrize("route", [charpoly, charpoly_interpolated])
    @NON_SQUARE
    def test_non_square_is_refused(self, route, mat):
        with pytest.raises(ValueError, match="not square"):
            route(mat)


# mostly small, some zero, some at +-2^20
ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-9, 9),
                    st.sampled_from((-1 << 20, 1 << 20)))


@st.composite
def symmetric_matrices(draw, max_n: int = 8):
    """Symmetric integer matrices, often with zero rows and columns."""
    n = draw(st.integers(0, max_n))
    upper = iter(draw(st.lists(ENTRIES, min_size=n * (n + 1) // 2,
                               max_size=n * (n + 1) // 2)))
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mat[i][j] = mat[j][i] = next(upper)
    if n:
        for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
            mat[i] = [0] * n
            for row in mat:
                row[i] = 0
    return mat


@st.composite
def dominant_symmetric_matrices(draw, max_n: int = 8):
    """Symmetric, strictly diagonally dominant integer matrices, so every
    leading principal minor is nonzero."""
    mat = draw(symmetric_matrices(max_n))
    for i, row in enumerate(mat):
        off = sum(map(abs, row)) - abs(row[i])
        row[i] = draw(st.sampled_from((-1, 1))) * (off + draw(st.integers(1, 4)))
    return mat


@st.composite
def nearly_symmetric_matrices(draw, max_n: int = 8):
    """Symmetric integer matrices with one off-diagonal pair made unequal, so
    no step whose trailing block holds the pair is symmetric."""
    mat = draw(symmetric_matrices(max_n).filter(lambda mat: len(mat) >= 2))
    i, j = draw(st.lists(st.integers(0, len(mat) - 1), min_size=2, max_size=2,
                         unique=True))
    mat[i][j] += draw(ENTRIES.filter(bool))
    return mat


class TestAgainstListOracle:
    """The packed meet-in-the-middle kernel against the list-based one."""

    @settings(max_examples=150, deadline=None)
    @given(symmetric_matrices())
    def test_symmetric_matrices(self, mat):
        assert charpoly(mat) == IntPoly(reversed(list_berkowitz(mat)))

    @settings(max_examples=150, deadline=None)
    @given(nearly_symmetric_matrices())
    def test_one_unequal_pair(self, mat):
        assert charpoly(mat) == IntPoly(reversed(list_berkowitz(mat)))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(symmetric_matrices(), nearly_symmetric_matrices()))
    def test_trailing_charpolys(self, mat):
        trail = []
        list_berkowitz(mat, trail)
        assert trailing_charpolys(mat) == [IntPoly(reversed(poly)) for poly in trail]

    @pytest.mark.parametrize("route", [charpoly, trailing_charpolys])
    @pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), 0.5, 2.0],
                             ids=["half", "fraction-2", "float-half", "float-2"])
    def test_non_integer_entry_is_refused(self, route, entry):
        with pytest.raises(ArithmeticError, match="integer entries"):
            route([[2, -1], [-1, entry]])


class TestBareiss:
    def test_known_values(self):
        assert det_bareiss([]) == 1
        assert det_bareiss([[7]]) == 7
        assert det_bareiss([[1, 2], [3, 4]]) == -2
        assert det_bareiss([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30

    def test_singular(self):
        assert det_bareiss([[1, 2], [2, 4]]) == 0

    def test_matches_cofactor_expansion(self):
        rng = Random(9)
        for _ in range(30):
            n = rng.randint(1, 5)
            mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert det_bareiss([row[:] for row in mat]) == naive_det(mat)

    @NON_SQUARE
    def test_non_square_is_refused(self, mat):
        with pytest.raises(ValueError, match="not square"):
            det_bareiss(mat)

    def test_value_at_a_point_is_the_charpoly_there(self):
        rng = Random(11)
        for _ in range(40):
            n = rng.randint(0, 6)
            # mostly zeros, so rows skip elimination and pivots are swapped
            mat = [[rng.choice((0, 0, 0, rng.randint(-4, 4))) for _ in range(n)]
                   for _ in range(n)]
            for x in range(-3, 4):
                shifted = [[(x if i == j else 0) - mat[i][j] for j in range(n)]
                           for i in range(n)]
                assert _charpoly_at(mat, x) == charpoly(mat).eval(x) == naive_det(shifted)


# Cores that chain folding does not reduce at any x.
UNREDUCED_CORES = {
    "cycle": make_cycle(5),  # a core without a hub
    "three-hubs": Graph(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5),
                            (3, 5), (5, 6), (6, 7), (7, 3)]),
    # a figure-eight and a separate triangle: a core vertex on no chain
    "figure-eight-and-triangle": Graph(8, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4),
                                           (0, 4), (5, 6), (6, 7), (5, 7)]),
}
# Two figure-eights: two hubs that share no chain.  They fold like a
# theta's, except where a loop's two-vertex chain has continuant
# (x - 2)^2 - 1 = 0, at x = 1 and 3.
TWO_FIGURE_EIGHTS = Graph(10, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4),
                               (5, 6), (6, 7), (5, 7), (5, 8), (8, 9), (5, 9)])


@pytest.fixture
def oracle_calls(monkeypatch):
    """Every x at which ``_charpoly_value`` defers to ``_charpoly_at``."""
    calls = []
    real = laplacian_module._charpoly_at

    def counted(mat, x):
        calls.append(x)
        return real(mat, x)

    monkeypatch.setattr(laplacian_module, "_charpoly_at", counted)
    return calls


class TestCharpolyValue:
    """The peeled-tree value against one Bareiss elimination of x I - L."""

    @pytest.mark.parametrize("g", [
        make_path(2), make_path(5),
        # a triangle with a pendant vertex: at x = 1 the leaf has P = 0, so
        # its core neighbour's row has Q = 0 off the diagonal
        Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
        Graph(6, [(0, 1), (2, 3), (3, 4)]),  # isolated vertices and a tree
    ], ids=["P2", "P5", "triangle-leaf", "forest"])
    def test_where_a_peeled_p_is_zero(self, g):
        for x in range(-4, g.n + 2):
            assert _charpoly_value(g, x) == _charpoly_at(laplacian(g), x)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_every_pool_graph_at_x0(self, n):
        for g in enumerate_graphs(EnumerationTask(n, n + 1, connected=True)):
            assert _charpoly_value(g, -3) == _charpoly_at(laplacian(g), -3)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_every_pool_graph_at_small_x(self, n, bicyclic_pool, monkeypatch):
        """Every x in range(-4, n + 2).  At x = 1, 2 and 3 some short chain
        has continuant 0, so the value is one Bareiss elimination of the
        whole x I - L there."""
        eliminations = []
        real = laplacian_module.det_bareiss

        def counted(mat):
            eliminations.append(len(mat))
            return real(mat)

        for g in bicyclic_pool(n):
            for x in range(-4, n + 2):
                monkeypatch.setattr(laplacian_module, "det_bareiss", counted)
                value = _charpoly_value(g, x)
                monkeypatch.setattr(laplacian_module, "det_bareiss", real)
                assert value == _charpoly_at(laplacian(g), x), (g.edges, x)
        assert eliminations

    @pytest.mark.parametrize("n", range(4, 11))
    def test_pool_values_at_x0_need_no_elimination(self, n, bicyclic_pool, monkeypatch,
                                                   oracle_calls):
        """x0 I - L is negative definite for x0 < 0, so no continuant of a
        pool graph's chains is 0 there and every core folds into its hubs."""
        def refused(mat):
            raise AssertionError("Bareiss ran on a pool graph")

        monkeypatch.setattr(laplacian_module, "det_bareiss", refused)
        for g in bicyclic_pool(n):
            _charpoly_value(g, -3)
        assert oracle_calls == []

    @pytest.mark.parametrize("g", [*UNREDUCED_CORES.values(), TWO_FIGURE_EIGHTS],
                             ids=[*UNREDUCED_CORES, "two-figure-eights"])
    def test_cores_outside_one_or_two_hubs(self, g):
        for x in range(-4, g.n + 2):
            assert _charpoly_value(g, x) == _charpoly_at(laplacian(g), x)

    @pytest.mark.parametrize("g, points", [
        *((g, list(range(-4, g.n + 2))) for g in UNREDUCED_CORES.values()),
        (TWO_FIGURE_EIGHTS, [1, 3]),
    ], ids=[*UNREDUCED_CORES, "two-figure-eights"])
    def test_defers_to_the_oracle_only_where_folding_gives_up(self, g, points,
                                                              oracle_calls):
        """The value is ``_charpoly_at`` of the whole Laplacian at exactly
        the points where folding does not reduce the core."""
        for x in range(-4, g.n + 2):
            _charpoly_value(g, x)
        assert oracle_calls == points


def core_hubs(g: Graph) -> int:
    """The number of vertices of degree >= 3 in the 2-core of g."""
    adj = g.adjacency()
    leaves = [v for v in range(g.n) if len(adj[v]) <= 1]
    while leaves:
        v = leaves.pop()
        for u in adj[v]:
            adj[u].discard(v)
            if len(adj[u]) == 1:
                leaves.append(u)
        adj[v] = set()
    return sum(len(a) >= 3 for a in adj)


def random_forest(rng: Random, n: int) -> Graph:
    """A random tree on n vertices with about a third of its edges dropped."""
    tree = random_connected_graph(rng, n)
    return Graph(n, [e for e in tree.edges if rng.random() > 1 / 3])


class TestLaplacianCharpoly:
    """The charpoly read off one value at x = 2^b, against Berkowitz."""

    @pytest.fixture
    def widths(self, monkeypatch):
        """The digit width b of every ``kronecker_unpack`` call."""
        calls = []
        real = laplacian_module.kronecker_unpack

        def counted(value, b, n):
            calls.append(b)
            return real(value, b, n)

        monkeypatch.setattr(laplacian_module, "kronecker_unpack", counted)
        return calls

    def check(self, graphs, widths) -> list[int]:
        """Check each graph's charpoly by both routes, and that the one
        unpacking in ``laplacian_charpoly`` has Berkowitz's width; return
        those widths."""
        route_widths = []
        for g in graphs:
            mat = laplacian(g)
            del widths[:]
            phi = laplacian_charpoly(g)
            assert widths == [_kronecker_bits(mat)[1]]
            route_widths += widths
            assert phi == charpoly(mat), g.edges
        return route_widths

    def test_every_graph_of_the_recurrence_and_table_grids(self, widths, oracle_calls):
        # the table suites' grids are the normalized part of these
        graphs = [make_path(n) for n in range(1, 41)]
        graphs += [dumbbell_graph(p, k, q) for p in range(3, 9) for q in range(3, 9)
                   for k in range(6)]
        graphs += [theta_graph(h.r, h.s, h.t) for h in verify._theta_grid(8)]
        assert len(graphs) == 40 + 216 + 156
        self.check(graphs, widths)
        assert oracle_calls == []

    @pytest.mark.parametrize("n", range(4, 9))
    def test_every_pool_graph(self, n, bicyclic_pool, widths, oracle_calls):
        self.check(bicyclic_pool(n), widths)
        assert oracle_calls == []

    def test_three_or_more_hubs_take_the_bareiss_fallback(self, widths, oracle_calls):
        rng = Random(43)
        graphs = [random_connected_graph(rng, rng.randint(6, 12), rng.randint(3, 8))
                  for _ in range(30)]
        graphs = [g for g in graphs if core_hubs(g) >= 3]
        assert len(graphs) >= 20
        assert oracle_calls == [1 << b for b in self.check(graphs, widths)]

    @pytest.mark.parametrize("n", range(13))
    def test_forests_isolated_vertices_complete_graphs_and_stars(self, n, widths):
        rng = Random(n)
        self.check([Graph(n), random_forest(rng, n) if n else Graph(0),
                    Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)]),
                    Graph(n, [(0, j) for j in range(1, n)])], widths)

    def test_no_vertex_and_one_vertex(self):
        assert laplacian_charpoly(Graph(0)) == IntPoly([1])
        assert laplacian_charpoly(Graph(1)) == X

    def test_family_suites_at_their_acceptance_bounds_never_fall_back(
            self, monkeypatch, oracle_calls):
        """The recurrences and both table suites take every graph's charpoly
        from ``laplacian_charpoly`` and never need ``_charpoly_at``."""
        calls = []
        real = laplacian_module.laplacian_charpoly

        def counted(g):
            calls.append(g.n)
            return real(g)

        for module in (verify, termtables):
            monkeypatch.setattr(module, "laplacian_charpoly", counted)
        reports = [verify.verify_recurrences(path_n_max=40, p_max=8, k_max=5, r_max=8),
                   verify.verify_dumbbell_table(p_max=8, k_max=5),
                   verify.verify_theta_table(r_max=8)]
        assert all(r.passed for r in reports)
        recurrences, dumbbells, thetas = (r.counts for r in reports)
        assert len(calls) == (recurrences["paths"] + recurrences["dumbbells"]
                              + recurrences["thetas"] + dumbbells["tuples"]
                              + thetas["tuples"])
        assert oracle_calls == []


class TestUMatrix:
    def test_shape(self):
        assert u_matrix(1) == [[2]]
        assert u_matrix(3) == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]

    def test_charpolys(self):
        assert charpoly(u_matrix(0)) == IntPoly((1,))
        assert charpoly(u_matrix(1)) == X - 2
        assert charpoly(u_matrix(2)) == (X - 2) * (X - 2) - 1


class TestSubmatrixCharpoly:
    def test_delete_from_triangle(self):
        g = make_cycle(3)
        # degrees stay 2 after deleting a vertex, so the block is U_2
        assert submatrix_charpoly(g, {0}) == (X - 2) * (X - 2) - 1
        assert submatrix_charpoly(g, {0, 1}) == X - 2
        assert submatrix_charpoly(g, {0, 1, 2}) == IntPoly((1,))


class TestSpanningTrees:
    def test_known_counts(self):
        assert spanning_tree_count(make_path(5)) == 1
        assert spanning_tree_count(make_cycle(6)) == 6
        k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert spanning_tree_count(k4) == 16
        k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        assert spanning_tree_count(k5) == 125

    def test_family_formulas(self):
        # dumbbell: tree count is the product of the two cycle lengths
        for p, k, q in [(3, 0, 3), (5, 2, 4), (6, 1, 3)]:
            assert spanning_tree_count(make_dumbbell(p, k, q)) == p * q
        # theta: pairwise products of the three path edge counts
        for r, s, t in [(1, 1, 1), (2, 1, 0), (4, 2, 2)]:
            a, b, c = r + 1, s + 1, t + 1
            assert spanning_tree_count(make_theta(r, s, t)) == a * b + a * c + b * c

    def test_disconnected(self):
        assert spanning_tree_count(Graph(3, [(0, 1)])) == 0


class TestCyclesThrough:
    def test_counts(self):
        around = cycles_through(make_cycle(4), 2)
        assert len(around) == 1 and around[0][0] == 2
        assert len(cycles_through(make_path(5), 2)) == 0
        k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        # three triangles and three 4-cycles pass through any K4 vertex
        assert len(cycles_through(k4, 0)) == 6

    def test_theta_hub_sees_three_cycles(self):
        g = make_theta(2, 2, 1)
        assert len(cycles_through(g, 0)) == 3
        # interior path vertices lie on exactly two of the three cycles
        assert len(cycles_through(g, 2)) == 2

    def test_orientation_dedup(self):
        for cyc in cycles_through(make_cycle(6), 0):
            assert cyc[0] == 0 and cyc[1] < cyc[-1]


def expansion_terms(g):
    """For each vertex u, the terms of the deletion expansion at u by the
    matrix route, one Berkowitz charpoly per deleted vertex set: phi(L),
    -(x - deg u) phi(L_u), phi(L_uv) for each neighbor v and
    2 (-1)^|Z| phi(L_Z) for each cycle Z through u.  They sum to zero
    exactly where the expansion holds."""
    mat = laplacian(g)
    minors = {}

    def minor(delete):
        key = frozenset(delete)
        if key not in minors:
            minors[key] = charpoly(submatrix_deleting(mat, key))
        return minors[key]

    adj = g.adjacency()
    terms = []
    for u in range(g.n):
        at_u = [minor(()), -(X - len(adj[u])) * minor((u,))]
        at_u += [minor((u, v)) for v in adj[u]]
        at_u += [2 * (-1) ** len(cyc) * minor(cyc) for cyc in cycles_through(g, u)]
        terms.append(at_u)
    return terms


def one_norm(p):
    return sum(abs(c) for c in p.coeffs)


def check_against_matrix_route(g):
    """verify_deletion_formula(g) equals the matrix route's verdict, which is
    True at every vertex, and 2^b exceeds the summed 1-norm of the terms at
    every vertex, so a wrong term could not vanish at 2^b."""
    terms = expansion_terms(g)
    holds = verify_deletion_formula(g)
    assert holds == tuple(not sum(at_u, IntPoly()) for at_u in terms) == (True,) * g.n
    adj = g.adjacency()
    bits = _deletion_bits(adj, _cycles_by_vertex(adj))
    assert all(sum(map(one_norm, at_u)) < 1 << bits for at_u in terms)


@st.composite
def connected_graphs(draw, max_n: int = 9, max_extra: int = 12) -> Graph:
    """A random recursive tree plus up to max_extra more edges."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 1:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=max_extra,
                                   unique=True)))
    return Graph(n, edges)


K4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


class TestDeletionFormula:
    def test_families_and_k4(self):
        # K4's three 4-cycles share one vertex set; each keeps its own term
        for g in [make_dumbbell(3, 1, 3), make_theta(2, 1, 0), K4]:
            check_against_matrix_route(g)

    def test_one_entry_per_vertex(self):
        rng = Random(3)
        for g in [Graph(0), make_path(1), make_path(3), make_cycle(5)] + [
                random_connected_graph(rng, rng.randint(2, 7), rng.randint(0, 3))
                for _ in range(10)]:
            assert len(verify_deletion_formula(g)) == g.n

    @settings(max_examples=100, deadline=None)
    @given(connected_graphs())
    def test_agrees_with_one_charpoly_per_deleted_set(self, g):
        check_against_matrix_route(g)

    def test_width_covers_every_graph_of_the_default_suite(self, monkeypatch):
        seen = []

        def recorded(g):
            seen.append(g)
            return verify_deletion_formula(g)

        monkeypatch.setattr(verify, "verify_deletion_formula", recorded)
        assert verify.verify_deletion_suite().passed
        assert len(seen) == 206  # 106 family members and 100 samples
        for g in seen:
            check_against_matrix_route(g)

    def test_one_charpoly_and_one_elimination_per_graph(self, monkeypatch):
        calls = {"_charpoly_value": [], "_adjugate": [], "det_bareiss": []}
        for name in calls:
            def counted(arg, *rest, name=name, original=getattr(laplacian_module, name)):
                # a graph for _charpoly_value, a matrix for the other two
                calls[name].append(arg.n if isinstance(arg, Graph) else len(arg))
                return original(arg, *rest)

            monkeypatch.setattr(laplacian_module, name, counted)
        # theta(2, 2, 1) has three cycles on three vertex sets; K4 has seven
        # cycles on five: its three 4-cycles share one.  K4 has four hubs, so
        # its phi(L)(z) falls back to one Bareiss elimination of order 4.
        for g, sets, fallback in [(make_theta(2, 2, 1), 3, []), (K4, 5, [4])]:
            for made in calls.values():
                made.clear()
            assert verify_deletion_formula(g) == (True,) * g.n
            cycle_sets = {frozenset(c) for u in range(g.n) for c in cycles_through(g, u)}
            assert len(cycle_sets) == sets
            assert calls["_charpoly_value"] == calls["_adjugate"] == [g.n]
            assert sorted(calls["det_bareiss"]) == sorted(
                [g.n - len(z) for z in cycle_sets] + fallback)

    @pytest.mark.parametrize("g", [
        K4,
        # hubs of degree 4, 3 and 3: a triangle with two chains on its sides
        Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (2, 4)]),
        # the prism, six hubs, with a tree hung on one of them
        Graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                  (0, 3), (1, 4), (2, 5), (5, 6), (6, 7)]),
    ], ids=["K4", "three-hubs", "prism-with-tree"])
    def test_more_than_two_hubs_fall_back_to_one_bareiss(self, monkeypatch, g):
        adj = g.adjacency()
        z = 1 << _deletion_bits(adj, _cycles_by_vertex(adj))
        fallbacks = []

        def recorded(mat, x):
            fallbacks.append((len(mat), x))
            return _charpoly_at(mat, x)

        monkeypatch.setattr(laplacian_module, "_charpoly_at", recorded)
        assert _charpoly_value(g, z) == _adjugate(_shifted(laplacian(g), z))[0]
        assert fallbacks == [(g.n, z)]
        assert verify_deletion_formula(g) == (True,) * g.n
        assert fallbacks == [(g.n, z)] * 2

    @pytest.mark.parametrize("g", [make_theta(2, 2, 1), make_dumbbell(4, 1, 3)],
                             ids=["theta(2,2,1)", "dumbbell(4,1,3)"])
    def test_a_wrong_edge_minor_fails_exactly_its_endpoints(self, monkeypatch, g):
        for u, v in g.edges:
            for wrong in (lambda minor: minor + 1, lambda minor: None):
                def corrupted(adj, det, a, b, edge=(u, v), wrong=wrong):
                    minor = _pair_minor(adj, det, a, b)
                    return wrong(minor) if (a, b) == edge else minor

                monkeypatch.setattr(laplacian_module, "_pair_minor", corrupted)
                assert verify_deletion_formula(g) == tuple(w not in (u, v)
                                                           for w in range(g.n))

    def test_a_wrong_adjugate_entry_fails_exactly_its_edge(self, monkeypatch):
        g = make_theta(2, 2, 1)
        adjacency = g.adjacency()
        for u in range(g.n):
            for v in range(g.n):
                def corrupted(mat, entry=(u, v)):
                    det, adj = _adjugate(mat)
                    adj[entry[0]][entry[1]] += 1
                    return det, adj

                monkeypatch.setattr(laplacian_module, "_adjugate", corrupted)
                if u == v:  # phi(L_u) and every phi(L_uw) are wrong
                    fails = {u} | adjacency[u]
                else:  # phi(L_uv) is wrong if uv is an edge
                    fails = {u, v} if v in adjacency[u] else set()
                assert verify_deletion_formula(g) == tuple(w not in fails
                                                           for w in range(g.n))

    @pytest.mark.parametrize("g", [make_theta(2, 2, 1), make_dumbbell(4, 1, 3), K4],
                             ids=["theta(2,2,1)", "dumbbell(4,1,3)", "K4"])
    def test_a_wrong_cycle_minor_fails_exactly_its_vertices(self, monkeypatch, g):
        for z in {frozenset(c) for u in range(g.n) for c in cycles_through(g, u)}:
            def corrupted(mat, delete, z=z):
                sub = submatrix_deleting(mat, delete)
                if set(delete) == z:  # one more diagonal block, so det doubles
                    sub = [row + [0] for row in sub] + [[0] * len(sub) + [2]]
                return sub

            monkeypatch.setattr(laplacian_module, "submatrix_deleting", corrupted)
            assert verify_deletion_formula(g) == tuple(w not in z for w in range(g.n))

    def test_a_wrong_charpoly_fails_every_vertex(self, monkeypatch):
        g = make_theta(2, 1, 0)
        monkeypatch.setattr(laplacian_module, "_charpoly_value",
                            lambda g, x: _charpoly_value(g, x) + 1)
        assert verify_deletion_formula(g) == (False,) * g.n


class TestAdjugate:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_cofactors(self, seed):
        rng = Random(seed)
        n = rng.randint(1, 6)
        # symmetric and strictly diagonally dominant, so every leading minor
        # is nonzero
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                mat[i][j] = mat[j][i] = rng.randint(-5, 5)
        for i, row in enumerate(mat):
            row[i] = rng.choice((-1, 1)) * (sum(abs(v) for v in row) + rng.randint(1, 4))
        before = [row[:] for row in mat]
        det, adj = _adjugate(mat)
        assert mat == before
        assert det == naive_det(mat)
        for i in range(n):
            for j in range(n):
                minor = [row[:i] + row[i + 1:] for k, row in enumerate(mat) if k != j]
                assert adj[i][j] == (-1) ** (i + j) * naive_det(minor)

    def test_empty_and_one_by_one(self):
        assert _adjugate([]) == (1, [])
        assert _adjugate([[5]]) == (5, [[1]])
        assert _adjugate([[-3]]) == (-3, [[1]])

    @pytest.mark.parametrize("mat", [
        [[0]],
        [[0, 1], [1, 0]],
        [[1, 1, 0], [1, 1, 1], [0, 1, 1]],  # det -1, second leading minor 0
    ], ids=["1x1", "first", "second"])
    def test_zero_pivot_is_refused(self, mat):
        with pytest.raises(ArithmeticError, match="zero pivot"):
            _adjugate(mat)

    @NON_SQUARE
    def test_non_square_is_refused(self, mat):
        with pytest.raises(ValueError, match="not square"):
            _adjugate(mat)

    @settings(max_examples=50, deadline=None)
    @given(nearly_symmetric_matrices())
    def test_non_symmetric_is_refused(self, mat):
        with pytest.raises(ValueError, match="not symmetric"):
            _adjugate(mat)

    @settings(max_examples=100, deadline=None)
    @given(dominant_symmetric_matrices())
    def test_times_the_matrix_is_det_times_identity(self, mat):
        n = len(mat)
        det, adj = _adjugate(mat)
        assert det == det_bareiss(mat)
        assert [[sum(map(mul, row, col)) for col in zip(*adj)] for row in mat] == [
            [det if i == j else 0 for j in range(n)] for i in range(n)]

    def test_matches_gauss_jordan_on_the_deletion_suite(self, monkeypatch):
        shifted = []

        def recorded(mat):
            shifted.append([row[:] for row in mat])
            return _adjugate(mat)

        monkeypatch.setattr(laplacian_module, "_adjugate", recorded)
        assert verify.verify_deletion_suite().passed
        assert len(shifted) == 206
        for g in [make_dumbbell(8, 5, 8), make_theta(8, 8, 8)]:
            assert verify_deletion_formula(g) == (True,) * g.n
        assert [len(mat) for mat in shifted[206:]] == [21, 26]
        for mat in shifted:
            assert _adjugate(mat) == gauss_jordan_adjugate(mat)

    def test_pair_minors_by_jacobi(self):
        for g in [make_theta(2, 2, 1), make_dumbbell(4, 0, 3), K4]:
            shifted = [[(9 if i == j else 0) - v for j, v in enumerate(row)]
                       for i, row in enumerate(laplacian(g))]
            det, adj = _adjugate(shifted)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert _pair_minor(adj, det, u, v) == det_bareiss(
                        submatrix_deleting(shifted, {u, v}))

    def test_a_remainder_is_not_a_minor(self):
        # (1 * 1 - 0 * 0) / 2 leaves 1
        assert _pair_minor([[1, 0], [0, 1]], 2, 0, 1) is None


class TestTrailingCharpolys:
    def test_interior_matrices_from_one_run(self):
        # u_matrix(k) is the trailing k x k block of u_matrix(40)
        assert trailing_charpolys(u_matrix(40)) == [charpoly(u_matrix(k)) for k in range(41)]

    @pytest.mark.parametrize("seed", range(5))
    def test_trailing_blocks_of_non_symmetric_matrices(self, seed):
        rng = Random(seed)
        n = rng.randint(1, 9)
        mat = [[rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(n)] for _ in range(n)]
        want = [charpoly([row[n - k:] for row in mat[n - k:]]) for k in range(n + 1)]
        assert trailing_charpolys(mat) == want
        assert want[n] == charpoly_interpolated(mat)

    def test_empty_and_non_square(self):
        assert trailing_charpolys([]) == [IntPoly((1,))]
        with pytest.raises(ValueError):
            trailing_charpolys([[1, 2]])
