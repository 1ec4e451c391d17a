import importlib
from fractions import Fraction
from random import Random

import pytest

from lapspec.enumeration import (EnumerationTask, enumerate_graphs,
                                 random_connected_graph)
from lapspec.graphs import (Graph, make_cycle, make_dumbbell, make_path,
                            make_theta)
from lapspec.laplacian import (_charpoly_at, _charpoly_value, charpoly,
                               charpoly_interpolated, cycles_through, det_bareiss,
                               laplacian, submatrix_deleting,
                               spanning_tree_count, submatrix_charpoly,
                               trailing_charpolys, u_matrix, u_matrix_charpoly,
                               verify_deletion_formula)
from lapspec.polynomials import IntPoly, X

# the package re-exports the function laplacian under the module's name
laplacian_module = importlib.import_module("lapspec.laplacian")


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

    def test_interpolation_rejects_non_integer_charpoly(self):
        with pytest.raises(ArithmeticError):
            charpoly_interpolated([[Fraction(1, 2)]])

    @pytest.mark.parametrize("route", [charpoly, charpoly_interpolated])
    @NON_SQUARE
    def test_non_square_is_refused(self, route, mat):
        with pytest.raises(ValueError, match="not square"):
            route(mat)


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


class TestUMatrix:
    def test_shape(self):
        assert u_matrix(1) == [[2]]
        assert u_matrix(3) == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]

    def test_charpolys(self):
        assert u_matrix_charpoly(0) == IntPoly((1,))
        assert u_matrix_charpoly(1) == X - 2
        assert u_matrix_charpoly(2) == (X - 2) * (X - 2) - 1


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


class TestDeletionFormula:
    def test_families_and_k4(self):
        # K4's three 4-cycles share one vertex set; each keeps its own term
        k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        for g in [make_dumbbell(3, 1, 3), make_theta(2, 1, 0), k4]:
            assert verify_deletion_formula(g) == (True,) * g.n

    def test_one_entry_per_vertex(self):
        rng = Random(3)
        for g in [make_path(1), make_path(3), make_cycle(5)] + [
                random_connected_graph(rng, rng.randint(2, 7), rng.randint(0, 3))
                for _ in range(10)]:
            assert len(verify_deletion_formula(g)) == g.n

    def test_one_charpoly_per_deleted_set(self, monkeypatch):
        g = make_theta(2, 2, 1)
        calls = []

        def counted(mat):
            calls.append(len(mat))
            return charpoly(mat)

        monkeypatch.setattr(laplacian_module, "charpoly", counted)
        assert verify_deletion_formula(g) == (True,) * g.n
        deleted = {frozenset({u}) for u in range(g.n)}
        deleted |= {frozenset(e) for e in g.edges}
        deleted |= {frozenset(c) for u in range(g.n) for c in cycles_through(g, u)}
        assert len(calls) == 1 + len(deleted)
        assert calls[0] == g.n

    @pytest.mark.parametrize("g", [make_theta(2, 2, 1), make_dumbbell(4, 1, 3)],
                             ids=["theta(2,2,1)", "dumbbell(4,1,3)"])
    def test_a_wrong_edge_minor_fails_exactly_its_endpoints(self, monkeypatch, g):
        for u, v in g.edges:
            def corrupted(mat, delete, edge={u, v}):
                sub = submatrix_deleting(mat, delete)
                if set(delete) == edge:
                    sub[0][0] += 1
                return sub

            monkeypatch.setattr(laplacian_module, "submatrix_deleting", corrupted)
            assert verify_deletion_formula(g) == tuple(w not in (u, v)
                                                       for w in range(g.n))


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
