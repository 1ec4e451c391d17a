import pytest

from lapspec.graphs import Graph, make_cycle, make_dumbbell, make_path, make_theta
from lapspec.invariants import (InvalidCharpolyError, SpectralInvariants,
                                degree_constraint_solver, graph_invariants,
                                invariants_from_charpoly)
from lapspec.laplacian import charpoly, laplacian
from lapspec.polynomials import IntPoly, X
from lapspec.verify import family_members


def is_l_cospectral(a, b):
    """Exact equality of Laplacian characteristic polynomials."""
    return charpoly(laplacian(a)) == charpoly(laplacian(b))


class TestFromCharpoly:
    def test_connected_family_member(self):
        inv = invariants_from_charpoly(charpoly(laplacian(make_dumbbell(3, 1, 3))))
        assert inv == SpectralInvariants(vertices=7, edges=8, components=1,
                                         spanning_trees=9, degree_square_sum=38)

    def test_tree(self):
        inv = invariants_from_charpoly(charpoly(laplacian(make_path(5))))
        assert inv.edges == 4
        assert inv.spanning_trees == 1
        assert inv.degree_square_sum == 1 + 4 + 4 + 4 + 1

    def test_disconnected(self):
        two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        inv = invariants_from_charpoly(charpoly(laplacian(two_triangles)))
        assert inv.components == 2
        assert inv.spanning_trees is None
        assert inv.edges == 6

    def test_single_vertex(self):
        inv = invariants_from_charpoly(X)
        assert inv.vertices == 1 and inv.edges == 0
        assert inv.components == 1 and inv.spanning_trees == 1

    def test_rejects_non_laplacian_polys(self):
        with pytest.raises(InvalidCharpolyError):
            invariants_from_charpoly(IntPoly((5,)))  # degree 0
        with pytest.raises(InvalidCharpolyError):
            invariants_from_charpoly(IntPoly((0, 0, 2)))  # not monic
        with pytest.raises(InvalidCharpolyError):
            invariants_from_charpoly(IntPoly((3, 0, 1)))  # constant term
        with pytest.raises(InvalidCharpolyError):
            invariants_from_charpoly(X * X - 3 * X)  # odd eigenvalue sum
        with pytest.raises(InvalidCharpolyError):
            invariants_from_charpoly(X * X + 4 * X)  # negative eigenvalue sum


class TestGraphInvariants:
    def test_matches_direct_counts(self):
        for g in [make_cycle(7), make_theta(2, 1, 0), make_path(3)]:
            inv = graph_invariants(g)
            assert inv.vertices == g.n
            assert inv.edges == g.m
            assert inv.degree_square_sum == sum(d * d for d in g.degree_sequence())

    def test_known_tree_counts(self):
        assert graph_invariants(make_theta(2, 1, 0)).spanning_trees == 11
        assert graph_invariants(make_dumbbell(4, 1, 3)).spanning_trees == 12
        assert graph_invariants(make_cycle(5)).spanning_trees == 5


class TestCospectrality:
    def test_by_construction(self):
        assert is_l_cospectral(make_dumbbell(4, 0, 3), make_dumbbell(4, 0, 3))
        assert not is_l_cospectral(make_dumbbell(4, 0, 3), make_theta(3, 1, 1))
        assert not is_l_cospectral(make_path(4), make_path(5))


class TestDegreeConstraintSolver:
    def test_forces_family_profile(self):
        for n in range(4, 13):
            expected = {1: 0, 2: n - 2, 3: 2}
            for g in family_members(n):
                inv = graph_invariants(g)
                assert degree_constraint_solver(inv) == expected
                # the forced profile is the real one
                assert g.degree_sequence() == (3, 3) + (2,) * (n - 2)

    def test_declines_other_shapes(self):
        # tree: edge count rules it out
        assert degree_constraint_solver(graph_invariants(make_path(6))) is None
        # cycle: right edge count minus one, wrong square sum
        assert degree_constraint_solver(graph_invariants(make_cycle(6))) is None
        # bicyclic with a degree-4 vertex: square sum too large
        spikes = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4), (4, 5)])
        assert degree_constraint_solver(graph_invariants(spikes)) is None
        # disconnected bicyclic-profile union
        parts = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6),
                          (6, 3), (3, 5)])
        assert degree_constraint_solver(graph_invariants(parts)) is None

    def test_refuses_fewer_than_four_vertices(self):
        # Forged invariants that pass the connectivity, edge and square-sum
        # checks; no graph on n < 4 vertices has a vertex of degree 3.
        for n in range(1, 4):
            inv = SpectralInvariants(vertices=n, edges=n + 1, components=1,
                                     spanning_trees=1, degree_square_sum=4 * n + 10)
            assert degree_constraint_solver(inv) is None, n
