import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_helpers import relabel

import lapspec
from lapspec import verify
from lapspec.canonical import canonical_form
from lapspec.enumeration import enumerate_by_vertex_growth
from lapspec.graphs import (DumbbellParams, Graph, ThetaParams, classify_bicyclic,
                            connected_components, dumbbell_graph,
                            dumbbell_parameter_grid, is_connected, make_cycle,
                            make_dumbbell, make_path, make_theta,
                            theta_graph, theta_parameter_grid)


class TestGraphBasics:
    def test_edge_normalization(self):
        g = Graph(4, [(2, 0), (3, 1), (0, 1)])
        assert g.edges == ((0, 1), (0, 2), (1, 3))
        assert g.m == 3

    def test_rejects_loops_duplicates_and_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(-1)

    @pytest.mark.parametrize("n, edges", [(3.0, [(0, 1)]), (3, [(0, 1.0), (1, 2)]),
                                          (3, [(0.5, 1)])],
                             ids=["float n", "float endpoint", "fractional endpoint"])
    def test_rejects_non_integers(self, n, edges):
        with pytest.raises(TypeError):
            Graph(n, edges)

    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0 and g.m == 0
        assert g.degree_sequence() == ()
        assert is_connected(g)

    def test_adjacency_and_degrees(self):
        g = make_path(4)
        adj = g.adjacency()
        assert adj[0] == {1} and adj[1] == {0, 2}
        assert g.degree_sequence() == (2, 2, 1, 1)

    def test_family_not_compared(self):
        a = make_dumbbell(3, 0, 3)
        b = dumbbell_graph(3, 0, 3)
        assert a == b
        assert a.family == DumbbellParams(3, 0, 3)
        assert b.family is None


class TestParams:
    def test_dumbbell_validation(self):
        DumbbellParams(3, 0, 3).validate()
        for bad in [(2, 0, 2), (3, -1, 3), (3, 0, 4)]:
            with pytest.raises(ValueError):
                DumbbellParams(*bad).validate()
        assert DumbbellParams(5, 2, 4).vertex_count == 11

    def test_theta_validation(self):
        ThetaParams(1, 1, 0).validate()
        for bad in [(2, 0, 0), (1, 2, 0), (0, 0, 0), (2, 1, -1)]:
            with pytest.raises(ValueError):
                ThetaParams(*bad).validate()
        assert ThetaParams(3, 2, 1).vertex_count == 8


class TestBuilders:
    def test_path_and_cycle(self):
        assert make_path(0).n == 0
        assert make_path(1).m == 0
        assert make_path(5).degree_sequence() == (2, 2, 2, 1, 1)
        assert make_cycle(3).degree_sequence() == (2, 2, 2)
        with pytest.raises(ValueError):
            make_path(-1)
        with pytest.raises(ValueError):
            make_cycle(2)

    @pytest.mark.parametrize("p,k,q", [(3, 0, 3), (4, 2, 3), (5, 0, 5), (6, 3, 3)])
    def test_dumbbell_shape(self, p, k, q):
        g = make_dumbbell(p, k, q)
        n = p + q + k
        assert g.n == n and g.m == n + 1
        assert g.degree_sequence() == (3, 3) + (2,) * (n - 2)
        assert is_connected(g)

    @pytest.mark.parametrize("r,s,t", [(1, 1, 0), (1, 1, 1), (3, 2, 0), (4, 2, 2)])
    def test_theta_shape(self, r, s, t):
        g = make_theta(r, s, t)
        n = r + s + t + 2
        assert g.n == n and g.m == n + 1
        assert g.degree_sequence() == (3, 3) + (2,) * (n - 2)
        assert is_connected(g)

    def test_loose_builders_accept_any_order(self):
        assert dumbbell_graph(3, 1, 5).n == 9
        assert theta_graph(0, 2, 1).n == 5
        with pytest.raises(ValueError):
            dumbbell_graph(2, 0, 3)
        with pytest.raises(ValueError):
            theta_graph(3, 0, 0)

    def test_strict_builders_reject_unnormalized(self):
        with pytest.raises(ValueError):
            make_dumbbell(3, 0, 4)
        with pytest.raises(ValueError):
            make_theta(1, 2, 1)


class TestRelabel:
    def test_roundtrip(self):
        g = make_dumbbell(4, 1, 3)
        perm = list(reversed(range(g.n)))
        h = relabel(g, perm)
        assert h != g
        assert relabel(h, perm) == g

    def test_mapping_dict(self):
        g = make_path(3)
        h = relabel(g, {0: 2, 1: 1, 2: 0})
        assert h.edges == ((0, 1), (1, 2))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            relabel(make_path(3), [0, 0, 1])


class TestConnectivity:
    def test_components(self):
        g = Graph(5, [(0, 1), (3, 4)])
        assert connected_components(g) == [[0, 1], [2], [3, 4]]
        assert not is_connected(g)
        assert is_connected(make_cycle(6))


class TestClassifyBicyclic:
    def test_dumbbell_roundtrip(self):
        for p, k, q in [(3, 0, 3), (4, 0, 3), (5, 2, 4), (3, 4, 3), (6, 1, 6)]:
            got = classify_bicyclic(make_dumbbell(p, k, q))
            assert got == DumbbellParams(p, k, q)

    def test_theta_roundtrip(self):
        for r, s, t in [(1, 1, 0), (1, 1, 1), (4, 2, 0), (3, 3, 3), (5, 1, 1)]:
            got = classify_bicyclic(make_theta(r, s, t))
            assert got == ThetaParams(r, s, t)

    def test_normalizes_loose_layouts(self):
        assert classify_bicyclic(dumbbell_graph(3, 2, 5)) == DumbbellParams(5, 2, 3)
        assert classify_bicyclic(theta_graph(1, 2, 1)) == ThetaParams(2, 1, 1)

    def test_survives_relabeling(self):
        g = relabel(make_dumbbell(4, 1, 3), list(reversed(range(8))))
        assert classify_bicyclic(g) == DumbbellParams(4, 1, 3)
        h = relabel(make_theta(2, 2, 1), [3, 0, 6, 1, 4, 2, 5])
        assert classify_bicyclic(h) == ThetaParams(2, 2, 1)

    def test_rejects_outsiders(self):
        assert classify_bicyclic(make_cycle(5)) is None
        assert classify_bicyclic(make_path(4)) is None
        k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert classify_bicyclic(k4) is None
        # right edge count, wrong degree profile
        star_plus = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
        assert classify_bicyclic(star_plus) is None
        # right profile shape is impossible when disconnected, but check anyway
        two_parts = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6),
                              (6, 3), (3, 5)])
        assert classify_bicyclic(two_parts) is None


def _in_profile(g: Graph) -> bool:
    """Connected with n + 1 edges and degree profile (3, 3, 2, ..., 2)."""
    return (is_connected(g) and g.m == g.n + 1
            and g.degree_sequence() == (3, 3) + (2,) * (g.n - 2))


def _member(params) -> Graph:
    if isinstance(params, DumbbellParams):
        return make_dumbbell(params.p, params.k, params.q)
    return make_theta(params.r, params.s, params.t)


def _check_classification(g: Graph) -> None:
    """classify_bicyclic answers exactly on the profile, with the parameters
    of a member isomorphic to g."""
    params = classify_bicyclic(g)
    assert (params is not None) == _in_profile(g), g.edges
    if params is not None:
        assert canonical_form(_member(params)) == canonical_form(g), (g.edges, params)


class TestClassificationCoverage:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_every_pool_graph(self, n, bicyclic_pool):
        pool = bicyclic_pool(n)
        for g in pool:
            _check_classification(g)
        members = sum(classify_bicyclic(g) is not None for g in pool)
        assert members == len(verify.family_members(n))

    def test_every_census_graph(self):
        levels = []
        enumerate_by_vertex_growth(7, levels=levels)
        graphs = [g for level in levels for g in level.values()]
        assert len(graphs) == 1 + 1 + 2 + 4 + 11 + 34 + 156 + 1044
        for g in graphs:
            _check_classification(g)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_relabeled_members(self, data):
        n = data.draw(st.integers(4, 15))
        member = data.draw(st.sampled_from(verify.family_members(n)))
        g = relabel(member, data.draw(st.permutations(range(n))))
        assert classify_bicyclic(g) == member.family
        _check_classification(g)


class TestParameterGrids:
    def test_one_definition(self):
        # the grids live in graphs and are re-exported, not redefined
        for name in ("dumbbell_parameter_grid", "theta_parameter_grid"):
            assert getattr(lapspec, name) is getattr(verify, name) \
                is globals()[name]
