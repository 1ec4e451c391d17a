import hashlib
from collections import Counter
from functools import lru_cache
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_helpers import relabel

from lapspec import canonical, enumeration
from lapspec.canonical import are_isomorphic, canonical_form
from lapspec.enumeration import (EnumerationTask, enumerate_by_vertex_growth,
                                 enumerate_graphs)
from lapspec.graph6 import graph6_encode, graph6_pack
from lapspec.graphs import (Graph, dumbbell_graph, make_cycle, make_dumbbell,
                            make_path, make_theta, theta_graph)

# SHA-256 of b"\n".join(sorted canonical forms of every graph on n vertices),
# recorded with the set-based search that preceded the bitmask kernel.
CENSUS_DIGESTS = {
    0: "8a8de823d5ed3e12746a62ef169bcf372be0ca44f0a1236abc35df05d96928e1",
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1",
    3: "7e05eb99d8336feba4819edbcfd42edfb66a1afc1debc1110c0ae9a435f39e35",
    4: "1146199424866a6532f8af7d2f90d888e9b50c40c82158ac3dfe4fd9b44feaa8",
    5: "e9e17cde42f9035ed8921825c31e79b7bcef5e474aac2d1a2cd3a53fa1856f02",
    6: "81fb828117b6fe9bceeb3fbb6fc961d093aefd5544b622522fa8ed316d7d1295",
    7: "d0ae4f25fd5643b9320bd57b7400e135de3dc5bfcaee47abe9344f186b620651",
}
CENSUS_TOTALS = [1, 1, 2, 4, 11, 34, 156, 1044]  # OEIS A000088


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    return tuple(enumerate_by_vertex_growth(n))


def canonical_permutation(g: Graph) -> tuple[int, ...]:
    """Position -> original vertex for the canonical relabeling."""
    return tuple(canonical._search(g)[1])


def canonical_graph(g: Graph) -> Graph:
    """g relabeled by its canonical permutation."""
    perm = canonical_permutation(g)
    return relabel(g, {v: i for i, v in enumerate(perm)})


def cell_colors(n, adj):
    """Each vertex's color: the index of its class in the refinement's
    classes, which are in color order."""
    colors = [0] * n
    for c, cell in enumerate(canonical._refined_cells(n, adj)):
        for v in cell:
            colors[v] = c
    return colors


def oracle_refined_colors(n, adj):
    """The refinement with a sorted tuple key per vertex, as the kernel had
    it before the int keys."""
    colors = [len(adj[v]) for v in range(n)]
    distinct = len(set(colors))
    while True:
        get = colors.__getitem__
        keys = [(colors[v], *sorted(map(get, adj[v]))) for v in range(n)]
        rank = dict(zip(sorted(set(keys)), range(n)))
        new = list(map(rank.__getitem__, keys))
        if len(rank) in (distinct, n):
            return new
        colors, distinct = new, len(rank)


def oracle_search(g: Graph):
    """The search that rebuilds every vertex's right-aligned field against
    the placed prefix at each position, as the kernel had it before the
    sparse left-aligned score updates.  Returns (fields, order)."""
    n, rows = g.n, g.rows
    colors = oracle_refined_colors(n, g.adjacency())
    cells = [[] for _ in range(max(colors, default=-1) + 1)]
    for v, color in enumerate(colors):
        cells[color].append(v)
    cells.sort(key=len)
    cell_at = [cell for cell in cells for _ in cell]
    fields = [0] * n
    order = [0] * n
    best, best_order = [], []

    def walk(pos, scores, free, ahead):
        nonlocal best, best_order
        while pos < n:
            if pos:
                row = rows[order[pos - 1]]
                scores = [(s << 1) | (row >> v & 1) for v, s in enumerate(scores)]
            reps = [v for v in cell_at[pos] if free >> v & 1]
            if len(reps) == 1:
                top = scores[reps[0]]
            else:
                top = max([scores[v] for v in reps])
                candidates, reps = reps, []
                for v in candidates:
                    if scores[v] != top:
                        continue
                    row = rows[v]
                    for w in reps:
                        if row & ~(1 << w) == rows[w] & ~(1 << v):
                            break
                    else:
                        reps.append(v)
            if not ahead:
                if top < best[pos]:
                    return False
                ahead = top > best[pos]
            fields[pos] = top
            if len(reps) > 1:
                improved = False
                for x in reps:
                    order[pos] = x
                    if walk(pos + 1, scores, free & ~(1 << x), ahead):
                        improved, ahead = True, False
                return improved
            x = order[pos] = reps[0]
            free &= ~(1 << x)
            pos += 1
        if ahead:
            best, best_order = fields.copy(), order.copy()
        return ahead

    walk(0, [0] * n, (1 << n) - 1, True)
    return best, best_order


def assert_matches_oracle(g: Graph) -> None:
    fields, order = oracle_search(g)
    assert canonical_form(g) == graph6_pack(g.n, fields), graph6_encode(g)
    assert canonical_permutation(g) == tuple(order), graph6_encode(g)
    assert cell_colors(g.n, g.adjacency()) == oracle_refined_colors(g.n, g.adjacency())


@st.composite
def graphs(draw, max_n: int = 14) -> Graph:
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pair for pair, kept in zip(pairs, keep) if kept])


def shuffled(g: Graph, rng: Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = Random(11)
        samples = [
            make_path(7), make_cycle(8), make_dumbbell(4, 2, 3),
            make_theta(3, 2, 1), make_theta(1, 1, 0),
            Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),
        ]
        for g in samples:
            want = canonical_form(g)
            for _ in range(12):
                assert canonical_form(shuffled(g, rng)) == want

    def test_distinct_across_small_census(self):
        forms = set()
        total = 0
        for m in range(11):
            for g in enumerate_graphs(EnumerationTask(5, m)):
                total += 1
                forms.add(canonical_form(g))
        assert len(forms) == total == 34

    def test_idempotent(self):
        g = make_dumbbell(5, 1, 3)
        c = canonical_graph(g)
        assert canonical_graph(c) == c
        assert canonical_form(c) == canonical_form(g)

    def test_permutation_is_bijection(self):
        g = make_theta(2, 2, 2)
        perm = canonical_permutation(g)
        assert sorted(perm) == list(range(g.n))
        # perm maps position -> original vertex, so invert it to relabel
        assert relabel(g, {v: i for i, v in enumerate(perm)}) == canonical_graph(g)


class TestCensusIdentity:
    @pytest.mark.parametrize("n", sorted(CENSUS_DIGESTS))
    def test_census_forms_digest(self, n):
        forms = sorted(canonical_form(g) for g in all_graphs(n))
        assert len(forms) == CENSUS_TOTALS[n]
        assert hashlib.sha256(b"\n".join(forms)).hexdigest() == CENSUS_DIGESTS[n]

    def test_every_class_on_seven_vertices_survives_relabeling(self):
        rng = Random(7)
        forms = set()
        for g in all_graphs(7):
            want = canonical_form(g)
            forms.add(want)
            for _ in range(3):
                assert canonical_form(shuffled(g, rng)) == want, graph6_encode(g)
        assert len(forms) == 1044

    def test_graph_atlas(self):
        networkx = pytest.importorskip("networkx")
        atlas = networkx.graph_atlas_g()
        forms = {}
        for nx_graph in atlas:
            g = Graph(nx_graph.number_of_nodes(), nx_graph.edges())
            forms.setdefault(canonical_form(g), g.n)
        assert len(atlas) == len(forms) == 1253
        per_n = Counter(forms.values())
        assert [per_n[n] for n in range(8)] == CENSUS_TOTALS


class TestAreIsomorphic:
    def test_same_degree_sequence_not_isomorphic(self):
        # C6 against two triangles: both 2-regular on six vertices
        c6 = make_cycle(6)
        triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not are_isomorphic(c6, triangles)

    def test_path_vs_star(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert not are_isomorphic(make_path(4), star)

    def test_swapped_cycle_roles(self):
        assert are_isomorphic(dumbbell_graph(3, 1, 5), dumbbell_graph(5, 1, 3))
        assert are_isomorphic(theta_graph(0, 1, 3), theta_graph(3, 1, 0))

    def test_different_sizes(self):
        assert not are_isomorphic(make_path(3), make_path(4))

    def test_regular_graphs(self):
        petersen = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                              (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                              (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])
        prism = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
                      + [(i, 5 + i) for i in range(5)])
        rng = Random(23)
        assert are_isomorphic(petersen, shuffled(petersen, rng))
        assert not are_isomorphic(petersen, prism)


class TestOracle:
    """The kernel gives the same certificates and permutations, byte for
    byte, as the search it replaced."""

    def test_every_class_and_vertex_route_child(self):
        levels = []
        enumerate_by_vertex_growth(7, levels=levels)
        for level in levels:
            for g in level.values():
                assert_matches_oracle(g)
        children = 0
        for level in levels[:7]:
            for child in enumeration._add_vertex(level.values()):
                assert_matches_oracle(child)
                children += 1
        assert children == 1673

    @pytest.mark.parametrize("n", range(4, 11))
    def test_every_pool_graph(self, n, bicyclic_pool):
        for g in bicyclic_pool(n):
            assert_matches_oracle(g)

    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.randoms(use_true_random=False))
    def test_random_graphs_and_relabelings(self, g, rng):
        assert_matches_oracle(g)
        assert_matches_oracle(shuffled(g, rng))


class TestRefinedColors:
    def test_regular_graph_is_monochrome(self):
        g = make_cycle(7)
        assert len(set(cell_colors(g.n, g.adjacency()))) == 1

    def test_separates_by_structure(self):
        g = make_path(5)
        colors = cell_colors(g.n, g.adjacency())
        # ends, their neighbors, and the middle all land in distinct classes
        assert colors[0] == colors[4]
        assert colors[1] == colors[3]
        assert len({colors[0], colors[1], colors[2]}) == 3

    def test_dumbbell_hubs_separate(self):
        g = make_dumbbell(4, 1, 4)
        colors = cell_colors(g.n, g.adjacency())
        hubs = [v for v, d in enumerate(map(len, g.adjacency())) if d == 3]
        assert colors[hubs[0]] == colors[hubs[1]]
        others = [colors[v] for v in range(g.n) if v not in hubs]
        assert colors[hubs[0]] not in others
