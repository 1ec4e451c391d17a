"""Property tests: the graph6 decoder, canonical forms, bitmask rows,
the peeled-tree charpoly value against one Bareiss elimination,
core automorphism groups on relabeled cores,
twin-pruned edge, leaf and vertex children, children built without
validation, the top-edge test against the child's own degree pairs and
against the per-edge test it replaced, the top-vertex rule against the
child's own neighbor degrees and against deleting a top vertex, the ring
laws of IntPoly, the substitution x = y + 2 + 1/y against Horner's rule on
plain dicts, and the Berkowitz charpoly against the
interpolation route on random inputs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_helpers import core_group_order, relabel, twin_pruned_edge_children

from lapspec import enumeration
from lapspec.canonical import canonical_form
from lapspec.graph6 import Graph6Error, graph6_decode, graph6_encode
from lapspec.graphs import Graph, make_path
from lapspec.laplacian import (_charpoly_at, _charpoly_value, charpoly,
                               charpoly_interpolated, laplacian, u_matrix)
from lapspec.polynomials import IntPoly, kronecker_unpack, substitute_y
from lapspec.recurrences import path_charpoly_rec, u_poly_rec

# Bounded so the suite stays quick on a slow machine.
PROPERTY = settings(max_examples=150, deadline=None)


@st.composite
def graphs(draw, max_n: int = 9) -> Graph:
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pair for pair, kept in zip(pairs, keep) if kept])


@st.composite
def forests(draw, max_n: int = 9) -> Graph:
    """Each vertex hangs on an earlier one or starts a new tree."""
    n = draw(st.integers(0, max_n))
    parents = [draw(st.one_of(st.none(), st.integers(0, v - 1))) for v in range(1, n)]
    return Graph(n, [(p, v) for v, p in enumerate(parents, 1) if p is not None])


@st.composite
def sparse_graphs(draw, max_n: int = 9) -> Graph:
    """At most n + 2 edges: cores with hung trees, and isolated vertices."""
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not pairs:
        return Graph(n)
    return Graph(n, draw(st.lists(st.sampled_from(pairs), max_size=n + 2, unique=True)))


def _edge_children(g: Graph):
    """One child per non-edge."""
    present = set(g.edges)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if (i, j) not in present:
                yield Graph(g.n, g.edges + ((i, j),))


def _top_vertices(g: Graph) -> list[int]:
    """The vertices of minimum degree whose descending neighbor-degree
    tuple is the largest among those of minimum degree, read off g."""
    adjacency = g.adjacency()
    degrees = [len(neighbors) for neighbors in adjacency]
    tuples = {v: sorted((degrees[w] for w in adjacency[v]), reverse=True)
              for v in range(g.n) if degrees[v] == min(degrees)}
    return [v for v, t in tuples.items() if t == max(tuples.values())]


def _vertex_children(g: Graph):
    """One child per neighbor set of a new vertex that leaves it a top
    vertex of the child."""
    for subset in range(1 << g.n):
        child = Graph(g.n + 1, g.edges + tuple((i, g.n) for i in range(g.n)
                                               if subset >> i & 1))
        if g.n in _top_vertices(child):
            yield child


def _is_top_edge(rows, degrees, i, j) -> bool:
    """The per-edge top-edge test the per-parent one replaced: the child's
    degree list rebuilt and every vertex scanned."""
    child = list(degrees)
    child[i] += 1
    child[j] += 1
    high, low = max(child[i], child[j]), min(child[i], child[j])
    above_low = sum(1 << v for v, d in enumerate(child) if d > low)
    return all(d < high or (d == high and not rows[v] & above_low)
               for v, d in enumerate(child))


@PROPERTY
@given(st.one_of(st.binary(max_size=64),
                 st.lists(st.integers(63, 126), max_size=64).map(bytes)))
def test_graph6_decode_raises_only_graph6_error(data):
    try:
        graph6_decode(data)
    except Graph6Error:
        pass


@PROPERTY
@given(graphs())
def test_graph6_decode_inverts_encode(g):
    back = graph6_decode(graph6_encode(g))
    assert back == g and back.edges == g.edges and back.family is None
    assert "rows" not in vars(back)  # built on first use, not by the decoder
    assert back.rows == Graph(g.n, g.edges).rows


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(), forests(), sparse_graphs()))
def test_peeled_value_matches_bareiss(g):
    # at x = 1 every leaf has P = 0; other x make a P zero further in
    mat = laplacian(g)
    for x in range(-4, g.n + 2):
        assert _charpoly_value(g, x) == _charpoly_at(mat, x)


@PROPERTY
@given(graphs(), st.randoms(use_true_random=False))
def test_canonical_form_survives_relabeling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_form(relabel(g, perm)) == canonical_form(g)


@PROPERTY
@given(st.sampled_from(enumeration._bicyclic_cores(10)), st.randoms(use_true_random=False))
def test_core_automorphisms_survive_relabeling(core, rng):
    # the closed-form test sees cores only in their built labelling
    kind, params, g = core
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabel(g, perm)
    group = enumeration._automorphisms(h)
    assert len(set(group)) == len(group) == core_group_order(kind, params)
    for sigma in group:
        assert sorted(sigma) == list(range(h.n))
        assert {tuple(sorted((sigma[i], sigma[j]))) for i, j in h.edges} == set(h.edges)


@PROPERTY
@given(graphs(max_n=8))
def test_twin_pruned_children_cover_every_class(g):
    # the vertex route's twin-prefix rule drops only children isomorphic to
    # a kept top-vertex child
    for pruned, full in ((twin_pruned_edge_children, _edge_children),
                         (enumeration._add_vertex, _vertex_children)):
        kept = [canonical_form(c) for c in pruned([g])]
        assert set(kept) == {canonical_form(c) for c in full(g)}


@PROPERTY
@given(graphs())
def test_rows_agree_with_edges(g):
    assert len(g.rows) == g.n
    assert {(i, j) for i in range(g.n) for j in range(g.n)
            if g.rows[i] >> j & 1} == {e for i, j in g.edges for e in ((i, j), (j, i))}


@PROPERTY
@given(graphs(max_n=7))
def test_trusted_children_equal_validated_graphs(g):
    vertex_children = list(enumeration._add_vertex([g]))
    children = [*twin_pruned_edge_children([g]), *enumeration._add_top_edge([g]),
                *vertex_children]
    # each vertex child has a neighbor set S leaving the new vertex a top
    # vertex; test_twin_pruned_children_cover_every_class checks that they
    # reach the forms of all such children
    top_children = list(_vertex_children(g))
    assert all(child in top_children for child in vertex_children)
    assert len(vertex_children) >= 1
    for child in children:
        built = Graph(child.n, child.edges)
        assert child == built and hash(child) == hash(built)
        assert child.edges == built.edges and child.rows == built.rows


@PROPERTY
@given(graphs(max_n=8))
def test_top_edge_has_the_largest_degree_pair(g):
    # the (larger, smaller) endpoint-degree pair of every edge of the child,
    # read off the child itself
    is_top = enumeration._top_edge_test(g.rows)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.rows[i] >> j & 1:
                continue
            child = Graph(g.n, g.edges + ((i, j),))
            deg = [row.bit_count() for row in child.rows]
            pairs = [(max(deg[a], deg[b]), min(deg[a], deg[b])) for a, b in child.edges]
            top = max(pairs) == (max(deg[i], deg[j]), min(deg[i], deg[j]))
            assert is_top(i, j) == top


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(max_n=10), sparse_graphs(max_n=10)))
def test_top_edge_test_matches_the_per_edge_test(g):
    degrees = [row.bit_count() for row in g.rows]
    is_top = enumeration._top_edge_test(g.rows)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if not g.rows[i] >> j & 1:
                assert is_top(i, j) == _is_top_edge(g.rows, degrees, i, j)


@PROPERTY
@given(graphs(max_n=7))
def test_top_vertex_deleted_and_readded_is_a_child(g):
    # G minus a top vertex w, with w re-added as the last vertex, is a child
    # that the vertex route builds from G - w
    adjacency = g.adjacency()
    for w in _top_vertices(g):
        position = {v: i for i, v in enumerate(v for v in range(g.n) if v != w)}
        parent = Graph(g.n - 1, [(position[a], position[b]) for a, b in g.edges
                                 if w not in (a, b)])
        child = Graph(g.n, parent.edges + tuple((position[v], g.n - 1)
                                                for v in sorted(adjacency[w])))
        assert canonical_form(child) in {canonical_form(c)
                                         for c in enumeration._add_vertex([parent])}



COEFFS = st.integers(-50, 50)
RINGS = {
    "IntPoly": (st.lists(COEFFS, max_size=6).map(IntPoly), IntPoly()),
}


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_ring_laws(ring):
    polys, zero = RINGS[ring]

    @PROPERTY
    @given(polys, polys, polys)
    def laws(a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + zero == a == zero + a
        assert a + (-a) == zero
        assert a - b == a + (-b)
        assert 3 - a == -a + 3 and a - 3 == a + (-3)

    laws()


def horner_on_dicts(p: IntPoly) -> dict[int, int]:
    """p at x = y + 2 + 1/y by Horner's rule on exponent -> coefficient
    dicts, without zero coefficients."""
    acc: dict[int, int] = {}
    for c in reversed(p.coeffs):
        out = {0: c}
        for e, a in acc.items():
            for shift, weight in ((1, 1), (0, 2), (-1, 1)):
                out[e + shift] = out.get(e + shift, 0) + weight * a
        acc = {e: a for e, a in out.items() if a}
    return acc


@PROPERTY
@given(st.one_of(st.integers().map(IntPoly.const),
                 st.lists(COEFFS, max_size=12).map(IntPoly),
                 st.lists(st.integers(), max_size=40).map(IntPoly)))
def test_substitute_y_matches_horner_on_dicts(p):
    # y^n p(y + 2 + 1/y) has 1-norm at most 4^n |p|, so b leaves every
    # coefficient below 2^(b-1) in magnitude
    n = max(p.degree, 0)
    b = (sum(map(abs, p.coeffs)) << 2 * n).bit_length() + 2
    shifted = kronecker_unpack(substitute_y(p, n, b), b, 2 * n)
    assert {e - n: c for e, c in enumerate(shifted.coeffs) if c} == horner_on_dicts(p)


@st.composite
def square_matrices(draw, max_n: int = 7):
    """Square integer matrices, not symmetric, often with zero rows and
    columns."""
    n = draw(st.integers(0, max_n))
    mat = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                        min_size=n, max_size=n))
    if n:
        lines = st.sets(st.integers(0, n - 1), max_size=2)
        for i in draw(lines):
            mat[i] = [0] * n
        for j in draw(lines):
            for row in mat:
                row[j] = 0
    return mat


@PROPERTY
@given(square_matrices())
def test_berkowitz_matches_interpolation(mat):
    assert charpoly(mat) == charpoly_interpolated(mat)


@pytest.mark.parametrize("mat, expected", [
    (u_matrix(40), u_poly_rec(40)),
    (laplacian(make_path(40)), path_charpoly_rec(40)),
], ids=["u_matrix(40)", "path(40)"])
def test_berkowitz_on_large_tridiagonals(mat, expected):
    assert charpoly(mat) == expected
