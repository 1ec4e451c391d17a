import bisect
import hashlib
from itertools import combinations
from random import Random

import pytest

from graph_helpers import core_group_order, relabel, twin_pruned_edge_children
from test_acceptance import POOL_DIGEST_12

from lapspec import enumeration, verify
from lapspec.canonical import canonical_form
from lapspec.enumeration import (DEFAULT_CAP, EnumerationCapError,
                                 EnumerationTask, enumerate_by_vertex_growth,
                                 enumerate_graphs, random_connected_graph)
from lapspec.graph6 import graph6_decode, graph6_encode
from lapspec.graphs import Graph, is_connected
from lapspec.verify import (family_members, verify_census, verify_cospectral_structure,
                            verify_determination)

# SHA-256 of b"\n".join(sorted forms) of the connected (n, n+1) pools,
# computed by growing every graph from the empty graph and keeping the
# connected ones (n <= 10), and by the tree-first edge route (n = 11), a
# route since deleted; the structural route reproduces them all.
POOL_DIGESTS = {
    4: "6d8e7398da5d5577f9976742a966a66ab47296f98fe8d2f6393061a8134926cf",
    5: "f45965cb6720dbc80e37bc80739a8a577f4178ef5c54ddf13383faffb815849e",
    6: "638ef2d9781588a1615b71bd469620e4e8f2e34fba82e13e448b4357ea382b9e",
    7: "2337f221ab0ec4fcaa17ad7822e703e938d24af4e46958f258e6cd5515995d07",
    8: "df3b59de8375d147071d270a8ad848b541fce26b22e69aaae1e682f0cd3c70b3",
    9: "7fe02632bbe85a32334f8c531439c63f9120423e05bc9a8a5cb6ef98d57ed0d0",
    10: "384ec7627d27f06fa4ccb46587d57932d1899710b1371805a44640e5555772c2",
    11: "8edbc836aab7cc59494d632b16b6b2689ea98bc4a60014382872391aa9e6e9a0",
}
# Connected graphs with n vertices and n + 1 edges, n = 4..11 (OEIS A001435).
POOL_SIZES = {4: 1, 5: 5, 6: 19, 7: 67, 8: 236, 9: 797, 10: 2678, 11: 8833}


@pytest.fixture
def private_memo(monkeypatch):
    """An empty memo for this test only; the shared one is put back after."""
    monkeypatch.setattr(enumeration, "_memo", {})
    return enumeration._memo


def _forms(graphs):
    return [canonical_form(g) for g in graphs]


def _top_vertex_subsets(g: Graph) -> list[tuple[int, ...]]:
    """The neighbor sets S of a new vertex that is a top vertex of the
    child, read off the child: of minimum degree, with the largest
    descending neighbor-degree tuple among the minimum-degree vertices."""
    kept = []
    for k in range(g.n + 1):
        for subset in combinations(range(g.n), k):
            child = Graph(g.n + 1, g.edges + tuple((i, g.n) for i in subset))
            adjacency = child.adjacency()
            degrees = [len(neighbors) for neighbors in adjacency]
            tuples = [sorted((degrees[w] for w in adjacency[v]), reverse=True)
                      for v in range(child.n) if degrees[v] == min(degrees)]
            if degrees[g.n] == min(degrees) and tuples[-1] == max(tuples):
                kept.append(subset)
    return kept


def _meets_twins_in_prefixes(g: Graph, subset: tuple[int, ...]) -> bool:
    """Whether subset holds, of every twin class of g in vertex order, only
    a prefix.  Twins v, w have N(v) - {w} = N(w) - {v}, compared pairwise."""
    adjacency = g.adjacency()
    for v in range(g.n):
        for w in range(v + 1, g.n):
            if (w in subset and v not in subset
                    and adjacency[v] - {w} == adjacency[w] - {v}):
                return False
    return True


def _kept_children(levels) -> int:
    """How many children the vertex route builds from the classes on each
    of these vertex counts: one per top-vertex neighbor set that meets
    every twin class in a prefix."""
    return sum(1 for n in levels for g in enumerate_by_vertex_growth(n)
               for subset in _top_vertex_subsets(g)
               if _meets_twins_in_prefixes(g, subset))


@pytest.fixture
def canonical_calls(monkeypatch):
    """The argument of every canonical_form call the enumeration module
    makes.  Each must be a Graph: the benchmark counts these calls and
    buckets them by ``g.n``."""
    calls = []

    def counted(g):
        assert isinstance(g, Graph)
        calls.append(g)
        return canonical_form(g)

    monkeypatch.setattr(enumeration, "canonical_form", counted)
    return calls


@pytest.fixture
def init_calls(monkeypatch):
    """A counter of Graph.__init__ calls, the validating constructor."""
    calls = []
    init = Graph.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted)
    return calls


class TestTaskValidation:
    def test_rejects_impossible_edge_counts(self):
        with pytest.raises(ValueError):
            EnumerationTask(4, 7).validate()
        with pytest.raises(ValueError):
            EnumerationTask(3, -1).validate()
        with pytest.raises(ValueError):
            EnumerationTask(-1, 0).validate()

    @pytest.mark.parametrize("task", [EnumerationTask(5, 6.0, connected=True),
                                      EnumerationTask(5, 3.0), EnumerationTask(5.0, 3)],
                             ids=["m-float-pool", "m-float", "n-float"])
    def test_rejects_non_integer_sizes(self, tmp_path, task):
        with pytest.raises(TypeError):
            enumerate_graphs(task, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_cache_name_is_distinct(self):
        names = {
            EnumerationTask(5, 4).cache_name(),
            EnumerationTask(5, 4, connected=True).cache_name(),
        }
        assert len(names) == 2


class TestCounts:
    def test_census_n4(self):
        per_edges = [len(enumerate_graphs(EnumerationTask(4, m))) for m in range(7)]
        assert per_edges == [1, 1, 2, 3, 2, 1, 1]
        assert sum(per_edges) == 11

    def test_trees(self):
        # connected graphs with n-1 edges are exactly the trees
        known = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}
        for n, count in known.items():
            pool = enumerate_graphs(EnumerationTask(n, n - 1, connected=True))
            assert len(pool) == count, n

    def test_cubic_graphs_on_six_vertices(self):
        pool = [g for g in enumerate_graphs(EnumerationTask(6, 9, connected=True))
                if g.degree_sequence() == (3,) * 6]
        assert len(pool) == 2  # the prism and the complete bipartite 3x3

    def test_connected_filter_agrees_with_post_filter(self):
        task_all = EnumerationTask(6, 6)
        task_conn = EnumerationTask(6, 6, connected=True)
        unfiltered = enumerate_graphs(task_all)
        pruned = enumerate_graphs(task_conn)
        assert [g for g in unfiltered if is_connected(g)] == pruned


class TestPoolIdentity:
    @pytest.mark.parametrize("n", sorted(POOL_DIGESTS))
    def test_connected_bicyclic_pool_digest(self, n):
        pool = enumerate_graphs(EnumerationTask(n, n + 1, connected=True), cap=n)
        assert len(pool) == POOL_SIZES[n]
        digest = hashlib.sha256(b"\n".join(sorted(_forms(pool)))).hexdigest()
        assert digest == POOL_DIGESTS[n]

    @pytest.mark.parametrize("n", range(8))
    def test_every_task_matches_vertex_growth(self, n, private_memo):
        by_growth = enumerate_by_vertex_growth(n)
        edge_counts = range(n * (n - 1) // 2 + 1)
        # ascending: a fresh seed, then every sparse task resumes one level
        # and every dense one complements the level of its mirror
        for m in edge_counts:
            expected = sorted(canonical_form(g) for g in by_growth if g.m == m)
            assert _forms(enumerate_graphs(EnumerationTask(n, m))) == expected, m
        private_memo.clear()
        # descending: the dense tasks grow the sparse levels as their
        # mirrors and complement them, then each sparse connected task
        # filters a level that growth wrote on the way
        for m in reversed(edge_counts):
            expected = sorted(canonical_form(g) for g in by_growth
                              if g.m == m and is_connected(g))
            pool = enumerate_graphs(EnumerationTask(n, m, connected=True))
            assert _forms(pool) == expected, m

    def test_connected_tasks_resume_from_the_census_levels(self, private_memo,
                                                           canonical_calls):
        # the census grows every unconnected (7, m) level, so a connected
        # (7, 9) task only filters the (7, 9) level it finds in the memo
        assert verify_census(n_max=7).passed
        canonical_calls.clear()
        pool = enumerate_graphs(EnumerationTask(7, 9, connected=True))
        assert len(pool) == 107
        assert all(is_connected(g) for g in pool)
        assert canonical_calls == []

    def test_resume_reuses_the_decoded_level(self, private_memo, monkeypatch):
        # (7, 8) resumes from the (7, 7) level its caller was just handed
        monkeypatch.setattr(enumeration, "_decoded", (None, []))
        decoded = []
        decode = enumeration.graph6_decode
        monkeypatch.setattr(enumeration, "graph6_decode",
                            lambda form: decoded.append(form) or decode(form))
        enumerate_graphs(EnumerationTask(7, 7))
        enumerate_graphs(EnumerationTask(7, 8))
        assert decoded == private_memo[EnumerationTask(7, 7)] + private_memo[EnumerationTask(7, 8)]


class TestTopEdgeRule:
    def test_equals_twin_only_growth(self):
        # every unconnected level on n <= 7 vertices, grown with and
        # without the top-edge rule from the same seed
        for n in range(8):
            full = pruned = {canonical_form(Graph(n)): Graph(n)}
            for m in range(1, n * (n - 1) // 2 + 1):
                full = enumeration._dedup(twin_pruned_edge_children(full.values()))
                pruned = enumeration._dedup(enumeration._add_top_edge(pruned.values()))
                assert sorted(pruned) == sorted(full), (n, m)

    def test_prunes_children(self, private_memo, canonical_calls):
        # unconnected (7, 10) from (7, 9): fewer children than twin pruning
        # alone builds
        below = enumerate_graphs(EnumerationTask(7, 9))
        canonical_calls.clear()
        enumerate_graphs(EnumerationTask(7, 10))
        assert len(canonical_calls) == sum(1 for _ in enumeration._add_top_edge(below))
        assert len(canonical_calls) < sum(1 for _ in twin_pruned_edge_children(below)) / 2


class TestComplementLevels:
    """A level with more than half of the C = n(n - 1)/2 vertex pairs is
    the complement of the level with C - m edges, class for class."""

    def test_dense_connected_task_equals_vertex_route(self, private_memo):
        expected = [canonical_form(g) for g in enumerate_by_vertex_growth(7)
                    if g.m == 15 and is_connected(g)]
        pool = enumerate_graphs(EnumerationTask(7, 15, connected=True))
        assert _forms(pool) == expected
        assert len(pool) == 40

    def test_dense_task_grows_only_the_sparse_levels(self, private_memo, canonical_calls):
        # (7, 15) from an empty memo grows the levels (7, 0..6), then makes
        # one canonical call per complement of a (7, 6) class
        level = enumerate_graphs(EnumerationTask(7, 15))
        assert len(level) == 41
        assert set(private_memo) == {EnumerationTask(7, m) for m in [*range(1, 7), 15]}
        assert sorted({g.m for g in canonical_calls}) == [0, 1, 2, 3, 4, 5, 6, 15]
        dense = [g for g in canonical_calls if g.m == 15]
        assert len(dense) == len(level)
        # each complement is a well-formed graph: its rows are those its
        # edges give, with no vertex its own neighbor
        assert all(g.rows == Graph(7, g.edges).rows for g in dense)
        assert sorted(_forms(dense)) == _forms(level)

    def test_complement_of_every_small_graph(self):
        for n in range(6):
            for g in enumerate_by_vertex_growth(n):
                h = enumeration._complement(g)
                assert h.m == n * (n - 1) // 2 - g.m
                assert h.rows == Graph(n, h.edges).rows
                assert not set(h.edges) & set(g.edges)
                assert enumeration._complement(h) == g


class TestStructuralRoute:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_forms_equal_edge_route(self, n, private_memo):
        task = EnumerationTask(n, n + 1, connected=True)
        structural = enumeration._bicyclic_forms(n)
        assert structural == enumeration._grow_forms(task)
        assert len(structural) == POOL_SIZES[n]

    def test_serves_only_plain_bicyclic_tasks(self, private_memo, monkeypatch):
        calls = []
        structural = enumeration._bicyclic_forms
        monkeypatch.setattr(enumeration, "_bicyclic_forms",
                            lambda n: calls.append(n) or structural(n))
        enumerate_graphs(EnumerationTask(6, 7, connected=True))
        enumerate_graphs(EnumerationTask(6, 7))
        enumerate_graphs(EnumerationTask(6, 8, connected=True))
        assert calls == [6]

    def test_one_canonical_call_per_class(self, private_memo, canonical_calls):
        pool = enumerate_graphs(EnumerationTask(9, 10, connected=True))
        assert len(canonical_calls) == len(pool) == 797

    def test_repeated_class_is_refused(self, monkeypatch):
        monkeypatch.setattr(enumeration, "canonical_form", lambda g: b"same")
        with pytest.raises(RuntimeError, match="twice"):
            enumeration._bicyclic_forms(5)

    def test_core_automorphism_groups_match_closed_forms(self):
        cores = enumeration._bicyclic_cores(12)
        kinds = {kind for kind, _, _ in cores}
        assert kinds == {"theta", "dumbbell", "figure-eight"}
        for kind, params, core in cores:
            assert core.m == core.n + 1
            group = enumeration._automorphisms(core)
            assert len(group) == core_group_order(kind, params), (kind, params)
            assert len(set(group)) == len(group)
            for sigma in group:
                assert {tuple(sorted((sigma[i], sigma[j]))) for i, j in core.edges} \
                    == set(core.edges)

    def test_rooted_tree_counts(self):
        # rooted trees on 1..9 vertices (OEIS A000081)
        trees = enumeration._rooted_trees(9)
        by_size = [sum(1 for t in trees if len(t) + 1 == size) for size in range(1, 10)]
        assert by_size == [1, 1, 2, 4, 9, 20, 48, 115, 286]


class TestValidatingConstructorCalls:
    """Children are built from their parents, and decoded graphs from their
    forms, without re-validating edges: only a seed or a core goes through
    Graph.__init__."""

    def test_edge_growth_builds_only_the_seed(self, private_memo, init_calls):
        enumeration._grow_forms(EnumerationTask(7, 10))
        assert len(init_calls) == 1

    def test_structural_route_builds_only_the_cores(self, private_memo, init_calls):
        enumeration._bicyclic_forms(8)
        assert len(init_calls) <= len(enumeration._bicyclic_cores(8)) == 29

    def test_vertex_growth_builds_only_the_seed(self, init_calls):
        enumerate_by_vertex_growth(6)
        assert len(init_calls) == 1

    def test_decoding_builds_none(self, private_memo, init_calls):
        forms = enumeration._pool_forms(EnumerationTask(7, 8, connected=True),
                                        DEFAULT_CAP, None)
        before = len(init_calls)
        assert len([graph6_decode(form) for form in forms]) == len(forms) == 67
        assert len(init_calls) == before


class TestDeterminism:
    def test_sorted_canonical_output(self):
        pool = enumerate_graphs(EnumerationTask(5, 5, connected=True))
        forms = [canonical_form(g) for g in pool]
        assert forms == sorted(forms)
        assert len(set(forms)) == len(forms)
        # returned representatives are already canonically labeled
        for g in pool:
            assert canonical_form(g) == graph6_encode(g)

    def test_repeat_call_returns_a_fresh_list(self, private_memo):
        # the decoded pool is kept between calls; a caller that edits its
        # list must not change what the next caller gets
        task = EnumerationTask(6, 7, connected=True)
        first = enumerate_graphs(task)
        first.clear()
        assert len(enumerate_graphs(task)) == POOL_SIZES[6]


class TestVertexGrowthRoute:
    @pytest.mark.parametrize("n,total", [(0, 1), (1, 1), (2, 2), (3, 4),
                                         (4, 11), (5, 34)])
    def test_census_totals(self, n, total):
        assert len(enumerate_by_vertex_growth(n)) == total

    def test_canonical_calls_take_graphs(self, canonical_calls):
        # one call for the seed and one per child: a new vertex joined to
        # each subset of the old ones that leaves it a top vertex and meets
        # every twin class in a prefix, for every class of the level below
        admissible = _kept_children(range(5))
        canonical_calls.clear()
        assert len(enumerate_by_vertex_growth(5)) == 34
        assert len(canonical_calls) == 1 + admissible == 58
        assert [g.n for g in canonical_calls[:3]] == [0, 1, 2]

    def test_census_grows_each_vertex_level_once(self, private_memo, canonical_calls,
                                                 monkeypatch):
        # 1,783 calls for the edge route, which complements its levels with
        # more than half the vertex pairs, and 1,674 for the vertex route
        # (the seed and 1,673 twin-pruned top-vertex children); the census
        # reads the vertex route's forms instead of canonicalizing its
        # classes again
        children = _kept_children(range(7))
        canonical_calls.clear()
        add_vertex = enumeration._add_vertex
        grown = []

        def counted(level):
            level = list(level)
            grown.append(sorted(g.n for g in level))
            return add_vertex(level)

        monkeypatch.setattr(enumeration, "_add_vertex", counted)
        monkeypatch.setattr(verify, "canonical_form", enumeration.canonical_form)
        report = verify_census(n_max=7)
        assert report.passed
        assert len(canonical_calls) == 1783 + 1 + children == 3457
        assert grown == [[n] * total for n, total in enumerate([1, 1, 2, 4, 11, 34, 156])]

    def test_census_canonicalizes_only_inside_the_enumerators(self, private_memo,
                                                              canonical_calls,
                                                              monkeypatch):
        # every canonical call falls inside a call of one of the two public
        # enumerators, so per-route counts can be read off the call stack
        children = _kept_children(range(7))
        canonical_calls.clear()
        inside = {"edges": 0, "vertices": 0}
        open_route = []

        def within(route, fn):
            def counted(*args, **kwargs):
                open_route.append(route)
                before = len(canonical_calls)
                try:
                    return fn(*args, **kwargs)
                finally:
                    open_route.pop()
                    inside[route] += len(canonical_calls) - before
            return counted

        vertex_calls = []
        grow = within("vertices", enumeration.enumerate_by_vertex_growth)
        monkeypatch.setattr(verify, "enumerate_graphs",
                            within("edges", enumeration.enumerate_graphs))
        monkeypatch.setattr(verify, "enumerate_by_vertex_growth",
                            lambda n, **kw: vertex_calls.append(n) or grow(n, **kw))
        monkeypatch.setattr(verify, "canonical_form", enumeration.canonical_form)
        assert verify_census(n_max=7).passed
        assert vertex_calls == list(range(8))
        assert inside == {"edges": 1783, "vertices": 1 + children} == \
            {"edges": 1783, "vertices": 1674}
        assert len(canonical_calls) == 3457

    @pytest.mark.parametrize("n", [6.5, 6.0])
    def test_refuses_a_non_integer_n_before_any_growth(self, canonical_calls, n):
        levels = []
        with pytest.raises(TypeError):
            enumerate_by_vertex_growth(n, levels=levels)
        assert canonical_calls == [] and levels == []

    def test_resumed_growth_grows_only_the_missing_levels(self, canonical_calls):
        levels = []
        assert _forms(enumerate_by_vertex_growth(3, levels=levels)) == \
            _forms(enumerate_by_vertex_growth(3))
        canonical_calls.clear()
        assert _forms(enumerate_by_vertex_growth(5, levels=levels)) == \
            _forms(enumerate_by_vertex_growth(5))
        # the fresh n = 5 growth makes 58 calls; the resumed one skips the
        # seed and the children of levels 0..2
        resumed = len(canonical_calls) - 58
        assert resumed == _kept_children((3, 4)) == 50
        assert [list(level) == sorted(level) for level in levels] == [True] * 6
        canonical_calls.clear()
        assert len(enumerate_by_vertex_growth(2, levels=levels)) == 2
        assert canonical_calls == []

    def test_equals_all_subsets_growth(self):
        # the reference attaches the new vertex to every subset
        level = {canonical_form(Graph(0))}
        for n in range(1, 8):
            children = (Graph(n, g.edges + tuple((i, n - 1) for i in subset))
                        for g in map(graph6_decode, level)
                        for k in range(n) for subset in combinations(range(n - 1), k))
            level = {canonical_form(child) for child in children}
            assert sorted(level) == _forms(enumerate_by_vertex_growth(n)), n

    def test_classes_match_edge_route(self):
        by_growth = {canonical_form(g) for g in enumerate_by_vertex_growth(5)}
        by_edges = set()
        for m in range(11):
            by_edges |= {canonical_form(g) for g in enumerate_graphs(EnumerationTask(5, m))}
        assert by_growth == by_edges


class TestCap:
    def test_default_cap_refusal(self):
        with pytest.raises(EnumerationCapError) as info:
            enumerate_graphs(EnumerationTask(DEFAULT_CAP + 1, 2))
        assert info.value.n == DEFAULT_CAP + 1
        assert info.value.cap == DEFAULT_CAP
        with pytest.raises(EnumerationCapError):
            enumerate_by_vertex_growth(DEFAULT_CAP + 1)

    def test_oversized_census_is_refused_before_any_growth(self, private_memo,
                                                           canonical_calls):
        with pytest.raises(EnumerationCapError) as info:
            verify_census(n_max=6, cap=4)
        assert (info.value.n, info.value.cap) == (5, 4)
        assert canonical_calls == [] and private_memo == {}

    def test_cap_is_adjustable(self):
        with pytest.raises(EnumerationCapError):
            enumerate_graphs(EnumerationTask(5, 3), cap=4)
        assert enumerate_graphs(EnumerationTask(5, 3), cap=5)


class TestDiskCache:
    def test_write_and_reload(self, tmp_path):
        task = EnumerationTask(6, 7, connected=True)
        enumeration._memo.pop(task, None)
        fresh = enumerate_graphs(task, cache_dir=tmp_path)
        cache_file = tmp_path / task.cache_name()
        # one line per class and nothing else
        assert cache_file.read_bytes() == b"\n".join(_forms(fresh))
        assert list(tmp_path.iterdir()) == [cache_file]  # no temp file left
        # drop the in-process memo so the next call must hit the disk file
        enumeration._memo.pop(task)
        again = enumerate_graphs(task, cache_dir=tmp_path)
        assert again == fresh

    def test_memo_hit_fills_cache_dir(self, tmp_path, private_memo):
        task = EnumerationTask(6, 7, connected=True)
        pool = enumerate_graphs(task)  # grown in-process, no cache directory
        assert task in private_memo
        assert enumerate_graphs(task, cache_dir=tmp_path) == pool
        assert (tmp_path / task.cache_name()).read_bytes() == b"\n".join(_forms(pool))

    def test_environment_selects_no_directory(self, tmp_path, monkeypatch, private_memo):
        # only the cache_dir argument names a cache directory, so a user's
        # environment cannot turn a cold run warm
        monkeypatch.setenv("LAPSPEC_CACHE_DIR", str(tmp_path))
        pool = enumerate_graphs(EnumerationTask(6, 7, connected=True))
        assert list(tmp_path.iterdir()) == []
        assert len(pool) == POOL_SIZES[6] == 19

    def test_file_is_the_joined_forms_under_the_pinned_digest(self, tmp_path, private_memo):
        task = EnumerationTask(5, 6, connected=True)
        forms = _forms(enumerate_graphs(task, cache_dir=tmp_path))
        data = (tmp_path / "n5_m6_conn.g6").read_bytes()
        assert data == b"\n".join(forms)
        assert hashlib.sha256(data).hexdigest() == POOL_DIGESTS[5]

    def test_library_pins_are_the_independently_grown_digests(self):
        assert enumeration.POOL_DIGESTS == {**POOL_DIGESTS, 12: POOL_DIGEST_12}

    @pytest.mark.parametrize("call", [
        lambda d: enumerate_graphs(EnumerationTask(5, 4), cache_dir=d),
        lambda d: enumerate_graphs(EnumerationTask(5, 5, connected=True), cache_dir=d),
        lambda d: verify_determination(13, cap=13, cache_dir=d),
    ], ids=["not-connected", "not-a-pool", "pool-13"])
    def test_tasks_without_a_pinned_digest_are_refused(self, tmp_path, private_memo,
                                                       canonical_calls, call):
        # no digest could vouch for such a file, so none is read or written
        with pytest.raises(ValueError, match="pinned digests") as info:
            call(tmp_path)
        assert type(info.value) is ValueError
        assert canonical_calls == [] and private_memo == {}
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def _assert_regrown(report, cache_file):
        # the whole pool, and the file rewritten to the grown bytes
        assert report.passed
        assert report.counts["pool"] == POOL_SIZES[8] == 236
        data = cache_file.read_bytes()
        assert hashlib.sha256(data).hexdigest() == POOL_DIGESTS[8]
        assert data == b"\n".join(enumeration._memo[EnumerationTask(8, 9, connected=True)])

    @staticmethod
    def _forge_members(cache_dir):
        """The 10 members' canonical forms at n = 8 in the file format: a
        pool of 10 would let both pool suites pass against a tenth of the
        pool."""
        cache_file = cache_dir / EnumerationTask(8, 9, connected=True).cache_name()
        cache_file.write_bytes(b"\n".join(sorted(canonical_form(g)
                                                 for g in family_members(8))))
        return cache_file

    def test_forged_pool_file_cannot_pass_determination(self, tmp_path, private_memo):
        cache_file = self._forge_members(tmp_path)
        self._assert_regrown(verify_determination(8, cache_dir=tmp_path), cache_file)

    def test_forged_pool_file_cannot_pass_cospectral_structure(self, tmp_path, private_memo):
        cache_file = self._forge_members(tmp_path)
        self._assert_regrown(verify_cospectral_structure(8, cache_dir=tmp_path), cache_file)

    def test_same_count_forgery_is_regrown(self, tmp_path, private_memo):
        # the true file with one class swapped for a relabeled, non-canonical
        # string of another pool graph: 236 sorted lines, one class twice
        task = EnumerationTask(8, 9, connected=True)
        forms = list(enumeration._bicyclic_forms(8))
        forged = graph6_encode(relabel(graph6_decode(forms[0]), list(range(7, -1, -1))))
        assert forged not in forms and canonical_form(graph6_decode(forged)) == forms[0]
        i = bisect.bisect(forms, forged)  # forms[i - 1] < forged < forms[i]
        forms[i] = forged
        assert i > 0 and forms == sorted(forms) and len(set(forms)) == 236
        cache_file = tmp_path / task.cache_name()
        cache_file.write_bytes(b"\n".join(forms))
        self._assert_regrown(verify_determination(8, cache_dir=tmp_path), cache_file)

    def test_truncated_cache_is_regrown(self, tmp_path, private_memo):
        # A cache holding only the family members, not canonically labeled
        # and with a final newline, must not let determination pass at n=8
        # against 10 pool graphs instead of 236.
        task = EnumerationTask(8, 9, connected=True)
        members = [graph6_encode(g) for g in family_members(8)]
        cache_file = tmp_path / task.cache_name()
        cache_file.write_bytes(b"\n".join(sorted(members)) + b"\n")
        self._assert_regrown(verify_determination(8, cache_dir=tmp_path), cache_file)

    @pytest.mark.parametrize("damage", ["drop last line", "wrong task", "unsorted",
                                        "bad digest", "final newline", "old format",
                                        "empty"])
    def test_damaged_cache_is_regrown_and_rewritten(self, tmp_path, damage, private_memo):
        task = EnumerationTask(6, 7, connected=True)
        forms = _forms(enumerate_graphs(task))
        good = b"\n".join(forms)
        body = good + b"\n"
        damaged = {
            "drop last line": b"\n".join(forms[:-1]),
            "wrong task": b"\n".join(_forms(enumerate_graphs(EnumerationTask(7, 8, True)))),
            "unsorted": b"\n".join(forms[::-1]),
            "bad digest": good[:-1] + bytes([good[-1] ^ 1]),
            "final newline": body,
            # the header format files had before the digests were pinned
            "old format": (f"#lapspec-pool 1 {task.cache_name()} {len(forms)} "
                           f"{hashlib.sha256(body).hexdigest()}\n").encode() + body,
            "empty": b"",
        }[damage]
        cache_file = tmp_path / task.cache_name()
        cache_file.write_bytes(damaged)
        private_memo.clear()
        assert _forms(enumerate_graphs(task, cache_dir=tmp_path)) == forms
        assert cache_file.read_bytes() == good

    def test_memo_hit_rewrites_a_truncated_file(self, tmp_path, private_memo):
        task = EnumerationTask(6, 7, connected=True)
        pool = enumerate_graphs(task, cache_dir=tmp_path)
        cache_file = tmp_path / task.cache_name()
        good = cache_file.read_bytes()
        cache_file.write_bytes(good[:len(good) // 2])
        assert task in private_memo
        assert enumerate_graphs(task, cache_dir=tmp_path) == pool
        assert cache_file.read_bytes() == good

    @staticmethod
    def _reads(monkeypatch, cache_file) -> list:
        """A live list that gets one entry per read of cache_file."""
        reads = []
        read_bytes = type(cache_file).read_bytes

        def read(path):
            if path == cache_file:
                reads.append(path)
            return read_bytes(path)

        monkeypatch.setattr(type(cache_file), "read_bytes", read)
        return reads

    @pytest.mark.parametrize("first", ["written", "validated"])
    def test_memo_hit_leaves_a_valid_file_untouched(self, tmp_path, monkeypatch,
                                                    private_memo, first):
        task = EnumerationTask(6, 7, connected=True)
        pool = enumerate_graphs(task, cache_dir=tmp_path)
        if first == "validated":
            private_memo.clear()
            enumerate_graphs(task, cache_dir=tmp_path)
        cache_file = tmp_path / task.cache_name()
        before = (cache_file.read_bytes(), cache_file.stat().st_mtime_ns)
        reads = self._reads(monkeypatch, cache_file)
        assert enumerate_graphs(task, cache_dir=tmp_path) == pool
        assert len(reads) == 1
        assert before[0] == b"\n".join(_forms(pool))
        assert (cache_file.read_bytes(), cache_file.stat().st_mtime_ns) == before

    def test_a_trusted_file_is_read_once_and_not_rewritten(self, tmp_path, monkeypatch,
                                                          private_memo):
        task = EnumerationTask(6, 7, connected=True)
        pool = enumerate_graphs(task, cache_dir=tmp_path)
        private_memo.clear()
        cache_file = tmp_path / task.cache_name()
        before = (cache_file.read_bytes(), cache_file.stat().st_mtime_ns)
        reads = self._reads(monkeypatch, cache_file)
        assert enumerate_graphs(task, cache_dir=tmp_path) == pool
        assert len(reads) == 1
        assert (cache_file.read_bytes(), cache_file.stat().st_mtime_ns) == before

    def test_valid_cache_is_read_without_growing(self, tmp_path, monkeypatch, private_memo):
        task = EnumerationTask(6, 7, connected=True)
        fresh = enumerate_graphs(task, cache_dir=tmp_path)
        private_memo.clear()
        monkeypatch.setattr(enumeration, "_grow_forms", None)
        monkeypatch.setattr(enumeration, "_bicyclic_forms", None)
        assert enumerate_graphs(task, cache_dir=tmp_path) == fresh


class TestRandomConnected:
    def test_always_connected(self):
        rng = Random(3)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(1, 10), rng.randint(0, 5))
            assert is_connected(g)

    def test_edge_budget(self):
        rng = Random(4)
        g = random_connected_graph(rng, 8, 3)
        assert g.m == 7 + 3

    def test_extra_edges_clamped(self):
        rng = Random(5)
        g = random_connected_graph(rng, 3, 100)
        assert g.m == 3  # the triangle is all there is

    def test_deterministic_for_seed(self):
        a = random_connected_graph(Random(42), 9, 4)
        b = random_connected_graph(Random(42), 9, 4)
        assert a == b

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            random_connected_graph(Random(0), 0)
