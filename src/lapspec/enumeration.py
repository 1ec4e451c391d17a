"""Exhaustive enumeration of small graphs up to isomorphism.

Graphs are grown level by level, keeping one canonical representative per
isomorphism class at every level (dedup by canonical form; simple rather
than clever, since the vertex counts here are desk scale).  No child is
generated only to be thrown away:

- Every task grows from the empty graph one edge at a time, and a child is
  kept only when its new edge is a top edge: its (larger, smaller)
  endpoint-degree pair is the largest among the child's edges, ties
  allowed.  Every class is still reached: deleting a top edge e from a
  graph G with m + 1 edges leaves a graph with m edges, and an isomorphism
  onto that graph's representative carries e to a non-edge whose child is
  isomorphic to G, with the new edge again a top edge, since degree pairs
  are invariant.  The test reads the parent's degrees before the child is
  built.  A top edge may be a bridge, so the levels grown are those of all
  graphs, connected or not; a connected task keeps the classes of its
  level whose representative is connected.
- A child is built from its parent by ``Graph._child``: the parent's
  bitmask rows and sorted edges plus the new edge, with no re-validation.
  Only a seed or a 2-core goes through ``Graph(n, edges)``; the graph6
  decoder builds its graphs unchecked as well.
- Children are pruned by twin swaps.  Twins v, w have N(v) - {w} =
  N(w) - {v}; any permutation inside a twin class is an automorphism, so an
  edge (i, j) is added only when i and j are each first in their class or
  are the first two vertices of one class, and the pruned children still
  reach every class.  A twin swap is an automorphism of the parent and maps
  a top edge to a top edge, so twin pruning and the top-edge rule combine.

Only the levels with at most half of the C = n(n - 1)/2 vertex pairs are
grown.  Complementing is a bijection between the classes with m edges and
those with C - m, so a level with 2m > C is built from the level (n, C - m),
taken from the memo or grown as above: each representative is complemented
(rows by mask, through ``Graph._trusted``), and each complement costs one
canonical call, with nothing to deduplicate.

Every level built is kept in the in-process memo, and a task resumes from
the deepest level already there: (7, m) grows one level from (7, m - 1),
(7, 15) complements the (7, 6) level, and a connected (7, m) task only
filters the (7, m) level when an earlier task, such as the census, has
built it.

The connected graphs with n >= 4 vertices and n + 1 edges, the pool of the
determination suites, come from a structural route instead.  Such a graph
has cyclomatic number 2, so its 2-core (what is left after deleting leaves
until none remain) is a subdivided theta, a dumbbell, or two cycles sharing
one vertex (a figure-eight), and the graph is that core with one rooted
tree hung on each core vertex.  An isomorphism maps 2-core onto 2-core and
hung trees onto hung trees, so two such graphs are isomorphic exactly when
they have the same core and their tree tuples differ by an automorphism of
the core.  The route walks every core on at most n vertices, finds its
automorphism group by a small backtracking search, and keeps each tuple of
rooted trees (one per core vertex, n vertices in all) only when it is
minimal in its orbit under that group.  Every class comes out exactly once,
so each costs one canonical call and nothing is deduplicated; a repeated
form raises instead.  The forms equal the edge route's byte for byte, which
stays callable as the reference.  Every other task takes the edge route.

A second, independent enumerator grows by vertex instead of by edge and is
used to cross-check census totals; the routes share nothing but ``Graph``
and the canonical form.  The new vertex is joined only to neighbor sets
that leave it a top vertex of the child: of minimum degree, and with the
largest descending tuple of neighbor degrees among the child's vertices of
minimum degree, ties allowed.  Every class is still reached, as with the
top-edge rule: deleting a top vertex w from a graph G on n + 1 vertices
leaves a graph on n, and an isomorphism onto that graph's representative
carries N(w) to a neighbor set whose child is isomorphic to G, with the new
vertex again a top vertex, since the tuples are invariant.  A neighbor
set S is also kept only when it meets every twin group of the parent in a
prefix of that group, in vertex order.  A group is the vertices with one
open row, or with one closed row (``row | 1 << u``), found by a dict keyed
on the row.  Swapping two twins is an automorphism of the parent and keeps
the new vertex a top vertex, so every orbit of neighbor sets under those
swaps keeps the one member that meets each group in a prefix.  This rule is
written on its own (``_twin_steps``), not with the edge route's
``_twin_classes``, so that a pruning fault in either route shows as a
census disagreement instead of being shared by both.
``enumerate_by_vertex_growth`` can keep its levels in a memo the caller
owns, each a dict from canonical form to representative, so the census
grows every level once and reads its forms from that memo.

Results are deterministic: canonical graph6 forms, sorted.  The connected
(n, n + 1) pools with 4 <= n <= 12 can be cached on disk, one file per
pool (of the suites, only determination and cospectral-structure pass a
cache directory).  A file's bytes are exactly ``b"\n".join(forms)``, and
the file is trusted only when their SHA-256 equals ``POOL_DIGESTS[n]``, the
pinned digest of that pool; any other file (truncated, stale, reordered,
forged or of an older format) is regrown and rewritten, to a temporary
name renamed into place.  A cache directory given with any other task is
refused with ValueError before any growth or file access.  A call reads
the pool's file once.  The file is trusted only when the memo lacks the
pool, and it is rewritten unless its bytes equal the pool's, so a pool
answered from the memo still writes its file when the cache directory has
no valid one.

``_decode`` keeps the last decoded pool while the memo holds its very forms
list, so asking for the same pool twice decodes it once, and growth that
resumes from that level, as (7, m + 1) does right after (7, m), reuses its
graphs.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from itertools import combinations, product
from operator import index, itemgetter
from pathlib import Path
from random import Random
from typing import Callable, Iterable, Iterator, Optional

from .canonical import canonical_form
from .graph6 import graph6_decode
from .graphs import (Graph, dumbbell_graph, dumbbell_parameter_grid, is_connected,
                     theta_graph, theta_parameter_grid)

DEFAULT_CAP = 10
# SHA-256 of b"\n".join(forms) of the connected (n, n + 1) pools, the only
# pools a cache file may hold.
POOL_DIGESTS = {
    4: "6d8e7398da5d5577f9976742a966a66ab47296f98fe8d2f6393061a8134926cf",
    5: "f45965cb6720dbc80e37bc80739a8a577f4178ef5c54ddf13383faffb815849e",
    6: "638ef2d9781588a1615b71bd469620e4e8f2e34fba82e13e448b4357ea382b9e",
    7: "2337f221ab0ec4fcaa17ad7822e703e938d24af4e46958f258e6cd5515995d07",
    8: "df3b59de8375d147071d270a8ad848b541fce26b22e69aaae1e682f0cd3c70b3",
    9: "7fe02632bbe85a32334f8c531439c63f9120423e05bc9a8a5cb6ef98d57ed0d0",
    10: "384ec7627d27f06fa4ccb46587d57932d1899710b1371805a44640e5555772c2",
    11: "8edbc836aab7cc59494d632b16b6b2689ea98bc4a60014382872391aa9e6e9a0",
    12: "9155e60374ae82ef77272694929f4542620a205ceb0717091c3a17d9f794c2fa",
}


class EnumerationCapError(ValueError):
    """Refusal to enumerate above the configured vertex cap."""

    def __init__(self, n: int, cap: int):
        super().__init__(
            f"enumeration on n={n} vertices exceeds the cap of {cap}; the class "
            f"count grows combinatorially, so raise the cap explicitly if you "
            f"really want this"
        )
        self.n = n
        self.cap = cap


@dataclass(frozen=True)
class EnumerationTask:
    """Graphs on exactly n vertices with exactly m edges, optionally only the
    connected ones."""

    n: int
    m: int
    connected: bool = False

    def validate(self) -> None:
        """TypeError unless n and m are integers, as in ``Graph``;
        ValueError unless the task is possible."""
        index(self.n)
        index(self.m)
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if not 0 <= self.m <= self.n * (self.n - 1) // 2:
            raise ValueError(f"m={self.m} impossible on n={self.n} vertices")

    def cache_name(self) -> str:
        name = f"n{self.n}_m{self.m}"
        if self.connected:
            name += "_conn"
        return name + ".g6"


_memo: dict[EnumerationTask, list[bytes]] = {}

# The forms list decoded last and its graphs.  The pool suites ask for the
# same pool twice in a row, and growth resumes from the level a caller was
# just handed; the identity check against the memo's list makes a cleared
# memo decode afresh.
_decoded: tuple[Optional[list[bytes]], list[Graph]] = (None, [])


def _decode(forms: list[bytes]) -> list[Graph]:
    """The graphs of a forms list the memo holds, decoded unless it is the
    list decoded last."""
    global _decoded
    if _decoded[0] is not forms:
        _decoded = (None, [])  # let the last pool go before decoding this one
        _decoded = (forms, [graph6_decode(form) for form in forms])
    return _decoded[1]


def _twin_classes(rows: tuple[int, ...]) -> list[list[int]]:
    """Twin classes, each in vertex order, ordered by first vertex.  Twins
    have N(v) - {w} = N(w) - {v}; this is an equivalence, and any permutation
    inside a class is an automorphism."""
    classes: list[list[int]] = []
    for v, row in enumerate(rows):
        for cls in classes:
            w = cls[0]
            if row & ~(1 << w) == rows[w] & ~(1 << v):
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def _edge_ends(g: Graph) -> Iterator[tuple[int, int]]:
    """The ends (i, j), i < j, of every non-edge of g, up to twin swaps:
    (i, j) is kept only when i and j are each first in their twin class, or
    are the first two vertices of one class."""
    rows = g.rows
    classes = _twin_classes(rows)
    firsts = sum(1 << cls[0] for cls in classes)
    for cls in classes:
        i = cls[0]
        ends = firsts | (1 << cls[1] if len(cls) > 1 else 0)
        ends &= ~rows[i] & -(2 << i)  # non-neighbors above i
        for j in range(i + 1, g.n):
            if ends >> j & 1:
                yield i, j


def _top_edge_test(rows: tuple[int, ...]) -> Callable[[int, int], bool]:
    """The test of whether a new edge (i, j) of the parent with these rows
    has the largest (larger, smaller) endpoint-degree pair among the edges
    of the child, ties allowed.  With (high, low) the pair of the new edge
    in the child, that is: no vertex has degree above high, and no vertex of
    degree high has a neighbor of degree above low.  The parent's degree
    data is read once; each test is then a few mask operations."""
    degrees = [row.bit_count() for row in rows]
    most = max(degrees, default=0)
    # above[k]: the vertices of degree > k; reach[k]: the neighbors of the
    # vertices of degree k; both for k <= most + 1.
    above = [0] * (most + 2)
    reach = [0] * (most + 2)
    for v, d in enumerate(degrees):
        reach[d] |= rows[v]
        for k in range(d):
            above[k] |= 1 << v

    def is_top(i: int, j: int) -> bool:
        di, dj = degrees[i], degrees[j]
        if di < dj:
            i, j, di, dj = j, i, dj, di
        high, low = di + 1, dj + 1
        if most > high:
            return False
        # The child's vertices of degree high are the parent's (never i or
        # j) plus i, and j on a tie; those above low are the parent's other
        # than i and j, plus i unless it ties.
        beyond = above[low] & ~(1 << i | 1 << j)
        seen = reach[high] | rows[i]
        if di == dj:
            seen |= rows[j]
        else:
            beyond |= 1 << i
        return not seen & beyond

    return is_top


def _add_top_edge(level: Iterable[Graph]) -> Iterator[Graph]:
    """Every graph of level plus one new top edge (``_top_edge_test``), up
    to twin swaps (``_edge_ends``); the test runs before the child is
    built."""
    for g in level:
        is_top = _top_edge_test(g.rows)
        for i, j in _edge_ends(g):
            if is_top(i, j):
                yield g._child(g.n, ((i, j),))


def _is_top_vertex(rows: tuple[int, ...], degrees: list[int], subset: int) -> bool:
    """Whether a new vertex joined to subset, already of minimum degree in
    the child, has the largest descending neighbor-degree tuple among the
    child's minimum-degree vertices, ties allowed, read from the parent's
    rows and degrees."""
    n = len(rows)
    child = [d + (subset >> u & 1) for u, d in enumerate(degrees)]
    low = subset.bit_count()
    own = sorted((child[u] for u in range(n) if subset >> u & 1), reverse=True)
    for u in range(n):
        if child[u] == low:
            theirs = [child[w] for w in range(n) if rows[u] >> w & 1]
            theirs += [low] * (subset >> u & 1)  # the new vertex, when joined to u
            if sorted(theirs, reverse=True) > own:
                return False
    return True


def _twin_steps(rows: tuple[int, ...]) -> list[tuple[int, int]]:
    """(earlier, later) bit pairs of consecutive members of each twin group,
    a neighbor set S meeting every group in a prefix of it exactly when no
    pair has later in S and earlier not.  A group is the vertices with one
    open row, or with one closed row ``row | 1 << u``, in vertex order."""
    groups: dict[tuple[bool, int], list[int]] = {}
    for u, row in enumerate(rows):
        groups.setdefault((False, row), []).append(u)
        groups.setdefault((True, row | 1 << u), []).append(u)
    return [(1 << a, 1 << b) for group in groups.values() for a, b in zip(group, group[1:])]


def _add_vertex(level: Iterable[Graph]) -> Iterator[Graph]:
    """Every graph of level plus one new top vertex, up to twin swaps.  A
    top vertex is of minimum degree in the child and has the largest
    descending neighbor-degree tuple among the child's minimum-degree
    vertices (``_is_top_vertex``).  The new vertex is joined to each subset
    S of the old vertices with |S| <= deg(u) + [u in S] for every old
    vertex u: with d the parent's minimum degree, S qualifies when
    |S| <= d, or when |S| = d + 1 and S holds every vertex of degree d.  S
    is kept only when it meets every twin group in a prefix of the group
    (``_twin_steps``).  Both tests run before the child is built."""
    for g in level:
        rows = g.rows
        degrees = [row.bit_count() for row in rows]
        low = min(degrees, default=0)
        minimal = sum(1 << u for u, d in enumerate(degrees) if d == low)
        steps = _twin_steps(rows)
        for subset in range(1 << g.n):
            size = subset.bit_count()
            if ((size <= low or size == low + 1 and not minimal & ~subset)
                    and not any(subset & later and not subset & earlier
                                for earlier, later in steps)
                    and _is_top_vertex(rows, degrees, subset)):
                yield g._child(g.n + 1, [(i, g.n) for i in range(g.n) if subset >> i & 1])


def _dedup(children: Iterable[Graph]) -> dict[bytes, Graph]:
    """One representative per isomorphism class, keyed by canonical form."""
    level: dict[bytes, Graph] = {}
    for child in children:
        form = canonical_form(child)
        if form not in level:
            level[form] = child
    return level


def _complement(g: Graph) -> Graph:
    """The graph on g's vertices whose edges are g's non-edges."""
    n = g.n
    full = (1 << n) - 1
    rows = tuple(full ^ row ^ 1 << v for v, row in enumerate(g.rows))
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if rows[i] >> j & 1)
    return Graph._trusted(n, edges, rows)


def _level(n: int, m: int) -> tuple[list[bytes], dict[bytes, Graph]]:
    """The sorted forms of all graphs on n vertices with m edges, the list
    the memo holds, and a dict from each form to a representative.  A level
    with at most half the vertex pairs is grown by top edges from the
    deepest level below it in the memo, or from the empty graph; a denser
    one complements the level of C - m edges, C = n(n - 1)/2, one canonical
    call per class.  Every level built goes into the memo."""
    pairs = n * (n - 1) // 2
    if 2 * m > pairs:
        task = EnumerationTask(n, m)
        forms = _memo.get(task)
        if forms is not None:
            return forms, dict(zip(forms, _decode(forms)))
        mirror = _level(n, pairs - m)[1].values()
        level = {canonical_form(g): g for g in map(_complement, mirror)}
        forms = _memo[task] = sorted(level)
        return forms, level
    stages = [EnumerationTask(n, e) for e in range(m + 1)]
    done = [i for i, stage in enumerate(stages) if stage in _memo]
    if done:
        start = done[-1]
        forms = _memo[stages[start]]
        level = dict(zip(forms, _decode(forms)))
    else:
        start, seed = 0, Graph(n)
        level = {canonical_form(seed): seed}
        forms = list(level)
    for stage in stages[start + 1:]:
        level = _dedup(_add_top_edge(level.values()))
        forms = _memo[stage] = sorted(level)
    return forms, level


def _grow_forms(task: EnumerationTask) -> list[bytes]:
    # a connected task keeps the classes of the level of all graphs whose
    # representative is connected
    forms, level = _level(task.n, task.m)
    if task.connected:
        return [form for form in forms if is_connected(level[form])]
    return forms


def _figure_eight_edges(p: int, q: int) -> list[tuple[int, int]]:
    """Cycles of lengths p and q sharing vertex 0."""
    second = [0] + list(range(p, p + q - 1)) + [0]
    return [(i, (i + 1) % p) for i in range(p)] + list(zip(second, second[1:]))


def _bicyclic_cores(n: int) -> list[tuple[str, tuple[int, ...], Graph]]:
    """(kind, parameters, graph) of every 2-core with cyclomatic number 2 on
    at most n vertices: the thetas and dumbbells of the parameter grids on
    4..n vertices, and figure-eights p >= q >= 3."""
    sizes = range(4, n + 1)
    cores = [("theta", (h.r, h.s, h.t), theta_graph(h.r, h.s, h.t))
             for c in sizes for h in theta_parameter_grid(c)]
    cores += [("dumbbell", (d.p, d.k, d.q), dumbbell_graph(d.p, d.k, d.q))
              for c in sizes for d in dumbbell_parameter_grid(c)]
    cores += [("figure-eight", (p, q), Graph(p + q - 1, _figure_eight_edges(p, q)))
              for p in range(3, n) for q in range(3, min(p, n - p + 1) + 1)]
    return cores


def _map_from(rows: tuple[int, ...], alike: list[int], order: list[int],
              earlier: list[int], image: list[int], i: int, used: int,
              found: list[tuple[int, ...]]) -> None:
    """Append to found every automorphism that extends the partial map
    image of order[:i], whose images are the mask used.  alike[v] is the
    mask of the vertices of v's degree, and earlier[i] the mask of
    order[:i]."""
    n = len(order)
    v = order[i]
    target = 0  # the images of v's mapped neighbors
    mapped = rows[v] & earlier[i]
    while mapped:
        low = mapped & -mapped
        target |= 1 << image[low.bit_length() - 1]
        mapped ^= low
    free = alike[v] & ~used
    for w in range(n):
        if free >> w & 1 and rows[w] & used == target:
            image[v] = w
            if i + 1 == n:
                found.append(tuple(image))
            else:
                _map_from(rows, alike, order, earlier, image, i + 1, used | 1 << w, found)


def _automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every automorphism of a connected graph, as the tuple of vertex
    images.  Vertices are mapped in breadth-first order from vertex 0, each
    to an unused vertex w of its degree whose adjacency to the vertices
    mapped so far matches its own.  With used the mask of their images,
    that is one mask comparison: ``rows[w] & used`` equals the images of
    its mapped neighbors.  Every vertex after the first has a mapped
    neighbor, so its candidates are neighbors of that neighbor's image.
    Candidates are tried in vertex order, so the automorphisms come out
    sorted by the images of the vertices in breadth-first order."""
    n, rows = g.n, g.rows
    order, seen = [0], 1
    for v in order:
        for w in range(n):
            if rows[v] >> w & 1 and not seen >> w & 1:
                seen |= 1 << w
                order.append(w)
    degrees = [row.bit_count() for row in rows]
    alike = [sum(1 << w for w in range(n) if degrees[w] == d) for d in degrees]
    earlier = [0] * n
    for i in range(1, n):
        earlier[i] = earlier[i - 1] | 1 << order[i - 1]
    found: list[tuple[int, ...]] = []
    _map_from(rows, alike, order, earlier, [0] * n, 0, 0, found)
    return found


def _hang_leaf(code: tuple) -> Iterator[tuple]:
    """The AHU codes of the rooted tree with this code plus one leaf, hung
    on each vertex in turn (with repeats)."""
    yield tuple(sorted(code + ((),)))
    for i, child in enumerate(code):
        for grown in _hang_leaf(child):
            yield tuple(sorted(code[:i] + (grown,) + code[i + 1:]))


def _parents(code: tuple, at: int, out: list[int]) -> list[int]:
    """Append to out the parents of the vertices below vertex at, which has
    this code, in preorder; returns out."""
    for child in code:
        out.append(at)
        _parents(child, len(out), out)
    return out


def _rooted_trees(size_max: int) -> list[list[int]]:
    """Every rooted tree on 1..size_max vertices once, ordered by vertex
    count, each as the list of the parents of vertices 1, 2, ... in preorder
    (the root is vertex 0).  Trees are told apart by their AHU codes: a code is the sorted
    tuple of the root's child codes, so isomorphic rooted trees have equal
    codes, and every tree on s + 1 vertices is a tree on s plus a leaf."""
    level = [()]
    trees = []
    for _ in range(size_max):
        trees += [_parents(code, 0, []) for code in level]
        level = sorted({grown for code in level for grown in _hang_leaf(code)})
    return trees


def _bicyclic_forms(n: int) -> list[bytes]:
    """Sorted canonical forms of the connected graphs with n >= 4 vertices
    and n + 1 edges, built from their 2-cores: one canonical call per class
    and no dedup.  Raises RuntimeError if a class comes out twice.

    Each core's automorphisms other than the identity act on per-vertex
    tuples as ``operator.itemgetter`` objects, so the orbit tests on the
    tuple of tree sizes and on the tuple of trees are one C-level call per
    automorphism.  Every rooted tree's (parent, vertex) edge pairs are
    listed once, and each class is built in one loop over its trees that
    extends copies of the core's rows and edges; the graph goes to
    ``canonical_form`` through ``Graph._trusted``, with its edges
    sorted."""
    # Tree i hung with its vertex j >= 1 at base + j: the (parent, j) pairs
    # of its edges, parent 0 being the core vertex it hangs on.
    trees = [[(p, j) for j, p in enumerate(parents, 1)] for parents in _rooted_trees(n - 3)]
    by_size: list[list[int]] = [[] for _ in range(n - 2)]
    for i, tree in enumerate(trees):
        by_size[len(tree) + 1].append(i)
    forms = []
    for _, _, core in _bicyclic_cores(n):
        c = core.n
        core_rows, core_edges = list(core.rows) + [0] * (n - c), list(core.edges)
        # The identity never maps a tuple below itself, so it is left out;
        # itemgetter(*sigma) returns a tuple, as a core has at least 4 vertices.
        identity = tuple(range(c))
        moves = [itemgetter(*sigma) for sigma in _automorphisms(core) if sigma != identity]
        # An attachment (a tree per core vertex) is kept when it is minimal
        # in its orbit, ordered by tree sizes and then by tree index.
        for cuts in combinations(range(1, n), c - 1):
            sizes = tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
            images = [move(sizes) for move in moves]
            if any(image < sizes for image in images):
                continue
            stabilizer = [move for move, image in zip(moves, images) if image == sizes]
            for attachment in product(*(by_size[size] for size in sizes)):
                if any(move(attachment) < attachment for move in stabilizer):
                    continue
                rows, edges = core_rows.copy(), core_edges.copy()
                base = c - 1  # tree vertex j >= 1 becomes base + j
                for v, tree in enumerate(attachment):
                    for p, j in trees[tree]:
                        i, j = v if p == 0 else base + p, base + j
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
                        edges.append((i, j))
                    base += len(trees[tree])
                edges.sort()
                forms.append(canonical_form(Graph._trusted(n, tuple(edges), tuple(rows))))
    forms.sort()
    if any(a == b for a, b in zip(forms, forms[1:])):
        raise RuntimeError(f"the structural route built a class twice on n={n}")
    return forms


def _write_atomic(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _pool_forms(task: EnumerationTask, cap: int,
                cache_dir: Optional[str | Path]) -> list[bytes]:
    """The sorted canonical forms of the task, from the memo, a trusted
    cache file or fresh growth.  Fills the memo, and writes the task's file
    in a cache directory unless it already holds these forms; the list
    returned is the one the memo holds."""
    task.validate()
    if task.n > cap:
        raise EnumerationCapError(task.n, cap)
    # m = n + 1 is possible only for n >= 4, which validate() checked.
    bicyclic = task.connected and task.m == task.n + 1
    cache_file = data = None
    if cache_dir is not None:
        if not bicyclic or task.n not in POOL_DIGESTS:
            raise ValueError(f"only the connected (n, n+1) pools with 4 <= n <= "
                             f"{max(POOL_DIGESTS)} have pinned digests and can be "
                             f"cached; not {task}")
        cache_file = Path(cache_dir) / task.cache_name()
        data = cache_file.read_bytes() if cache_file.exists() else None
    forms = _memo.get(task)
    if forms is None and data is not None:
        if hashlib.sha256(data).hexdigest() == POOL_DIGESTS[task.n]:
            forms = _memo[task] = data.split(b"\n")
            return forms  # the file is the pool
    if forms is None:
        forms = _bicyclic_forms(task.n) if bicyclic else _grow_forms(task)
    _memo[task] = forms
    if cache_file is not None:
        encoded = b"\n".join(forms)
        if data != encoded:
            _write_atomic(cache_file, encoded)
    return forms


def enumerate_graphs(task: EnumerationTask, cap: int = DEFAULT_CAP,
                     cache_dir: Optional[str | Path] = None) -> list[Graph]:
    """One canonically labeled representative per isomorphism class matching
    the task, sorted by graph6 form.  Raises EnumerationCapError above cap."""
    return list(_decode(_pool_forms(task, cap, cache_dir)))


def enumerate_by_vertex_growth(n: int, cap: int = DEFAULT_CAP,
                               levels: Optional[list[dict[bytes, Graph]]] = None
                               ) -> list[Graph]:
    """All graphs on exactly n vertices, grown one vertex at a time by
    ``_add_vertex`` and sorted by canonical form.  Every graph on k + 1
    vertices minus a top vertex is a graph on k, so the growth is complete.
    levels, when given, is a resumable memo of the growth: level k is a dict
    from canonical form to one representative, in form order, and the call
    grows only the levels up to n that it lacks.  Independent of the
    edge-addition route; used to cross-check census totals.  Raises
    EnumerationCapError above cap and TypeError unless n is an integer."""
    index(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > cap:
        raise EnumerationCapError(n, cap)
    if levels is None:
        levels = []
    if not levels:
        seed = Graph(0)
        levels.append({canonical_form(seed): seed})
    while len(levels) <= n:
        nxt: dict[bytes, Graph] = {}
        for child in _add_vertex(levels[-1].values()):
            form = canonical_form(child)
            if form not in nxt:
                nxt[form] = child
        levels.append(dict(sorted(nxt.items())))
    return list(levels[n].values())


def random_connected_graph(rng: Random, n: int, extra_edges: int = 0) -> Graph:
    """Random connected graph: a random recursive tree plus a sample of extra
    edges.  Deterministic for a given rng state."""
    if n < 1:
        raise ValueError("n must be >= 1")
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    if extra_edges > 0:
        free = [(i, j) for i in range(n) for j in range(i + 1, n)
                if (i, j) not in edges]
        for pick in rng.sample(free, min(extra_edges, len(free))):
            edges.add(pick)
    return Graph(n, edges)
