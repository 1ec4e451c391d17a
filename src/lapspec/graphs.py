"""Simple undirected graphs on vertices 0..n-1, plus the two bicyclic families.

A dumbbell graph D(p, k, q) is two disjoint cycles, of lengths p and q,
joined by a path with k interior vertices (k = 0 means the two cycles are
joined by a single edge).  A theta graph T(r, s, t) is a pair of hub
vertices joined by three internally disjoint paths with r, s and t interior
vertices.  Both families are connected with n vertices and n + 1 edges, and
their degree sequence is (3, 3, 2, ..., 2).

Vertex numbering is fixed so constructions are reproducible:
  dumbbell: first cycle 0..p-1 (hub 0), bridge interior p..p+k-1,
            second cycle p+k..p+k+q-1 (hub p+k)
  theta:    hubs 0 and 1, then the three chains in order.

``dumbbell_parameter_grid(n)`` and ``theta_parameter_grid(n)`` list the
normalized parameters of every member on n vertices; they are the family
members of the verification suites and the dumbbell and theta 2-cores of
the structural enumeration.  ``classify_bicyclic`` goes the other way, from
a graph to its normalized parameters, by following the three walks out of
one of its two hubs.

A Graph keeps its edges sorted and, from first use on, its int bitmask
rows (``Graph.rows``); nowhere else are rows built from edges.
``Graph(n, edges)`` checks n and every edge, and refuses a non-integer
vertex count or endpoint with TypeError.  Enumeration grows each child from
a valid parent with the private ``Graph._child``, which extends the
parent's rows and edges without checking them again.  It, the structural
pool route (a core's rows and edges plus hung trees) and the graph6
decoder, whose edges are valid by the format, build through the one
unchecked path ``Graph._trusted``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import index
from typing import Iterable, Optional, Union


@dataclass(frozen=True)
class DumbbellParams:
    """Cycle lengths p >= q >= 3 and bridge interior length k >= 0."""

    p: int
    k: int
    q: int

    def validate(self) -> None:
        if not (self.p >= self.q >= 3 and self.k >= 0):
            raise ValueError(
                f"invalid dumbbell parameters (p={self.p}, k={self.k}, q={self.q}):"
                " need p >= q >= 3 and k >= 0"
            )

    @property
    def vertex_count(self) -> int:
        return self.p + self.q + self.k


@dataclass(frozen=True)
class ThetaParams:
    """Chain interior lengths r >= s >= t >= 0 with (s, t) != (0, 0)."""

    r: int
    s: int
    t: int

    def validate(self) -> None:
        if not (self.r >= self.s >= self.t >= 0 and (self.s, self.t) != (0, 0)):
            raise ValueError(
                f"invalid theta parameters (r={self.r}, s={self.s}, t={self.t}):"
                " need r >= s >= t >= 0 and at most one zero chain"
            )

    @property
    def vertex_count(self) -> int:
        return self.r + self.s + self.t + 2


FamilyParams = Union[DumbbellParams, ThetaParams]


def dumbbell_parameter_grid(n: int) -> list[DumbbellParams]:
    """All normalized dumbbell parameters (p >= q >= 3, k >= 0) on n
    vertices, in (p, k, q) order."""
    # q = n - p - k >= 3 allows p <= n - 3 and k <= n - p - 3.
    return [DumbbellParams(p, k, n - p - k)
            for p in range(3, n - 2)
            for k in range(n - p - 2)
            if 3 <= n - p - k <= p]


def theta_parameter_grid(n: int) -> list[ThetaParams]:
    """All normalized theta parameters (r >= s >= t >= 0, (s,t) != (0,0))
    on n vertices, in (r, s, t) order."""
    return [ThetaParams(r, s, n - 2 - r - s)
            for r in range(n - 1)
            for s in range(1, r + 1)
            if 0 <= n - 2 - r - s <= s]


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; edges stored as a sorted tuple of (i, j), i < j.

    ``rows`` is derived from the edges and never takes part in equality.
    ``family`` carries the construction parameters when the graph was built
    by one of the family constructors; it never takes part in equality.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    family: Optional[FamilyParams] = field(default=None, compare=False)

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = (),
                 family: Optional[FamilyParams] = None):
        n = index(n)
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        norm = []
        for pair in edges:
            i, j = pair
            i, j = index(i), index(j)  # TypeError unless both are integers
            if i == j:
                raise ValueError(f"loop at vertex {i} not allowed")
            if i > j:
                i, j = j, i
            if not (0 <= i < j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            norm.append((i, j))
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "family", family)

    @staticmethod
    def _trusted(n: int, edges: tuple[tuple[int, int], ...],
                 rows: Optional[tuple[int, ...]] = None) -> Graph:
        """The graph on n vertices with these edges, already sorted pairs
        (i, j), i < j < n, without duplicates, taken without any check.
        Given rows are kept; otherwise they are built on first use."""
        g = object.__new__(Graph)
        # attribute by attribute, as __init__ does, so the instance dict
        # shares its keys with every other Graph's
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        object.__setattr__(g, "family", None)
        if rows is not None:
            object.__setattr__(g, "rows", rows)
        return g

    def _child(self, n: int, added: Iterable[tuple[int, int]]) -> Graph:
        """This graph on n >= self.n vertices plus the new edges (i, j),
        i < j < n, added to its rows and edges without any check."""
        rows = list(self.rows) + [0] * (n - self.n)
        edges = list(self.edges)
        for i, j in added:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            edges.append((i, j))
        return Graph._trusted(n, tuple(sorted(edges)), rows=tuple(rows))

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """Adjacency bitmask of every vertex: bit j of rows[i] is set iff
        {i, j} is an edge.  Computed on first use and kept."""
        rows = [0] * self.n
        for i, j in self.edges:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return tuple(rows)

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def degree_sequence(self) -> tuple[int, ...]:
        """Vertex degrees, largest first."""
        degs = [0] * self.n
        for i, j in self.edges:
            degs[i] += 1
            degs[j] += 1
        return tuple(sorted(degs, reverse=True))

    def __str__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def make_path(n: int) -> Graph:
    """Path on n >= 0 vertices."""
    if n < 0:
        raise ValueError("path needs n >= 0")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def make_cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def _dumbbell_edges(p: int, k: int, q: int) -> list[tuple[int, int]]:
    edges = [(i, (i + 1) % p) for i in range(p)]
    base = p + k
    edges += [(base + i, base + (i + 1) % q) for i in range(q)]
    bridge = [0] + list(range(p, p + k)) + [base]
    edges += list(zip(bridge, bridge[1:]))
    return edges


def dumbbell_graph(p: int, k: int, q: int) -> Graph:
    """Layout builder for a dumbbell with the cycles in the given order.

    Unlike make_dumbbell this does not require p >= q, which is convenient
    when checking that the two cycle roles are interchangeable.
    """
    if min(p, q) < 3 or k < 0:
        raise ValueError(f"invalid dumbbell layout (p={p}, k={k}, q={q})")
    return Graph(p + q + k, _dumbbell_edges(p, k, q))


def make_dumbbell(p: int, k: int, q: int) -> Graph:
    """Dumbbell D(p, k, q) with normalized parameters p >= q >= 3, k >= 0."""
    params = DumbbellParams(p, k, q)
    params.validate()
    return Graph(params.vertex_count, _dumbbell_edges(p, k, q), family=params)


def _theta_edges(r: int, s: int, t: int) -> list[tuple[int, int]]:
    edges = []
    nxt = 2
    for length in (r, s, t):
        chain = [0] + list(range(nxt, nxt + length)) + [1]
        nxt += length
        edges += list(zip(chain, chain[1:]))
    return edges


def theta_graph(r: int, s: int, t: int) -> Graph:
    """Layout builder for a theta with the chains in the given order.

    Accepts any chain order; rejects parameter triples that would need a
    multi-edge (two or more empty chains).
    """
    if min(r, s, t) < 0 or sorted((r, s, t))[1] == 0:
        raise ValueError(f"invalid theta layout (r={r}, s={s}, t={t})")
    return Graph(r + s + t + 2, _theta_edges(r, s, t))


def make_theta(r: int, s: int, t: int) -> Graph:
    """Theta T(r, s, t) with normalized parameters r >= s >= t >= 0."""
    params = ThetaParams(r, s, t)
    params.validate()
    return Graph(params.vertex_count, _theta_edges(r, s, t), family=params)


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted, in order of
    smallest member."""
    adj = g.adjacency()
    seen = [False] * g.n
    comps = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def _walk_cycle_from(adj: list[set[int]], start: int, first: int) -> list[int]:
    """Follow degree-2 vertices from start through first until a vertex of
    degree != 2 is hit; return the full vertex walk including both ends."""
    walk = [start, first]
    while len(adj[walk[-1]]) == 2 and walk[-1] != start:
        a, b = adj[walk[-1]]
        nxt = b if a == walk[-2] else a
        walk.append(nxt)
    return walk


def classify_bicyclic(g: Graph) -> Optional[FamilyParams]:
    """Decide dumbbell vs theta membership and recover normalized parameters.

    Returns DumbbellParams, ThetaParams, or None when the graph is not in
    either family.  Not being in the family is an answer, not an error.

    A connected graph with n + 1 edges and degree profile (3, 3, 2, ..., 2)
    is a theta or a dumbbell, and the three walks out of hub a tell which.
    If all three end at hub b, they are the theta's three chains.  Otherwise
    two of them go round a's cycle, one each way, and the third crosses the
    bridge to b; b's cycle holds the vertices left over.
    """
    if g.n < 4 or g.m != g.n + 1 or not is_connected(g):
        return None
    degs = g.degree_sequence()
    if degs[:2] != (3, 3) or any(d != 2 for d in degs[2:]):
        return None
    adj = g.adjacency()
    a, b = [v for v in range(g.n) if len(adj[v]) == 3]
    walks = [_walk_cycle_from(adj, a, first) for first in adj[a]]
    if all(walk[-1] == b for walk in walks):
        r, s, t = sorted((len(walk) - 2 for walk in walks), reverse=True)
        return ThetaParams(r, s, t)
    p = next(len(walk) - 1 for walk in walks if walk[-1] == a)
    k = next(len(walk) - 2 for walk in walks if walk[-1] == b)
    q = g.n - p - k
    return DumbbellParams(max(p, q), k, min(p, q))
