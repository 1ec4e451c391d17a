"""Canonical labeling for small graphs.

The certificate is the graph6 encoding of the graph relabeled by a canonical
permutation, so two graphs are isomorphic exactly when their certificates are
equal bytes.  The permutation is found by exhaustive search restricted to
orderings that list vertices cell by cell, where the cells come from an
iterated neighbor-color refinement.  Vertex v placed at position j
contributes a j-bit field, its adjacency to positions 0..j-1 with position 0
most significant, and the search maximizes the sequence of fields.  At every
position it keeps only the candidates whose field is maximal, since any other
choice is lexicographically dominated, and it collapses interchangeable
candidates (mutual twins).  This is exhaustive-with-pruning, not a
refinement-based canonizer, which is plenty at the vertex counts used here.

The search reads the graph's int bitmask rows (``Graph.rows``), one per
vertex, and its neighbor sets for the refinement.  Every unplaced
vertex carries its field against the placed prefix as an int, and placing x
shifts in one bit per vertex: ``(s << 1) | (rows[x] >> v & 1)``.  The twin
test is ``rows[v] & ~(1 << w) == rows[w] & ~(1 << v)``.  Positions with a
single candidate are walked in a loop; only real choices recurse.  The
field at position j is exactly column j of the relabeled upper triangle, the
order graph6 packs, so the certificate is packed straight from the winning
fields without building the relabeled graph.
"""

from __future__ import annotations

from typing import Collection, Sequence

from .graph6 import graph6_pack
from .graphs import Graph, relabel


def refined_colors(n: int, adj: Sequence[Collection[int]]) -> list[int]:
    """Stable vertex coloring: start from degrees, repeatedly split classes
    by the multiset of neighbor colors.  Color ranks are derived from sorted
    structural keys, so they are invariant under relabeling."""
    colors = [len(adj[v]) for v in range(n)]
    distinct = len(set(colors))
    while True:
        get = colors.__getitem__
        # (color, *sorted neighbor colors) orders like (color, sorted tuple)
        keys = [(colors[v], *sorted(map(get, adj[v]))) for v in range(n)]
        rank = dict(zip(sorted(set(keys)), range(n)))
        new = list(map(rank.__getitem__, keys))
        # With n distinct ranks the next round would return them unchanged.
        if len(rank) in (distinct, n):
            return new
        colors, distinct = new, len(rank)


def _search(g: Graph) -> tuple[list[int], list[int]]:
    """The maximal field sequence and the first placement order (position ->
    original vertex) that reaches it."""
    n, rows = g.n, g.rows
    colors = refined_colors(n, g.adjacency())

    # Colors are ranks 0..k-1.  Small cells first, ties by color (the sort is
    # stable): the first positions then branch as little as possible, and
    # (size, color) is relabeling-invariant, so this order is too.
    cells: list[list[int]] = [[] for _ in range(max(colors, default=-1) + 1)]
    for v, color in enumerate(colors):
        cells[color].append(v)
    cells.sort(key=len)
    cell_at = [cell for cell in cells for _ in cell]

    fields = [0] * n
    order = [0] * n
    best: list[int] = []
    best_order: list[int] = []

    def walk(pos: int, scores: list[int], free: int, ahead: bool) -> bool:
        """Extend the placement order[:pos]; scores are the fields against
        order[:pos - 1], and ahead means fields[:pos] already beats best.
        Returns whether best was replaced."""
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
                            break  # swapping two twins changes nothing downstream
                    else:
                        reps.append(v)
            if not ahead:
                # A smaller field at this position loses no matter what follows.
                if top < best[pos]:
                    return False
                ahead = top > best[pos]
            fields[pos] = top
            if len(reps) > 1:
                improved = False
                for x in reps:
                    order[pos] = x
                    if walk(pos + 1, scores, free & ~(1 << x), ahead):
                        # best now runs through fields[:pos + 1]
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


def canonical_permutation(g: Graph) -> tuple[int, ...]:
    """Position -> original vertex for the canonical relabeling."""
    return tuple(_search(g)[1])


def canonical_graph(g: Graph) -> Graph:
    perm = canonical_permutation(g)
    mapping = {v: i for i, v in enumerate(perm)}
    return relabel(g, mapping)


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-invariant certificate: graph6 bytes of the canonical
    relabeling.  Equal certificates iff isomorphic graphs."""
    return graph6_pack(g.n, _search(g)[0])


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.m != b.m:
        return False
    return canonical_form(a) == canonical_form(b)
