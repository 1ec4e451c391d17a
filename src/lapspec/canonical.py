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

The refinement starts from degrees and only ever splits colors, so all
vertices of one color have the same degree.  The key of a vertex of color
c, (c, its neighbors' colors sorted ascending), is therefore compared only
with keys of the same length once c ties, and it orders exactly like the
int ``(c + 1) * 2**top - sum(2**(top - w * (c_u + 1)))`` over its
neighbors u, with ``w = n.bit_length()`` and ``top = w * n``: the sum holds
the count of each neighbor color in its own w-bit digit, color 0 most
significant, and a count never exceeds n - 1 < 2**w.  Between two
equal-length sorted tuples the first difference, at the smaller color,
gives that color a larger count, hence a larger sum and a smaller key.

The refinement works on the color classes themselves (``_refined_cells``),
kept in color order.  The keys of one class share c, so a round only sums
the neighbor weights of the members of each class with more than one
vertex, groups them by sum and puts the groups in place of the class,
larger sum first; a singleton class keeps its place without a key.  The
new list of classes is the dense ranking of all the keys, as a full
re-keying and sort would give, and a round that splits no class ends the
refinement.  ``_search`` takes these classes as its cells; a vertex's
color is the index of its class.

The search reads the graph's int bitmask rows (``Graph.rows``), one per
vertex, for the twin test ``rows[v] & ~(1 << w) == rows[w] & ~(1 << v)``,
and neighbor lists built once from ``Graph.edges`` for the rest.  Every
unplaced vertex carries a left-aligned score: bit n - 1 - i is set iff it
is adjacent to ``order[i]``.  Placing x at position pos sets bit
n - 1 - pos in the scores of x's neighbors only.  At position pos every
candidate's score is its field shifted up by n - pos bits, the same shift
for all of them and for the best sequence's field there, so comparing
scores compares fields.  Positions with a single candidate are walked in a
loop; only real choices recurse, each branch on its own copy of the
scores.  The field at position j, the winning score shifted down by n - j
bits, is exactly column j of the relabeled upper triangle, the order
graph6 packs, so the certificate is packed straight from the winning
fields without building the relabeled graph.

The search is one module-level recursive function, ``_walk``, and it gets
all of its state as arguments: the rows, neighbor lists and cells of the
graph, the working fields and order, and the best sequence so far, which
it replaces in place.  It is not a closure inside ``_search``: a nested
function that calls itself sits in its own closure cell, and that
reference cycle would keep the whole search state alive after the call
returns, until the cyclic garbage collector ran.  As it is, a canonical
call frees everything it built when it returns.
"""

from __future__ import annotations

from typing import Collection, Sequence

from .graph6 import graph6_pack
from .graphs import Graph


def _refined_cells(n: int, adj: Sequence[Collection[int]]) -> list[list[int]]:
    """The color classes of the stable refinement, in color order, each in
    vertex order.  Starts from the degree classes; every round splits each
    class with more than one vertex by its members' keys (see the module
    docstring), the pieces in key order in place of the class."""
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(len(adj[v]), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    width = n.bit_length()
    top = width * n
    weight = [0] * n
    get = weight.__getitem__
    while len(cells) < n:
        for c, cell in enumerate(cells):
            w = 1 << (top - width * (c + 1))
            for v in cell:
                weight[v] = w
        split: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            # In one class the keys differ only in their sums, and the
            # larger sum is the smaller key.
            pieces: dict[int, list[int]] = {}
            for v in cell:
                pieces.setdefault(sum(map(get, adj[v])), []).append(v)
            if len(pieces) == 1:
                split.append(cell)
            else:
                split += [pieces[s] for s in sorted(pieces, reverse=True)]
        if len(split) == len(cells):
            break
        cells = split
    return cells


def _walk(n: int, rows: tuple[int, ...], adj: list[list[int]],
          cell_at: list[list[int]], fields: list[int], order: list[int],
          best: list[int], best_order: list[int],
          pos: int, scores: list[int], free: int, ahead: bool) -> bool:
    """Extend the placement order[:pos] of one search.  rows, adj and
    cell_at describe the graph and its cells; fields and order are the
    working sequence, shared by every call of the search; best and
    best_order hold the best sequence so far and are replaced in place.
    scores are the left-aligned fields against order[:pos], owned by this
    call, free is the mask of unplaced vertices, and ahead means
    fields[:pos] already beats best.  Returns whether best was replaced."""
    while pos < n:
        reps = cell_at[pos]
        if len(reps) > 1:
            reps = [v for v in reps if free >> v & 1]
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
        bit = 1 << (n - 1 - pos)
        if len(reps) > 1:
            improved = False
            for x in reps:
                order[pos] = x
                branch = scores.copy()
                for v in adj[x]:
                    branch[v] |= bit
                if _walk(n, rows, adj, cell_at, fields, order, best, best_order,
                         pos + 1, branch, free & ~(1 << x), ahead):
                    # best now runs through fields[:pos + 1]
                    improved, ahead = True, False
            return improved
        x = order[pos] = reps[0]
        free &= ~(1 << x)
        for v in adj[x]:
            scores[v] |= bit
        pos += 1
    if ahead:
        best[:] = fields
        best_order[:] = order
    return ahead


def _search(g: Graph) -> tuple[list[int], list[int]]:
    """The maximal field sequence, left-aligned (field j shifted up by
    n - j bits), and the first placement order (position -> original
    vertex) that reaches it."""
    n, rows = g.n, g.rows
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    # Small cells first, ties by color (the sort is stable): the first
    # positions then branch as little as possible, and (size, color) is
    # relabeling-invariant, so this order is too.
    cells = _refined_cells(n, adj)
    cells.sort(key=len)
    cell_at = [cell for cell in cells for _ in cell]

    best: list[int] = []
    best_order: list[int] = []
    _walk(n, rows, adj, cell_at, [0] * n, [0] * n, best, best_order,
          0, [0] * n, (1 << n) - 1, True)
    return best, best_order


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-invariant certificate: graph6 bytes of the canonical
    relabeling.  Equal certificates iff isomorphic graphs."""
    n = g.n
    return graph6_pack(n, [f >> (n - j) for j, f in enumerate(_search(g)[0])])


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.m != b.m:
        return False
    return canonical_form(a) == canonical_form(b)
