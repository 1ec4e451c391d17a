"""Helpers shared by several test files: relabeling a graph, the
closed-form order of the automorphism group of a bicyclic 2-core, the
edge route's children before its top-edge rule, and a Gauss-Jordan
adjugate, the oracle of the bordered one."""

import math
from typing import Iterable, Iterator

from lapspec.enumeration import _edge_ends
from lapspec.graphs import Graph


def relabel(g: Graph, mapping: dict[int, int] | list[int]) -> Graph:
    """Apply a vertex bijection old -> new; family metadata is dropped."""
    if isinstance(mapping, list):
        mapping = {old: new for old, new in enumerate(mapping)}
    if sorted(mapping) != list(range(g.n)) or sorted(mapping.values()) != list(range(g.n)):
        raise ValueError("mapping is not a bijection on 0..n-1")
    return Graph(g.n, ((mapping[i], mapping[j]) for i, j in g.edges))


def core_group_order(kind: str, params: tuple[int, ...]) -> int:
    """The number of automorphisms of a core of ``enumeration._bicyclic_cores``:
    a theta swaps its hubs and permutes paths of equal length; a dumbbell or
    figure-eight flips each cycle, and swaps them when they have one length."""
    if kind == "theta":
        order = 2
        for length in set(params):
            order *= math.factorial(params.count(length))
        return order
    return 8 if params[0] == params[-1] else 4


def twin_pruned_edge_children(level: Iterable[Graph]) -> Iterator[Graph]:
    """Every graph of level plus one new edge, up to twin swaps only: the
    children ``enumeration._add_top_edge`` keeps before its top-edge test,
    the oracle that test is checked against."""
    for g in level:
        for i, j in _edge_ends(g):
            yield g._child(g.n, ((i, j),))


def gauss_jordan_adjugate(mat: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(det M, adj M) by one fraction-free Gauss-Jordan elimination
    (Bareiss/Montante) of [M | I], kept in one n x n array: step k turns
    column k of M into column k of the adjugate, so the array holds the
    columns of M not yet eliminated and those of adj M already made.
    Every division is exact.  Raises ArithmeticError on a zero pivot (a
    leading principal minor of M that is 0).  Any square M, symmetric or
    not: the oracle of ``laplacian._adjugate``."""
    n = len(mat)
    a = [row[:] for row in mat]
    prev = 1
    for k in range(n):
        pivot = a[k]
        p = pivot[k]
        if p == 0:
            raise ArithmeticError(f"zero pivot at step {k}")
        for i in range(n):
            if i != k:
                f = a[i][k]
                if f:
                    a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot)]
                else:  # a row with nothing to eliminate is only rescaled
                    a[i] = [p * x // prev for x in a[i]]
                a[i][k] = -f
        pivot[k] = prev
        prev = p
    return prev, a
