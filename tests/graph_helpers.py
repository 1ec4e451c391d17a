"""Helpers shared by several test files: relabeling a graph, the
closed-form order of the automorphism group of a bicyclic 2-core, and the
edge route's children before its top-edge rule."""

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
