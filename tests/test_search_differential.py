"""Differential check of the exact search against a floor-based reference.

The reference below is the search as it stood before each class's first
cycle was restricted to vertex 0's smallest free neighbour: it enumerates
every first cycle and skips those not above the previous class's first
cycle.  The restriction only cuts subtrees without a factorization, so both
must agree on status and factorization, the new search in no more nodes.
Both count a node for every path extension, the closing vertex included.
"""

from __future__ import annotations

import pytest

from sunurd import CycleFactorization, HostGraph, search_cycle_factorization
from sunurd.core import canonical_factorization, factorization_shape_problems, host_edges
from sunurd.factorizations import canonical_perfect_matching

BUDGET = 200_000


def _host(kind: str, n: int) -> HostGraph:
    if kind == "complete":
        return HostGraph.complete(n)
    return HostGraph.complete_minus_f(n, canonical_perfect_matching(n))


class _OverBudget(Exception):
    pass


def reference_search(host: HostGraph, h: int, budget: int | None):
    """(status, factorization, nodes) of the floor-based search."""
    n = host.order
    target = (n - 1) // 2
    avail = [0] * n
    for u, w in host_edges(host):
        avail[u] |= 1 << w
        avail[w] |= 1 << u
    full = (1 << n) - 1
    nodes = 0
    classes = []

    def extend_path():
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise _OverBudget

    def cycles_through(anchor, free):
        path = [anchor]

        def rec(mask):
            u = path[-1]
            if len(path) == h - 1:
                m = avail[u] & mask & avail[anchor] & (-1 << (path[1] + 1))
                while m:
                    bit = m & -m
                    m ^= bit
                    extend_path()
                    path.append(bit.bit_length() - 1)
                    yield tuple(path)
                    path.pop()
                return
            m = avail[u] & mask
            while m:
                bit = m & -m
                m ^= bit
                extend_path()
                path.append(bit.bit_length() - 1)
                yield from rec(mask ^ bit)
                path.pop()

        yield from rec(free & ~(1 << anchor))

    def toggle(cyc, on):
        for i in range(h):
            u, w = cyc[i], cyc[(i + 1) % h]
            if on:
                avail[u] &= ~(1 << w)
                avail[w] &= ~(1 << u)
            else:
                avail[u] |= 1 << w
                avail[w] |= 1 << u

    def extend(cycles, unplaced, floor):
        if unplaced == 0:
            classes.append(tuple(cycles))
            if len(classes) == target or extend([], full, cycles[0]):
                return True
            classes.pop()
            return False
        first_of_class = not cycles
        if first_of_class:
            anchor = (unplaced & -unplaced).bit_length() - 1
        else:
            anchor = -1
            best = n + 1
            m = unplaced
            while m:
                bit = m & -m
                m ^= bit
                x = bit.bit_length() - 1
                d = (avail[x] & unplaced).bit_count()
                if d < 2:
                    return False
                if d < best:
                    best = d
                    anchor = x
        for cyc in cycles_through(anchor, unplaced):
            if first_of_class and floor is not None and cyc <= floor:
                continue
            toggle(cyc, True)
            cycles.append(cyc)
            mask = 0
            for x in cyc:
                mask |= 1 << x
            done = extend(cycles, unplaced & ~mask, floor)
            cycles.pop()
            toggle(cyc, False)
            if done:
                return True
        return False

    try:
        found = extend([], full, None)
    except _OverBudget:
        return "budget-exhausted", None, nodes
    if found:
        cf = canonical_factorization(CycleFactorization(host, h, tuple(classes), source="search"))
        return "found", cf, nodes
    return "nonexistent", None, nodes


# K_14 - F with 7-cycles exhausts this budget in both searches and is left
# out only for its run time.
SHAPES = [
    (kind, n, h)
    for n in range(1, 15)
    for h in range(3, n + 1)
    for kind in ("complete", "complete_minus_f")
    if not factorization_shape_problems(kind, n, h) and (kind, n, h) != ("complete_minus_f", 14, 7)
]


@pytest.mark.parametrize("kind,n,h", SHAPES)
def test_same_result_in_no_more_nodes(kind, n, h):
    host = _host(kind, n)
    result = search_cycle_factorization(host, h, BUDGET)
    status, factorization, nodes = reference_search(host, h, BUDGET)
    assert result.status == status
    assert result.factorization == factorization
    assert result.nodes <= nodes


@pytest.mark.parametrize("kind,n,h,nodes,reference_nodes", [
    ("complete_minus_f", 10, 5, 3364, 8148),
    ("complete_minus_f", 16, 4, 39979, 153313),
])
def test_pinned_node_counts(kind, n, h, nodes, reference_nodes):
    host = _host(kind, n)
    result = search_cycle_factorization(host, h, BUDGET)
    assert (result.status, result.nodes) == ("found", nodes)
    assert reference_search(host, h, BUDGET)[2] == reference_nodes
