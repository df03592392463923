"""The search engine: one backtracking search for the base classes of an
h-cycle factorization under a group of translations, run for one or two
base classes under a cyclic group (the quotient stage) and, with the
trivial group, as the bounded exact search.

``factorizations._resolve`` imports this module in its search branch, the
only place a build runs the engine, so a build whose ingredient is
constructed or cataloged never loads, or compiles, it; ``verify`` and
``spectrum`` never do either.  A build runs the quotient stage alone;
the exact search, ``search_cycle_factorization``, is for library callers.
It and ``SearchResult`` are also reached as ``sunurd.X`` and
``sunurd.factorizations.X``, which load this module on first use.
``search_cycle_factorization`` returns what it finds unchecked.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import COMPLETE, COMPLETE_MINUS_F, CycleFactorization, HostGraph, _host_index
from .factorizations import BUDGET_EXHAUSTED, FOUND, NONEXISTENT, _check_request
from .writer import canonical_factorization


# ---------------------------------------------------------------------------
# One search engine: base classes under a group of translations
# ---------------------------------------------------------------------------


class SearchResult(NamedTuple):
    status: str  # found | nonexistent | budget-exhausted
    factorization: CycleFactorization | None
    nodes: int


def _translate(v: int, t: int, f: int, q: int) -> int:
    # Point v under translation by t: fixed points stay, each copy rotates.
    return v if v < f else v - (v - f) % q + ((v - f) % q + t) % q


def _search(row: tuple, h: int, order: list[int], budget: int | None) -> SearchResult:
    """Search for the row's base classes, one path extension at a time.

    ``row`` is (source, host, f, q, s, b), the host K_n or K_n - F.  Points
    0..f-1 are fixed and point x of copy i is f + i*q + x; Z_q translates
    every copy.  An orbit is the images of one edge under Z_q, and the b
    base classes use each orbit once.  With s = 1 a base class develops
    into its q translates.  With s = 2 it is also fixed by the half-turn
    x -> x + q/2, uses an edge and its image as one, and develops into q/2.
    The trivial row, f = n and q = 1, is the plain search: each edge is its
    own orbit and the b = (n - 1)/2 base classes are the classes.

    A class is grown walk by walk.  Its first walk starts at point 0
    through its smallest free neighbour (any other choice is a later
    class's, or under Z_q a translate), each later one at the most
    constrained unplaced point.  A walk closes into a cycle of h points
    drawn in one direction, with the half-turn its image too.  With the
    half-turn a walk may also close at the image of its anchor after h/2
    points, walk and image making one cycle, and a class's first walk runs
    from point 0 to the middle of its cycle (the other fixed point for even
    h) and back along its image.  A point tries its candidates lowest
    first, those at or above its pivot ``order[u]`` (a mask -1 << p, or 0)
    before the rest.
    """
    source, host, f, q, s, b = row
    n = host.order
    full, fixed = (1 << n) - 1, (1 << f) - 1
    # The mask of a fixed point, and of each copy for its point 0: the
    # neighbours through orbits still unused, at first the neighbourhood.
    A = [full ^ 1 << u for u in range(n)]
    for u, w in host.matching:
        A[u] ^= 1 << w
        A[w] ^= 1 << u
    home = list(range(f)) + [o for o in range(f, n, q) for _ in range(q)]
    ones = (1 << q) - 1
    blocks = [ones << o for o in range(f, n, q)]
    turn = [_translate(u, q // 2 * (s - 1), f, q) for u in range(n)]
    keep = [~(1 << u | 1 << turn[u]) for u in range(n)]
    # Points whose degree the anchor rule reads: an image has its point's.
    lower = sum(1 << u for u in range(n) if u <= turn[u])

    def avail(u: int) -> int:
        # u's neighbours through unused orbits: its copy's mask turned to u.
        if u < f:
            return A[u]
        x, m = u - home[u], A[home[u]]
        out = m & fixed
        for block in blocks:
            y = m & block
            out |= (y << x | y >> q - x) & block
        return out

    def toggle(u: int, w: int) -> None:
        # Use edge uw's orbit, or give it back.  A copy's mask holds the
        # other end moved back by this end's translation; a fixed point's
        # holds all of a copy for its one orbit to that copy.
        cu, cw = home[u], home[w]
        if u < f:
            mu, mw = (1 << w if w < f else ones << cw), 1 << u
        elif w < f:
            mu, mw = 1 << w, ones << cu
        else:
            d = w - cw - u + cu
            mu, mw = 1 << cw + d % q, 1 << cu + -d % q
        A[cu] ^= mu
        if cu != cw or mu != mw:  # else a difference-q/2 orbit, one bit
            A[cw] ^= mw

    def settle(start: int, y: int) -> None:
        # Close or reopen the walk from path[start].  An edge between fixed
        # points is its own orbit and no walk repeats an edge, so such edges
        # change state here, not as the walk grows; so does the closing
        # edge to y (if y >= 0).
        u = path[start]
        for w in path[start + 1 :]:
            if u < f > w:
                A[u] ^= 1 << w
                A[w] ^= 1 << u
            u = w
        if u < f > y >= 0:
            A[u] ^= 1 << y
            A[y] ^= 1 << u
        elif y >= 0:
            toggle(u, y)

    # ``path`` holds the walks, each from its anchor; ``starts`` where each
    # begins, ``closed`` per closed walk the unplaced set it was drawn from
    # (all points for a class's first), its closing point (-1 if none) and
    # the classes done before it.  A frame is the candidates still to try
    # after a point and the free points: the current one is (m, rest), the
    # ones below it are on ``stack``.
    path: list[int] = []
    starts: list[int] = []
    closed: list[tuple[int, int, int]] = []
    stack: list[tuple[int, int]] = []

    def open_walk(unplaced: int) -> tuple[int, int, int, int]:
        # The new walk's candidates, free points, start and anchor.
        if unplaced == full:
            anchor, first = 0, A[0] & -A[0]
        else:
            # The most constrained point: any unplaced point needs two
            # available unplaced neighbours to sit on a cycle of this class.
            anchor, best = -1, n + 1
            m = unplaced & lower
            while m and best >= 2:
                bit = m & -m
                m ^= bit
                x = bit.bit_length() - 1
                d = ((A[x] if x < f else avail(x)) & unplaced).bit_count()
                if d < best:
                    anchor, best = x, d
            first = 0 if best < 2 else A[anchor] if anchor < f else avail(anchor)
        rest = unplaced & keep[anchor]
        starts.append(len(path))
        path.append(anchor)
        return first & rest, rest, starts[-1], anchor

    nodes, done, status, unplaced = 0, 0, NONEXISTENT, full
    m, rest, start, a = open_walk(full)
    while True:
        if not m:
            if len(path) - 1 == start:
                # The open walk is gone: reopen the last closed one.
                path.pop()
                starts.pop()
                if not closed:
                    break
                unplaced, y, done = closed.pop()
                start = starts[-1]
                a = path[start]
                settle(start, y)
            x = path.pop()
            u = path[-1]
            if not x < f > u:
                toggle(u, x)
            m, rest = stack.pop()
            continue
        if nodes == budget:
            status = BUDGET_EXHAUSTED
            break
        nodes += 1
        u = path[-1]
        bit = m & order[u] or m
        bit &= -bit
        m ^= bit
        x = bit.bit_length() - 1
        path.append(x)
        if not x < f > u:
            toggle(u, x)
        stack.append((m, rest))
        k = len(path) - start
        # x continues the walk unless it closes it (see below).
        if k < h and (s == 1 or (x != turn[a] if a >= f else 2 * k <= h)):
            rest &= keep[x]
            nbrs = A[x] if x < f else avail(x)
            m = nbrs & rest
            if k == h - 1:
                # Last point: closes back to the anchor and beats the
                # second, so each cycle is drawn in one direction only.
                m &= (A[a] if a < f else avail(a)) & -1 << path[start + 1] + 1
            elif s == 2 and a < f:
                # From point 0 the walk meets a fixed point only at its middle.
                m &= fixed if 2 * k == h else ~fixed
            elif s == 2 and 2 * k == h and nbrs >> turn[a] & 1 and turn[x] > path[start + 1]:
                # Or the walk closes at the anchor's image, one direction only.
                m |= 1 << turn[a]
            continue
        # x closes the walk: at its anchor, at the image of its anchor, at
        # the other fixed point, or through the edge to its own image.
        y = a if k == h else -1 if x in (turn[x], turn[a]) else turn[x]
        if y >= 0 and not x < f > y and not avail(x) >> y & 1:
            m = 0  # the walk has just used the closing edge's orbit
            continue
        settle(start, y)
        closed.append((unplaced, y, done))
        unplaced = rest & keep[x]
        if not unplaced:
            done += 1
            if done == b:
                status = FOUND
                break
            unplaced = full
        m, rest, start, a = open_walk(unplaced)

    if status != FOUND:
        return SearchResult(status, None, nodes)
    bases: list[list[list[int]]] = []
    for lo, hi, (was, _, _) in zip(starts, starts[1:] + [len(path)], closed):
        walk = path[lo:hi]
        image = [turn[v] for v in walk]
        if was == full:
            bases.append([])
        if len(walk) == h:
            bases[-1] += [walk, image][:s]
        elif walk[-1] == image[0]:
            bases[-1].append(walk[:-1] + image[:-1])
        else:
            bases[-1].append(walk + [turn[v] for v in walk[:0:-1] if v >= f])
    classes = tuple(
        tuple(tuple(_translate(v, t, f, q) for v in cycle) for cycle in cycles)
        for cycles in bases
        for t in range(q // s)
    )
    cf = canonical_factorization(CycleFactorization(host, h, classes, source=source))
    return SearchResult(FOUND, cf, nodes)


def search_cycle_factorization(host: HostGraph, h: int, budget: int | None = None) -> SearchResult:
    """Exact backtracking search for an h-cycle factorization of ``host``.

    Deterministic: identical inputs and budget give the identical result.
    Exhaustive: the search ends ``found`` or, having tried every candidate,
    ``nonexistent``, which proves that no factorization exists.  ``nodes``
    counts path extensions, one per vertex added after a cycle's anchor,
    the closing one included; ``budget`` caps them (None = unbounded, else
    an int >= 0), and a search it stops reports exactly ``budget``.
    """
    n = host.order
    _check_request(host.kind, n, h, budget)
    _host_index(host)  # the host gate: raises ValueError on a malformed matching
    return _search(("search", host, n, 1, 1, (n - 1) // 2), h, [0] * n, budget)


# ---------------------------------------------------------------------------
# Quotient stage: base classes under Z_q, on the same engine
# ---------------------------------------------------------------------------

# Path extensions the rows with one base class spend alone on one
# ingredient, and on the first seeded restart of one structure; each round
# of restarts doubles it, so a small search space is still run to exhaustion.
QUOTIENT_NODES = 100_000
_RESTART_NODES = 1_000


# The structure table.  A row gives the name, the host kind and the number k
# of copies of Z_q.  The points are the k copies plus the f fixed points of
# the host kind, one for K_n and two for K_n - F, so q = (n - f) / k.  The
# classes are the q/s translates of each of b base classes, where s is the
# order of a base class's stabilizer; they must be the host's (n - f) / 2
# classes, so b = k*s/2: with k = 1 the base class is fixed by the
# half-turn (s = 2), with k = 2 one base class is free, and with k = 4 two
# are.  F is the edge between the two fixed points plus the pure
# half-difference pairs when q is even, or the mixed difference-0 pairs
# between copies 2j and 2j+1 when q is odd.
_STRUCTURES = (
    ("A", COMPLETE, 1),
    ("B", COMPLETE_MINUS_F, 1),
    ("C", COMPLETE, 2),
    ("C", COMPLETE_MINUS_F, 2),
    ("D", COMPLETE, 4),
    ("D", COMPLETE_MINUS_F, 4),
)


def _fit(name: str, kind: str, k: int, n: int, h: int) -> tuple | None:
    """A structure laid on n points for h-cycles, or None if it does not fit.

    Without the half-turn a half-difference orbit would be covered twice,
    so F must hold it.  With it and odd h the fixed points' cycles close
    through such orbits, so F must not: that leaves one fixed point, K_n.
    """
    f = 1 if kind == COMPLETE else 2
    s, b = max(2 // k, 1), max(k // 2, 1)
    q, r = divmod(n - f, k)
    if r or q < 2 or q % s or (s, f) == (1, 1) and q % 2 == 0 or (s, f) == (2, 2) and h % 2:
        return None
    d = q if q % 2 else q // 2
    matching = [(0, 1)] + [(v, v + d) for v in range(f, n) if (v - f) % (2 * d) < d]
    host = HostGraph.complete(n) if f == 1 else HostGraph.complete_minus_f(n, matching)
    return f"quotient:{name}", host, f, q, s, b


def _quotient_search(kind: str, n: int, h: int, cap) -> tuple[CycleFactorization | None, int]:
    """Search each fitting structure for its base classes; (result, extensions).

    The fitting structures take seeded restarts in turn, _RESTART_NODES path
    extensions each in the first round and twice as many in each round after;
    a structure whose search space runs out is dropped.  The rows with one
    base class (A, B, C) run alone until they have all run out or spent
    QUOTIENT_NODES; then the rows with two (D) join the same rotation, and
    the stage stops after ``cap`` extensions in all (None = no cap).  Each
    restart draws every point's pivot from a generator seeded by
    (kind, n, h), so identical inputs give the identical factorization in
    any process.  Running out proves nothing about the ingredient, only
    about the structures.
    """
    # Imported here: a caller of the plain search alone needs no generator.
    import random

    rng = random.Random(f"{kind}:{n}:{h}")
    fits = [row for spec in _STRUCTURES if spec[1] == kind if (row := _fit(*spec, n, h))]
    cap = float("inf") if cap is None else cap
    rows, nodes, limit = [], 0, _RESTART_NODES
    for stop, b in ((min(cap, QUOTIENT_NODES), 1), (cap, 2)):
        rows += [row for row in fits if row[-1] == b]
        while rows and nodes < stop:
            for row in list(rows):
                pivots = [-1 << rng.randrange(n) for _ in range(n)]
                status, cf, spent = _search(row, h, pivots, min(limit, stop - nodes))
                nodes += spent
                if cf is not None:
                    return cf, nodes
                if status == NONEXISTENT:
                    rows.remove(row)
            limit *= 2
    return None, nodes
