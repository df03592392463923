"""Cycle-factorization ingredients: direct constructions, seed catalogs,
a search for one base class under a cyclic group, and bounded exact
backtracking search.

A cycle factorization splits the edges of K_n (n odd) or K_n minus a
perfect matching F (n even) into parallel classes of h-cycles.  These are
the ingredients the inflation builder consumes.  ``_resolve``, and through
it the ``cycle_factorization_*`` functions and ``IngredientSource``,
certifies every factorization it returns with the validator, which lives in
``core`` with the type, its canonical form and the shape rule;
``search_cycle_factorization`` returns what it finds unchecked.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, NamedTuple

from .core import (
    COMPLETE,
    COMPLETE_MINUS_F,
    CycleFactorization,
    Edge,
    HostGraph,
    canonical_cycle,
    canonical_factorization,
    factorization_shape_problems,
    host_edges,
    only_ints,
    validate_cycle_factorization,
)
from .serialization import DocumentFormatError, loads_document

DEFAULT_SEARCH_BUDGET = 2_000_000

FOUND = "found"
NONEXISTENT = "nonexistent"
BUDGET_EXHAUSTED = "budget-exhausted"

# Classical exceptions: K_6 - F and K_12 - F have no triangle factorization.
# Builds whose route needs one of these report the ingredient as missing
# instead of searching a space known to be empty.
NONEXISTENT_MINUS_F = {(6, 3), (12, 3)}


class IngredientUnavailable(Exception):
    """A required cycle factorization could not be supplied.

    ``outcome`` distinguishes a proven-empty search space ("nonexistent")
    from a search stopped by its node budget ("budget-exhausted").
    ``nodes`` is the number of path extensions spent by the quotient stage
    and the plain search together, 0 when no search ran.
    """

    def __init__(self, n: int, h: int, host_kind: str, outcome: str, nodes: int = 0):
        self.n = n
        self.h = h
        self.host_kind = host_kind
        self.outcome = outcome
        self.nodes = nodes
        what = f"K_{n}" if host_kind == COMPLETE else f"K_{n} minus a perfect matching"
        super().__init__(f"no {h}-cycle factorization of {what} available: {outcome}")


class SeedCatalogError(ValueError):
    """A seed record that cannot be used.

    ``load_seed_catalog`` raises it, naming the file, for a record that is
    not UTF-8, not a format-"1" cycle-factorization document, or keyed like
    another record.  Resolving an ingredient (``IngredientSource``, the
    ``cycle_factorization_*`` functions) raises it, naming the key, for a
    catalog entry that does not factor the host its key names.
    """


# ---------------------------------------------------------------------------
# Exact backtracking search
# ---------------------------------------------------------------------------


class SearchResult(NamedTuple):
    status: str  # found | nonexistent | budget-exhausted
    factorization: CycleFactorization | None
    nodes: int


def _check_request(kind: str, n: int, h: int, budget) -> None:
    # Every ingredient request, searched or resolved: budget, kind, shape.
    if budget is not None and not (only_ints([budget]) and budget >= 0):
        raise ValueError(f"budget must be None or an int >= 0, not {budget!r}")
    if kind not in (COMPLETE, COMPLETE_MINUS_F):
        raise ValueError(f"unsupported search host kind {kind!r}")
    problems = factorization_shape_problems(kind, n, h)
    if problems:
        raise ValueError(problems[0])


def search_cycle_factorization(
    host: HostGraph, h: int, budget: int | None = None
) -> SearchResult:
    """Exact class-by-class backtracking search for a cycle factorization.

    Each parallel class is grown by repeatedly closing a canonical h-cycle
    through its most constrained uncovered vertex (exact-cover style).
    Classes are kept in increasing order of their cycle through vertex 0,
    which breaks the class-permutation symmetry.  In that order the smallest
    neighbour m of 0 still available when a class starts is the second
    vertex of this class's cycle through 0: m is the second vertex of the
    cycle through 0 of this or a later class (were it the last, that cycle's
    second vertex would be a smaller available neighbour), and second
    vertices increase from class to class.  So each class's first cycle is
    drawn only through m.  The subtrees this cuts hold no factorization and
    the rest is visited in the same order, so the search returns the same
    factorization and status as one over every first cycle, in fewer nodes
    for the same budget; an exhausted search certifies nonexistence.
    ``budget`` caps the path extensions, one per vertex added after a
    cycle's anchor, the closing one included (None = unbounded, else an
    int >= 0); a search stopped by it reports exactly ``budget`` nodes.  The
    path lives on an explicit stack, so the depth of a search is not bound
    by the interpreter's recursion limit.  Identical inputs and budget
    always produce the identical result.
    """
    n = host.order
    _check_request(host.kind, n, h, budget)

    needed = (n - 1) // 2 * (n // h)
    avail = [0] * n
    for u, w in host_edges(host):
        avail[u] |= 1 << w
        avail[w] |= 1 << u
    full = (1 << n) - 1

    def flip(cyc: list[int]) -> int:
        mask = 0
        u = cyc[-1]
        for w in cyc:
            avail[u] ^= 1 << w
            avail[w] ^= 1 << u
            mask |= 1 << w
            u = w
        return mask

    # ``path`` holds the closed cycles, h vertices each, then the open one;
    # ``closed`` the unplaced set each closed cycle was drawn from.  One
    # frame per vertex after an anchor: the candidates still to try there,
    # lowest first, and the free vertices before one is taken.
    path: list[int] = []
    closed: list[int] = []
    stack: list[list[int]] = []

    def open_cycle(unplaced: int) -> None:
        if unplaced == full:
            # A class starts at vertex 0, through its smallest free neighbour.
            anchor, first = 0, avail[0] & -avail[0]
        else:
            # Most-constrained vertex; any unplaced vertex needs two available
            # unplaced neighbours to sit on a cycle of this class.
            anchor, best = -1, n + 1
            m = unplaced
            while m and best >= 2:
                bit = m & -m
                m ^= bit
                x = bit.bit_length() - 1
                d = (avail[x] & unplaced).bit_count()
                if d < best:
                    anchor, best = x, d
            first = avail[anchor] if best >= 2 else 0
        rest = unplaced & ~(1 << anchor)
        path.append(anchor)
        stack.append([first & rest, rest])

    nodes = 0
    status = NONEXISTENT
    unplaced = full
    open_cycle(full)
    while stack:
        frame = stack[-1]
        m, rest = frame
        if not m:
            stack.pop()
            path.pop()
            if closed and len(path) == h * len(closed):
                # The open cycle is gone: reopen the last closed one.
                unplaced = closed.pop()
                flip(path[-h:])
                path.pop()
            continue
        if nodes == budget:
            status = BUDGET_EXHAUSTED
            break
        nodes += 1
        bit = m & -m
        frame[0] = m ^ bit
        path.append(bit.bit_length() - 1)
        k = len(path) - h * len(closed)
        if k < h:
            rest ^= bit
            m = avail[path[-1]] & rest
            if k == h - 1:
                # Last vertex: closes back to the anchor and beats path[1],
                # so each cycle is drawn in one direction only.
                m &= avail[path[-k]] & (-1 << (path[1 - k] + 1))
            stack.append([m, rest])
            continue
        closed.append(unplaced)
        unplaced &= ~flip(path[-h:])
        if not unplaced:
            if len(closed) == needed:
                status = FOUND
                break
            unplaced = full
        open_cycle(unplaced)

    if status == FOUND:
        # Each class covers n consecutive vertices of the path.
        classes = tuple(
            tuple(tuple(path[j : j + h]) for j in range(i, i + n, h))
            for i in range(0, len(path), n)
        )
        cf = canonical_factorization(CycleFactorization(host, h, classes, source="search"))
        return SearchResult(FOUND, cf, nodes)
    return SearchResult(status, None, nodes)


# ---------------------------------------------------------------------------
# Quotient search: one base class under Z_q, developed by translation
# ---------------------------------------------------------------------------

# Path extensions the quotient stage may spend on one ingredient, and on the
# first seeded restart of one structure; each round of restarts doubles it,
# so a small search space is still run to exhaustion.
QUOTIENT_NODES = 100_000
_RESTART_NODES = 1_000


# The structure table.  A row gives the name, the host kind and the number k
# of copies of Z_q.  The points are the k copies plus the f fixed points of
# the host kind, one for K_n and two for K_n - F, so q = (n - f) / k.  Z_q
# acts by translation on every copy and fixes the fixed points.  The classes
# are the q/s translates of the base class, where s is the order of its
# stabilizer; they must be the host's (n - f) / 2 classes, so s = 2 / k.
# With k = 1 the base class is also fixed by the half-turn x -> x + q/2.
# F is the edge between the two fixed points plus the pure half-difference
# pairs when q is even, or the mixed difference-0 pairs when q is odd.
_STRUCTURES = (
    ("A", COMPLETE, 1),
    ("B", COMPLETE_MINUS_F, 1),
    ("C", COMPLETE, 2),
    ("C", COMPLETE_MINUS_F, 2),
)


def _translate(v: int, t: int, f: int, q: int) -> int:
    # Point v under translation by t: fixed points stay, each copy rotates.
    return v if v < f else v - (v - f) % q + ((v - f) % q + t) % q


def _fit(name: str, kind: str, k: int, n: int, h: int) -> _Quotient | None:
    """A structure laid on n points for h-cycles, or None if it does not fit."""
    f = 1 if kind == COMPLETE else 2
    s = 2 // k
    q, r = divmod(n - f, k)
    if r or q < 2 or q % s:
        return None
    turn = [_translate(v, q // 2 if s == 2 else 0, f, q) for v in range(n)]
    if kind == COMPLETE:
        removed = set()
    elif q % 2 == 0:
        removed = {(i, i, q // 2) for i in range(k)}
    else:
        removed = {(0, 1, 0)}
    index: dict[tuple, int] = {}
    sizes: list[int] = []
    orbit = [[-1] * n for _ in range(n)]
    matching = []
    for u in range(n):
        for w in range(max(u + 1, f), n):
            j, x = divmod(w - f, q)
            if u < f:
                key: tuple = (u, j)
            else:
                i, y = divmod(u - f, q)
                d = (x - y) % q
                key = (i, j, min(d, q - d) if i == j else d)
            if key in removed:
                matching.append((u, w))
                continue
            o = index.setdefault(key, len(sizes))
            if o == len(sizes):
                sizes.append(0)
            sizes[o] += 1
            orbit[u][w] = orbit[w][u] = o
    if f == 2:
        matching.append((0, 1))
    if any(size * s % q for size in sizes):
        return None
    quota = [size * s // q for size in sizes]
    if s == 2 and h % 2:
        # A fixed point's cycle is fixed by the half-turn: for odd h it
        # closes through an edge {x, x + q/2}, for even h through a second
        # fixed point, which K_n - F has (h | n, so even h means even n).
        halves = [orbit[v][turn[v]] for v in range(f, n, q)]
        if f > sum(quota[o] for o in halves if o >= 0):
            return None
    # With the half-turn no walk steps onto a fixed point; it closes there.
    rows = [[x for x in range(f if s == 2 else 0, n) if orbit[u][x] >= 0] for u in range(n)]
    return _Quotient(name, kind, n, q, f, s, turn, orbit, quota, matching, rows)


class _Quotient(NamedTuple):
    """A structure laid on n points: edge orbits, their quotas and F.

    Fixed points are 0..f-1 and point x of copy i is f + i*q + x.  Edges are
    keyed by difference; ``orbit[u][w]`` is the orbit index of edge uw, -1
    for an edge of F.  A base class that takes ``quota[o]`` edges from each
    orbit o, counting an edge and its half-turn image as two, develops into
    an exact cover of the host.  ``s`` is the order of the stabilizer: 2
    with the half-turn, else 1.  ``rows[u]`` holds the points a walk may
    step to from u.
    """

    name: str
    kind: str
    n: int
    q: int
    f: int
    s: int
    turn: list[int]
    orbit: list[list[int]]
    quota: list[int]
    matching: list[Edge]
    rows: list[list[int]]

    def base_class(self, h: int, rng, cap: int) -> tuple[list[list[int]] | None, int, bool]:
        """One seeded depth-first search for a base class.

        Candidates are tried in an order drawn from ``rng``, a
        ``random.Random``.  A class is built as walks: each walk starts at
        the smallest uncovered point and covers its half-turn image too, and
        its closing edge decides the cycle it stands for (see
        ``_walk_cycles``).  Returns the base cycles (or None), the path
        extensions spent (at most ``cap``) and whether the search space was
        exhausted.
        """
        n, f, s, turn, orbit = self.n, self.f, self.s, self.turn, self.orbit
        cand = [list(row) for row in self.rows]
        for row in cand:
            rng.shuffle(row)
        rem = list(self.quota)
        full = (1 << n) - 1
        walks = [[0]]
        covered = 1 | 1 << turn[0]

        def fits(x: int, y: int, need: int) -> bool:
            o = orbit[x][y]
            return o >= 0 and rem[o] >= need

        def moves() -> list[int]:
            # Extensions as vertices, closures as their complements.  An
            # extension to the walk's last position must be able to close.
            walk = walks[-1]
            u, w0, size = walk[-1], walk[0], len(walk)
            row = orbit[u]
            if s == 1 or w0 >= f:
                # Closes at its start after h points, or (half-turn, even h)
                # at the image of its start after h/2.
                if size == h:
                    return [~w0] if walk[1] < u and fits(u, w0, s) else []
                out = [x for x in cand[u] if not covered >> x & 1 and rem[row[x]] >= s]
                if size == h - 1:
                    out = [x for x in out if x > walk[1] and fits(x, w0, s)]
                t0 = turn[w0]
                if s == 2 and 2 * size == h and walk[1] < turn[u] and fits(u, t0, 2):
                    out.insert(0, ~t0)
                return out
            if 2 * size == h + 1:
                # Odd h: the edge to the image of the last point is the middle.
                return [~turn[u]] if fits(u, turn[u], 1) else []
            if 2 * size == h:
                # Even h: a second fixed point sits opposite the first.
                return [~x for x in range(f) if not covered >> x & 1 and fits(u, x, 2)]
            out = [x for x in cand[u] if not covered >> x & 1 and rem[row[x]] >= 2]
            if size == 1:
                # The walk and its half-turn image give the same cycle.
                out = [x for x in out if x < turn[x]]
            if 2 * size == h - 1:
                out = [x for x in out if fits(x, turn[x], 1)]
            elif 2 * size == h - 2:
                out = [
                    x for x in out if any(not covered >> y & 1 and fits(x, y, 2) for y in range(f))
                ]
            return out

        # A frame holds its options, the next one to try, the points covered
        # on entry, and the orbit and amount the option tried last drew.
        nodes = 0
        stack = [[moves(), 0, covered, 0, 0]]
        while stack:
            frame = stack[-1]
            options, i, covered, o, d = frame
            if i:
                rem[o] += d
                if options[i - 1] < 0:
                    walks.pop()
                walks[-1].pop()
            if i == len(options):
                stack.pop()
                continue
            if nodes == cap:
                return None, nodes, False
            nodes += 1
            m = options[i]
            walk = walks[-1]
            x = m if m >= 0 else ~m
            o = orbit[walk[-1]][x]
            d = 1 if x == turn[walk[-1]] else s
            rem[o] -= d
            frame[1:] = i + 1, covered, o, d
            covered |= 1 << x
            # A closure stays on its walk as its complement: the walk's end.
            walk.append(m)
            if m >= 0:
                covered |= 1 << turn[x]
            elif covered == full:
                return self._walk_cycles(walks), nodes, False
            else:
                free = full & ~covered
                start = (free & -free).bit_length() - 1
                walks.append([start])
                covered |= 1 << start | 1 << turn[start]
            stack.append([moves(), 0, covered, 0, 0])
        return None, nodes, True

    def _walk_cycles(self, walks: list[list[int]]) -> list[list[int]]:
        """The base cycles the closed walks stand for.

        A walk's last entry is the complement ``~x`` of the point x at which
        its closing move ends it; the points before it are the walk.
        Without the half-turn a walk is its cycle.  With it, a walk from a
        fixed point runs to the opposite point of its cycle (the image of its
        last vertex, or a second fixed point) and the cycle returns along
        the image of the walk; any other walk closes either at its start,
        giving the cycle and its image, or at the image of its start, giving
        one cycle of walk and image.
        """
        turn, f = self.turn, self.f
        cycles = []
        for *walk, end in walks:
            x = ~end
            image = [turn[y] for y in walk]
            if self.s == 1:
                cycles.append(walk)
            elif walk[0] < f:
                cycles.append(walk + ([x] if x < f else []) + image[:0:-1])
            elif x == walk[0]:
                cycles += [walk, image]
            else:
                cycles.append(walk + image)
        return cycles

    def develop(self, h: int, base: list[list[int]]) -> CycleFactorization:
        """The translates of the base class under Z_q, modulo the stabilizer."""
        f, q = self.f, self.q
        classes = tuple(
            tuple(tuple(_translate(v, t, f, q) for v in cyc) for cyc in base)
            for t in range(q // self.s)
        )
        host = _host(self.kind, self.n, self.matching)
        return canonical_factorization(
            CycleFactorization(host, h, classes, source=f"quotient:{self.name}")
        )


def _quotient_search(kind: str, n: int, h: int, cap: int) -> tuple[CycleFactorization | None, int]:
    """Search each fitting structure for a base class; (result, extensions).

    The fitting structures take seeded restarts in turn, _RESTART_NODES path
    extensions each in the first round and twice as many in each round after;
    a structure whose search space runs out is dropped, and the stage stops
    after ``cap`` extensions in all.  The order of candidates comes from a
    generator seeded by (kind, n, h), so identical inputs give the identical
    factorization in any process.  Running out proves nothing about the
    ingredient, only about the structures.
    """
    # Imported here: every CLI call imports this module, few search.
    import random

    rng = random.Random(f"{kind}:{n}:{h}")
    fitted = [qs for row in _STRUCTURES if row[1] == kind if (qs := _fit(*row, n, h))]
    nodes = 0
    limit = _RESTART_NODES
    while fitted and nodes < cap:
        for qs in list(fitted):
            base, spent, exhausted = qs.base_class(h, rng, min(limit, cap - nodes))
            nodes += spent
            if base is not None:
                return qs.develop(h, base), nodes
            if exhausted:
                fitted.remove(qs)
            if nodes == cap:
                break
        limit *= 2
    return None, nodes


# ---------------------------------------------------------------------------
# Direct constructions for the Hamiltonian shapes (h = n)
# ---------------------------------------------------------------------------


def _zigzag_path(i: int, mod: int) -> list[int]:
    # i, i+1, i-1, i+2, i-2, ... over Z_mod; consecutive differences use
    # every magnitude exactly once, so rotated copies are edge-disjoint.
    return [(i + (k + 1) // 2 if k % 2 else i - k // 2) % mod for k in range(mod)]


def _hamiltonian_odd(n: int) -> CycleFactorization:
    """K_n (n odd) as (n-1)/2 Hamiltonian cycles: rotational zigzag scheme."""
    classes = tuple((canonical_cycle([n - 1] + _zigzag_path(i, n - 1)),) for i in range(n // 2))
    return CycleFactorization(
        HostGraph.complete(n), n, classes, source="construction:zigzag-hamiltonian"
    )


def _hamiltonian_minus_f(n: int) -> CycleFactorization:
    """K_n - F (n even) as (n-2)/2 Hamiltonian cycles (Walecki).

    On the circle method's rounds (round i pairs n-1 with i and i+j with
    i-j, mod n-1), the union of rounds 2k and 2k+1 is the cycle n-1, 2k,
    2k+2, 2k-2, 2k+4, ...: twice the zigzag path from k.  The unpaired last
    round n-2 is F: {n-2, n-1} and each {a, n-3-a}.
    """
    m = n - 1
    classes = tuple(
        (canonical_cycle([m] + [2 * x % m for x in _zigzag_path(k, m)]),) for k in range(m // 2)
    )
    host = HostGraph.complete_minus_f(n, [(a, n - 3 - a) for a in range(m // 2)] + [(m - 1, m)])
    return CycleFactorization(host, n, classes, source="construction:paired-rounds-hamiltonian")


# ---------------------------------------------------------------------------
# Resolution: construction, catalog, quotient structures, plain search
# ---------------------------------------------------------------------------


def canonical_perfect_matching(n: int) -> tuple[Edge, ...]:
    """The fixed matching {0,1}, {2,3}, ... used as F for searched hosts."""
    return tuple((2 * i, 2 * i + 1) for i in range(n // 2))


def _host(kind: str, n: int, matching: list[Edge]) -> HostGraph:
    # The host of a kind: K_n, or K_n - F with F = ``matching``.
    return HostGraph.complete(n) if kind == COMPLETE else HostGraph.complete_minus_f(n, matching)


def _resolve(
    kind: str, n: int, h: int, catalog: Mapping | None, budget: int | None
) -> CycleFactorization:
    """Resolve one ingredient; this is the one certification of all it returns.

    After the request check, the factorization comes from exactly one
    source: a seed catalog entry (h < n), the construction (h = n), the
    quotient structures, or the plain search.  ``budget`` bounds the path
    extensions of both searches together: the quotient stage spends at
    most QUOTIENT_NODES of it and the plain search the rest.  Only the
    plain search can prove an ingredient nonexistent.  A catalog entry
    that is not an h-cycle factorization of the host its key names raises
    SeedCatalogError (a ValueError) naming the key and, for an entry of the
    right host and h, the certifier's first findings.  Any other ingredient
    that fails certification is an internal error (RuntimeError).
    """
    _check_request(kind, n, h, budget)
    if kind == COMPLETE_MINUS_F and (n, h) in NONEXISTENT_MINUS_F:
        raise IngredientUnavailable(n, h, kind, NONEXISTENT)
    key = (n, h, kind)
    entry = catalog.get(key) if h != n and catalog else None
    what = f"K_{n}" if kind == COMPLETE else f"K_{n} - F"
    bad_entry = f"catalog entry {key} does not factor {what} into {h}-cycles"
    if entry is not None:
        host = entry.host if type(entry) is CycleFactorization else None
        shape = (host.kind, host.order, entry.h) if type(host) is HostGraph else None
        if shape != (kind, n, h) or not only_ints(shape[1:]):
            raise SeedCatalogError(bad_entry)
        cf = entry
    elif h == n:
        cf = _hamiltonian_odd(n) if kind == COMPLETE else _hamiltonian_minus_f(n)
    else:
        cap = QUOTIENT_NODES if budget is None else min(QUOTIENT_NODES, budget)
        cf, nodes = _quotient_search(kind, n, h, cap)
        if cf is None:
            host = _host(kind, n, canonical_perfect_matching(n))
            result = search_cycle_factorization(host, h, None if budget is None else budget - nodes)
            nodes += result.nodes
            if result.status != FOUND:
                raise IngredientUnavailable(n, h, kind, result.status, nodes)
            cf = result.factorization
    report = validate_cycle_factorization(cf)
    if report.passed:
        return cf
    if entry is not None:
        raise SeedCatalogError(f"{bad_entry}: {report.brief()}")
    raise RuntimeError(f"internal error: factorization failed validation: {report.brief()}")


def cycle_factorization_odd(
    n: int,
    h: int,
    *,
    catalog: Mapping | None = None,
    budget: int | None = DEFAULT_SEARCH_BUDGET,
) -> CycleFactorization:
    """An h-cycle factorization of K_n, n odd, h | n; validated before return.

    Resolution order: direct construction (Hamiltonian shape h = n), the
    seed catalog, the quotient structures, then bounded search.
    """
    return _resolve(COMPLETE, n, h, catalog, budget)


def cycle_factorization_minus_f(
    n: int,
    h: int,
    *,
    catalog: Mapping | None = None,
    budget: int | None = DEFAULT_SEARCH_BUDGET,
) -> CycleFactorization:
    """An h-cycle factorization of K_n - F, n even, h | n, plus F itself.

    The two classically missing triangle cases are pre-tabled and reported
    as nonexistent without a search.
    """
    return _resolve(COMPLETE_MINUS_F, n, h, catalog, budget)


class IngredientSource:
    """Resolves and caches cycle-factorization ingredients for the builder.

    One source shared across builds guarantees that every build for the same
    (v, h) consumes the same ingredient; failures are cached too so a missing
    ingredient is searched for at most once.
    """

    def __init__(self, catalog: Mapping | None = None, budget: int | None = DEFAULT_SEARCH_BUDGET):
        self.catalog = catalog
        self.budget = budget
        self._cache: dict = {}

    def __repr__(self) -> str:
        return f"IngredientSource(catalog={self.catalog!r}, budget={self.budget!r})"

    def odd(self, n: int, h: int) -> CycleFactorization:
        return self._get(COMPLETE, n, h)

    def minus_f(self, n: int, h: int) -> CycleFactorization:
        return self._get(COMPLETE_MINUS_F, n, h)

    def _get(self, kind: str, n: int, h: int) -> CycleFactorization:
        key = (kind, n, h)
        if key not in self._cache:
            try:
                self._cache[key] = _resolve(kind, n, h, self.catalog, self.budget)
            except IngredientUnavailable as exc:
                self._cache[key] = exc
        value = self._cache[key]
        if isinstance(value, IngredientUnavailable):
            # A fresh traceback each time: re-raising the cached object would
            # append this call's frames to the ones it already holds.
            raise value.with_traceback(None)
        return value


def load_seed_catalog(path) -> dict[tuple[int, int, str], CycleFactorization]:
    """Read every seed record under ``path`` (*.json files), keyed (n, h,
    host kind).

    Records use the standard document schema with cycle-factor classes.
    A ``path`` that is not a directory, or any unreadable file, raises
    OSError; a record that is not UTF-8, not a format-"1" document, not a
    cycle factorization, or keyed like another record raises
    SeedCatalogError naming the offending file.  Records are not certified
    here: the build that resolves a record's key certifies it, and a
    record that does not factor its host fails that build alone.
    """
    directory = Path(path)
    if not directory.is_dir():
        raise OSError(f"not a directory: {directory}")
    catalog: dict[tuple[int, int, str], CycleFactorization] = {}
    for file in sorted(directory.glob("*.json")):
        data = file.read_bytes()
        try:
            doc = loads_document(data)
        except DocumentFormatError as exc:
            raise SeedCatalogError(f"{file.name}: {exc}") from exc
        payload = doc.payload
        if not isinstance(payload, CycleFactorization):
            raise SeedCatalogError(f"{file.name}: not a cycle-factorization record")
        key = (payload.host.order, payload.h, payload.host.kind)
        if key in catalog:
            raise SeedCatalogError(f"{file.name}: duplicate record for {key}")
        catalog[key] = payload._replace(source=f"catalog:{file.name}")
    return catalog
