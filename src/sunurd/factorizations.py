"""Cycle-factorization ingredients: direct constructions, seed catalogs,
and one backtracking engine, run for one base class under a cyclic group
(the quotient stage) and, with the trivial group, as the bounded exact
search.

A cycle factorization splits the edges of K_n (n odd) or K_n minus a
perfect matching F (n even) into parallel classes of h-cycles.  These are
the ingredients the inflation builder consumes.  ``_resolve``, and through
it the ``cycle_factorization_*`` functions and ``IngredientSource``,
certifies every factorization it returns with the validator, which lives in
``core`` with the type and the shape rule (its canonical form is in
``writer``); ``search_cycle_factorization`` returns what it finds unchecked.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .core import (
    COMPLETE,
    COMPLETE_MINUS_F,
    CycleFactorization,
    Edge,
    HostGraph,
    _host_index,
    factorization_shape_problems,
    only_ints,
    validate_cycle_factorization,
)
from .writer import canonical_cycle, canonical_factorization

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
# One search engine: base classes under a group of translations
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
# Quotient stage: one base class under Z_q, on the same engine
# ---------------------------------------------------------------------------

# Path extensions the quotient stage may spend on one ingredient, and on the
# first seeded restart of one structure; each round of restarts doubles it,
# so a small search space is still run to exhaustion.
QUOTIENT_NODES = 100_000
_RESTART_NODES = 1_000


# The structure table.  A row gives the name, the host kind and the number k
# of copies of Z_q.  The points are the k copies plus the f fixed points of
# the host kind, one for K_n and two for K_n - F, so q = (n - f) / k.  The
# classes are the q/s translates of one base class, where s is the order of
# its stabilizer; they must be the host's (n - f) / 2 classes, so s = 2 / k,
# and with k = 1 the base class is fixed by the half-turn.  F is the edge
# between the two fixed points plus the pure half-difference pairs when q is
# even, or the mixed difference-0 pairs when q is odd.
_STRUCTURES = (
    ("A", COMPLETE, 1),
    ("B", COMPLETE_MINUS_F, 1),
    ("C", COMPLETE, 2),
    ("C", COMPLETE_MINUS_F, 2),
)


def _fit(name: str, kind: str, k: int, n: int, h: int) -> tuple | None:
    """A structure laid on n points for h-cycles, or None if it does not fit.

    Without the half-turn a half-difference orbit would be covered twice,
    so F must hold it.  With it and odd h the fixed points' cycles close
    through such orbits, so F must not: that leaves one fixed point, K_n.
    """
    f = 1 if kind == COMPLETE else 2
    s = 2 // k
    q, r = divmod(n - f, k)
    if r or q < 2 or q % s or (s, f) == (1, 1) and q % 2 == 0 or (s, f) == (2, 2) and h % 2:
        return None
    if q % 2:
        matching = [(0, 1)] + [(v, v + q) for v in range(f, f + q)]
    else:
        matching = [(0, 1)] + [(v, v + q // 2) for v in range(f, n) if (v - f) % q < q // 2]
    return f"quotient:{name}", _host(kind, n, matching), f, q, s, 1


def _quotient_search(kind: str, n: int, h: int, cap: int) -> tuple[CycleFactorization | None, int]:
    """Search each fitting structure for a base class; (result, extensions).

    The fitting structures take seeded restarts in turn, _RESTART_NODES path
    extensions each in the first round and twice as many in each round after;
    a structure whose search space runs out is dropped, and the stage stops
    after ``cap`` extensions in all.  Each restart draws every point's pivot
    from a generator seeded by (kind, n, h), so identical inputs give the
    identical factorization in any process.  Running out proves nothing
    about the ingredient, only about the structures.
    """
    # Imported here: of the CLI commands only ``build`` imports this module,
    # and few builds search.
    import random

    rng = random.Random(f"{kind}:{n}:{h}")
    rows = [row for spec in _STRUCTURES if spec[1] == kind if (row := _fit(*spec, n, h))]
    nodes, limit = 0, _RESTART_NODES
    while rows and nodes < cap:
        for row in list(rows):
            pivots = [-1 << rng.randrange(n) for _ in range(n)]
            status, cf, spent = _search(row, h, pivots, min(limit, cap - nodes))
            nodes += spent
            if cf is not None:
                return cf, nodes
            if status == NONEXISTENT:
                rows.remove(row)
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
    # Imported here, so a build that reads no catalog loads neither pathlib
    # nor the reader and json.
    from pathlib import Path

    from .serialization import DocumentFormatError, loads_document

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
