"""Cycle-factorization ingredients: direct constructions, validated seed
catalogs, and bounded exact backtracking search.

A cycle factorization splits the edges of K_n (n odd) or K_n minus a
perfect matching F (n even) into parallel classes of h-cycles.  These are
the ingredients the inflation builder consumes; every factorization handed
out here is first re-checked by the validator, which lives in ``core`` with
the type, its canonical form and the shape rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Mapping

from .base_designs import one_factorization
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
    ``nodes`` is the number of search nodes spent, 0 when no search ran.
    """

    def __init__(self, n: int, h: int, host_kind: str, outcome: str, nodes: int = 0):
        self.n = n
        self.h = h
        self.host_kind = host_kind
        self.outcome = outcome
        self.nodes = nodes
        what = f"K_{n}" if host_kind == COMPLETE else f"K_{n} minus a perfect matching"
        super().__init__(f"no {h}-cycle factorization of {what} available: {outcome}")


class SeedCatalogError(Exception):
    """A seed record failed to load or validate (message names the file)."""


# ---------------------------------------------------------------------------
# Exact backtracking search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    status: str  # found | nonexistent | budget-exhausted
    factorization: CycleFactorization | None
    nodes: int


def _iter_cycles(
    anchor: int, avail: list[int], free: int, h: int, first: int
) -> Iterator[tuple[int, ...]]:
    """Canonical h-cycles through ``anchor`` in lexicographic order.

    Vertices are drawn from the ``free`` bitmask and consecutive pairs must
    be available edges; the second vertex is drawn from the ``first``
    bitmask.  Rotations are excluded by anchoring at the smallest vertex of
    the cycle, reflections by requiring the second vertex to be smaller than
    the last.
    """
    path = [anchor]

    def rec(mask: int, m: int) -> Iterator[tuple[int, ...]]:
        if len(path) == h - 1:
            # Last vertex: must close back to the anchor and beat path[1].
            m &= avail[anchor] & (-1 << (path[1] + 1))
            while m:
                bit = m & -m
                m ^= bit
                path.append(bit.bit_length() - 1)
                yield tuple(path)
                path.pop()
            return
        while m:
            bit = m & -m
            m ^= bit
            x = bit.bit_length() - 1
            rest = mask ^ bit
            path.append(x)
            yield from rec(rest, avail[x] & rest)
            path.pop()

    mask = free & ~(1 << anchor)
    yield from rec(mask, first & mask)


def search_cycle_factorization(
    host: HostGraph, h: int, budget: int | None = None
) -> SearchResult:
    """Exact class-by-class backtracking search for a cycle factorization.

    Each parallel class is grown by repeatedly extending the smallest
    uncovered vertex with a canonical h-cycle (exact-cover style).  Classes
    are kept in increasing order of their cycle through vertex 0, which
    breaks the class-permutation symmetry.  In that order the smallest
    neighbour m of 0 still available when a class starts is the second
    vertex of this class's cycle through 0: m is the second vertex of the
    cycle through 0 of this or a later class (were it the last, that cycle's
    second vertex would be a smaller available neighbour), and second
    vertices increase from class to class.  So each class's first cycle is
    drawn only through m.  The subtrees this cuts hold no factorization and
    the rest is visited in the same order, so the search returns the same
    factorization and status as one over every first cycle, in fewer nodes
    for the same budget; an exhausted search certifies nonexistence.
    ``budget`` caps the number of cycle placements tried (None = unbounded);
    identical inputs and budget always produce the identical result.
    """
    if host.kind not in (COMPLETE, COMPLETE_MINUS_F):
        raise ValueError(f"unsupported search host kind {host.kind!r}")
    n = host.order
    problems = factorization_shape_problems(host.kind, n, h)
    if problems:
        raise ValueError(problems[0])

    target = (n - 1) // 2
    avail = [0] * n
    for u, w in host_edges(host):
        avail[u] |= 1 << w
        avail[w] |= 1 << u
    full = (1 << n) - 1

    nodes = 0
    over_budget = False
    classes: list[tuple[tuple[int, ...], ...]] = []

    def extend(cycles: list[tuple[int, ...]], unplaced: int) -> bool:
        nonlocal nodes, over_budget
        if unplaced == 0:
            classes.append(tuple(cycles))
            if len(classes) == target or extend([], full):
                return True
            classes.pop()
            return False
        if not cycles:
            # A class starts at vertex 0, through its smallest free neighbour.
            anchor = 0
            first = avail[0] & -avail[0]
        else:
            # Most-constrained vertex; any unplaced vertex needs two available
            # unplaced neighbours to sit on a cycle of this class.
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
            first = avail[anchor]
        for cyc in _iter_cycles(anchor, avail, unplaced, h, first):
            nodes += 1
            if budget is not None and nodes > budget:
                over_budget = True
                return False
            mask = 0
            u = cyc[-1]
            for w in cyc:
                avail[u] ^= 1 << w
                avail[w] ^= 1 << u
                mask |= 1 << w
                u = w
            cycles.append(cyc)
            done = extend(cycles, unplaced & ~mask)
            cycles.pop()
            for w in cyc:
                avail[u] ^= 1 << w
                avail[w] ^= 1 << u
                u = w
            if done:
                return True
            if over_budget:
                return False
        return False

    found = extend([], full)
    if found:
        cf = canonical_factorization(CycleFactorization(host, h, tuple(classes), source="search"))
        return SearchResult(FOUND, cf, nodes)
    return SearchResult(BUDGET_EXHAUSTED if over_budget else NONEXISTENT, None, nodes)


# ---------------------------------------------------------------------------
# Direct constructions for the Hamiltonian shapes (h = n)
# ---------------------------------------------------------------------------


def _zigzag_path(i: int, mod: int) -> list[int]:
    # i, i+1, i-1, i+2, i-2, ... over Z_mod; consecutive differences use
    # every magnitude exactly once, so rotated copies are edge-disjoint.
    path = [i % mod]
    for k in range(1, mod):
        off = (k + 1) // 2 if k % 2 else -(k // 2)
        path.append((i + off) % mod)
    return path


def _hamiltonian_odd(n: int) -> CycleFactorization:
    """K_n (n odd) as (n-1)/2 Hamiltonian cycles: rotational zigzag scheme."""
    mod = n - 1
    classes = []
    for i in range(mod // 2):
        cyc = canonical_cycle([n - 1] + _zigzag_path(i, mod))
        classes.append((cyc,))
    return CycleFactorization(
        HostGraph.complete(n), n, tuple(classes), source="construction:zigzag-hamiltonian"
    )


def _hamiltonian_minus_f(n: int) -> CycleFactorization:
    """K_n - F (n even) as (n-2)/2 Hamiltonian cycles.

    The circle method gives n-1 perfect matchings; the union of two
    consecutive rounds is always a single Hamiltonian cycle (the two-step
    map is x -> x+2 on an odd modulus), and the unpaired last round is F.
    """
    rounds = [cls.edges for cls in one_factorization(range(n))]
    classes = []
    for k in range((n - 2) // 2):
        nbrs: dict[int, list[int]] = {}
        for u, w in rounds[2 * k] + rounds[2 * k + 1]:
            nbrs.setdefault(u, []).append(w)
            nbrs.setdefault(w, []).append(u)
        cyc = [n - 1]
        prev = None
        while True:
            nxt = [x for x in sorted(nbrs[cyc[-1]]) if x != prev]
            prev = cyc[-1]
            if nxt[0] == n - 1:
                break
            cyc.append(nxt[0])
        classes.append((canonical_cycle(cyc),))
    host = HostGraph.complete_minus_f(n, rounds[n - 2])
    return CycleFactorization(
        host, n, tuple(classes), source="construction:paired-rounds-hamiltonian"
    )


# ---------------------------------------------------------------------------
# Resolution: construction, then catalog, then search
# ---------------------------------------------------------------------------


def canonical_perfect_matching(n: int) -> tuple[Edge, ...]:
    """The fixed matching {0,1}, {2,3}, ... used as F for searched hosts."""
    return tuple((2 * i, 2 * i + 1) for i in range(n // 2))


def _certified(cf: CycleFactorization) -> CycleFactorization:
    report = validate_cycle_factorization(cf)
    if not report.passed:
        raise RuntimeError(f"internal error: factorization failed validation: {report.brief()}")
    return cf


def _resolve(
    kind: str, n: int, h: int, catalog: Mapping | None, budget: int | None
) -> CycleFactorization:
    """Shape checks, construction (h = n), seed catalog, then bounded search."""
    problems = factorization_shape_problems(kind, n, h)
    if problems:
        raise ValueError(problems[0])
    if kind == COMPLETE_MINUS_F and (n, h) in NONEXISTENT_MINUS_F:
        raise IngredientUnavailable(n, h, kind, NONEXISTENT)
    if h == n:
        return _certified(_hamiltonian_odd(n) if kind == COMPLETE else _hamiltonian_minus_f(n))
    cf = catalog.get((n, h, kind)) if catalog else None
    if cf is None:
        if kind == COMPLETE:
            host = HostGraph.complete(n)
        else:
            host = HostGraph.complete_minus_f(n, canonical_perfect_matching(n))
        result = search_cycle_factorization(host, h, budget)
        if result.status != FOUND:
            raise IngredientUnavailable(n, h, kind, result.status, result.nodes)
        cf = result.factorization
    return _certified(cf)


def cycle_factorization_odd(
    n: int,
    h: int,
    *,
    catalog: Mapping | None = None,
    budget: int | None = DEFAULT_SEARCH_BUDGET,
) -> CycleFactorization:
    """An h-cycle factorization of K_n, n odd, h | n; validated before return.

    Resolution order: direct construction (Hamiltonian shape h = n), the
    seed catalog, then bounded search.
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


@dataclass
class IngredientSource:
    """Resolves and caches cycle-factorization ingredients for the builder.

    One source shared across builds guarantees that every build for the same
    (v, h) consumes the same ingredient; failures are cached too so a missing
    ingredient is searched for at most once.
    """

    catalog: Mapping | None = None
    budget: int | None = DEFAULT_SEARCH_BUDGET
    _cache: dict = field(default_factory=dict, repr=False)

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
            raise value
        return value


def load_seed_catalog(path) -> dict[tuple[int, int, str], CycleFactorization]:
    """Load and validate every seed record under ``path`` (*.json files).

    Records use the standard document schema with cycle-factor classes.
    A ``path`` that is not a directory, or any unreadable file, raises
    OSError; malformed, undecodable or invalid records raise
    SeedCatalogError naming the offending file.  Keys are (n, h, host kind).
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
        report = validate_cycle_factorization(payload)
        if not report.passed:
            raise SeedCatalogError(f"{file.name}: invalid record: {report.brief()}")
        key = (payload.host.order, payload.h, payload.host.kind)
        if key in catalog:
            raise SeedCatalogError(f"{file.name}: duplicate record for {key}")
        catalog[key] = replace(payload, source=f"catalog:{file.name}")
    return catalog
