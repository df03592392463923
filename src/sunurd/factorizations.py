"""Cycle-factorization ingredients: direct constructions, seed catalogs,
and the resolution that picks one source for each ingredient.

A cycle factorization splits the edges of K_n (n odd) or K_n minus a
perfect matching F (n even) into parallel classes of h-cycles.  These are
the ingredients the inflation builder consumes.  ``_resolve``, and through
it the ``cycle_factorization_*`` functions and ``IngredientSource``,
certifies every factorization it returns with the validator, which lives in
``core`` with the type and the shape rule (its canonical form is in
``writer``).

The search engine lives in ``search``.  ``_resolve`` imports it only when
neither a construction nor the catalog supplies the ingredient, so
``build`` loads it only for a search, and then runs its quotient stage
alone; ``SearchResult`` and ``search_cycle_factorization``, the plain
search for library callers, are forwarded from it on first use (PEP 562).
"""

from __future__ import annotations

from typing import Mapping

from .core import (
    COMPLETE,
    COMPLETE_MINUS_F,
    CycleFactorization,
    Edge,
    HostGraph,
    factorization_shape_problems,
    only_ints,
    validate_cycle_factorization,
)
from .writer import canonical_cycle

DEFAULT_SEARCH_BUDGET = 400_000

FOUND = "found"
NONEXISTENT = "nonexistent"
BUDGET_EXHAUSTED = "budget-exhausted"

# Classical exceptions: K_6 - F and K_12 - F have no triangle factorization.
# Builds whose route needs one of these report the ingredient as missing
# instead of searching a space known to be empty.
NONEXISTENT_MINUS_F = {(6, 3), (12, 3)}


class IngredientUnavailable(Exception):
    """A required cycle factorization could not be supplied.

    ``outcome`` is "nonexistent" for an ingredient in NONEXISTENT_MINUS_F,
    the only proof of absence a build uses, and "budget-exhausted" when the
    quotient stage stopped without a factorization: its budget spent, or
    every structure run out, which proves nothing.  ``nodes`` is the number
    of path extensions the stage spent, 0 when no search ran.
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
# Resolution: construction, catalog, quotient structures
# ---------------------------------------------------------------------------


def canonical_perfect_matching(n: int) -> tuple[Edge, ...]:
    """The fixed matching {0,1}, {2,3}, ..., an F for the plain search's host."""
    return tuple((2 * i, 2 * i + 1) for i in range(n // 2))


def _check_request(kind: str, n: int, h: int, budget) -> None:
    # Every ingredient request, searched or resolved: budget, kind, shape.
    if budget is not None and not (only_ints([budget]) and budget >= 0):
        raise ValueError(f"budget must be None or an int >= 0, not {budget!r}")
    if kind not in (COMPLETE, COMPLETE_MINUS_F):
        raise ValueError(f"unsupported search host kind {kind!r}")
    problems = factorization_shape_problems(kind, n, h)
    if problems:
        raise ValueError(problems[0])


def _resolve(
    kind: str, n: int, h: int, catalog: Mapping | None, budget: int | None
) -> CycleFactorization:
    """Resolve one ingredient; this is the one certification of all it returns.

    After the request check, the factorization comes from exactly one
    source: a seed catalog entry (h < n), the construction (h = n), or the
    quotient structures, whose stage is the only search a build runs and
    whose path extensions ``budget`` bounds (None = unbounded).  A miss
    raises IngredientUnavailable: "nonexistent" only for the tabled
    NONEXISTENT_MINUS_F shapes, else "budget-exhausted".  A catalog entry
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
        from .search import _quotient_search

        cf, nodes = _quotient_search(kind, n, h, budget)
        if cf is None:
            raise IngredientUnavailable(n, h, kind, BUDGET_EXHAUSTED, nodes)
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
    seed catalog, then the quotient structures within ``budget``.
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


# The two public names of the search engine, loaded on first use.
_FORWARDED = ("SearchResult", "search_cycle_factorization")


def __getattr__(name: str):
    if name in _FORWARDED:
        from . import search

        return getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_FORWARDED})
