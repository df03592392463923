"""Top-level constructor: route a (v, h, r, s) tuple to a base design, a
plain 1-factorization, or a weight-2 inflation of a cycle factorization.

The inflation route doubles every base point p into the pair 2p, 2p+1
(``base_designs._doubled``) and replaces each base h-cycle with the blown
cycle on its doubled points, filled with one of the two uniform fill
designs: the sun fill contributes two global sun classes per base class,
the matching fill four global matchings.  The matching fill is one template
relabelled onto every base cycle; the sun fill of a base class is
``base_designs._sun_fill`` run on its cycles, the rule ``urgdd_ch2`` runs
on one.  The leftover edges are covered by matchings relabelled the same
way: the doubled pairs {2p, 2p+1}, and on K_n - F the two matchings across
each doubled edge of F.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .base_designs import UrgddKind, _doubled, _fixed_design, _sun_fill, urgdd_ch2
from .core import (
    COMPLETE,
    COMPLETE_MINUS_F,
    MAX_ORDER,
    ONE_FACTOR,
    Decomposition,
    HostGraph,
    ParallelClass,
    Sun,
    verify,
)
from .factorizations import CycleFactorization, IngredientSource, IngredientUnavailable
from .spectrum import Admissibility, ParamTuple, SpectrumPair, admissible_pairs, check_necessary
from .writer import _canonical_order


class Route(enum.Enum):
    PURE_MATCHINGS = "pure-matchings"
    SMALL_CASE = "small-case"
    INFLATION = "inflation"


class BuildPlan(NamedTuple):
    """How a tuple will be realized.

    For the inflation route, ``l`` is the number of base cycle classes and
    ``x = r // 4`` of them get the matching fill; ``ingredient`` names the
    required factorization as (order, h, host kind) and ``provenance``
    records where it actually came from once resolved.
    """

    route: Route
    v: int
    h: int
    r: int
    s: int
    x: int = 0
    l: int = 0
    ingredient: tuple[int, int, str] | None = None
    provenance: str | None = None


class InadmissibleTuple(ValueError):
    def __init__(self, t: ParamTuple, adm: Admissibility):
        self.tuple = t
        self.admissibility = adm
        super().__init__(f"{adm.reason.value}: {adm.detail}")


_default_source = IngredientSource()


def plan(t: ParamTuple) -> BuildPlan:
    """Classify an admissible tuple into its construction route.

    A tuple with s > 0 inflates an h-cycle factorization on n = v/2 points,
    of K_n for odd n and of K_n - F for even n.  In the paper's case split:
    v = 0 (mod 4h) inflates K_{v/2} - F; v = 2h (mod 4h) inflates K_{v/2}
    for odd h and K_{v/2} - F for even h.  The exception is (12, 3): its
    ingredient, a triangle factorization of K_6 - F, does not exist, so it
    has fixed designs.  Since r = v - 1 (mod 4) and r + 2s = v - 1, the
    x = r // 4 matching-filled classes and the s / 2 sun-filled ones make
    up the l = (n - 1) // 2 base classes: 0 <= x < l and s = 2(l - x).
    """
    t = ParamTuple(*t)
    adm = check_necessary(t)
    if not adm.ok:
        raise InadmissibleTuple(t, adm)
    v, h, r, s = t
    if s == 0:
        return BuildPlan(Route.PURE_MATCHINGS, v, h, r, s)
    if (v, h) == (12, 3):
        return BuildPlan(Route.SMALL_CASE, v, h, r, s)
    n = v // 2
    kind = COMPLETE if n % 2 else COMPLETE_MINUS_F
    l, x = (n - 1) // 2, r // 4
    return BuildPlan(Route.INFLATION, v, h, r, s, x=x, l=l, ingredient=(n, h, kind))


def inflate_cycle(cycle: tuple[int, ...], kind: UrgddKind) -> Decomposition:
    """Fill design on a base cycle's doubled points.

    Base point p becomes the group {2p, 2p+1}; the fragment host is the
    blown cycle on those groups and the classes come from the fill design of
    the requested kind (two sun classes, or four matchings).
    """
    labels = _doubled(cycle)
    return urgdd_ch2(len(labels) // 2, kind, labels[::2], labels[1::2])


def _matchings(templates, bases) -> list[ParallelClass]:
    # Each template matching relabelled onto every base, each edge put
    # smaller end first, and sorted; the bases are vertex-disjoint, so the
    # copies of one template form one matching.
    labels = list(map(_doubled, bases))
    return [
        ParallelClass(ONE_FACTOR, edges=tuple(sorted([
            (a, b) if a < b else (b, a)
            for lab in labels for u, w in t for a, b in [(lab[u], lab[w])]
        ])))
        for t in templates
    ]


def _assemble_inflation(t: ParamTuple, p: BuildPlan, cf: CycleFactorization) -> Decomposition:
    """Inflate every base cycle and add the leftover matchings.

    The matching fill is built once, as ``urgdd_ch2`` on its default labels,
    and template vertex 2i + k becomes 2*cycle[i] + k by ``_doubled``, as in
    ``inflate_cycle``.  The sun fill of a base class is ``_sun_fill`` on its
    cycles with a[x] = 2x and b[x] = 2x+1, the two halves of ``_doubled`` on
    the base points.  x -> 2x + k keeps order, so only a class not already
    canonical and sorted has its suns put in canonical order one by one.
    No shape is checked again: the fill is a certified design, relabelling
    is injective and ``build`` certifies the whole design.
    The leftover edges are the doubled pairs {2p, 2p+1} and, on K_n - F,
    the two matchings across each doubled edge of F.
    """
    v, h, r, s = t
    fill = [cls.edges for cls in urgdd_ch2(h, UrgddKind.FOUR_ZERO).classes]
    labels = _doubled(range(v // 2))
    sun_classes: list[ParallelClass] = []
    matchings: list[ParallelClass] = []
    for j, base_class in enumerate(cf.classes):
        if j < p.x:
            matchings += _matchings(fill, base_class)
            continue
        canonical = list(base_class) == sorted(base_class)
        canonical = canonical and all(c[0] == min(c) and c[1] < c[-1] for c in base_class)
        for suns in _sun_fill(base_class, labels[::2], labels[1::2]):
            if not canonical:
                suns = sorted(Sun(*_canonical_order(*sun)) for sun in suns)
            sun_classes.append(ParallelClass.sun_factor(suns))
    matchings += _matchings([((0, 1),)], [(q,) for q in range(v // 2)])
    if cf.removed_matching:
        matchings += _matchings([((0, 2), (1, 3)), ((0, 3), (1, 2))], cf.removed_matching)
    return Decomposition(HostGraph.complete(v), tuple(sun_classes) + tuple(matchings))


def build(
    t: ParamTuple,
    *,
    source: IngredientSource | None = None,
    certify: bool = True,
) -> Decomposition:
    """Construct a decomposition of K_v with exactly r matchings and s sun
    classes, certified by the verifier and returned in canonical form on
    every route (``writer.canonical_decomposition`` gives it back unchanged).

    Raises InadmissibleTuple when the necessary conditions fail, ValueError
    when v is above ``core.MAX_ORDER`` and IngredientUnavailable when an
    inflation route needs a cycle factorization that is neither constructed,
    cataloged, nor found within the search budget.
    """
    dec, _ = build_with_plan(t, source=source, certify=certify)
    return dec


def build_with_plan(
    t: ParamTuple,
    *,
    source: IngredientSource | None = None,
    certify: bool = True,
) -> tuple[Decomposition, BuildPlan]:
    """``build``'s certified design in canonical form, and the plan it ran."""
    t = ParamTuple(*t)
    p = plan(t)
    if t.v > MAX_ORDER:
        raise ValueError(f"v={t.v} is above MAX_ORDER={MAX_ORDER}, the verifier's cap")
    src = source if source is not None else _default_source
    v, h, r, s = t

    if p.route is Route.INFLATION:
        n, _, kind = p.ingredient
        cf = src.minus_f(n, h) if kind == COMPLETE_MINUS_F else src.odd(n, h)
        dec = _assemble_inflation(t, p, cf)
        p = p._replace(provenance=cf.source)
    else:
        # (v - 1, 0) is the round robin; the other pairs are the K_12 designs.
        dec = _fixed_design(v, (r, s))
        p = p._replace(provenance="construction:fixed-design" if s else "construction:round-robin")

    if certify:
        report = verify(dec, expected_h=h if s > 0 else None)
        if not report.passed or (report.r, report.s) != (r, s):
            raise RuntimeError(
                f"internal error: built design failed certification for {t}: "
                f"got ({report.r},{report.s}); {report.brief()}"
            )
    return dec, p


def build_all(
    v: int,
    h: int,
    *,
    source: IngredientSource | None = None,
) -> dict[SpectrumPair, "Decomposition | IngredientUnavailable"]:
    """One verified decomposition per admissible pair, or the per-pair
    ingredient diagnostics for routes whose factorization is missing."""
    results: dict[SpectrumPair, Decomposition | IngredientUnavailable] = {}
    for pair in admissible_pairs(v, h):
        t = ParamTuple(v, h, pair.r, pair.s)
        try:
            results[pair] = build(t, source=source)
        except IngredientUnavailable as exc:
            results[pair] = exc
    return results
