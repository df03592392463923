"""Top-level constructor: route a (v, h, r, s) tuple to a base design, a
plain 1-factorization, or a weight-2 inflation of a cycle factorization.

The inflation routes double every base point p into the pair 2p, 2p+1 and
replace each base h-cycle with the blown cycle on its doubled points, filled
with one of the two uniform fill designs: the sun fill contributes two
global sun classes per base class, the matching fill four global matchings.
Each fill comes from one template per kind, built once on the labels
0..2h-1 and relabelled onto every base cycle.
The leftover edges inside and across the doubled pairs are swept up by K_4
overlays on the removed matching (even orders) or by the single matching of
doubled pairs (odd orders).
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .base_designs import UrgddKind, one_factorization, urd12_h3, urgdd_ch2
from .core import (
    COMPLETE,
    COMPLETE_MINUS_F,
    MAX_ORDER,
    Decomposition,
    HostGraph,
    ParallelClass,
    canonicalize_sun,
    edge,
    verify,
)
from .factorizations import CycleFactorization, IngredientSource, IngredientUnavailable
from .spectrum import Admissibility, ParamTuple, SpectrumPair, admissible_pairs, check_necessary


class Route(enum.Enum):
    PURE_MATCHINGS = "pure-matchings"
    SMALL_CASE = "small-case"
    INFLATION_0_MOD_4H = "inflation-0mod4h"
    INFLATION_2H_EVEN = "inflation-2h-even"
    INFLATION_2H_ODD = "inflation-2h-odd"


class BuildPlan(NamedTuple):
    """How a tuple will be realized.

    For inflation routes, ``l`` is the number of base cycle classes and
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
    of K_n for odd n and of K_n - F for even n, except (12, 3): its
    ingredient, a triangle factorization of K_6 - F, does not exist, so it
    has fixed designs.
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
    if n % 2:
        route, kind = Route.INFLATION_2H_ODD, COMPLETE
    else:
        route = Route.INFLATION_2H_EVEN if v % (4 * h) else Route.INFLATION_0_MOD_4H
        kind = COMPLETE_MINUS_F
    l, x = (n - 1) // 2, r // 4
    if not 0 <= x < l or s != 2 * (l - x):
        raise RuntimeError(f"internal error: inconsistent plan for {t}: x={x}, l={l}")
    return BuildPlan(route, v, h, r, s, x=x, l=l, ingredient=(n, h, kind))


def inflate_cycle(cycle: tuple[int, ...], kind: UrgddKind) -> Decomposition:
    """Fill design on a base cycle's doubled points.

    Base point p becomes the group {2p, 2p+1}; the fragment host is the
    blown cycle on those groups and the classes come from the fill design of
    the requested kind (two sun classes, or four matchings).
    """
    cyc = tuple(cycle)
    a = [2 * p for p in cyc]
    b = [2 * p + 1 for p in cyc]
    return urgdd_ch2(len(cyc), kind, a, b)


def _k4_overlay_round(pair, k: int) -> list:
    # The three matchings of K_4 on a doubled base edge {p, q}, indexed so
    # round 0 is the two inside-pair edges.
    p, q = pair
    w, x, y, z = 2 * p, 2 * p + 1, 2 * q, 2 * q + 1
    rounds = (
        ((w, x), (y, z)),
        ((w, y), (x, z)),
        ((w, z), (x, y)),
    )
    return [edge(u, t) for u, t in rounds[k]]


def _assemble_inflation(t: ParamTuple, p: BuildPlan, cf: CycleFactorization) -> Decomposition:
    """Inflate every base cycle and add the overlay matchings.

    Each fill kind is built once, as ``urgdd_ch2`` on the template labels
    a_i = 2i, b_i = 2i+1, and relabelled onto each base cycle: template
    vertex 2i + k becomes 2*cycle[i] + k, which is ``inflate_cycle(cycle,
    kind)`` without rebuilding the fill per cycle.  Relabelled suns are
    canonicalized again, since a base cycle need not be in canonical form.
    """
    v, h, r, s = t
    x = p.x
    templates = {kind: urgdd_ch2(h, kind).classes for kind in UrgddKind}
    sun_classes: list[ParallelClass] = []
    matchings: list[ParallelClass] = []
    for j, base_class in enumerate(cf.classes):
        labels = [[2 * q + k for q in cycle for k in (0, 1)] for cycle in base_class]
        if j < x:
            # Fill matchings with the same generator index unite into one
            # global matching; distinct cycles of a class are vertex-disjoint.
            for cls in templates[UrgddKind.FOUR_ZERO]:
                es = [edge(lab[u], lab[w]) for lab in labels for u, w in cls.edges]
                matchings.append(ParallelClass.one_factor(sorted(es)))
        else:
            for cls in templates[UrgddKind.ZERO_TWO]:
                suns = [
                    canonicalize_sun([lab[y] for y in cycle], [lab[y] for y in pendants])
                    for lab in labels
                    for cycle, pendants in cls.suns
                ]
                sun_classes.append(ParallelClass.sun_factor(sorted(suns)))

    extras: list[ParallelClass] = []
    if cf.host.kind == COMPLETE_MINUS_F:
        for k in range(3):
            es = [e for pair in cf.removed_matching for e in _k4_overlay_round(pair, k)]
            extras.append(ParallelClass.one_factor(sorted(es)))
    else:
        pairs = [edge(2 * q, 2 * q + 1) for q in range(v // 2)]
        extras.append(ParallelClass.one_factor(pairs))

    classes = tuple(sun_classes) + tuple(matchings) + tuple(extras)
    return Decomposition(HostGraph.complete(v), classes)


def build(
    t: ParamTuple,
    *,
    source: IngredientSource | None = None,
    certify: bool = True,
) -> Decomposition:
    """Construct a decomposition of K_v with exactly r matchings and s sun
    classes, certified by the verifier before it is returned.

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
    t = ParamTuple(*t)
    p = plan(t)
    if t.v > MAX_ORDER:
        raise ValueError(f"v={t.v} is above MAX_ORDER={MAX_ORDER}, the verifier's cap")
    src = source if source is not None else _default_source
    v, h, r, s = t

    if p.route is Route.PURE_MATCHINGS:
        dec = Decomposition(HostGraph.complete(v), tuple(one_factorization(range(v))))
        p = p._replace(provenance="construction:round-robin")
    elif p.route is Route.SMALL_CASE:
        dec = urd12_h3((r, s))
        p = p._replace(provenance="construction:fixed-design")
    else:
        n, _, kind = p.ingredient
        cf = src.minus_f(n, h) if kind == COMPLETE_MINUS_F else src.odd(n, h)
        dec = _assemble_inflation(t, p, cf)
        p = p._replace(provenance=cf.source)

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
    src = source if source is not None else _default_source
    results: dict[SpectrumPair, Decomposition | IngredientUnavailable] = {}
    for pair in admissible_pairs(v, h):
        t = ParamTuple(v, h, pair.r, pair.s)
        try:
            results[pair] = build(t, source=src)
        except IngredientUnavailable as exc:
            results[pair] = exc
    return results
