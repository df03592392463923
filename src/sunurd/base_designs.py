"""Base ingredients: hand-entered small designs, blown-cycle fill designs,
and round-robin 1-factorizations.

The 6- and 12-vertex designs are fixed data; the fill designs on the blown
cycle C_{h(2)} are generated from index formulas (1-based, cyclic over
1..h) and every output here is expected to pass the independent verifier.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

from .core import ONE_FACTOR, Decomposition, HostGraph, ParallelClass
from .writer import canonicalize_sun

# ---------------------------------------------------------------------------
# Hand-checked designs on 6 and 12 vertices (3-suns)
# ---------------------------------------------------------------------------

# K_6 with one matching and two sun classes: signature (r, s) = (1, 2).
_K6_SUN_CLASSES = (
    (((0, 1, 2), (5, 4, 3)),),
    (((3, 5, 4), (0, 1, 2)),),
)
_K6_MATCHINGS = (((0, 4), (1, 3), (2, 5)),)

# K_12: four sun classes of two 3-suns each and seven matchings.  The
# (3, 4) design uses all four sun classes with the first three matchings;
# the (7, 2) design uses the first two sun classes with all seven.
_K12_SUN_CLASSES = (
    (((0, 4, 8), (10, 2, 7)), ((1, 5, 9), (11, 3, 6))),
    (((2, 6, 10), (8, 0, 5)), ((3, 7, 11), (9, 1, 4))),
    (((0, 5, 11), (9, 2, 6)), ((1, 4, 10), (8, 3, 7))),
    (((2, 7, 9), (11, 0, 4)), ((3, 6, 8), (10, 1, 5))),
)
_K12_MATCHINGS = (
    ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)),
    ((0, 2), (1, 3), (4, 7), (5, 6), (8, 11), (9, 10)),
    ((0, 3), (1, 2), (4, 6), (5, 7), (8, 10), (9, 11)),
    ((0, 5), (1, 10), (2, 11), (3, 4), (6, 8), (7, 9)),
    ((0, 7), (1, 8), (2, 5), (3, 10), (4, 9), (6, 11)),
    ((0, 9), (1, 6), (2, 7), (3, 8), (4, 10), (5, 11)),
    ((0, 11), (1, 4), (2, 9), (3, 6), (5, 8), (7, 10)),
)

# The sun classes and matchings of each fixed design, keyed by (v, (r, s)).
_FIXED_DESIGNS = {
    (6, (1, 2)): (_K6_SUN_CLASSES, _K6_MATCHINGS),
    (12, (3, 4)): (_K12_SUN_CLASSES, _K12_MATCHINGS[:3]),
    (12, (7, 2)): (_K12_SUN_CLASSES[:2], _K12_MATCHINGS),
}


def _sun_class(suns) -> ParallelClass:
    return ParallelClass.sun_factor(
        tuple(canonicalize_sun(cycle, pendants) for cycle, pendants in suns)
    )


def _matching_class(pairs) -> ParallelClass:
    # Pairs of distinct vertices, each put smaller endpoint first and sorted
    # in one pass, without ``edge`` or the per-edge copy of ``one_factor``.
    edges = sorted([(u, w) if u < w else (w, u) for u, w in pairs])
    return ParallelClass(ONE_FACTOR, edges=tuple(edges))


def _fixed_design(v: int, pair: tuple[int, int]) -> Decomposition:
    r, s = pair
    if (r, s) == (v - 1, 0):
        return Decomposition(HostGraph.complete(v), tuple(one_factorization(range(v))))
    if (v, (r, s)) not in _FIXED_DESIGNS:
        raise ValueError(f"(r,s)={pair!r} is not realizable on {v} vertices with 3-suns")
    suns, matchings = _FIXED_DESIGNS[v, (r, s)]
    classes = tuple(_sun_class(c) for c in suns) + tuple(_matching_class(m) for m in matchings)
    return Decomposition(HostGraph.complete(v), classes)


def urd6_h3(pair: tuple[int, int]) -> Decomposition:
    """The K_6 design with 3-suns for (r, s) in {(1, 2), (5, 0)}."""
    return _fixed_design(6, pair)


def urd12_h3(pair: tuple[int, int]) -> Decomposition:
    """The K_12 designs with 3-suns for (r, s) in {(3, 4), (7, 2), (11, 0)}."""
    return _fixed_design(12, pair)


# ---------------------------------------------------------------------------
# Fill designs on the blown cycle C_{h(2)}
# ---------------------------------------------------------------------------


class UrgddKind(enum.Enum):
    """The two uniform fill designs that exist on C_{h(2)}: two sun classes,
    or four perfect matchings."""

    ZERO_TWO = "zero-two"
    FOUR_ZERO = "four-zero"


def urgdd_ch2(
    h: int,
    kind: UrgddKind,
    a_labels: Sequence[int] | None = None,
    b_labels: Sequence[int] | None = None,
) -> Decomposition:
    """Uniform resolvable fill of C_{h(2)} with groups {a_i, b_i}.

    ``kind=ZERO_TWO`` returns two sun classes, each one sun spanning all 2h
    vertices; ``kind=FOUR_ZERO`` returns four perfect matchings of h edges.
    Index formulas below are 1-based and cyclic (index h+1 wraps to 1); the
    odd-h matching family mixes a formula part with literal patch edges and
    is emitted exactly as written, not simplified.  Without labels the
    groups are {2i, 2i+1} (0-based i): the builder's inflation calls it so,
    once per kind, and relabels the result onto each base cycle.
    """
    if h < 3:
        raise ValueError("h must be at least 3")
    if a_labels is None and b_labels is None:
        a_labels = [2 * i for i in range(h)]
        b_labels = [2 * i + 1 for i in range(h)]
    a_labels = list(a_labels) if a_labels is not None else []
    b_labels = list(b_labels) if b_labels is not None else []
    if len(a_labels) != h or len(b_labels) != h:
        raise ValueError("need exactly h labels for each of a and b")
    if len(set(a_labels) | set(b_labels)) != 2 * h:
        raise ValueError("the 2h labels must be distinct")

    def a(i: int) -> int:  # 1-based cyclic index into the a side
        return a_labels[(i - 1) % h]

    def b(i: int) -> int:
        return b_labels[(i - 1) % h]

    host = HostGraph.blown_cycle((a(i), b(i)) for i in range(1, h + 1))

    if kind is UrgddKind.ZERO_TWO:
        # One sun on each side, its pendants one step on along the other.
        ring = range(1, h + 1)
        suns = [([x(i) for i in ring], [y(i + 1) for i in ring]) for x, y in ((a, b), (b, a))]
        return Decomposition(host, tuple(_sun_class([sun]) for sun in suns))

    if kind is not UrgddKind.FOUR_ZERO:
        raise ValueError(f"unknown fill kind {kind!r}")

    if h % 2 == 0:
        f1 = [(a(1 + 2 * i), a(2 + 2 * i)) for i in range(h // 2)]
        f1 += [(b(1 + 2 * i), b(2 + 2 * i)) for i in range(h // 2)]
        f2 = [(a(2 + 2 * i), a(3 + 2 * i)) for i in range(h // 2)]
        f2 += [(b(2 + 2 * i), b(3 + 2 * i)) for i in range(h // 2)]
        f3 = [(a(1 + i), b(2 + i)) for i in range(h)]
        f4 = [(a(2 + i), b(1 + i)) for i in range(h)]
    else:
        # (h-5)//2 + 1 formula pairs; empty for h = 3, patches only.
        f1 = [(a(1 + 2 * i), a(2 + 2 * i)) for i in range((h - 5) // 2 + 1)]
        f1 += [(b(2 + 2 * i), b(3 + 2 * i)) for i in range((h - 5) // 2 + 1)]
        f1 += [(a(h - 2), a(h - 1)), (a(h), b(h - 1)), (b(1), b(h))]
        f2 = [(a(2 + 2 * i), a(3 + 2 * i)) for i in range((h - 3) // 2 + 1)]
        f2 += [(b(1 + 2 * i), b(2 + 2 * i)) for i in range((h - 3) // 2 + 1)]
        f2 += [(a(1), b(h))]
        f3 = [(a(2 + i), b(1 + i)) for i in range(h - 2)]
        f3 += [(a(1), a(h)), (b(h - 1), b(h))]
        f4 = [(a(1 + i), b(2 + i)) for i in range(h)]

    classes = tuple(_matching_class(f) for f in (f1, f2, f3, f4))
    return Decomposition(host, classes)


# ---------------------------------------------------------------------------
# Round-robin 1-factorizations
# ---------------------------------------------------------------------------


def one_factorization(vertices: Iterable[int]) -> list[ParallelClass]:
    """Circle-method 1-factorization of the complete graph on the vertices.

    The last vertex stays fixed while the others rotate: round i pairs the
    fixed vertex with position i and position i+j with i-j (mod n-1).
    Deterministic, n - 1 classes for n vertices, n even.
    """
    vs = list(vertices)
    n = len(vs)
    if n < 2 or n % 2:
        raise ValueError("a 1-factorization needs an even number (>= 2) of vertices")
    if len(set(vs)) != n:
        raise ValueError("the vertices of a 1-factorization must be distinct")
    mod = n - 1
    return [
        _matching_class(
            [(vs[mod], vs[i])] + [(vs[(i + j) % mod], vs[(i - j) % mod]) for j in range(1, n // 2)]
        )
        for i in range(mod)
    ]
