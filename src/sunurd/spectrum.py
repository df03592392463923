"""Necessary-condition arithmetic for (matching, sun)-resolvable designs.

For K_v split into r perfect matchings and s sun-factor classes the edge
count forces r + 2s = v - 1, resolvability with s > 0 forces 2h | v, and a
per-vertex degree count forces s to be even.  ``admissible_pairs`` computes
the resulting spectrum J(v) in closed form; ``enumerate_by_counting`` is the
independent brute-force oracle over all candidate pairs.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class SpectrumPair(NamedTuple):
    r: int
    s: int


class ParamTuple(NamedTuple):
    v: int
    h: int
    r: int
    s: int


class Reason(enum.Enum):
    """The precise necessary condition a tuple violates."""

    DIVISIBILITY = "divisibility"
    PARITY_OF_S = "parity-of-s"
    EDGE_COUNT = "edge-count"
    RESIDUE_OF_R = "residue-of-r"


class Admissibility(NamedTuple):
    ok: bool
    reason: Reason | None = None
    detail: str = ""


_ADMISSIBLE = Admissibility(True)


def admissible_pairs(v: int, h: int) -> list[SpectrumPair]:
    """The spectrum J(v) for cycle length h, ordered by increasing r.

    Empty when v is not a positive multiple of 2h (see
    inadmissibility_reason() for the diagnostic).  Otherwise J(v) holds
    every r = v - 1 (mod 4) with 0 <= r < v, and s = (v - 1 - r) / 2.
    """
    if h < 3:
        raise ValueError("h must be at least 3")
    if v <= 0 or v % (2 * h):
        return []
    return [SpectrumPair(r, (v - 1 - r) // 2) for r in range((v - 1) % 4, v, 4)]


def inadmissibility_reason(v: int, h: int) -> str | None:
    """Why admissible_pairs(v, h) is empty, or None if it is not."""
    if h < 3:
        return "h must be at least 3"
    if v <= 0 or v % (2 * h):
        return f"v={v} is not a positive multiple of 2h={2 * h}"
    return None


def enumerate_by_counting(v: int, h: int) -> list[SpectrumPair]:
    """Independent oracle for J(v): exhaustive scan of all (r, s) candidates.

    Keeps every pair with r, s >= 0, s even, r + 2s = v - 1 and
    r = v - 1 (mod 4); s > 0 is allowed only when 2h divides v.  Must agree
    with admissible_pairs() wherever both are defined.
    """
    if h < 3:
        raise ValueError("h must be at least 3")
    if v <= 0 or v % (2 * h):
        return []
    out = []
    for r in range(v):
        rest = (v - 1) - r
        if rest < 0 or rest % 2:
            continue
        s = rest // 2
        if s % 2:
            continue
        if r % 4 != (v - 1) % 4:
            continue
        out.append(SpectrumPair(r, s))
    return out


def check_necessary(t: ParamTuple) -> Admissibility:
    """Screen a (v, h, r, s) tuple against the necessary conditions.

    s = 0 needs only an even v with r = v - 1 (a plain 1-factorization);
    s > 0 additionally needs 2h | v, s even and (r, s) in J(v).  Violations
    are returned as values carrying the first failed condition.
    """
    v, h, r, s = t
    if h < 3:
        return Admissibility(False, Reason.DIVISIBILITY, "h must be at least 3")
    if s == 0 and (v <= 0 or v % 2):
        return Admissibility(
            False, Reason.DIVISIBILITY, "v must be a positive even number for a 1-factorization"
        )
    if s != 0 and (v <= 0 or v % (2 * h)):
        return Admissibility(
            False,
            Reason.DIVISIBILITY,
            f"v must be a positive multiple of 2h={2 * h} when s > 0",
        )
    if s % 2:
        return Admissibility(False, Reason.PARITY_OF_S, "s must be even")
    if r + 2 * s != v - 1:
        return Admissibility(False, Reason.EDGE_COUNT, "r+2s must equal v-1")
    # With v even (2h | v when s > 0), s even and r + 2s = v - 1, r = v - 1
    # (mod 4) holds already, so (r, s) lies in J(v) exactly when neither
    # count is negative; for s = 0 that is r = v - 1 > 0.
    if r < 0 or s < 0:
        return Admissibility(
            False,
            Reason.RESIDUE_OF_R,
            f"r must be congruent to {(v - 1) % 4} mod 4 and nonnegative",
        )
    return _ADMISSIBLE
