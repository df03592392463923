"""Benchmark inputs and output checks that do not use the sunurd package.

Everything here works on plain JSON, so a defect in the library cannot hide
itself by also breaking the check that is meant to catch it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path


def _round_robin(points: list[int]) -> list[list[tuple[int, int]]]:
    """Circle-method 1-factorization of the complete graph on ``points``."""
    n = len(points)
    hub, ring = points[-1], points[:-1]
    rounds = []
    for i in range(n - 1):
        pairs = [(hub, ring[i])]
        pairs += [(ring[(i + j) % (n - 1)], ring[(i - j) % (n - 1)]) for j in range(1, n // 2)]
        rounds.append(pairs)
    return rounds


def write_c4_seed_record(path: Path, n: int, rng: random.Random) -> None:
    """A C4-factorization of K_n - F as a sunurd seed record (4 | n).

    Weight-2 doubling of a round-robin 1-factorization of K_{n/2}: base
    point p becomes the pair {2p, 2p+1}, which is the removed matching F,
    and base edge {p, q} becomes the 4-cycle (2p, 2q, 2p+1, 2q+1).  The seed
    only relabels the base points, so every seed gives a record of the same
    size and shape.
    """
    if n % 4:
        raise ValueError(f"n={n} must be a multiple of 4")
    base = list(range(n // 2))
    rng.shuffle(base)
    classes = []
    for pairs in _round_robin(base):
        cycles = []
        for a, b in pairs:
            p, q = min(a, b), max(a, b)
            cycles.append([2 * p, 2 * q, 2 * p + 1, 2 * q + 1])
        classes.append({"type": "cycle_factor", "cycles": sorted(cycles)})
    record = {
        "format_version": "1",
        "host": {
            "kind": "complete_minus_f",
            "v": n,
            "matching": [[2 * p, 2 * p + 1] for p in range(n // 2)],
        },
        "h": 4,
        "classes": classes,
        "source": "benchmark:weight-2-doubled-round-robin",
    }
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def check_document(text: str, v: int, h: int, r: int, s: int) -> str | None:
    """Why a built document does not describe the requested design, or None.

    Checks the declared host order and cycle length, and that counting the
    classes by type gives the requested (r, s).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"not JSON: {exc}"
    if not isinstance(doc, dict) or not isinstance(doc.get("classes"), list):
        return "not a design document"
    host = doc.get("host")
    if not isinstance(host, dict) or host.get("kind") != "complete" or host.get("v") != v:
        return f"host is {host!r}, expected complete on {v} vertices"
    if doc.get("h") != h:
        return f"h is {doc.get('h')!r}, expected {h}"
    types = [c.get("type") if isinstance(c, dict) else None for c in doc["classes"]]
    got = (types.count("one_factor"), types.count("sun_factor"))
    if got != (r, s) or len(types) != r + s:
        return f"class counts (r,s)={got} of {len(types)} classes, expected ({r},{s})"
    return None


def corrupt_document(text: str, rng: random.Random) -> tuple[str, str]:
    """A copy of a built document with one seeded swap, and what was swapped.

    The swap exchanges endpoints across two edges of one matching class, or
    two pendants of one sun.  Both keep every class a valid covering of the
    vertices but break the edge partition: two host edges go missing and two
    are covered twice.  The seed picks only the position of the swap.
    """
    doc = json.loads(text)
    sites = []
    for ci, cls in enumerate(doc["classes"]):
        if cls["type"] == "one_factor" and len(cls["edges"]) >= 2:
            sites.append(("edges", ci))
        elif cls["type"] == "sun_factor":
            sites.append(("pendants", ci))
    kind, ci = rng.choice(sites)
    cls = doc["classes"][ci]
    if kind == "edges":
        i, j = rng.sample(range(len(cls["edges"])), 2)
        (a, b), (c, d) = cls["edges"][i], cls["edges"][j]
        cls["edges"][i], cls["edges"][j] = [a, d], [c, b]
        what = f"class {ci}: edges {a}-{b}, {c}-{d} -> {a}-{d}, {c}-{b}"
    else:
        k = rng.randrange(len(cls["suns"]))
        pendants = cls["suns"][k]["pendants"]
        i, j = rng.sample(range(len(pendants)), 2)
        pendants[i], pendants[j] = pendants[j], pendants[i]
        what = f"class {ci}: sun {k} pendants at {i} and {j} swapped"
    return json.dumps(doc, indent=2) + "\n", what
