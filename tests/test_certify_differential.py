"""Differential check of the verifier's coverage and partition findings.

Built designs are mutated as raw JSON documents.  The six coverage and
partition finding kinds reported by ``verify`` must equal those computed
by a short reference that reads the document with plain Counters and uses
nothing from sunurd.
"""

from __future__ import annotations

import copy
import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sunurd import ParamTuple, admissible_pairs, build, from_document, to_document, verify

PARTITION_KINDS = (
    "missing-edge",
    "duplicated-edge",
    "foreign-edge",
    "vertex-missed",
    "foreign-vertex",
    "vertex-repeated",
)


def _built(v: int, h: int) -> dict:
    # A middle pair of the spectrum, with both matching and sun classes.
    pairs = [p for p in admissible_pairs(v, h) if p.r > 0 and p.s > 0]
    p = pairs[len(pairs) // 2]
    return json.loads(json.dumps(to_document(build(ParamTuple(v, h, p.r, p.s)), h=h)))


DESIGNS = {vh: _built(*vh) for vh in ((12, 3), (16, 4), (18, 3), (20, 5))}


def reference_findings(doc: dict) -> list[str]:
    """The six coverage/partition findings of a complete-host design document.

    Every block's vertices count towards its class's coverage; only the
    edges of well-formed blocks (a pair without a loop, a sun whose 2h
    vertices are distinct) count towards the partition.
    """
    v = doc["host"]["v"]
    host = {(u, w) for u in range(v) for w in range(u + 1, v)}
    out: list[str] = []
    used: Counter = Counter()
    for ci, cls in enumerate(doc["classes"]):
        hits: Counter = Counter()
        for u, w in cls.get("edges", []):
            hits.update((u, w))
            if u != w:
                used[(min(u, w), max(u, w))] += 1
        for sun in cls.get("suns", []):
            cyc, pen = sun["cycle"], sun["pendants"]
            hits.update(cyc + pen)
            if len(set(cyc + pen)) == 2 * len(cyc):
                k = len(cyc)
                for a, b in [(cyc[i], cyc[(i + 1) % k]) for i in range(k)] + list(zip(cyc, pen)):
                    used[(min(a, b), max(a, b))] += 1
        for x in range(v):
            if hits[x] == 0:
                out.append(f"class {ci}: vertex-missed: vertex {x} not covered")
            elif hits[x] > 1:
                out.append(f"class {ci}: vertex-repeated: vertex {x} covered {hits[x]} times")
        for x in hits:
            if not 0 <= x < v:
                out.append(f"class {ci}: foreign-vertex: vertex {x} outside host")
    for e in host | set(used):
        g = used[e]
        if e not in host:
            out.append(f"decomposition: foreign-edge: edge {e} not in host (used {g}x)")
        elif g == 0:
            out.append(f"decomposition: missing-edge: edge {e} never covered")
        elif g > 1:
            out.append(f"decomposition: duplicated-edge: edge {e} covered {g} times")
    return sorted(out)


def _blocks(cls: dict) -> list:
    return cls["edges"] if cls["type"] == "one_factor" else cls["suns"]


def mutate(doc: dict, op: str, a: int, b: int, c: int) -> None:
    """Apply one mutation in place; a, b, c pick classes, blocks and slots."""
    classes = doc["classes"]
    if op in ("swap-endpoints", "swap-pendants"):
        kind = "one_factor" if op == "swap-endpoints" else "sun_factor"
        pool = [cls for cls in classes if cls["type"] == kind and _blocks(cls)]
        if not pool:
            return
        blocks = _blocks(pool[a % len(pool)])
        x, y = blocks[b % len(blocks)], blocks[c % len(blocks)]
        if op == "swap-endpoints":
            x[1], y[1] = y[1], x[1]
        else:
            i, j = b % len(x["pendants"]), c % len(y["pendants"])
            if x is y:
                j = (i + 1) % len(x["pendants"])
            x["pendants"][i], y["pendants"][j] = y["pendants"][j], x["pendants"][i]
        return
    pool = [cls for cls in classes if _blocks(cls)]
    if not pool:
        return
    cls = pool[a % len(pool)]
    blocks = _blocks(cls)
    i = b % len(blocks)
    if op == "drop-block":
        del blocks[i]
    elif op == "duplicate-block":
        same = [k for k in classes if k["type"] == cls["type"]]
        _blocks(same[c % len(same)]).append(copy.deepcopy(blocks[i]))
    elif op == "relabel-outside":
        block = blocks[i]
        slots = block if cls["type"] == "one_factor" else block["cycle"] + block["pendants"]
        old = slots[c % len(slots)]
        new = doc["host"]["v"] + c % 3
        if cls["type"] == "one_factor":
            block[block.index(old)] = new
        else:
            part = block["cycle"] if old in block["cycle"] else block["pendants"]
            part[part.index(old)] = new


OPS = ("swap-endpoints", "swap-pendants", "drop-block", "duplicate-block", "relabel-outside")
mutation = st.tuples(
    st.sampled_from(OPS), st.integers(0, 99), st.integers(0, 99), st.integers(0, 99)
)


def verify_findings(doc: dict) -> list[str]:
    parsed = from_document(doc)
    report = verify(parsed.payload, expected_h=parsed.h)
    return sorted(str(f) for f in report.violations if f.kind in PARTITION_KINDS)


@pytest.mark.parametrize("vh", sorted(DESIGNS))
def test_reference_accepts_built_design(vh):
    assert reference_findings(DESIGNS[vh]) == verify_findings(DESIGNS[vh]) == []


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(DESIGNS)), st.lists(mutation, min_size=1, max_size=4))
def test_findings_match_reference(vh, mutations):
    doc = copy.deepcopy(DESIGNS[vh])
    for op, a, b, c in mutations:
        mutate(doc, op, a, b, c)
    assert verify_findings(doc) == reference_findings(doc)
