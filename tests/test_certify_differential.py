"""Differential check of the certifiers' coverage, partition and sun-shape
findings.

Built designs and seed records are mutated as raw JSON documents.  The six
coverage and partition finding kinds reported by ``verify`` and
``validate_cycle_factorization``, and the two kinds that name a sun of the
wrong shape (``malformed-sun``) or of a length other than h
(``non-uniform-class``), must equal those computed by a short reference
that reads the document with plain Counters and uses nothing from sunurd.
Complete hosts, K_n - F records and blown-cycle fills are covered; only the
last two have pairs of host vertices that are not host edges.  The fills
come on their default labels and on seeded, shuffled ones, whose host
positions are not in label order.
"""

from __future__ import annotations

import copy
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sunurd import (
    ParamTuple,
    UrgddKind,
    admissible_pairs,
    build,
    cycle_factorization_minus_f,
    from_document,
    to_document,
    urgdd_ch2,
    validate_cycle_factorization,
    verify,
)

REFERENCE_KINDS = (
    "missing-edge",
    "duplicated-edge",
    "foreign-edge",
    "vertex-missed",
    "foreign-vertex",
    "vertex-repeated",
    "malformed-sun",
    "non-uniform-class",
)


def _built(v: int, h: int) -> dict:
    # A middle pair of the spectrum, with both matching and sun classes.
    pairs = [p for p in admissible_pairs(v, h) if p.r > 0 and p.s > 0]
    p = pairs[len(pairs) // 2]
    return json.loads(json.dumps(to_document(build(ParamTuple(v, h, p.r, p.s)), h=h)))


DESIGNS = {vh: _built(*vh) for vh in ((12, 3), (16, 4), (18, 3), (20, 5))}


RECORDS = {(n, h): to_document(cycle_factorization_minus_f(n, h)) for n, h in ((8, 4), (12, 4))}


def _fill(h: int, kind: UrgddKind, seed: int) -> dict:
    # Seed 0: the default labels, groups {2i, 2i+1}.  Otherwise the labels
    # 0..2h-1 in an order drawn from the seed.
    if seed == 0:
        return to_document(urgdd_ch2(h, kind), h=h)
    labels = random.Random(seed).sample(range(2 * h), 2 * h)
    return to_document(urgdd_ch2(h, kind, labels[:h], labels[h:]), h=h)


# Keyed (seed, h, kind), so the fills on default labels sort first.
FILLS = {
    (seed, h, k.name): _fill(h, k, seed) for seed in (0, 1, 2) for h in (3, 4, 5) for k in UrgddKind
}


def reference_host(host: dict) -> tuple[list[int], set[tuple[int, int]]]:
    """The vertices and edges of a host descriptor."""
    if host["kind"] == "blown_cycle":
        groups = host["groups"]
        vertices = [x for g in groups for x in g]
        edges = {
            (min(u, w), max(u, w))
            for i, g in enumerate(groups)
            for u in g
            for w in groups[(i + 1) % len(groups)]
        }
        return vertices, edges
    v = host["v"]
    removed = {(min(u, w), max(u, w)) for u, w in host.get("matching", [])}
    return list(range(v)), {(u, w) for u in range(v) for w in range(u + 1, v)} - removed


def sun_problem(cyc: list[int], pen: list[int]) -> str | None:
    """Why a sun is malformed, or None: the first of three rules it breaks."""
    if len(cyc) < 3:
        return "cycle shorter than 3"
    if len(pen) != len(cyc):
        return "pendant count differs from cycle length"
    if len(set(cyc + pen)) != 2 * len(cyc):
        return "repeated vertex"
    return None


def reference_findings(doc: dict, infer_h: bool = False) -> list[str]:
    """The coverage, partition and sun-shape findings of a document.

    Every block's vertices count towards its class's coverage; only the
    edges of well-formed blocks (a pair without a loop, a sun of at least
    three cycle vertices, one pendant each and 2h distinct vertices, a
    cycle of h distinct vertices) count towards the partition.  A
    well-formed sun whose length is not h counts as well; h is the
    document's, or with ``infer_h`` the length of its first well-formed sun.
    """
    vertices, host = reference_host(doc["host"])
    h = doc["h"]
    if infer_h:
        suns = [sun for cls in doc["classes"] for sun in cls.get("suns", [])]
        lengths = [len(s["cycle"]) for s in suns if sun_problem(s["cycle"], s["pendants"]) is None]
        h = lengths[0] if lengths else None
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
            shown = f"({','.join(map(str, cyc))}; {','.join(map(str, pen))})"
            problem = sun_problem(cyc, pen)
            if problem is not None:
                out.append(f"class {ci}: malformed-sun: sun {shown}: {problem}")
                continue
            k = len(cyc)
            if k != h:
                detail = f"sun {shown} has cycle length {k}, expected {h}"
                out.append(f"class {ci}: non-uniform-class: {detail}")
            for a, b in [(cyc[i], cyc[(i + 1) % k]) for i in range(k)] + list(zip(cyc, pen)):
                used[(min(a, b), max(a, b))] += 1
        for cyc in cls.get("cycles", []):
            hits.update(cyc)
            if len(set(cyc)) == len(cyc) == doc["h"]:
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    used[(min(a, b), max(a, b))] += 1
        for x in vertices:
            if hits[x] == 0:
                out.append(f"class {ci}: vertex-missed: vertex {x} not covered")
            elif hits[x] > 1:
                out.append(f"class {ci}: vertex-repeated: vertex {x} covered {hits[x]} times")
        for x in hits:
            if x not in vertices:
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
    """The blocks of a class: its edges, suns or cycles."""
    return cls[{"one_factor": "edges", "sun_factor": "suns"}.get(cls["type"], "cycles")]


def _rows(cls: dict) -> list[list[int]]:
    """The vertex lists of a class: its edges, sun cycles and pendants, or cycles."""
    if cls["type"] == "sun_factor":
        return [part for sun in cls["suns"] for part in (sun["cycle"], sun["pendants"])]
    return cls["edges" if cls["type"] == "one_factor" else "cycles"]


def _neighbour(cls: dict, x: int) -> int:
    """A vertex that shares a block edge with x in this class."""
    if cls["type"] == "sun_factor":
        sun = next(s for s in cls["suns"] if x in s["cycle"] + s["pendants"])
        if x in sun["pendants"]:
            return sun["cycle"][sun["pendants"].index(x)]
        return sun["pendants"][sun["cycle"].index(x)]
    row = next(r for r in _rows(cls) if x in r)
    return row[(row.index(x) + 1) % len(row)]


def use_pair(doc: dict, x: int, y: int, ci: int) -> None:
    """Make class ci use the pair {x, y}: y trades places with a block
    neighbour of x, so the class still covers each vertex once."""
    cls = doc["classes"][ci]
    z = _neighbour(cls, x)
    swap = {y: z, z: y}
    for row in _rows(cls):
        row[:] = [swap.get(t, t) for t in row]


def reshape(suns: list[dict], op: str, b: int, c: int) -> None:
    """Change the shape of sun b of a class; c picks slots.  No row is left
    empty.  shorten-cycle drops a cycle vertex but not its pendant;
    drop-position drops both, which leaves a well-formed sun of length h - 1
    when h > 3; move-position moves both to the next sun of the class, which
    then has length h + 1; repeat-vertex writes one vertex of the sun twice.
    """
    sun = suns[b % len(suns)]
    cyc, pen = sun["cycle"], sun["pendants"]
    i = c % len(cyc)
    if op == "repeat-vertex":
        slots = [(cyc, k) for k in range(len(cyc))] + [(pen, k) for k in range(len(pen))]
        (row, j), (src, k) = slots[c % len(slots)], slots[(c + 1 + b) % len(slots)]
        if (row, j) != (src, k):
            row[j] = src[k]
        return
    if len(cyc) < 2 or (op != "shorten-cycle" and len(pen) < 2):
        return
    if op == "shorten-cycle":
        del cyc[i]
        return
    i = min(i, len(pen) - 1)
    x, y = cyc.pop(i), pen.pop(i)
    if op == "move-position":
        other = suns[(b + 1) % len(suns)]
        other["cycle"].append(x)
        other["pendants"].append(y)


SHAPE_OPS = ("shorten-cycle", "drop-position", "move-position", "repeat-vertex")


def mutate(doc: dict, op: str, a: int, b: int, c: int) -> None:
    """Apply one mutation in place; a, b, c pick classes, blocks and slots."""
    classes = doc["classes"]
    if op in SHAPE_OPS:
        pool = [cls for cls in classes if cls["type"] == "sun_factor" and cls["suns"]]
        if pool:
            reshape(pool[a % len(pool)]["suns"], op, b, c)
        return
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
        sun = cls["type"] == "sun_factor"
        slots = block["cycle"] + block["pendants"] if sun else block
        old = slots[c % len(slots)]
        new = max(reference_host(doc["host"])[0]) + 1 + c % 3
        if sun:
            part = block["cycle"] if old in block["cycle"] else block["pendants"]
            part[part.index(old)] = new
        else:
            block[block.index(old)] = new
    elif op == "repeat-in-class":
        # Slot c + 1 of block i (of its cycle, for a sun) is written over
        # slot c of the same block for even c, else of the block before it:
        # one vertex then sits twice in one block, or in two blocks whose
        # cycles each keep h distinct vertices.
        src, dst = (k["cycle"] if type(k) is dict else k for k in (blocks[i], blocks[i - c % 2]))
        dst[c % len(dst)] = src[(c + 1) % len(src)]


BLOCK_OPS = ("drop-block", "duplicate-block", "relabel-outside", "repeat-in-class")
OPS = ("swap-endpoints", "swap-pendants", *BLOCK_OPS, *SHAPE_OPS)
picks = [st.integers(0, 99)] * 3
mutation = st.tuples(st.sampled_from(OPS), *picks)
block_mutation = st.tuples(st.sampled_from(BLOCK_OPS), *picks)


def verify_findings(doc: dict, infer_h: bool = False) -> list[str]:
    parsed = from_document(doc)
    report = verify(parsed.payload, expected_h=None if infer_h else parsed.h)
    return sorted(str(f) for f in report.violations if f.kind in REFERENCE_KINDS)


@pytest.mark.parametrize("vh", sorted(DESIGNS))
def test_reference_accepts_built_design(vh):
    assert reference_findings(DESIGNS[vh]) == verify_findings(DESIGNS[vh]) == []


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([*sorted(DESIGNS), *sorted(FILLS)]),
    st.lists(mutation, min_size=1, max_size=4),
)
def test_findings_match_reference(key, mutations):
    # A fill has one sun per sun class, so a reshaped sun is its whole class.
    doc = copy.deepcopy({**DESIGNS, **FILLS}[key])
    for op, a, b, c in mutations:
        mutate(doc, op, a, b, c)
    assert verify_findings(doc) == reference_findings(doc)
    assert verify_findings(doc, infer_h=True) == reference_findings(doc, infer_h=True)


def verify_record_findings(doc: dict) -> list[str]:
    report = validate_cycle_factorization(from_document(doc).payload)
    return sorted(str(f) for f in report.violations if f.kind in REFERENCE_KINDS)


@pytest.mark.parametrize("nh", sorted(RECORDS))
def test_reference_accepts_record(nh):
    assert reference_findings(RECORDS[nh]) == verify_record_findings(RECORDS[nh]) == []


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(RECORDS)), st.lists(block_mutation, min_size=1, max_size=4))
def test_record_findings_match_reference(nh, mutations):
    # The block mutations on cycle classes, so that a class that fails the
    # whole-class check of validate_cycle_factorization is compared too.
    doc = copy.deepcopy(RECORDS[nh])
    for op, a, b, c in mutations:
        mutate(doc, op, a, b, c)
    assert verify_record_findings(doc) == reference_findings(doc)


@pytest.mark.parametrize("key", sorted(FILLS))
def test_reference_accepts_fill(key):
    assert reference_findings(FILLS[key]) == verify_findings(FILLS[key]) == []


def test_shuffled_fills_hold_positions_out_of_label_order():
    for (seed, h, kind), doc in FILLS.items():
        vertices = [x for g in doc["host"]["groups"] for x in g]
        assert (vertices == sorted(vertices)) is (seed == 0), (seed, h, kind)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(RECORDS)),
    st.integers(0, 99),
    st.integers(0, 99),
    st.sampled_from((1, 2)),
)
def test_removed_matching_edge_matches_reference(nh, p, c, times):
    # A pair of the removed matching is a slot of the index but no host edge;
    # it is used in one class or in two.
    doc = copy.deepcopy(RECORDS[nh])
    x, y = doc["host"]["matching"][p % len(doc["host"]["matching"])]
    for ci in range(c, c + times):
        use_pair(doc, x, y, ci % len(doc["classes"]))
    found = verify_record_findings(doc)
    assert f"decomposition: foreign-edge: edge {(x, y)} not in host (used {times}x)" in found
    assert found == reference_findings(doc)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FILLS)), st.integers(0, 99), st.integers(0, 99))
def test_edge_inside_group_matches_reference(key, g, c):
    # Two vertices of one group are a slot of the index but no host edge.
    doc = copy.deepcopy(FILLS[key])
    groups = doc["host"]["groups"]
    x, y = groups[g % len(groups)]
    use_pair(doc, x, y, c % len(doc["classes"]))
    found = verify_findings(doc)
    assert any(f.startswith("decomposition: foreign-edge: ") for f in found)
    assert found == reference_findings(doc)
