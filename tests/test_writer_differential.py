"""Differential check of the format-"1" writer against json's indent encoder.

``dumps_document`` writes the document text itself.  The reference below is
the dict builder it replaced, kept verbatim, rendered by
``json.dumps(..., indent=2)``; the two must agree byte for byte on every
generated payload and on every design of every spectrum with v <= 32 that
builds.  Payloads use int labels, as every constructor and the reader do.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from sunurd import (
    CycleFactorization,
    Decomposition,
    HostGraph,
    IngredientSource,
    IngredientUnavailable,
    ParallelClass,
    ParamTuple,
    Sun,
    admissible_pairs,
    build,
    cycle_factorization_minus_f,
    cycle_factorization_odd,
    dumps_document,
    to_document,
)
from sunurd.core import (
    BLOWN_CYCLE,
    COMPLETE,
    COMPLETE_MINUS_F,
    ONE_FACTOR,
    SUN_FACTOR,
)
from sunurd.serialization import FORMAT_VERSION
from sunurd.writer import canonical_decomposition, canonical_factorization


# --- reference: the dict builder the writer replaced, verbatim -------------


def _host_to_doc(host: HostGraph) -> dict:
    # ``host`` comes from a canonical form, so its matching is already sorted.
    if host.kind == COMPLETE:
        return {"kind": "complete", "v": host.order}
    if host.kind == COMPLETE_MINUS_F:
        return {
            "kind": "complete_minus_f",
            "v": host.order,
            "matching": [list(e) for e in host.matching],
        }
    if host.kind == BLOWN_CYCLE:
        return {
            "kind": "blown_cycle",
            "m": len(host.groups),
            "n": len(host.groups[0]) if host.groups else 0,
            "groups": [list(g) for g in host.groups],
        }
    raise ValueError(f"unknown host kind {host.kind!r}")


def reference_document(payload, h: int | None = None, source: str | None = None) -> dict:
    """Canonical document dict for a Decomposition or CycleFactorization.

    ``h`` is required for decompositions without sun classes (it cannot be
    inferred from pure matchings).
    """
    if isinstance(payload, CycleFactorization):
        canon = canonical_factorization(payload)
        classes = [
            {"type": "cycle_factor", "cycles": [list(c) for c in cls]}
            for cls in canon.classes
        ]
        return {
            "format_version": FORMAT_VERSION,
            "host": _host_to_doc(canon.host),
            "h": payload.h,
            "classes": classes,
            "source": source if source is not None else payload.source,
        }

    if not isinstance(payload, Decomposition):
        raise TypeError(f"cannot serialize {type(payload).__name__}")
    if h is None:
        for cls in payload.classes:
            if cls.kind == SUN_FACTOR and cls.suns:
                h = len(cls.suns[0].cycle)
                break
    if h is None:
        raise ValueError("h is required to serialize a decomposition without suns")
    canon = canonical_decomposition(payload)
    classes = []
    for cls in canon.classes:
        if cls.kind == ONE_FACTOR:
            classes.append({"type": "one_factor", "edges": [list(e) for e in cls.edges]})
        else:
            classes.append(
                {
                    "type": "sun_factor",
                    "suns": [
                        {"cycle": list(s.cycle), "pendants": list(s.pendants)}
                        for s in cls.suns
                    ],
                }
            )
    doc = {
        "format_version": FORMAT_VERSION,
        "host": _host_to_doc(canon.host),
        "h": h,
        "classes": classes,
    }
    if source is not None:
        doc["source"] = source
    return doc


def reference_text(payload, h: int | None = None, source: str | None = None) -> str:
    return json.dumps(reference_document(payload, h=h, source=source), indent=2) + "\n"


def assert_same_text(actual: str, expected: str) -> None:
    # pytest's own diff of two texts of thousands of lines takes minutes;
    # report the first differing offset instead.
    if actual != expected:
        i = next(
            (i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
            min(len(actual), len(expected)),
        )
        pytest.fail(
            f"texts differ at offset {i} (lengths {len(actual)}, {len(expected)}): "
            f"{actual[max(0, i - 30):i + 30]!r} != {expected[max(0, i - 30):i + 30]!r}"
        )


# --- generated payloads -----------------------------------------------------

labels = st.integers(min_value=-(10**12), max_value=10**12)
pairs = st.lists(labels, min_size=2, max_size=2, unique=True)
orders = st.integers(min_value=0, max_value=10**6)
sources = st.one_of(
    st.none(), st.text(alphabet=st.characters(max_codepoint=127)), st.text()
)

hosts = st.one_of(
    st.builds(HostGraph.complete, orders),
    st.builds(HostGraph.complete_minus_f, orders, st.lists(pairs, max_size=5)),
    st.builds(HostGraph.blown_cycle, st.lists(st.lists(labels, max_size=4), max_size=5)),
)


def _distinct(min_size: int, max_size: int):
    return st.lists(labels, min_size=min_size, max_size=max_size, unique=True)


suns = st.integers(min_value=3, max_value=7).flatmap(
    lambda k: _distinct(2 * k, 2 * k).map(lambda xs: Sun(tuple(xs[:k]), tuple(xs[k:])))
)
design_classes = st.one_of(
    st.builds(ParallelClass.one_factor, st.lists(pairs, max_size=6)),
    st.builds(ParallelClass.sun_factor, st.lists(suns, max_size=3)),
)
decompositions = st.builds(
    Decomposition, hosts, st.lists(design_classes, max_size=5).map(tuple)
)
cycle_classes = st.lists(_distinct(3, 8).map(tuple), max_size=4).map(tuple)
factorizations = st.builds(
    CycleFactorization,
    hosts,
    st.integers(min_value=3, max_value=100),
    st.lists(cycle_classes, max_size=4).map(tuple),
    sources.map(lambda s: "unspecified" if s is None else s),
)


@settings(max_examples=300, deadline=None)
@given(
    payload=st.one_of(decompositions, factorizations),
    h=st.one_of(st.none(), st.integers(min_value=1, max_value=100)),
    source=sources,
)
def test_generated_payloads(payload, h, source):
    try:
        expected = reference_text(payload, h=h, source=source)
    except ValueError:
        with pytest.raises(ValueError):
            dumps_document(payload, h=h, source=source)
        return
    assert_same_text(dumps_document(payload, h=h, source=source), expected)
    assert to_document(payload, h=h, source=source) == reference_document(
        payload, h=h, source=source
    )


# --- classes of different shapes in one document ---------------------------
#
# The writer makes one template per shape of class in a document: a
# one-factor class's edge count, a sun class's cycle lengths and sun count,
# a cycle class's cycle lengths.  Each payload below has classes that share
# a kind but not a shape, so a template reused across shapes shows.


def _edges(k: int) -> ParallelClass:
    return ParallelClass.one_factor([(2 * i, 2 * i + 1) for i in range(k)])


def _sun(first: int, k: int) -> Sun:
    return Sun(tuple(range(first, first + k)), tuple(range(first + k, first + 2 * k)))


def _cycles(*lengths: int) -> tuple[tuple[int, ...], ...]:
    starts = [sum(lengths[:i]) for i in range(len(lengths))]
    return tuple(tuple(range(a, a + k)) for a, k in zip(starts, lengths))


SHAPED_DOCUMENTS = {
    "edge-counts": Decomposition(
        HostGraph.complete(8), (_edges(1), _edges(4), _edges(2), _edges(4), _edges(1))
    ),
    "sun-counts": Decomposition(
        HostGraph.complete(24),
        tuple(ParallelClass.sun_factor([_sun(6 * i, 3) for i in range(m)]) for m in (1, 3, 2, 3)),
    ),
    "cycle-lengths": Decomposition(
        HostGraph.complete(16),
        tuple(ParallelClass.sun_factor([_sun(0, k)]) for k in (3, 5, 4, 3, 8)),
    ),
    # Same sun count and vertex count, lengths in the other order.
    "mixed-suns": Decomposition(
        HostGraph.complete(14),
        (
            ParallelClass.sun_factor([_sun(0, 3), _sun(6, 4)]),
            ParallelClass.sun_factor([_sun(0, 4), _sun(8, 3)]),
        ),
    ),
    "kinds-interleaved": Decomposition(
        HostGraph.complete(12),
        (_edges(3), ParallelClass.sun_factor([_sun(0, 3)]), _edges(6),
         ParallelClass.sun_factor([_sun(0, 3), _sun(6, 3)]), _edges(3)),
    ),
    "no-classes": Decomposition(HostGraph.complete(6), ()),
    "empty-classes": Decomposition(
        HostGraph.complete(6),
        (ParallelClass.one_factor([]), _edges(3), ParallelClass.sun_factor([]),
         ParallelClass.sun_factor([_sun(0, 3)]), ParallelClass.one_factor([]),
         ParallelClass.sun_factor([])),
    ),
    "only-empty-classes": Decomposition(
        HostGraph.complete(6), (ParallelClass.sun_factor([]), ParallelClass.one_factor([]))
    ),
    "cycle-classes": CycleFactorization(
        HostGraph.complete(9),
        3,
        (_cycles(3), _cycles(3, 3), (), _cycles(4, 5), _cycles(5, 4), _cycles(3)),
        "unspecified",
    ),
    "no-cycle-classes": CycleFactorization(HostGraph.complete(9), 3, (), None),
}


@pytest.mark.parametrize("payload", SHAPED_DOCUMENTS.values(), ids=SHAPED_DOCUMENTS)
def test_classes_of_different_shapes(payload):
    assert_same_text(dumps_document(payload, h=3), reference_text(payload, h=3))


# --- every spectrum with v <= 32, and the ingredients it uses ---------------

SPECTRA = [(v, h) for v in range(3, 33) for h in range(3, v + 1) if admissible_pairs(v, h)]


@pytest.fixture(scope="module")
def source() -> IngredientSource:
    # One source for every spectrum, so each ingredient is resolved once.
    return IngredientSource()


@pytest.mark.parametrize("v, h", SPECTRA)
def test_spectrum_designs(v, h, source):
    built = 0
    for p in admissible_pairs(v, h):
        try:
            dec = build(ParamTuple(v, h, p.r, p.s), source=source)
        except IngredientUnavailable:
            continue
        built += 1
        assert_same_text(dumps_document(dec, h=h), reference_text(dec, h=h))
    assert built


@pytest.mark.parametrize("n", range(3, 17))
def test_ingredients(n):
    resolve = cycle_factorization_odd if n % 2 else cycle_factorization_minus_f
    for h in range(3, n + 1):
        if n % h:
            continue
        try:
            cf = resolve(n, h)
        except IngredientUnavailable:
            continue
        assert_same_text(dumps_document(cf), reference_text(cf))
