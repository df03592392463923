"""The contract of the public record types: repr, hashing, equality,
ordering and immutability, and the NamedTuple API (``_replace``,
``_asdict``, equality with the plain tuple of the fields).

Finding texts quote reprs (``sun Sun(cycle=5, pendants=(1, 2, 3)): ...``),
so a record's repr is part of its output, and records serve as dict keys
and set members, so their hash is that of their field values.
"""

from __future__ import annotations

import json

import pytest

from sunurd import (
    Admissibility,
    BuildPlan,
    CycleFactorization,
    Decomposition,
    Document,
    Finding,
    HostGraph,
    IngredientSource,
    ParallelClass,
    ParamTuple,
    Reason,
    Route,
    SearchResult,
    Sun,
    VerificationReport,
    build,
    dumps_document,
    loads_document,
)

K3 = HostGraph.complete(3)
CF = CycleFactorization(K3, 3, (((0, 1, 2),),))
K3_REPR = "HostGraph(kind='complete', order=3, matching=(), groups=())"
CF_REPR = f"CycleFactorization(host={K3_REPR}, h=3, classes=(((0, 1, 2),),), source='unspecified')"

# (record, its field names, its repr, a value for its first field that
# makes it differ)
RECORDS = [
    (
        Sun((0, 1, 2), (3, 4, 5)),
        ("cycle", "pendants"),
        "Sun(cycle=(0, 1, 2), pendants=(3, 4, 5))",
        (0, 2, 1),
    ),
    (
        HostGraph.complete_minus_f(4, [(2, 3), (0, 1)]),
        ("kind", "order", "matching", "groups"),
        "HostGraph(kind='complete_minus_f', order=4, matching=((0, 1), (2, 3)), groups=())",
        "complete",
    ),
    (
        HostGraph.blown_cycle([(0, 1), (2, 3), (4, 5)]),
        ("kind", "order", "matching", "groups"),
        "HostGraph(kind='blown_cycle', order=6, matching=(), groups=((0, 1), (2, 3), (4, 5)))",
        "complete",
    ),
    (
        ParallelClass.one_factor([(0, 1), (2, 3)]),
        ("kind", "edges", "suns"),
        "ParallelClass(kind='one_factor', edges=((0, 1), (2, 3)), suns=())",
        "sun_factor",
    ),
    (
        ParallelClass.sun_factor([Sun((0, 1, 2), (3, 4, 5))]),
        ("kind", "edges", "suns"),
        "ParallelClass(kind='sun_factor', edges=(), "
        "suns=(Sun(cycle=(0, 1, 2), pendants=(3, 4, 5)),))",
        "one_factor",
    ),
    (
        Decomposition(HostGraph.complete(2), (ParallelClass.one_factor([(0, 1)]),)),
        ("host", "classes"),
        "Decomposition(host=HostGraph(kind='complete', order=2, matching=(), groups=()), "
        "classes=(ParallelClass(kind='one_factor', edges=((0, 1),), suns=()),))",
        K3,
    ),
    (CF, ("host", "h", "classes", "source"), CF_REPR, HostGraph.complete(5)),
    (
        Finding(1, "vertex-missed", "vertex 0 not covered"),
        ("class_index", "kind", "detail"),
        "Finding(class_index=1, kind='vertex-missed', detail='vertex 0 not covered')",
        -1,
    ),
    (
        VerificationReport(False, 0, 1, (Finding(-1, "missing-edge", "edge (0, 1) never covered"),)),
        ("passed", "r", "s", "violations"),
        "VerificationReport(passed=False, r=0, s=1, violations=(Finding(class_index=-1, "
        "kind='missing-edge', detail='edge (0, 1) never covered'),))",
        True,
    ),
    (
        Document(3, CF),
        ("h", "payload", "source"),
        f"Document(h=3, payload={CF_REPR}, source=None)",
        5,
    ),
    (
        Admissibility(False, Reason.PARITY_OF_S, "s must be even"),
        ("ok", "reason", "detail"),
        "Admissibility(ok=False, reason=<Reason.PARITY_OF_S: 'parity-of-s'>, "
        "detail='s must be even')",
        True,
    ),
    (
        Admissibility(True),
        ("ok", "reason", "detail"),
        "Admissibility(ok=True, reason=None, detail='')",
        False,
    ),
    (
        BuildPlan(Route.INFLATION, 30, 3, 1, 14, x=0, l=7, ingredient=(15, 3, "complete")),
        ("route", "v", "h", "r", "s", "x", "l", "ingredient", "provenance"),
        "BuildPlan(route=<Route.INFLATION: 'inflation'>, v=30, h=3, r=1, s=14, "
        "x=0, l=7, ingredient=(15, 3, 'complete'), provenance=None)",
        Route.SMALL_CASE,
    ),
    (
        SearchResult("found", CF, 7),
        ("status", "factorization", "nodes"),
        f"SearchResult(status='found', factorization={CF_REPR}, nodes=7)",
        "nonexistent",
    ),
]
IDS = [f"{type(x).__name__}-{i}" for i, (x, *_) in enumerate(RECORDS)]


def field_values(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("record, names, text, _", RECORDS, ids=IDS)
def test_repr(record, names, text, _):
    assert repr(record) == text


@pytest.mark.parametrize("record, names, text, _", RECORDS, ids=IDS)
def test_hash_is_that_of_the_field_values(record, names, text, _):
    assert hash(record) == hash(field_values(record, names))


@pytest.mark.parametrize("record, names, text, other", RECORDS, ids=IDS)
def test_same_type_equality(record, names, text, other):
    values = field_values(record, names)
    assert record == type(record)(*values)
    assert record != type(record)(other, *values[1:])


@pytest.mark.parametrize("record, names, text, _", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record, names, text, _):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("record, names, text, other", RECORDS, ids=IDS)
def test_replace_makes_a_new_record(record, names, text, other):
    changed = record._replace(**{names[0]: other})
    assert type(changed) is type(record)
    assert field_values(changed, names) == (other, *field_values(record, names)[1:])
    assert changed != record == type(record)(*field_values(record, names))


@pytest.mark.parametrize("record, names, text, _", RECORDS, ids=IDS)
def test_records_are_tuples_of_their_fields(record, names, text, _):
    values = field_values(record, names)
    assert record._fields == names
    assert record == values and tuple(record) == values
    assert record._asdict() == dict(zip(names, values))


def test_sun_order_is_field_order():
    suns = [Sun((0, 2, 1), (3, 4, 5)), Sun((0, 1, 2), (5, 4, 3)), Sun((0, 1, 2), (3, 4, 5))]
    assert sorted(suns) == [suns[2], suns[1], suns[0]]
    assert Sun((0, 1, 2), (3, 4, 5)) < Sun((0, 1, 3), (2, 4, 5))


def test_sun_h_is_its_cycle_length():
    assert Sun((0, 1, 2), (3, 4, 5)).h == 3


def test_suns_of_the_sun_fill_and_the_reader_are_suns():
    # Both make each sun with tuple.__new__, not with a call to Sun.
    dec = build(ParamTuple(20, 10, 3, 8))
    text = dumps_document(dec)
    rows = [
        (tuple(sun["cycle"]), tuple(sun["pendants"]))
        for cls in json.loads(text)["classes"] if cls["type"] == "sun_factor"
        for sun in cls["suns"]
    ]
    assert len(rows) == 8
    for design in (dec, loads_document(text).payload):
        suns = [sun for cls in design.classes for sun in cls.suns]
        assert [type(sun) for sun in suns] == [Sun] * len(rows)
        assert suns == [Sun(cycle, pendants) for cycle, pendants in rows]
        assert [(sun.cycle, sun.pendants, sun.h) for sun in suns] == [(*row, 10) for row in rows]


def test_finding_order_is_index_then_kind_then_detail():
    findings = [
        Finding(0, "vertex-missed", "vertex 1 not covered"),
        Finding(0, "vertex-missed", "vertex 0 not covered"),
        Finding(-1, "missing-edge", "edge (0, 1) never covered"),
        Finding(0, "malformed-edge", "loop at vertex 2"),
        Finding(-1, "duplicated-edge", "edge (0, 2) covered 2 times"),
    ]
    assert sorted(findings) == [findings[4], findings[2], findings[3], findings[1], findings[0]]


def test_ingredient_source_repr_and_cache():
    assert repr(IngredientSource()) == "IngredientSource(catalog=None, budget=400000)"
    a = IngredientSource(catalog={}, budget=10)
    assert repr(a) == "IngredientSource(catalog={}, budget=10)"
    assert (a.catalog, a.budget) == ({}, 10)
    b = IngredientSource({}, 10)
    assert a._cache == {} and a._cache is not b._cache
    a.odd(3, 3)
    assert len(a._cache) == 1 and b._cache == {}
