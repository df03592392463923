"""Golden characterization: exact finding text and exact document bytes.

The other suites check finding kinds and round trips; these pin the detail
text of every finding and the sha256 of the canonical format-"1" output, so
a refactor of the certifiers, the constructions or the serializer cannot
change either unnoticed.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from sunurd import (
    CycleFactorization,
    Decomposition,
    DocumentFormatError,
    HostGraph,
    IngredientSource,
    IngredientUnavailable,
    ParallelClass,
    ParamTuple,
    Sun,
    UrgddKind,
    admissible_pairs,
    build,
    canonical_cycle,
    canonical_decomposition,
    cycle_factorization_minus_f,
    cycle_factorization_odd,
    dumps_document,
    edge,
    enumerate_by_counting,
    loads_document,
    one_factorization,
    search_cycle_factorization,
    urd6_h3,
    urgdd_ch2,
    validate_cycle_factorization,
    verify,
)
from sunurd.core import COMPLETE, COMPLETE_MINUS_F, ONE_FACTOR, SUN_FACTOR
from sunurd.factorizations import NONEXISTENT_MINUS_F


def corrupted_design() -> Decomposition:
    sun_a, sun_b, _ = urd6_h3((1, 2)).classes
    return Decomposition(
        HostGraph.complete(6),
        (
            # pendants of the first sun swapped: a valid sun, wrong edges
            ParallelClass.sun_factor((Sun((0, 1, 2), (4, 5, 3)),)),
            sun_b,
            ParallelClass.one_factor(((0, 4), (1, 3), (2, 7))),
            ParallelClass.one_factor(((3, 3), (0, 1), (2, 4), (5, 5))),
            ParallelClass.sun_factor((Sun((0, 1, 2), (0, 4, 5)),)),
            ParallelClass(ONE_FACTOR, edges=((0, 1),), suns=sun_a.suns),
            ParallelClass("star_factor"),
        ),
    )


DESIGN_FINDINGS = [
    "decomposition: duplicated-edge: edge (0, 1) covered 3 times",
    "decomposition: duplicated-edge: edge (0, 4) covered 2 times",
    "decomposition: duplicated-edge: edge (1, 5) covered 2 times",
    "decomposition: duplicated-edge: edge (2, 4) covered 2 times",
    "decomposition: foreign-edge: edge (2, 7) not in host (used 1x)",
    "decomposition: missing-edge: edge (0, 5) never covered",
    "decomposition: missing-edge: edge (1, 4) never covered",
    "decomposition: missing-edge: edge (2, 5) never covered",
    "class 2: foreign-vertex: vertex 7 outside host",
    "class 2: vertex-missed: vertex 5 not covered",
    "class 3: malformed-edge: loop at vertex 3",
    "class 3: malformed-edge: loop at vertex 5",
    "class 3: vertex-repeated: vertex 3 covered 2 times",
    "class 3: vertex-repeated: vertex 5 covered 2 times",
    "class 4: malformed-sun: sun (0,1,2; 0,4,5): repeated vertex",
    "class 4: vertex-missed: vertex 3 not covered",
    "class 4: vertex-repeated: vertex 0 covered 2 times",
    "class 5: non-uniform-class: one-factor class carries sun blocks",
    "class 5: vertex-missed: vertex 2 not covered",
    "class 5: vertex-missed: vertex 3 not covered",
    "class 5: vertex-missed: vertex 4 not covered",
    "class 5: vertex-missed: vertex 5 not covered",
    "class 6: non-uniform-class: unknown class kind 'star_factor'",
    "class 6: vertex-missed: vertex 0 not covered",
    "class 6: vertex-missed: vertex 1 not covered",
    "class 6: vertex-missed: vertex 2 not covered",
    "class 6: vertex-missed: vertex 3 not covered",
    "class 6: vertex-missed: vertex 4 not covered",
    "class 6: vertex-missed: vertex 5 not covered",
]


UNORDERABLE_FINDINGS = [
    "decomposition: duplicated-edge: edge (1, 2) covered 2 times",
    "decomposition: missing-edge: edge (0, 4) never covered",
    "decomposition: missing-edge: edge (0, 5) never covered",
    "decomposition: missing-edge: edge (1, 3) never covered",
    "decomposition: missing-edge: edge (1, 5) never covered",
    "decomposition: missing-edge: edge (2, 3) never covered",
    "decomposition: missing-edge: edge (2, 4) never covered",
    "decomposition: missing-edge: edge (3, 4) never covered",
    "decomposition: missing-edge: edge (3, 5) never covered",
    "decomposition: missing-edge: edge (4, 5) never covered",
    "class 0: malformed-edge: edge (0, 'a') is not a pair of ints",
    "class 0: vertex-missed: vertex 0 not covered",
    "class 0: vertex-missed: vertex 3 not covered",
    "class 0: vertex-missed: vertex 4 not covered",
    "class 0: vertex-missed: vertex 5 not covered",
    "class 1: malformed-sun: sun Sun(cycle=(0, 1, 'x'), pendants=(3, 4, 5)) "
    "is not a Sun of int sequences",
    *(f"class 1: vertex-missed: vertex {x} not covered" for x in range(6)),
]


def corrupted_factorization() -> CycleFactorization:
    # The triangle factorization of K_9 (four classes) with one class per
    # kind of damage, and a fifth class that repeats the first.
    return CycleFactorization(
        HostGraph.complete(9),
        3,
        (
            ((0, 1, 3), (2, 4, 5), (6, 7, 8)),
            ((0, 3, 6), (1, 4, 9), (2, 5, 8)),
            ((0, 4, 8), (1, 5), (2, 3, 7), (6,)),
            ((0, 5, 5), (1, 3, 8), (2, 4, 6), (7,)),
            ((0, 1, 2), (3, 4, 5), (6, 7, 8)),
        ),
    )


FACTORIZATION_FINDINGS = [
    "decomposition: duplicated-edge: edge (0, 1) covered 2 times",
    "decomposition: duplicated-edge: edge (0, 3) covered 2 times",
    "decomposition: duplicated-edge: edge (1, 3) covered 2 times",
    "decomposition: duplicated-edge: edge (2, 4) covered 2 times",
    "decomposition: duplicated-edge: edge (2, 5) covered 2 times",
    "decomposition: duplicated-edge: edge (4, 5) covered 2 times",
    "decomposition: duplicated-edge: edge (6, 7) covered 2 times",
    "decomposition: duplicated-edge: edge (6, 8) covered 2 times",
    "decomposition: duplicated-edge: edge (7, 8) covered 2 times",
    "decomposition: foreign-edge: edge (1, 9) not in host (used 1x)",
    "decomposition: foreign-edge: edge (4, 9) not in host (used 1x)",
    "decomposition: missing-edge: edge (0, 5) never covered",
    "decomposition: missing-edge: edge (0, 7) never covered",
    "decomposition: missing-edge: edge (1, 5) never covered",
    "decomposition: missing-edge: edge (1, 6) never covered",
    "decomposition: missing-edge: edge (1, 7) never covered",
    "decomposition: missing-edge: edge (4, 7) never covered",
    "decomposition: missing-edge: edge (5, 6) never covered",
    "decomposition: missing-edge: edge (5, 7) never covered",
    "decomposition: wrong-class-count: 5 classes, expected 4",
    "class 1: foreign-vertex: vertex 9 outside host",
    "class 1: vertex-missed: vertex 7 not covered",
    "class 2: malformed-cycle: cycle (1, 5) has length 2",
    "class 2: malformed-cycle: cycle (6,) has length 1",
    "class 3: malformed-cycle: cycle (7,) has length 1",
    "class 3: malformed-cycle: repeated vertex in cycle (0, 5, 5)",
    "class 3: vertex-repeated: vertex 5 covered 2 times",
]


def findings(report) -> list[str]:
    return [str(f) for f in report.violations]


class TestFindingText:
    def test_corrupted_design(self):
        report = verify(corrupted_design(), expected_h=3)
        assert not report.passed
        assert (report.r, report.s) == (3, 3)
        assert findings(report) == DESIGN_FINDINGS

    def test_corrupted_factorization(self):
        report = validate_cycle_factorization(corrupted_factorization())
        assert not report.passed
        assert (report.r, report.s) == (0, 0)
        assert findings(report) == FACTORIZATION_FINDINGS

    @pytest.mark.parametrize(
        "cf, expected",
        [
            (
                CycleFactorization(HostGraph.complete(4), 3, ()),
                [
                    "decomposition: bad-parameters: complete host must have odd order",
                    "decomposition: bad-parameters: cycle length 3 must be >= 3 and divide 4",
                    "decomposition: missing-edge: edge (0, 1) never covered",
                    "decomposition: missing-edge: edge (0, 2) never covered",
                    "decomposition: missing-edge: edge (0, 3) never covered",
                    "decomposition: missing-edge: edge (1, 2) never covered",
                    "decomposition: missing-edge: edge (1, 3) never covered",
                    "decomposition: missing-edge: edge (2, 3) never covered",
                    "decomposition: wrong-class-count: 0 classes, expected 1",
                ],
            ),
            (
                CycleFactorization(HostGraph.blown_cycle(((0,), (1,), (2,))), 3, ()),
                ["decomposition: malformed-host: unsupported host kind 'blown_cycle'"],
            ),
            (
                CycleFactorization(HostGraph.complete_minus_f(4, ((0, 1),)), 4, ()),
                [
                    "decomposition: malformed-host: "
                    "removed matching is not a perfect matching of the host"
                ],
            ),
        ],
    )
    def test_factorization_parameter_findings(self, cf, expected):
        assert findings(validate_cycle_factorization(cf)) == expected

    def test_unorderable_vertices(self):
        # A block with a vertex that is not an int fails the type gate: it is
        # dropped with one finding and covers nothing.
        report = verify(
            Decomposition(
                HostGraph.complete(6),
                (
                    ParallelClass.one_factor([(0, "a"), (1, 2)]),
                    ParallelClass.sun_factor([Sun((0, 1, "x"), (3, 4, 5))]),
                    # a tuple cycle with list pendants is read like any sun
                    ParallelClass.sun_factor([Sun((0, 1, 2), [3, 4, 5])]),
                ),
            ),
        )
        assert findings(report) == UNORDERABLE_FINDINGS
        assert (report.r, report.s) == (1, 2)
        cf = CycleFactorization(HostGraph.complete(3), 3, (((0, 1, "z"),),))
        assert findings(validate_cycle_factorization(cf)) == [
            "decomposition: missing-edge: edge (0, 1) never covered",
            "decomposition: missing-edge: edge (0, 2) never covered",
            "decomposition: missing-edge: edge (1, 2) never covered",
            "class 0: malformed-cycle: cycle (0, 1, 'z') is not a sequence of ints",
            *(f"class 0: vertex-missed: vertex {x} not covered" for x in range(3)),
        ]

    def test_unhashable_and_unpaired_inputs(self):
        # Inputs that cannot be hashed, ordered or unpacked are reported,
        # not raised as TypeError.
        mixed = HostGraph.blown_cycle([(0, "a"), (1, 2), (3, 4)])
        assert findings(verify(Decomposition(mixed, ()))) == [
            "decomposition: malformed-host: blown cycle groups must be sequences of ints"
        ]
        not_pair = ParallelClass(ONE_FACTOR, edges=(5,))
        assert findings(verify(Decomposition(HostGraph.complete(2), (not_pair,)))) == [
            "decomposition: missing-edge: edge (0, 1) never covered",
            "class 0: malformed-edge: edge 5 is not a pair of ints",
            "class 0: vertex-missed: vertex 0 not covered",
            "class 0: vertex-missed: vertex 1 not covered",
        ]
        unhashable = ParallelClass(ONE_FACTOR, edges=(([0], [1]),))
        assert findings(verify(Decomposition(HostGraph.complete(2), (unhashable,)))) == [
            "decomposition: missing-edge: edge (0, 1) never covered",
            "class 0: malformed-edge: edge ([0], [1]) is not a pair of ints",
            "class 0: vertex-missed: vertex 0 not covered",
            "class 0: vertex-missed: vertex 1 not covered",
        ]
        sun = ParallelClass.sun_factor([Sun((0, 1, [2]), (3, 4, 5))])
        report = findings(verify(Decomposition(HostGraph.complete(6), (sun,))))
        assert report[15:] == [
            "class 0: malformed-sun: sun Sun(cycle=(0, 1, [2]), pendants=(3, 4, 5)) "
            "is not a Sun of int sequences",
            *(f"class 0: vertex-missed: vertex {x} not covered" for x in range(6)),
        ]
        assert all(f.startswith("decomposition: missing-edge: ") for f in report[:15])
        cf = CycleFactorization(HostGraph.complete(3), 3, ((([0], 1, 2),),))
        assert findings(validate_cycle_factorization(cf)) == [
            "decomposition: missing-edge: edge (0, 1) never covered",
            "decomposition: missing-edge: edge (0, 2) never covered",
            "decomposition: missing-edge: edge (1, 2) never covered",
            "class 0: malformed-cycle: cycle ([0], 1, 2) is not a sequence of ints",
            *(f"class 0: vertex-missed: vertex {x} not covered" for x in range(3)),
        ]

    def test_non_sequence_blocks_and_classes(self):
        # Blocks that are not Suns or whose fields are not sequences, and
        # classes that are not parallel classes, are reported, not raised as
        # TypeError or AttributeError.
        k6 = HostGraph.complete(6)
        report = verify(Decomposition(k6, (ParallelClass.sun_factor([Sun(5, (1, 2, 3))]),)))
        assert all(f.startswith("decomposition: missing-edge: ") for f in findings(report)[:15])
        assert findings(report)[15:] == [
            "class 0: malformed-sun: sun Sun(cycle=5, pendants=(1, 2, 3)) "
            "is not a Sun of int sequences",
            *(f"class 0: vertex-missed: vertex {x} not covered" for x in range(6)),
        ]
        assert (report.r, report.s) == (0, 1)
        report = verify(Decomposition(k6, (ParallelClass.sun_factor([((0, 1, 2), (3, 4, 5))]),)))
        assert all(f.startswith("decomposition: missing-edge: ") for f in findings(report)[:15])
        assert findings(report)[15:] == [
            "class 0: malformed-sun: sun ((0, 1, 2), (3, 4, 5)) is not a Sun of int sequences",
            *(f"class 0: vertex-missed: vertex {x} not covered" for x in range(6)),
        ]
        classes = ("x", ParallelClass.one_factor([(0, 1)]))
        report = verify(Decomposition(HostGraph.complete(2), classes))
        assert findings(report) == [
            "class 0: non-uniform-class: 'x' is not a parallel class",
            "class 0: vertex-missed: vertex 0 not covered",
            "class 0: vertex-missed: vertex 1 not covered",
        ]
        assert (report.r, report.s) == (1, 0)
        cf = CycleFactorization(HostGraph.complete(3), 3, ((5,),))
        assert findings(validate_cycle_factorization(cf)) == [
            "decomposition: missing-edge: edge (0, 1) never covered",
            "decomposition: missing-edge: edge (0, 2) never covered",
            "decomposition: missing-edge: edge (1, 2) never covered",
            "class 0: malformed-cycle: cycle 5 is not a sequence of ints",
            "class 0: vertex-missed: vertex 0 not covered",
            "class 0: vertex-missed: vertex 1 not covered",
            "class 0: vertex-missed: vertex 2 not covered",
        ]

    def test_containers_that_cannot_be_iterated(self):
        # A class's blocks, a decomposition's classes or a factorization's
        # cycles that cannot be iterated get one finding each, not TypeError.
        k2 = HostGraph.complete(2)
        missed = [f"class 0: vertex-missed: vertex {x} not covered" for x in range(2)]
        uncovered = "decomposition: missing-edge: edge (0, 1) never covered"
        report = verify(Decomposition(k2, (ParallelClass(SUN_FACTOR, suns=5),)))
        assert findings(report) == [
            uncovered,
            "class 0: malformed-sun: suns 5 is not a sequence",
            *missed,
        ]
        assert (report.r, report.s) == (0, 1)
        report = verify(Decomposition(k2, (ParallelClass(ONE_FACTOR, edges=5),)))
        assert findings(report) == [
            uncovered,
            "class 0: malformed-edge: edges 5 is not a sequence",
            *missed,
        ]
        assert (report.r, report.s) == (1, 0)
        assert findings(verify(Decomposition(k2, 5))) == [
            uncovered,
            "decomposition: non-uniform-class: classes 5 is not a sequence",
        ]
        k3 = HostGraph.complete(3)
        missing = [
            f"decomposition: missing-edge: edge {e} never covered" for e in [(0, 1), (0, 2), (1, 2)]
        ]
        assert findings(validate_cycle_factorization(CycleFactorization(k3, 3, (5,)))) == [
            *missing,
            "class 0: malformed-cycle: class 5 is not a sequence",
            *(f"class 0: vertex-missed: vertex {x} not covered" for x in range(3)),
        ]
        assert findings(validate_cycle_factorization(CycleFactorization(k3, 3, 5))) == [
            *missing,
            "decomposition: wrong-class-count: 0 classes, expected 1",
            "decomposition: wrong-class-count: classes 5 is not a sequence",
        ]

    def test_malformed_host_design(self):
        report = verify(Decomposition(HostGraph.complete(0), ()))
        assert findings(report) == [
            "decomposition: malformed-host: complete host needs a positive order"
        ]
        assert (report.r, report.s) == (0, 0)

    @pytest.mark.parametrize(
        "certify, payload, expected",
        [
            (verify, Decomposition(5, ()), "malformed-host: host 5 is not a HostGraph"),
            (
                validate_cycle_factorization,
                CycleFactorization(5, 3, ()),
                "malformed-host: host 5 is not a HostGraph",
            ),
            (
                validate_cycle_factorization,
                CycleFactorization(HostGraph.complete(3), "3", ()),
                "bad-parameters: cycle length '3' is not an int",
            ),
            (
                validate_cycle_factorization,
                CycleFactorization(HostGraph(COMPLETE, "3"), 3, ()),
                "malformed-host: host order '3' is not an int",
            ),
            (
                verify,
                Decomposition(HostGraph(COMPLETE, "3"), ()),
                "malformed-host: host order '3' is not an int",
            ),
            (
                verify,
                Decomposition(HostGraph(COMPLETE, 10**7), ()),
                "malformed-host: host order 10000000 is above the cap of 2048 vertices",
            ),
            (verify, 5, "malformed-host: 5 is not a Decomposition"),
            (validate_cycle_factorization, None, "malformed-host: None is not a CycleFactorization"),
            (
                verify,
                Decomposition(HostGraph(COMPLETE_MINUS_F, 4, matching=5), ()),
                "malformed-host: removed matching is not a perfect matching of the host",
            ),
            # Blown-cycle hosts that the gate rejects by their groups.
            (
                verify,
                Decomposition(HostGraph.blown_cycle(((0, 1), (2,), (3, 4))), ()),
                "malformed-host: blown cycle groups must share one positive size",
            ),
            (
                verify,
                Decomposition(HostGraph.blown_cycle(((0, 1), (1, 2), (3, 4))), ()),
                "malformed-host: blown cycle groups must be disjoint",
            ),
        ],
    )
    def test_inputs_that_raised(self, certify, payload, expected):
        # Each of these raised AttributeError, TypeError or MemoryError
        # before the type gate; now each gets one finding.
        report = certify(payload)
        assert findings(report) == [f"decomposition: {expected}"]
        assert (report.r, report.s) == (0, 0)

    def test_sun_class_with_edge_blocks(self):
        sun_class = urd6_h3((1, 2)).classes[0]
        mixed = sun_class._replace(edges=((0, 1),))
        report = verify(Decomposition(HostGraph.complete(6), (mixed,)))
        assert [f for f in findings(report) if f.startswith("class")] == [
            "class 0: non-uniform-class: sun-factor class carries edge blocks"
        ]
        assert (report.r, report.s) == (0, 1)

    def test_ints_too_long_to_write(self):
        # str() refuses an int of more than 4,300 digits, so a finding names
        # it by a stand-in; these raised ValueError while being formatted.
        big = 10**5000
        foreign = "decomposition: foreign-edge: edge <tuple holding an int too long to write> "
        k2 = HostGraph.complete(2)
        report = verify(Decomposition(k2, (ParallelClass.one_factor([(0, big)]),)))
        assert findings(report) == [
            foreign + "not in host (used 1x)",
            "decomposition: missing-edge: edge (0, 1) never covered",
            "class 0: foreign-vertex: vertex <int too long to write> outside host",
            "class 0: vertex-missed: vertex 1 not covered",
        ]
        assert (report.r, report.s) == (1, 0)
        k3 = HostGraph.complete(3)
        report = validate_cycle_factorization(CycleFactorization(k3, 3, (((0, 1, big),),)))
        assert findings(report) == [
            *[foreign + "not in host (used 1x)"] * 2,
            "decomposition: missing-edge: edge (0, 2) never covered",
            "decomposition: missing-edge: edge (1, 2) never covered",
            "class 0: foreign-vertex: vertex <int too long to write> outside host",
            "class 0: vertex-missed: vertex 2 not covered",
        ]
        assert findings(verify(Decomposition(HostGraph.complete(big), ()))) == [
            "decomposition: malformed-host: host order <int too long to write> is above the cap"
            " of 2048 vertices"
        ]
        assert findings(verify([big])) == [
            "decomposition: malformed-host: <list holding an int too long to write>"
            " is not a Decomposition"
        ]


# Documents with one fault each, made from a design with both class types
# and a K_8 - F seed record; each fault is one edit of the parsed document.
DESIGN_DOC = dumps_document(build(ParamTuple(12, 3, 3, 4)), h=3)
SEED_DOC = dumps_document(cycle_factorization_minus_f(8, 4))


def _edges(doc):
    return next(c for c in doc["classes"] if c["type"] == "one_factor")["edges"]


def _sun(doc):
    return next(c for c in doc["classes"] if c["type"] == "sun_factor")["suns"][1]


def _cycles(doc):
    return doc["classes"][1]["cycles"]


def _set(pick, key, value):
    return lambda doc: pick(doc).__setitem__(key, value)


def _set_in(pick, key, i, value):
    return lambda doc: pick(doc)[key].__setitem__(i, value)


def _resize(pick, key, size):
    return lambda doc: pick(doc).__setitem__(key, (pick(doc)[key] * 2)[:size])


def _matching(doc):
    return doc["host"]["matching"]


# (base document, edit) -> the DocumentFormatError text of the reader.
READER_MESSAGES = {
    "edges: field not a list": (
        DESIGN_DOC,
        lambda doc: next(c for c in doc["classes"] if c["type"] == "one_factor").update(edges=5),
        "edges must be a list of pairs",
    ),
    "edges: entry not a list": (DESIGN_DOC, _set(_edges, 1, 5), "edges entry must be a list"),
    "edges: bool": (DESIGN_DOC, _set_in(_edges, 1, 1, True), "edges entry must hold integers"),
    "edges: float": (DESIGN_DOC, _set_in(_edges, 1, 0, 1.5), "edges entry must hold integers"),
    "edges: string": (DESIGN_DOC, _set_in(_edges, 0, 1, "1"), "edges entry must hold integers"),
    "edges: 1 int": (DESIGN_DOC, _resize(_edges, 1, 1), "edges entries must be pairs"),
    "edges: 3 ints": (DESIGN_DOC, _resize(_edges, 1, 3), "edges entries must be pairs"),
    "matching: field not a list": (
        SEED_DOC,
        lambda doc: doc["host"].update(matching={}),
        "host.matching must be a list of pairs",
    ),
    "matching: entry not a list": (
        SEED_DOC,
        _set(_matching, 1, "2,5"),
        "host.matching entry must be a list",
    ),
    "matching: bool": (
        SEED_DOC,
        _set_in(_matching, 1, 0, False),
        "host.matching entry must hold integers",
    ),
    "matching: float": (
        SEED_DOC,
        _set_in(_matching, 1, 1, 5.0),
        "host.matching entry must hold integers",
    ),
    "matching: string": (
        SEED_DOC,
        _set_in(_matching, 3, 1, "7"),
        "host.matching entry must hold integers",
    ),
    "matching: 1 int": (SEED_DOC, _resize(_matching, 2, 1), "host.matching entries must be pairs"),
    "matching: 3 ints": (SEED_DOC, _resize(_matching, 2, 3), "host.matching entries must be pairs"),
    "matching: loop": (
        SEED_DOC,
        _set(_matching, 1, [2, 2]),
        "host.matching entries must not be loops",
    ),
    "sun cycle: not a list": (DESIGN_DOC, _set(_sun, "cycle", 5), "sun cycle must be a list"),
    "sun cycle: entry a list": (
        DESIGN_DOC,
        _set_in(_sun, "cycle", 1, [5]),
        "sun cycle must hold integers",
    ),
    "sun cycle: bool": (DESIGN_DOC, _set_in(_sun, "cycle", 0, True), "sun cycle must hold integers"),
    "sun cycle: float": (DESIGN_DOC, _set_in(_sun, "cycle", 2, 9.5), "sun cycle must hold integers"),
    "sun cycle: string": (DESIGN_DOC, _set_in(_sun, "cycle", 1, "5"), "sun cycle must hold integers"),
    "sun pendants: not a list": (
        DESIGN_DOC,
        _set(_sun, "pendants", None),
        "sun pendants must be a list",
    ),
    "sun pendants: entry a list": (
        DESIGN_DOC,
        _set_in(_sun, "pendants", 0, []),
        "sun pendants must hold integers",
    ),
    "sun pendants: bool": (
        DESIGN_DOC,
        _set_in(_sun, "pendants", 2, False),
        "sun pendants must hold integers",
    ),
    "sun pendants: float": (
        DESIGN_DOC,
        _set_in(_sun, "pendants", 1, 3.0),
        "sun pendants must hold integers",
    ),
    "sun pendants: string": (
        DESIGN_DOC,
        _set_in(_sun, "pendants", 0, "x"),
        "sun pendants must hold integers",
    ),
    "cycles: field not a list": (
        SEED_DOC,
        lambda doc: doc["classes"][1].update(cycles="0,1,2,3"),
        "cycle_factor.cycles must be a list",
    ),
    "cycles: entry not a list": (SEED_DOC, _set(_cycles, 1, 3), "cycle must be a list"),
    "cycles: bool": (SEED_DOC, _set_in(_cycles, 1, 2, True), "cycle must hold integers"),
    "cycles: float": (SEED_DOC, _set_in(_cycles, 0, 3, 0.5), "cycle must hold integers"),
    "cycles: string": (SEED_DOC, _set_in(_cycles, 1, 0, "3"), "cycle must hold integers"),
}


def test_reader_bases_load():
    assert verify(loads_document(DESIGN_DOC).payload, expected_h=3).passed
    assert validate_cycle_factorization(loads_document(SEED_DOC).payload).passed


@pytest.mark.parametrize("name", list(READER_MESSAGES))
def test_reader_message(name):
    base, edit, expected = READER_MESSAGES[name]
    doc = json.loads(base)
    edit(doc)
    with pytest.raises(DocumentFormatError) as exc:
        loads_document(json.dumps(doc))
    assert str(exc.value) == expected


# A call that raises ValueError -> the text of that error.
RAISED_MESSAGES = {
    "edge: loop": (lambda: edge(1, 1), "loop edge at vertex 1"),
    "canonical_cycle: short": (
        lambda: canonical_cycle((0, 1)),
        "a cycle needs at least three vertices",
    ),
    "canonical_cycle: repeated vertex": (
        lambda: canonical_cycle((0, 1, 0)),
        "repeated vertex in cycle (0, 1, 0)",
    ),
    "urgdd_ch2: labels on one side": (
        lambda: urgdd_ch2(3, UrgddKind.ZERO_TWO, (0, 1, 2), None),
        "need exactly h labels for each of a and b",
    ),
    "urgdd_ch2: unknown kind": (lambda: urgdd_ch2(3, "x"), "unknown fill kind 'x'"),
    "search: blown cycle host": (
        lambda: search_cycle_factorization(
            HostGraph.blown_cycle(((0, 1), (2, 3), (4, 5))), 3
        ),
        "unsupported search host kind 'blown_cycle'",
    ),
    "canonical_decomposition: unknown class kind": (
        lambda: canonical_decomposition(
            Decomposition(HostGraph.complete(3), (ParallelClass("x"),))
        ),
        "unknown class kind 'x'",
    ),
    "dumps_document: unknown host kind": (
        lambda: dumps_document(Decomposition(HostGraph("x", 3), ()), h=3),
        "unknown host kind 'x'",
    ),
    "enumerate_by_counting: h below 3": (
        lambda: enumerate_by_counting(8, 2),
        "h must be at least 3",
    ),
}


@pytest.mark.parametrize("name", list(RAISED_MESSAGES))
def test_raised_message(name):
    call, expected = RAISED_MESSAGES[name]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == expected


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def test_hamiltonian_minus_f_bytes():
    texts = (dumps_document(cycle_factorization_minus_f(n, n)) for n in range(4, 41, 2))
    assert digest(texts) == (
        "2891323a47ac9e098f8cdc5f9603c8161c19e4bed7a862a74aaf68da55e0fe7a"
    )


def resolution_texts(max_n: int, budget: int):
    """What resolving every h-cycle ingredient on at most max_n points gives.

    K_n for odd n, K_n - F for even n, every h with 3 <= h <= n dividing n,
    except the pre-tabled nonexistent K_n - F cases.  A found factorization
    gives its source and bytes, a missing one its outcome and nodes; with a
    budget this small, the quotient stage's order of moves and of random
    draws decides most of them.
    """
    for n in range(3, max_n + 1):
        for h in range(3, n + 1):
            if n % h or n % 2 == 0 and (n, h) in NONEXISTENT_MINUS_F:
                continue
            resolve = cycle_factorization_minus_f if n % 2 == 0 else cycle_factorization_odd
            try:
                cf = resolve(n, h, budget=budget)
            except IngredientUnavailable as exc:
                yield f"{n},{h}: {exc.outcome} {exc.nodes}\n"
            else:
                yield f"{n},{h}: {cf.source}\n" + dumps_document(cf)


def test_resolution_grid_bytes():
    assert digest(resolution_texts(40, 20_000)) == (
        "3a23f68c44ee7b53c9ff4ceef7c1aba8aa2fdcbe9e68260767643eba6ced3892"
    )


SPECTRUM_DIGESTS = {
    (12, 3): "d862a88766107678f4f08ca37433105a6d8a4695348981efd6e53605ef4abc1c",
    (18, 3): "ba5a1f65be6e89ee2ead0d97b97f46b8640159f60946b865ce4f87390bfd58ab",
    (16, 4): "35e7d073012eb85a1907a6fbd60e354c6859ea2c250d305f486e6d0f1b6f1398",
    (20, 5): "605053c78394f9370be883f7db305005f620016437a5a5c25bcf2a48a84c682b",
}


@pytest.mark.parametrize("v, h", sorted(SPECTRUM_DIGESTS))
def test_spectrum_build_bytes(v, h):
    texts = (
        dumps_document(canonical_build(ParamTuple(v, h, p.r, p.s)), h=h)
        for p in admissible_pairs(v, h)
    )
    assert digest(texts) == SPECTRUM_DIGESTS[(v, h)]


def canonical_build(t: ParamTuple, source: IngredientSource | None = None) -> Decomposition:
    """``build(t)``, checked to be in canonical form already, which is what
    lets ``sunurd build`` write it without a second canonical pass."""
    d = build(t, source=source)
    assert canonical_decomposition(d) == d, t
    return d


def doubled_c4_catalog(*orders: int) -> dict:
    """Weight-2-doubled C4-factorizations of K_n - F, keyed as a seed catalog.

    Base point p becomes the pair {2p, 2p+1} (the removed matching) and the
    base edge {a, b} of a relabelled round robin becomes the 4-cycle
    (2a, 2b, 2a+1, 2b+1).  The relabelling leaves a > b on about half of the
    edges, so those cycles are not written in canonical form.
    """
    catalog = {}
    for n in orders:
        m = n // 2
        perm = [(7 * p + 3) % m for p in range(m)]
        classes = tuple(
            tuple(
                (2 * perm[u], 2 * perm[w], 2 * perm[u] + 1, 2 * perm[w] + 1)
                for u, w in cls.edges
            )
            for cls in one_factorization(range(m))
        )
        host = HostGraph.complete_minus_f(n, [(2 * p, 2 * p + 1) for p in range(m)])
        catalog[(n, 4, host.kind)] = CycleFactorization(host, 4, classes, source="test:doubled")
    return catalog


def inflation_texts(v: int, h: int, source: IngredientSource | None = None) -> list[str]:
    """Every inflation build of the (v, h) spectrum that uses both fills."""
    return [
        dumps_document(canonical_build(ParamTuple(v, h, p.r, p.s), source=source), h=h)
        for p in admissible_pairs(v, h)
        if p.s and p.r > 3
    ]


# Documents the spectrum pins do not reach: the odd-order Hamiltonian
# construction, a quotient-stage ingredient, blown-cycle hosts (both fills
# with default labels for h = 3..16, and one sun fill on scattered labels),
# a source that needs escaping, empty lists, and the
# certify-large benchmark design (one 200-cycle sun per sun class, 2.7 MB),
# and inflations whose base classes hold several cycles under both fills:
# even h from a catalog written partly out of canonical form, odd h from the
# quotient stage.
DOCUMENT_DIGESTS = {
    "k9-hamiltonian": (
        lambda: [dumps_document(cycle_factorization_odd(9, 9))],
        "0238ba5017945711ab0acd67f66ae7c239b3094473a21cc9a3f039cbb5743e5f",
    ),
    "k15-quotient": (
        lambda: [dumps_document(cycle_factorization_odd(15, 3))],
        "0c469ea208fd337be4840bad272b94a0abefedab9e27f12b964a35b10ba8ae8c",
    ),
    "blown-cycle": (
        lambda: [dumps_document(urgdd_ch2(h, k), h=h) for h in range(3, 17) for k in UrgddKind]
        + [dumps_document(urgdd_ch2(4, UrgddKind.ZERO_TWO, [10, 3, 7, 0], [1, 2, 12, 5]), h=4)],
        "828fbbf18927efabfd9aeb1706c7cbb1e205bc50eb52c0c1f7214d8b6e881f45",
    ),
    "escaped-source": (
        lambda: [
            dumps_document(cycle_factorization_odd(9, 3), source='quo"te \\back\nline \u00e9\u2713')
        ],
        "e8b27450e07d4f5116e0e67b4390fb47334033226f73e5d1493579b74482292c",
    ),
    "empty-classes": (
        lambda: [
            dumps_document(
                Decomposition(
                    HostGraph.complete(4),
                    (ParallelClass.one_factor(()), ParallelClass.sun_factor(())),
                ),
                h=3,
            )
        ],
        "282300c758040ed6eb819565e06e8e8acfee92744d0c6e267525805c0c57fb34",
    ),
    "certify-large": (
        lambda: [dumps_document(build(ParamTuple(400, 200, 203, 98)), h=200)],
        "c44f3a9eb52d9f2e0f74fb53e183ce5b7772d607f80d318934105cb388777229",
    ),
    "inflation-catalog-c4": (
        lambda: [
            text
            for v in (40, 48)
            for text in inflation_texts(v, 4, IngredientSource(catalog=doubled_c4_catalog(20, 24)))
        ],
        "d039fbd1bec3a605801845bf6eaee34cb576fb2b861457adfd8ef986aaf22f11",
    ),
    "inflation-odd-h": (
        lambda: inflation_texts(30, 3) + inflation_texts(30, 5),
        "cd8bff2f5edfdc64eb6257a50d72fab1978cf6db2365a2c46bcf8c355deda9df",
    ),
    # The search-desk benchmark designs: inflations with no matching fill
    # (r = 1 or 3), on K_15 and on K_16 - F and K_18 - F from the quotient
    # stage.  Each digest is the sha256 of the document `sunurd build` writes.
    "search-desk-30-3": (
        lambda: [dumps_document(build(ParamTuple(30, 3, 1, 14)), h=3)],
        "43fe9596bea3f3c1a0c8aef5d584fa6c953af812d222f5a6626af1eb84ef2e4f",
    ),
    "search-desk-32-4": (
        lambda: [dumps_document(build(ParamTuple(32, 4, 3, 14)), h=4)],
        "1f778a00775e8c1606cfb771bf8a7421acde201b0d74f7f53322a252bef0277e",
    ),
    "search-desk-36-6": (
        lambda: [dumps_document(build(ParamTuple(36, 6, 3, 16)), h=6)],
        "ce76863d1909bf1c9079dc63f86324c0e08fd3fc88e8daaa8cfd81e89282b5f7",
    ),
}


@pytest.mark.parametrize("name", list(DOCUMENT_DIGESTS))
def test_document_bytes(name):
    texts, expected = DOCUMENT_DIGESTS[name]
    assert digest(texts()) == expected
