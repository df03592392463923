"""Fuzzing of the two contracts that must hold for every input.

``verify`` and ``validate_cycle_factorization`` report problems and never
raise, whatever object they are given.  ``cli.main`` returns an exit code
from its table and lets no exception escape, whatever document it reads or
flags it is given.  Orders are drawn from a small range, plus a few values
above the caps, so that every example stays cheap; the records also get
ints too long for ``str`` to write.
"""

from __future__ import annotations

import json
import os
import tempfile

from hypothesis import Phase, given, settings, strategies as st

from sunurd import (
    CycleFactorization,
    Decomposition,
    HostGraph,
    ParallelClass,
    ParamTuple,
    Sun,
    VerificationReport,
    build,
    cycle_factorization_minus_f,
    dumps_document,
    validate_cycle_factorization,
    verify,
)
from sunurd.cli import SPECTRUM_MAX_V, main
from sunurd.core import (
    BLOWN_CYCLE,
    COMPLETE,
    COMPLETE_MINUS_F,
    MAX_ORDER,
    ONE_FACTOR,
    SUN_FACTOR,
)

ORDERS = st.integers(-1, 9) | st.sampled_from([MAX_ORDER + 1, 3_000_000, 10**12])
# Ints longer than str() writes (4,300 digits); only in-memory input holds them.
# Hypothesis writes a strategy's repr, so they are made by a map.
DIGITS = st.integers(4300, 4400)
LONG_INTS = DIGITS.map(lambda k: 10**k) | DIGITS.map(lambda k: -(10**k))
NAMES = st.sampled_from([COMPLETE, COMPLETE_MINUS_F, BLOWN_CYCLE, ONE_FACTOR, SUN_FACTOR, "x"])
LEAVES = ORDERS | LONG_INTS | NAMES | st.text(max_size=2) | st.none() | st.booleans()


def _records(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.builds(Sun, children, children),
        st.builds(HostGraph, children, children, children, children),
        st.builds(ParallelClass, children, children, children),
        st.builds(Decomposition, children, children),
        st.builds(CycleFactorization, children, children, children),
    )


# Every phase but explain, which runs only after a failure to annotate the
# report; on an example holding an int too long to write it can run for
# minutes, and a failure must end the run promptly.
PHASES = tuple(p for p in Phase if p is not Phase.explain)
TREES = st.recursive(LEAVES, _records, max_leaves=24)
HOSTS = st.builds(HostGraph, NAMES, ORDERS | LONG_INTS, TREES, TREES) | TREES


def _reported(report) -> bool:
    # Every finding must also render, since the CLI prints them.
    return type(report) is VerificationReport and all(map(str, report.violations))


@settings(max_examples=300, deadline=None, phases=PHASES)
@given(TREES, HOSTS, TREES, TREES)
def test_certifiers_report_any_object(tree, host, classes, h):
    assert _reported(verify(tree))
    assert _reported(verify(Decomposition(host, classes), expected_h=h))
    assert _reported(validate_cycle_factorization(tree))
    assert _reported(validate_cycle_factorization(CycleFactorization(host, h, classes)))


DOCUMENTS = [
    json.loads(dumps_document(build(ParamTuple(12, 3, 3, 4)), h=3)),
    json.loads(dumps_document(cycle_factorization_minus_f(8, 4))),
]
JSON_VALUES = st.recursive(
    ORDERS | st.text(max_size=3) | st.none() | st.booleans() | st.just(1.5),
    lambda c: st.lists(c, max_size=3) | st.dictionaries(st.text(max_size=3), c, max_size=3),
    max_leaves=6,
)


def _mutate(doc, data) -> None:
    """Replace or delete one value, reached by a random walk from the root."""
    node = doc
    while node:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
        elif isinstance(node, list) and data.draw(st.booleans()):
            del node[key]
            return
        else:
            node[key] = data.draw(ORDERS | JSON_VALUES)
            return


@settings(max_examples=150, deadline=None, phases=PHASES)
@given(st.sampled_from(range(len(DOCUMENTS))), st.data())
def test_verify_exit_code_on_mutated_documents(which, data):
    doc = json.loads(json.dumps(DOCUMENTS[which]))
    if data.draw(st.booleans()):
        doc["host"]["v"] = data.draw(ORDERS)
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(doc, data)
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(doc, f)
        assert main(["verify", path]) in (0, 1, 2)
    finally:
        os.unlink(path)


FLAG_ORDERS = st.integers(-1, 12) | st.sampled_from(
    [MAX_ORDER + 1, 20_000, SPECTRUM_MAX_V + 1, 600_000_000]
)


@settings(max_examples=150, deadline=None, phases=PHASES)
@given(st.data())
def test_flag_combinations_exit_code(data):
    v = data.draw(FLAG_ORDERS)
    h = data.draw(st.integers(-1, 7) | st.just(10**9))
    if data.draw(st.booleans()):
        args = ["spectrum", "--v", str(v), "--h", str(h)]
        args += data.draw(st.sampled_from([[], ["--format", "json"], ["--format", "text"]]))
        assert main(args) in (0, 2)
        return
    s = data.draw(st.integers(-1, 6))
    r = v - 1 - 2 * s if data.draw(st.booleans()) else data.draw(st.integers(-1, 12))
    args = ["build", "--v", str(v), "--h", str(h), "--r", str(r), "--s", str(s)]
    args += data.draw(st.sampled_from([[], ["--format", "text"]]))
    assert main(args) in (0, 2, 3, 4)
