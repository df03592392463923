"""The premise behind running ``cli.main`` without the cyclic collector.

A CLI call leaves no cyclic garbage: the command line is parsed from plain
tables, and the library calls it runs drop no cycles.  So the collector
would only rescan live records, and ``main`` switches it off for the call
and then restores the caller's setting.
"""

from __future__ import annotations

import gc

import pytest

from sunurd import ParamTuple, build, dumps_document, loads_document, verify
from sunurd.cli import main
from sunurd.core import COMPLETE_MINUS_F
from sunurd.factorizations import BUDGET_EXHAUSTED, IngredientUnavailable, _resolve

TUPLES = [(12, 3, 3, 4), (400, 200, 203, 98)]


@pytest.fixture
def collector_off():
    """The collector is off and holds no garbage; the old setting returns."""
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("enabled", (True, False))
def test_main_restores_the_callers_setting(enabled, tmp_path, capsys):
    # ``main`` also never freezes: only the process entry ``__main__.run`` does.
    path = tmp_path / "d.json"
    calls = [
        (["spectrum", "--v", "12", "--h", "3"], 0),
        (["spectrum", "--v", "twelve", "--h", "3"], 2),
        (["build", "--v", "12", "--h", "3", "--r", "3", "--s", "4", "--out", str(path)], 0),
        (["verify", str(path)], 0),
        (["verify", str(tmp_path / "missing.json")], 5),
    ]
    was, frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv, code in calls:
            assert main(argv) == code
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()


def test_cli_garbage_does_not_grow_with_the_design(collector_off, tmp_path, capsys):
    # Nor is there any: a build, its verify and a usage error leave none.
    path = tmp_path / "design.json"
    for v, h, r, s in (map(str, t) for t in TUPLES):
        calls = [
            (["build", "--v", v, "--h", h, "--r", r, "--s", s, "--out", str(path)], 0),
            (["verify", str(path)], 0),
            (["spectrum", "--v", "twelve", "--h", "3"], 2),
        ]
        for argv, code in calls:
            assert main(argv) == code
            assert gc.collect() == 0, argv


@pytest.mark.parametrize("t", TUPLES)
def test_library_calls_leave_no_cyclic_garbage(collector_off, t):
    dec = build(ParamTuple(*t))
    assert gc.collect() == 0
    text = dumps_document(dec, h=t[1])
    assert gc.collect() == 0
    doc = loads_document(text)
    assert gc.collect() == 0
    assert verify(doc.payload, expected_h=doc.h).passed
    assert gc.collect() == 0


def test_exhausted_ingredient_search_leaves_no_cyclic_garbage(collector_off):
    outcome = None
    try:
        _resolve(COMPLETE_MINUS_F, 18, 3, None, 1_000)
    except IngredientUnavailable as exc:
        outcome = exc.outcome
    assert outcome == BUDGET_EXHAUSTED
    assert gc.collect() == 0
