"""Routing and assembly of full designs."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from sunurd import (
    CycleFactorization,
    Decomposition,
    HostGraph,
    InadmissibleTuple,
    IngredientSource,
    IngredientUnavailable,
    ParallelClass,
    ParamTuple,
    Route,
    UrgddKind,
    admissible_pairs,
    build,
    build_all,
    build_with_plan,
    dumps_document,
    inflate_cycle,
    one_factorization,
    plan,
    verify,
    vertex_profile,
)
from sunurd.builder import _assemble_inflation
from sunurd.core import COMPLETE_MINUS_F


@pytest.fixture(scope="module")
def source() -> IngredientSource:
    return IngredientSource()


class TestPlan:
    def test_small_case(self):
        # Only (12, 3) has fixed designs: its ingredient, triangles on
        # K_6 - F, does not exist.  (6, 3) inflates the Hamiltonian K_3.
        assert plan(ParamTuple(12, 3, 7, 2)).route is Route.SMALL_CASE
        assert plan(ParamTuple(12, 3, 3, 4)).route is Route.SMALL_CASE
        p = plan(ParamTuple(6, 3, 1, 2))
        assert p.route is Route.INFLATION
        assert (p.l, p.x) == (1, 0)
        assert p.ingredient == (3, 3, "complete")
        small = {
            (v, h)
            for v in range(6, 61, 2)
            for h in range(3, v // 2 + 1)
            for pair in admissible_pairs(v, h)
            if plan(ParamTuple(v, h, *pair)).route is Route.SMALL_CASE
        }
        assert small == {(12, 3)}

    def test_s_zero_takes_pure_matchings(self):
        # even where a small-case or inflation route could also apply
        assert plan(ParamTuple(12, 3, 11, 0)).route is Route.PURE_MATCHINGS
        assert plan(ParamTuple(8, 3, 7, 0)).route is Route.PURE_MATCHINGS

    def test_0_mod_4h(self):
        p = plan(ParamTuple(20, 5, 3, 8))
        assert p.route is Route.INFLATION
        assert (p.l, p.x) == (4, 0)
        assert p.ingredient == (10, 5, "complete_minus_f")

    def test_2h_even(self):
        p = plan(ParamTuple(12, 6, 7, 2))
        assert p.route is Route.INFLATION
        assert (p.l, p.x) == (2, 1)
        assert p.ingredient == (6, 6, "complete_minus_f")

    def test_2h_odd(self):
        p = plan(ParamTuple(18, 3, 5, 6))
        assert p.route is Route.INFLATION
        assert (p.l, p.x) == (4, 1)
        assert p.ingredient == (9, 3, "complete")

    def test_inflation_plans_split_the_base_classes(self):
        # Every inflation tuple up to v = 400: x matching-filled and s / 2
        # sun-filled base classes make up the l classes of the ingredient,
        # whose host kind follows the parity of v / 2.
        count = 0
        for v in range(6, 401, 2):
            for h in range(3, v // 2 + 1):
                for r, s in admissible_pairs(v, h):
                    p = plan(ParamTuple(v, h, r, s))
                    if p.route is not Route.INFLATION:
                        continue
                    count += 1
                    n = v // 2
                    assert 0 <= p.x < p.l and s == 2 * (p.l - p.x), p
                    assert p.ingredient == (n, h, "complete" if n % 2 else "complete_minus_f")
        assert count == 44_469

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleTuple):
            plan(ParamTuple(12, 3, 4, 4))


class TestInflateCycle:
    def test_triangle_zero_two_fragment(self):
        frag = inflate_cycle((0, 1, 2), UrgddKind.ZERO_TWO)
        report = verify(frag, expected_h=3)
        assert report.passed and (report.r, report.s) == (0, 2)
        assert frag.host.groups == ((0, 1), (2, 3), (4, 5))

    def test_four_zero_class_sizes_forced(self):
        frag = inflate_cycle((4, 7, 9, 2), UrgddKind.FOUR_ZERO)
        assert len(frag.classes) == 4
        assert all(len(cls.edges) == 4 for cls in frag.classes)

    def test_pentagon_four_zero_covers_all_blown_edges(self):
        frag = inflate_cycle((0, 1, 2, 3, 4), UrgddKind.FOUR_ZERO)
        report = verify(frag)
        assert report.passed and (report.r, report.s) == (4, 0)
        assert sum(len(cls.edges) for cls in frag.classes) == 20

    def test_degenerate_cycle_rejected(self):
        with pytest.raises(ValueError):
            inflate_cycle((0, 1), UrgddKind.ZERO_TWO)
        with pytest.raises(ValueError):
            inflate_cycle((0, 1, 0), UrgddKind.ZERO_TWO)


class TestBuild:
    def test_6_3_1_2_inflates_the_hamiltonian_k3(self, source):
        dec, p = build_with_plan(ParamTuple(6, 3, 1, 2), source=source)
        report = verify(dec, expected_h=3)
        assert report.passed and (report.r, report.s) == (1, 2)
        assert p.provenance == "construction:zigzag-hamiltonian"

    def test_10_5_1_4(self, source):
        dec = build(ParamTuple(10, 5, 1, 4), source=source)
        report = verify(dec, expected_h=5)
        assert report.passed and (report.r, report.s) == (1, 4)
        # two base classes, each becoming two spanning sun classes, plus the
        # doubled-pair matching
        assert dec.s == 4 and dec.r == 1

    def test_16_4_3_6(self, source):
        dec = build(ParamTuple(16, 4, 3, 6), source=source)
        report = verify(dec, expected_h=4)
        assert report.passed and (report.r, report.s) == (3, 6)

    def test_pure_matchings_any_even_order(self, source):
        dec = build(ParamTuple(14, 3, 13, 0), source=source)
        report = verify(dec)
        assert report.passed and (report.r, report.s) == (13, 0)

    def test_odd_route_has_doubled_pair_matching(self, source):
        dec = build(ParamTuple(10, 5, 1, 4), source=source)
        matchings = [cls for cls in dec.classes if cls.kind == "one_factor"]
        assert matchings[-1].edges == tuple((2 * q, 2 * q + 1) for q in range(5))

    def test_class_order_suns_then_matchings(self, source):
        dec = build(ParamTuple(20, 5, 7, 6), source=source)
        kinds = [cls.kind for cls in dec.classes]
        first_matching = kinds.index("one_factor")
        assert all(k == "sun_factor" for k in kinds[:first_matching])
        assert all(k == "one_factor" for k in kinds[first_matching:])

    def test_inadmissible_raises(self, source):
        with pytest.raises(InadmissibleTuple):
            build(ParamTuple(12, 3, 5, 3), source=source)

    def test_order_above_cap_raises_before_building(self, source):
        with pytest.raises(ValueError, match="MAX_ORDER=2048"):
            build(ParamTuple(2050, 3, 2049, 0), source=source)

    def test_inadmissible_with_an_int_too_long_to_write(self, source):
        # str() refuses an int of more than 4,300 digits; this raised its
        # ValueError while the divisibility test formatted its text.
        with pytest.raises(InadmissibleTuple) as exc_info:
            build(ParamTuple(10**5000, 3, 1, 2), source=source)
        assert str(exc_info.value) == (
            "divisibility: v must be a positive multiple of 2h=6 when s > 0"
        )

    def test_missing_ingredient_reported_with_triple(self, source):
        with pytest.raises(IngredientUnavailable) as exc_info:
            build(ParamTuple(24, 3, 3, 10), source=source)
        exc = exc_info.value
        assert (exc.n, exc.h, exc.host_kind) == (12, 3, "complete_minus_f")
        assert exc.outcome == "nonexistent"

    def test_provenance_recorded(self, source):
        _, p = build_with_plan(ParamTuple(18, 3, 5, 6), source=source)
        assert p.provenance == "quotient:A"
        _, p = build_with_plan(ParamTuple(20, 5, 3, 8), source=source)
        assert p.provenance == "search"
        _, p = build_with_plan(ParamTuple(10, 5, 5, 2), source=source)
        assert p.provenance.startswith("construction:")
        _, p = build_with_plan(ParamTuple(12, 3, 3, 4), source=source)
        assert p.provenance == "construction:fixed-design"

    def test_round_trip_signature_property(self, source):
        for v, h, r, s in ((18, 3, 9, 4), (16, 4, 11, 2), (12, 6, 3, 4)):
            dec = build(ParamTuple(v, h, r, s), source=source)
            report = verify(dec, expected_h=h)
            assert report.passed and (report.r, report.s) == (r, s)

    def test_degree_balance(self, source):
        dec = build(ParamTuple(18, 3, 5, 6), source=source)
        assert all(ab == (3, 3) for ab in vertex_profile(dec).values())

    def test_failed_certification_is_an_internal_error(self, monkeypatch, source):
        def dropping_first_class(t, p, cf):
            dec = _assemble_inflation(t, p, cf)
            return dec._replace(classes=dec.classes[1:])

        monkeypatch.setattr("sunurd.builder._assemble_inflation", dropping_first_class)
        with pytest.raises(RuntimeError) as exc_info:
            build((18, 3, 5, 6), source=source)
        assert str(exc_info.value).startswith(
            "internal error: built design failed certification for "
            "ParamTuple(v=18, h=3, r=5, s=6): got (5,5); "
            "decomposition: missing-edge: edge (0, 12) never covered"
        )


class TestBuildAll:
    def test_12_3(self, source):
        results = build_all(12, 3, source=source)
        assert sorted(results) == [(3, 4), (7, 2), (11, 0)]
        assert all(isinstance(d, Decomposition) for d in results.values())

    def test_6_3(self, source):
        results = build_all(6, 3, source=source)
        assert len(results) == 2

    def test_20_5_all_five(self, source):
        results = build_all(20, 5, source=source)
        assert len(results) == 5
        for pair, dec in results.items():
            report = verify(dec, expected_h=5 if pair.s else None)
            assert report.passed and (report.r, report.s) == pair

    def test_24_3_reports_missing_ingredients_per_pair(self, source):
        results = build_all(24, 3, source=source)
        # the pure-matchings pair still builds; inflation pairs report the
        # classically missing base factorization
        assert isinstance(results[(23, 0)], Decomposition)
        missing = [p for p, d in results.items() if isinstance(d, IngredientUnavailable)]
        assert missing == [p for p in results if p.s > 0]


def per_cycle_fill_classes(p, cf) -> tuple[ParallelClass, ...]:
    """The fill classes as the assembler built them before fills came from
    one relabelled template: one ``inflate_cycle`` call per base cycle."""
    sun_classes, matchings = [], []
    for j, base_class in enumerate(cf.classes):
        fill = UrgddKind.FOUR_ZERO if j < p.x else UrgddKind.ZERO_TWO
        fragments = [inflate_cycle(c, fill) for c in base_class]
        if fill is UrgddKind.FOUR_ZERO:
            for k in range(4):
                es = [e for frag in fragments for e in frag.classes[k].edges]
                matchings.append(ParallelClass.one_factor(sorted(es)))
        else:
            for k in range(2):
                suns = [sun for frag in fragments for sun in frag.classes[k].suns]
                sun_classes.append(ParallelClass.sun_factor(sorted(suns)))
    return tuple(sun_classes + matchings)


_shared_source = IngredientSource()


@settings(max_examples=160, deadline=None)
@given(
    st.sampled_from([(18, 3), (16, 4), (20, 5), (24, 4), (30, 5), (24, 6), (28, 7), (36, 6)]),
    st.data(),
)
def test_template_relabelling_matches_per_cycle_fills(vh, data):
    # The ingredients come with every cycle canonical and every class
    # sorted, so their suns are written as they stand.  When drawn, every
    # base cycle is rewritten in a random rotation and direction, so
    # relabelled suns land out of canonical form as often as in it; or
    # reflected about its first vertex, which stays the least; or each
    # class's cycles are shuffled, each cycle still canonical; 160 examples
    # give each way about 40.
    v, h = vh
    pair = data.draw(st.sampled_from([q for q in admissible_pairs(v, h) if q.s]))
    t = ParamTuple(v, h, pair.r, pair.s)
    p = plan(t)
    n, _, kind = p.ingredient
    cf = _shared_source.minus_f(n, h) if kind == COMPLETE_MINUS_F else _shared_source.odd(n, h)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    how = data.draw(st.sampled_from(["as given", "reoriented", "reflected", "shuffled"]))

    def reorient(cycle):
        k = rng.randrange(len(cycle))
        cycle = cycle[k:] + cycle[:k]
        return cycle[::-1] if rng.random() < 0.5 else cycle

    def rewrite(cls):
        if how == "reoriented":
            return tuple(map(reorient, cls))
        if how == "reflected":
            return tuple(c[:1] + c[:0:-1] for c in cls)
        return tuple(rng.sample(cls, len(cls)))

    if how != "as given":
        cf = cf._replace(classes=tuple(map(rewrite, cf.classes)))
    fills = per_cycle_fill_classes(p, cf)
    assert _assemble_inflation(t, p, cf).classes[: len(fills)] == fills


def canonical_c4_catalog(n: int) -> dict:
    """A C4-factorization of K_n - F, keyed as a seed catalog, with every
    cycle canonical and every class sorted: the base edge {p, q}, p < q, of
    a round robin on n/2 points becomes the 4-cycle (2p, 2q, 2p+1, 2q+1)."""
    m = n // 2
    classes = tuple(
        tuple(sorted((2 * min(e), 2 * max(e), 2 * min(e) + 1, 2 * max(e) + 1) for e in cls.edges))
        for cls in one_factorization(range(m))
    )
    host = HostGraph.complete_minus_f(n, [(2 * p, 2 * p + 1) for p in range(m)])
    return {(n, 4, host.kind): CycleFactorization(host, 4, classes, source="test:canonical-c4")}


@pytest.mark.parametrize(
    "t, catalog",
    [((36, 6, 3, 16), None), ((80, 4, 7, 36), canonical_c4_catalog(40))],
    ids=["searched-36-6", "catalog-c4-80"],
)
def test_canonical_base_classes_are_written_without_per_sun_canonical_order(
    monkeypatch, t, catalog
):
    # Base classes whose cycles are canonical and sorted give canonical,
    # sorted suns as written, so no sun passes through _canonical_order.
    t = ParamTuple(*t)
    want = dumps_document(build(t, source=IngredientSource(catalog=catalog)), h=t.h)

    def refuse(cycle, pendants):
        raise AssertionError("a canonical base class took the per-sun canonical order")

    monkeypatch.setattr("sunurd.builder._canonical_order", refuse)
    assert dumps_document(build(t, source=IngredientSource(catalog=catalog)), h=t.h) == want
