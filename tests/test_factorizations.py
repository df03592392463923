"""Cycle factorizations: constructions, exact search, seed catalog."""

from __future__ import annotations

import inspect
import json
import sys
import traceback

import pytest

from sunurd import (
    CycleFactorization,
    HostGraph,
    IngredientSource,
    IngredientUnavailable,
    ParamTuple,
    SeedCatalogError,
    admissible_pairs,
    build,
    cycle_factorization_minus_f,
    cycle_factorization_odd,
    dumps_document,
    load_seed_catalog,
    one_factorization,
    plan,
    search_cycle_factorization,
    validate_cycle_factorization,
)
from sunurd.core import canonical_cycle
from sunurd.factorizations import (
    NONEXISTENT_MINUS_F,
    QUOTIENT_NODES,
    _hamiltonian_minus_f,
    _quotient_search,
    canonical_perfect_matching,
)


def minus_f_host(n: int) -> HostGraph:
    return HostGraph.complete_minus_f(n, canonical_perfect_matching(n))


class TestValidate:
    def test_single_triangle(self):
        cf = CycleFactorization(HostGraph.complete(3), 3, (((0, 1, 2),),))
        assert validate_cycle_factorization(cf).passed

    def test_kirkman_style_resolution_from_search(self):
        result = search_cycle_factorization(HostGraph.complete(9), 3)
        assert result.status == "found"
        report = validate_cycle_factorization(result.factorization)
        assert report.passed
        assert len(result.factorization.classes) == 4
        assert all(len(cls) == 3 for cls in result.factorization.classes)

    def test_wrong_class_count_fails(self):
        cf = CycleFactorization(
            HostGraph.complete(9), 3, (((0, 1, 2), (3, 4, 5), (6, 7, 8)),)
        )
        report = validate_cycle_factorization(cf)
        assert not report.passed
        assert any(f.kind == "wrong-class-count" for f in report.violations)

    def test_fabricated_minus_f_claim_fails(self):
        # K_6 - F admits no triangle factorization, so any claimed pair of
        # triangle classes must trip the validator
        cf = CycleFactorization(
            minus_f_host(6),
            3,
            (((0, 2, 4), (1, 3, 5)), ((0, 3, 4), (1, 2, 5))),
        )
        report = validate_cycle_factorization(cf)
        assert not report.passed

    def test_cycle_with_repeated_vertex_fails(self):
        cf = CycleFactorization(HostGraph.complete(3), 3, (((0, 1, 1),),))
        report = validate_cycle_factorization(cf)
        assert not report.passed
        assert any(f.kind == "malformed-cycle" for f in report.violations)


class TestSearch:
    def test_single_triangle_found(self):
        result = search_cycle_factorization(HostGraph.complete(3), 3)
        assert result.status == "found"
        assert result.factorization.classes == (((0, 1, 2),),)

    def test_k6_minus_f_triangles_nonexistent(self):
        result = search_cycle_factorization(minus_f_host(6), 3, budget=None)
        assert result.status == "nonexistent"
        assert result.factorization is None

    def test_k9_triangles_found(self):
        result = search_cycle_factorization(HostGraph.complete(9), 3)
        assert result.status == "found"

    def test_deterministic(self):
        a = search_cycle_factorization(HostGraph.complete(9), 3)
        b = search_cycle_factorization(HostGraph.complete(9), 3)
        assert a == b

    def test_k6_minus_f_triangles_proven_within_small_budget(self):
        # Only the first cycles through vertex 0's smallest free neighbour are
        # tried, so the proof of nonexistence fits in 11 path extensions.
        result = search_cycle_factorization(minus_f_host(6), 3, budget=11)
        assert result.status == "nonexistent"
        assert result.nodes <= 11

    def test_budget_exhaustion_reported(self):
        result = search_cycle_factorization(minus_f_host(10), 5, budget=3)
        assert result.status == "budget-exhausted"
        assert result.factorization is None

    def test_divisibility_rejected(self):
        with pytest.raises(ValueError):
            search_cycle_factorization(HostGraph.complete(10), 4)

    def test_deep_search_needs_no_recursion(self):
        # The search goes many placed cycles deep before the budget runs out;
        # one taking stack frames per placed cycle would overflow this limit.
        host = minus_f_host(60)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            result = search_cycle_factorization(host, 5, budget=2_000)
        finally:
            sys.setrecursionlimit(limit)
        assert (result.status, result.nodes) == ("budget-exhausted", 2_000)

    def test_budget_bounds_path_extensions(self):
        # Every vertex added to a path counts, so the search stops at the
        # budget even while its long paths fail to close into cycles.
        result = search_cycle_factorization(minus_f_host(30), 15, budget=1_000)
        assert (result.status, result.nodes) == ("budget-exhausted", 1_000)


class TestConstructions:
    @pytest.mark.parametrize("n", (3, 5, 7, 9, 11, 13, 15, 21))
    def test_hamiltonian_odd(self, n):
        cf = cycle_factorization_odd(n, n)
        assert len(cf.classes) == (n - 1) // 2
        assert validate_cycle_factorization(cf).passed
        assert cf.source.startswith("construction:")

    @pytest.mark.parametrize("n", (4, 6, 8, 10, 12, 16, 20))
    def test_hamiltonian_minus_f(self, n):
        cf = cycle_factorization_minus_f(n, n)
        assert len(cf.classes) == (n - 2) // 2
        assert len(cf.removed_matching) == n // 2
        assert validate_cycle_factorization(cf).passed

    def test_searched_shapes(self):
        cf = cycle_factorization_odd(9, 3)
        assert len(cf.classes) == 4
        cf = cycle_factorization_minus_f(8, 4)
        assert len(cf.classes) == 3
        assert all(len(cls) == 2 for cls in cf.classes)
        cf = cycle_factorization_minus_f(10, 5)
        assert len(cf.classes) == 4

    def test_known_missing_triangle_cases(self):
        for n in (6, 12):
            with pytest.raises(IngredientUnavailable) as exc_info:
                cycle_factorization_minus_f(n, 3)
            assert exc_info.value.outcome == "nonexistent"
            assert (exc_info.value.n, exc_info.value.h) == (n, 3)
            assert exc_info.value.nodes == 0

    def test_divisibility_errors(self):
        with pytest.raises(ValueError):
            cycle_factorization_odd(8, 4)  # even order
        with pytest.raises(ValueError):
            cycle_factorization_odd(9, 4)  # 4 does not divide 9
        with pytest.raises(ValueError):
            cycle_factorization_minus_f(9, 3)  # odd order

    def test_deterministic_across_calls(self):
        assert cycle_factorization_odd(9, 3) == cycle_factorization_odd(9, 3)

    @pytest.mark.parametrize("n", (*range(4, 65, 2), 200))
    def test_hamiltonian_minus_f_matches_paired_rounds(self, n):
        assert _hamiltonian_minus_f(n) == _paired_rounds_reference(n)


def _paired_rounds_reference(n: int) -> CycleFactorization:
    """K_n - F by walking the union of circle rounds 2k and 2k+1 from n-1,
    always to the smaller unused neighbour; the unpaired last round is F."""
    rounds = [cls.edges for cls in one_factorization(range(n))]
    classes = []
    for k in range((n - 2) // 2):
        nbrs: dict[int, list[int]] = {}
        for u, w in rounds[2 * k] + rounds[2 * k + 1]:
            nbrs.setdefault(u, []).append(w)
            nbrs.setdefault(w, []).append(u)
        cyc = [n - 1]
        prev = None
        while True:
            nxt = [x for x in sorted(nbrs[cyc[-1]]) if x != prev]
            prev = cyc[-1]
            if nxt[0] == n - 1:
                break
            cyc.append(nxt[0])
        classes.append((canonical_cycle(cyc),))
    host = HostGraph.complete_minus_f(n, rounds[n - 2])
    return CycleFactorization(
        host, n, tuple(classes), source="construction:paired-rounds-hamiltonian"
    )


def _raises_value_error(fn, *args, **kwargs) -> bool:
    try:
        fn(*args, **kwargs)
    except ValueError:
        return True
    except IngredientUnavailable:
        pass
    return False


@pytest.mark.parametrize("kind", ["complete", "complete_minus_f"])
def test_shape_rule_agrees_across_entry_points(kind):
    # With budget=0 a valid shape either returns a Hamiltonian construction or
    # stops at once, so only the shape rule decides which points raise.
    resolve = cycle_factorization_odd if kind == "complete" else cycle_factorization_minus_f
    for n in range(1, 31):
        host = HostGraph.complete(n) if kind == "complete" else minus_f_host(n)
        for h in range(-1, 13):
            report = validate_cycle_factorization(CycleFactorization(host, h, ()))
            verdicts = (
                _raises_value_error(resolve, n, h, budget=0),
                _raises_value_error(search_cycle_factorization, host, h, budget=0),
                any(f.kind in ("bad-parameters", "malformed-host") for f in report.violations),
            )
            valid = h >= 3 and n % h == 0 and n % 2 == (kind == "complete")
            assert verdicts == (not valid,) * 3, (kind, n, h, verdicts)


@pytest.mark.parametrize("budget", [-1, 2.5, True])
def test_bad_budget_rejected_before_any_search(budget):
    with pytest.raises(ValueError, match="budget"):
        search_cycle_factorization(minus_f_host(12), 3, budget=budget)
    with pytest.raises(ValueError, match="budget"):
        cycle_factorization_minus_f(18, 3, budget=budget)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: cycle_factorization_odd(9, 3.0), "order 9 and cycle length 3.0 must be ints"),
        (lambda: cycle_factorization_odd(9.0, 3), "order 9.0 and cycle length 3 must be ints"),
        (lambda: cycle_factorization_odd(9, True), "order 9 and cycle length True must be ints"),
        (lambda: cycle_factorization_minus_f(4, True), "order 4 and cycle length True must be ints"),
        (lambda: IngredientSource().odd(9, 3.0), "order 9 and cycle length 3.0 must be ints"),
        (
            lambda: search_cycle_factorization(HostGraph.complete(9), 3.0),
            "order 9 and cycle length 3.0 must be ints",
        ),
        (lambda: cycle_factorization_odd(2049, 2049), "order 2049 is above the cap of 2048 vertices"),
    ],
    ids=["float h", "float n", "bool h", "bool h on K_n - F", "source", "search", "above cap"],
)
def test_bad_shape_inputs_rejected_before_any_work(call, expected):
    # A float h reached the certifier after the quotient stage, a float n and
    # a float h in the search raised TypeError, and an order above the cap
    # was built before the certifier refused it.
    with pytest.raises(ValueError) as exc_info:
        call()
    assert str(exc_info.value) == expected


def _without_first_class():
    cf = cycle_factorization_odd(9, 3)
    return cf._replace(classes=cf.classes[1:])


@pytest.mark.parametrize(
    "entry, reason",
    [
        (lambda: cycle_factorization_odd(15, 3), ""),
        (lambda: cycle_factorization_minus_f(8, 4), ""),
        (lambda: cycle_factorization_odd(9, 9), ""),
        (lambda: "x", ""),
        (
            _without_first_class,
            ": decomposition: missing-edge: edge (0, 4) never covered;"
            " decomposition: missing-edge: edge (0, 8) never covered;"
            " decomposition: missing-edge: edge (1, 2) never covered",
        ),
    ],
    ids=["K_15", "K_8 - F", "h=9", "not a factorization", "fails certification"],
)
def test_catalog_entry_for_another_ingredient_rejected(entry, reason):
    # The catalog's key was trusted: the first three entries were returned as
    # the 3-cycle factorization of K_9, and "x" ended in an internal error.
    # An entry of the right host and h that fails certification ended in an
    # internal error as well; its message now carries the first findings.
    catalog = {(9, 3, "complete"): entry()}
    expected = "catalog entry (9, 3, 'complete') does not factor K_9 into 3-cycles" + reason
    with pytest.raises(ValueError) as exc_info:
        cycle_factorization_odd(9, 3, catalog=catalog)
    assert str(exc_info.value) == expected
    with pytest.raises(ValueError) as exc_info:
        IngredientSource(catalog=catalog).odd(9, 3)
    assert str(exc_info.value) == expected


@pytest.mark.parametrize(
    "n, h, cataloged, source",
    [
        (9, 9, False, "construction:zigzag-hamiltonian"),
        (9, 3, True, "catalog:k9.json"),
        (15, 3, False, "quotient:C"),
        (10, 5, False, "search"),
    ],
    ids=["construction", "catalog", "quotient", "search"],
)
def test_every_ingredient_certified_once(monkeypatch, n, h, cataloged, source):
    entry = cycle_factorization_odd(9, 3)._replace(source="catalog:k9.json")
    catalog = {(9, 3, "complete"): entry} if cataloged else None
    calls = []

    def counting(cf):
        calls.append(cf.source)
        return validate_cycle_factorization(cf)

    monkeypatch.setattr("sunurd.factorizations.validate_cycle_factorization", counting)
    resolve = cycle_factorization_odd if n % 2 else cycle_factorization_minus_f
    assert resolve(n, h, catalog=catalog).source == source
    assert calls == [source]


def test_construction_failing_certification_is_an_internal_error(monkeypatch):
    broken = _without_first_class()
    monkeypatch.setattr("sunurd.factorizations._hamiltonian_odd", lambda n: broken)
    with pytest.raises(RuntimeError) as exc_info:
        cycle_factorization_odd(9, 9)
    assert str(exc_info.value).startswith(
        "internal error: factorization failed validation: "
        "decomposition: missing-edge: edge (0, 4) never covered"
    )


class TestIngredientSource:
    def test_caches_results(self):
        source = IngredientSource()
        a = source.odd(9, 3)
        b = source.odd(9, 3)
        assert a is b

    def test_failure_carries_search_nodes(self):
        source = IngredientSource(budget=10)
        with pytest.raises(IngredientUnavailable) as exc_info:
            source.minus_f(18, 3)
        assert (exc_info.value.outcome, exc_info.value.nodes) == ("budget-exhausted", 10)

    def test_caches_failures(self):
        source = IngredientSource()
        with pytest.raises(IngredientUnavailable):
            source.minus_f(12, 3)
        with pytest.raises(IngredientUnavailable):
            source.minus_f(12, 3)

    def test_cached_failure_raised_with_a_fresh_traceback(self):
        # Re-raising the cached exception grew its traceback by this call's
        # frames every time, and the shared default source kept them all.
        source = IngredientSource()
        depths = []
        for _ in range(100):
            try:
                source.minus_f(6, 3)
            except IngredientUnavailable as exc:
                depths.append(len(traceback.extract_tb(exc.__traceback__)))
        assert len(depths) == 100
        assert depths[-1] == depths[0]


class TestSeedCatalog:
    def test_empty_directory(self, tmp_path):
        assert load_seed_catalog(tmp_path) == {}

    def test_round_trip_and_use(self, tmp_path):
        cf = cycle_factorization_odd(9, 3)
        (tmp_path / "k9_h3.json").write_text(dumps_document(cf), encoding="utf-8")
        catalog = load_seed_catalog(tmp_path)
        key = (9, 3, "complete")
        assert key in catalog
        assert catalog[key].classes == cf.classes
        assert catalog[key].source == "catalog:k9_h3.json"
        # a source with a zero budget can only succeed through the catalog
        source = IngredientSource(catalog=catalog, budget=0)
        assert source.odd(9, 3).classes == cf.classes
        with pytest.raises(IngredientUnavailable) as exc_info:
            source.minus_f(8, 4)
        assert exc_info.value.outcome == "budget-exhausted"
        assert exc_info.value.nodes == 0

    def test_record_missing_an_edge_rejected(self, tmp_path):
        # The record parses, so it loads; the build that resolves its key
        # certifies it, once, and rejects it.
        cf = cycle_factorization_odd(9, 3)
        doc = json.loads(dumps_document(cf))
        doc["classes"][0]["cycles"] = doc["classes"][0]["cycles"][1:]
        (tmp_path / "broken.json").write_text(json.dumps(doc), encoding="utf-8")
        catalog = load_seed_catalog(tmp_path)
        assert list(catalog) == [(9, 3, "complete")]
        with pytest.raises(SeedCatalogError) as exc_info:
            IngredientSource(catalog=catalog).odd(9, 3)
        assert str(exc_info.value) == (
            "catalog entry (9, 3, 'complete') does not factor K_9 into 3-cycles: "
            "decomposition: missing-edge: edge (0, 4) never covered; "
            "decomposition: missing-edge: edge (0, 8) never covered; "
            "decomposition: missing-edge: edge (4, 8) never covered"
        )

    def test_loop_in_removed_matching_rejected(self, tmp_path):
        doc = json.loads(dumps_document(cycle_factorization_minus_f(6, 6)))
        doc["host"]["matching"][0] = [0, 0]
        (tmp_path / "loop.json").write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SeedCatalogError) as exc_info:
            load_seed_catalog(tmp_path)
        assert "loop.json" in str(exc_info.value)

    def test_design_document_rejected(self, tmp_path):
        (tmp_path / "x.json").write_text(
            dumps_document(build(ParamTuple(12, 3, 3, 4))), encoding="utf-8"
        )
        with pytest.raises(SeedCatalogError) as exc_info:
            load_seed_catalog(tmp_path)
        assert str(exc_info.value) == "x.json: not a cycle-factorization record"

    def test_malformed_json_rejected(self, tmp_path):
        (tmp_path / "junk.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(SeedCatalogError):
            load_seed_catalog(tmp_path)

    def test_undecodable_record_rejected(self, tmp_path):
        (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(SeedCatalogError) as exc_info:
            load_seed_catalog(tmp_path)
        assert "utf16.json" in str(exc_info.value)

    def test_duplicate_key_rejected(self, tmp_path):
        cf = cycle_factorization_odd(9, 3)
        (tmp_path / "a.json").write_text(dumps_document(cf), encoding="utf-8")
        (tmp_path / "b.json").write_text(dumps_document(cf), encoding="utf-8")
        with pytest.raises(SeedCatalogError) as exc_info:
            load_seed_catalog(tmp_path)
        assert "duplicate" in str(exc_info.value)


def _route_ingredients(max_v: int, hs: range) -> list[tuple[int, int, str]]:
    """The (order, h, host kind) of every inflation route up to max_v."""
    seen = set()
    for v in range(6, max_v + 1, 2):
        for h in hs:
            for pair in admissible_pairs(v, h):
                if pair.s:
                    seen.add(plan(ParamTuple(v, h, pair.r, pair.s)).ingredient)
    return sorted(key for key in seen if key is not None)


# Route ingredients up to v = 96 that neither the quotient structures nor the
# plain search supply with the default budget; the README lists the same.
OPEN_INGREDIENTS = {
    (18, 3, "complete_minus_f"),
    (21, 3, "complete"),
    (28, 7, "complete_minus_f"),
    (30, 3, "complete_minus_f"),
    (39, 3, "complete"),
    (40, 5, "complete_minus_f"),
    (40, 8, "complete_minus_f"),
    (42, 3, "complete_minus_f"),
    (42, 7, "complete_minus_f"),
    (45, 3, "complete"),
    (48, 3, "complete_minus_f"),
}

# Quotient-resolved ingredients of the search-desk benchmark and the golden
# spectra, with the path extensions the quotient stage spends on each.
QUOTIENT_SHAPES = [
    (9, 3, "complete", "quotient:A", 7),
    (15, 3, "complete", "quotient:C", 1_119),
    (8, 4, "complete_minus_f", "quotient:B", 5),
    (16, 4, "complete_minus_f", "quotient:B", 101),
    (18, 6, "complete_minus_f", "quotient:B", 578),
    (14, 7, "complete_minus_f", "quotient:C", 1_043),
]


class TestQuotient:
    @pytest.mark.parametrize("n,h,kind,source", [row[:4] for row in QUOTIENT_SHAPES])
    def test_fresh_sources_give_identical_bytes(self, n, h, kind, source):
        docs = []
        for _ in range(2):
            src = IngredientSource()
            cf = src.odd(n, h) if kind == "complete" else src.minus_f(n, h)
            assert cf.source == source
            assert validate_cycle_factorization(cf).passed
            docs.append(dumps_document(cf))
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("n,h,kind,source,extensions", QUOTIENT_SHAPES)
    def test_extension_counts_pinned(self, n, h, kind, source, extensions):
        # The seeded quotient search finds the same base class after the same
        # number of path extensions in any process.
        cf, nodes = _quotient_search(kind, n, h, QUOTIENT_NODES)
        assert (cf.source, nodes) == (source, extensions)

    def test_structures_exhausted_then_plain_search(self):
        # No structure holds a 5-cycle factorization of K_10 - F; running out
        # of them proves nothing, and the plain search still finds one.
        cf = cycle_factorization_minus_f(10, 5)
        assert cf.source == "search"

    def test_budget_covers_both_stages(self):
        budget = QUOTIENT_NODES + 10
        with pytest.raises(IngredientUnavailable) as exc_info:
            IngredientSource(budget=budget).minus_f(18, 3)
        assert (exc_info.value.outcome, exc_info.value.nodes) == ("budget-exhausted", budget)

    def test_route_ingredient_grid(self):
        # Enough budget for the quotient stage and a short plain search.
        source = IngredientSource(budget=QUOTIENT_NODES + 1_000)
        for n, h, kind in _route_ingredients(96, range(3, 13)):
            if (n, h, kind) in OPEN_INGREDIENTS:
                continue
            if kind == "complete_minus_f" and (n, h) in NONEXISTENT_MINUS_F:
                with pytest.raises(IngredientUnavailable):
                    source.minus_f(n, h)
                continue
            cf = source.odd(n, h) if kind == "complete" else source.minus_f(n, h)
            assert validate_cycle_factorization(cf).passed, (n, h, kind)
