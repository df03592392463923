"""Core types, canonical forms, and the verifier."""

from __future__ import annotations

from itertools import chain

import pytest
from hypothesis import given, strategies as st

from sunurd import (
    Decomposition,
    HostGraph,
    ParallelClass,
    Sun,
    canonical_cycle,
    canonical_decomposition,
    canonicalize_sun,
    edge,
    host_edges,
    one_factorization,
    sun_edges,
    urd6_h3,
    verify,
    vertex_profile,
)
from sunurd.core import ONE_FACTOR, SUN_FACTOR, _cycle_edges


def k6_design() -> Decomposition:
    """The 6-vertex design with one matching and two sun classes."""
    return Decomposition(
        HostGraph.complete(6),
        (
            ParallelClass.sun_factor((canonicalize_sun((0, 1, 2), (5, 4, 3)),)),
            ParallelClass.sun_factor((canonicalize_sun((3, 5, 4), (0, 1, 2)),)),
            ParallelClass.one_factor(((0, 4), (1, 3), (2, 5))),
        ),
    )


class TestCanonicalizeSun:
    def test_already_canonical(self):
        sun = canonicalize_sun((0, 1, 2), (5, 4, 3))
        assert sun == Sun((0, 1, 2), (5, 4, 3))

    def test_rotation_normalized(self):
        assert canonicalize_sun((1, 2, 0), (4, 3, 5)) == Sun((0, 1, 2), (5, 4, 3))

    def test_reflection_normalized(self):
        assert canonicalize_sun((2, 1, 0), (3, 4, 5)) == Sun((0, 1, 2), (5, 4, 3))

    def test_all_dihedral_writings_collapse(self):
        # Independent oracle: enumerate every rotation and reflection of one
        # sun and confirm a single canonical representative.
        cycle, pendants = (3, 9, 4, 7), (8, 0, 6, 5)
        base = canonicalize_sun(cycle, pendants)
        seen = set()
        for k in range(4):
            rc, rp = cycle[k:] + cycle[:k], pendants[k:] + pendants[:k]
            seen.add(canonicalize_sun(rc, rp))
            seen.add(canonicalize_sun(rc[::-1], rp[::-1]))
        assert seen == {base}

    def test_idempotent(self):
        sun = canonicalize_sun((4, 1, 8), (2, 3, 0))
        again = canonicalize_sun(sun.cycle, sun.pendants)
        assert sun == again

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_sun((0, 1, 2), (2, 4, 5))

    def test_short_cycle_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_sun((0, 1), (2, 3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_sun((0, 1, 2), (3, 4))

    @given(st.data())
    def test_dihedral_invariance_property(self, data):
        h = data.draw(st.integers(min_value=3, max_value=8))
        verts = data.draw(
            st.lists(st.integers(0, 999), min_size=2 * h, max_size=2 * h, unique=True)
        )
        cycle, pendants = verts[:h], verts[h:]
        base = canonicalize_sun(cycle, pendants)
        k = data.draw(st.integers(0, h - 1))
        flip = data.draw(st.booleans())
        rc, rp = cycle[k:] + cycle[:k], pendants[k:] + pendants[:k]
        if flip:
            rc, rp = rc[::-1], rp[::-1]
        assert canonicalize_sun(rc, rp) == base


class TestSunEdges:
    def test_three_sun(self):
        sun = canonicalize_sun((0, 1, 2), (5, 4, 3))
        assert sun_edges(sun) == {(0, 1), (1, 2), (0, 2), (0, 5), (1, 4), (2, 3)}

    def test_four_sun_matches_adjacency_oracle(self):
        sun = canonicalize_sun((0, 1, 2, 3), (4, 5, 6, 7))
        expected = {(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7)}
        assert sun_edges(sun) == expected
        # brute-force rebuild from the degree sequence: cycle vertices reach
        # both neighbours plus the pendant, pendants only their anchor
        adjacency = {x: set() for x in range(8)}
        for u, w in sun_edges(sun):
            adjacency[u].add(w)
            adjacency[w].add(u)
        assert all(len(adjacency[x]) == 3 for x in sun.cycle)
        assert all(len(adjacency[x]) == 1 for x in sun.pendants)

    @given(st.integers(3, 9))
    def test_edge_count_is_2h(self, h):
        sun = canonicalize_sun(range(h), range(h, 2 * h))
        assert len(sun_edges(sun)) == 2 * h


def cycle_edges_by_rotation(cycles, pendants=()):
    """``core._cycle_edges`` as written before the successor list: each
    cycle's next vertices read from a copy rotated by one, kept as the
    reference for the successor list."""
    flat = list(chain.from_iterable(cycles))
    ends = chain(chain.from_iterable(c[1:] + c[:1] for c in cycles), chain.from_iterable(pendants))
    return zip(chain(flat, flat), ends)


@st.composite
def cycle_rows(draw):
    # Cycles of lengths 3-9 on distinct vertices, mixed or of one length,
    # each a tuple or a list, with a pendant row per cycle or none.
    lengths = draw(st.lists(st.integers(3, 9), min_size=1, max_size=6))
    if draw(st.booleans()):
        lengths = [lengths[0]] * len(lengths)
    vertices = draw(st.permutations(range(2 * sum(lengths))))
    cycles, pendants, at = [], [], 0
    for k in lengths:
        row = draw(st.sampled_from([tuple, list]))
        cycles.append(row(vertices[at : at + k]))
        pendants.append(row(vertices[at + k : at + 2 * k]))
        at += 2 * k
    return cycles, pendants if draw(st.booleans()) else ()


class TestCycleEdges:
    def test_single_triangle(self):
        for pendants in ((), [(3, 4, 5)]):
            got = list(_cycle_edges([(0, 1, 2)], pendants))
            assert got == list(cycle_edges_by_rotation([(0, 1, 2)], pendants))
        assert got == [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)]

    @given(cycle_rows())
    def test_successor_list_matches_rotation(self, rows):
        cycles, pendants = rows
        want = list(cycle_edges_by_rotation(cycles, pendants))
        assert list(_cycle_edges(cycles, pendants)) == want


class TestHostEdges:
    def test_complete_k6(self):
        assert len(host_edges(HostGraph.complete(6))) == 15

    def test_blown_cycle_3x2(self):
        host = HostGraph.blown_cycle(((0, 1), (2, 3), (4, 5)))
        edges = host_edges(host)
        assert len(edges) == 12
        # oracle: three consecutive group pairs, four cross edges each
        expected = set()
        groups = ((0, 1), (2, 3), (4, 5))
        for i in range(3):
            for u in groups[i]:
                for w in groups[(i + 1) % 3]:
                    expected.add(edge(u, w))
        assert set(edges) == expected

    def test_blown_cycle_out_of_label_order(self):
        # Positions run 5, 0, 3, 4, 1, 2: slots are keyed by position, and the
        # edges still come out smaller label first, sorted.
        groups = ((5, 0), (3, 4), (1, 2))
        expected = sorted(
            (min(u, w), max(u, w))
            for i, g in enumerate(groups)
            for u in g
            for w in groups[(i + 1) % 3]
        )
        assert host_edges(HostGraph.blown_cycle(groups)) == expected

    def test_complete_minus_f_k12(self):
        host = HostGraph.complete_minus_f(12, [(2 * i, 2 * i + 1) for i in range(6)])
        assert len(host_edges(host)) == 60

    def test_imperfect_matching_rejected(self):
        host = HostGraph.complete_minus_f(6, ((0, 1), (2, 3), (3, 4)))
        with pytest.raises(ValueError):
            host_edges(host)

    def test_two_groups_rejected(self):
        with pytest.raises(ValueError):
            host_edges(HostGraph.blown_cycle(((0, 1), (2, 3))))


class TestVerify:
    def test_k6_design_passes(self):
        report = verify(k6_design())
        assert report.passed
        assert (report.r, report.s) == (1, 2)
        assert report.violations == ()

    def test_duplicated_edge_fails_with_both_findings(self):
        bad = Decomposition(
            k6_design().host,
            k6_design().classes[:2]
            + (ParallelClass.one_factor(((0, 4), (1, 3), (0, 5))),),
        )
        report = verify(bad)
        assert not report.passed
        kinds = {f.kind for f in report.violations}
        assert "duplicated-edge" in kinds
        assert "missing-edge" in kinds

    def test_vertex_missed_and_repeated(self):
        bad = Decomposition(
            HostGraph.complete(4),
            (ParallelClass.one_factor(((0, 1), (0, 2))),),
        )
        report = verify(bad)
        kinds = {f.kind for f in report.violations}
        assert "vertex-missed" in kinds
        assert "vertex-repeated" in kinds

    def test_mixed_sun_sizes_fail(self):
        s3 = canonicalize_sun((0, 1, 2), (3, 4, 5))
        s4 = canonicalize_sun((6, 7, 8, 9), (10, 11, 12, 13))
        dec = Decomposition(
            HostGraph.complete(14),
            (ParallelClass.sun_factor((s3, s4)),),
        )
        report = verify(dec)
        assert not report.passed
        assert any(f.kind == "non-uniform-class" for f in report.violations)

    def test_malformed_sun_reported_not_raised(self):
        dec = Decomposition(
            HostGraph.complete(6),
            (ParallelClass.sun_factor((Sun((0, 1, 2), (0, 4, 5)),)),),
        )
        report = verify(dec)
        assert not report.passed
        assert any(f.kind == "malformed-sun" for f in report.violations)

    def test_expected_h_mismatch(self):
        report = verify(k6_design(), expected_h=4)
        assert not report.passed

    def test_malformed_host_reported(self):
        dec = Decomposition(HostGraph("nonsense", 4), ())
        report = verify(dec)
        assert not report.passed
        assert report.violations[0].kind == "malformed-host"

    def test_non_pair_edge_reported_not_raised(self):
        dec = Decomposition(
            HostGraph.complete(4),
            (ParallelClass.one_factor(((0, 1, 2), (3,))),),
        )
        report = verify(dec)
        assert not report.passed
        details = [f.detail for f in report.violations if f.kind == "malformed-edge"]
        assert details == ["edge (0, 1, 2) is not a pair", "edge (3,) is not a pair"]

    def test_findings_sorted_deterministically(self):
        bad = Decomposition(
            HostGraph.complete(4),
            (
                ParallelClass.one_factor(((0, 1),)),
                ParallelClass.one_factor(((2, 3),)),
            ),
        )
        report = verify(bad)
        assert list(report.violations) == sorted(report.violations)


class TestVertexProfile:
    def test_k6_design_profile(self):
        # counted by hand from the two sun classes: every vertex is once a
        # cycle vertex and once a pendant
        assert vertex_profile(k6_design()) == {x: (1, 1) for x in range(6)}

    def test_pure_one_factorization_profile(self):
        dec = Decomposition(
            HostGraph.complete(8), tuple(one_factorization(range(8)))
        )
        assert vertex_profile(dec) == {x: (0, 0) for x in range(8)}

    def test_unverified_input_rejected(self):
        dec = Decomposition(HostGraph.complete(6), ())
        with pytest.raises(ValueError):
            vertex_profile(dec)

    def test_balance_equals_half_s(self):
        dec = urd6_h3((1, 2))
        profile = vertex_profile(dec)
        assert all(ab == (1, 1) for ab in profile.values())


class TestCanonicalDecomposition:
    def test_sorts_blocks_and_canonicalizes_suns(self):
        dec = Decomposition(
            HostGraph.complete(6),
            (
                ParallelClass.sun_factor((Sun((2, 1, 0), (3, 4, 5)),)),
                ParallelClass.sun_factor((Sun((4, 3, 5), (2, 0, 1)),)),
                ParallelClass.one_factor(((4, 0), (3, 1), (2, 5))),
            ),
        )
        canon = canonical_decomposition(dec)
        assert canon.classes[2].edges == ((0, 4), (1, 3), (2, 5))
        assert verify(canon).passed
        assert canonical_decomposition(canon) == canon


def dihedral_writings(cycle, pendants):
    """All 2h rotations and reflections of a cycle, pendants carried along."""
    h = len(cycle)
    for seq, pend in ((cycle, pendants), (cycle[::-1], pendants[::-1])):
        for k in range(h):
            yield seq[k:] + seq[:k], pend[k:] + pend[:k]


@st.composite
def raw_suns(draw):
    h = draw(st.integers(3, 8))
    verts = draw(st.lists(st.integers(0, 999), min_size=2 * h, max_size=2 * h, unique=True))
    return tuple(verts[:h]), tuple(verts[h:])


@st.composite
def written_classes(draw):
    """A one-factor or sun class whose blocks are written canonically,
    rotated, reflected, reversed or with list rows.

    A sun class is a list of raw suns that may share vertices, or suns on
    distinct vertices in one style: all canonical; each canonical or
    reflected with its least vertex still first; each canonical or rotated
    back by one, so its least vertex comes second; or each in any rotation
    or reflection, with tuple or list rows.
    """
    kind = draw(st.sampled_from(["one-factor", "raw", "distinct", "distinct"]))
    if kind == "one-factor":
        pairs = st.tuples(st.integers(0, 99), st.integers(0, 99)).filter(lambda e: e[0] != e[1])
        edges = [
            draw(st.sampled_from([tuple, list]))(draw(st.permutations(e)))
            for e in draw(st.lists(pairs, max_size=6))
        ]
        return ParallelClass(ONE_FACTOR, edges=tuple(edges))
    if kind == "raw":
        wrap = draw(st.sampled_from([tuple, list]))
        raw = draw(st.lists(raw_suns(), max_size=4))
        return ParallelClass(SUN_FACTOR, suns=tuple(Sun(wrap(c), wrap(p)) for c, p in raw))
    h, k = draw(st.integers(3, 6)), draw(st.integers(1, 4))
    verts = draw(st.lists(st.integers(0, 999), min_size=2 * h * k, max_size=2 * h * k, unique=True))
    style = draw(st.sampled_from(["canonical", "reflected", "rotated", "any"]))
    suns = []
    for i in range(0, 2 * h * k, 2 * h):
        cycle, pendants = canonicalize_sun(verts[i : i + h], verts[i + h : i + 2 * h])
        wrap = tuple
        if style == "any":
            writings = list(dihedral_writings(cycle, pendants))
            cycle, pendants = writings[draw(st.integers(0, len(writings) - 1))]
            wrap = draw(st.sampled_from([tuple, list]))
        elif style != "canonical" and draw(st.booleans()):
            if style == "reflected":
                cycle, pendants = cycle[:1] + cycle[:0:-1], pendants[:1] + pendants[:0:-1]
            else:
                cycle, pendants = cycle[-1:] + cycle[:-1], pendants[-1:] + pendants[:-1]
        suns.append(Sun(wrap(cycle), wrap(pendants)))
    return ParallelClass(SUN_FACTOR, suns=tuple(suns))


def reference_canonical(dec: Decomposition) -> Decomposition:
    """The canonical form block by block: every edge through ``edge``, every
    sun through ``canonicalize_sun``, then each class sorted."""
    classes = tuple(
        ParallelClass.one_factor(sorted(edge(u, w) for u, w in cls.edges))
        if cls.kind == ONE_FACTOR
        else ParallelClass.sun_factor(sorted(canonicalize_sun(c, p) for c, p in cls.suns))
        for cls in dec.classes
    )
    return Decomposition(dec.host, classes)


class TestCanonicalForms:
    @given(raw_suns())
    def test_cycle_is_least_dihedral_writing(self, raw):
        cycle, _ = raw
        assert canonical_cycle(cycle) == min(c for c, _ in dihedral_writings(cycle, cycle))
        assert canonical_cycle(list(cycle)) == canonical_cycle(cycle)

    @given(raw_suns())
    def test_sun_is_least_dihedral_writing_with_pendants(self, raw):
        best = min(dihedral_writings(*raw))
        sun = canonicalize_sun(*raw)
        assert (sun.cycle, sun.pendants) == best
        assert type(sun.cycle) is tuple and type(sun.pendants) is tuple

    @given(
        st.lists(written_classes(), max_size=4),
        st.sampled_from([None, None, "loop", "repeated vertex"]),
        st.integers(0, 4),
    )
    def test_decomposition_idempotent_and_keeps_canonical_suns(self, classes, fault, at):
        # A loop edge or a sun with a repeated vertex, each in a class that is
        # otherwise canonical, still raises.
        if fault == "loop":
            classes.insert(at % 5, ParallelClass(ONE_FACTOR, edges=((0, 1), (2, 2))))
        elif fault == "repeated vertex":
            bad = (Sun((0, 1, 2), (3, 4, 5)), Sun((6, 7, 8), (6, 9, 10)))
            classes.insert(at % 5, ParallelClass(SUN_FACTOR, suns=bad))
        dec = Decomposition(HostGraph.complete(4), tuple(classes))
        if fault is not None:
            with pytest.raises(ValueError):
                canonical_decomposition(dec)
            return
        canon = canonical_decomposition(dec)
        assert canon == reference_canonical(dec)
        for cls in canon.classes:
            assert all(type(e) is tuple for e in cls.edges)
            assert all(type(s.cycle) is tuple and type(s.pendants) is tuple for s in cls.suns)
        again = canonical_decomposition(canon)
        assert again == canon
        for cls, kept in zip(again.classes, canon.classes):
            assert all(a is b for a, b in zip(cls.suns, kept.suns))

    def test_malformed_sun_still_rejected(self):
        dec = Decomposition(
            HostGraph.complete(6),
            (ParallelClass.sun_factor((Sun((0, 1, 2), (0, 4, 5)),)),),
        )
        with pytest.raises(ValueError, match="repeated vertex"):
            canonical_decomposition(dec)
