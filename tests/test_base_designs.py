"""Base designs: small fixed designs, blown-cycle fills, round-robin."""

from __future__ import annotations

import pytest

from sunurd import (
    Decomposition,
    HostGraph,
    UrgddKind,
    canonicalize_sun,
    edge,
    host_edges,
    one_factorization,
    urd6_h3,
    urd12_h3,
    urgdd_ch2,
    verify,
)


class TestUrd6:
    def test_1_2_is_the_listed_design(self):
        dec = urd6_h3((1, 2))
        report = verify(dec, expected_h=3)
        assert report.passed and (report.r, report.s) == (1, 2)
        suns = [cls.suns for cls in dec.classes if cls.kind == "sun_factor"]
        assert suns[0] == (canonicalize_sun((0, 1, 2), (5, 4, 3)),)
        assert suns[1] == (canonicalize_sun((3, 5, 4), (0, 1, 2)),)
        matching = [cls for cls in dec.classes if cls.kind == "one_factor"][0]
        assert sorted(matching.edges) == [(0, 4), (1, 3), (2, 5)]

    def test_5_0_is_a_one_factorization(self):
        dec = urd6_h3((5, 0))
        report = verify(dec)
        assert report.passed and (report.r, report.s) == (5, 0)

    def test_bad_pair_rejected(self):
        with pytest.raises(ValueError):
            urd6_h3((3, 1))


class TestUrd12:
    def test_3_4(self):
        report = verify(urd12_h3((3, 4)), expected_h=3)
        assert report.passed and (report.r, report.s) == (3, 4)

    def test_7_2(self):
        report = verify(urd12_h3((7, 2)), expected_h=3)
        assert report.passed and (report.r, report.s) == (7, 2)

    def test_11_0(self):
        report = verify(urd12_h3((11, 0)))
        assert report.passed and (report.r, report.s) == (11, 0)

    def test_3_4_contains_listed_first_class(self):
        dec = urd12_h3((3, 4))
        first = dec.classes[0].suns
        assert canonicalize_sun((0, 4, 8), (10, 2, 7)) in first
        assert canonicalize_sun((1, 5, 9), (11, 3, 6)) in first

    def test_bad_pair_rejected(self):
        with pytest.raises(ValueError):
            urd12_h3((5, 3))


class TestUrgddCh2:
    def test_zero_two_h3_explicit_classes(self):
        a, b = (10, 11, 12), (20, 21, 22)
        dec = urgdd_ch2(3, UrgddKind.ZERO_TWO, a, b)
        suns = [cls.suns[0] for cls in dec.classes]
        assert suns[0] == canonicalize_sun((10, 11, 12), (21, 22, 20))
        assert suns[1] == canonicalize_sun((20, 21, 22), (11, 12, 10))

    @pytest.mark.parametrize("h", range(3, 13))
    def test_zero_two_certifies(self, h):
        dec = urgdd_ch2(h, UrgddKind.ZERO_TWO)
        report = verify(dec, expected_h=h)
        assert report.passed, [str(f) for f in report.violations][:4]
        assert (report.r, report.s) == (0, 2)

    @pytest.mark.parametrize("h", range(3, 13))
    def test_four_zero_certifies(self, h):
        dec = urgdd_ch2(h, UrgddKind.FOUR_ZERO)
        report = verify(dec)
        assert report.passed, [str(f) for f in report.violations][:4]
        assert (report.r, report.s) == (4, 0)
        assert all(len(cls.edges) == h for cls in dec.classes)

    def test_four_zero_h4_covers_all_16_edges(self):
        dec = urgdd_ch2(4, UrgddKind.FOUR_ZERO)
        covered = sorted(e for cls in dec.classes for e in cls.edges)
        assert covered == sorted(host_edges(dec.host))
        assert len(covered) == 16

    def test_four_zero_h5_covers_all_20_edges(self):
        # odd-h family instantiated and checked against the edge multiset
        dec = urgdd_ch2(5, UrgddKind.FOUR_ZERO)
        covered = sorted(e for cls in dec.classes for e in cls.edges)
        assert covered == sorted(host_edges(dec.host))
        assert len(covered) == 20

    def test_four_zero_h3_formula_range_is_empty(self):
        # smallest odd case: the formula part of the first matching vanishes
        # and only the patch edges remain; the fill must still certify
        dec = urgdd_ch2(3, UrgddKind.FOUR_ZERO, (0, 1, 2), (3, 4, 5))
        report = verify(dec)
        assert report.passed
        assert len(dec.classes[0].edges) == 3

    def test_zero_two_each_class_is_one_spanning_sun(self):
        for h in (3, 6, 9):
            dec = urgdd_ch2(h, UrgddKind.ZERO_TWO)
            for cls in dec.classes:
                assert len(cls.suns) == 1
                covered = {x for sun in cls.suns for x in sun.cycle + sun.pendants}
                assert len(covered) == 2 * h

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            urgdd_ch2(3, UrgddKind.ZERO_TWO, (0, 1, 2), (2, 3, 4))

    def test_h_below_3_rejected(self):
        with pytest.raises(ValueError):
            urgdd_ch2(2, UrgddKind.ZERO_TWO)


class TestOneFactorization:
    def test_n2(self):
        classes = one_factorization((0, 1))
        assert len(classes) == 1
        assert classes[0].edges == ((0, 1),)

    def test_n4_partitions_k4(self):
        classes = one_factorization(range(4))
        assert len(classes) == 3
        covered = sorted(e for cls in classes for e in cls.edges)
        assert covered == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    @pytest.mark.parametrize("n", (2, 4, 6, 8, 10, 14))
    def test_partitions_kn(self, n):
        classes = one_factorization(range(n))
        dec = Decomposition(HostGraph.complete(n), tuple(classes))
        report = verify(dec)
        assert report.passed and report.r == n - 1

    def test_deterministic(self):
        assert one_factorization(range(10)) == one_factorization(range(10))

    def test_arbitrary_labels(self):
        vs = (5, 9, 2, 7)
        classes = one_factorization(vs)
        covered = sorted(e for cls in classes for e in cls.edges)
        assert covered == sorted(
            edge(u, w) for i, u in enumerate(vs) for w in vs[i + 1 :]
        )

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            one_factorization(range(5))

    def test_repeated_vertex_rejected(self):
        # Its circle method would pair the repeated vertex with itself.
        with pytest.raises(ValueError, match="distinct"):
            one_factorization((0, 0, 1, 2))
