"""Spectrum arithmetic and the counting oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from sunurd import (
    ParamTuple,
    Reason,
    admissible_pairs,
    check_necessary,
    enumerate_by_counting,
    inadmissibility_reason,
)


class TestAdmissiblePairs:
    def test_12_3(self):
        assert admissible_pairs(12, 3) == [(3, 4), (7, 2), (11, 0)]
        assert inadmissibility_reason(12, 3) is None

    def test_6_3(self):
        assert admissible_pairs(6, 3) == [(1, 2), (5, 0)]

    def test_8_3_empty(self):
        assert admissible_pairs(8, 3) == []
        assert "multiple of 2h=6" in inadmissibility_reason(8, 3)

    def test_12_6(self):
        assert admissible_pairs(12, 6) == [(3, 4), (7, 2), (11, 0)]

    def test_10_5(self):
        assert admissible_pairs(10, 5) == [(1, 4), (5, 2), (9, 0)]

    def test_20_5(self):
        assert admissible_pairs(20, 5) == [(3, 8), (7, 6), (11, 4), (15, 2), (19, 0)]

    def test_pairs_ordered_by_increasing_r(self):
        pairs = admissible_pairs(48, 4)
        assert [p.r for p in pairs] == sorted(p.r for p in pairs)

    def test_h_below_3_rejected(self):
        with pytest.raises(ValueError):
            admissible_pairs(8, 2)
        assert inadmissibility_reason(8, 2) == "h must be at least 3"

    def test_extreme_pairs(self):
        # the pair with maximum s and the pure-matching pair
        for v, h in ((24, 3), (16, 4), (30, 5), (36, 6)):
            pairs = admissible_pairs(v, h)
            tail = (3, (v - 4) // 2) if v % 4 == 0 else (1, (v - 2) // 2)
            assert pairs[0] == tail
            assert pairs[-1] == (v - 1, 0)


class TestCountingOracle:
    def test_matches_closed_form_everywhere(self):
        for h in range(3, 11):
            for v in range(2 * h, 201, 2 * h):
                assert admissible_pairs(v, h) == enumerate_by_counting(v, h), (v, h)

    def test_20_5_by_scan(self):
        assert enumerate_by_counting(20, 5) == [
            (3, 8),
            (7, 6),
            (11, 4),
            (15, 2),
            (19, 0),
        ]

    def test_every_pair_satisfies_edge_count_and_residue(self):
        for h in (3, 4, 5, 7):
            for v in range(2 * h, 120, 2 * h):
                for r, s in admissible_pairs(v, h):
                    assert r + 2 * s == v - 1
                    assert r % 4 == (v - 1) % 4
                    assert s % 2 == 0

    @given(st.integers(3, 10), st.integers(1, 12))
    def test_property_oracle_agreement(self, h, k):
        v = 2 * h * k
        assert admissible_pairs(v, h) == enumerate_by_counting(v, h)


class TestCheckNecessary:
    def test_admissible_tuple(self):
        assert check_necessary(ParamTuple(12, 3, 7, 2)).ok

    def test_odd_s_violation(self):
        adm = check_necessary(ParamTuple(12, 3, 5, 3))
        assert not adm.ok
        assert adm.reason is Reason.PARITY_OF_S

    def test_edge_count_violation(self):
        adm = check_necessary(ParamTuple(12, 3, 4, 4))
        assert not adm.ok
        assert adm.reason is Reason.EDGE_COUNT
        assert adm.detail == "r+2s must equal v-1"

    def test_divisibility_violation(self):
        adm = check_necessary(ParamTuple(8, 3, 1, 3))
        assert not adm.ok
        assert adm.reason is Reason.DIVISIBILITY

    def test_out_of_range_pair_rejected(self):
        # s even and r + 2s = v - 1 force the right residue of r, so the
        # spectrum-membership check is what rejects out-of-range pairs
        adm = check_necessary(ParamTuple(20, 5, -1, 10))
        assert not adm.ok
        assert adm.reason is Reason.RESIDUE_OF_R

    def test_residue_check_agrees_with_spectrum_grid(self):
        # On the edge-count line r = v - 1 - 2s, a tuple with s != 0 passes
        # exactly when (r, s) is in J(v); otherwise the residue check names it.
        for h in range(3, 13):
            for v in range(1, 241):
                pairs = set(admissible_pairs(v, h))
                for s in range(-6, v + 6):
                    if s == 0:
                        continue
                    r = v - 1 - 2 * s
                    adm = check_necessary(ParamTuple(v, h, r, s))
                    assert adm.ok == ((r, s) in pairs), (v, h, r, s)
                    if not adm.ok and v % (2 * h) == 0 and s % 2 == 0:
                        assert adm.reason is Reason.RESIDUE_OF_R
                        assert adm.detail == (
                            f"r must be congruent to {(v - 1) % 4} mod 4 and nonnegative"
                        )

    def test_s_zero_any_even_v(self):
        # plain 1-factorizations are admissible off the 2h grid too
        assert check_necessary(ParamTuple(8, 3, 7, 0)).ok
        assert check_necessary(ParamTuple(14, 5, 13, 0)).ok
        for t in (ParamTuple(9, 3, 8, 0), ParamTuple(0, 3, -1, 0), ParamTuple(-4, 3, -5, 0)):
            adm = check_necessary(t)
            assert adm.reason is Reason.DIVISIBILITY
            assert adm.detail == "v must be a positive even number for a 1-factorization"
        adm = check_necessary(ParamTuple(8, 3, 6, 0))
        assert adm.reason is Reason.EDGE_COUNT
        assert adm.detail == "r+2s must equal v-1"

    @settings(max_examples=1_000)
    @given(st.data())
    def test_screen_agrees_with_counting_oracle(self, data):
        # A tuple passes exactly when h >= 3 and it is a 1-factorization of an
        # even v, or (r, s) is a pair the brute-force scan keeps.  v is drawn
        # on the 2h grid, s near 0 and r on the edge-count line often enough
        # to reach every boundary.
        h = data.draw(st.integers(-1, 13))
        v = data.draw(st.integers(-8, 400) | st.sampled_from(range(0, 401, 2 * max(h, 1))))
        s = data.draw(st.integers(-8, 8) | st.integers(-8, 210))
        r = data.draw(st.integers(-8, 410) | st.just(v - 1 - 2 * s))
        if s == 0:
            expected = h >= 3 and v > 0 and v % 2 == 0 and r == v - 1
        else:
            expected = h >= 3 and (r, s) in enumerate_by_counting(v, h)
        assert check_necessary(ParamTuple(v, h, r, s)).ok == expected
