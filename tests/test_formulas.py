"""Tests for the closed-form prediction formulas.

Expected values are either worked out by hand from the defining sums or
cross-checked against independent brute-force oracles coded here.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chopshop.formulas import (
    CaseParams,
    GapPrediction,
    RangeError,
    admissible,
    ci_hf,
    ci_socle,
    ci_table,
    expected_chopped_hf,
    froberg,
    gap_upper_bound,
    generic_hf,
    generic_table,
    igc_gens_d1,
    interesting_range,
    koszul_sum,
    lex_lower_bound_table,
    liaison_delta,
    predicted_gap,
    r_extremes_plane,
    theorem_oracle,
)
from chopshop.grading import CapacityError, LexOrder, first_difference, hs, lex_compare_hf


class TestCaseParams:
    def test_minimal_degree(self):
        assert CaseParams(2, 18).d == 5
        assert CaseParams(2, 41).d == 8
        assert CaseParams(2, 17).d == 5
        assert CaseParams(3, 16).d == 3
        assert CaseParams(4, 121).d == 5
        assert CaseParams(2, 1).d == 0

    def test_minimality(self):
        for n in (2, 3, 4):
            for r in range(1, 80):
                d = CaseParams(n, r).d
                assert hs(n, d) >= r
                assert d == 0 or hs(n, d - 1) < r

    def test_degree_matches_a_linear_scan(self):
        for n in range(1, 7):
            t = 0
            for r in range(1, 2000):
                while hs(n, t) < r:
                    t += 1
                assert CaseParams(n, r).d == t, (n, r)

    def test_degree_of_a_huge_r_takes_few_steps(self, few_hs_calls):
        assert CaseParams(1, 10**12).d == 10**12 - 1

    def test_degree_past_64_bits_is_a_capacity_error(self, few_hs_calls):
        # hs(6, t) passes 2**63 at t = 4332, before 8192, where doubling
        # stops for d = 4331: d is still exact there
        assert CaseParams(6, hs(6, 4331)).d == 4331
        assert CaseParams(6, hs(6, 4300) + 1).d == 4301
        assert CaseParams(1, 2**63 - 1).d == 2**63 - 2
        for n, r in ((1, 2**63), (6, 2**63), (2, 10**40)):
            with pytest.raises(CapacityError):
                CaseParams(n, r).d

    def test_generic_table(self):
        t = generic_table(CaseParams(2, 18))
        assert t.values == (1, 3, 6, 10, 15, 18)
        assert t.tail == 18


class TestExpectedChopped:
    def test_plane_18_points(self):
        p = CaseParams(2, 18)
        assert expected_chopped_hf(p, 5) == (3, 18)
        assert expected_chopped_hf(p, 6) == (9, 19)
        assert expected_chopped_hf(p, 7) == (18, 18)
        assert expected_chopped_hf(p, 11) == (hs(2, 11) - 18, 18)

    def test_plane_41_points(self):
        p = CaseParams(2, 41)
        quotients = [expected_chopped_hf(p, t)[1] for t in range(8, 12)]
        assert quotients == [41, 43, 42, 41]

    def test_below_generation_degree_rejected(self):
        with pytest.raises(RangeError):
            expected_chopped_hf(CaseParams(2, 18), 4)

    def test_inadmissible_r_rejected(self):
        # r = hs(2,5) - 2 = 19 is the first size the degree-5 component
        # cannot cut out.
        for r in (19, 20, 21):
            with pytest.raises(RangeError):
                expected_chopped_hf(CaseParams(2, r), 6)

    def test_gap_predictions(self):
        cases = {
            (2, 18): 2,
            (2, 17): 1,
            (2, 41): 3,
            (3, 16): 2,
            (3, 199): 2,
            # for (4, 119), e = 5 falls one short: 7*hs(4,5) - C(7,2) = 861
            # against a target of hs(4,10) - 119 = 882, so the gap is 6
            (4, 119): 6,
            (4, 121): 10,
        }
        for (n, r), gap in cases.items():
            assert predicted_gap(CaseParams(n, r)).gap == gap

    def test_gap_table_witnesses_the_gap(self):
        g = predicted_gap(CaseParams(2, 18))
        assert isinstance(g, GapPrediction)
        assert g.table.values == (1, 3, 6, 10, 15, 18, 19, 18)
        assert g.table.tail == 18
        assert g.bound == 2

    def test_bound_values(self):
        assert gap_upper_bound(2, 5) == 2
        assert gap_upper_bound(3, 3) == 2
        assert gap_upper_bound(4, 5) == 10

    def test_gap_within_bound_in_hard_regime(self):
        for n in (2, 3, 4):
            for d in range(5, 9):
                lo, hi = interesting_range(n, d)
                for r in range(int(lo) + 1, hi):
                    if Fraction(r) <= lo:
                        continue
                    g = predicted_gap(CaseParams(n, r))
                    if r <= hs(n, d) - (n + 1) and g.bound >= 1:
                        assert 1 <= g.gap <= g.bound

    def test_trivial_chop_has_gap_one_exactly_when_no_new_generators(self):
        for n in (2, 3):
            for r in range(7, 60):
                p = CaseParams(n, r)
                if r >= hs(n, p.d) - n:
                    continue
                assert (predicted_gap(p).gap == 1) == (igc_gens_d1(p) == 0)


class TestKoszulSum:
    @staticmethod
    def series_oracle(n, d, s, t_max):
        # Coefficients of (1 - T^d)^s / (1 - T)^(n+1), by multiplying out
        # the truncated power series one factor at a time.
        coeffs = [1] + [0] * t_max
        for _ in range(s):
            coeffs = [c - (coeffs[t - d] if t >= d else 0) for t, c in enumerate(coeffs)]
        for _ in range(n + 1):
            coeffs = list(itertools.accumulate(coeffs))
        return coeffs

    def test_matches_series_expansion(self):
        for n in (1, 2, 3, 4):
            for d in (1, 2, 3, 5):
                for s in range(0, 12):
                    want = self.series_oracle(n, d, s, 20)
                    assert [koszul_sum(n, d, s, t) for t in range(21)] == want, (n, d, s)


class TestFroberg:
    def test_plane_values(self):
        assert froberg(2, 5, 3, 6) == 19
        assert froberg(2, 5, 3, 7) == 18
        assert froberg(2, 5, 3, 5) == 18

    def test_truncation_is_permanent(self):
        # Raw sum for five generic conics: 1, 3, 1, -5, -5, ..., 3 at t=6.
        # The first nonpositive value at t=3 forces zero from there on.
        assert froberg(2, 2, 5, 2) == 1
        assert froberg(2, 2, 5, 3) == 0
        assert froberg(2, 2, 5, 6) == 0

    def test_capped_table_matches_expected_for_18_points(self):
        p = CaseParams(2, 18)
        capped = lex_lower_bound_table(p, 9)
        assert capped.values[:8] == (1, 3, 6, 10, 15, 18, 19, 18)
        assert capped.tail == 18
        assert lex_compare_hf(predicted_gap(p).table, capped) is LexOrder.EQUAL

    def test_expected_quotient_never_below_the_cap(self):
        # the expected table is the capped Froeberg table on every admissible
        # case of the three acceptance grids (n=2 r<=300, n=3 r<=200, n=4
        # r<=150)
        cases = [CaseParams(n, r) for n, r_to in ((2, 300), (3, 200), (4, 150))
                 for r in range(1, r_to + 1)]
        cases = [p for p in cases if admissible(p.n, p.d, p.r)]
        assert len(cases) == 524
        for p in cases:
            g = predicted_gap(p)
            capped = lex_lower_bound_table(p, p.d + g.gap)
            assert lex_compare_hf(g.table, capped) is LexOrder.EQUAL, (p.n, p.r)


class TestRanges:
    def test_interesting_range_plane(self):
        assert interesting_range(2, 5) == (Fraction(35, 2), 19)
        assert interesting_range(2, 6) == (Fraction(24), 26)
        assert interesting_range(4, 5) == (Fraction(105), 122)

    def test_only_18_is_interesting_for_quintics(self):
        lo, hi = interesting_range(2, 5)
        assert [r for r in range(1, 40) if lo < r < hi] == [18]

    def test_r_extremes(self):
        assert r_extremes_plane(5) == (18, 18)
        assert r_extremes_plane(6) == (25, 25)
        assert r_extremes_plane(7) == (32, 33)
        with pytest.raises(RangeError):
            r_extremes_plane(4)

    def test_extremes_are_the_endpoints_of_the_range(self):
        for d in range(5, 12):
            lo, hi = interesting_range(2, d)
            interesting = [r for r in range(1, hs(2, d)) if lo < r < hi]
            assert (min(interesting), max(interesting)) == r_extremes_plane(d)

    def test_igc_generator_count(self):
        assert igc_gens_d1(CaseParams(2, 18)) == 1
        assert igc_gens_d1(CaseParams(2, 17)) == 0
        for d in range(5, 10):
            _, r_max = r_extremes_plane(d)
            assert igc_gens_d1(CaseParams(2, r_max)) == d - 4


class TestCompleteIntersections:
    def test_two_quintics_table(self):
        vals = [ci_hf(2, (5, 5), t) for t in range(11)]
        assert vals == [1, 3, 6, 10, 15, 19, 22, 24, 25, 25, 25]
        assert ci_socle(2, (5, 5)) == 8

    @staticmethod
    def count_standard_monomials(n, degrees, t):
        """Oracle: monomials with the i-th exponent below degrees[i-1] for
        i >= 1, the zeroth variable unconstrained."""
        count = 0
        for combo in itertools.product(*(range(d) for d in degrees)):
            rest = t - sum(combo)
            if rest >= 0:
                count += 1
        return count

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.integers(min_value=1, max_value=6), min_size=n, max_size=n
                ),
                st.integers(min_value=0, max_value=30),
            )
        )
    )
    def test_series_matches_monomial_count(self, case):
        n, degrees, t = case
        assert ci_hf(n, degrees, t) == self.count_standard_monomials(n, degrees, t)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(
                st.integers(min_value=1, max_value=6), min_size=n, max_size=n
            )
        )
    )
    def test_difference_table_is_symmetric(self, degrees):
        n = len(degrees)
        rho = ci_socle(n, degrees)
        delta = first_difference(ci_table(n, degrees))
        for t in range(rho + 1):
            assert delta.value_at(t) == delta.value_at(rho - t)

    def test_stabilizes_at_product(self):
        import math

        for n, degrees in [(2, (5, 5)), (3, (2, 3, 4)), (4, (5, 5, 5, 5))]:
            rho = ci_socle(n, degrees)
            assert ci_hf(n, degrees, rho) == math.prod(degrees)
            assert ci_hf(n, degrees, rho + 4) == math.prod(degrees)


class TestLiaison:
    def test_18_points_inside_two_quintics(self):
        assert liaison_delta(2, (5, 5), (1, 2, 3, 4, 5, 3)) == (1, 2, 3, 1)

    def test_residual_size(self):
        # The residual of 18 points inside a 25-point complete intersection
        # has 7 points.
        assert sum(liaison_delta(2, (5, 5), (1, 2, 3, 4, 5, 3))) == 7

    def test_applying_twice_returns_the_original(self):
        dz = (1, 2, 3, 4, 5, 3)
        assert liaison_delta(2, (5, 5), liaison_delta(2, (5, 5), dz)) == dz

    def test_oversized_table_rejected(self):
        with pytest.raises(RangeError):
            liaison_delta(2, (5, 5), (1, 2, 3, 4, 5, 6))

    def test_entry_past_the_socle_rejected(self):
        # two conics meet in a complete intersection with socle degree 2;
        # a table still nonzero at degree 3 cannot lie inside it
        with pytest.raises(RangeError, match="nonzero at degree 3"):
            liaison_delta(2, (2, 2), (1, 2, 1, 1))

    def test_fig2_style_case_in_p4(self):
        # 121 generic points inside four quintics: the difference tables
        # split at degree 5 by exactly one.
        dz = first_difference(generic_table(CaseParams(4, 121)))
        dk = first_difference(ci_table(4, (5, 5, 5, 5)))
        assert dk.value_at(5) - dz.value_at(5) == 1


class TestTheoremOracles:
    def test_rmax_plane_quintics(self):
        vals = [theorem_oracle("rmax_p2", t, d=5) for t in range(9)]
        assert vals == [1, 3, 6, 10, 15, 18, 19, 18, 18]

    def test_rmin_plane_odd(self):
        assert theorem_oracle("rmin_p2_odd", 7, d=7) == 32
        assert theorem_oracle("rmin_p2_odd", 8, d=7) == 33
        assert theorem_oracle("rmin_p2_odd", 9, d=7) == 32
        with pytest.raises(RangeError):
            theorem_oracle("rmin_p2_odd", 7, d=6)

    def test_rmax_general_space_cubics(self):
        assert theorem_oracle("rmax_general", 3, d=3, n=3) == 16
        assert theorem_oracle("rmax_general", 4, d=3, n=3) == 19
        assert theorem_oracle("rmax_general", 5, d=3, n=3) == 16
        assert theorem_oracle("rmax_general", 9, d=3, n=3) == 16

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            theorem_oracle("nope", 5, d=5)

    def test_expected_chopped_agrees_with_all_families(self):
        for d in range(5, 13):
            _, r_max = r_extremes_plane(d)
            p = CaseParams(2, r_max)
            for t in range(0, 2 * d + 2):
                want = theorem_oracle("rmax_p2", t, d=d)
                got = hs(2, t) if t < d else expected_chopped_hf(p, t)[1]
                assert got == want, (d, t)
        for d in range(5, 13, 2):
            r_min, _ = r_extremes_plane(d)
            p = CaseParams(2, r_min)
            for t in range(0, d + 5):
                want = theorem_oracle("rmin_p2_odd", t, d=d)
                got = hs(2, t) if t < d else expected_chopped_hf(p, t)[1]
                assert got == want, (d, t)
        for n in range(2, 7):
            for d in range(2, 13):
                r = hs(n, d) - (n + 1)
                if r < 1 or hs(n, d - 1) >= r or gap_upper_bound(n, d) < 1:
                    continue
                p = CaseParams(n, r)
                assert p.d == d
                for t in range(0, d + gap_upper_bound(n, d) + 2):
                    want = theorem_oracle("rmax_general", t, d=d, n=n)
                    got = hs(n, t) if t < d else expected_chopped_hf(p, t)[1]
                    assert got == want, (n, d, t)


class TestGenericHf:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=0, max_value=20),
    )
    def test_caps_at_r(self, n, r, t):
        v = generic_hf(CaseParams(n, r), t)
        assert v == min(hs(n, t), r)
