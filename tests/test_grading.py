"""Tests for monomial combinatorics and Hilbert tables."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from chopshop.grading import (
    CapacityError,
    Exponent,
    HilbertTable,
    LexOrder,
    first_difference,
    hs,
    lex_compare_hf,
    mono_index,
    mono_mul,
    monomials,
    product_index_map,
)


def brute_monomials(n, t):
    """Independent enumeration: all (n+1)-tuples of nonnegatives summing to t."""
    out = []
    for combo in itertools.product(range(t + 1), repeat=n + 1):
        if sum(combo) == t:
            out.append(combo)
    return out


def lex_greater(a, b):
    """Independent order oracle: a > b iff the first nonzero entry of a-b
    is positive."""
    diff = [x - y for x, y in zip(a, b)]
    first = next(v for v in diff if v != 0)
    return first > 0


class TestHs:
    def test_small_values(self):
        assert hs(2, 5) == 21
        assert hs(2, 6) == 28
        assert hs(3, 4) == 35
        assert hs(4, 15) == 3876

    def test_negative_degree_is_zero(self):
        assert hs(2, -1) == 0
        assert hs(5, -100) == 0

    def test_counts_match_enumeration(self):
        for n in range(1, 4):
            for t in range(0, 7):
                assert hs(n, t) == len(brute_monomials(n, t))

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            hs(0, 3)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            hs(20, 10**3)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=200))
    def test_pascal_identity(self, n, t):
        assert hs(n, t) == hs(n - 1, t) + hs(n, t - 1)


class TestMonomials:
    def test_two_variables_order(self):
        assert [tuple(m) for m in monomials(1, 2)] == [(2, 0), (1, 1), (0, 2)]

    def test_three_variables_degree_one(self):
        assert [tuple(m) for m in monomials(2, 1)] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_enumeration_is_complete_and_lex_descending(self):
        for n in range(1, 4):
            for t in range(0, 6):
                ms = monomials(n, t)
                assert len(ms) == hs(n, t) if n >= 1 else True
                assert sorted(map(tuple, ms)) == sorted(brute_monomials(n, t))
                for a, b in zip(ms, ms[1:]):
                    assert lex_greater(a, b)

    def test_exponent_degree_and_validation(self):
        e = Exponent((2, 0, 3))
        assert e.degree == 5
        with pytest.raises(ValueError):
            Exponent((1, -1))

    def test_mono_mul(self):
        assert tuple(mono_mul(Exponent((1, 2, 0)), Exponent((0, 1, 3)))) == (1, 3, 3)
        with pytest.raises(ValueError):
            mono_mul(Exponent((1, 2)), Exponent((1, 2, 0)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=8))
    def test_index_round_trip(self, n, t):
        ms = monomials(n, t)
        for i, m in enumerate(ms):
            assert mono_index(n, t, m) == i

    def test_index_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            mono_index(2, 3, (1, 1, 0))

    def test_product_index_map_matches_direct_products(self):
        for n in range(1, 5):
            for d, e in itertools.product(range(11), repeat=2):
                if d + e > 10:
                    continue
                idx = product_index_map(n, d, e)
                assert idx.shape == (hs(n, e), hs(n, d))
                assert not idx.flags.writeable
                expected = [
                    [mono_index(n, d + e, mono_mul(m, a)) for a in monomials(n, d)]
                    for m in monomials(n, e)
                ]
                assert idx.tolist() == expected, (n, d, e)


def ring_table(n, t_max):
    """The full polynomial ring's table through t_max: a growing table."""
    return HilbertTable(n, tuple(hs(n, t) for t in range(t_max + 1)), None)


class TestHilbertTable:
    def test_value_at_and_tail(self):
        h = HilbertTable(2, (1, 3, 6, 10, 15, 18), 18)
        assert h.value_at(-3) == 0
        assert h.value_at(2) == 6
        assert h.value_at(40) == 18

    def test_growing_table_refuses_extrapolation(self):
        h = ring_table(2, 4)
        assert h.value_at(4) == 15
        with pytest.raises(ValueError):
            h.value_at(5)

    def test_tail_must_match_last_value(self):
        with pytest.raises(ValueError):
            HilbertTable(2, (1, 3, 6), 5)

    def test_first_difference_of_point_table(self):
        h = HilbertTable(2, (1, 3, 6, 10, 15, 18), 18)
        d = first_difference(h)
        assert d.values == (1, 2, 3, 4, 5, 3, 0)
        assert d.tail == 0

    def test_first_difference_of_ring_table_drops_a_variable(self):
        # The degree-t slice of a ring on one fewer variable.
        d = first_difference(ring_table(3, 8))
        assert d.tail is None
        assert d.values == tuple(hs(2, t) for t in range(9))

    def test_difference_then_prefix_sum_recovers_table(self):
        h = HilbertTable(3, (1, 4, 9, 12, 12), 12)
        d = first_difference(h)
        acc = 0
        for t in range(len(h.values) + 3):
            acc += d.value_at(t)
            assert acc == h.value_at(t)


class TestLexCompare:
    def test_equal(self):
        a = HilbertTable(2, (1, 3, 6, 10), 10)
        b = HilbertTable(2, (1, 3, 6, 10, 10), 10)
        assert lex_compare_hf(a, b) is LexOrder.EQUAL

    def test_first_divergence_decides(self):
        a = HilbertTable(2, (1, 3, 5, 20), 20)
        b = HilbertTable(2, (1, 3, 6, 2), 2)
        assert lex_compare_hf(a, b) is LexOrder.LESS_EQUAL
        assert lex_compare_hf(b, a) is LexOrder.GREATER_EQUAL

    def test_tail_divergence(self):
        a = HilbertTable(2, (1, 3, 6), 6)
        b = HilbertTable(2, (1, 3, 6, 6, 6, 6), 6)
        c = HilbertTable(2, (1, 3, 6, 7), 7)
        assert lex_compare_hf(a, b) is LexOrder.EQUAL
        assert lex_compare_hf(a, c) is LexOrder.LESS_EQUAL

    def test_insufficient_overlap(self):
        a = ring_table(2, 3)
        b = HilbertTable(2, (1, 3, 6, 10, 15, 18), 18)
        assert lex_compare_hf(a, b) is LexOrder.INCOMPARABLE
        assert lex_compare_hf(ring_table(2, 3), ring_table(2, 5)) is LexOrder.INCOMPARABLE
