"""The rows the points fix: the chopped scan eliminates its Macaulay
staircase without them and reads the same quotients.

``pointideals._fixed_rows`` names the x_0-multiples of the pivot columns of
the degree-d evaluation matrix, all but the last, when x_0 vanishes at none
of the points.  The references here eliminate the matrix with every row.
"""

from collections import Counter

import numpy as np
import pytest

from chopshop import pointideals
from chopshop.formulas import CaseParams, admissible, predicted_gap
from chopshop.grading import hs, product_index_map
from chopshop.modlinalg import PrimeField, _live_rows, rank
from chopshop.pointideals import (
    PointConfig,
    _fixed_rows,
    _graded_quotients,
    chopped_hf,
    chopped_profile,
    ideal_component,
    macaulay_array,
    macaulay_matrix,
    sample_points,
)
from chopshop.verify import derive_seed, verify_case

P = PrimeField(2147483647)

# the acceptance grids (criterion 6) and the benchmark's hard-regime cases
GRID_LIMITS = ((2, 300), (3, 200), (4, 150))
HARD_CASES = ((3, 159), (3, 160), (3, 161), (4, 118), (4, 119), (4, 120))


def pivots(basis):
    """Pivot columns of E_d, column by column: a coordinate is free when
    some kernel column ends there."""
    kernel = basis.vectors.array
    free = {int(np.flatnonzero(column)[-1]) for column in kernel.T}
    return [i for i in range(kernel.shape[0]) if i not in free]


def reference_hf(config, d, t):
    basis = ideal_component(config, d)
    return hs(config.n, t) - rank(macaulay_matrix(basis, t - d))


def moved(coords, p, rng):
    """The points under a linear change of coordinates whose new x_0 vanishes
    at none of them, or None if a few random tries find no such form.  The
    chopped quotient does not depend on the coordinates."""
    for _ in range(50):
        form = rng.integers(0, p, size=coords.shape[1])
        form[0] = rng.integers(1, p)
        if (coords @ form % p).all():
            change = np.eye(coords.shape[1], dtype=np.int64)
            change[0] = form
            return coords @ change.T % p
    return None


class TestMacaulayArrayDrop:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_kept_rows_move_up_and_the_rest_are_zero(self, order):
        rng = np.random.default_rng(5)
        n, d, e = 3, 3, 2
        drop = np.array([0, 2, 3, 9, 17])
        shape = (hs(n, d), 4)
        for coeffs in (rng.integers(0, P.p, size=shape).astype(np.int32),
                       rng.standard_normal(shape) + 1j * rng.standard_normal(shape)):
            whole = macaulay_array(n, d, coeffs, e, order=order)
            less = macaulay_array(n, d, coeffs, e, order=order, drop=drop)
            kept = hs(n, d + e) - drop.size
            assert less.shape == (kept + 1, whole.shape[1]) and less.dtype == whole.dtype
            assert less.flags[f"{order}_CONTIGUOUS"]
            assert np.array_equal(less[:kept], np.delete(whole, drop, axis=0))
            assert not less[kept].any()

    def test_x0_multiples_keep_their_positions(self):
        # lex order lists x_0's multiples first: x_0^e times the monomial at
        # position i of degree d sits at position i of degree d+e
        for n, d, e in ((2, 5, 3), (3, 4, 2), (4, 3, 4)):
            shifts = product_index_map(n, d, e)
            assert np.array_equal(shifts[0], np.arange(hs(n, d)))


class TestSameQuotients:
    @pytest.mark.parametrize("n, r_to", GRID_LIMITS)
    def test_acceptance_grid_sample(self, n, r_to):
        # every 16th admissible r of the grid, at the grid's own seed
        cases = [r for r in range(1, r_to + 1) if admissible(n, CaseParams(n, r).d, r)]
        for r in cases[::16]:
            config = sample_points(n, r, P, derive_seed(0, n, r, 0))
            params = CaseParams(n, r)
            basis = ideal_component(config, params.d)
            drop = _fixed_rows(config, basis)
            assert list(drop) == pivots(basis)[:-1] and drop.size == r - 1
            top = predicted_gap(params).gap
            assert _graded_quotients(basis, top, drop) == _graded_quotients(basis, top), r

    @pytest.mark.parametrize("p", [7, 13])
    def test_small_prime_verdicts_survive_the_drop(self, p):
        # each PASS and FAIL of a scan at a small prime, its points moved so
        # that x_0 vanishes at none of them: the scan now drops rows and
        # observes the same table, and both eliminations at the default
        # horizon agree degree by degree
        prime = PrimeField(p)
        rng = np.random.default_rng(p)
        seen = Counter()
        for n in (2, 3):
            for r in range(6, 40):
                if not admissible(n, CaseParams(n, r).d, r):
                    continue
                cert = verify_case(n, r, prime, seed=0)
                if cert.verdict not in ("PASS", "FAIL"):
                    continue
                coords = moved(np.array(cert.points, dtype=np.int64), p, rng)
                if coords is None:
                    continue
                config = PointConfig(n, r, coords, prime, cert.seed)
                basis = ideal_component(config, cert.d)
                drop = _fixed_rows(config, basis)
                assert list(drop) == pivots(basis)[:-1] and drop.size == r - 1
                assert chopped_profile(config).observed.values == cert.observed_quotient
                prediction = predicted_gap(CaseParams(n, r))
                top = max(prediction.bound, prediction.gap) + 2
                assert _graded_quotients(basis, top, drop) == _graded_quotients(basis, top)
                seen[cert.verdict] += 1
                seen["late pivots"] += pivots(basis) != list(range(r))
        assert min(seen[k] for k in ("PASS", "FAIL", "late pivots")) > 0, seen

    def test_pivots_off_the_leading_columns(self):
        # five points on the line x_2 = 0 of the plane: every monomial with
        # x_2 vanishes on them, so the pivots of E_4 are the five monomials
        # in x_0 and x_1 alone, at positions 0, 1, 3, 6 and 10
        p = 13
        coords = np.array([[1, a, 0] for a in (1, 2, 3, 5, 8)], dtype=np.int64)
        config = PointConfig(2, 5, coords, PrimeField(p), 0)
        basis = ideal_component(config, 4)
        assert pivots(basis) == [0, 1, 3, 6, 10]
        assert list(_fixed_rows(config, basis)) == [0, 1, 3, 6]
        for e in range(1, 5):
            assert _graded_quotients(basis, e, _fixed_rows(config, basis)) == \
                _graded_quotients(basis, e)
        assert [chopped_hf(config, 4, t) for t in range(5, 9)] == \
            [reference_hf(config, 4, t) for t in range(5, 9)]


@pytest.fixture
def drops(monkeypatch):
    """How many rows each Macaulay build of the scan leaves out."""
    seen = []
    build = pointideals.macaulay_matrix

    def recorded(basis, e, drop=()):
        seen.append(len(drop))
        return build(basis, e, drop)

    monkeypatch.setattr(pointideals, "macaulay_matrix", recorded)
    return seen


class TestChoppedHilbertFunction:
    def test_a_point_on_x0_keeps_every_row(self, drops):
        sampled = sample_points(3, 30, P, 7)
        coords = sampled.coords.copy()
        coords[0, 0] = 0
        config = PointConfig(3, 30, coords, P, 7)
        d = CaseParams(3, 30).d
        chopped_profile(config)
        assert drops and set(drops) == {0}
        assert [chopped_hf(config, d, t) for t in range(d + 1, d + 4)] == \
            [reference_hf(config, d, t) for t in range(d + 1, d + 4)]

    def test_drops_rows_and_matches(self, drops):
        config = sample_points(3, 30, P, 7)
        d = CaseParams(3, 30).d
        assert [chopped_hf(config, d, t) for t in range(d + 1, d + 4)] == \
            [reference_hf(config, d, t) for t in range(d + 1, d + 4)]
        assert drops == [29] * 3


@pytest.mark.parametrize("n, r", HARD_CASES)
def test_hard_regime_eliminates_one_fixed_row(n, r, monkeypatch):
    # a PASS eliminates one matrix, at the gap, of all but r - 1 of the
    # hs(n, d+G) rows and a zero sink row, whose live rows are all but r - 1:
    # the points fix r rows and the scan keeps one
    calls = []
    echelons = pointideals._echelons

    def recorded(arrays, p, *args):
        calls.extend((a.shape[0], _live_rows(a)) for a in arrays)
        return echelons(arrays, p, *args)

    monkeypatch.setattr(pointideals, "_echelons", recorded)
    params = CaseParams(n, r)
    prediction = predicted_gap(params)
    profile = chopped_profile(sample_points(n, r, P, 0))
    assert profile.observed_gap == prediction.gap
    rows = hs(n, params.d + prediction.gap)
    assert calls == [(rows - r + 2, rows - r + 1)]
