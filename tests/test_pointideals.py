"""Tests for point configurations and chopped-ideal Hilbert functions.

The key rank computations are cross-checked against an independent oracle
coded here: explicit polynomial multiplication over F_p with dict-backed
coefficient arithmetic, no Macaulay indexing shared with the implementation.
"""

import itertools
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from chopshop import pointideals
from chopshop.formulas import (
    CaseParams,
    ci_hf,
    lex_lower_bound_table,
    predicted_gap,
)
from chopshop.grading import CapacityError, LexOrder, hs, lex_compare_hf, monomials
from chopshop.modlinalg import ModMatrix, PrimeField, _echelon, kernel_basis, matmul, rank
from chopshop.pointideals import (
    RETRY_BUDGET,
    GenericityError,
    GradedBasis,
    PointConfig,
    _full_rank_below,
    _graded_quotients,
    chopped_hf,
    chopped_profile,
    evaluation_array,
    evaluation_matrix,
    ideal_component,
    is_generic,
    macaulay_array,
    macaulay_matrix,
    sample_points,
)
from chopshop.verify import _certificates

P = PrimeField(2147483647)
SEED = 20260815


def poly_mul_oracle(n, coeffs_a, deg_a, coeffs_b, deg_b, p):
    """Multiply two coefficient vectors the slow transparent way: a dict of
    exponent tuples, term by term."""
    out = {}
    for ea, ca in zip(monomials(n, deg_a), coeffs_a):
        if ca == 0:
            continue
        for eb, cb in zip(monomials(n, deg_b), coeffs_b):
            if cb == 0:
                continue
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = (out.get(key, 0) + int(ca) * int(cb)) % p
    return [out.get(exp, 0) for exp in monomials(n, deg_a + deg_b)]


def reference_sample(n, r, prime, seed):
    """Genericity spelled out degree by degree: redraw from the seeded
    stream until the evaluation matrix has rank min(hs(n,t), r) at every
    t = 1..d+1.  None when the retry budget runs out."""
    d = CaseParams(n, r).d
    rng = np.random.default_rng(seed)
    for attempt in range(RETRY_BUDGET):
        coords = rng.integers(0, prime.p, size=(r, n + 1), dtype=np.int64)
        try:
            config = PointConfig(n, r, coords, prime, seed, retries=attempt)
        except ValueError:  # a zero row or a repeated point
            continue
        if all(
            rank(evaluation_matrix(config, t)) == min(hs(n, t), r)
            for t in range(1, d + 2)
        ):
            return config
    return None


class TestSampling:
    def test_deterministic(self):
        a = sample_points(2, 18, P, SEED)
        b = sample_points(2, 18, P, SEED)
        assert a == b
        assert a.coords.shape == (18, 3)

    def test_single_point(self):
        cfg = sample_points(3, 1, P, 5)
        assert cfg.r == 1 and cfg.retries == 0

    def test_rank_at_degree_d(self):
        cfg = sample_points(2, 18, P, SEED)
        assert rank(evaluation_matrix(cfg, 5)) == 18

    def test_impossible_configuration_raises(self):
        # The projective plane over F_3 has 13 points, so 30 distinct ones
        # cannot exist and the retry budget must run out.
        with pytest.raises(GenericityError):
            sample_points(2, 30, PrimeField(3), 0)

    @pytest.mark.parametrize("batch_bytes", [pointideals.BATCH_BYTES, 1],
                             ids=["real-budget", "one-byte-budget"])
    @pytest.mark.parametrize("p", [13, P.p])
    def test_interleaved_cases_sample_as_each_alone(self, p, batch_bytes, monkeypatch):
        # cases of n = 2 and n = 3 and of two degrees d, no two neighbours of
        # one batch, each get the configuration they get alone; at p = 13
        # (2,16) redraws
        monkeypatch.setattr(pointideals, "BATCH_BYTES", batch_bytes)
        cases = [(2, 16, 1), (3, 14, 1), (2, 12, 3), (2, 18, 2), (3, 16, 2), (2, 13, 4)]
        prime = PrimeField(p)
        configs = pointideals.sample_configs(cases, prime)
        assert configs == [sample_points(n, r, prime, seed) for n, r, seed in cases]

    def test_same_draws_as_rank_at_every_degree(self):
        # Small primes make degenerate draws common, so this reaches
        # redraws, exhausted budgets and r > p (no linear form over F_p
        # need avoid every point).
        seen = {"accepted": 0, "redrawn": 0, "exhausted": 0, "r_above_p": 0}
        for p in (3, 5, 7, 11, 13):
            prime = PrimeField(p)
            for n, r, seed in itertools.product((1, 2, 3), range(1, 25), range(2)):
                expected = reference_sample(n, r, prime, seed)
                if expected is None:
                    with pytest.raises(GenericityError):
                        sample_points(n, r, prime, seed)
                    seen["exhausted"] += 1
                    continue
                got = sample_points(n, r, prime, seed)
                assert got == expected, (p, n, r, seed)
                seen["accepted"] += 1
                seen["redrawn"] += got.retries > 0
                seen["r_above_p"] += r > p
        assert min(seen.values()) > 0, seen

    def test_one_kernel_and_no_rank_of_degree_d_minus_1_per_draw(self, monkeypatch):
        calls = []
        kernels, rank_of = pointideals._kernels, pointideals.rank

        def counted_kernels(arrays, p):
            calls.extend(("kernel", a.shape) for a in arrays)
            return kernels(arrays, p)

        def counted_rank(m):
            calls.append(("rank", m.shape))
            return rank_of(m)

        monkeypatch.setattr(pointideals, "_kernels", counted_kernels)
        monkeypatch.setattr(pointideals, "rank", counted_rank)
        for n, r in ((2, 290), (3, 100), (4, 119)):
            calls.clear()
            cfg = sample_points(n, r, P, SEED)
            d = CaseParams(n, r).d
            assert cfg.retries == 0
            # the degree-d kernel, whose columns all end below row
            # hs(n,d-1), so degree d-1 needs no rank
            assert calls == [("kernel", (r, hs(n, d)))]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PointConfig(2, 2, np.array([[1, 2, 3], [2, 4, 6]]), P, 0)  # same point
        with pytest.raises(ValueError):
            PointConfig(2, 2, np.array([[1, 2, 3], [0, 0, 0]]), P, 0)  # zero row
        with pytest.raises(ValueError):
            PointConfig(2, 3, np.array([[1, 2, 3], [4, 5, 6]]), P, 0)  # bad shape


class TestEvaluationMatrix:
    def test_degree_zero_is_ones(self):
        cfg = sample_points(2, 4, P, 1)
        assert evaluation_matrix(cfg, 0).array.tolist() == [[1]] * 4

    def test_degree_one_is_coordinates(self):
        cfg = sample_points(3, 5, P, 2)
        assert (evaluation_matrix(cfg, 1).array == cfg.coords).all()

    def test_entries_are_monomial_values(self):
        cfg = sample_points(2, 3, P, 3)
        e2 = evaluation_matrix(cfg, 2)
        for i in range(3):
            x, y, z = (int(v) for v in cfg.coords[i])
            for j, (a, b, c) in enumerate(monomials(2, 2)):
                assert e2.array[i, j] == pow(x, a, P.p) * pow(y, b, P.p) * pow(z, c, P.p) % P.p

    def test_builder_with_and_without_modulus_agrees(self):
        # Small integer points keep every unreduced product exact, so the
        # reduced table is the plain one taken mod p, and the complex table
        # holds the same integers.
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            coords = rng.integers(0, 6, size=(5, n + 1), dtype=np.int64)
            for t in range(5):
                plain = evaluation_array(coords, t)
                for p in (7, 101, P.p):
                    assert (evaluation_array(coords, t, p) == plain % p).all()
                as_complex = evaluation_array(coords.astype(np.complex128), t)
                assert as_complex.dtype == np.complex128
                assert (as_complex == plain).all()


    def test_capacity_counts_three_arrays_at_the_item_size(self):
        # the result, a gathered power table and their product are held at
        # once: with 24 bytes of memory a cell, the int64 build fits and a
        # complex128 build of the same points would not
        coords = np.arange(1, 13, dtype=np.int64).reshape(4, 3)
        cells = 4 * hs(2, 6)
        memory = {"SC_PHYS_PAGES": cells, "SC_PAGE_SIZE": 24}
        with mock.patch.object(os, "sysconf", memory.__getitem__):
            assert evaluation_array(coords, 6, P.p).shape == (4, hs(2, 6))
            with pytest.raises(CapacityError, match=f"evaluation matrix needs {48 * cells} "):
                evaluation_array(coords.astype(np.complex128), 6)


class TestIdealComponent:
    def test_quintics_through_18_points(self):
        cfg = sample_points(2, 18, P, SEED)
        assert ideal_component(cfg, 5).dim == 3
        assert ideal_component(cfg, 4).dim == 0

    def test_quintics_through_17_points(self):
        cfg = sample_points(2, 17, P, SEED)
        assert ideal_component(cfg, 5).dim == 4

    def test_sampled_basis_is_the_degree_d_kernel(self):
        cases = [(2, 18, P, SEED), (2, 41, P, 3), (3, 30, P, 4), (4, 20, P, 5),
                 (3, 1, P, 6), (2, 9, PrimeField(7), 1), (3, 12, PrimeField(5), 2)]
        for n, r, prime, seed in cases:
            cfg = sample_points(n, r, prime, seed)
            d = CaseParams(n, r).d
            fresh = kernel_basis(evaluation_matrix(cfg, d))
            kept = ideal_component(cfg, d)
            assert (kept.n, kept.degree) == (n, d)
            assert kept.vectors.array.dtype == fresh.array.dtype
            assert np.array_equal(kept.vectors.array, fresh.array)
            # a configuration built from the same points computes it afresh
            direct = PointConfig(n, r, cfg.coords, prime, seed, retries=cfg.retries)
            assert direct == cfg
            assert np.array_equal(ideal_component(direct, d).vectors.array, fresh.array)

    def test_kept_basis_is_not_an_argument(self):
        cfg = sample_points(2, 18, P, SEED)
        with pytest.raises(TypeError):
            PointConfig(2, 18, cfg.coords, P, SEED, _components={5: ideal_component(cfg, 5)})

    def test_each_component_is_eliminated_once(self, monkeypatch):
        calls = []
        kernels = pointideals._kernels

        def counted(arrays, p):
            calls.extend(a.shape for a in arrays)
            return kernels(arrays, p)

        monkeypatch.setattr(pointideals, "_kernels", counted)
        for n, r in ((2, 18), (3, 30), (4, 20)):
            calls.clear()
            cfg = sample_points(n, r, P, SEED)
            d = CaseParams(n, r).d
            assert cfg.retries == 0
            # the draw's genericity check takes the one degree-d kernel;
            # neither a second check nor the component asks for it again
            assert is_generic(cfg)
            assert ideal_component(cfg, d) is ideal_component(cfg, d)
            assert calls == [(r, hs(n, d))]
            # another degree is eliminated once, then kept too
            assert ideal_component(cfg, d + 1) is ideal_component(cfg, d + 1)
            assert calls == [(r, hs(n, d)), (r, hs(n, d + 1))]

    def test_components_vanish_on_points(self):
        cfg = sample_points(3, 7, P, 9)
        basis = ideal_component(cfg, 3)
        prod = matmul(evaluation_matrix(cfg, 3), basis.vectors)
        assert not prod.array.any()


def direct_full_rank_below(coords, prime, d):
    n = coords.shape[1] - 1
    return rank(ModMatrix(prime, evaluation_array(coords, d - 1, prime.p))) == hs(n, d - 1)


def points_on_hyperplanes(rng, r, n, p, count):
    """r points, none with a zero coordinate, spread over ``count`` random
    hyperplanes, so on the degree-``count`` hypersurface of their union."""
    planes = rng.integers(1, p, size=(count, n + 1))
    rows = []
    while len(rows) < r:
        c = planes[len(rows) % count]
        x = rng.integers(1, p, size=n + 1)
        lead = pow(int(c[0]), -1, p)
        x[0] = -sum(int(a) * int(b) for a, b in zip(c[1:], x[1:])) * lead % p
        if x[0]:
            rows.append(x)
    return np.array(rows, dtype=np.int64)


class TestDegreeBelowFromKernel:
    """The degree-(d-1) genericity condition read off the degree-d kernel
    agrees with the rank of the degree-(d-1) evaluation matrix."""

    def test_agrees_with_direct_rank(self):
        rng = np.random.default_rng(SEED)
        seen = {"full": 0, "deficient": 0, "fallback": 0, "hypersurface": 0}
        for p in (5, 7, 11, 101, 2147483647):
            prime = PrimeField(p)
            for n in (2, 3, 4):
                for r in rng.integers(n + 2, 3 * hs(n, 2), size=12):
                    d = CaseParams(n, int(r)).d
                    uniform = rng.integers(0, p, size=(r, n + 1))
                    # every variable vanishes at some point: the fallback
                    fallback = rng.integers(1, p, size=(r, n + 1))
                    fallback[np.arange(n + 1), np.arange(n + 1)] = 0
                    on_surface = points_on_hyperplanes(rng, r, n, p, d - 1)
                    for kind, coords in (("uniform", uniform), ("fallback", fallback),
                                         ("hypersurface", on_surface)):
                        kernel = kernel_basis(ModMatrix(prime, evaluation_array(coords, d, p)))
                        got = _full_rank_below(coords, prime, d, kernel)
                        assert got == direct_full_rank_below(coords, prime, d), (p, n, r, kind)
                        if kind == "hypersurface":
                            assert not got
                            seen["hypersurface"] += 1
                        elif kind == "fallback":
                            assert not coords.all(axis=0).any()
                            seen["fallback"] += 1
                        elif coords.all(axis=0).any():
                            seen["full" if got else "deficient"] += 1
        assert min(seen.values()) > 0, seen


class TestMacaulayMatrix:
    def test_shift_by_zero_returns_basis(self):
        cfg = sample_points(2, 18, P, SEED)
        basis = ideal_component(cfg, 5)
        assert (macaulay_matrix(basis, 0).array == basis.vectors.array).all()

    def test_frozen_shapes_and_ranks(self):
        cfg = sample_points(2, 18, P, SEED)
        basis = ideal_component(cfg, 5)
        m1 = macaulay_matrix(basis, 1)
        assert m1.shape == (28, 9) and rank(m1) == 9
        m2 = macaulay_matrix(basis, 2)
        assert m2.shape == (36, 18) and rank(m2) == 18

    def test_columns_match_polynomial_multiplication(self):
        cfg = sample_points(2, 7, P, 4)
        basis = ideal_component(cfg, 3)
        mac = macaulay_matrix(basis, 2)
        shifts = monomials(2, 2)
        for j in range(basis.dim):
            for m_idx, shift in enumerate(shifts):
                unit = [0] * len(shifts)
                unit[m_idx] = 1
                want = poly_mul_oracle(
                    2, basis.vectors.array[:, j], 3, unit, 2, P.p
                )
                got = mac.array[:, m_idx * basis.dim + j]
                assert got.tolist() == want

    def test_span_matches_bruteforce_products(self):
        # Rank of the stacked [macaulay | oracle products] equals both
        # individual ranks, so the two column spans coincide.
        cfg = sample_points(2, 7, P, 8)
        basis = ideal_component(cfg, 3)
        mac = macaulay_matrix(basis, 1)
        cols = []
        for j in range(basis.dim):
            for m_idx in range(hs(2, 1)):
                unit = [0] * hs(2, 1)
                unit[m_idx] = 1
                cols.append(poly_mul_oracle(2, basis.vectors.array[:, j], 3, unit, 1, P.p))
        oracle = np.array(cols, dtype=np.int64).T
        stacked = ModMatrix(P, np.hstack([mac.array, oracle]), _trusted=True)
        r_mac = rank(mac)
        assert r_mac == rank(ModMatrix(P, oracle, _trusted=True))
        assert r_mac == rank(stacked)

    def test_complex_builder_splits_into_real_and_imaginary(self):
        # The builder only places coefficients, so on a complex basis it is
        # exactly the builds on the real and imaginary parts recombined.
        rng = np.random.default_rng(2)
        for n, d, e in ((1, 3, 2), (2, 3, 2), (3, 2, 3), (4, 2, 1)):
            coeffs = rng.normal(size=(hs(n, d), 3)) + 1j * rng.normal(size=(hs(n, d), 3))
            whole = macaulay_array(n, d, coeffs, e)
            assert whole.dtype == np.complex128
            parts = (
                macaulay_array(n, d, coeffs.real, e)
                + 1j * macaulay_array(n, d, coeffs.imag, e)
            )
            assert (whole == parts).all()

    def test_capacity_counts_four_bytes_a_cell(self):
        # with 6 bytes of memory a cell, the int32 build fits and an int64
        # build of the same forms would not
        basis = ideal_component(sample_points(2, 18, P, SEED), 5)
        cells = hs(2, 5 + 3) * hs(2, 3) * basis.dim
        memory = {"SC_PHYS_PAGES": cells, "SC_PAGE_SIZE": 6}
        with mock.patch.object(os, "sysconf", memory.__getitem__):
            assert macaulay_matrix(basis, 3).array.dtype == np.int32
            with pytest.raises(CapacityError, match=str(8 * cells)):
                macaulay_array(2, 5, basis.vectors.array.astype(np.int64), 3)

    def test_basis_change_invariance(self):
        cfg = sample_points(2, 18, P, SEED)
        basis = ideal_component(cfg, 5)
        rng = np.random.default_rng(0)
        u = ModMatrix(P, rng.integers(1, P.p, size=(3, 3), dtype=np.int64))
        changed = GradedBasis(2, 5, matmul(basis.vectors, u))
        for e in (1, 2, 3):
            assert rank(macaulay_matrix(basis, e)) == rank(macaulay_matrix(changed, e))


class TestChoppedHilbertFunction:
    def test_18_points_quotient_sequence(self):
        cfg = sample_points(2, 18, P, SEED)
        # the gap is 2, and the quotient stays at r one degree past it
        assert [chopped_hf(cfg, 5, t) for t in (5, 6, 7, 8)] == [18, 19, 18, 18]

    def test_17_points_gap_one(self):
        cfg = sample_points(2, 17, P, SEED)
        assert [chopped_hf(cfg, 5, t) for t in (6, 7)] == [17, 17]

    def test_41_points_gap_three(self):
        cfg = sample_points(2, 41, P, SEED)
        assert [chopped_hf(cfg, 8, t) for t in (9, 10, 11, 12)] == [43, 42, 41, 41]

    def test_rejects_degrees_below_d(self):
        cfg = sample_points(2, 7, P, 1)
        with pytest.raises(ValueError):
            chopped_hf(cfg, 3, 2)

    def test_quotient_never_below_point_count(self):
        for n, r, seed in ((2, 12, 1), (3, 9, 2), (2, 25, 3)):
            cfg = sample_points(n, r, P, seed)
            d = CaseParams(n, r).d
            for t in range(d, d + 4):
                assert chopped_hf(cfg, d, t) >= r

    def test_complete_intersection_stabilizes_at_degree_power(self):
        # r = hs(n,d) - n generic points: the degree-d component is a
        # regular sequence, so the chopped quotient settles at d^n, not r.
        for n, d, seed in ((2, 3, 1), (2, 4, 2), (3, 2, 3)):
            r = hs(n, d) - n
            cfg = sample_points(n, r, P, seed)
            start = n * (d - 1)
            degrees = [d] * n
            for t in (start, start + 1):
                value = chopped_hf(cfg, d, t)
                assert value == ci_hf(n, degrees, t) == d**n
            # so no degree past d returns to r
            for t in range(d + 1, n * (d - 1) + 2):
                assert chopped_hf(cfg, d, t) != r


def reference_profile(config):
    """chopped_profile and its verdict spelled out degree by degree: one
    Macaulay rank per e until the quotient returns to r or the default
    horizon runs out.  Returns the observed values, gap, verdict and first
    mismatch degree, as a certificate states them."""
    params = CaseParams(config.n, config.r)
    prediction = predicted_gap(params)
    basis = ideal_component(config, params.d)
    values = [hs(config.n, t) for t in range(params.d)]
    values.append(hs(config.n, params.d) - basis.dim)
    gap = None
    for e in range(1, max(prediction.bound, prediction.gap) + 3):
        values.append(hs(config.n, params.d + e) - rank(macaulay_matrix(basis, e)))
        if values[-1] == config.r:
            gap = e
            break
    mismatch = next(
        (t for t, v in enumerate(values) if v != prediction.table.value_at(t)),
        None if gap is not None else len(values),
    )
    verdict = "PASS" if mismatch is None else "FAIL"
    return tuple(values), gap, verdict, mismatch


def certify(config):
    """The certificate ``verify`` makes of a sampled configuration, whose
    verdict judges ``chopped_profile``'s scan at the default horizon."""
    case = (config.n, config.r, config.seed)
    return _certificates([case], [config], None, config.prime.p)[0]


# (n, r, seed, p): configurations of one n and d grouped by prime, and of
# n = 2 and n = 3 with the primes interleaved, no two neighbours of one key
SEVERAL_PRIMES = {
    "grouped": [(2, r, seed, p) for p in (11, 13, P.p) for r, seed in ((16, 1), (18, 2))],
    "interleaved": [case for pair in zip(
        [(2, r, seed, p) for r, seed in ((16, 1), (18, 2)) for p in (11, 13, P.p)],
        [(3, r, seed, p) for p in (13, P.p, 11) for r, seed in ((14, 1), (16, 2))])
        for case in pair],
}


class TestChoppedProfile:
    def test_graded_elimination_matches_degree_by_degree_scan(self):
        past_prediction = 0
        for p in (7, 11, 101, P.p):
            for n, r_max in ((2, 60), (3, 40)):
                for r in range(1, r_max + 1):
                    params = CaseParams(n, r)
                    if r >= hs(n, params.d) - n:
                        continue
                    for seed in range(3):
                        try:
                            cfg = sample_points(n, r, PrimeField(p), seed)
                        except GenericityError:
                            continue
                        cert = certify(cfg)
                        got = (cert.observed_quotient, cert.observed_gap,
                               cert.verdict, cert.first_mismatch_degree)
                        assert got == reference_profile(cfg), (p, n, r, seed)
                        if cert.observed_gap != cert.expected_gap:
                            past_prediction += 1
        # FAILs whose quotient has not returned to r by the predicted gap,
        # which take the second elimination at e_max
        assert past_prediction > 0

    def test_match_for_18_points(self):
        cert = certify(sample_points(2, 18, P, SEED))
        assert cert.verdict == "PASS"
        assert cert.observed_gap == 2
        assert cert.first_mismatch_degree is None
        assert cert.observed_quotient == cert.expected_quotient
        assert cert.observed_quotient[5:] == (18, 19, 18)

    def test_match_for_16_points_in_p3(self):
        cert = certify(sample_points(3, 16, P, SEED))
        assert cert.verdict == "PASS" and cert.observed_gap == 2

    def test_observed_gap_agrees_with_prediction(self):
        for n, r, seed in ((2, 17, 1), (2, 22, 2), (2, 41, 3), (3, 30, 4)):
            cert = certify(sample_points(n, r, P, seed))
            assert cert.verdict == "PASS"
            assert cert.observed_gap == predicted_gap(CaseParams(n, r)).gap

    def test_lex_lower_bound_respected(self):
        for n, r, seed in ((2, 18, 1), (2, 41, 2), (3, 16, 3)):
            prof = chopped_profile(sample_points(n, r, P, seed))
            horizon = len(prof.observed.values) - 1
            bound = lex_lower_bound_table(CaseParams(n, r), horizon)
            cmp = lex_compare_hf(prof.observed, bound)
            assert cmp in (LexOrder.GREATER_EQUAL, LexOrder.EQUAL)

    @pytest.mark.parametrize("batch_bytes", [pointideals.BATCH_BYTES, 1],
                             ids=["real-budget", "one-byte-budget"])
    @pytest.mark.parametrize("order", ["grouped", "interleaved"])
    def test_one_batch_over_several_primes_matches_each_alone(self, order, batch_bytes,
                                                              monkeypatch):
        # configurations over three primes scan in one call; each Macaulay
        # matrix is eliminated mod its own prime (at p = 11 the first one's
        # quotient never returns to r when taken mod 2^31 - 1), and each
        # result comes back to its own configuration, also when neighbours
        # never share a batch
        monkeypatch.setattr(pointideals, "BATCH_BYTES", batch_bytes)
        configs = [sample_points(n, r, PrimeField(p), seed)
                   for n, r, seed, p in SEVERAL_PRIMES[order]]
        together = pointideals.chopped_profiles(configs)
        assert together == [chopped_profile(cfg) for cfg in configs]

    def test_horizon_below_gap_rejected(self):
        cfg = sample_points(2, 18, P, SEED)
        with pytest.raises(ValueError):
            chopped_profile(cfg, e_max=1)

    def test_graded_elimination_peaks_near_two_int32_matrices(self):
        # the elimination builds the int32 matrix a block of shifts at a
        # time, so the peak is one block of at most BATCH_BYTES, the float64
        # temporaries of its products and the multipliers kept for later
        # blocks: 0.55x the whole matrix's int32 bytes at (3,161) (1771 x
        # 1820) and 0.19x at (4,121) (3876 x 5005), where the whole-matrix
        # scan peaked at 1.46x and 1.34x.  Holding the whole matrix anywhere
        # on the path adds 1x
        for n, r, bound in ((3, 161, 0.75), (4, 121, 0.3)):
            cfg = sample_points(n, r, P, SEED)
            params = CaseParams(n, r)
            mac = macaulay_matrix(ideal_component(cfg, params.d), predicted_gap(params).gap)
            assert mac.array.dtype == np.int32
            matrix_bytes = mac.array.nbytes
            del mac
            tracemalloc.start()
            try:
                prof = chopped_profile(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert prof.observed.values == predicted_gap(params).table.values
            assert peak < bound * matrix_bytes, (n, r, peak / matrix_bytes)


class TestStaircase:
    # the Macaulay matrix as built, the matrix _graded_quotients eliminates,
    # keyed by the x_0-exponent of each column's shift
    CASES = [(2, 41, 3), (2, 290, 1), (3, 30, 4), (3, 100, 2), (4, 60, 5)]

    @staticmethod
    def built(n, r, seed):
        basis = ideal_component(sample_points(n, r, P, seed), CaseParams(n, r).d)
        top = predicted_gap(CaseParams(n, r)).gap
        key = np.repeat([m[0] for m in monomials(n, top)], basis.dim)
        return basis, top, key

    @pytest.mark.parametrize("n, r, seed", CASES)
    def test_each_column_lives_in_its_top_block(self, n, r, seed):
        # a column whose shift has x_0-exponent k is x_0^k times a column of
        # M_(G-k), so it lives in the hs(n, d+G-k) rows divisible by x_0^k
        basis, top, key = self.built(n, r, seed)
        a = macaulay_matrix(basis, top).array
        rows = np.arange(1, a.shape[0] + 1)[:, None]
        last = np.where(a != 0, rows, 0).max(axis=0)  # last nonzero row, 1-based
        block = np.array([hs(n, basis.degree + top - k) for k in key])
        assert (np.diff(key) <= 0).all()
        assert (last <= block).all()
        assert (last == block).any()

    @pytest.mark.parametrize("n, r, seed", CASES)
    def test_column_prefix_has_the_rank_of_the_lower_matrix(self, n, r, seed):
        # the first g * hs(n,e) columns of M_G are x_0^(G-e) times the
        # columns of M_e, so _graded_quotients counts pivots before them
        basis, top, key = self.built(n, r, seed)
        columns = macaulay_matrix(basis, top).array
        for e in range(1, top + 1):
            prefix = columns[:, :basis.dim * hs(n, e)]
            assert (key[:prefix.shape[1]] >= top - e).all()
            assert rank(ModMatrix(P, prefix, _trusted=True)) == rank(macaulay_matrix(basis, e))

    @pytest.mark.parametrize("n, r, seed", CASES)
    def test_row_sort_keeps_pivots_and_quotients(self, n, r, seed):
        # the staircase's row order only saves work: the rows in any other
        # order give the same pivots, and the pivots give the quotients
        basis, top, key = self.built(n, r, seed)
        mac = macaulay_matrix(basis, top).array
        piv = _echelon(mac.copy(), P.p)
        shuffled = np.random.default_rng(seed).permutation(mac.shape[0])
        assert _echelon(mac[shuffled], P.p) == piv
        quotients = [hs(n, basis.degree + e) - int((key[piv] >= top - e).sum())
                     for e in range(1, top + 1)]
        assert _graded_quotients(basis, top) == quotients
