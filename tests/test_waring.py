"""Tests for numerical Waring decomposition.

The catalecticant is checked against a direct differentiation oracle
coded here with exact integer factorials.  Decomposition quality is
measured by round-tripping forms built from known points and matching
the output back with optimal assignment.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chopshop.formulas import CaseParams, expected_gap_and_table, predicted_gap
from chopshop.grading import hs, monomials
from chopshop import waring
from chopshop.pointideals import macaulay_array
from chopshop.waring import (
    AmbiguousRankError,
    DecompositionError,
    SymmetricForm,
    UnsupportedRankError,
    WaringError,
    catalecticant,
    decompose,
    form_from_dict,
    form_from_points,
    form_to_dict,
    numerical_kernel,
    random_unit_points,
    recovery_error,
    result_to_dict,
)


def catalecticant_oracle(form, a):
    """Differentiate monomial by monomial with exact integer factorials."""
    n, D = form.n, form.D
    rows = monomials(n, D - a)
    cols = monomials(n, a)
    out = np.zeros((len(rows), len(cols)), dtype=np.complex128)
    row_pos = {m: i for i, m in enumerate(rows)}
    for j, alpha in enumerate(cols):
        for beta_full, coeff in zip(monomials(n, D), form.coeffs):
            if coeff == 0:
                continue
            if any(b < al for b, al in zip(beta_full, alpha)):
                continue
            remainder = tuple(b - al for b, al in zip(beta_full, alpha))
            weight = 1
            for b, rem in zip(beta_full, remainder):
                weight *= math.factorial(b) // math.factorial(rem)
            out[row_pos[remainder], j] += coeff * weight
    return out


def reference_kernel(mat, tol=1e-8):
    """Null space by a plain full SVD: the right singular vectors past the
    count of singular values above tol relative to the largest."""
    arr = np.atleast_2d(np.asarray(mat, dtype=np.complex128))
    _, sigma, vh = np.linalg.svd(arr, full_matrices=True)
    rank = int(np.count_nonzero(sigma > tol * sigma[0])) if sigma.size else 0
    return vh[rank:, :].conj().T, rank


def min_principal_cosine(a, b):
    """Cosine of the largest principal angle between two orthonormal bases
    of equal dimension: 1 when they span the same subspace."""
    assert a.shape == b.shape
    if a.shape[1] == 0:
        return 1.0
    return float(np.linalg.svd(a.conj().T @ b, compute_uv=False).min())


def planted_rank(rng, rows, cols, k):
    left = rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))
    right = rng.standard_normal((k, cols)) + 1j * rng.standard_normal((k, cols))
    return left @ right


def random_form(n, D, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(hs(n, D)) + 1j * rng.standard_normal(hs(n, D))
    return SymmetricForm(n, D, coeffs)


class TestFormFromPoints:
    def test_single_point_is_pure_power(self):
        Z = np.zeros((1, 3), dtype=complex)
        Z[0, 0] = 1.0
        form = form_from_points(Z, [1.0], 6)
        expected = np.zeros(hs(2, 6), dtype=complex)
        expected[0] = 1.0  # grevlex puts y0^6 first
        assert np.allclose(form.coeffs, expected)

    def test_antipodal_cancellation_even_degree(self):
        Z = random_unit_points(2, 1, seed=11)
        pair = np.vstack([Z, -Z])
        form = form_from_points(pair, [1.0, -1.0], 8)
        assert np.allclose(form.coeffs, 0)

    def test_rejects_zero_row(self):
        with pytest.raises(ValueError):
            form_from_points(np.zeros((2, 3)), [1, 1], 4)

    def test_flagship_catalecticant_rank(self):
        Z = random_unit_points(2, 18, seed=0)
        form = form_from_points(Z, np.ones(18), 10)
        cat = catalecticant(form, 5)
        assert cat.shape == (21, 21)
        _, rank_found, gap = numerical_kernel(cat)
        assert rank_found == 18
        assert gap > 1e6


class TestCatalecticant:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_matches_differentiation_oracle(self, seed):
        form = random_form(2, 6, seed)
        for a in (0, 2, 3, 5):
            assert np.allclose(catalecticant(form, a), catalecticant_oracle(form, a))

    def test_pure_power_rank_one(self):
        coeffs = np.zeros(hs(2, 7), dtype=complex)
        coeffs[0] = 1.0
        form = SymmetricForm(2, 7, coeffs)
        for a in (1, 3, 5):
            assert np.linalg.matrix_rank(catalecticant(form, a)) == 1

    def test_degree_zero_column(self):
        form = random_form(2, 4, seed=9)
        cat = catalecticant(form, 0)
        assert cat.shape == (hs(2, 4), 1)
        assert np.allclose(cat[:, 0], form.coeffs)
        assert np.linalg.matrix_rank(cat) == 1

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_adjoint_symmetry(self, seed):
        form = random_form(2, 8, seed)
        a = 3
        lower = np.array(
            [math.prod(math.factorial(b) for b in m) for m in monomials(2, form.D - a)],
            dtype=float,
        )
        upper = np.array(
            [math.prod(math.factorial(b) for b in m) for m in monomials(2, a)],
            dtype=float,
        )
        left = lower[:, None] * catalecticant(form, a)
        right = upper[:, None] * catalecticant(form, form.D - a)
        assert np.allclose(left, right.T, rtol=1e-10)


class TestNumericalKernel:
    def test_identity_has_empty_kernel(self):
        basis, rank_found, gap = numerical_kernel(np.eye(5))
        assert basis.shape == (5, 0)
        assert rank_found == 5
        assert math.isinf(gap)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_planted_rank(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        left = rng.standard_normal((8, k)) + 1j * rng.standard_normal((8, k))
        right = rng.standard_normal((k, 7)) + 1j * rng.standard_normal((k, 7))
        mat = left @ right
        basis, rank_found, gap = numerical_kernel(mat)
        assert rank_found == k
        assert basis.shape == (7, 7 - k)
        assert gap > 1e6
        assert np.allclose(mat @ basis, 0, atol=1e-10)
        assert np.allclose(basis.conj().T @ basis, np.eye(7 - k), atol=1e-12)

    # tall (fewer reflectors than rows), wide and square, each at a rank
    # below both dimensions and at full rank
    @pytest.mark.parametrize("rows, cols, k", [
        (9, 6, 3), (9, 6, 6), (5, 9, 2), (5, 9, 5), (7, 7, 4), (7, 7, 7),
    ])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_kernel(self, rows, cols, k, seed):
        mat = planted_rank(np.random.default_rng(seed), rows, cols, k)
        expected, expected_rank = reference_kernel(mat)
        basis, rank_found, _ = numerical_kernel(mat)
        assert rank_found == expected_rank == k
        assert basis.shape == expected.shape == (cols, cols - k)
        assert min_principal_cosine(basis, expected) >= 1 - 1e-10
        assert np.allclose(basis.conj().T @ basis, np.eye(cols - k), atol=1e-12)

    @pytest.mark.parametrize("rows, cols, k", [(9, 6, 3), (5, 9, 2), (7, 7, 4)])
    def test_rank_hint_matches_reference_kernel(self, rows, cols, k):
        mat = planted_rank(np.random.default_rng(rows * cols + k), rows, cols, k)
        expected, _ = reference_kernel(mat)
        basis, rank_found, gap = numerical_kernel(mat, rank_hint=k)
        assert rank_found == k
        assert gap > 1e6
        assert min_principal_cosine(basis, expected) >= 1 - 1e-10
        with pytest.raises(ValueError, match="rank_hint"):
            numerical_kernel(mat, rank_hint=min(rows, cols) + 1)

    def test_ambiguous_rotated_diagonal_raises(self):
        # orthogonal rows of norms 1, 2e-8 and 0.9e-8 in a random unitary
        # frame: |diag(R)| reads those norms, only a factor 2.2 apart
        # across the cutoff
        rng = np.random.default_rng(3)
        frame, _ = np.linalg.qr(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        )
        mat = np.diag([1.0, 2e-8, 0.9e-8]) @ frame
        with pytest.raises(AmbiguousRankError, match="R-diagonal"):
            numerical_kernel(mat, tol=1e-8)
        # a hint takes the cutoff as given and still reports the gap there
        basis, rank_found, gap = numerical_kernel(mat, rank_hint=2)
        assert rank_found == 2 and 2 < gap < 3
        assert basis.shape == (3, 1)

    def test_macaulay_cokernel_matches_reference(self):
        Z = random_unit_points(3, 50, seed=4)
        form = form_from_points(Z, np.ones(50), 10)
        d, e = waring._working_parameters(3, 50, 10)
        kernel, _, _ = numerical_kernel(catalecticant(form, d), rank_hint=50)
        macaulay = macaulay_array(3, d, kernel, e)
        expected, expected_rank = reference_kernel(macaulay.T)
        cokernel, rank_found, _ = numerical_kernel(macaulay.T)
        assert rank_found == expected_rank
        assert cokernel.shape == expected.shape == (hs(3, d + e), 50)
        assert min_principal_cosine(cokernel, expected) >= 1 - 1e-10

    def test_rank_hint_overrides(self):
        mat = np.diag([1.0, 1e-3, 1e-12])
        basis, rank_found, _ = numerical_kernel(mat, rank_hint=1)
        assert rank_found == 1
        assert basis.shape == (3, 2)

    def test_ambiguous_spectrum_raises(self):
        # 2e-8 sits above the cutoff and 0.9e-8 below, only a factor 2.2 apart
        mat = np.diag([1.0, 2e-8, 0.9e-8])
        with pytest.raises(AmbiguousRankError):
            numerical_kernel(mat, tol=1e-8)

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            numerical_kernel(np.eye(2), tol=2.0)

    @pytest.mark.parametrize("rows, cols", [(0, 3), (2, 0)])
    def test_empty_matrix_has_the_whole_space_as_kernel(self, rows, cols):
        # LAPACK rejects a geqp3 with no rows, so these never reach it
        basis, rank_found, gap = numerical_kernel(np.zeros((rows, cols)))
        assert rank_found == 0 and math.isinf(gap)
        assert np.array_equal(basis, np.eye(cols))

    @pytest.mark.parametrize("given", [
        lambda mat: mat.copy(),  # row-major: spent only when allowed
        lambda mat: np.asfortranarray(mat),  # its transpose is row-major
        lambda mat: mat.real.copy(),  # converted to complex first
    ])
    def test_argument_unchanged_unless_it_may_be_overwritten(self, given):
        mat = planted_rank(np.random.default_rng(5), 7, 9, 4)
        arg = given(mat)
        before = arg.copy()
        expected = numerical_kernel(arg)
        assert np.array_equal(arg, before)
        found = numerical_kernel(arg, overwrite_a=True)
        if arg.dtype == np.complex128 and arg.flags.c_contiguous:
            assert not np.array_equal(arg, before)  # it holds the factor now
        else:
            assert np.array_equal(arg, before)  # no buffer to factor in place
        assert found[0].tobytes() == expected[0].tobytes()
        assert found[1:] == expected[1:]


class TestPivotedQR:
    # waring._pivoted_qr runs geqp3 in place; scipy.linalg.qr runs the same
    # routine, with the same workspace, on a copy
    @pytest.mark.parametrize("rows, cols, k", [(9, 6, 3), (5, 9, 2), (7, 7, 4)])
    def test_matches_scipy_bit_for_bit(self, rows, cols, k):
        import scipy.linalg

        mat = planted_rank(np.random.default_rng(rows * cols + k), rows, cols, k)
        (expected, expected_tau), _, expected_pivots = scipy.linalg.qr(
            mat, pivoting=True, mode="raw"
        )
        buffer = np.array(mat, order="F")
        factor, tau, pivots = waring._pivoted_qr(buffer)
        assert np.shares_memory(factor, buffer)
        assert factor.tobytes() == expected.tobytes()
        assert tau.tobytes() == expected_tau.tobytes()
        assert pivots.dtype == expected_pivots.dtype
        assert np.array_equal(pivots, expected_pivots)

    def test_needs_a_finite_fortran_ordered_array(self):
        with pytest.raises(ValueError, match="Fortran"):
            waring._pivoted_qr(np.ones((3, 2), dtype=np.complex128))
        with pytest.raises(ValueError, match="finite"):
            waring._pivoted_qr(np.full((3, 2), np.nan, dtype=np.complex128, order="F"))


class TestApolarity:
    def test_kernel_vectors_annihilate(self):
        Z = random_unit_points(2, 18, seed=5)
        form = form_from_points(Z, np.ones(18), 10)
        kernel, _, _ = numerical_kernel(catalecticant(form, 5), rank_hint=18)
        assert kernel.shape[1] == 3
        # the kernel's orthonormal columns differentiate the form to zero
        image = catalecticant(form, 5) @ kernel
        assert np.linalg.norm(image) <= 1e-8 * form.norm


def gap_at_oracle(n, d, r):
    """Least e > 0 where the syzygy count of the chopped ideal's dimension,
    sum over k >= 1 of (-1)^(k+1) hs(n, t-kd) C(g, k) with g = hs(n,d) - r
    generators, reaches hs(n, d+e) - r."""
    g = hs(n, d) - r
    e = 1
    while True:
        t = d + e
        dim = sum(
            (-1) ** (k + 1) * hs(n, t - k * d) * math.comb(g, k)
            for k in range(1, t // d + 1)
        )
        if hs(n, t) - r <= dim:
            return e
        e += 1


class TestGapAtDegree:
    def test_matches_minimal_degree_prediction(self):
        for n in (2, 3, 4):
            for r in range(n + 2, 140):
                params = CaseParams(n, r)
                d = params.d
                if r >= hs(n, d) - n:
                    continue
                gap, table = expected_gap_and_table(n, d, r)
                assert gap == predicted_gap(params).gap
                assert table == predicted_gap(params).table.values

    def test_non_minimal_working_degrees(self):
        # Every admissible r at every d, most of them far below the least
        # degree of their points' ideal, as decompose's working degrees are.
        for n in (1, 2, 3, 4):
            for d in range(1, 9):
                for r in range(1, hs(n, d) - n):
                    gap, table = expected_gap_and_table(n, d, r)
                    assert gap == gap_at_oracle(n, d, r), (n, d, r)
                    assert len(table) == d + gap + 1
                    assert table[d] == table[-1] == r
                    assert all(v > r for v in table[d + 1:-1])


def coefficient_condition(points, D):
    """Condition number of the system the coefficients of a degree-D
    decomposition solve at the given points: one column per point, its
    multinomial-weighted degree-D monomial values."""
    exps = np.array(monomials(points.shape[1] - 1, D))
    weights = np.array([
        math.factorial(D) / math.prod(math.factorial(b) for b in e) for e in exps
    ])
    values = np.prod(points[:, None, :] ** exps[None, :, :], axis=2)
    return float(np.linalg.cond((weights * values).T))


def roundtrip_case(n, D, r, seed, decompose_seed=0):
    Z = random_unit_points(n, r, seed)
    c = np.ones(r)
    form = form_from_points(Z, c, D)
    result = decompose(form, r, seed=decompose_seed)
    point_err, coeff_err = recovery_error(
        Z, c, result.points, result.coefficients, D
    )
    return result, point_err, coeff_err


class TestDecompose:
    def test_flagship_case(self):
        result, point_err, coeff_err = roundtrip_case(2, 10, 18, seed=3)
        assert result.residual <= 1e-8
        assert point_err <= 1e-6
        assert coeff_err <= 1e-6
        assert result.diagnostics["macaulay_degree"] == 7
        assert result.diagnostics["catalecticant_rank"] == 18
        assert result.diagnostics["kernel_dim"] == 3

    def test_single_point_exact(self):
        for D in (2, 3, 6):
            result, point_err, coeff_err = roundtrip_case(2, D, 1, seed=4)
            assert result.residual <= 1e-12
            assert point_err <= 1e-10
            assert coeff_err <= 1e-10

    def test_conic_intersection_boundary(self):
        # four points cut out by two conics: the r = hs - (n+1) + 1 edge
        result, point_err, coeff_err = roundtrip_case(2, 4, 4, seed=6)
        assert result.residual <= 1e-10
        assert point_err <= 1e-8
        assert result.diagnostics["macaulay_degree"] == 3

    def test_cubic_case_gap_one(self):
        result, point_err, _ = roundtrip_case(2, 6, 7, seed=8)
        assert result.residual <= 1e-8
        assert point_err <= 1e-6
        assert result.diagnostics["macaulay_degree"] == 4

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    @example(206)  # two of its 12 points lie 0.003 apart: kappa 2.9e3
    def test_random_roundtrips(self, seed):
        result, point_err, coeff_err = roundtrip_case(2, 8, 12, seed=seed)
        assert result.residual <= 1e-8
        assert point_err <= 1e-6
        # the coefficients solve a least-squares system at the points, so a
        # draw with nearly coincident points may lose the digits its
        # condition number costs; typical draws have kappa 5-30
        kappa = coefficient_condition(random_unit_points(2, 12, seed), 8)
        assert coeff_err <= 1e-6 * max(1.0, kappa / 100)

    def test_commutation_residue_small(self):
        result, _, _ = roundtrip_case(3, 8, 25, seed=12)
        scale = max(1.0, float(np.abs(result.points).max()))
        assert result.diagnostics["eigen_offdiag_max"] <= 1e-6 * scale

    def test_deterministic_for_fixed_seed(self):
        Z = random_unit_points(2, 10, seed=21)
        form = form_from_points(Z, np.ones(10), 8)
        first = decompose(form, 10, seed=5)
        second = decompose(form, 10, seed=5)
        assert np.array_equal(first.points, second.points)
        assert np.array_equal(first.coefficients, second.coefficients)
        assert first.residual == second.residual

    def test_scale_and_permutation_invariance(self):
        rng = np.random.default_rng(31)
        Z = random_unit_points(2, 9, seed=13)
        c = np.ones(9, dtype=complex)
        scales = np.exp(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        perm = rng.permutation(9)
        Z_alt = (scales[:, None] * Z)[perm]
        c_alt = (c * scales**-8.0)[perm]
        base = decompose(form_from_points(Z, c, 8), 9, seed=2)
        alt = decompose(form_from_points(Z_alt, c_alt, 8), 9, seed=2)
        point_err, coeff_err = recovery_error(
            base.points, base.coefficients, alt.points, alt.coefficients, 8
        )
        assert point_err <= 1e-8
        assert coeff_err <= 1e-8

    def test_unsupported_rank(self):
        Z = random_unit_points(2, 30, seed=1)
        form = form_from_points(Z, np.ones(30), 10)
        with pytest.raises(UnsupportedRankError):
            decompose(form, 30)

    def test_zero_form_rejected(self):
        form = SymmetricForm(2, 10, np.zeros(hs(2, 10)))
        with pytest.raises(ValueError, match="zero form"):
            decompose(form, 18)

    def test_wrong_rank_fails_loudly(self):
        Z = random_unit_points(2, 18, seed=9)
        form = form_from_points(Z, np.ones(18), 10)
        with pytest.raises(WaringError):
            decompose(form, 17, seed=1)

    def test_cokernel_failure_reports_quotient_table(self):
        # r one below the form's true rank 50: the forms past the true
        # kernel cut the quotient below r at the working degree d+e
        Z = random_unit_points(3, 50, seed=0)
        form = form_from_points(Z, np.ones(50), 10)
        d, e = waring._working_parameters(3, 49, 10)
        with pytest.raises(DecompositionError) as exc:
            decompose(form, 49, seed=0)
        diag = exc.value.diagnostics
        expected = list(expected_gap_and_table(3, d, 49)[1][d + 1:])
        assert diag["expected_quotient"] == expected
        assert len(diag["numerical_quotient"]) == len(expected) == e
        assert diag["numerical_quotient"][:-1] == expected[:-1]
        assert diag["numerical_quotient"][-1] < 49
        message = str(exc.value)
        assert f"cokernel dimension {diag['numerical_quotient'][-1]}, expected 49" in message
        assert f"degrees {d + 1}..{d + e} are {diag['numerical_quotient']}" in message
        assert f"expected {expected}" in message

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e308, 1e200])
    def test_non_finite_catalecticant_rejected(self, value):
        # 1e308 overflows in the catalecticant's weights, 1e200 in its row
        # norms; neither may reach the equilibration or the QR
        form = form_from_points(random_unit_points(2, 7, seed=1), np.ones(7), 6)
        coeffs = form.coeffs.copy()
        coeffs[0] = value
        with pytest.raises(ValueError, match="catalecticant"):
            decompose(SymmetricForm(2, 6, coeffs), 7)

    def test_cokernel_peaks_near_one_macaulay_matrix(self):
        # at (3,12,80) the Macaulay matrix at d+e is 680 x 660 complex,
        # 6.85 MiB, and the cokernel is found by factoring it in place: the
        # peak is that buffer, the cokernel basis and LAPACK's workspace,
        # 1.3x.  A conjugated copy, a Fortran copy and an R took it to 4.1x
        import scipy.linalg  # noqa: F401  (decompose imports it on first use)

        n, D, r = 3, 12, 80
        form = form_from_points(random_unit_points(n, r, seed=0), np.ones(r), D)
        d, e = waring._working_parameters(n, r, D)
        matrix_bytes = hs(n, d + e) * hs(n, e) * (hs(n, d) - r) * 16
        assert matrix_bytes == 680 * 660 * 16
        tracemalloc.start()
        try:
            result = decompose(form, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.residual <= 1e-8
        assert peak < 2 * matrix_bytes

    def test_quotient_table_only_on_failure(self, monkeypatch):
        calls = []
        build = waring.macaulay_array

        def counting(*args, **kwargs):
            calls.append(args[3])
            return build(*args, **kwargs)

        monkeypatch.setattr(waring, "macaulay_array", counting)
        result, _, _ = roundtrip_case(3, 10, 50, seed=0)
        assert "numerical_quotient" not in result.diagnostics
        assert len(calls) == 1

    def test_points_distinct_and_normalized(self):
        result, _, _ = roundtrip_case(2, 10, 18, seed=14)
        norms = np.linalg.norm(result.points, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        gram = np.abs(result.points @ result.points.conj().T)
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 1.0 - 1e-6  # no two rows projectively equal


class TestSerialization:
    def test_form_dict_roundtrip(self):
        form = random_form(2, 5, seed=3)
        data = form_to_dict(form)
        assert data["schema_version"] == 1
        back = form_from_dict(data)
        assert back.n == form.n and back.D == form.D
        assert np.allclose(back.coeffs, form.coeffs)

    def test_form_dict_rejects_bad_schema(self):
        with pytest.raises(ValueError):
            form_from_dict({"schema_version": 99, "n": 2, "D": 2, "terms": []})

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400],
                             ids=["inf", "-inf", "nan", "10**400"])
    def test_form_dict_rejects_non_finite_coefficients(self, part, value):
        terms = [{"exponent": e, "re": 1.0, "im": 0.0} for e in ([2, 0], [1, 1])]
        terms[1][part] = value
        with pytest.raises(ValueError, match=rf"terms\[1\]\.{part} must be finite"):
            form_from_dict({"schema_version": 1, "n": 1, "D": 2, "terms": terms})

    def test_form_dict_rejects_a_repeated_exponent(self):
        # the second term would silently overwrite the first
        terms = [{"exponent": [2, 0], "re": re, "im": 0.0} for re in (1.0, 5.0)]
        with pytest.raises(ValueError, match=r"terms\[1\]\.exponent .* duplicate"):
            form_from_dict({"schema_version": 1, "n": 1, "D": 2, "terms": terms})

    def test_result_dict_keys(self):
        result, _, _ = roundtrip_case(2, 6, 7, seed=2)
        data = result_to_dict(result)
        assert list(data) == ["points", "coefficients", "residual", "diagnostics"]
        assert list(data["diagnostics"]) == [
            "catalecticant_rank",
            "kernel_dim",
            "macaulay_degree",
            "cokernel_condition",
            "eigen_offdiag_max",
        ]
        assert len(data["points"]) == 7
        assert all(set(entry) == {"re", "im"} for row in data["points"] for entry in row)


class TestRecoveryError:
    def test_matches_permuted_rescaled_copy(self):
        rng = np.random.default_rng(17)
        Z = random_unit_points(2, 6, seed=15)
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        scales = np.exp(0.3 * rng.standard_normal(6) + 2j * rng.random(6))
        perm = rng.permutation(6)
        Z_alt = (scales[:, None] * Z)[perm]
        c_alt = (c * scales**-4.0)[perm]
        point_err, coeff_err = recovery_error(Z, c, Z_alt, c_alt, 4)
        assert point_err <= 1e-12
        assert coeff_err <= 1e-12

    def test_detects_genuine_mismatch(self):
        Z = random_unit_points(2, 5, seed=16)
        other = random_unit_points(2, 5, seed=17)
        point_err, _ = recovery_error(Z, np.ones(5), other, np.ones(5), 4)
        assert point_err > 1e-3

    def test_zero_point_row_rejected(self):
        Z = random_unit_points(2, 4, seed=18)
        broken = Z.copy()
        broken[2] = 0
        for a, b in ((Z, broken), (broken, Z)):
            with pytest.raises(ValueError, match="row 2 is zero"):
                recovery_error(a, np.ones(4), b, np.ones(4), 4)
