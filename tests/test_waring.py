"""Tests for numerical Waring decomposition.

The catalecticant is checked against a direct differentiation oracle
coded here with exact integer factorials.  Decomposition quality is
measured by round-tripping forms built from known points and matching
the output back with optimal assignment.
"""

import dataclasses
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chopshop.formulas import CaseParams, admissible, expected_gap_and_table, predicted_gap
from chopshop.grading import hs, monomials
from chopshop import cli, waring
from chopshop.modlinalg import _live_rows
from chopshop.pointideals import evaluation_array, macaulay_array
from chopshop.waring import (
    AmbiguousRankError,
    DecompositionError,
    Staircase,
    SymmetricForm,
    UnsupportedRankError,
    WaringError,
    catalecticant,
    cokernel_quotients,
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


def kernel_of(mat, *args, **kwargs):
    """numerical_kernel of mat, handed mat^H as a one-block staircase."""
    return numerical_kernel(stairs_of(mat, [len(mat)]), *args, **kwargs)


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
        expected[0] = 1.0  # lex puts y0^6 first
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
        _, rank_found, gap = kernel_of(cat)
        assert rank_found == [18]
        assert gap > 1e6


class TestCatalecticant:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_matches_differentiation_oracle(self, seed):
        form = random_form(2, 6, seed)
        for a in (0, 2, 3, 5):
            assert np.allclose(catalecticant(form, a), catalecticant_oracle(form, a))

    def test_exact_while_the_weights_are_exact(self):
        # every weight (alpha+beta)!/beta! divides 12! < 2^53, and the
        # coefficients are small Gaussian integers, so both sides are exact
        rng = np.random.default_rng(5)
        size = hs(3, 12)
        coeffs = rng.integers(-9, 10, size) + 1j * rng.integers(-9, 10, size)
        form = SymmetricForm(3, 12, coeffs)
        for a in (0, 1, 4, 6, 11):
            cat = catalecticant(form, a)
            assert cat.flags.c_contiguous
            assert np.array_equal(cat, catalecticant_oracle(form, a)), a

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
        basis, rank_found, gap = kernel_of(np.eye(5))
        assert basis.shape == (5, 0)
        assert rank_found == [5]
        assert math.isinf(gap)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_planted_rank(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        left = rng.standard_normal((8, k)) + 1j * rng.standard_normal((8, k))
        right = rng.standard_normal((k, 7)) + 1j * rng.standard_normal((k, 7))
        mat = left @ right
        basis, rank_found, gap = kernel_of(mat)
        assert rank_found == [k]
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
        basis, rank_found, _ = kernel_of(mat)
        assert rank_found == [expected_rank] == [k]
        assert basis.shape == expected.shape == (cols, cols - k)
        assert min_principal_cosine(basis, expected) >= 1 - 1e-10
        assert np.allclose(basis.conj().T @ basis, np.eye(cols - k), atol=1e-12)

    @pytest.mark.parametrize("rows, cols, k", [(9, 6, 3), (5, 9, 2), (7, 7, 4)])
    def test_rank_hint_matches_reference_kernel(self, rows, cols, k):
        mat = planted_rank(np.random.default_rng(rows * cols + k), rows, cols, k)
        expected, _ = reference_kernel(mat)
        basis, rank_found, gap = kernel_of(mat, rank_hint=k)
        assert rank_found == [k]
        assert gap > 1e6
        assert min_principal_cosine(basis, expected) >= 1 - 1e-10
        with pytest.raises(ValueError, match="rank_hint"):
            kernel_of(mat, rank_hint=min(rows, cols) + 1)

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
            kernel_of(mat, tol=1e-8)
        # a hint takes the cutoff as given and still reports the gap there
        basis, rank_found, gap = kernel_of(mat, rank_hint=2)
        assert rank_found == [2] and 2 < gap < 3
        assert basis.shape == (3, 1)

    def test_macaulay_cokernel_matches_reference(self):
        Z = random_unit_points(3, 50, seed=4)
        form = form_from_points(Z, np.ones(50), 10)
        d, e = waring._working_parameters(3, 50, 10)
        kernel, _, _ = kernel_of(catalecticant(form, d), rank_hint=50)
        macaulay = macaulay_array(3, d, kernel, e)
        expected, expected_rank = reference_kernel(macaulay.T)
        cokernel, rank_found, _ = kernel_of(macaulay.T)
        assert rank_found == [expected_rank]
        assert cokernel.shape == expected.shape == (hs(3, d + e), 50)
        assert min_principal_cosine(cokernel, expected) >= 1 - 1e-10

    def test_rank_hint_overrides(self):
        mat = np.diag([1.0, 1e-3, 1e-12])
        basis, rank_found, _ = kernel_of(mat, rank_hint=1)
        assert rank_found == [1]
        assert basis.shape == (3, 2)

    def test_rank_hint_past_exact_zeros_has_no_cutoff(self):
        # diag(R) is 1, 0, 0: at the hint 2 the last kept entry is already
        # 0, which is no cutoff at all, not a perfect one
        basis, rank_found, gap = kernel_of(np.diag([1.0, 0, 0]), rank_hint=2)
        assert rank_found == [2] and gap == 0
        assert basis.shape == (3, 1)
        assert kernel_of(np.diag([1.0, 0, 0]), rank_hint=1)[2] == math.inf

    def test_ambiguous_spectrum_raises(self):
        # 2e-8 sits above the cutoff and 0.9e-8 below, only a factor 2.2 apart
        mat = np.diag([1.0, 2e-8, 0.9e-8])
        with pytest.raises(AmbiguousRankError):
            kernel_of(mat, tol=1e-8)

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            kernel_of(np.eye(2), tol=2.0)

    @pytest.mark.parametrize("rows, cols", [(0, 3), (2, 0)])
    def test_empty_matrix_has_the_whole_space_as_kernel(self, rows, cols):
        # LAPACK rejects a geqp3 with no rows, so these never reach it
        basis, rank_found, gap = kernel_of(np.zeros((rows, cols)))
        assert rank_found == [0] and math.isinf(gap)
        assert np.array_equal(basis, np.eye(cols))


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


def macaulay_staircase(n, D, r, seed=0):
    """The ``Staircase`` that ``cokernel_quotients`` hands the kernel for
    the cokernel of a rank-r form as decompose finds it, recorded from that
    call, the whole Macaulay matrix it stands for, and the gap e."""
    form = form_from_points(random_unit_points(n, r, seed), np.ones(r), D)
    d, e = waring._working_parameters(n, r, D)
    kernel, _, _ = numerical_kernel(
        waring._equilibrated_adjoint(catalecticant(form, d)), rank_hint=r
    )
    calls = []

    def recording(stairs, *args, **kwargs):
        calls.append(stairs)
        return numerical_kernel(stairs, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(waring, "numerical_kernel", recording)
        cokernel_quotients(n, d, kernel, e)
    (stairs,) = calls
    return stairs, macaulay_array(n, d, kernel, e), e


def each_shift_once(shifts, count):
    """Whether the (first, stop) shift ranges of a staircase's builds cover
    the shifts 0..count-1 once each, in order."""
    return ([first for first, _ in shifts] == [0] + [stop for _, stop in shifts[:-1]]
            and shifts[-1][1] == count)


def synthetic_staircase(seed, block0_scale=1.0):
    """A 14 x 12 staircase mat^H, blocks of columns [0,3), [3,7), [7,12)
    live in rows [0,5), [0,9), [0,14), with one column of block 0 a
    combination of the other two, and one of block 2 a combination of a
    column of block 0 and one of block 1.  Returns mat and the block ends."""
    rng = np.random.default_rng(seed)
    adjoint = np.zeros((14, 12), dtype=np.complex128)
    start = 0
    for end, live in [(3, 5), (7, 9), (12, 14)]:
        adjoint[:live, start:end] = planted_rank(rng, live, end - start, end - start)
        start = end
    adjoint[:, 2] = adjoint[:, 0] - 2j * adjoint[:, 1]
    adjoint[:, 10] = 0.5 * adjoint[:, 1] + adjoint[:, 5]
    adjoint[:, :3] *= block0_scale
    return adjoint.conj().T, [3, 7, 12]


def stairs_of(mat, ends):
    """mat^H as a ``Staircase`` with the given block ends.  Each build
    copies its columns of mat^H down to the last nonzero row of the columns
    before its end, and no further.  The scale is the whole of mat^H's
    largest column norm."""
    adjoint = np.array(np.conj(mat).T, dtype=np.complex128, order="F")

    def build(start, stop):
        return adjoint[:_live_rows(adjoint[:, :stop]), start:stop].copy()

    return Staircase(adjoint.shape, tuple(ends), waring._largest_column_norm(adjoint), build)


def staircase_kernel(mat, ends, **kwargs):
    return numerical_kernel(stairs_of(mat, ends), **kwargs)


def ranks_by_prefix(mat, ends):
    """Rank of mat's leading rows up to each end, one plain pivoted QR
    each."""
    return [kernel_of(mat[:end])[1][0] for end in ends]


class TestStaircaseKernel:
    """numerical_kernel handed a ``Staircase`` factors it block by block,
    each block built when its turn comes and read down to its last live
    row; it must find the one-block rank and kernel, and the rank at every
    block end."""

    @pytest.mark.parametrize("shape", [(3, 10, 50), (3, 12, 80)])
    def test_macaulay_matches_one_step(self, shape, monkeypatch):
        stairs, macaulay, e = macaulay_staircase(*shape)
        n, D, r = shape
        built = []
        build = waring.macaulay_array

        def recording(*args, **kwargs):
            columns = build(*args, **kwargs)
            built.append((args[3], kwargs["shifts"], columns.copy()))
            return columns

        monkeypatch.setattr(waring, "macaulay_array", recording)
        expected, expected_rank = reference_kernel(macaulay.T)
        whole, rank_whole, gap_whole = kernel_of(macaulay.T)
        basis, ranks, gap = numerical_kernel(stairs)
        assert stairs.shape == macaulay.shape
        assert stairs.scale == pytest.approx(np.linalg.norm(macaulay, axis=0).max(), rel=1e-14)
        # every build is at degree d+e and covers its shifts' columns of the
        # adjoint, the conjugated matrix, on the top rows they reach; the
        # builds take each shift once
        g = stairs.ends[0]  # x_0^e times each of the g forms
        assert [degree for degree, _, _ in built] == [e] * len(built)
        assert each_shift_once([shifts for _, shifts, _ in built], hs(n, e))
        for _, (first, stop), columns in built:
            adjoint = np.conj(macaulay[:, first * g : stop * g])
            assert len(columns) == _live_rows(adjoint)
            assert np.array_equal(columns, adjoint[:len(columns)])
        assert ranks[-1:] == rank_whole == [expected_rank]
        assert basis.shape == expected.shape == (macaulay.shape[0], r)
        assert min_principal_cosine(basis, expected) >= 1 - 1e-10
        assert min_principal_cosine(whole, expected) >= 1 - 1e-10
        assert gap_whole / 2 <= gap <= 2 * gap_whole
        assert np.allclose(basis.conj().T @ basis, np.eye(r), atol=1e-12)
        # the rank at each end is that of the Macaulay matrix one degree
        # up, so they read off the expected quotient table from d to d+e
        d = waring._working_parameters(n, r, D)[0]
        table = expected_gap_and_table(n, d, r)[1]
        assert [hs(n, d + k) - rank for k, rank in enumerate(ranks)] == list(table[d:d + e + 1])

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_dependencies_within_and_across_blocks(self, seed):
        mat, ends = synthetic_staircase(seed)
        expected, expected_rank = reference_kernel(mat)
        _, rank_whole, gap_whole = kernel_of(mat)
        basis, ranks, gap = staircase_kernel(mat, ends)
        assert ranks == ranks_by_prefix(mat, ends) == [2, 6, 10]
        assert ranks[-1:] == rank_whole == [expected_rank]
        assert min_principal_cosine(basis, expected) >= 1 - 1e-10
        assert gap_whole / 2 <= gap <= 2 * gap_whole

    @pytest.mark.parametrize("ends, staircase_ranks", [
        ([3, 7, 12], [2, 6, 10]),  # the staircase's own blocks
        ([2, 5, 9, 12], [2, 4, 8, 10]),  # blocks that cut across its steps
        ([6, 6, 12], [5, 5, 10]),  # an empty block
        ([0, 12], [0, 10]),  # an empty first block
    ])
    @pytest.mark.parametrize("dense", [False, True])
    def test_any_split_reads_its_rows_off_the_data(self, ends, staircase_ranks, dense):
        # no block is told its rows: each is factored down to its last
        # nonzero row, so any split of a staircase, or of a dense mat with
        # no zero rows at all, gives the rank at every end
        if dense:
            mat = planted_rank(np.random.default_rng(1), 12, 14, 7)
        else:
            mat, _ = synthetic_staircase(0)
        expected, expected_rank = reference_kernel(mat)
        basis, ranks, _ = staircase_kernel(mat, ends)
        assert ranks == ranks_by_prefix(mat, ends)
        assert ranks[-1] == expected_rank
        if not dense:
            assert ranks == staircase_ranks
        assert min_principal_cosine(basis, expected) >= 1 - 1e-10

    def test_cutoff_is_relative_to_the_whole_matrix(self):
        # block 0's columns are the smallest, at 1e-10 of the rest: below
        # tol against the largest column of the whole matrix, so they are
        # dropped, though against block 0's own |R_00| they would be kept
        # (as they are when block 0 is factored alone).  The column of
        # block 2 was planted before the scaling, so it is independent now
        mat, ends = synthetic_staircase(7, block0_scale=1e-10)
        expected, expected_rank = reference_kernel(mat)
        basis, ranks, gap = staircase_kernel(mat, ends)
        assert ranks_by_prefix(mat, ends)[0] == 2
        assert ranks == [0, 4, 9]
        assert ranks[-1:] == kernel_of(mat)[1] == [expected_rank]
        assert min_principal_cosine(basis, expected) >= 1 - 1e-10
        assert gap > 1e6

    def test_one_given_step_is_the_plain_factorization(self):
        # one block is one geqp3 of the whole of mat^H: the same R diagonal,
        # and an orthonormal basis of the complement of Q's first rank columns
        import scipy.linalg

        mat = planted_rank(np.random.default_rng(2), 7, 9, 4)
        factor, _, _ = waring._pivoted_qr(np.array(mat.conj().T, order="F"))
        diag = np.abs(np.diagonal(factor))
        q, _, _ = scipy.linalg.qr(mat.conj().T, pivoting=True)
        basis, ranks, gap = staircase_kernel(mat, [7])
        assert ranks == [4] and gap == diag[3] / diag[4]
        assert np.allclose(q[:, :4].conj().T @ basis, 0, rtol=0, atol=1e-13)
        assert np.allclose(basis.conj().T @ basis, np.eye(5), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("ends", [[7, 300], [294, 300]])
    def test_the_last_block_comes_in_chunks_of_whole_runs(self, ends):
        # builds start and stop at multiples of gcd(ends), 1 or 6 here, and
        # the last block's take at most _CHUNK = 128 columns: 128 or 126
        mat = planted_rank(np.random.default_rng(3), 300, 310, 250)
        stairs = stairs_of(mat, ends)
        asked = []

        def build(start, stop):
            asked.append((start, stop))
            return stairs.build(start, stop)

        basis, ranks, _ = numerical_kernel(dataclasses.replace(stairs, build=build))
        step = 128 if ends[0] == 7 else 126
        assert asked == [(0, ends[0])] + [(j, min(j + step, 300)) for j in range(ends[0], 300, step)]
        assert ranks == ranks_by_prefix(mat, ends)
        assert min_principal_cosine(basis, reference_kernel(mat)[0]) >= 1 - 1e-10

    def test_rank_hint_with_several_steps_rejected(self):
        mat, ends = synthetic_staircase(0)
        with pytest.raises(ValueError, match="one block"):
            staircase_kernel(mat, ends, rank_hint=10)

    @pytest.mark.parametrize("ends", [
        [3, 7],  # stops short of the last column of mat^H
        [7, 3, 12],  # ends out of order
        [-1, 3, 12],  # a negative first end
    ])
    def test_malformed_steps_rejected(self, ends):
        mat, _ = synthetic_staircase(0)
        with pytest.raises(ValueError, match="staircase"):
            staircase_kernel(mat, ends)


class TestApolarity:
    def test_kernel_vectors_annihilate(self):
        Z = random_unit_points(2, 18, seed=5)
        form = form_from_points(Z, np.ones(18), 10)
        kernel, _, _ = kernel_of(catalecticant(form, 5), rank_hint=18)
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


class TestNumericalTwin:
    def test_exact_tables_match_the_floating_point_staircase(self):
        # The expected tables the exact pipeline certifies, witnessed over C
        # with no elimination code from modlinalg: every 8th admissible r of
        # each acceptance grid, r unit-circle points, their degree-d forms as
        # the evaluation matrix's numerical kernel, and the quotient at every
        # degree d+1..d+G read off one staircase factorization of the
        # Macaulay matrix at the predicted gap G.
        cases = 0
        for n, r_to in ((2, 300), (3, 200), (4, 150)):
            grid = [r for r in range(1, r_to + 1) if admissible(n, CaseParams(n, r).d, r)]
            for r in grid[::8]:
                d = CaseParams(n, r).d
                gap, table = expected_gap_and_table(n, d, r)
                points = random_unit_points(n, r, r)
                kernel, _, _ = numerical_kernel(stairs_of(evaluation_array(points, d), [r]), r)
                _, observed, _ = cokernel_quotients(n, d, kernel, gap)
                assert observed == list(table[d + 1:]), (n, r)
                cases += 1
        assert cases == 66


def quotient_dim_oracle(n, d, kernel, t, tol=1e-8):
    """hs(n,t) minus the numerical rank of the degree-t Macaulay matrix of
    the kernel forms, read from |diag(R)| of one plain pivoted QR."""
    factor, _, _ = waring._pivoted_qr(np.asfortranarray(macaulay_array(n, d, kernel, t - d)))
    diag = np.abs(np.diagonal(factor))
    return hs(n, t) - int(np.count_nonzero(diag > tol * diag[0]))


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
        # the sketch and the linear forms draw from generators of their
        # own, so numpy's global state is left alone
        Z = random_unit_points(2, 10, seed=21)
        form = form_from_points(Z, np.ones(10), 8)
        state = np.random.get_state()
        first = decompose(form, 10, seed=5)
        after = np.random.get_state()
        second = decompose(form, 10, seed=5)
        assert np.array_equal(first.points, second.points)
        assert np.array_equal(first.coefficients, second.coefficients)
        assert first.residual == second.residual
        assert list(first.diagnostics.items()) == list(second.diagnostics.items())
        assert after[0] == state[0] and np.array_equal(after[1], state[1])
        assert after[2:] == state[2:]

    def test_bits_independent_of_caller_blas_threads(self, blas_pools):
        # (3,8,25) is large enough that OpenBLAS at two threads sums its
        # products in another order than at one: unpinned, the residual
        # moves in its 4th digit; the form is built once, since
        # form_from_points is not pinned
        form = form_from_points(random_unit_points(3, 25, seed=12), np.ones(25), 8)
        runs = []
        for count in (1, 2):
            for _, put in blas_pools:
                put(count)
            runs.append(decompose(form, 25))
            assert [get() for get, _ in blas_pools] == [count] * len(blas_pools)
        one, two = runs
        assert np.array_equal(one.points, two.points)
        assert np.array_equal(one.coefficients, two.coefficients)
        assert one.residual == two.residual

    def test_form_bits_independent_of_caller_blas_threads(self, blas_pools):
        # the form built inside each thread setting: unpinned, its product
        # sums in another order at two threads, and decompose returns the
        # points of (3,8,25) seed 12 in another order
        forms, runs = [], []
        for count in (1, 2):
            for _, put in blas_pools:
                put(count)
            forms.append(form_from_points(random_unit_points(3, 25, seed=12), np.ones(25), 8))
            runs.append(decompose(forms[-1], 25))
            assert [get() for get, _ in blas_pools] == [count] * len(blas_pools)
        assert np.array_equal(forms[0].coeffs, forms[1].coeffs)
        one, two = runs
        assert np.array_equal(one.points, two.points)
        assert one.residual == two.residual

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

    @pytest.mark.parametrize("r", [16, 17])
    def test_wrong_rank_is_not_blamed_on_the_gap_prediction(self, r):
        # the form has rank 18: its catalecticant has no clear cutoff at r
        # (gap 6.6 at 16, 4.7 at 17, against 1.6e13 at 18)
        form = form_from_points(random_unit_points(2, 18, seed=9), np.ones(18), 10)
        with pytest.raises(DecompositionError) as exc:
            decompose(form, r)
        assert exc.value.diagnostics["catalecticant_gap"] < waring._SPECTRAL_GAP_FLOOR
        message = str(exc.value)
        assert f"rank is probably not {r}" in message
        assert "gap prediction" not in message

    def test_hint_above_a_rank_one_form_is_not_blamed_on_the_gap_prediction(self):
        # x0^4 has rank 1: at the hint 3 its catalecticant's R diagonal is
        # 1, 0, 0, so the gap at the hint is 0
        form = form_from_dict({"schema_version": 1, "n": 2, "D": 4,
                               "terms": [{"exponent": [4, 0, 0], "re": 1, "im": 0}]})
        with pytest.raises(DecompositionError) as exc:
            decompose(form, 3)
        assert exc.value.diagnostics["catalecticant_gap"] == 0
        message = str(exc.value)
        assert "rank is probably not 3" in message
        assert "gap prediction" not in message

    def test_hint_above_a_rank_two_form_is_not_blamed_on_the_gap_prediction(self):
        # (x0+x1)^4 + (x0-x1)^4 has rank 2: at the hint 3 its
        # catalecticant's R diagonal is 1, 1, 1e-16, 0, so the last kept
        # entry is roundoff, below tol, and the gap at the hint is 0
        form = form_from_points([[1, 1, 0], [1, -1, 0]], [1, 1], 4)
        with pytest.raises(DecompositionError) as exc:
            decompose(form, 3)
        assert exc.value.diagnostics["catalecticant_gap"] == 0
        message = str(exc.value)
        assert "rank is probably not 3" in message
        assert "gap prediction" not in message

    def test_cokernel_failure_reports_quotient_table(self, monkeypatch):
        # r one below the form's true rank 50: the forms past the true
        # kernel cut the quotient below r at the working degree d+e.  The
        # table comes from the one Macaulay matrix at d+e, built a block of
        # shifts at a time, and it matches a plain pivoted QR of the
        # Macaulay matrix at each degree
        Z = random_unit_points(3, 50, seed=0)
        form = form_from_points(Z, np.ones(50), 10)
        d, e = waring._working_parameters(3, 49, 10)
        builds = []
        build = waring.macaulay_array

        def counting(*args, **kwargs):
            builds.append((args[3], kwargs["shifts"]))
            return build(*args, **kwargs)

        monkeypatch.setattr(waring, "macaulay_array", counting)
        with pytest.raises(DecompositionError) as exc:
            decompose(form, 49, seed=0)
        assert {degree for degree, _ in builds} == {e}
        assert each_shift_once([shifts for _, shifts in builds], hs(3, e))
        diag = exc.value.diagnostics
        expected = list(expected_gap_and_table(3, d, 49)[1][d + 1:])
        assert diag["expected_quotient"] == expected
        assert len(diag["numerical_quotient"]) == len(expected) == e
        assert diag["numerical_quotient"][:-1] == expected[:-1]
        assert diag["numerical_quotient"][-1] < 49
        kernel, _, _ = numerical_kernel(
            waring._equilibrated_adjoint(catalecticant(form, d)), rank_hint=49
        )
        assert diag["numerical_quotient"] == [
            quotient_dim_oracle(3, d, kernel, t) for t in range(d + 1, d + e + 1)
        ]
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
        # at (3,12,80) the Macaulay matrix at d+e would be 680 x 660
        # complex, 6.85 MiB, but it is never built: its blocks of shifts
        # come one at a time, and each leaves only its kept reflectors, so
        # the peak is 0.64x.  Factoring the whole matrix in place took it to
        # 1.3x, and a conjugated copy, a Fortran copy and an R to 4.1x
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
        assert peak < 0.7 * matrix_bytes

    def test_staircase_peaks_near_one_macaulay_matrix(self):
        # at (4,12,200) the Macaulay matrix at d+e would be 1365 x 1260
        # complex, 26.2 MiB.  Its blocks are built and factored one at a
        # time, the last (665 x 560 below the rank so far) a chunk of shifts
        # at a time: the peak, 0.71x, is the earlier blocks' kept
        # reflectors (6.3 MiB), the last block's factor (5.7 MiB), the
        # cokernel basis (4.2 MiB) and a chunk of reflectors.  Holding the
        # whole matrix took it to 1.33x, copying whole blocks of reflectors
        # to build the basis to 1.52x, and 512-column chunks to 1.55x
        import scipy.linalg  # noqa: F401  (decompose imports it on first use)

        n, D, r = 4, 12, 200
        form = form_from_points(random_unit_points(n, r, seed=0), np.ones(r), D)
        d, e = waring._working_parameters(n, r, D)
        matrix_bytes = hs(n, d + e) * hs(n, e) * (hs(n, d) - r) * 16
        assert matrix_bytes == 1365 * 1260 * 16
        tracemalloc.start()
        try:
            result = decompose(form, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.residual <= 1e-8
        assert peak < 0.8 * matrix_bytes

    def test_oversized_staircase_exits_cleanly_before_any_block(self, tmp_path, monkeypatch,
                                                                capsys):
        # with one byte of memory less than the staircase's working set
        # (each block's top rows times its columns, plus the largest block,
        # at 16 bytes a cell), decompose ends in a JSON CapacityError before
        # any block of the Macaulay matrix is built
        n, D, r = 3, 12, 80
        form = form_from_points(random_unit_points(n, r, seed=0), np.ones(r), D)
        path = tmp_path / "form.json"
        path.write_text(json.dumps(form_to_dict(form)), encoding="utf-8")
        d, e = waring._working_parameters(n, r, D)
        g = hs(n, d) - r
        cells = [hs(n, d + k) * g * (hs(n, k) - (hs(n, k - 1) if k else 0)) for k in range(e + 1)]
        need = 16 * (sum(cells) + max(cells))
        memory = {"SC_PHYS_PAGES": need - 1, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(os, "sysconf", memory.__getitem__)

        def never(*args, **kwargs):
            raise AssertionError("a block of the Macaulay matrix was built")

        monkeypatch.setattr(waring, "macaulay_array", never)
        assert cli.run(["decompose", str(path), "--r", str(r), "--format", "json"]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "CapacityError"
        assert "staircase" in error["message"]
        assert f"needs {need} bytes, more than the {need - 1} bytes" in error["message"]

    def test_success_reports_the_quotient_table(self, monkeypatch):
        calls = []
        build = waring.macaulay_array

        def counting(*args, **kwargs):
            calls.append((args[3], kwargs["shifts"]))
            return build(*args, **kwargs)

        monkeypatch.setattr(waring, "macaulay_array", counting)
        result, _, _ = roundtrip_case(3, 10, 50, seed=0)
        diag = result.diagnostics
        e = len(diag["expected_quotient"])
        # one Macaulay matrix, at degree d+e, built a block of shifts at a time
        assert {degree for degree, _ in calls} == {e}
        assert each_shift_once([shifts for _, shifts in calls], hs(3, e))
        assert diag["numerical_quotient"] == diag["expected_quotient"]
        assert diag["expected_quotient"][-1] == 50
        assert diag["catalecticant_gap"] >= 10 and diag["cokernel_gap"] >= 10

    def test_points_distinct_and_normalized(self):
        result, _, _ = roundtrip_case(2, 10, 18, seed=14)
        norms = np.linalg.norm(result.points, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        gram = np.abs(result.points @ result.points.conj().T)
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 1.0 - 1e-6  # no two rows projectively equal


SKETCH_CASES = [(2, 10, 18, seed) for seed in range(3)] + [(3, 12, 80, seed) for seed in range(3)]


class TestShiftSketch:
    @pytest.mark.parametrize("n, D, r, seed", SKETCH_CASES)
    def test_picks_columns_about_as_well_conditioned_as_the_full_qr(
            self, monkeypatch, n, D, r, seed):
        # the sketch's r columns of the (n+1)r x hs(n,d+e-1) shift stack
        # against the first r pivots of a full pivoted QR of the stack
        import scipy.linalg

        select, factor = waring._sketched_shifts, waring._pivoted_qr
        calls, shapes = [], []

        def recording_select(cokernel, shifts, rank, draw_seed):
            shapes.clear()  # the QRs before this one are the kernels'
            chosen = select(cokernel, shifts, rank, draw_seed)
            calls.append((cokernel, shifts, rank, draw_seed, chosen))
            return chosen

        def recording_factor(a):
            shapes.append(a.shape)
            return factor(a)

        monkeypatch.setattr(waring, "_sketched_shifts", recording_select)
        monkeypatch.setattr(waring, "_pivoted_qr", recording_factor)
        decompose(form_from_points(random_unit_points(n, r, seed), np.ones(r), D), r, seed=seed)
        (cokernel, shifts, rank, draw_seed, chosen), = calls
        assert (rank, draw_seed) == (r, seed)
        assert shapes == [(r + 8, shifts.shape[1])]  # the stack is never built
        assert chosen.shape == (r,) and np.all(np.diff(chosen) > 0)
        stack = np.concatenate([cokernel[row, :].T for row in shifts])
        assert stack.shape == ((n + 1) * r, shifts.shape[1])
        _, _, pivots = scipy.linalg.qr(stack, pivoting=True, mode="economic")
        best = np.linalg.cond(stack[:, pivots[:r]])
        assert np.linalg.cond(stack[:, chosen]) <= 10 * best

    @pytest.mark.parametrize("n, D, r, seed", SKETCH_CASES)
    def test_recovers_the_planted_points(self, n, D, r, seed):
        result, point_err, coeff_err = roundtrip_case(n, D, r, seed, decompose_seed=seed)
        assert point_err <= 1e-9
        assert coeff_err <= 1e-9
        assert result.residual <= 1e-12


class TestSerialization:
    def test_form_dict_roundtrip(self):
        form = random_form(2, 5, seed=3)
        data = form_to_dict(form)
        assert data["schema_version"] == 1
        back = form_from_dict(data)
        assert back.n == form.n and back.D == form.D
        assert np.allclose(back.coeffs, form.coeffs)

    def test_form_dict_terms_load_in_any_order(self):
        # documents written before the monomial order became lex list their
        # terms in grevlex order; terms are keyed by exponent, not position
        form = random_form(2, 5, seed=3)
        data = form_to_dict(form)
        assert [t["exponent"] for t in data["terms"]] == sorted(
            (t["exponent"] for t in data["terms"]), reverse=True)
        grevlex = sorted(data["terms"], key=lambda t: t["exponent"][::-1])
        for terms in (data["terms"][::-1], grevlex):
            assert terms != data["terms"]
            back = form_from_dict({**data, "terms": terms})
            assert np.array_equal(back.coeffs, form.coeffs)

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
            "catalecticant_gap",
            "numerical_quotient",
            "expected_quotient",
            "cokernel_gap",
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
