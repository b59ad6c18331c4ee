"""Tests for exact linear algebra over F_p.

The recursive elimination is checked entry-for-entry against a one-pivot
reference implementation coded here, the kernel against the one-pivot
back-elimination it replaced, and rank/kernel/span agree with
constructions whose answers are known by design.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chopshop.modlinalg import (
    ModMatrix,
    PrimeField,
    _echelon,
    _lower_inverse,
    _mul_mod,
    _reduce,
    in_span,
    kernel_basis,
    matmul,
    rank,
)

F = PrimeField(2147483647)
FSMALL = PrimeField(1009)


def reference_echelon(a, p):
    """One pivot at a time, no blocking: the semantics _echelon must match."""
    a = a.copy()
    m, ncols = a.shape
    piv = []
    row = 0
    for col in range(ncols):
        if row == m:
            break
        nz = a[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        r0 = row + nz[0]
        if r0 != row:
            a[[row, r0]] = a[[r0, row]]
        a[row] = a[row] * pow(int(a[row, col]), p - 2, p) % p
        f = a[row + 1:, col]
        a[row + 1:] = (a[row + 1:] - f[:, None] * a[row]) % p
        piv.append(col)
        row += 1
    return a, piv


def reference_back_eliminate(a, p, piv):
    """Clear the entries above each pivot, one pivot at a time: the reduced
    echelon form kernel_basis must reproduce."""
    for j in range(len(piv) - 1, -1, -1):
        c = piv[j]
        col = a[:j, c]
        hit = col.nonzero()[0]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - col[hit, None] * a[j, c:]) % p


def reference_kernel(a, p):
    """kernel_basis as it was built from the one-pivot reduced form."""
    a, piv = reference_echelon(a, p)
    reference_back_eliminate(a, p, piv)
    r = len(piv)
    free = [c for c in range(a.shape[1]) if c not in piv]
    basis = np.zeros((a.shape[1], len(free)), dtype=np.int64)
    for idx, fcol in enumerate(free):
        basis[fcol, idx] = 1
        if r:
            basis[piv, idx] = (p - a[:r, fcol]) % p
    return basis


def product_with_zeros(rng, p, m, n, k):
    """m x n product of random m x k and k x n factors over F_p (rank at most
    k), with a few rows and columns zeroed."""
    a = _mul_mod(
        rng.integers(0, p, size=(m, k), dtype=np.int64),
        rng.integers(0, p, size=(k, n), dtype=np.int64),
        p,
    )
    a[rng.integers(0, m, size=m // 10 + 1)] = 0
    a[:, rng.integers(0, n, size=n // 10 + 1)] = 0
    return a


def random_matrix(rng, field, m, n):
    return ModMatrix(field, rng.integers(0, field.p, size=(m, n), dtype=np.int64))


def random_of_rank(rng, field, m, n, k):
    """m x n product of random m x k and k x n factors; rank k with
    overwhelming probability over a large field."""
    b = rng.integers(0, field.p, size=(m, k), dtype=np.int64)
    c = rng.integers(0, field.p, size=(k, n), dtype=np.int64)
    return ModMatrix(field, _mul_mod(b, c, field.p), _trusted=True)


class TestPrimeField:
    def test_accepts_odd_primes(self):
        PrimeField(3)
        PrimeField(1009)
        PrimeField(2147483647)

    def test_rejects_composites_and_small(self):
        for bad in (1, 2, 4, 9, 1001, 2147483646):
            with pytest.raises(ValueError):
                PrimeField(bad)
        with pytest.raises(ValueError):
            PrimeField(2**31 + 11)

    def test_inverse(self):
        assert F.inv(2) * 2 % F.p == 1
        assert FSMALL.inv(123) * 123 % FSMALL.p == 1
        with pytest.raises(ZeroDivisionError):
            F.inv(0)


class TestModMatrix:
    def test_reduces_entries(self):
        m = ModMatrix(FSMALL, [[-1, 1009], [2018, 5]])
        assert m.array.tolist() == [[1008, 0], [0, 5]]

    def test_immutable(self):
        m = ModMatrix(FSMALL, [[1, 2]])
        with pytest.raises(ValueError):
            m.array[0, 0] = 3

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            ModMatrix(FSMALL, [1, 2, 3])


class TestMulMod:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_matches_python_integers(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.choice([3, 97, 1009, 65537, 2147483647]))
        m, k, n = (int(v) for v in rng.integers(1, 9, size=3))
        a = rng.integers(0, p, size=(m, k), dtype=np.int64)
        b = rng.integers(0, p, size=(k, n), dtype=np.int64)
        got = _mul_mod(a, b, p)
        want = (a.astype(object) @ b.astype(object)) % p
        assert (got == want.astype(np.int64)).all()

    def test_empty_inner_dimension(self):
        a = np.zeros((3, 0), dtype=np.int64)
        b = np.zeros((0, 4), dtype=np.int64)
        assert _mul_mod(a, b, 7).tolist() == np.zeros((3, 4)).tolist()

    @pytest.mark.parametrize("p", [3, 5, 7, 1009, 1000003, 2147483629, 2147483647])
    def test_float_reduction_near_multiples_of_p(self, p):
        # the floored quotient x * (1/p) misses by one just below or at a
        # multiple of p for some p (5 and 1000003 one way, 2147483629 the
        # other), so both corrections are reached
        rng = np.random.default_rng(p)
        k = rng.integers(1, 2**53 // p - 1, size=4000, dtype=np.int64)
        x = np.concatenate([k * p + off for off in (-1, 0, 1, p - 1)])
        x = np.concatenate([x, rng.integers(0, 2**53, size=4000, dtype=np.int64)])
        got = _reduce(x.astype(np.float64), p, 1.0 / p)
        assert (got.astype(np.int64) == x % p).all()

    @pytest.mark.parametrize("p", [5, 2147483629, 2147483647])
    def test_largest_sums_across_chunks(self, p):
        # every limb sum at its largest, over more than one inner chunk
        k = (1 << 18) + 3
        a = np.full((2, k), p - 1, dtype=np.int64)
        b = np.full((k, 3), p - 1, dtype=np.int64)
        assert (_mul_mod(a, b, p) == k % p).all()


class TestLowerInverse:
    @pytest.mark.parametrize("p", [3, 101, 2147483647])
    def test_inverts_the_leaf_triangle(self, p):
        rng = np.random.default_rng(p)
        for k in (1, 2, 7, 32):
            t = rng.integers(0, p, size=(k, k), dtype=np.int64)
            inv = rng.integers(1, p, size=k, dtype=np.int64)
            inv[::3] = 1
            lower = np.tril(t, -1) + np.diag([pow(int(v), -1, p) for v in inv])
            got = _lower_inverse(t, inv, p)
            assert not np.triu(got, 1).any()
            assert (_mul_mod(lower, got, p) == np.eye(k, dtype=np.int64)).all()


class TestEchelon:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_blocked_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.choice([101, 1009, 2147483647]))
        m, n = (int(v) for v in rng.integers(1, 40, size=2))
        a = rng.integers(0, p, size=(m, n), dtype=np.int64)
        # sprinkle zero columns/rows to exercise pivot skips
        if m > 2:
            a[rng.integers(0, m)] = 0
        if n > 2:
            a[:, rng.integers(0, n)] = 0
        want, piv_want = reference_echelon(a, p)
        for leaf in (1, 3, 8, 32):
            got = a.copy()
            piv = _echelon(got, p, leaf=leaf)
            assert piv == piv_want
            assert (got == want).all()

    @pytest.mark.parametrize("p", [3, 5, 101, 2147483647])
    @pytest.mark.parametrize(
        "m, n, k",
        [(200, 200, 200), (200, 200, 137), (190, 120, 90), (120, 190, 120),
         (64, 200, 17), (200, 1, 1), (1, 200, 1), (97, 101, 0)],
    )
    def test_recursion_levels_match_reference(self, p, m, n, k):
        rng = np.random.default_rng(m * 1000 + n + k + p % 1000)
        a = product_with_zeros(rng, p, m, n, k)
        want, piv_want = reference_echelon(a, p)
        for leaf in (1, 3, 8, 32):
            got = a.copy()
            piv = _echelon(got, p, leaf=leaf)
            assert piv == piv_want
            assert (got == want).all()


class TestRank:
    def test_identity_and_zero(self):
        eye = ModMatrix(F, np.eye(200, dtype=np.int64), _trusted=True)
        assert rank(eye) == 200
        assert kernel_basis(eye).cols == 0
        zero = ModMatrix(F, np.zeros((5, 7), dtype=np.int64), _trusted=True)
        assert rank(zero) == 0
        assert kernel_basis(zero).cols == 7

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_planted_rank(self, seed):
        rng = np.random.default_rng(seed)
        m, n = (int(v) for v in rng.integers(2, 30, size=2))
        k = int(rng.integers(1, min(m, n) + 1))
        mat = random_of_rank(rng, F, m, n, k)
        assert rank(mat) == k

    def test_rank_is_permutation_invariant(self):
        rng = np.random.default_rng(3)
        mat = random_of_rank(rng, F, 20, 25, 11)
        perm = rng.permutation(20)
        assert rank(ModMatrix(F, mat.array[perm], _trusted=False)) == 11


class TestKernel:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_rank_nullity_and_membership(self, seed):
        rng = np.random.default_rng(seed)
        m, n = (int(v) for v in rng.integers(1, 30, size=2))
        k = int(rng.integers(0, min(m, n) + 1))
        mat = random_of_rank(rng, F, m, n, k) if k else ModMatrix(
            F, np.zeros((m, n), dtype=np.int64), _trusted=True
        )
        ker = kernel_basis(mat)
        assert rank(mat) + ker.cols == n
        if ker.cols:
            prod = _mul_mod(mat.array, ker.array, F.p)
            assert not prod.any()
            assert rank(ker) == ker.cols

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        mat = random_of_rank(rng, F, 15, 18, 9)
        k1 = kernel_basis(mat).array
        k2 = kernel_basis(mat).array
        assert (k1 == k2).all()

    @pytest.mark.parametrize("p", [3, 5, 101, 2147483647])
    def test_matches_one_pivot_back_elimination(self, p):
        rng = np.random.default_rng(p % 997)
        for m, n, k in [(290, 300, 290), (150, 200, 90), (60, 80, 80), (40, 30, 12),
                        (5, 9, 0)]:
            a = product_with_zeros(rng, p, m, n, k)
            got = kernel_basis(ModMatrix(PrimeField(p), a, _trusted=True)).array
            assert (got == reference_kernel(a, p)).all()

    def test_echelon_complement_shape(self):
        # One relation among three columns: kernel has the free-coordinate 1.
        mat = ModMatrix(FSMALL, [[1, 2, 3], [0, 1, 4]])
        ker = kernel_basis(mat)
        assert ker.shape == (3, 1)
        assert ker.array[2, 0] == 1
        assert not _mul_mod(mat.array, ker.array, FSMALL.p).any()


class TestInSpan:
    def test_column_combination_is_in_span(self):
        rng = np.random.default_rng(5)
        mat = random_matrix(rng, F, 12, 5)
        x = rng.integers(0, F.p, size=(5, 1), dtype=np.int64)
        v = _mul_mod(mat.array, x, F.p)
        assert in_span(mat, v)

    def test_generic_vector_is_not(self):
        rng = np.random.default_rng(6)
        mat = random_matrix(rng, F, 12, 5)
        v = rng.integers(0, F.p, size=12, dtype=np.int64)
        assert not in_span(mat, v)

    def test_matches_rank_comparison(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            mat = random_of_rank(rng, FSMALL, 8, 6, int(rng.integers(1, 6)))
            v = rng.integers(0, FSMALL.p, size=(8, 1), dtype=np.int64)
            aug = ModMatrix(FSMALL, np.hstack([mat.array, v]))
            assert in_span(mat, v) == (rank(aug) == rank(mat))

    def test_shape_check(self):
        mat = ModMatrix(FSMALL, [[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            in_span(mat, [1, 2, 3])


class TestMatmul:
    def test_basic(self):
        a = ModMatrix(FSMALL, [[1, 2], [3, 4]])
        b = ModMatrix(FSMALL, [[5], [6]])
        assert matmul(a, b).array.tolist() == [[17], [39]]

    def test_rank_drops_under_products(self):
        rng = np.random.default_rng(9)
        a = random_of_rank(rng, F, 10, 8, 3)
        b = random_matrix(rng, F, 8, 12)
        assert rank(matmul(a, b)) <= 3

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ValueError):
            matmul(ModMatrix(F, [[1]]), ModMatrix(FSMALL, [[1]]))

    def test_basis_change_preserves_rank_and_span(self):
        rng = np.random.default_rng(10)
        mat = random_of_rank(rng, F, 14, 6, 6)
        u = random_of_rank(rng, F, 6, 6, 6)  # invertible with prob ~ 1
        changed = matmul(mat, u)
        assert rank(changed) == rank(mat)
        v = _mul_mod(mat.array, rng.integers(0, F.p, size=(6, 1), dtype=np.int64), F.p)
        assert in_span(changed, v)
