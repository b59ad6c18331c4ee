"""Tests for exact linear algebra over F_p.

The panel LU factorization is checked entry-for-entry, multipliers
included, against a one-pivot reference coded here, the kernel against
the one-pivot back-elimination it replaced, and rank/kernel/span agree
with constructions whose answers are known by design.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chopshop import modlinalg
from chopshop.modlinalg import (
    ModMatrix,
    PrimeField,
    _echelon,
    _mul_mod,
    _residues,
    in_span,
    kernel_basis,
    matmul,
    one_blas_thread,
    rank,
)

F = PrimeField(2147483647)
FSMALL = PrimeField(1009)


def reference_lu(a, p):
    """One pivot at a time, no blocking: the in-place LU _echelon must match.

    Rows swap whole; each multiplier (entry / pivot) is parked below its
    pivot and the pivot rows stay unscaled.  Works in int64 whatever the
    input dtype, so no product of two residues wraps."""
    a = a.astype(np.int64)
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
        f = a[row + 1:, col] * pow(int(a[row, col]), p - 2, p) % p
        a[row + 1:, col + 1:] = (a[row + 1:, col + 1:] - f[:, None] * a[row, col + 1:]) % p
        a[row + 1:, col] = f
        piv.append(col)
        row += 1
    return a, piv


def unit_echelon(lu, p, piv):
    """The echelon form with unit pivots from an in-place LU: L's
    multipliers cleared, each pivot row scaled by its pivot's inverse."""
    a = lu.copy()
    for j, c in enumerate(piv):
        a[j + 1:, c] = 0
        a[j] = a[j] * pow(int(a[j, c]), p - 2, p) % p
    return a


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
    lu, piv = reference_lu(a, p)
    a = unit_echelon(lu, p, piv)
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


def uniform_residues(rng, p, shape):
    return rng.integers(0, p, size=shape, dtype=np.int64)


def edge_residues(rng, p, shape):
    """Residues drawn evenly from p - 1, (p - 1) / 2, (p + 1) / 2 (the ones
    that balance to -1 and to the two extremes) and uniform ones; (p - 1)**2
    overflows int32 for every p above 2**16."""
    edges = np.array([p - 1, (p - 1) // 2, (p + 1) // 2], dtype=np.int64)
    out = uniform_residues(rng, p, shape)
    pick = rng.integers(0, 4, size=shape)
    out[pick < 3] = edges[pick[pick < 3]]
    return out


def staircase(rng, p, m, n, draw=uniform_residues):
    """m x n int32 matrix whose column j is nonzero only in its top
    heights[j] rows, the heights nondecreasing: the shape of the graded
    Macaulay matrix.  Every third column is a multiple of an earlier one, so
    the rank falls short and some panels find fewer pivots than columns.
    Built in int64, where a product of two residues fits."""
    heights = np.sort(rng.integers(0, m + 1, size=n))
    a = draw(rng, p, (m, n))
    a[np.arange(m)[:, None] >= heights] = 0
    for j in range(2, n, 3):
        a[:, j] = a[:, int(rng.integers(0, j))] * int(draw(rng, p, ())) % p
    return a.astype(np.int32)


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

    def test_miller_rabin_matches_trial_division(self):
        n = np.arange(10**5)
        composite = n < 2
        for q in range(2, 317):  # 317**2 > 10**5
            composite |= (n % q == 0) & (n != q)
        assert [modlinalg._is_prime.__wrapped__(int(k)) for k in n] == list(~composite)

    # Carmichael numbers, then composites that pass the bases 2 and 7 and
    # fail only at 61
    PSEUDOPRIMES = (561, 1729, 41041, 294409, 825265, 56052361, 321197185, 1299963601,
                    2284453, 3539101, 415476343, 483029821)

    def test_miller_rabin_rejects_pseudoprimes(self):
        for n in self.PSEUDOPRIMES:
            assert any(n % f == 0 for f in range(3, math.isqrt(n) + 1, 2)), n
            assert not modlinalg._is_prime.__wrapped__(n), n
        for p in (2147483629, 2147483647):
            assert modlinalg._is_prime.__wrapped__(p)
            PrimeField(p)


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

    @pytest.mark.parametrize("field", [F, FSMALL])
    def test_reduces_wide_and_negative_inputs_before_narrowing(self, field):
        # narrowed first, 2**31 would wrap to -2**31 and 2**32 + 5 to 5
        p = field.p
        wide = np.array([[2**31, 2**32 + 5, 2**62 + 3, p],
                         [-1, -p, -(2**40) - 1, -(2**63)]], dtype=np.int64)
        m = ModMatrix(field, wide)
        assert m.array.dtype == np.int32
        assert m.array.tolist() == [[v % p for v in row] for row in wide.tolist()]

    def test_trusted_residues_are_narrowed(self):
        residues = np.array([[0, F.p - 1], [(F.p - 1) // 2, (F.p + 1) // 2]], dtype=np.int64)
        m = ModMatrix(F, residues, _trusted=True)
        assert m.array.dtype == np.int32
        assert m.array.tolist() == residues.tolist()
        view = residues.astype(np.int32)[:, ::-1]
        assert ModMatrix(F, view, _trusted=True).array.base is None

    def test_every_operation_returns_int32(self):
        rng = np.random.default_rng(12)
        mat = random_of_rank(rng, F, 9, 12, 5)
        assert mat.array.dtype == np.int32
        assert kernel_basis(mat).array.dtype == np.int32
        assert matmul(mat, random_matrix(rng, F, 12, 4)).array.dtype == np.int32


def largest_split_terms(p, k):
    """2 x k and k x 3 factors over F_p (p > 2**31 - 2**16) whose terms in
    _mul_mod's split product are all within 2**33 of 3 * 2**44, of one sign,
    and every other one odd: a = 2**30 - 2**15 + 1 splits into ah = 2**14,
    al = 1 - 2**15, and b = 2**14 - 2 - (p - 1) / 2, or one less, has
    2**16 b = 2**30 - 3 * 2**15 (or - 5 * 2**15) mod p.  A chunk of 170 sums
    to just below 2**53; one of 171 would round."""
    a = np.full((2, k), 2**30 - 2**15 + 1, dtype=np.int64)
    b = (2**14 - 2 - (p - 1) // 2 - np.arange(k) % 2) % p
    return a, np.repeat(b[:, None], 3, axis=1)


def assert_products(a, b, c, p):
    """_mul_mod's a @ b and fused c - a @ b against Python integers."""
    a_obj, b_obj = a.astype(object), b.astype(object)
    assert (_mul_mod(a, b, p) == (a_obj @ b_obj) % p).all()
    got = c.copy()
    assert _mul_mod(a, b, p, got) is got
    assert (got == (c.astype(object) - a_obj @ b_obj) % p).all()


class TestMulMod:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_matches_python_integers(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.choice([3, 97, 1009, 65537, 2147483647]))
        m, k, n = (int(v) for v in rng.integers(1, 9, size=3))
        assert_products(rng.integers(0, p, size=(m, k), dtype=np.int64),
                        rng.integers(0, p, size=(k, n), dtype=np.int64),
                        rng.integers(0, p, size=(m, n), dtype=np.int64), p)

    def test_empty_inner_dimension(self):
        a = np.zeros((3, 0), dtype=np.int64)
        b = np.zeros((0, 4), dtype=np.int64)
        assert _mul_mod(a, b, 7).tolist() == np.zeros((3, 4)).tolist()
        c = np.arange(12, dtype=np.int64).reshape(3, 4) % 7
        assert (_mul_mod(a, b, 7, c.copy()) == c).all()

    def test_memory_does_not_grow_as_p_shrinks(self):
        # every prime takes chunks of 170 inner indices, so the float64
        # temporaries are the same size at every p
        rng = np.random.default_rng(3)

        def peak(p):
            a = rng.integers(0, p, size=(64, 2000)).astype(np.int32)
            b = rng.integers(0, p, size=(2000, 512)).astype(np.int32)
            tracemalloc.start()
            try:
                _mul_mod(a, b, p)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        largest = peak(2147483647)
        for p in (1048573, 65537, 7):
            assert abs(peak(p) - largest) <= 0.05 * largest, p

    @pytest.mark.parametrize("p", [3, 5, 7, 65537, 2147483629, 2147483647])
    @pytest.mark.parametrize("k", [169, 170, 171, 3 * 170 + 7])
    def test_balancing_edges_around_the_chunk(self, p, k):
        # (p - 1) / 2 and (p + 1) / 2 balance to the two extremes, p - 1 to -1;
        # k sits at the chunk size and past it, at every prime
        rng = np.random.default_rng(p + k)
        edges = np.array([(p - 1) // 2, (p + 1) // 2, p - 1], dtype=np.int64)
        assert_products(rng.choice(edges, size=(5, k)), rng.choice(edges, size=(k, 4)),
                        rng.choice(edges, size=(5, 4)), p)

    @pytest.mark.parametrize("p", [2147483629, 2147483647])
    def test_top_residues_are_balanced(self, p):
        # p - 1 and p - 2 balance to -1 and -2; unbalanced, their terms would
        # be near 2**46 and a chunk of them would round
        k = 3 * 170 + 7
        a = p - 1 - np.arange(2 * k).reshape(2, k) % 2
        b = p - 1 - np.arange(3 * k).reshape(k, 3) % 2
        assert_products(a, b, a[:, :3], p)

    @pytest.mark.parametrize("p", [2147483629, 2147483647])
    def test_int32_minuend_at_top_residues(self, p):
        # the update form: int32 operands and an int32 minuend, which the
        # reduced result is written straight into
        k = 3 * 170 + 7
        a = (p - 1 - np.arange(2 * k).reshape(2, k) % 2).astype(np.int32)
        b = (p - 1 - np.arange(3 * k).reshape(k, 3) % 2).astype(np.int32)
        c = np.array([[p - 1, p - 2, (p - 1) // 2], [(p + 1) // 2, 0, p - 1]], dtype=np.int32)
        assert_products(a, b, c, p)
        assert _mul_mod(a, b, p).dtype == np.int32

    @pytest.mark.parametrize("p", [2147483629, 2147483647])
    @pytest.mark.parametrize("k", [169, 170, 171, 4 * 170 + 3])
    def test_largest_terms_around_the_chunk(self, p, k):
        a, b = largest_split_terms(p, k)
        assert_products(a, b, np.full((2, 3), p - 1, dtype=np.int64), p)

    @pytest.mark.parametrize("p", [3, 5, 7, 1009, 1000003, 2147483629, 2147483647])
    def test_float_reduction_near_multiples_of_p(self, p):
        # the floored quotient x * (1/p) misses by one just below or at a
        # multiple of p for some p (5 and 1000003 one way, 2147483629 the
        # other), so both corrections are reached, on either sign
        rng = np.random.default_rng(p)
        top = 2**53 - p
        k = rng.integers(1, top // p - 1, size=4000, dtype=np.int64)
        k = np.concatenate([k, -k])
        x = np.concatenate([k * p + off for off in (-1, 0, 1, p - 1)])
        x = np.concatenate([x, rng.integers(-top, top + 1, size=4000, dtype=np.int64)])
        got = _residues(x.astype(np.float64), p)
        assert got.dtype == np.int32
        assert (got == x % p).all()

    @pytest.mark.parametrize("p", [5, 2147483629, 2147483647])
    def test_largest_sums_across_chunks(self, p):
        # every chunk's sum at its largest, over about 1540 chunks at every
        # prime ((p - 1) / 2 is the largest term at p = 5)
        k = (1 << 18) + 3
        if p > 2**31 - 2**16:
            a, b = largest_split_terms(p, k)
        else:
            a, b = np.full((2, k), (p - 1) // 2), np.full((k, 3), (p - 1) // 2)
        want = int(a[0] @ b[:, 0].astype(object)) % p
        assert (_mul_mod(a, b, p) == want).all()
        c = np.ones((2, 3), dtype=np.int64)
        assert (_mul_mod(a, b, p, c) == (1 - want) % p).all()


def planted_lu(rng, p, m, n, zero_diagonal=()):
    """m x n product L U over F_p of a random unit-lower m x m L and a
    random upper-trapezoidal m x n U with a nonzero diagonal: every leading
    minor is nonzero, so one-pivot elimination finds each pivot on the
    diagonal, with no swap and no column skipped.  U's diagonal is zero at
    the positions ``zero_diagonal`` instead."""
    lower = np.tril(uniform_residues(rng, p, (m, m)), -1) + np.eye(m, dtype=np.int64)
    upper = np.triu(uniform_residues(rng, p, (m, n)))
    k = min(m, n)
    upper[np.arange(k), np.arange(k)] = rng.integers(1, p, size=k)
    upper[zero_diagonal, zero_diagonal] = 0
    return _mul_mod(lower, upper, p)


def square_cases(p):
    """The panel shapes of the square step, by name: every leading block
    factors (dense, with rows below every panel); a pivot that becomes 0
    after elimination with a nonzero entry below it, so the panel swaps;
    zero columns inside panels; and a wide matrix, whose panels run out of
    rows before columns."""
    rng = np.random.default_rng(p % 1000)
    # U's diagonal zero at j makes column j of the Schur complement zero
    # below row j; one entry bumped four rows down becomes its pivot
    swap = planted_lu(rng, p, 90, 75, zero_diagonal=[2, 40])
    swap[[6, 44], [2, 40]] = (swap[[6, 44], [2, 40]] + 1) % p
    zero_columns = planted_lu(rng, p, 90, 75)
    zero_columns[:, [5, 37]] = 0
    return {"dense": planted_lu(rng, p, 90, 75), "swap": swap,
            "zero columns": zero_columns, "few rows": planted_lu(rng, p, 45, 75)}


def recorded_echelon(a, p, leaf):
    """_echelon of a copy of a at the given leaf, asked for each panel's U
    inverse as kernel_basis asks, with every _square result, every
    _pivot_loop result (with the panel's first row and end column) and
    every _forward call recorded."""
    got, u_inverses = a.copy(), []
    log = {"square": [], "loop": [], "forward": []}
    real_square, real_loop, real_forward = (
        modlinalg._square, modlinalg._pivot_loop, modlinalg._forward)

    def square(b, p):
        results = real_square(b, p)
        log["square"].extend(results)
        return results

    def loop(a, p, row0, end, c0, c1):
        cols, inverse = real_loop(a, p, row0, end, c0, c1)
        log["loop"].append((row0, c1, list(cols), inverse.copy()))
        return cols, inverse

    def forward(steps, p):
        for _, row, piv, inverse, x in steps:
            log["forward"].append((row, list(piv), x.shape[1], inverse.copy()))
        return real_forward(steps, p)

    with mock.patch.object(modlinalg, "_LEAF", leaf), \
            mock.patch.object(modlinalg, "_square", square), \
            mock.patch.object(modlinalg, "_pivot_loop", loop), \
            mock.patch.object(modlinalg, "_forward", forward):
        piv = _echelon(got, p, u_inverses)
    return got, piv, u_inverses, log


def unit_lower(t):
    """The unit-lower triangle whose multipliers are t's strictly lower part."""
    return np.tril(t.astype(np.int64), -1) + np.eye(len(t), dtype=np.int64)


def assert_inverts(t, inverse, p):
    assert (_mul_mod(t, inverse, p) == np.eye(len(t), dtype=np.int64)).all()


def assert_parked_inverses(got, piv, u_inverses, log, p):
    """Each panel's U inverse inverts the U block its pivots leave, the
    panels' pivot rows following one another; each L^-1 that _forward is
    given inverts the unit-lower triangle parked on its pivots."""
    row = 0
    for inverse in u_inverses:
        k = len(inverse)
        assert_inverts(np.triu(got[row:row + k, piv[row:row + k]]), inverse, p)
        row += k
    assert row == len(piv)
    for row, cols, _, given in log["forward"]:
        assert_inverts(unit_lower(got[row:row + len(cols), cols]), given, p)


class TestLoopInverse:
    @pytest.mark.parametrize("p", [3, 101, 2147483647])
    @pytest.mark.parametrize("case", ["swap", "zero columns"])
    def test_each_loop_panel_returns_its_pivots_l_inverse(self, p, case):
        # the one-pivot loop returns the inverse of the unit-lower triangle
        # it parks on its pivots.  Cut after the first loop panel that finds
        # pivots, the matrix leaves that panel no columns to its right: no
        # _forward follows it, so only its own result shows its L^-1.  At
        # leaf 1 a zero column is a panel without live rows, and the loop
        # may find no pivots at all
        a = square_cases(p)[case]
        cuts = 0
        for leaf in (1, 3, 8, 32):
            runs = [recorded_echelon(a, p, leaf)]
            end = next((c1 for _, c1, cols, _ in runs[0][3]["loop"] if cols), None)
            if end is not None:
                runs.append(recorded_echelon(a[:, :end], p, leaf))
                last = runs[1][3]["loop"][-1]
                assert last[1] == end and last[2]
                assert all(cols != last[2] for _, cols, _, _ in runs[1][3]["forward"])
                cuts += 1
            for got, _, _, log in runs:
                for row0, _, cols, inverse in log["loop"]:
                    k = len(cols)
                    assert inverse.shape == (k, k)
                    assert_inverts(unit_lower(got[row0:row0 + k, cols]), inverse, p)
        assert cuts >= 3


class TestLeafInverses:
    def test_each_leaf_triangle_is_inverted_once(self):
        # 200 columns at leaf 8 make 25 panels.  A panel that finds pivots
        # inverts its pivots' triangle once: the square step makes L^-1 as
        # it factors the leading block, and a panel that falls back to the
        # one-pivot loop makes it beside the panel as it goes.  Either
        # inverse inverts the L the factorization leaves on those pivots.
        # The zeroed rows and columns send most panels of the first matrix
        # to the loop; the second takes the square step everywhere
        rng = np.random.default_rng(4)
        p = F.p
        paths = set()
        for a in (product_with_zeros(rng, p, 200, 200, 150), planted_lu(rng, p, 200, 200)):
            want, piv_want = reference_lu(a, p)
            calls = []
            real_square, real_loop = modlinalg._square, modlinalg._pivot_loop

            def square(b, p):
                results = real_square(b, p)
                for result in results:
                    if result is not None:
                        calls.append(("square", result[0].copy(), result[1]))
                return results

            def loop(a, p, row0, end, c0, c1):
                cols, inverse = real_loop(a, p, row0, end, c0, c1)
                if cols:
                    t = a[row0:row0 + len(cols), cols]
                    calls.append(("loop", t, inverse.copy()))
                return cols, inverse

            with mock.patch.object(modlinalg, "_LEAF", 8), \
                    mock.patch.object(modlinalg, "_square", square), \
                    mock.patch.object(modlinalg, "_pivot_loop", loop):
                piv = _echelon(a, p)
            assert piv == piv_want
            assert (a == want).all()
            assert len({t.tobytes() for _, t, _ in calls}) == len(calls) > 1
            assert len(calls) == len({c // 8 for c in piv})
            row = 0
            for path, t, inverse in calls:
                k = len(t)
                rows, cols = slice(row, row + k), piv[row:row + k]
                assert (t == a[rows, cols]).all()
                assert_inverts(unit_lower(a[rows, cols]), inverse, p)
                paths.add(path)
                row += k
            assert row == len(piv)
        assert paths == {"square", "loop"}


class TestForwardStep:
    @pytest.mark.parametrize("m, n, k", [(200, 200, 150), (60, 44, 44)])
    def test_one_forward_step_per_panel_and_kernel_block(self, m, n, k):
        # at leaf 8 a panel that finds pivots runs one _forward on the
        # columns right of them when there are any: right of its leading
        # block, given that block's L^-1, when the block factors; right of
        # the panel otherwise, given the L^-1 the one-pivot loop made.
        # kernel_basis runs the same factorization and no _forward of its
        # own.  (60, 44, 44) finds pivots in its last panel, which has
        # nothing right of it
        rng = np.random.default_rng(4)
        p = F.p
        a = product_with_zeros(rng, p, m, n, k)
        log = []
        real_forward = modlinalg._forward

        def forward(steps, p):
            for _, row, piv, inverse, x in steps:
                given = inverse.shape == (len(piv), len(piv))
                log.append((row, list(piv), x.shape[1], given))
            return real_forward(steps, p)

        with mock.patch.object(modlinalg, "_LEAF", 8), \
                mock.patch.object(modlinalg, "_forward", forward):
            piv = _echelon(a.copy(), p)
            factored = list(log)
            ker = kernel_basis(ModMatrix(F, a, _trusted=True))
        assert log == 2 * factored
        calls = iter(factored)
        row = 0
        for c0 in sorted({c // 8 * 8 for c in piv}):
            cols = [c for c in piv if c0 <= c < c0 + 8]
            square = cols == list(range(c0, c0 + len(cols)))
            if c0 + 8 < n or square and cols[-1] + 1 < n:
                assert next(calls) in [(row, cols, n - cols[-1] - 1, True),
                                       (row, cols, n - min(c0 + 8, n), True)]
            row += len(cols)
        assert next(calls, None) is None
        assert ker.cols == n - len(piv) > 0
        assert not _mul_mod(a, ker.array, p).any()


class TestSquarePanels:
    @pytest.mark.parametrize("p", [3, 101, 2147483647])
    @pytest.mark.parametrize("case", ["dense", "swap", "zero columns", "few rows"])
    def test_matches_reference(self, p, case):
        a = square_cases(p)[case]
        want, piv_want = reference_lu(a, p)
        kernel_want = reference_kernel(a, p)
        for leaf in (1, 3, 8, 32):
            got, piv, u_inverses, log = recorded_echelon(a, p, leaf)
            assert piv == piv_want
            assert (got == want).all()
            assert_parked_inverses(got, piv, u_inverses, log, p)
            with mock.patch.object(modlinalg, "_LEAF", leaf):
                kernel = kernel_basis(ModMatrix(PrimeField(p), a, _trusted=True)).array
            assert (kernel == kernel_want).all()
            fell_back = None in log["square"]
            if case == "dense":
                # every panel factors its block; none runs the one-pivot loop
                assert not fell_back and not log["loop"]
                assert len(log["square"]) == len(u_inverses) == -(-75 // leaf)
            elif case == "swap" or case == "zero columns" and leaf > 1:
                # at leaf 1 a zero column has no live rows, so no block
                assert fell_back
            elif case == "few rows" and leaf in (8, 32):
                assert any(len(r[0]) < leaf for r in log["square"] if r is not None)

    def test_square_step_inverts_both_triangles(self):
        rng = np.random.default_rng(7)
        for p in (3, 101, 2147483647):
            b = planted_lu(rng, p, 32, 32)
            (lu, l_inv, u_inv), = modlinalg._square(b[None], p)
            want, _ = reference_lu(b, p)
            assert (lu == want).all()
            assert_inverts(unit_lower(lu), l_inv, p)
            assert_inverts(np.triu(lu), u_inv, p)

    def test_generic_evaluation_matrix_takes_the_square_path(self):
        # the first-nonzero rule finds a generic evaluation matrix's pivots
        # on its diagonal, so a fall back to the one-pivot loop is a defect
        from chopshop.formulas import CaseParams
        from chopshop.pointideals import evaluation_matrix, sample_points

        for n, r in ((2, 280), (3, 150)):
            config = sample_points(n, r, F, 0)
            mat = evaluation_matrix(config, CaseParams(n, r).d)
            results = []
            real = modlinalg._square

            def square(b, p):
                results.extend(real(b, p))
                return results[len(results) - len(b):]

            with mock.patch.object(modlinalg, "_square", square):
                kernel = kernel_basis(mat)
            assert len(results) == -(-r // modlinalg._LEAF)
            assert None not in results
            assert kernel.cols == mat.cols - r


def lockstep_batch(p):
    """Matrices of mixed shapes for one lockstep batch, as int32: the square
    step's four cases (dense, a swap, zero columns inside panels, few
    rows), a wide and a tall rank-deficient product, a staircase, a zero
    matrix and a single row."""
    rng = np.random.default_rng(p % 1000 + 11)
    cases = square_cases(p)
    batch = [cases["dense"], cases["swap"], cases["zero columns"], cases["few rows"],
             product_with_zeros(rng, p, 40, 130, 25), product_with_zeros(rng, p, 140, 50, 33),
             staircase(rng, p, 70, 100), np.zeros((20, 45), dtype=np.int64),
             uniform_residues(rng, p, (1, 37))]
    return [a.astype(np.int32) for a in batch]


class TestLockstep:
    @pytest.mark.parametrize("p", [3, 101, 2147483647])
    def test_batch_equals_one_at_a_time(self, p):
        # a batch leaves each matrix the pivots, parked LU, U inverses and
        # kernel that it gets alone, at every leaf; its square steps stack
        # the blocks of several matrices, and blocks whose pivot vanishes
        # (loop panels) sit beside blocks that factor
        batch = lockstep_batch(p)
        field = PrimeField(p)
        real = modlinalg._square
        for leaf in (1, 3, 8, 32):
            stacks = []

            def square(b, p):
                results = real(b, p)
                stacks.append([r is None for r in results])
                return results

            with mock.patch.object(modlinalg, "_LEAF", leaf):
                alone = []
                for a in batch:
                    got, u_inverses = a.copy(), []
                    piv = _echelon(got, p, u_inverses)
                    alone.append((got, piv, u_inverses,
                                  kernel_basis(ModMatrix(field, a, _trusted=True)).array))
                together = [a.copy() for a in batch]
                u_together = [[] for _ in batch]
                with mock.patch.object(modlinalg, "_square", square):
                    pivots = modlinalg._echelons(together, p, u_together)
                kernels = modlinalg._kernels([a.copy() for a in batch], p)
            for (got, piv, u_inverses, kernel), a, piv_b, u_b, kernel_b in zip(
                    alone, together, pivots, u_together, kernels):
                assert piv_b == piv
                assert (a == got).all()
                assert len(u_b) == len(u_inverses)
                assert all((x == y).all() for x, y in zip(u_b, u_inverses))
                assert kernel_b.dtype == np.int32 and (kernel_b == kernel).all()
            assert max(len(stack) for stack in stacks) > len(batch) // 2
            assert any(any(stack) and not all(stack) for stack in stacks)


class TestEchelon:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_blocked_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.choice([101, 1009, 2147483647]))
        m, n = (int(v) for v in rng.integers(1, 40, size=2))
        a = rng.integers(0, p, size=(m, n), dtype=np.int64).astype(np.int32)
        # sprinkle zero columns/rows to exercise pivot skips
        if m > 2:
            a[rng.integers(0, m)] = 0
        if n > 2:
            a[:, rng.integers(0, n)] = 0
        want, piv_want = reference_lu(a, p)
        for leaf in (1, 3, 8, 32):
            got = a.copy()
            with mock.patch.object(modlinalg, "_LEAF", leaf):
                piv = _echelon(got, p)
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
        want, piv_want = reference_lu(a, p)
        for leaf in (1, 3, 8, 32):
            got = a.copy()
            with mock.patch.object(modlinalg, "_LEAF", leaf):
                piv = _echelon(got, p)
            assert piv == piv_want
            assert (got == want).all()


    @pytest.mark.parametrize("p", [3, 101, 2147483647])
    def test_zero_panel_between_pivoting_panels(self, p):
        # columns 32:64 are zero, so that 32-column panel finds no pivot and
        # neither solves nor updates; the panels on either side do, and the
        # last one is 13 columns wide
        rng = np.random.default_rng(p % 1000)
        a = product_with_zeros(rng, p, 90, 32 * 3 + 13, 70)
        a[:, 32:64] = 0
        want, piv_want = reference_lu(a, p)
        assert any(c < 32 for c in piv_want) and any(c >= 64 for c in piv_want)
        for leaf in (1, 3, 8, 32):
            got = a.copy()
            with mock.patch.object(modlinalg, "_LEAF", leaf):
                piv = _echelon(got, p)
            assert piv == piv_want
            assert (got == want).all()

    @pytest.mark.parametrize("p", [3, 101, 2147483647])
    @pytest.mark.parametrize("m, n", [(120, 150), (200, 90), (60, 200)])
    def test_staircase_matches_reference(self, p, m, n):
        # on a staircase the panels and updates trim rows, which a dense
        # matrix never lets them do
        rng = np.random.default_rng(m * 1000 + n + p % 1000)
        a = staircase(rng, p, m, n)
        want, piv_want = reference_lu(a, p)
        real = modlinalg._live_rows
        for leaf in (1, 3, 8, 32):
            got = a.copy()
            trims = []

            def recording(x):
                live = real(x)
                trims.append(live < x.shape[0])
                return live

            with mock.patch.object(modlinalg, "_LEAF", leaf), \
                    mock.patch.object(modlinalg, "_live_rows", recording):
                piv = _echelon(got, p)
            assert piv == piv_want
            assert (got == want).all()
            assert any(trims)


class TestInt32Overflow:
    # int32 matrices whose entries sit at the residues where a product of
    # two of them is largest: every product of a panel's one-pivot loop
    # must be formed in int64
    PRIMES = [2147483647, 2147483629, 65537, 7]

    @staticmethod
    def assert_matches_reference(a, p):
        want, piv_want = reference_lu(a, p)
        for leaf in (1, 3, 8, 32):
            got = a.copy()
            with mock.patch.object(modlinalg, "_LEAF", leaf):
                assert _echelon(got, p) == piv_want
            assert got.dtype == np.int32
            assert (got == want).all()

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("m, n", [(70, 90), (120, 80)])
    def test_edge_residues_match_reference(self, p, m, n):
        # every fourth column a multiple of the column three before it, and
        # a zero row, so panels also skip columns and stop short
        rng = np.random.default_rng(m * 1000 + n + p % 1000)
        a = edge_residues(rng, p, (m, n))
        repeated = np.arange(3, n, 4)
        a[:, repeated] = a[:, repeated - 3] * ((p + 1) // 2) % p
        a[m // 2] = 0
        self.assert_matches_reference(a.astype(np.int32), p)

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("m, n", [(120, 150), (200, 90)])
    def test_edge_staircase_matches_reference(self, p, m, n):
        rng = np.random.default_rng(m * 1000 + n + p % 1000)
        self.assert_matches_reference(staircase(rng, p, m, n, edge_residues), p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_edge_kernel_matches_reference(self, p):
        rng = np.random.default_rng(p % 1000)
        a = staircase(rng, p, 60, 90, edge_residues)
        got = kernel_basis(ModMatrix(PrimeField(p), a, _trusted=True)).array
        assert got.dtype == np.int32
        assert (got == reference_kernel(a, p)).all()


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
        # every leaf width, so the back substitution runs over one panel
        # and over many
        rng = np.random.default_rng(p % 997)
        for m, n, k in [(290, 300, 290), (150, 200, 90), (60, 80, 80), (40, 30, 12),
                        (5, 9, 0)]:
            a = product_with_zeros(rng, p, m, n, k)
            want = reference_kernel(a, p)
            for leaf in (1, 3, 8, 32):
                with mock.patch.object(modlinalg, "_LEAF", leaf):
                    got = kernel_basis(ModMatrix(PrimeField(p), a, _trusted=True)).array
                assert (got == want).all()

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


class TestOneBlasThread:
    @staticmethod
    def counts(pools):
        return [get() for get, _ in pools]

    def test_pins_every_pool_and_restores(self, blas_pools):
        with one_blas_thread():
            assert self.counts(blas_pools) == [1] * len(blas_pools)
        assert self.counts(blas_pools) == [2] * len(blas_pools)

    def test_restores_when_the_block_raises(self, blas_pools):
        with pytest.raises(ZeroDivisionError):
            with one_blas_thread():
                assert self.counts(blas_pools) == [1] * len(blas_pools)
                1 / 0
        assert self.counts(blas_pools) == [2] * len(blas_pools)

    def test_pools_are_found_once(self, blas_pools, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the memory map was read again")

        monkeypatch.setattr(modlinalg, "open", refuse, raising=False)
        monkeypatch.setattr(modlinalg.ctypes, "CDLL", refuse)
        assert modlinalg._openblas_pools() == blas_pools
        with one_blas_thread():
            assert self.counts(blas_pools) == [1] * len(blas_pools)

    def test_scipy_pool_appears_once_imported(self):
        # a fresh process, since this one has imported scipy.linalg already
        code = ("from chopshop import modlinalg; before = len(modlinalg._openblas_pools()); "
                "import scipy.linalg; print(before, len(modlinalg._openblas_pools()))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": path}).stdout
        before, after = map(int, out.split())
        if not before:
            pytest.skip("no OpenBLAS in numpy")
        assert after == before + 1

    def test_no_op_without_openblas(self, blas_pools, monkeypatch):
        monkeypatch.setattr(modlinalg, "_openblas_pools", lambda: [])
        with one_blas_thread():
            assert self.counts(blas_pools) == [2] * len(blas_pools)
        assert self.counts(blas_pools) == [2] * len(blas_pools)
