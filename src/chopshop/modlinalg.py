"""Exact dense linear algebra over a prime field F_p with p < 2**31.

Matrices are immutable int64 arrays with entries reduced to [0, p).  The
workhorse is a recursive Gaussian elimination that halves the columns:
eliminate the left half, replay it on the right half (a triangular solve
on the new pivot rows, itself recursive, then one update of the rows
below), and recurse on the right half below the new pivots.  Only blocks
of at most 32 columns are eliminated one pivot at a time; the rest of the
work is exact modular matrix products (16-bit limb split, so every float64
dot product stays below 2**53 and BLAS can be used).  Pivoting is
deterministic: the first row with a nonzero entry, columns left to right,
so the pivot columns are the column rank profile.

Two devices from delayed-reduction linear algebra (FFLAS-FFPACK) keep the
work in BLAS.  A product's three limb sums are recombined and reduced in
float64, by Horner steps of 2**16, each reduction a floored multiply by
1/p with one correction; only the result is converted to int64.  A
triangular solve's leaves of at most 32 rows are inverted on the identity
by forward substitution, and the inverse is applied to the whole
right-hand side as one modular product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

_LIMB = 1 << 16
_MUL_CHUNK = 1 << 18  # inner-dimension chunk keeping limb products exact
_LEAF = 32  # widest column block eliminated one pivot at a time


@functools.cache
def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3):
        if p % q == 0:
            return p == q
    f = 5
    while f * f <= p:
        if p % f == 0 or p % (f + 2) == 0:
            return False
        f += 6
    return True


@dataclass(frozen=True)
class PrimeField:
    """Odd prime field with modulus below 2**31."""

    p: int

    def __post_init__(self):
        p = self.p
        if not (2 < p < 2**31):
            raise ValueError(f"modulus must satisfy 2 < p < 2**31, got {p}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)


class ModMatrix:
    """Immutable matrix over a prime field."""

    __slots__ = ("field", "array")

    def __init__(self, field: PrimeField, array, *, _trusted: bool = False):
        arr = np.asarray(array, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"need a 2-d array, got shape {arr.shape}")
        if not _trusted:
            arr = np.mod(arr, field.p)
        elif arr.base is not None:
            arr = arr.copy()
        arr.setflags(write=False)
        self.field = field
        self.array = arr

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def __repr__(self):
        return f"ModMatrix(p={self.field.p}, shape={self.shape})"


def _reduce(x: np.ndarray, p: int, pinv: float) -> np.ndarray:
    """In place, x <- x mod p for float64 integers 0 <= x < 2**53.

    The floored quotient x * (1/p) is off by at most one for p >= 3 (its
    relative error is below 2**-52, so its absolute error is below 2/p),
    and q * p and x - q * p stay exact; one correction each way fixes it.
    """
    q = x * pinv
    np.floor(q, out=q)
    q *= p
    x -= q
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)
    return x


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for reduced int64 operands.

    Entries split into 16-bit limbs (high limbs below 2**15 since p <
    2**31), and the three limb products run in float64: each dot product
    over at most ``_MUL_CHUNK`` terms stays below 2**52.  The limb sums
    are recombined as ((hh mod p) * 2**16 + mid mod p) * 2**16 + ll mod p,
    every partial sum below 2**53, so only the result is converted.
    """
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ValueError(f"inner dimensions differ: {k} vs {k2}")
    if k == 0:
        return np.zeros((m, n), dtype=np.int64)
    pinv = 1.0 / p
    out = None
    for start in range(0, k, _MUL_CHUNK):
        stop = min(start + _MUL_CHUNK, k)
        ah, al = np.divmod(a[:, start:stop], _LIMB)
        bh, bl = np.divmod(b[start:stop, :], _LIMB)
        ah = ah.astype(np.float64)
        al = al.astype(np.float64)
        bh = bh.astype(np.float64)
        bl = bl.astype(np.float64)
        hh = ah @ bh
        ll = al @ bl
        mid = (ah + al) @ (bh + bl)
        mid -= hh
        mid -= ll
        term = _reduce(hh, p, pinv)
        term *= _LIMB
        term += mid
        _reduce(term, p, pinv)
        term *= _LIMB
        term += ll
        _reduce(term, p, pinv)
        if out is None:
            out = term
        else:
            out += term
            np.subtract(out, p, out=out, where=out >= p)
    return out.astype(np.int64)


def _lower_inverse(t: np.ndarray, inv: np.ndarray, p: int) -> np.ndarray:
    """Inverse of the lower-triangular matrix with t's strictly lower part
    and diagonal entries whose inverses are ``inv``: forward substitution
    on the identity, one row at a time.  Row j of the result is zero right
    of column j, so only columns up to j are touched."""
    k = t.shape[0]
    x = np.eye(k, dtype=np.int64)
    for j in range(k):
        if inv[j] != 1:
            x[j, :j + 1] = x[j, :j + 1] * int(inv[j]) % p
        f = t[j + 1:, j]
        if f.any():
            x[j + 1:, :j + 1] = (x[j + 1:, :j + 1] - f[:, None] * x[j, :j + 1]) % p
    return x


def _solve_lower(t: np.ndarray, b: np.ndarray, inv: np.ndarray, p: int,
                 leaf: int) -> None:
    """In place, b <- t^-1 b for a lower-triangular t whose diagonal entries
    have the inverses ``inv`` (t's own diagonal is not read).

    Halves t recursively: solve the top rows, subtract their contribution
    from the bottom rows with one modular product, solve the bottom rows.
    A block of at most ``leaf`` rows is inverted and applied to b as one
    modular product.
    """
    k = t.shape[0]
    if k <= leaf:
        b[...] = _mul_mod(_lower_inverse(t, inv, p), b, p)
        return
    h = k // 2
    _solve_lower(t[:h, :h], b[:h], inv[:h], p, leaf)
    lower = t[h:, :h]
    if lower.any():
        b[h:] = (b[h:] - _mul_mod(lower, b[:h], p)) % p
    _solve_lower(t[h:, h:], b[h:], inv[h:], p, leaf)


def _replay(a: np.ndarray, p: int, row0: int, piv: list[int], c0: int, c1: int,
            inv: np.ndarray, leaf: int) -> None:
    """Apply the eliminations of the pivots ``piv`` (pivot rows row0, row0+1,
    ...) to columns c0:c1: a triangular solve on the pivot rows, then one
    modular product for the rows below."""
    k = len(piv)
    top = a[row0:row0 + k, c0:c1]
    _solve_lower(np.tril(a[row0:row0 + k, piv]), top, inv[row0:row0 + k], p, leaf)
    lower = a[row0 + k:, piv]
    if lower.any():
        a[row0 + k:, c0:c1] = (a[row0 + k:, c0:c1] - _mul_mod(lower, top, p)) % p


def _eliminate(a: np.ndarray, p: int, row0: int, c0: int, c1: int,
               inv: np.ndarray, leaf: int) -> list[int]:
    """Eliminate columns c0:c1 of the rows from row0 down; returns the pivot
    columns.

    Pivot rows keep their pivot value on the diagonal (its inverse goes to
    ``inv``) and are scaled right of it; the multipliers stay parked below
    each pivot.  Row swaps move whole rows of ``a``.  Columns past c1 are
    not touched.
    """
    m = a.shape[0]
    if row0 == m:
        return []
    if c1 - c0 > leaf:
        mid = (c0 + c1) // 2
        left = _eliminate(a, p, row0, c0, mid, inv, leaf)
        if left:
            _replay(a, p, row0, left, mid, c1, inv, leaf)
        return left + _eliminate(a, p, row0 + len(left), mid, c1, inv, leaf)
    block = a[:, c0:c1]
    piv: list[int] = []
    row = row0
    for lc in range(c1 - c0):
        if row == m:
            break
        nz = block[row:, lc].nonzero()[0]
        if nz.size == 0:
            continue
        rpiv = row + int(nz[0])
        if rpiv != row:
            a[[row, rpiv]] = a[[rpiv, row]]
        pinv = inv[row] = pow(int(block[row, lc]), -1, p)
        if pinv != 1:
            block[row, lc + 1:] = block[row, lc + 1:] * pinv % p
        f = block[row + 1:, lc]
        hit = f.nonzero()[0]
        if hit.size and lc + 1 < block.shape[1]:
            rows = hit + row + 1
            block[rows, lc + 1:] = (
                block[rows, lc + 1:] - f[hit, None] * block[row, lc + 1:]
            ) % p
        piv.append(c0 + lc)
        row += 1
    return piv


def _echelon(a: np.ndarray, p: int, *, leaf: int = _LEAF) -> list[int]:
    """In-place forward elimination to row echelon form with unit pivots.

    Returns the pivot columns.  Identical to one-pivot-at-a-time
    elimination; the recursion only batches the work on columns right of a
    half into modular products.  ``leaf`` is the widest block eliminated one
    pivot at a time (an argument for the tests, which shrink it to run many
    levels).
    """
    m, ncols = a.shape
    inv = np.ones(m, dtype=np.int64)
    piv = _eliminate(a, p, 0, 0, ncols, inv, leaf)
    if piv:
        a[:, piv] = np.triu(a[:, piv], 1) + np.eye(m, len(piv), dtype=np.int64)
    return piv


def rank(m: ModMatrix) -> int:
    """Rank via forward elimination."""
    a = m.array.copy()
    return len(_echelon(a, m.field.p))


def kernel_basis(m: ModMatrix) -> ModMatrix:
    """Right null space basis, one column per free column of the input.

    The basis is in echelon-complement form: each vector has a 1 in its
    free coordinate, the pivot coordinates filled from the reduced echelon
    form, and zeros in the other free coordinates.  Deterministic.
    """
    p = m.field.p
    a = m.array.copy()
    piv = _echelon(a, p)
    free = np.setdiff1d(np.arange(m.cols, dtype=np.int64), piv)
    basis = np.zeros((m.cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    r = len(piv)
    if r and free.size:
        # reduced echelon form on the free columns: U11^-1 times them, for
        # the unit upper triangle U11 on the pivot columns, solved as the
        # lower triangle it becomes with rows and columns reversed
        reduced = a[:r, free]
        u11 = a[:r, piv]
        _solve_lower(u11[::-1, ::-1], reduced[::-1], np.ones(r, dtype=np.int64),
                     p, _LEAF)
        basis[piv] = (p - reduced) % p
    return ModMatrix(m.field, basis, _trusted=True)


def in_span(m: ModMatrix, v) -> bool:
    """Whether v lies in the column span of m.

    One elimination of the augmented matrix [m | v]: the pivots are the
    column rank profile, so the appended column is a pivot exactly when v
    lies outside the span.
    """
    vec = np.mod(np.asarray(v, dtype=np.int64), m.field.p)
    if vec.ndim == 1:
        vec = vec[:, None]
    if vec.shape != (m.rows, 1):
        raise ValueError(f"vector shape {vec.shape} does not match {m.rows} rows")
    return m.cols not in _echelon(np.hstack([m.array, vec]), m.field.p)


def matmul(a: ModMatrix, b: ModMatrix) -> ModMatrix:
    """Exact modular matrix product."""
    if a.field.p != b.field.p:
        raise ValueError("mixed moduli")
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    return ModMatrix(a.field, _mul_mod(a.array, b.array, a.field.p), _trusted=True)
