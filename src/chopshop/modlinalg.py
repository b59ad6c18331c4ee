"""Exact dense linear algebra over a prime field F_p with p < 2**31.

Matrices are immutable int32 arrays with entries reduced to [0, p), and
the elimination works on int32 arrays too: every residue fits, in half the
bytes of int64.  Arithmetic is widened only where a product needs it, as
FFLAS-FFPACK does: a panel copies its few columns to int64 for its
one-pivot-at-a-time loop, and products run in float64.  Under NumPy 2 an
int32 array times a Python int stays int32 and wraps without a warning, so
no product of two residues is ever formed in int32.  The workhorse is an
in-place LU factorization in LAPACK getrf's convention: each multiplier
(entry times pivot inverse) is parked below its pivot, a unit-lower L, and
the pivot rows stay unscaled, U.  It is blocked right-looking LU, one
left-to-right pass over panels of at most 32 columns: eliminate the panel
one pivot at a time, then take its pivots to the columns right of it by
one forward step.  Pivoting is deterministic: the first row with a
nonzero entry, columns left to right, so the pivot columns are the column
rank profile.  Only ``kernel_basis`` scales pivot rows to unit pivots;
callers that need only a rank or the pivot columns skip that pass.

Two devices from delayed-reduction linear algebra (FFLAS-FFPACK) keep the
work in BLAS.  A product balances both operands to residues of least
absolute value and splits only the left one into 16-bit limbs, so a single
float64 product over up to 170 inner indices is exact at every p < 2**31
(``_mul_mod``), and the reduction mod p waits until it is done; an update
subtracts the product from its rows before that one reduction, and only the
result is converted back, straight into the int32 rows.  One forward
step (``_forward``) solves a block's pivot rows by the inverse of their
unit-lower triangle (``_lower_inverse``, by forward substitution on the
identity) as one product and updates the rows below (``_update``), once
per panel of ``_echelon`` and per 32-row block of ``kernel_basis``.

The elimination works only on live rows, read off the data: a panel on the
rows down to the last one nonzero in its columns, and each update on the
rows down to the last one with a nonzero multiplier.  This costs one scan
on a dense matrix and changes nothing else.  On a staircase, where each
column's nonzero rows lie within a top block that grows from left to
right, it is what makes the work shrink: a pivot row is the first nonzero
row at or below the current one, so it lies inside the block, row swaps
stay inside it, and multipliers are nonzero only inside it, so the
columns not yet eliminated stay a staircase.  The graded Macaulay matrix of
``pointideals.chopped_profile`` is one: its rows and its shift columns
descend in x_0's exponent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

_LIMB = float(1 << 16)  # limb base of the split left operand
_CHUNK = 170  # inner indices of one exact float64 product (see _mul_mod)
_LEAF = 32  # columns of one panel, eliminated one pivot at a time


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


class ModMatrix:
    """Immutable matrix over a prime field, held as int32 residues in [0, p).

    Untrusted input is reduced mod p in int64 before it is narrowed, so
    entries of any size or sign land on their residues; ``_trusted`` input
    is already reduced and is only narrowed (a copy unless it is an int32
    array that owns its data).
    """

    __slots__ = ("field", "array")

    def __init__(self, field: PrimeField, array, *, _trusted: bool = False):
        if not _trusted:
            array = np.mod(np.asarray(array, dtype=np.int64), field.p)
        arr = np.asarray(array, dtype=np.int32)
        if arr.ndim != 2:
            raise ValueError(f"need a 2-d array, got shape {arr.shape}")
        if arr.base is not None:
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


def _balanced(x: np.ndarray, p: int, out: np.ndarray) -> np.ndarray:
    """out <- x - p * rint(x / p), the residues of least absolute value of
    the integers x (int64 or float64, |x| <= 2**53 - p) as float64.  For
    large x one may be off by p, where x / p lies within the rounding
    error of x * (1/p) of a half-integer; operands below 2**47 never are."""
    np.multiply(x, 1.0 / p, out=out)
    np.rint(out, out=out)
    out *= -p
    out += x
    return out


def _residues(x: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """x mod p in [0, p) as int32, for float64 integers |x| <= 2**53 - p,
    written straight into ``out`` (the int32 minuend of an update) when
    given; x is overwritten.  The floored quotient x * (1/p) is off by at
    most one (its absolute error is below 2/p), and q * p and x - q * p
    stay exact; one correction each way fixes it."""
    q = np.multiply(x, 1.0 / p)
    np.floor(q, out=q)
    q *= p
    x -= q
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)
    if out is None:
        return x.astype(np.int32)
    out[...] = x
    return out


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int, c: np.ndarray | None = None) -> np.ndarray:
    """Exact (a @ b) mod p, as int32, for reduced integer operands; given a
    reduced minuend c, c <- (c - a @ b) mod p in place instead, and c is
    returned.

    Both operands are balanced to residues of least absolute value, at most
    (p - 1) / 2 < 2**30, and only a is split, a = ah * 2**16 + al with
    |ah| <= 2**14 and |al| <= 2**15, so the one float64 product
    [ah | al] @ [(2**16 b mod p) ; b] is a @ b up to multiples of p.  Each
    of its terms is below 2**14 * 2**30 + 2**15 * 2**30 = 3 * 2**44, and a
    chunk of ``_CHUNK`` = 170 inner indices sums below 170 * 3 * 2**44,
    which is 2**53 - 2**45, so every dot product is exact with room for a
    minuend and ``_residues`` (a slack of 2p).  The bound holds for every
    p < 2**31, so every prime takes the same chunks, and the float64
    temporaries do not grow as p shrinks.  Over several chunks each product
    is balanced before it is added.  Only the sum is reduced to [0, p) and
    converted to int32.
    """
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ValueError(f"inner dimensions differ: {k} vs {k2}")
    acc = None
    for start in range(0, k or 1, _CHUNK):  # k = 0 makes one zero product
        w = min(_CHUNK, k - start)
        split = np.empty((m, 2 * w))
        ah, al = split[:, :w], split[:, w:]
        _balanced(a[:, start:start + w], p, al)
        np.rint(np.multiply(al, 1.0 / _LIMB, out=ah), out=ah)
        al -= ah * _LIMB
        stack = np.empty((2 * w, n))
        _balanced(b[start:start + w], p, stack[w:])
        _balanced(stack[w:] * _LIMB, p, stack[:w])
        prod = split @ stack
        if w < k:
            prod = _balanced(prod, p, np.empty_like(prod))
        if acc is not None:
            prod += acc
        acc = prod
    if c is not None:
        np.subtract(c, acc, out=acc)
    return _residues(acc, p, c)


def _lower_inverse(t: np.ndarray, p: int) -> np.ndarray:
    """Inverse of the unit lower-triangular matrix with t's strictly lower
    part: forward substitution on the identity, one column at a time.  Row
    j of the result is zero right of column j, so only columns up to j are
    touched."""
    k = t.shape[0]
    x = np.eye(k, dtype=np.int64)
    for j in range(k):
        f = t[j + 1:, j]
        if f.any():
            x[j + 1:, :j + 1] = (x[j + 1:, :j + 1] - f[:, None] * x[j, :j + 1]) % p
    return x


def _live_rows(x: np.ndarray) -> int:
    """Number of rows of x down to its last nonzero one (0 if x is zero)."""
    nonzero = np.flatnonzero(x.any(axis=1))
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def _update(a: np.ndarray, p: int, row: int, piv: list[int], x: np.ndarray,
            c: np.ndarray) -> None:
    """c <- (c - L x) mod p for L the multipliers parked in columns ``piv``
    of c's rows of ``a``, from ``row`` on: one modular product on the rows
    down to the last one with a nonzero multiplier.  Between the first and
    last pivot column those rows hold only multipliers and zeros (a column
    without a pivot is zero below its pivot rows), so the live rows are read
    off that slice, and only they are gathered."""
    live = _live_rows(a[row:row + len(c), piv[0]:piv[-1] + 1])
    if live:
        _mul_mod(a[row:row + live, piv], x, p, c[:live])


def _forward(a: np.ndarray, p: int, row: int, piv, x: np.ndarray) -> None:
    """x <- L^-1 x mod p in place, for L the unit-lower multipliers parked
    in columns ``piv`` of ``a`` from ``row`` on."""
    k = len(piv)
    x[:k] = _mul_mod(_lower_inverse(a[row:row + k, piv], p), x[:k], p)
    _update(a, p, row + k, piv, x[:k], x[k:])


def _echelon(a: np.ndarray, p: int) -> list[int]:
    """In-place LU factorization with row swaps; returns the pivot columns.

    Afterwards the first len(pivots) rows are U, an echelon form that keeps
    its pivot values (each pivot row unscaled), and L's multipliers, each
    row's entry times the pivot's inverse, sit below the pivots.  Row swaps
    move whole rows of ``a``, parked multipliers included.  Identical to
    one-pivot-at-a-time elimination; the panels only batch the work on the
    columns right of each one into modular products.

    One left-to-right pass over panels of at most ``_LEAF`` columns (the
    tests shrink it to run many panels).  A panel works only on the rows
    below the pivots found so far, down to the last one that is nonzero in
    its columns: a pivot is the first nonzero entry at or below the current
    row, and a row changes only when its multiplier is nonzero, so rows
    below stay zero in the panel's columns throughout.  It copies those
    rows of its columns to int64, where a product of two residues fits,
    eliminates them one pivot at a time, swapping whole rows in both the
    copy and ``a``, and writes the reduced copy back.  Then one
    ``_forward`` takes the panel's pivots to the columns right of it.

    Row swaps, pivots and D^-1 U (D the pivot values) match elimination with
    unit pivot rows: a row below a pivot is updated by (entry / pivot) times
    the unscaled row, the same numbers as the entry times the scaled row.
    """
    m, n = a.shape
    piv: list[int] = []
    for c0 in range(0, n, _LEAF):
        row0 = len(piv)
        if row0 == m:
            break
        c1 = min(c0 + _LEAF, n)
        end = row0 + _live_rows(a[row0:, c0:c1])
        panel = a[row0:end, c0:c1].astype(np.int64)
        found: list[int] = []  # local pivot columns
        row = 0
        for lc in range(c1 - c0):
            if row == len(panel):
                break
            nz = panel[row:, lc].nonzero()[0]
            if nz.size == 0:
                continue
            rpiv = row + int(nz[0])
            if rpiv != row:
                panel[[row, rpiv]] = panel[[rpiv, row]]
                a[[row0 + row, row0 + rpiv]] = a[[row0 + rpiv, row0 + row]]
            f = panel[row + 1:, lc]
            f *= pow(int(panel[row, lc]), -1, p)
            f %= p
            sub = panel[row + 1:, lc + 1:]
            sub -= f[:, None] * panel[row, lc + 1:]
            sub %= p
            found.append(lc)
            row += 1
        a[row0:end, c0:c1] = panel
        if not found:
            continue
        cols = [c0 + lc for lc in found]
        if c1 < n:
            _forward(a, p, row0, cols, a[row0:, c1:])
        piv += cols
    return piv


def rank(m: ModMatrix) -> int:
    """Rank via forward elimination."""
    return len(_echelon(m.array.copy(), m.field.p))


def kernel_basis(m: ModMatrix) -> ModMatrix:
    """Right null space basis, one column per free column of the input.

    The basis is in echelon-complement form: each vector has a 1 in its
    free coordinate, the pivot coordinates filled from the reduced echelon
    form, and zeros in the other free coordinates.  Deterministic.  The
    only place that scales U's pivot rows to unit pivots.
    """
    p = m.field.p
    a = m.array.copy()
    piv = _echelon(a, p)
    free = np.setdiff1d(np.arange(m.cols, dtype=np.int64), piv)
    basis = np.zeros((m.cols, free.size), dtype=np.int32)
    basis[free, np.arange(free.size)] = 1
    r = len(piv)
    if r and free.size:
        # reduced echelon form on the free columns: U11^-1 times them, for
        # U11 the pivot columns with rows scaled to unit pivots, in w as the
        # lower triangle it becomes with rows and columns reversed
        inv = [pow(int(v), -1, p) for v in a[np.arange(r), piv][::-1]]
        w = a[r - 1::-1, np.concatenate([piv[::-1], free])]
        w = (w * np.array(inv, dtype=np.int64)[:, None] % p).astype(np.int32)
        for i in range(0, r, _LEAF):
            _forward(w, p, i, range(i, min(i + _LEAF, r)), w[i:, r:])
        basis[piv] = (p - w[::-1, r:]) % p
    return ModMatrix(m.field, basis, _trusted=True)


def in_span(m: ModMatrix, v) -> bool:
    """Whether v lies in the column span of m.

    One elimination of the augmented matrix [m | v]: the pivots are the
    column rank profile, so the appended column is a pivot exactly when v
    lies outside the span.
    """
    vec = np.mod(np.asarray(v, dtype=np.int64), m.field.p).astype(np.int32)
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
