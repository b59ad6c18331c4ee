"""Exact dense linear algebra over a prime field F_p with p < 2**31.

Matrices are immutable int32 arrays with entries reduced to [0, p), and
the elimination works on int32 arrays too: every residue fits, in half the
bytes of int64.  Arithmetic is widened only where a product needs it, as
FFLAS-FFPACK does: a leaf copies its few columns to int64 for its
one-pivot-at-a-time loop, and products run in float64.  Under NumPy 2 an
int32 array times a Python int stays int32 and wraps without a warning, so
no product of two residues is ever formed in int32.  The
workhorse is a recursive in-place LU factorization in LAPACK getrf's
convention: each multiplier (entry times pivot inverse) is parked below
its pivot, a unit-lower L, and the pivot rows stay unscaled, U.  It halves
the columns: eliminate the left half, replay it on the right half (a unit
lower-triangular solve on the new pivot rows, itself recursive, then one
update of the rows below), and recurse on the right half below the new
pivots.  Only blocks of at most 32 columns are eliminated one pivot at a
time; the rest of the work is exact modular matrix products, one float64
BLAS product for each chunk of their inner dimension.  Pivoting is
deterministic: the first row with a nonzero entry, columns left to right,
so the pivot columns are the column rank profile.  Only ``kernel_basis``
scales pivot rows to unit pivots; callers that need only a rank or the
pivot columns skip that pass.

Two devices from delayed-reduction linear algebra (FFLAS-FFPACK) keep the
work in BLAS.  A product balances both operands to residues of least
absolute value and splits only the left one into 16-bit limbs, so a single
float64 product over up to 170 inner indices is exact (``_mul_mod``) and
the reduction mod p waits until it is done; an update subtracts the
product from its rows before that one reduction, and only the result is
converted back, straight into the int32 rows.  The pivots a leaf finds
form a diagonal block of every later triangular solve over them; the
block is inverted on the identity by forward substitution once, when
first needed, kept for the rest of the elimination, and applied to the
whole right-hand side as one modular product.

The elimination works only on live rows, read off the data: a leaf on the
rows down to the last one nonzero in its columns, and each update on the
rows down to the last one with a nonzero multiplier.  This costs one scan
on a dense matrix and changes nothing else.  On a staircase, where each
column's nonzero rows lie within a top block that grows from left to
right, it is what makes the work shrink: a pivot row is the first nonzero
row at or below the current one, so it lies inside the block, row swaps
stay inside it, and multipliers are nonzero only inside it, so the
columns not yet eliminated stay a staircase.  The graded Macaulay matrix of
``pointideals.chopped_profile`` is one once read backwards on both axes:
its rows and its shift columns ascend in the last variable's exponent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

_LIMB = float(1 << 16)  # limb base of the split left operand
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


def _mul_chunk(p: int) -> int:
    """Longest inner dimension whose split product (see ``_mul_mod``) sums
    within 2**53 with a slack of 2p, for a minuend and ``_residues``."""
    half = (p - 1) // 2
    return ((1 << 53) - 2 * p) // (((half >> 16) + 1 + min(half, 1 << 15)) * half)


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int, c: np.ndarray | None = None) -> np.ndarray:
    """Exact (a @ b) mod p, as int32, for reduced integer operands; given a
    reduced minuend c, c <- (c - a @ b) mod p in place instead, and c is
    returned.

    Both operands are balanced to residues of least absolute value, at most
    (p - 1) / 2 < 2**30, and only a is split, a = ah * 2**16 + al with
    |ah| <= 2**14 and |al| <= 2**15, so the one float64 product
    [ah | al] @ [(2**16 b mod p) ; b] is a @ b up to multiples of p.  Each
    of its terms is below 2**14 * 2**30 + 2**15 * 2**30 = 3 * 2**44, and a
    chunk of 170 inner indices sums below 170 * 3 * 2**44 < 2**53, so every
    dot product is exact; the chunk is derived from p, longer for smaller
    p.  Over several chunks each product is balanced before it is added.
    Only the sum is reduced to [0, p) and converted to int32.
    """
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ValueError(f"inner dimensions differ: {k} vs {k2}")
    chunk = _mul_chunk(p)
    acc = None
    for start in range(0, k or 1, chunk):  # k = 0 makes one zero product
        w = min(chunk, k - start)
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


class _Leaf:
    """The pivots one leaf of the elimination found, as a diagonal block of
    a unit lower-triangular solve: their columns, and the inverse of their
    triangle (L on their pivot rows and columns) once a solve has needed it.

    Later row swaps only move rows below a leaf's pivot rows and later
    updates only touch columns right of its pivots, so the triangle is fixed
    for the rest of the elimination and each leaf is inverted at most once.
    """

    __slots__ = ("cols", "inverse")

    def __init__(self, cols):
        self.cols = cols
        self.inverse: np.ndarray | None = None


def _solve_lower(t: np.ndarray, b: np.ndarray, p: int, leaves: list[_Leaf]) -> None:
    """In place, b <- L^-1 b for the unit lower-triangular L whose strictly
    lower part is t's (t's diagonal and upper part are not read).

    ``leaves`` cut t into diagonal blocks, in order.  Halves them
    recursively: solve the top rows, subtract their contribution from the
    bottom rows down to the last one with a nonzero multiplier with one
    modular product, solve the bottom rows.  A single block is inverted
    (once per leaf) and applied to b as one modular product.
    """
    if len(leaves) == 1:
        leaf = leaves[0]
        if leaf.inverse is None:
            leaf.inverse = _lower_inverse(t, p)
        b[...] = _mul_mod(leaf.inverse, b, p)
        return
    half = len(leaves) // 2
    h = sum(len(leaf.cols) for leaf in leaves[:half])
    _solve_lower(t[:h, :h], b[:h], p, leaves[:half])
    lower = t[h:, :h]
    live = _live_rows(lower)
    if live:
        _mul_mod(lower[:live], b[:h], p, b[h:h + live])
    _solve_lower(t[h:, h:], b[h:], p, leaves[half:])


def _replay(a: np.ndarray, p: int, row0: int, leaves: list[_Leaf], c0: int, c1: int) -> None:
    """Apply the eliminations of the pivots of ``leaves`` (pivot rows row0,
    row0+1, ...) to columns c0:c1: a triangular solve on the pivot rows with
    the multipliers parked below the pivots, then one modular product for
    the rows below, down to the last one with a nonzero multiplier.

    Between the first and last pivot column every entry below the pivot rows
    is a multiplier or zero (a column without a pivot is zero there), so
    the live rows are read off that slice without gathering the pivot
    columns in full.
    """
    piv = [c for leaf in leaves for c in leaf.cols]
    k = len(piv)
    top = a[row0:row0 + k, c0:c1]
    _solve_lower(a[row0:row0 + k, piv], top, p, leaves)
    below = row0 + k
    live = _live_rows(a[below:, piv[0]:piv[-1] + 1])
    if live:
        rows = slice(below, below + live)
        _mul_mod(a[rows, piv], top, p, a[rows, c0:c1])


def _eliminate(a: np.ndarray, p: int, row0: int, c0: int, c1: int) -> list[_Leaf]:
    """LU-factor columns c0:c1 of the rows from row0 down in place; returns
    the pivots, grouped by the leaf that found them.

    Each pivot row keeps its values, pivot included (U); the multiplier of
    each row below, its entry times the pivot's inverse, is parked in the
    pivot's column (the unit-lower L).  Row swaps move whole rows of ``a``,
    parked multipliers included.  Columns past c1 are not touched.

    A leaf works only on the rows down to the last one that is nonzero in
    its columns: a pivot is the first nonzero entry at or below the current
    row, and a row changes only when its multiplier is nonzero, so rows
    below stay zero in the leaf's columns throughout.  It copies that panel
    (live rows by at most ``_LEAF`` columns) to int64, where a product of
    two residues fits, eliminates it one pivot at a time, swapping whole
    rows in both the panel and ``a``, and writes the reduced panel back.
    """
    if row0 == a.shape[0]:
        return []
    if c1 - c0 > _LEAF:
        mid = (c0 + c1) // 2
        left = _eliminate(a, p, row0, c0, mid)
        if left:
            _replay(a, p, row0, left, mid, c1)
        return left + _eliminate(a, p, row0 + sum(len(leaf.cols) for leaf in left), mid, c1)
    end = row0 + _live_rows(a[row0:, c0:c1])
    panel = a[row0:end, c0:c1].astype(np.int64)
    piv: list[int] = []
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
        piv.append(c0 + lc)
        row += 1
    a[row0:end, c0:c1] = panel
    return [_Leaf(piv)] if piv else []


def _echelon(a: np.ndarray, p: int) -> list[int]:
    """In-place LU factorization with row swaps; returns the pivot columns.

    Afterwards the first len(pivots) rows are U, an echelon form that keeps
    its pivot values, and L's multipliers sit below the pivots.  Identical
    to one-pivot-at-a-time elimination; the recursion only batches the work
    on columns right of a half into modular products.  ``_LEAF`` is the
    widest block eliminated one pivot at a time (the tests shrink it to run
    many levels).

    Row swaps, pivots and D^-1 U (D the pivot values) match elimination with
    unit pivot rows: a row below a pivot is updated by (entry / pivot) times
    the unscaled row, the same numbers as the entry times the scaled row.
    """
    return [c for leaf in _eliminate(a, p, 0, 0, a.shape[1]) for c in leaf.cols]


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
        # U11 the pivot columns with rows scaled to unit pivots, solved as
        # the lower triangle it becomes with rows and columns reversed
        scale = np.array([pow(int(v), -1, p) for v in a[np.arange(r), piv]],
                         dtype=np.int64)[:, None]
        reduced = (a[:r, free] * scale % p).astype(np.int32)
        u11 = (a[:r, piv] * scale % p).astype(np.int32)
        # diagonal blocks of at most _LEAF rows; a block's size is all they tell
        leaves = [_Leaf(range(i, min(i + _LEAF, r))) for i in range(0, r, _LEAF)]
        _solve_lower(u11[::-1, ::-1], reduced[::-1], p, leaves)
        basis[piv] = (p - reduced) % p
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
