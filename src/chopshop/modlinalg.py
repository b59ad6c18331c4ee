"""Exact dense linear algebra over a prime field F_p with p < 2**31.

Matrices are immutable int32 arrays with entries reduced to [0, p), and
the elimination works on int32 arrays too: every residue fits, in half the
bytes of int64.  Arithmetic is widened only where a product needs it, as
FFLAS-FFPACK does: a panel's small eliminations run in int64 and products
run in float64.  Under NumPy 2 an int32 array times a Python int stays
int32 and wraps without a warning, so no product of two residues is ever
formed in int32.  The workhorse is an in-place LU factorization in LAPACK
getrf's convention: each multiplier (entry times pivot inverse) is parked
below its pivot, a unit-lower L, and the pivot rows stay unscaled, U.  It
is blocked right-looking LU, one left-to-right pass over panels of at most
32 columns.  Pivoting is deterministic: the first row with a nonzero
entry, columns left to right, so the pivot columns are the column rank
profile.  Only ``kernel_basis`` needs U's inverse; callers that need only
a rank or the pivot columns read the pivots.

A panel's tall part is one triangular product, not a rank-1 update per
pivot (the FFLAS-FFPACK idea; Dumas, Giorgi and Pernet, ACM TOMS 2008).
The panel factors its leading square block without row exchanges, and
the same small elimination gives both of the block's triangle inverses
(``_square``).  When no pivot of the block vanishes, these are the pivots
the first-nonzero rule picks, and the rows below get their multipliers
from one product by U's inverse.  When one vanishes, the panel needs a
swap or has a column without a pivot, and it is eliminated one pivot at a
time instead, with the same rule.  Either way the panel's L^-1 comes from
its row operations run on identity columns beside it, [B | I] -> [U | L^-1].

Two devices from delayed-reduction linear algebra keep the rest of the
work in BLAS.  A product balances both operands to residues of least
absolute value and splits only the left one into 16-bit limbs, so a single
float64 product over up to 170 inner indices is exact at every p < 2**31
(``_mul_mod``), and the reduction mod p waits until it is done; an update
subtracts the product from its rows before that one reduction, and only the
result is converted back, straight into the int32 rows.  One forward step
(``_forward``) per panel solves its pivot rows by the inverse of their
unit-lower triangle as one product and updates the rows below
(``_update``).  The kernel back-substitutes through U panel by panel with
the U inverses the factorization kept.

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

Many matrices factor in lockstep (``_echelons``, ``_kernels``), which is
how a grid's cases of one generation degree are eliminated: every matrix
is at the same panel, the panels' square blocks go through one stacked
``_square``, and the small products of a panel (L21, the pivot rows'
L^-1 product, the kernel's back substitution) through stacked products
zero-padded to a common shape (``_mul_mods``).  Each matrix keeps its own
live-row scans, its fall back to the one-pivot loop and its trailing
update.  The arithmetic is exact, so a matrix meets the same pivots and
ends with the same numbers whatever runs beside it; one matrix alone is a
batch of one.

The BLAS products here run with OpenBLAS's default threads.
``one_blas_thread`` pins every OpenBLAS thread pool loaded in the process
to one thread for a ``with`` block and then restores each pool's count:
``waring.decompose`` runs inside it, and the worker processes of
``verify.verify_grid`` are pinned for their lifetime by
``_set_blas_threads``.  On a few cores, the threads of mid-sized products
and factorizations cost more in synchronisation than they save.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import sys
from dataclasses import dataclass

import numpy as np

_LIMB = float(1 << 16)  # limb base of the split left operand
_CHUNK = 170  # inner indices of one exact float64 product (see _mul_mod)
_LEAF = 32  # columns of one panel


@functools.cache
def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin to the bases 2, 7 and 61, which no odd
    composite below 4,759,123,141 > 2**31 passes (Jaeschke, Math. Comp.
    1993)."""
    if p < 2:
        return False
    for q in (2, 7, 61):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
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
    returned.  Stacks of matrices (a leading axis) multiply pairwise, each
    2-d product in one BLAS call.

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
    k = a.shape[-1]
    k2, n = b.shape[-2:]
    if k != k2:
        raise ValueError(f"inner dimensions differ: {k} vs {k2}")
    acc = None
    for start in range(0, k or 1, _CHUNK):  # k = 0 makes one zero product
        w = min(_CHUNK, k - start)
        split = np.empty((*a.shape[:-1], 2 * w))
        ah, al = split[..., :w], split[..., w:]
        _balanced(a[..., start:start + w], p, al)
        np.rint(np.multiply(al, 1.0 / _LIMB, out=ah), out=ah)
        al -= ah * _LIMB
        stack = np.empty((*b.shape[:-2], 2 * w, n))
        _balanced(b[..., start:start + w, :], p, stack[..., w:, :])
        _balanced(stack[..., w:, :] * _LIMB, p, stack[..., :w, :])
        prod = split @ stack
        if w < k:
            prod = _balanced(prod, p, np.empty_like(prod))
        if acc is not None:
            prod += acc
        acc = prod
    if c is not None:
        np.subtract(c, acc, out=acc)
    return _residues(acc, p, c)


def _mul_mods(pairs: list, p: int, minuends: list | None = None) -> list:
    """``_mul_mod`` of every pair (a, b) of reduced operands as one stacked
    product; given minuends, each c <- (c - a @ b) mod p in place, and they
    are returned.

    The stack zero-pads each operand to the largest shape of its kind: the
    padding adds zero terms and zero rows and columns, which are cut off
    again.  One pair runs alone, unpadded and uncopied.
    """
    if len(pairs) == 1:
        (a, b), = pairs
        return [_mul_mod(a, b, p, None if minuends is None else minuends[0])]
    m = max(a.shape[0] for a, _ in pairs)
    k = max(a.shape[1] for a, _ in pairs)
    n = max(b.shape[1] for _, b in pairs)
    left = np.zeros((len(pairs), m, k), dtype=np.int64)
    right = np.zeros((len(pairs), k, n), dtype=np.int64)
    for i, (a, b) in enumerate(pairs):
        left[i, :a.shape[0], :a.shape[1]] = a
        right[i, :b.shape[0], :b.shape[1]] = b
    if minuends is None:
        prod = _mul_mod(left, right, p)
        return [prod[i, :a.shape[0], :b.shape[1]] for i, (a, b) in enumerate(pairs)]
    stacked = np.zeros((len(pairs), m, n), dtype=np.int32)
    for i, c in enumerate(minuends):
        stacked[i, :c.shape[0], :c.shape[1]] = c
    _mul_mod(left, right, p, stacked)
    for i, c in enumerate(minuends):
        c[...] = stacked[i, :c.shape[0], :c.shape[1]]
    return minuends


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


def _forward(steps: list, p: int) -> None:
    """x <- L^-1 x mod p in place for every step (a, row, piv, inverse, x),
    L the unit-lower multipliers parked in columns ``piv`` of ``a`` from
    ``row`` on; ``inverse`` is the inverse of their top len(piv) x len(piv)
    triangle, which the panel made.  The pivot rows of every step take one
    stacked product; each step then updates its rows below alone."""
    tops = [x[:len(piv)] for _, _, piv, _, x in steps]
    solved = _mul_mods([(step[3], top) for step, top in zip(steps, tops)], p)
    for top, rows in zip(tops, solved):
        top[...] = rows
    for (a, row, piv, _, x), top in zip(steps, tops):
        _update(a, p, row + len(piv), piv, top, x[len(piv):])


def _square_block(b: np.ndarray, p: int):
    """LU of the square b without row exchanges, with both triangles'
    inverses: (U with L's multipliers parked below it, L^-1, U^-1) as int64,
    or None when a pivot vanishes.

    One elimination runs on the stacked pair [b | I] and [b^T | I].  It
    turns [b | I] into [U | L^-1] and parks L below U.  The pivots of b^T
    are b's own (each is a ratio of leading principal minors, which b and
    b^T share), and b^T = U^T L^T = (D^-1 U)^T (D L^T), D the pivots, so
    b^T's unit-lower factor is L' = (D^-1 U)^T and its half becomes
    L'^-1 = D U^-T: U^-1[i, j] = L'^-1[j, i] / d_j.  After j steps row j
    of either half is zero outside columns j..j+k (U's row and L^-1's), so
    each step updates only the k columns right of its pivot."""
    k = len(b)
    x = np.zeros((2, k, 2 * k), dtype=np.int64)
    x[0, :, :k] = b
    x[1, :, :k] = b.T
    i = np.arange(k)
    x[:, i, k + i] = 1
    dinv = np.empty(k, dtype=np.int64)
    for j in range(k):
        d = int(x[0, j, j])
        if d == 0:
            return None
        dinv[j] = pow(d, -1, p)
        f = x[:, j + 1:, j]
        f *= dinv[j]
        f %= p
        sub = x[:, j + 1:, j + 1:j + k + 1]
        sub -= f[:, :, None] * x[:, j, None, j + 1:j + k + 1]
        sub %= p
    return x[0, :, :k], x[0, :, k:], x[1, :, k:].T * dinv % p


def _inverses(values: list[int], p: int) -> list[int]:
    """Each residue's inverse mod p, and 0 for 0, by Montgomery's batch
    inversion: one ``pow`` of the product of the nonzero values, and
    three products of residues for each of them, where a ``pow`` each
    would cost several times as much."""
    prefixes, product = [], 1
    for v in values:
        prefixes.append(product)
        if v:
            product = product * v % p
    inverse = pow(product, -1, p)
    out = [0] * len(values)
    for i in reversed(range(len(values))):
        if values[i]:
            out[i] = inverse * prefixes[i] % p
            inverse = inverse * values[i] % p
    return out


def _square(blocks: list, p: int) -> list:
    """``_square_block`` of each square block: per block (U with L's
    multipliers parked below it, L^-1, U^-1) as int64, or None when a pivot
    vanishes.

    One block runs alone.  Several run one elimination together, each block
    on the diagonal of an identity of the largest block's size, whose LU
    and inverses hold the block's own: one set of NumPy calls a step for
    the whole stack.  The axes are (row, column, half, block), so the
    blocks lie innermost and a step's rows are contiguous runs of 2 x count
    entries; its product lives in one buffer, which the reduction reuses,
    x - p * (x // p).  A block whose pivot vanishes runs on with a zero
    inverse and is dropped at the end; the loop ends at a step where every
    pivot vanishes.  (A lone block keeps its columns innermost instead:
    with the blocks innermost each of its inner loops would be two entries
    long.)"""
    if len(blocks) == 1:
        return [_square_block(blocks[0], p)]
    count, k = len(blocks), max(len(b) for b in blocks)
    i = np.arange(k)
    stack = np.zeros((count, k, k), dtype=np.int64)
    stack[:, i, i] = 1
    for c, b in enumerate(blocks):
        stack[c, :len(b), :len(b)] = b
    x = np.zeros((k, 2 * k, 2, count), dtype=np.int64)
    x[:, :k, 0] = stack.transpose(1, 2, 0)
    x[:, :k, 1] = stack.transpose(2, 1, 0)
    x[i, k + i] = 1
    buf = np.empty((k, k, 2, count), dtype=np.int64)
    dinv = np.zeros((k, count), dtype=np.int64)
    for j in range(k):
        inverses = _inverses(x[j, j, 0].tolist(), p)
        if not any(inverses):
            break
        dinv[j] = inverses
        f = x[j + 1:, j]
        f *= dinv[j]
        f %= p
        sub = x[j + 1:, j + 1:j + k + 1]
        t = buf[:k - j - 1]
        np.multiply(f[:, None], x[j, j + 1:j + k + 1], out=t)
        sub -= t
        np.floor_divide(sub, p, out=t)
        t *= p
        sub -= t
    return [(x[:m, :m, 0, c], x[:m, k:k + m, 0, c], x[:m, k:k + m, 1, c].T * dinv[:m, c] % p)
            if dinv[:, c].all() else None for c, m in enumerate(map(len, blocks))]


def _pivot_loop(a: np.ndarray, p: int, row0: int, end: int, c0: int, c1: int):
    """Eliminate rows row0:end of columns c0:c1 of ``a`` one pivot at a
    time, in place; returns the pivot columns and the inverse of the
    unit-lower triangle parked on them.  The rows are copied to int64,
    where a product of two residues fits, beside w = c1 - c0 zero columns,
    whole rows are swapped in both the copy and ``a``, and the reduced copy
    is written back.  The j-th pivot row gets a 1 in appended column j once
    swapped into place, so the row operations leave L^-1 in the pivot rows
    there; columns right of the last 1 are still zero, so no update reads
    them."""
    w = c1 - c0
    panel = np.zeros((end - row0, 2 * w), dtype=np.int64)
    panel[:, :w] = a[row0:end, c0:c1]
    found: list[int] = []
    row = 0
    for lc in range(w):
        if row == len(panel):
            break
        nz = panel[row:, lc].nonzero()[0]
        if nz.size == 0:
            continue
        rpiv = row + int(nz[0])
        if rpiv != row:
            panel[[row, rpiv]] = panel[[rpiv, row]]
            a[[row0 + row, row0 + rpiv]] = a[[row0 + rpiv, row0 + row]]
        panel[row, w + row] = 1
        f = panel[row + 1:, lc]
        f *= pow(int(panel[row, lc]), -1, p)
        f %= p
        sub = panel[row + 1:, lc + 1:w + row + 1]
        sub -= f[:, None] * panel[row, lc + 1:w + row + 1]
        sub %= p
        found.append(c0 + lc)
        row += 1
    a[row0:end, c0:c1] = panel[:, :w]
    return found, panel[:row, w:w + row]


def _echelon(a: np.ndarray, p: int, u_inverses: list | None = None) -> list[int]:
    """In-place LU factorization of one matrix with row swaps; returns the
    pivot columns.  ``_echelons`` of a batch of one."""
    return _echelons([a], p, None if u_inverses is None else [u_inverses])[0]


def _echelons(arrays: list[np.ndarray], p: int, u_inverses: list | None = None) -> list:
    """In-place LU factorization of each matrix with row swaps, the matrices
    in lockstep; returns each one's pivot columns.

    Afterwards the first len(pivots) rows of a matrix are U, an echelon form
    that keeps its pivot values (each pivot row unscaled), and L's
    multipliers, each row's entry times the pivot's inverse, sit below the
    pivots.  Row swaps move whole rows, parked multipliers included.
    Identical to one-pivot-at-a-time elimination; the panels only batch the
    work into modular products.  Given ``u_inverses``, one list per matrix,
    each panel that finds pivots appends the inverse of its pivots' U block,
    rows and columns in order (the panels' pivot rows follow one another):
    the square step's own, or, after the one-pivot loop, one more
    ``_square_block`` of the block.

    One left-to-right pass over panels of at most ``_LEAF`` columns (the
    tests shrink it to run many panels), every matrix at the same panel.  A
    panel works only on the rows below the pivots found so far, down to the
    last one that is nonzero in its columns: a pivot is the first nonzero
    entry at or below the current row, and a row changes only when its
    multiplier is nonzero, so rows below stay zero in the panel's columns
    throughout.

    A panel first factors its leading k x k block, k = min(width, live
    rows), by ``_square``: one call for the blocks of every matrix.  If no
    pivot vanishes, the first-nonzero rule would pick exactly these pivots:
    each column's pivot is the current row itself, so there is no swap and
    no column without a pivot.  Then the block is written back, the rows
    below it get their multipliers from one product, L21 = A21 U11^-1
    (A21 = L21 U11), and the block's L^-1 takes its pivots to every column
    right of the block.  If a pivot vanishes,
    that matrix's panel eliminates its live rows one pivot at a time
    (``_pivot_loop``), making its pivots' L^-1 as it goes, which takes its
    pivots to the columns right of the panel.  The L21 products of all the
    matrices run stacked (``_mul_mods``), and one ``_forward`` takes every
    matrix's pivots to the right.

    Row swaps, pivots and D^-1 U (D the pivot values) match elimination with
    unit pivot rows: a row below a pivot is updated by (entry / pivot) times
    the unscaled row, the same numbers as the entry times the scaled row.
    Each matrix meets the same pivots whatever else runs beside it, since
    every step is exact.
    """
    pivots: list[list[int]] = [[] for _ in arrays]
    width = max((a.shape[1] for a in arrays), default=0)
    for c0 in range(0, width, _LEAF):
        panels = []
        for i, a in enumerate(arrays):
            m, n = a.shape
            row0 = len(pivots[i])
            if c0 >= n or row0 == m:
                continue
            c1 = min(c0 + _LEAF, n)
            end = row0 + _live_rows(a[row0:, c0:c1])
            if end > row0:
                panels.append((i, row0, end, c1, min(c1 - c0, end - row0)))
        if not panels:
            continue
        squares = _square([arrays[i][row0:row0 + k, c0:c0 + k] for i, row0, _, _, k in panels], p)
        below, steps = [], []
        for (i, row0, end, c1, k), square in zip(panels, squares):
            a = arrays[i]
            if square is not None:
                lu, l_inv, u_inv = square
                a[row0:row0 + k, c0:c0 + k] = lu
                if row0 + k < end:
                    below.append((a[row0 + k:end, c0:c1], u_inv))
                cols = list(range(c0, c0 + k))
                right = c0 + k
            else:
                cols, l_inv = _pivot_loop(a, p, row0, end, c0, c1)
                if not cols:
                    continue
                if u_inverses is not None:
                    # the U block is its own LU, L = I, so it factors square
                    u_inv = _square_block(np.triu(a[row0:row0 + len(cols), cols]), p)[2]
                right = c1
            if right < a.shape[1]:
                steps.append((a, row0, cols, l_inv, a[row0:, right:]))
            if u_inverses is not None:
                u_inverses[i].append(u_inv)
            pivots[i] += cols
        if below:
            for (rows, _), multipliers in zip(below, _mul_mods(below, p)):
                rows[...] = multipliers
        if steps:
            _forward(steps, p)
    return pivots


def rank(m: ModMatrix) -> int:
    """Rank via forward elimination."""
    return len(_echelon(m.array.copy(), m.field.p))


def kernel_basis(m: ModMatrix) -> ModMatrix:
    """Right null space basis, one column per free column of the input: the
    ``_kernels`` basis of a copy of its array.

    No caller outside the tests: the package eliminates its kernels in
    place through ``_kernels``, and this is the form on immutable matrices
    that the tests check against their references.
    """
    return ModMatrix(m.field, _kernels([m.array.copy()], m.field.p)[0], _trusted=True)


def _kernels(arrays: list[np.ndarray], p: int) -> list[np.ndarray]:
    """Right null space basis of each int32 matrix, as int32 columns; the
    matrices are factored in lockstep and in place (``_echelons``).

    The basis is in echelon-complement form: each vector has a 1 in its
    free coordinate, the pivot coordinates filled from the reduced echelon
    form, and zeros in the other free coordinates.  Deterministic.

    The reduced form on the free columns F is U11^-1 U_F, U11 the pivot
    columns of U (the same as with unit pivot rows, whose scaling cancels).
    U11 is block upper-triangular with one diagonal block per panel, so one
    back substitution from the last panel up takes it: a block's rows of
    U_F less its U entries right of the block times the rows already
    solved, then times the block's inverse, which ``_echelons`` kept; two
    modular products a panel, each stacked over the matrices, which take
    their panels from the last one up together.
    """
    u_inverses: list[list[np.ndarray]] = [[] for _ in arrays]
    pivots = _echelons(arrays, p, u_inverses)
    bases, solves = [], []
    for a, piv, inverses in zip(arrays, pivots, u_inverses):
        free = np.setdiff1d(np.arange(a.shape[1], dtype=np.int64), piv)
        basis = np.zeros((a.shape[1], free.size), dtype=np.int32)
        basis[free, np.arange(free.size)] = 1
        bases.append(basis)
        if piv and free.size:
            # the rows of U_F to solve, and each panel's rows with its U
            # inverse, from the last panel up
            ends = list(itertools.accumulate(len(u_inv) for u_inv in inverses))
            blocks = list(zip([0] + ends, ends, inverses))
            solves.append((a, piv, a[:len(piv), free], basis, blocks[::-1]))
    for step in range(max((len(blocks) for *_, blocks in solves), default=0)):
        live = [(a, piv, y, blocks[step]) for a, piv, y, _, blocks in solves
                if step < len(blocks)]
        if step:  # less the U entries right of the block times the rows solved
            _mul_mods([(a[start:end, piv[end:]], y[end:]) for a, piv, y, (start, end, _) in live],
                      p, [y[start:end] for _, _, y, (start, end, _) in live])
        rows = [y[start:end] for _, _, y, (start, end, _) in live]
        solved = _mul_mods([(u_inv, y) for (*_, (_, _, u_inv)), y in zip(live, rows)], p)
        for y, block in zip(rows, solved):
            y[...] = block
    for _, piv, y, basis, _ in solves:
        basis[piv] = (p - y) % p
    return bases


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


def _openblas_pools() -> tuple[tuple, ...]:
    """(get, set) thread-count functions of every OpenBLAS loaded in this
    process: numpy's ILP64 copy and, once scipy.linalg is imported,
    scipy's.  The memory map is read once per process for each state of
    that import."""
    return _pools_found("scipy.linalg" in sys.modules)


@functools.cache
def _pools_found(scipy_loaded: bool) -> tuple[tuple, ...]:
    """The pools of ``_openblas_pools``, found by reading the process's
    memory map, so none where there is no /proc or no OpenBLAS; the
    argument only keys the cache."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return ()
    pools = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:  # a mapping whose file is gone
            continue
        for suffix in ("64_", ""):
            get = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(handle, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
                break
    return tuple(pools)


def _set_blas_threads(count: int) -> list[tuple]:
    """Set every loaded OpenBLAS pool to `count` threads, for good.  Returns
    (set, previous count) per pool, which is what undoes it."""
    saved = []
    for get, put in _openblas_pools():
        saved.append((put, get()))
        put(count)
    return saved


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every loaded OpenBLAS pool on one thread.

    A pool loaded inside the block keeps its own count, so a caller that
    needs scipy's pinned imports scipy.linalg first.  On exit, also by an
    exception, each pool gets back the count it had.  The count is
    process-wide: threads that call BLAS meanwhile run on one thread too.
    """
    saved = _set_blas_threads(1)
    try:
        yield
    finally:
        for put, count in saved:
            put(count)
