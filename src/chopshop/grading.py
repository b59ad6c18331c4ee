"""Monomial combinatorics of the graded polynomial ring in n+1 variables.

Dimension counts, monomial enumeration and indexing in descending lex
order, and Hilbert-function tables with comparison utilities.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_INT64_LIMIT = 2**63


class CapacityError(OverflowError):
    """A count exceeds the exact 64-bit integer range, or a matrix would
    need more bytes than the machine's physical memory."""


def hs(n: int, t: int) -> int:
    """Dimension of the degree-t part of a polynomial ring in n+1 variables.

    Equals C(n+t, n) for t >= 0 and 0 for negative t.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if t < 0:
        return 0
    value = math.comb(n + t, n)
    if value >= _INT64_LIMIT:
        raise CapacityError(f"hs({n}, {t}) = {value} exceeds 64-bit range")
    return value


class Exponent(tuple):
    """Exponent vector of a monomial; entries are nonnegative integers."""

    __slots__ = ()

    def __new__(cls, entries):
        self = super().__new__(cls, tuple(int(v) for v in entries))
        for v in self:
            if v < 0:
                raise ValueError(f"negative entry in exponent {tuple(self)}")
        return self

    @property
    def degree(self) -> int:
        return sum(self)


def mono_mul(a: Exponent, b: Exponent) -> Exponent:
    """Product of two monomials: entrywise sum of exponents.

    No caller outside the tests: it is kept as the plain definition that
    the reference test of ``product_index_map`` multiplies with.
    """
    if len(a) != len(b):
        raise ValueError(f"exponent lengths differ: {len(a)} vs {len(b)}")
    return Exponent(x + y for x, y in zip(a, b))


@lru_cache(maxsize=None)
def monomials(n: int, t: int) -> tuple[Exponent, ...]:
    """All degree-t exponents in n+1 variables, lex-descending: by x_0's
    exponent first, so the multiples of x_0^k come first.

    The order is fixed: it is the column/row order of every matrix built
    from a graded piece, so callers may index by position.
    """
    if n < 0 or t < 0:
        raise ValueError(f"need n >= 0 and t >= 0, got ({n}, {t})")
    if n == 0:
        return (Exponent((t,)),)
    return tuple(Exponent((first,) + tail)
                 for first in range(t, -1, -1) for tail in monomials(n - 1, t - first))


@lru_cache(maxsize=None)
def _position(n: int, t: int) -> dict[Exponent, int]:
    return {m: i for i, m in enumerate(monomials(n, t))}


def mono_index(n: int, t: int, e) -> int:
    """Position of exponent e within monomials(n, t)."""
    e = Exponent(e)
    if len(e) != n + 1:
        raise ValueError(f"expected {n + 1} entries, got {len(e)}")
    if e.degree != t:
        raise ValueError(f"exponent {tuple(e)} has degree {e.degree}, not {t}")
    return _position(n, t)[e]


@lru_cache(maxsize=None)
def product_index_map(n: int, d: int, e: int) -> np.ndarray:
    """Index table for multiplying graded pieces.

    Entry (i, j) is the position in monomials(n, d+e) of the product of
    monomials(n, e)[i] with monomials(n, d)[j].  Shape (hs(n,e), hs(n,d)).

    Positions come from the closed form of the enumeration order: with
    suffix degrees S_j = a_j + ... + a_n, the monomials of degree t before
    a are those of larger x_0-exponent, hs(n, S_1 - 1) of them, and then
    recursively in x_1, ..., x_n, so the position of a is the sum over
    j = 1..n of hs(n-j+1, S_j - 1).  A product's suffix degrees are sums
    of its factors', so the whole table is n vectorized lookups.
    """
    top = d + e
    # binom[j - 1, s] = hs(n - j + 1, s - 1), which is 0 at s = 0
    binom = np.array(
        [[math.comb(n - j + s, n - j + 1) for s in range(top + 1)] for j in range(1, n + 1)],
        dtype=np.int64,
    )
    # S_j = top minus the degree of the product's first j exponents
    shift_head = np.cumsum(np.asarray(monomials(n, e), dtype=np.int64), axis=1)
    base_head = np.cumsum(np.asarray(monomials(n, d), dtype=np.int64), axis=1)
    out = np.zeros((shift_head.shape[0], base_head.shape[0]), dtype=np.int64)
    for j in range(1, n + 1):
        out += binom[j - 1][top - shift_head[:, j - 1:j] - base_head[:, j - 1]]
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HilbertTable:
    """Hilbert function values by degree, starting at degree 0.

    ``tail`` is the constant value taken at every degree past the stored
    range; ``tail=None`` marks a table that keeps growing (polynomial-ring
    behaviour), in which case values past the table are undetermined.
    """

    n: int
    values: tuple[int, ...]
    tail: int | None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if not self.values:
            raise ValueError("table needs at least one value")
        if any(v < 0 for v in self.values):
            raise ValueError("negative table value")
        if self.tail is not None and self.values[-1] != self.tail:
            raise ValueError(
                f"stabilized table must end at its tail: {self.values[-1]} != {self.tail}"
            )

    def value_at(self, t: int) -> int:
        if t < 0:
            return 0
        if t < len(self.values):
            return self.values[t]
        if self.tail is None:
            raise ValueError(f"table does not determine degree {t}")
        return self.tail


def first_difference(h: HilbertTable) -> HilbertTable:
    """Difference table Dh(t) = h(t) - h(t-1), with h(-1) = 0.

    A stabilized input gains one extra stored degree so the result ends at
    its tail value 0; a growing input stays growing.
    """
    vals = [h.values[0]] + [
        h.values[t] - h.values[t - 1] for t in range(1, len(h.values))
    ]
    if any(v < 0 for v in vals):
        raise ValueError("difference table has a negative entry")
    if h.tail is None:
        return HilbertTable(h.n, tuple(vals), None)
    return HilbertTable(h.n, tuple(vals) + (0,), 0)


class LexOrder(enum.Enum):
    """Outcome of ``lex_compare_hf``."""

    LESS_EQUAL = "<=lex"
    GREATER_EQUAL = ">=lex"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable-by-table-length"


def lex_compare_hf(a: HilbertTable, b: HilbertTable) -> LexOrder:
    """Compare two tables in the lexicographic order on value sequences.

    The verdict is decided by the first degree where the tables differ.
    Tables that agree on their whole common range but leave later degrees
    undetermined are incomparable.

    No caller outside the tests: it is kept because the tests of the
    paper's lexicographic floor (``lex_lower_bound_table``) compare the
    expected and observed quotients with it.
    """
    horizon_a = math.inf if a.tail is not None else len(a.values)
    horizon_b = math.inf if b.tail is not None else len(b.values)
    scan = min(max(len(a.values), len(b.values)), horizon_a, horizon_b)
    for t in range(int(scan)):
        va, vb = a.value_at(t), b.value_at(t)
        if va < vb:
            return LexOrder.LESS_EQUAL
        if va > vb:
            return LexOrder.GREATER_EQUAL
    if horizon_a == horizon_b == math.inf:
        if a.tail < b.tail:
            return LexOrder.LESS_EQUAL
        if a.tail > b.tail:
            return LexOrder.GREATER_EQUAL
        return LexOrder.EQUAL
    if horizon_a == horizon_b:
        return LexOrder.EQUAL
    return LexOrder.INCOMPARABLE
