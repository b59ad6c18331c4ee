"""Monomial combinatorics of the graded polynomial ring in n+1 variables.

Dimension counts, monomial enumeration and indexing in graded reverse
lexicographic order, and Hilbert-function tables with comparison utilities.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_INT64_LIMIT = 2**63


class CapacityError(OverflowError):
    """A count exceeds the exact 64-bit integer range."""


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
    """Product of two monomials: entrywise sum of exponents."""
    if len(a) != len(b):
        raise ValueError(f"exponent lengths differ: {len(a)} vs {len(b)}")
    return Exponent(x + y for x, y in zip(a, b))


@lru_cache(maxsize=None)
def monomials(n: int, t: int) -> tuple[Exponent, ...]:
    """All degree-t exponents in n+1 variables, grevlex-descending.

    The order is fixed: it is the column/row order of every matrix built
    from a graded piece, so callers may index by position.
    """
    if n < 0 or t < 0:
        raise ValueError(f"need n >= 0 and t >= 0, got ({n}, {t})")
    if n == 0:
        return (Exponent((t,)),)
    out = []
    for last in range(t + 1):
        for head in monomials(n - 1, t - last):
            out.append(Exponent(tuple(head) + (last,)))
    return tuple(out)


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

    Positions come from the closed form of the enumeration order: the
    monomials of degree t with last exponent below a come first, and there
    are hs(k, t) - hs(k, t - a) of them in k+1 variables, so with partial
    degrees t_k = a_0 + ... + a_k the position of a is the sum over k >= 1
    of hs(k, t_k) - hs(k, t_{k-1}).  A product's partial degrees are sums
    of its factors', so the whole table is n vectorized lookups.
    """
    top = d + e
    # binom[k, s] = hs(k, s) for k >= 1
    binom = np.array(
        [[math.comb(k + s, k) for s in range(top + 1)] for k in range(n + 1)],
        dtype=np.int64,
    )
    shift_partial = np.cumsum(np.asarray(monomials(n, e), dtype=np.int64), axis=1)
    base_partial = np.cumsum(np.asarray(monomials(n, d), dtype=np.int64), axis=1)
    out = np.zeros((shift_partial.shape[0], base_partial.shape[0]), dtype=np.int64)
    below = shift_partial[:, :1] + base_partial[:, 0]
    for k in range(1, n + 1):
        upto = shift_partial[:, k:k + 1] + base_partial[:, k]
        out += binom[k][upto] - binom[k][below]
        below = upto
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

    @property
    def last_degree(self) -> int:
        return len(self.values) - 1


def ring_table(n: int, t_max: int) -> HilbertTable:
    """Hilbert table of the full polynomial ring up to degree t_max."""
    return HilbertTable(n, tuple(hs(n, t) for t in range(t_max + 1)), None)


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


def hilbert_regularity(h: HilbertTable) -> int:
    """Least degree from which the table equals its tail value onward."""
    if h.tail is None:
        raise ValueError("regularity needs a stabilized table")
    t = len(h.values)
    while t > 0 and h.values[t - 1] == h.tail:
        t -= 1
    return t


class LexOrder(enum.Enum):
    LESS_EQUAL = "<=lex"
    GREATER_EQUAL = ">=lex"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable-by-table-length"


def lex_compare_hf(a: HilbertTable, b: HilbertTable) -> LexOrder:
    """Compare two tables in the lexicographic order on value sequences.

    The verdict is decided by the first degree where the tables differ.
    Tables that agree on their whole common range but leave later degrees
    undetermined are incomparable.
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
