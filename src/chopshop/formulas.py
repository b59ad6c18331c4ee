"""Closed-form Hilbert-function predictions for generic point configurations.

Everything here is exact integer or rational arithmetic: generic Hilbert
functions, the expected Hilbert function of the ideal generated by a single
degree component (the "chopped" ideal), predicted saturation gaps, Froeberg
lower bounds, complete-intersection tables, and liaison bookkeeping.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import math

from .grading import HilbertTable, first_difference, hs


class RangeError(ValueError):
    """Parameters outside the admissible range of a formula."""


@dataclass(frozen=True)
class CaseParams:
    """A configuration size r in projective n-space, with its derived degree.

    ``d`` is the least degree whose generic Hilbert function reaches r, so
    the degree-d component of a generic configuration's ideal is the first
    nonzero one.
    """

    n: int
    r: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.r < 1:
            raise ValueError(f"need r >= 1, got {self.r}")

    @property
    def d(self) -> int:
        # hs(n, t) = C(n+t, n) grows with t: double t until it reaches r,
        # then bisect, on exact integers; hs(n, d) then raises
        # CapacityError past 64 bits, as a scan up to d would
        n, r = self.n, self.r
        lo, hi = 0, 1
        while math.comb(n + hi, n) < r:
            lo, hi = hi + 1, 2 * hi
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if math.comb(n + mid, n) < r else (lo, mid)
        hs(n, lo)
        return lo


def generic_hf(params: CaseParams, t: int) -> int:
    """Hilbert function of r generic points: min(hs(n,t), r)."""
    return min(hs(params.n, t), params.r)


def generic_table(params: CaseParams) -> HilbertTable:
    """Generic Hilbert table, stored through d, where it reaches r."""
    vals = [generic_hf(params, t) for t in range(params.d + 1)]
    return HilbertTable(params.n, tuple(vals), params.r)


def gap_upper_bound(n: int, d: int) -> int:
    """Proven ceiling (n-1)d - (n+1) for the saturation gap in the hard regime."""
    return (n - 1) * d - (n + 1)


def admissible(n: int, d: int, r: int) -> bool:
    """Whether r points chopped at degree d lie in the range the formulas
    cover: r < hs(n,d) - n.  From hs(n,d) - n on, the degree-d forms
    number at most n and need not cut out the configuration."""
    return r < hs(n, d) - n


def _require_admissible(params: CaseParams) -> None:
    if not admissible(params.n, params.d, params.r):
        raise RangeError(
            f"r={params.r} is not below hs({params.n},{params.d}) - {params.n}; "
            "the chopped ideal need not cut out the configuration"
        )


def koszul_sum(n: int, d: int, s: int, t: int) -> int:
    """Alternating sum over k >= 0 of (-1)^k hs(n, t-kd) C(s,k).

    This is the degree-t coefficient of (1 - T^d)^s / (1 - T)^(n+1): the
    quotient by s degree-d forms whose only syzygies are the Koszul ones.
    The expected chopped quotient, the Froeberg series and the closed form
    of the "rmax_general" family are all this one sum.
    """
    return _series(n, [(d, s)], t)


def _series(n: int, runs, t: int) -> int:
    """Degree-t coefficient of the product of (1 - T^d)^m over the runs
    (d, m), divided by (1 - T)^(n+1).

    Each factor expands as the sum over k of (-1)^k C(m,k) T^(kd); the
    numerator is kept through degree t only, and its term c T^j adds
    c hs(n, t-j).  A negative t gives 0.
    """
    terms = {0: 1}
    for d, m in runs:
        expanded = defaultdict(int)
        for j, c in terms.items():
            for k in range((t - j) // d + 1):
                expanded[j + k * d] += (-1) ** k * math.comb(m, k) * c
        terms = expanded
    return sum(c * hs(n, t - j) for j, c in terms.items())


@lru_cache(maxsize=None)
def expected_gap_and_table(n: int, d: int, r: int) -> tuple[int, tuple[int, ...]]:
    """Predicted gap and expected quotient of r points chopped at degree d.

    The table runs from degree 0 through d + gap: the whole ring below d,
    then the Koszul sum with s = hs(n,d) - r generators up to the first
    e > 0 where that sum is at most r, where the quotient is r and e is
    the gap.  d may lie above the least degree of the points' ideal, as
    the Waring pipeline's working degrees do.
    """
    s = hs(n, d) - r
    quotient = [hs(n, t) for t in range(d)]
    e = 0
    while True:
        value = koszul_sum(n, d, s, d + e)
        if e > 0 and value <= r:
            quotient.append(r)
            return e, tuple(quotient)
        quotient.append(value)
        e += 1


def expected_chopped_hf(params: CaseParams, t: int) -> tuple[int, int]:
    """Expected (ideal_dim, quotient_dim) of the chopped ideal at degree t.

    Through the gap degree the quotient is the Koszul sum; from there on
    it is r.
    """
    if t < params.d:
        raise RangeError(f"degree {t} is below the generation degree {params.d}")
    _require_admissible(params)
    gap, quotient = expected_gap_and_table(params.n, params.d, params.r)
    if t <= params.d + gap:
        q = quotient[t]
    else:
        q = params.r
    return hs(params.n, t) - q, q


@dataclass(frozen=True)
class GapPrediction:
    """Predicted saturation gap with the quotient table that witnesses it.

    ``table`` stores the expected chopped quotient from degree 0 through
    d + gap (full ring values below d); ``bound`` is the proven ceiling.
    """

    gap: int
    table: HilbertTable
    bound: int


def predicted_gap(params: CaseParams) -> GapPrediction:
    """Least e > 0 at which the expected chopped quotient returns to r."""
    _require_admissible(params)
    gap, quotient = expected_gap_and_table(params.n, params.d, params.r)
    table = HilbertTable(params.n, quotient, params.r)
    return GapPrediction(gap, table, gap_upper_bound(params.n, params.d))


def froberg(n: int, d: int, s: int, t: int) -> int:
    """Generic-forms lower bound series value at degree t.

    The Koszul sum, truncated to zero from the first degree where it
    becomes nonpositive onward.
    """
    if s < 1 or d < 1:
        raise ValueError(f"need s >= 1 and d >= 1, got s={s}, d={d}")
    for u in range(t + 1):
        if koszul_sum(n, d, s, u) <= 0:
            return 0
    return koszul_sum(n, d, s, t)


def lex_lower_bound_table(params: CaseParams, t_max: int) -> HilbertTable:
    """Capped Froeberg table: the proven lexicographic floor for the
    chopped quotient.  Froeberg values until they first drop to r, then r.

    It equals the expected table through d + gap, which is why ``hf``
    prints equal "chopped" and "lex floor" rows: before t1 every Koszul
    value is positive (hs(n,t) below d, r at d, above r after), so the
    truncation never applies, and t1 = d + gap is where it first drops to
    at most r.
    """
    n, d = params.n, params.d
    s = hs(n, d) - params.r
    t1 = d + 1
    while froberg(n, d, s, t1) > params.r:
        t1 += 1
    vals = [froberg(n, d, s, t) if t < t1 else params.r for t in range(max(t_max, t1) + 1)]
    return HilbertTable(n, tuple(vals), params.r)


def interesting_range(n: int, d: int) -> tuple[Fraction, int]:
    """Exclusive bounds on r between which the chopped ideal gains a
    degree-(d+1) generator but still cuts out the configuration.

    No caller outside the tests: it is kept as the definition that
    ``r_extremes_plane`` is tested against.
    """
    lower = Fraction((n + 1) * hs(n, d) - hs(n, d + 1), n)
    upper = hs(n, d) - n
    return lower, upper


def r_extremes_plane(d: int) -> tuple[int, int]:
    """Smallest and largest interesting r in the plane for degree d."""
    if d < 5:
        raise RangeError(f"the plane range is empty for d={d} < 5")
    r_min = (d * d + 2 * d + 2) // 2
    r_max = (d + 2) * (d + 1) // 2 - 3
    return r_min, r_max


def igc_gens_d1(params: CaseParams) -> int:
    """Expected number of degree-(d+1) minimal generators of the full ideal.

    No caller outside the tests: it is kept as an independent cross-check
    of the gap-1 cases, which are exactly those with no such generator.
    """
    n, r, d = params.n, params.r, params.d
    return max(0, hs(n, d + 1) - r - (n + 1) * (hs(n, d) - r))


def ci_socle(n: int, degrees) -> int:
    """Last degree where a complete-intersection table still moves."""
    return sum(degrees) - n


def ci_hf(n: int, degrees, t: int) -> int:
    """Hilbert function of a complete intersection of n forms in n+1 variables.

    Series expansion of prod (1 - T^{d_i}) / (1 - T)^{n+1} (``_series``);
    the value stabilizes at prod d_i from the socle degree on.
    """
    degrees = tuple(int(d) for d in degrees)
    if len(degrees) != n:
        raise ValueError(f"need exactly n={n} degrees, got {len(degrees)}")
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be positive")
    return _series(n, [(d, 1) for d in degrees], t)


def ci_table(n: int, degrees) -> HilbertTable:
    """Complete-intersection Hilbert table through stabilization, at the
    socle degree rho.  Degree 0 is always evaluated, so degrees that give
    no rho >= 0 meet ``ci_hf``'s checks."""
    vals = tuple(ci_hf(n, degrees, t) for t in range(max(ci_socle(n, degrees), 0) + 1))
    return HilbertTable(n, vals, vals[-1])


def liaison_delta(n: int, degrees, delta_z) -> tuple[int, ...]:
    """Difference table of the residual of a configuration inside a
    complete intersection:  Dh_res(t) = Dh_ci(rho - t) - Dh_z(rho - t).

    ``delta_z`` lists the configuration's difference table from degree 0;
    entries past its end are zero.  Trailing zeros are trimmed.  A nonzero
    entry past the socle degree rho cannot fit inside the complete
    intersection and raises RangeError.
    """
    rho = ci_socle(n, degrees)
    ci = ci_table(n, degrees)
    dci = first_difference(ci)
    dz = list(delta_z)
    beyond = [t for t in range(rho + 1, len(dz)) if dz[t]]
    if beyond:
        raise RangeError(
            f"difference table is nonzero at degree {beyond[0]}, past the socle "
            f"degree {rho} of the complete intersection"
        )

    def dz_at(t: int) -> int:
        return dz[t] if 0 <= t < len(dz) else 0

    out = []
    for t in range(rho + 1):
        v = dci.value_at(rho - t) - dz_at(rho - t)
        if v < 0:
            raise RangeError(
                f"difference table exceeds the complete intersection at degree {rho - t}"
            )
        out.append(v)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def theorem_oracle(family: str, t: int, *, d: int, n: int = 2) -> int:
    """Closed-form chopped quotient for the three proven families.

    family "rmax_p2": largest interesting r in the plane (d >= 5).
    family "rmin_p2_odd": smallest interesting r in the plane, odd d >= 5.
    family "rmax_general": r = hs(n,d) - (n+1) in any dimension.

    No caller outside the tests: kept because acceptance criteria 3, 4 and
    12 compare against it.
    """
    if family == "rmax_p2":
        if n != 2:
            raise ValueError("rmax_p2 is a plane family")
        _, r = r_extremes_plane(d)
        if t < d:
            return hs(2, t)
        if t <= 2 * d - 3:
            return hs(2, t) - 3 * hs(2, t - d)
        return r
    if family == "rmin_p2_odd":
        if n != 2:
            raise ValueError("rmin_p2_odd is a plane family")
        if d % 2 == 0:
            raise RangeError(f"family needs odd d, got {d}")
        r, _ = r_extremes_plane(d)
        if t < d:
            return hs(2, t)
        if t == d + 1:
            return r + 1
        return r
    if family == "rmax_general":
        r = hs(n, d) - (n + 1)
        if r < 1 or hs(n, d - 1) >= r:
            raise RangeError(f"(n,d)=({n},{d}) does not give a minimal-degree case")
        if t < d:
            return hs(n, t)
        gap = max(gap_upper_bound(n, d), 0)
        if t > d + gap:
            return r
        return koszul_sum(n, d, n + 1, t)
    raise ValueError(f"unknown family {family!r}")
