"""Ideals of point configurations over a prime field.

A configuration is a list of projective points with coordinates in F_p.
Its ideal is only ever touched degree by degree: the degree-t component is
the kernel of the evaluation matrix, and the ideal generated by the degree-d
component ("chopped" at d) is spanned degree by degree by columns of a
Macaulay matrix.  Every quantity of interest here (Hilbert functions,
h-vectors, saturation gaps) is a rank of one of these matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .formulas import CaseParams, gap_upper_bound, predicted_gap
from .grading import HilbertTable, first_difference, hs, monomials, product_index_map
from .modlinalg import ModMatrix, PrimeField, kernel_basis, rank


class GenericityError(RuntimeError):
    """Sampling kept producing configurations that fail the genericity test."""


RETRY_BUDGET = 16


def _evaluation_array(coords: np.ndarray, p: int, t: int) -> np.ndarray:
    """Raw evaluation matrix: entry (i, alpha) is the alpha-th monomial of
    degree t evaluated at point i.  Built from per-variable power tables so
    each entry costs n multiplications instead of t."""
    r, nvars = coords.shape
    exps = np.asarray(monomials(nvars - 1, t), dtype=np.int64)
    powers = []
    for i in range(nvars):
        table = np.empty((r, t + 1), dtype=np.int64)
        table[:, 0] = 1
        for k in range(1, t + 1):
            table[:, k] = table[:, k - 1] * coords[:, i] % p
        powers.append(table)
    out = np.ones((r, exps.shape[0]), dtype=np.int64)
    for i in range(nvars):
        out = out * powers[i][:, exps[:, i]] % p
    return out


def _evaluation(coords: np.ndarray, prime: PrimeField, t: int) -> ModMatrix:
    return ModMatrix(prime, _evaluation_array(coords, prime.p, t), _trusted=True)


def _normalized_rows(coords: np.ndarray, p: int) -> list[tuple[int, ...]] | None:
    """Scale each row so its first nonzero entry is 1, or None if some row
    is zero.  Two rows are the same projective point iff they normalize to
    the same tuple."""
    result = []
    for row in coords:
        nz = row.nonzero()[0]
        if nz.size == 0:
            return None
        inv = pow(int(row[nz[0]]), p - 2, p)
        result.append(tuple(int(v) * inv % p for v in row))
    return result


@dataclass(frozen=True, eq=False)
class PointConfig:
    """r projective points in n-space with coordinates in F_p.

    Rows of ``coords`` are homogeneous coordinate vectors: nonzero, and
    pairwise distinct as projective points.  ``seed`` records how the
    configuration was drawn and ``retries`` how many redraws the genericity
    check forced; both travel into certificates.

    A configuration drawn by ``sample_points`` keeps the degree-d component
    of its ideal, which the genericity check computes anyway, so
    ``ideal_component`` need not eliminate the same matrix again.  It is a
    cache of a value derived from the coordinates: not an argument, not
    part of equality, never written to a certificate.
    """

    n: int
    r: int
    coords: np.ndarray
    prime: PrimeField
    seed: int
    retries: int = 0
    _degree_d_basis: GradedBasis | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=np.int64) % self.prime.p
        if arr.shape != (self.r, self.n + 1):
            raise ValueError(
                f"expected coordinate shape {(self.r, self.n + 1)}, got {arr.shape}"
            )
        normalized = _normalized_rows(arr, self.prime.p)
        if normalized is None:
            raise ValueError("every point needs a nonzero coordinate row")
        if len(set(normalized)) != self.r:
            raise ValueError("rows must be pairwise distinct projective points")
        if arr.base is not None:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    def __eq__(self, other):
        if not isinstance(other, PointConfig):
            return NotImplemented
        return (
            self.n == other.n
            and self.r == other.r
            and self.prime == other.prime
            and self.seed == other.seed
            and self.retries == other.retries
            and np.array_equal(self.coords, other.coords)
        )

    __hash__ = None


@dataclass(frozen=True)
class GradedBasis:
    """Linearly independent forms of one degree, as coefficient columns.

    Column order of ``vectors`` follows the global monomial order at the
    given degree.
    """

    n: int
    degree: int
    vectors: ModMatrix

    def __post_init__(self):
        expected = hs(self.n, self.degree)
        if self.vectors.rows != expected:
            raise ValueError(
                f"degree-{self.degree} forms in {self.n + 1} variables need "
                f"{expected} coefficients, got {self.vectors.rows}"
            )

    @property
    def dim(self) -> int:
        return self.vectors.cols


@dataclass(frozen=True)
class ChoppedProfile:
    """Observed versus expected Hilbert data of one chopped quotient.

    Both tables run from degree 0 through d plus the relevant gap, with
    full polynomial-ring values below d.  ``verdict`` is "match" when the
    tables agree on the whole scanned range (which forces the gaps to
    agree too), otherwise "mismatch" with the first differing degree.
    """

    params: CaseParams
    observed: HilbertTable
    observed_gap: int | None
    expected: HilbertTable
    verdict: str
    first_mismatch_degree: int | None = None

    def __post_init__(self):
        if self.verdict == "match" and self.observed.values[-1] != self.params.r:
            raise ValueError("a matching profile must end at the point count")


def sample_points(n: int, r: int, prime: PrimeField, seed: int) -> PointConfig:
    """Draw r uniform points in projective n-space over F_p, redrawing until
    they are honestly generic.

    Genericity means the configuration imposes the largest possible number
    of conditions in every degree up to d+1, where d is the first degree
    with enough monomials to see all r points: rank of the evaluation
    matrix equals min(hs(n,t), r) there.  Degenerate draws (zero rows,
    repeated points, deficient ranks) are redrawn from the same seeded
    stream, so the output is a pure function of its arguments.

    Two lemmas let one rank and one kernel per draw decide all d+1 degrees:

    * Full column rank hs(n,d-1) at degree d-1 implies full column rank at
      every lower degree t: if a nonzero form f of degree t vanished on the
      points, so would the nonzero form x0^(d-1-t) f of degree d-1.
    * Rank r at degree d implies rank r at degree d+1.  A rank is the same
      over F_p and over its algebraic closure, and there some linear form
      l vanishes at none of the r points.  The value vector of l f is that
      of f scaled pointwise by the nonzero values of l, so l times the
      degree-d forms already takes every value vector on the points.  (Over
      F_p itself such an l exists when r <= p, since r hyperplanes of
      linear forms cannot cover all p^(n+1) of them; past that the
      extension is needed.)

    So the check ranks degree d-1 (when d >= 2) and takes the kernel at
    degree d, whose size gives the rank there; degree d+1 needs no matrix.
    The kernel is kept with the accepted configuration as the degree-d
    component of its ideal.
    """
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    budget = RETRY_BUDGET
    p = prime.p
    d = CaseParams(n, r).d
    rng = np.random.default_rng(seed)
    for attempt in range(budget):
        coords = rng.integers(0, p, size=(r, n + 1), dtype=np.int64)
        normalized = _normalized_rows(coords, p)
        if normalized is None or len(set(normalized)) != r:
            continue
        if d >= 2 and rank(_evaluation(coords, prime, d - 1)) != hs(n, d - 1):
            continue
        kernel = kernel_basis(_evaluation(coords, prime, d))
        if hs(n, d) - kernel.cols != r:
            continue
        config = PointConfig(n, r, coords, prime, seed, retries=attempt)
        object.__setattr__(config, "_degree_d_basis", GradedBasis(n, d, kernel))
        return config
    raise GenericityError(
        f"no generic configuration for n={n}, r={r}, p={p} in {budget} draws"
    )


def evaluation_matrix(config: PointConfig, t: int) -> ModMatrix:
    """r x hs(n,t) matrix whose (i, alpha) entry is point i raised to the
    exponent alpha, over all degree-t monomials in order."""
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    return _evaluation(config.coords, config.prime, t)


def ideal_component(config: PointConfig, t: int) -> GradedBasis:
    """Degree-t component of the vanishing ideal: forms whose coefficient
    vectors kill the evaluation matrix.

    Returns the basis a sampled configuration kept when t is its degree d;
    it is the same kernel, computed from the same matrix.
    """
    kept = config._degree_d_basis
    if kept is not None and kept.degree == t:
        return kept
    return GradedBasis(config.n, t, kernel_basis(evaluation_matrix(config, t)))


def macaulay_matrix(basis: GradedBasis, e: int) -> ModMatrix:
    """All degree-e monomial shifts of the basis forms, as columns in
    degree d+e.

    Column (j, m) holds the coefficients of (monomial m) * (form j); the
    columns come basis-form-major, monomial-minor, so the matrix is
    byte-for-byte reproducible.  Its column span is the degree-(d+e)
    component of the ideal generated by the basis.
    """
    if e < 0:
        raise ValueError(f"need e >= 0, got {e}")
    n, d = basis.n, basis.degree
    g = basis.dim
    he = hs(n, e)
    positions = product_index_map(n, d, e)
    out = np.zeros((hs(n, d + e), g * he), dtype=np.int64)
    ncols = out.shape[1]
    coeffs = basis.vectors.array
    shift_cols = np.arange(he, dtype=np.int64)[:, None]
    for j in range(g):
        flat = positions * ncols + (j * he + shift_cols)
        out.flat[flat.ravel()] = np.broadcast_to(coeffs[:, j], flat.shape).ravel()
    return ModMatrix(basis.vectors.field, out, _trusted=True)


def chopped_hf(config: PointConfig, d: int, t: int) -> int:
    """Hilbert function of the quotient by the ideal generated in degree d,
    evaluated at degree t >= d."""
    if t < d:
        raise ValueError(f"chopped quotient is only computed from degree d={d} up")
    basis = ideal_component(config, d)
    return _chopped_quotient(basis, t - d)


def _chopped_quotient(basis: GradedBasis, e: int) -> int:
    return hs(basis.n, basis.degree + e) - rank(macaulay_matrix(basis, e))


def observed_gap(
    config: PointConfig,
    d: int,
    e_max: int | None = None,
    *,
    check_stability: bool = False,
) -> int | None:
    """First e > 0 at which the chopped quotient drops back to r, or None
    if that never happens by e_max.

    The default horizon is the proven gap bound plus two degrees of slack,
    so a None return flags something anomalous rather than a short scan.
    With ``check_stability`` the quotient is also computed one degree past
    the hit and asserted to stay at r.
    """
    if e_max is None:
        e_max = max(gap_upper_bound(config.n, d), 1) + 2
    basis = ideal_component(config, d)
    for e in range(1, e_max + 1):
        if _chopped_quotient(basis, e) == config.r:
            if check_stability:
                following = _chopped_quotient(basis, e + 1)
                if following != config.r:
                    raise AssertionError(
                        f"quotient hit r at e={e} but moved to {following} next"
                    )
            return e
    return None


def h_vector(config: PointConfig, t_max: int) -> HilbertTable:
    """First difference of the observed Hilbert function of the points.

    The underlying Hilbert function at degree t is the rank of the
    evaluation matrix.  If it has stabilized at r by t_max the result is a
    complete h-vector (trailing zero tail); otherwise the table is left
    open-ended.
    """
    values = tuple(
        rank(evaluation_matrix(config, t)) for t in range(t_max + 1)
    )
    tail = config.r if values[-1] == config.r else None
    return first_difference(HilbertTable(config.n, values, tail))


def chopped_profile(config: PointConfig, e_max: int | None = None) -> ChoppedProfile:
    """Scan the chopped quotient degree by degree and compare it with the
    closed-form prediction.

    The scan starts at d and stops as soon as the quotient returns to r,
    or at e_max.  Values are compared as they appear; the first divergence
    is recorded and the verdict becomes "mismatch".  e_max defaults to the
    proven gap bound plus two and may not be set below the predicted gap.
    """
    params = CaseParams(config.n, config.r)
    d = params.d
    prediction = predicted_gap(params)
    if e_max is None:
        e_max = max(prediction.bound, prediction.gap) + 2
    if e_max < prediction.gap:
        raise ValueError(
            f"scan horizon e_max={e_max} is below the predicted gap {prediction.gap}"
        )

    basis = ideal_component(config, d)
    observed_values = [hs(config.n, t) for t in range(d)]
    observed_values.append(hs(config.n, d) - basis.dim)
    gap_seen: int | None = None
    for e in range(1, e_max + 1):
        q = _chopped_quotient(basis, e)
        observed_values.append(q)
        if q == config.r:
            gap_seen = e
            break

    first_mismatch: int | None = None
    for t, value in enumerate(observed_values):
        if value != prediction.table.value_at(t):
            first_mismatch = t
            break
    if first_mismatch is None and gap_seen is None:
        # Every scanned value matched yet the quotient never returned to r:
        # flag the first unscanned degree so the verdict cannot be "match".
        first_mismatch = len(observed_values)

    tail = config.r if gap_seen is not None else None
    observed = HilbertTable(config.n, tuple(observed_values), tail)
    verdict = "match" if first_mismatch is None else "mismatch"
    return ChoppedProfile(
        params=params,
        observed=observed,
        observed_gap=gap_seen,
        expected=prediction.table,
        verdict=verdict,
        first_mismatch_degree=first_mismatch,
    )
