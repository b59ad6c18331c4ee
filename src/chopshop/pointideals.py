"""Ideals of point configurations over a prime field.

A configuration is a list of projective points with coordinates in F_p.
Its ideal is only ever touched degree by degree: the degree-t component is
the kernel of the evaluation matrix, and the ideal generated by the degree-d
component ("chopped" at d) is spanned degree by degree by columns of a
Macaulay matrix.  Every quantity of interest here (Hilbert functions,
saturation gaps) is a rank of one of these matrices.  The evaluation and
Macaulay builders work on any coefficient dtype, so the floating-point
Waring pipeline builds its matrices with them too.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .formulas import CaseParams, predicted_gap
# unused here, but the benchmark's tracer (benchmarks/tracing.py) patches it
from .formulas import gap_upper_bound  # noqa: F401
from .grading import CapacityError, HilbertTable, hs, monomials, product_index_map
from .modlinalg import ModMatrix, PrimeField, _echelon, kernel_basis, rank


class GenericityError(RuntimeError):
    """Sampling kept producing configurations that fail the genericity test."""


RETRY_BUDGET = 16


def evaluation_array(coords: np.ndarray, t: int, p: int | None = None) -> np.ndarray:
    """Evaluations of the degree-t monomials at the rows of ``coords``.

    Entry (i, alpha) is the alpha-th monomial of degree t evaluated at row
    i, in the dtype of ``coords``: int64 coordinates over F_p for the exact
    pipeline (a product of two residues needs int64; ``ModMatrix`` narrows
    the reduced result to int32), complex points for the Waring one.  Built
    from per-variable power tables so each entry costs n+1 multiplications
    instead of t.
    With a modulus p every product is reduced mod p.
    """
    r, nvars = coords.shape
    exps = np.asarray(monomials(nvars - 1, t), dtype=np.int64)
    out = np.ones((r, exps.shape[0]), dtype=coords.dtype)
    for i in range(nvars):
        powers = np.empty((r, t + 1), dtype=coords.dtype)
        powers[:, 0] = 1
        for k in range(1, t + 1):
            powers[:, k] = powers[:, k - 1] * coords[:, i]
            if p is not None:
                powers[:, k] %= p
        out = out * powers[:, exps[:, i]]
        if p is not None:
            out %= p
    return out


def _normalized_rows(coords: np.ndarray, p: int) -> np.ndarray | None:
    """Each row scaled so its first nonzero entry is 1, or None if some row
    is zero.  Two rows are the same projective point iff they normalize to
    the same row."""
    nonzero = coords != 0
    if not nonzero.any(axis=1).all():
        return None
    lead = coords[np.arange(coords.shape[0]), nonzero.argmax(axis=1)]
    inverses = np.array([pow(int(v), -1, p) for v in lead], dtype=np.int64)
    return coords * inverses[:, None] % p


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
        if len(np.unique(normalized, axis=0)) != self.r:
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
    """The chopped quotient of one configuration, as scanned.

    ``observed`` runs from degree 0 through the last scanned degree, with
    full polynomial-ring values below d.  When the quotient came back to r,
    at degree d + ``observed_gap``, the table ends there with tail r;
    otherwise ``observed_gap`` is None and the table has no tail.  Nothing
    here is compared with the prediction: ``verify`` judges the profile.
    """

    observed: HilbertTable
    observed_gap: int | None


def sample_points(n: int, r: int, prime: PrimeField, seed: int) -> PointConfig:
    """Draw r uniform points in projective n-space over F_p, redrawing until
    they are honestly generic.

    Genericity means the configuration imposes the largest possible number
    of conditions in every degree up to d+1, where d is the first degree
    with enough monomials to see all r points: rank of the evaluation
    matrix equals min(hs(n,t), r) there.  Degenerate draws (zero rows,
    repeated points, deficient ranks) are redrawn from the same seeded
    stream, so the output is a pure function of its arguments.

    Three lemmas let one kernel per draw decide all d+1 degrees:

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
    * Full column rank at degree d-1 can be read off the degree-d kernel
      K.  Take a variable x_i that vanishes at none of the points.  A form
      f of degree d-1 vanishes on them iff x_i f does, so ker E_{d-1} is
      isomorphic to the degree-d forms in the ideal that are divisible by
      x_i.  Those are the vectors Kc whose coefficients vanish at the
      hs(n-1,d) monomials not divisible by x_i, and c -> Kc is injective, so
      ker E_{d-1} is isomorphic to the kernel of K restricted to those
      rows.  Degree d-1 has full column rank iff that small matrix (at
      most hs(n-1,d) x dim K) has full column rank.

    So the check takes the kernel at degree d, whose size gives the rank
    there, then ranks K's rows off x_i (when d >= 2); degree d+1 needs no
    matrix.  When every variable vanishes at some point, which needs a
    small prime, the check ranks the degree-(d-1) evaluation matrix
    itself instead.  Either way a draw is accepted exactly when the three
    ranks are full.  The kernel is kept with the accepted configuration as
    the degree-d component of its ideal.
    """
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    budget = RETRY_BUDGET
    p = prime.p
    d = CaseParams(n, r).d
    rng = np.random.default_rng(seed)
    for attempt in range(budget):
        coords = rng.integers(0, p, size=(r, n + 1), dtype=np.int64)
        try:
            config = PointConfig(n, r, coords, prime, seed, retries=attempt)
        except ValueError:  # a zero row or a repeated point
            continue
        kernel = kernel_basis(evaluation_matrix(config, d))
        if hs(n, d) - kernel.cols != r:
            continue
        if d >= 2 and not _full_rank_below(config.coords, prime, d, kernel):
            continue
        object.__setattr__(config, "_degree_d_basis", GradedBasis(n, d, kernel))
        return config
    raise GenericityError(
        f"no generic configuration for n={n}, r={r}, p={p} in {budget} draws"
    )


def _full_rank_below(coords: np.ndarray, prime: PrimeField, d: int,
                     kernel: ModMatrix) -> bool:
    """Whether the points impose hs(n,d-1) conditions in degree d-1, given
    the degree-d kernel (the third lemma of ``sample_points``).  It takes
    bare coordinates, not a ``PointConfig``, so any matrix can test it."""
    n = coords.shape[1] - 1
    nonvanishing = np.flatnonzero(coords.all(axis=0))
    if nonvanishing.size == 0:
        below = evaluation_array(coords, d - 1, prime.p)
        return rank(ModMatrix(prime, below, _trusted=True)) == hs(n, d - 1)
    i = int(nonvanishing[0])
    off_xi = [m[i] == 0 for m in monomials(n, d)]
    return rank(ModMatrix(prime, kernel.array[off_xi], _trusted=True)) == kernel.cols


def evaluation_matrix(config: PointConfig, t: int) -> ModMatrix:
    """r x hs(n,t) matrix whose (i, alpha) entry is point i raised to the
    exponent alpha, over all degree-t monomials in order."""
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    values = evaluation_array(config.coords, t, config.prime.p)
    return ModMatrix(config.prime, values, _trusted=True)


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


def macaulay_array(n: int, d: int, coeffs: np.ndarray, e: int, order: str = "C") -> np.ndarray:
    """All degree-e monomial shifts of degree-d forms, as columns in degree
    d+e.

    ``coeffs`` holds one form per column (hs(n,d) rows, any dtype; the
    result has the same dtype).  Column m*g + j holds (monomial m) * (form
    j), for the g forms and the degree-e monomials in ``monomials`` order:
    monomial-major, form-minor.  Rows and shifts both ascend in the last
    variable's exponent, so read backwards the matrix is a staircase (see
    ``chopped_profile``).  Its column span is the degree-(d+e) component of
    the ideal generated by the forms.  ``order`` is the result's memory
    layout, "C" or "F"; the Waring side builds column-major, the layout
    LAPACK factors in place.  A matrix larger than physical memory, counted
    at the coefficients' item size (4 bytes a cell for the int32 residues of
    the exact pipeline), raises ``CapacityError`` instead of being allocated.
    """
    g = coeffs.shape[1]
    he = hs(n, e)
    shape = (hs(n, d + e), he * g)
    need = shape[0] * shape[1] * coeffs.itemsize
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise CapacityError(f"a {shape[0]} x {shape[1]} Macaulay matrix needs {need} "
                            f"bytes, more than the {have} bytes of physical memory")
    positions = product_index_map(n, d, e)
    out = np.zeros(shape, dtype=coeffs.dtype, order=order)
    out[positions[:, :, None], np.arange(he * g).reshape(he, 1, g)] = coeffs[None]
    return out


def macaulay_matrix(basis: GradedBasis, e: int) -> ModMatrix:
    """The Macaulay matrix of the basis forms at degree d+e over F_p (see
    ``macaulay_array``)."""
    if e < 0:
        raise ValueError(f"need e >= 0, got {e}")
    out = macaulay_array(basis.n, basis.degree, basis.vectors.array, e)
    return ModMatrix(basis.vectors.field, out, _trusted=True)


def chopped_hf(config: PointConfig, d: int, t: int) -> int:
    """Hilbert function of the quotient by the ideal generated in degree d,
    evaluated at degree t >= d.

    No caller outside the tests: it is kept because acceptance criterion 3
    evaluates single degrees of the chopped quotient through it.
    """
    if t < d:
        raise ValueError(f"chopped quotient is only computed from degree d={d} up")
    basis = ideal_component(config, d)
    if t == d:
        return hs(basis.n, d) - basis.dim
    return _graded_quotients(basis, t - d)[-1]


def _graded_quotients(basis: GradedBasis, top: int) -> list[int]:
    """Chopped quotient at degrees d+1, ..., d+top from one elimination of
    the Macaulay matrix at degree d+top, read backwards (see ``chopped_profile``).
    The built matrix and its reversed working copy are both int32."""
    a = macaulay_matrix(basis, top).array[::-1, ::-1].copy()
    # x_n-exponent of each reversed column's shift, non-increasing
    key = np.repeat([m[-1] for m in monomials(basis.n, top)], basis.dim)[::-1]
    piv = _echelon(a, basis.vectors.field.p)
    per_key = np.bincount(key[piv], minlength=top + 1)
    # rank of the columns with key >= top - e, for e = 0 .. top
    ranks = np.cumsum(per_key[::-1])
    return [hs(basis.n, basis.degree + e) - int(ranks[e]) for e in range(1, top + 1)]


def chopped_profile(config: PointConfig, e_max: int | None = None) -> ChoppedProfile:
    """Scan the chopped quotient degree by degree.

    The scan starts at d and stops as soon as the quotient returns to r,
    or at e_max.  e_max defaults to the proven gap bound plus two and may
    not be set below the predicted gap.

    Every degree up to the predicted gap G comes from one elimination, of
    the Macaulay matrix M_G at degree d+G read backwards on both axes.  Its
    columns come shift by shift, and the shifts ascend in the exponent of
    the last variable x_n, so the reversed columns descend in it.  The
    columns whose exponent is at least G-e are exactly x_n^(G-e) times the
    columns of M_e, and multiplying by x_n^(G-e) is injective, so that
    column prefix has the rank of M_e.  Elimination from left to right
    picks pivots in column rank-profile order, so the pivots in a prefix
    count its rank: the quotient at d+e is hs(n,d+e) minus the pivots whose
    exponent is at least G-e.  When the quotient has not returned to r by
    G, one more elimination, at e_max, gives the rest of the scan the same
    way.

    The rows ascend in the exponent of x_n too, so the reversed rows
    descend in it.  A column whose shift has exponent k is nonzero only in
    rows divisible by x_n^k, the top hs(n,d+G-k) rows after the reversal,
    a block that only grows from left to right: the matrix is a staircase,
    and elimination keeps it one (see ``modlinalg``).  Row order does not
    change the column rank profile, so the pivots, and with them the
    quotients, are those of the matrix with only its columns reversed.
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
    quotients = _graded_quotients(basis, prediction.gap)
    if config.r not in quotients and e_max > prediction.gap:
        quotients = _graded_quotients(basis, e_max)
    gap_seen = quotients.index(config.r) + 1 if config.r in quotients else None
    observed_values = [hs(config.n, t) for t in range(d)]
    observed_values.append(hs(config.n, d) - basis.dim)
    observed_values += quotients[:gap_seen]
    tail = config.r if gap_seen is not None else None
    return ChoppedProfile(HilbertTable(config.n, tuple(observed_values), tail), gap_seen)
