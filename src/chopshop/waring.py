"""Numerical Waring decomposition of complex symmetric forms.

A degree-D form in n+1 variables with a rank-r expression as a sum of
D-th powers of linear forms hides a point configuration: the kernel of a
catalecticant matrix recovers the degree-d equations of those points, and
eigenvalue computations on multiplication matrices built from a Macaulay
matrix at the gap degree d+e extract the points themselves.  Everything
here works over the complex numbers in floating point; exactness is
replaced by singular-value thresholds and residual checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .grading import hs, mono_index, monomials, product_index_map

DEFAULT_TOL = 1e-8
RESIDUAL_LIMIT = 1e-6
SCHEMA_VERSION = 1

_SPECTRAL_GAP_FLOOR = 10.0
_CONDITION_LIMIT = 1e10
_RETRY_DRAWS = 3
_PHASE_FLOOR = 1e-10


class WaringError(RuntimeError):
    """Base class for decomposition failures."""


class UnsupportedRankError(WaringError, ValueError):
    """No admissible working degree exists for the requested rank."""


class AmbiguousRankError(WaringError):
    """The singular spectrum has no clear cutoff at the requested scale."""


class DecompositionError(WaringError):
    """Pipeline failure; carries the diagnostics gathered so far."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


@dataclass(frozen=True, eq=False)
class SymmetricForm:
    """Dense coefficient vector of a homogeneous form.

    ``coeffs[i]`` is the plain monomial coefficient of ``monomials(n, D)[i]``;
    no factorial weights are baked in.
    """

    n: int
    D: int
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.shape[0] != hs(self.n, self.D):
            raise ValueError(
                f"expected {hs(self.n, self.D)} coefficients for degree "
                f"{self.D} in {self.n + 1} variables, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Recovered points (unit rows, leading entry real positive),
    coefficients, relative residual, and run diagnostics."""

    points: np.ndarray
    coefficients: np.ndarray
    residual: float
    diagnostics: dict


def _exponent_rows(n: int, t: int) -> np.ndarray:
    return np.array([list(m) for m in monomials(n, t)], dtype=np.int64)


def _power_matrix(points: np.ndarray, t: int) -> np.ndarray:
    """Evaluations z^alpha: row per point, column per degree-t monomial."""
    pts = np.asarray(points, dtype=np.complex128)
    r, width = pts.shape
    n = width - 1
    exps = _exponent_rows(n, t)
    powers = np.empty((r, width, t + 1), dtype=np.complex128)
    powers[:, :, 0] = 1.0
    for k in range(1, t + 1):
        powers[:, :, k] = powers[:, :, k - 1] * pts
    out = np.ones((r, exps.shape[0]), dtype=np.complex128)
    for j in range(width):
        out *= powers[:, j, exps[:, j]]
    return out


def _multinomials(n: int, D: int) -> np.ndarray:
    """Multinomial coefficients D!/(b_0! ... b_n!) per degree-D monomial."""
    out = np.empty(hs(n, D), dtype=np.float64)
    for i, m in enumerate(monomials(n, D)):
        value, used = 1, 0
        for b in m:
            used += b
            value *= math.comb(used, b)
        out[i] = float(value)
    return out


def form_from_points(points, coefficients, D: int) -> SymmetricForm:
    """Expand a weighted sum of D-th powers of linear forms.

    The coefficient of y^beta is sum_i c_i * multinomial(D; beta) * z_i^beta.
    """
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValueError(f"expected point rows of length >= 2, got {pts.shape}")
    if not np.all(np.linalg.norm(pts, axis=1) > 0):
        raise ValueError("zero rows cannot carry a linear form")
    n = pts.shape[1] - 1
    c = np.asarray(coefficients, dtype=np.complex128)
    coeffs = _multinomials(n, D) * (c @ _power_matrix(pts, D))
    return SymmetricForm(n, D, coeffs)


def catalecticant(form: SymmetricForm, a: int) -> np.ndarray:
    """Matrix of the degree-a differentiation action on the form.

    Rows are indexed by degree D-a monomials, columns by degree-a
    monomials; entry (beta, alpha) is coeffs[alpha+beta] * (alpha+beta)!/beta!
    with factorials taken componentwise.  The weights are accumulated as
    floating-point products of small integer ranges, so no factorial is
    ever formed whole.
    """
    n, D = form.n, form.D
    if not 0 <= a <= D:
        raise ValueError(f"need 0 <= a <= {D}, got {a}")
    rows = _exponent_rows(n, D - a)
    cols = monomials(n, a)
    positions = product_index_map(n, D - a, a)
    out = np.empty((rows.shape[0], len(cols)), dtype=np.complex128)
    for j, alpha in enumerate(cols):
        weight = np.ones(rows.shape[0], dtype=np.float64)
        for var, power in enumerate(alpha):
            for step in range(1, power + 1):
                weight *= rows[:, var] + step
        out[:, j] = form.coeffs[positions[j, :]] * weight
    return out


def _row_equilibrated(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1)
    scale = np.where(norms > 0, norms, 1.0)
    return mat / scale[:, None]


def numerical_kernel(mat, rank_hint: int | None = None, tol: float = DEFAULT_TOL):
    """Orthonormal basis of the right null space by SVD.

    Returns (basis, rank, spectral_gap).  The rank is rank_hint when
    given, otherwise the count of singular values above tol relative to
    the largest; in the latter case a spectral gap under 10 means the
    cutoff is a guess, and that is reported as an error rather than a
    silent choice.
    """
    if not 0 < tol < 1:
        raise ValueError(f"need tol in (0, 1), got {tol}")
    arr = np.atleast_2d(np.asarray(mat, dtype=np.complex128))
    _, sigma, vh = np.linalg.svd(arr, full_matrices=True)
    if rank_hint is not None:
        if not 0 <= rank_hint <= sigma.shape[0]:
            raise ValueError(f"rank_hint {rank_hint} out of range")
        rank = rank_hint
    elif sigma.shape[0] == 0 or sigma[0] == 0:
        rank = 0
    else:
        rank = int(np.count_nonzero(sigma > tol * sigma[0]))
    if rank < sigma.shape[0] and sigma[rank] > 0:
        gap = float(sigma[rank - 1] / sigma[rank]) if rank > 0 else 1.0
    else:
        gap = math.inf
    if rank_hint is None and math.isfinite(gap) and gap < _SPECTRAL_GAP_FLOOR:
        raise AmbiguousRankError(
            f"singular values give no clear rank: gap {gap:.2f} at index {rank}"
        )
    basis = vh[rank:, :].conj().T
    return basis, rank, gap


def apolarity_check(f, form: SymmetricForm, tol: float = DEFAULT_TOL) -> bool:
    """Whether the polynomial with coefficient vector f annihilates the form."""
    vec = np.asarray(f, dtype=np.complex128)
    degree = next(
        (t for t in range(form.D + 1) if hs(form.n, t) == vec.shape[0]), None
    )
    if degree is None:
        raise ValueError(
            f"coefficient length {vec.shape[0]} matches no degree <= {form.D}"
        )
    image = catalecticant(form, degree) @ vec
    bound = tol * form.norm * float(np.linalg.norm(vec))
    return float(np.linalg.norm(image)) <= bound


def _macaulay_complex(n: int, d: int, basis: np.ndarray, e: int) -> np.ndarray:
    """Degree-e monomial shifts of the basis forms, columns in degree d+e.

    Same layout as the exact Macaulay matrix over a prime field: columns
    basis-form-major, shift-monomial-minor.
    """
    g = basis.shape[1]
    he = hs(n, e)
    positions = product_index_map(n, d, e)
    out = np.zeros((hs(n, d + e), g * he), dtype=np.complex128)
    ncols = out.shape[1]
    shift_cols = np.arange(he, dtype=np.int64)[:, None]
    for j in range(g):
        flat = positions * ncols + (j * he + shift_cols)
        out.flat[flat.ravel()] = np.broadcast_to(basis[:, j], flat.shape).ravel()
    return out


def _gap_at(n: int, d: int, r: int) -> int:
    """Least e > 0 where the syzygy count meets hs(n, d+e) - r.

    Same alternating sum as the expected chopped dimension, evaluated at
    an explicit generation degree d rather than the minimal one.
    """
    g = hs(n, d) - r
    e = 1
    while True:
        raw, k = 0, 1
        while d + e - k * d >= 0:
            raw += (-1) ** (k + 1) * hs(n, d + e - k * d) * math.comb(g, k)
            k += 1
        if hs(n, d + e) - r <= raw:
            return e
        e += 1


def _working_parameters(n: int, r: int, D: int) -> tuple[int, int]:
    """Smallest usable generation degree d <= D/2 and its gap e.

    Degrees with r < hs(n,d) - n support the full pipeline.  The boundary
    r = hs(n,d) - n is usable exactly when the kernel is a complete
    intersection cutting out d^n = r points; its quotient settles at r by
    degree n(d-1), giving the gap formula below.
    """
    for d in range(1, D // 2 + 1):
        slack = hs(n, d) - n - r
        if slack > 0:
            return d, _gap_at(n, d, r)
        if slack == 0 and d**n == r:
            return d, max(1, n * (d - 1) - d)
    raise UnsupportedRankError(
        f"rank {r} needs a generation degree past {D // 2}; "
        f"degree {D} is too small"
    )


def _normalized_points(points: np.ndarray) -> np.ndarray:
    """Scale each row to unit norm with its leading sizable entry real
    positive, the declared representative of the projective class."""
    out = np.array(points, dtype=np.complex128)
    for row in out:
        norm = np.linalg.norm(row)
        if norm == 0:
            raise DecompositionError("recovered a zero coordinate row")
        row /= norm
        for entry in row:
            if abs(entry) > _PHASE_FLOOR:
                row *= entry.conjugate() / abs(entry)
                break
    return out


def decompose(
    form: SymmetricForm,
    r: int,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> DecompositionResult:
    """Recover a rank-r power-sum expression for the form.

    Pipeline: catalecticant kernel at the working degree d gives the
    degree-d equations of the hidden points; a Macaulay matrix at degree
    d+e (e the predicted gap) has the r-dimensional quotient as cokernel;
    multiplication matrices on that cokernel commute, and their joint
    eigenvalues are the point coordinates.  Coefficients come from a
    final least-squares solve and the relative residual is checked
    against 1e-6.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    n, D = form.n, form.D
    d, e = _working_parameters(n, r, D)

    cat = catalecticant(form, d)
    kernel, cat_rank, _ = numerical_kernel(_row_equilibrated(cat), rank_hint=r, tol=tol)
    diagnostics = {
        "catalecticant_rank": cat_rank,
        "kernel_dim": kernel.shape[1],
        "macaulay_degree": d + e,
        "cokernel_condition": math.inf,
        "eigen_offdiag_max": math.inf,
    }
    if kernel.shape[1] == 0:
        raise DecompositionError("catalecticant kernel is empty", diagnostics)

    # Cokernel under the bilinear pairing: vectors x with x^T M = 0.  For
    # the true ideal these are spanned by the evaluation functionals
    # f -> f(z_i), unconjugated, which is what the eigenvalue step needs.
    macaulay = _macaulay_complex(n, d, kernel, e)
    cokernel, _, _ = numerical_kernel(macaulay.T, tol=tol)
    if cokernel.shape[1] != r:
        raise DecompositionError(
            f"cokernel dimension {cokernel.shape[1]}, expected {r}; the gap "
            f"prediction e={e} failed for this form",
            diagnostics,
        )

    # Pick r monomials of degree d+e-1 whose shifted cokernel rows are as
    # independent as possible; they index the multiplication matrices.
    # shifts[k, b]: position in degree d+e of x_k times the b-th monomial
    # of degree d+e-1 (monomials(n, 1)[k] is x_k)
    shifts = product_index_map(n, d + e - 1, 1)
    stacked = np.concatenate(
        [cokernel[shifts[k], :].T for k in range(n + 1)], axis=0
    )
    _, _, pivots = scipy.linalg.qr(stacked, mode="economic", pivoting=True)
    chosen = np.sort(pivots[:r])
    blocks = np.stack([cokernel[shifts[k][chosen], :] for k in range(n + 1)])

    rng = np.random.default_rng(seed)
    for _ in range(1 + _RETRY_DRAWS):
        ell = np.exp(2j * np.pi * rng.random(n + 1))
        ell_prime = np.exp(2j * np.pi * rng.random(n + 1))
        n_ell = np.tensordot(ell, blocks, axes=(0, 0))
        condition = float(np.linalg.cond(n_ell))
        if condition <= _CONDITION_LIMIT:
            break
    else:
        diagnostics["cokernel_condition"] = condition
        raise DecompositionError(
            f"multiplication matrix stayed ill-conditioned "
            f"({condition:.2e}) after {_RETRY_DRAWS} fresh linear forms",
            diagnostics,
        )
    diagnostics["cokernel_condition"] = condition

    n_prime = np.tensordot(ell_prime, blocks, axes=(0, 0))
    _, eigvecs = np.linalg.eig(np.linalg.solve(n_ell, n_prime))
    inv_vecs = np.linalg.inv(eigvecs)

    coords = np.empty((r, n + 1), dtype=np.complex128)
    offdiag_max = 0.0
    for k in range(n + 1):
        conjugated = inv_vecs @ np.linalg.solve(n_ell, blocks[k]) @ eigvecs
        coords[:, k] = np.diagonal(conjugated)
        off = conjugated - np.diag(np.diagonal(conjugated))
        offdiag_max = max(offdiag_max, float(np.max(np.abs(off))))
    diagnostics["eigen_offdiag_max"] = offdiag_max

    points = _normalized_points(coords)
    weights = _multinomials(n, D)
    system = (weights * _power_matrix(points, D)).T
    coefficients, *_ = np.linalg.lstsq(system, form.coeffs, rcond=None)
    residual = float(
        np.linalg.norm(system @ coefficients - form.coeffs) / form.norm
    )
    diagnostics["residual"] = residual
    if residual > RESIDUAL_LIMIT:
        raise DecompositionError(
            f"FAILED_RESIDUAL: relative error {residual:.3e} exceeds "
            f"{RESIDUAL_LIMIT:.0e}",
            diagnostics,
        )
    del diagnostics["residual"]
    return DecompositionResult(points, coefficients, residual, diagnostics)


def random_unit_points(n: int, r: int, seed: int) -> np.ndarray:
    """r points with coordinates uniform on the complex unit circle.

    Unit-circle coordinates keep the power expansions well scaled, which
    is what makes the floating-point pipeline behave.
    """
    rng = np.random.default_rng(seed)
    return np.exp(2j * np.pi * rng.random((r, n + 1)))


def recovery_error(
    true_points, true_coefficients, found_points, found_coefficients, D: int
) -> tuple[float, float]:
    """Best-matching point and coefficient errors between two decompositions.

    Both sides are reduced to the normalized representatives (unit rows,
    leading entry real positive, coefficients rescaled to compensate),
    then matched by minimum-cost assignment on pairwise point distances.
    """

    def reduce(points, coefficients):
        pts = np.array(points, dtype=np.complex128)
        cs = np.array(coefficients, dtype=np.complex128)
        for i, row in enumerate(pts):
            scale = np.linalg.norm(row)
            row /= scale
            for entry in row:
                if abs(entry) > _PHASE_FLOOR:
                    phase = entry.conjugate() / abs(entry)
                    row *= phase
                    scale /= phase
                    break
            cs[i] *= scale**D
        return pts, cs

    a_pts, a_cs = reduce(true_points, true_coefficients)
    b_pts, b_cs = reduce(found_points, found_coefficients)
    distances = np.linalg.norm(a_pts[:, None, :] - b_pts[None, :, :], axis=2)
    rows, cols = scipy.optimize.linear_sum_assignment(distances)
    point_error = float(distances[rows, cols].max())
    scale = float(np.abs(a_cs).max())
    coefficient_error = float(np.abs(a_cs[rows] - b_cs[cols]).max()) / scale
    return point_error, coefficient_error


def form_to_dict(form: SymmetricForm) -> dict:
    """JSON-ready dictionary with one term per nonzero coefficient."""
    terms = [
        {"exponent": list(mono), "re": float(c.real), "im": float(c.imag)}
        for mono, c in zip(monomials(form.n, form.D), form.coeffs)
        if c != 0
    ]
    return {"schema_version": SCHEMA_VERSION, "n": form.n, "D": form.D, "terms": terms}


def form_from_dict(data: dict) -> SymmetricForm:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported form schema {data.get('schema_version')}")
    n, D = int(data["n"]), int(data["D"])
    coeffs = np.zeros(hs(n, D), dtype=np.complex128)
    for term in data["terms"]:
        idx = mono_index(n, D, term["exponent"])
        coeffs[idx] = complex(term["re"], term["im"])
    return SymmetricForm(n, D, coeffs)


def result_to_dict(result: DecompositionResult) -> dict:
    return {
        "points": [
            [{"re": float(z.real), "im": float(z.imag)} for z in row]
            for row in result.points
        ],
        "coefficients": [
            {"re": float(c.real), "im": float(c.imag)}
            for c in result.coefficients
        ],
        "residual": result.residual,
        "diagnostics": dict(result.diagnostics),
    }
