"""Numerical Waring decomposition of complex symmetric forms.

A degree-D form in n+1 variables with a rank-r expression as a sum of
D-th powers of linear forms hides a point configuration: the kernel of a
catalecticant matrix recovers the degree-d equations of those points, and
eigenvalue computations on multiplication matrices built from a Macaulay
matrix at the gap degree d+e extract the points themselves.  Everything
here works over the complex numbers in floating point; exactness is
replaced by rank thresholds on the R diagonal of column-pivoted QR
factorizations and by residual checks.

Every pivoted QR runs LAPACK geqp3 in place on a column-major buffer
(``_pivoted_qr``).  ``decompose`` builds the cokernel's Macaulay matrix
column-major and factors it in its own storage, so it holds one copy of
the largest matrix of the pipeline.  scipy is imported inside
the functions that call it: the exact pipeline imports this module
through the package and never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formulas import admissible, expected_gap_and_table
from .grading import hs, mono_index, monomials, product_index_map
from .pointideals import evaluation_array, macaulay_array

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
    """The ratios of consecutive |diag(R)| entries of a pivoted QR show
    no clear cutoff at the requested scale."""


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
        if self.D < 0:
            raise ValueError(f"need degree D >= 0, got {self.D}")
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
    coeffs = _multinomials(n, D) * (c @ evaluation_array(pts, D))
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
    rows = np.asarray(monomials(n, D - a), dtype=np.int64)
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
    """mat with each nonzero row scaled to unit norm.  A row norm that is
    not a finite float (a non-finite entry, or squares that overflow)
    raises ValueError instead of zeroing its row or filling it with NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(mat, axis=1)
    if not np.isfinite(norms).all():
        raise ValueError(
            "the catalecticant has rows of non-finite norm: the form's "
            "coefficients are not finite, or overflow once weighted"
        )
    scale = np.where(norms > 0, norms, 1.0)
    return mat / scale[:, None]


def _diagonal_rank(diag: np.ndarray, tol: float) -> int:
    """Count of the non-increasing |diag(R)| entries above tol relative
    to the first."""
    if diag.shape[0] == 0 or diag[0] == 0:
        return 0
    return int(np.count_nonzero(diag > tol * diag[0]))


def _pivoted_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-pivoted QR of ``a`` in place: LAPACK geqp3 after a workspace
    query, the call ``scipy.linalg.qr(a, pivoting=True, mode="raw")`` makes.

    ``a`` must be Fortran-ordered and the caller's to spend: its storage
    becomes the factor, R on and above the diagonal and the Householder
    reflectors below it.  No separate R is formed.  Returns (factor, tau,
    pivots), the pivots 0-based.
    """
    import scipy.linalg

    if not a.flags.f_contiguous:
        raise ValueError("the pivoted QR factors a Fortran-ordered array in place")
    if not np.isfinite(a).all():
        raise ValueError("the pivoted QR needs finite entries")
    if a.size == 0:
        return a, np.zeros(min(a.shape), dtype=a.dtype), np.arange(a.shape[1], dtype=np.int32)
    geqp3 = scipy.linalg.get_lapack_funcs("geqp3", (a,))
    *_, work, _ = geqp3(a, lwork=-1, overwrite_a=1)
    factor, pivots, tau, _, info = geqp3(a, lwork=int(work[0].real), overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"geqp3 failed with info {info}")
    pivots -= 1
    return factor, tau, pivots


def numerical_kernel(
    mat, rank_hint: int | None = None, tol: float = DEFAULT_TOL, overwrite_a: bool = False
):
    """Orthonormal basis of the right null space by column-pivoted QR.

    Factors mat^H P = Q R with LAPACK geqp3, in place (``_pivoted_qr``).
    mat^H is conjugated into a column-major copy of mat, and mat is left
    unchanged.  With ``overwrite_a``, a row-major complex128 mat, whose
    transpose is column-major, is conjugated in its own storage instead,
    which then holds the factor: the caller gives mat up.  Pivoting makes
    |diag(R)| non-increasing, and it stands in for the singular values:
    the rank is rank_hint when given, otherwise the count of diagonal
    entries above tol relative to |R_00|.  The gap is the ratio of the
    last kept to the first dropped diagonal entry; without a hint, a gap
    under 10 means the cutoff is a guess, and that is reported as an error
    rather than a silent choice.  The basis is the trailing columns of Q,
    the orthogonal complement of the leading pivoted rows of mat; they are
    got by applying the reflectors to unit vectors, never forming Q.

    Returns (basis, rank, gap).
    """
    import scipy.linalg

    if not 0 < tol < 1:
        raise ValueError(f"need tol in (0, 1), got {tol}")
    arr = np.atleast_2d(np.asarray(mat, dtype=np.complex128))
    cols = arr.shape[1]
    adjoint = arr.T
    if not (overwrite_a and adjoint.flags.f_contiguous and adjoint.flags.writeable):
        adjoint = np.array(adjoint, order="F")
    np.conjugate(adjoint, out=adjoint)
    qr, tau, _ = _pivoted_qr(adjoint)
    diag = np.abs(np.diagonal(qr))
    if rank_hint is not None:
        if not 0 <= rank_hint <= diag.shape[0]:
            raise ValueError(f"rank_hint {rank_hint} out of range")
        rank = rank_hint
    else:
        rank = _diagonal_rank(diag, tol)
    if rank < diag.shape[0] and diag[rank] > 0:
        gap = float(diag[rank - 1] / diag[rank]) if rank > 0 else 1.0
    else:
        gap = math.inf
    if rank_hint is None and math.isfinite(gap) and gap < _SPECTRAL_GAP_FLOOR:
        raise AmbiguousRankError(
            f"R-diagonal ratios give no clear rank: gap {gap:.2f} at index {rank}"
        )
    basis = np.zeros((cols, cols - rank), dtype=np.complex128, order="F")
    basis[rank:, :] = np.eye(cols - rank)
    if tau.shape[0] == 0:  # mat has no rows: Q is the identity
        return basis, rank, gap
    # When mat has more rows than columns, mat^H is wide and has fewer
    # reflectors than columns; unmqr takes only the columns that hold one.
    reflectors = qr[:, : tau.shape[0]]
    unmqr = scipy.linalg.get_lapack_funcs("unmqr", (qr,))
    *_, work, _ = unmqr(b"L", b"N", reflectors, tau, basis, -1)
    basis, _, info = unmqr(
        b"L", b"N", reflectors, tau, basis, int(work[0].real), overwrite_c=1
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"unmqr failed with info {info}")
    return basis, rank, gap


def _quotient_dim(n: int, d: int, kernel: np.ndarray, t: int, tol: float) -> int:
    """hs(n,t) minus the numerical rank of the degree-t Macaulay matrix of
    the kernel forms, read from |diag(R)| as numerical_kernel reads it."""
    factor, _, _ = _pivoted_qr(macaulay_array(n, d, kernel, t - d, order="F"))
    return hs(n, t) - _diagonal_rank(np.abs(np.diagonal(factor)), tol)


def _working_parameters(n: int, r: int, D: int) -> tuple[int, int]:
    """Smallest usable generation degree d <= D/2 and its gap e.

    Degrees with r < hs(n,d) - n support the full pipeline.  The boundary
    r = hs(n,d) - n is usable exactly when the kernel is a complete
    intersection cutting out d^n = r points; its quotient settles at r by
    degree n(d-1), giving the gap formula below.
    """
    for d in range(1, D // 2 + 1):
        if admissible(n, d, r):
            return d, expected_gap_and_table(n, d, r)[0]
        if d**n == r == hs(n, d) - n:
            return d, max(1, n * (d - 1) - d)
    raise UnsupportedRankError(
        f"rank {r} needs a generation degree past {D // 2}; "
        f"degree {D} is too small"
    )


def _normalized_points(points) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row to unit norm with its leading sizable entry real
    positive, the declared representative of the projective class.

    Returns the normalized rows and, per row, the scale that maps the
    normalized row back to the given one.  A zero row has no
    representative and raises ValueError.
    """
    out = np.array(points, dtype=np.complex128)
    scales = np.empty(out.shape[0], dtype=np.complex128)
    for i, row in enumerate(out):
        scale = np.linalg.norm(row)
        if scale == 0:
            raise ValueError(f"point row {i} is zero and names no projective point")
        row /= scale
        for entry in row:
            if abs(entry) > _PHASE_FLOOR:
                phase = entry.conjugate() / abs(entry)
                row *= phase
                scale /= phase
                break
        scales[i] = scale
    return out, scales


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
    if not np.any(form.coeffs):
        raise ValueError("the zero form has no Waring decomposition")
    n, D = form.n, form.D
    d, e = _working_parameters(n, r, D)

    with np.errstate(over="ignore", invalid="ignore"):
        cat = catalecticant(form, d)
    kernel, cat_rank, _ = numerical_kernel(
        _row_equilibrated(cat), rank_hint=r, tol=tol, overwrite_a=True
    )
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
    # The matrix is built column-major, so its transpose is row-major and
    # numerical_kernel factors it in this one buffer, which is spent then.
    macaulay = macaulay_array(n, d, kernel, e, order="F")
    cokernel, _, _ = numerical_kernel(macaulay.T, tol=tol, overwrite_a=True)
    del macaulay
    if cokernel.shape[1] != r:
        # Failure path only: the quotient at every degree up to d+e, read
        # from the same pivoted QR, beside the formulas' expected table.
        observed = [
            _quotient_dim(n, d, kernel, t, tol) for t in range(d + 1, d + e)
        ] + [cokernel.shape[1]]
        expected = list(expected_gap_and_table(n, d, r)[1][d + 1 : d + e + 1])
        diagnostics["numerical_quotient"] = observed
        diagnostics["expected_quotient"] = expected
        raise DecompositionError(
            f"cokernel dimension {cokernel.shape[1]}, expected {r}; the gap "
            f"prediction e={e} failed for this form: quotient dimensions at "
            f"degrees {d + 1}..{d + e} are {observed}, expected {expected}",
            diagnostics,
        )

    # Pick r monomials of degree d+e-1 whose shifted cokernel rows are as
    # independent as possible; they index the multiplication matrices.
    # shifts[k, b]: position in degree d+e of x_k times the b-th monomial
    # of degree d+e-1 (monomials(n, 1)[k] is x_k)
    shifts = product_index_map(n, d + e - 1, 1)
    stacked = np.empty(((n + 1) * r, shifts.shape[1]), dtype=np.complex128, order="F")
    for k in range(n + 1):
        stacked[k * r : (k + 1) * r] = cokernel[shifts[k], :].T
    _, _, pivots = _pivoted_qr(stacked)
    del stacked
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

    try:
        points, _ = _normalized_points(coords)
    except ValueError as exc:
        raise DecompositionError(f"eigenvalue step: {exc}", diagnostics) from exc
    weights = _multinomials(n, D)
    system = (weights * evaluation_array(points, D)).T
    coefficients, *_ = np.linalg.lstsq(system, form.coeffs, rcond=None)
    residual = float(
        np.linalg.norm(system @ coefficients - form.coeffs) / form.norm
    )
    diagnostics["residual"] = residual
    if not residual <= RESIDUAL_LIMIT:  # a NaN residual fails too
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
    A zero point row on either side raises ValueError.
    """
    import scipy.optimize

    def reduce(points, coefficients):
        pts, scales = _normalized_points(points)
        cs = np.array(coefficients, dtype=np.complex128)
        # scalar powers, one row at a time: numpy's vectorized complex
        # power rounds differently
        for i, scale in enumerate(scales):
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


def _checked(value, kinds, name: str):
    """``value`` when it has one of the types ``kinds`` (bools excluded);
    otherwise ValueError naming the form field it was read from."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"form field {name} is missing or malformed: {value!r}")
    return value


def _finite(value, name: str) -> float:
    """``value`` as a finite float; otherwise ValueError naming the form
    field it was read from (JSON admits Infinity and NaN)."""
    value = _checked(value, (int, float), name)
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"form field {name} must be finite, got {value!r}")
    return value


def form_from_dict(data: dict) -> SymmetricForm:
    """Inverse of ``form_to_dict``.  A malformed document raises ValueError
    naming the bad field."""
    data = _checked(data, dict, "<document>")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported form schema {data.get('schema_version')}")
    n, D = (_checked(data.get(key), int, key) for key in ("n", "D"))
    if D < 0:
        raise ValueError(f"form field D must be >= 0, got {D}")
    coeffs = np.zeros(hs(n, D), dtype=np.complex128)
    seen = set()
    for i, term in enumerate(_checked(data.get("terms"), list, "terms")):
        where = f"terms[{i}]"
        term = _checked(term, dict, where)
        exponent = _checked(term.get("exponent"), list, f"{where}.exponent")
        for v in exponent:
            _checked(v, int, f"{where}.exponent")
        parts = [_finite(term.get(k), f"{where}.{k}") for k in ("re", "im")]
        index = mono_index(n, D, exponent)
        if index in seen:
            raise ValueError(f"{where}.exponent {exponent} is a duplicate of an earlier term")
        seen.add(index)
        coeffs[index] = complex(*parts)
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
