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
(``_pivoted_qr``), and reflectors are applied with LAPACK unmqr.
``numerical_kernel`` is handed the adjoint mat^H of the matrix whose
kernel it finds as a ``Staircase``, which builds mat^H a block of columns
at a time: the catalecticant's is one block, whose build scales and
conjugates the rows of the catalecticant it is asked for
(``_equilibrated_adjoint``).  In lex order the
Macaulay matrix is a staircase: the shifts of each x_0-degree live in a
top band of rows.  ``cokernel_quotients`` never builds it whole: each
block of shifts is built by ``macaulay_array`` on its band when its turn
comes, receives the earlier blocks' reflectors, and is factored below the
rank so far, and it leaves behind only its kept reflectors.  So the
factorization holds those reflectors and one block, never the whole
matrix, and the rank at every block end gives the quotient at every
degree up to d+e.  The r shifts that index the multiplication
matrices come from a pivoted QR of a seeded (r+8)-row Gaussian sketch of
the shift stack, which is never built.  scipy is imported inside the
functions that call it: the exact pipeline imports this module through
the package and never loads scipy.

``decompose`` runs its pipeline, from the catalecticant to the final
least squares, on one BLAS thread (``modlinalg.one_blas_thread``): it
imports scipy.linalg first, so that both numpy's and scipy's OpenBLAS are
pinned, and restores the caller's thread counts on return.  Its matrices
are mid-sized, where a second thread costs more in synchronisation than it
saves, and its output bits do not depend on the caller's thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formulas import admissible, ci_socle, expected_gap_and_table
from .grading import hs, mono_index, monomials, product_index_map
from .modlinalg import _live_rows, one_blas_thread
from .pointideals import (Staircase, _check_memory, evaluation_array, macaulay_array,
                          macaulay_staircase)

DEFAULT_TOL = 1e-8
RESIDUAL_LIMIT = 1e-6
SCHEMA_VERSION = 1

_SPECTRAL_GAP_FLOOR = 10.0
_CONDITION_LIMIT = 1e10
_RETRY_DRAWS = 3
_PHASE_FLOOR = 1e-10
_CHUNK = 128  # columns per pass of the norms, a trailing update or a basis update


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
    top = math.factorial(D)
    return np.array([float(top // math.prod(map(math.factorial, m))) for m in monomials(n, D)])


def form_from_points(points, coefficients, D: int) -> SymmetricForm:
    """Expand a weighted sum of D-th powers of linear forms.

    The coefficient of y^beta is sum_i c_i * multinomial(D; beta) * z_i^beta.
    The sum runs on one BLAS thread, so its bits do not depend on the
    caller's thread count.
    """
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValueError(f"expected point rows of length >= 2, got {pts.shape}")
    if not np.all(np.linalg.norm(pts, axis=1) > 0):
        raise ValueError("zero rows cannot carry a linear form")
    n = pts.shape[1] - 1
    c = np.asarray(coefficients, dtype=np.complex128)
    with one_blas_thread():
        coeffs = _multinomials(n, D) * (c @ evaluation_array(pts, D))
    return SymmetricForm(n, D, coeffs)


def catalecticant(form: SymmetricForm, a: int) -> np.ndarray:
    """Matrix of the degree-a differentiation action on the form.

    Rows are indexed by degree D-a monomials, columns by degree-a
    monomials; entry (beta, alpha) is coeffs[alpha+beta] * (alpha+beta)!/beta!
    with factorials taken componentwise.  The weight is the product over
    the variables of (b+k)!/b!, b = beta_v and k = alpha_v, each gathered
    from one (D-a+1) x (a+1) table of those exact integers.
    """
    n, D = form.n, form.D
    if not 0 <= a <= D:
        raise ValueError(f"need 0 <= a <= {D}, got {a}")
    falling = np.array([[math.perm(b + k, k) for k in range(a + 1)] for b in range(D - a + 1)],
                       dtype=np.float64)
    rows = np.asarray(monomials(n, D - a), dtype=np.int64)
    cols = np.asarray(monomials(n, a), dtype=np.int64)
    weight = np.ones((rows.shape[0], cols.shape[0]), dtype=np.float64)
    for var in range(n + 1):
        weight *= falling[rows[:, var, None], cols[:, var]]
    positions = np.ascontiguousarray(product_index_map(n, D - a, a).T)
    return form.coeffs[positions] * weight


def _equilibrated_adjoint(mat: np.ndarray) -> Staircase:
    """The adjoint of mat with each nonzero row scaled to unit norm, as a
    one-block ``Staircase`` for ``numerical_kernel``: its build scales and
    conjugates the rows of mat it is asked for, and its scale is the
    largest column norm of that adjoint: the largest norm of a scaled row.
    A row norm that is not a finite float (a non-finite entry, or squares
    that overflow) raises ValueError here, before any block is built,
    instead of zeroing its row or filling it with NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(mat, axis=1)
    if not np.isfinite(norms).all():
        raise ValueError(
            "the catalecticant has rows of non-finite norm: the form's "
            "coefficients are not finite, or overflow once weighted"
        )
    norms = np.where(norms > 0, norms, 1.0)[:, None]

    def build(start: int, stop: int) -> np.ndarray:
        scaled = mat[start:stop] / norms[start:stop]
        return np.conjugate(scaled, out=scaled).T

    rows, cols = mat.shape
    scale = float(np.linalg.norm(mat / norms, axis=1).max(initial=0.0))
    return Staircase((cols, rows), (rows,), scale, build)


def _largest_column_norm(a: np.ndarray) -> float:
    """Largest column norm of ``a``, which is |R_00| of its pivoted QR, read
    a chunk of columns at a time so that no full-size temporary is made."""
    return max((float(np.linalg.norm(a[:, j : j + _CHUNK], axis=0).max())
                for j in range(0, a.shape[1], _CHUNK)), default=0.0)


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


def _apply_reflectors(side: bytes, reflectors, tau, c: np.ndarray) -> None:
    """c <- Q^H c or c Q^H in place (``side`` b"L" or b"R"), for Q the
    product of the Householder reflectors that geqp3 left in the columns
    of ``reflectors``: LAPACK unmqr after a workspace query.  c must be
    Fortran-ordered, so that unmqr writes into its storage."""
    import scipy.linalg

    if not c.flags.f_contiguous:
        raise ValueError("unmqr updates a Fortran-ordered array in place")
    unmqr = scipy.linalg.get_lapack_funcs("unmqr", (reflectors,))
    *_, work, _ = unmqr(side, b"C", reflectors, tau, c, -1, overwrite_c=1)  # c is not copied
    *_, info = unmqr(side, b"C", reflectors, tau, c, int(work[0].real), overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"unmqr failed with info {info}")


def _reflected(columns: np.ndarray, kept: list) -> np.ndarray:
    """``columns`` of mat^H with every kept block's reflectors applied in
    order, Q_1^H first, each on the rows it acts on.  Each block's rows are
    copied out a chunk of columns at a time, for unmqr, and written back."""
    for row0, reflectors, tau in kept:
        live = row0 + len(reflectors)
        for j in range(0, columns.shape[1], _CHUNK):
            chunk = np.array(columns[row0:live, j : j + _CHUNK], order="F")
            _apply_reflectors(b"L", reflectors, tau, chunk)
            columns[row0:live, j : j + _CHUNK] = chunk
            del chunk  # before the next one is copied out
    return columns


def _next_block(stairs: Staircase, start: int, end: int, rank: int, kept: list) -> np.ndarray:
    """The Fortran-ordered buffer that factors the staircase's columns
    [start, end) once the kept reflectors have reached them: their rows
    from ``rank`` on, down to the last nonzero one, or down to the last row
    of mat^H for a block that reaches its last column.  That block, the
    largest, is built a chunk of columns at a time straight into place; the
    rows above ``rank`` (R12 of the earlier blocks) are never kept.  A
    chunk is as many runs of gcd(ends) columns as fit in ``_CHUNK``, or one."""
    size, count = stairs.shape
    if end < count:
        columns = _reflected(stairs.build(start, end), kept)
        live = rank + _live_rows(columns[rank:])
        return np.array(columns[rank:live], order="F")
    block = np.zeros((size - rank, end - start), dtype=np.complex128, order="F")
    unit = math.gcd(*stairs.ends) or 1
    step = max(1, _CHUNK // unit) * unit
    for j in range(start, end, step):
        columns = _reflected(stairs.build(j, min(j + step, end)), kept)
        block[: len(columns) - rank, j - start : j - start + columns.shape[1]] = columns[rank:]
        del columns  # before the next chunk is built
    return block


def numerical_kernel(stairs: Staircase, rank_hint: int | None = None,
                     tol: float = DEFAULT_TOL):
    """Orthonormal basis of the right null space of mat, by column-pivoted
    QR of its adjoint mat^H, handed as a ``Staircase``.

    mat^H is factored left-looking, one block of columns at a time, and
    never held whole: each block is built when its turn comes, receives
    every earlier block's kept reflectors, and is factored from the rank so
    far down to its last nonzero row (``_next_block``) by LAPACK geqp3, as
    ``_pivoted_qr`` does.  Pivoting stays inside a block and makes its
    |diag(R)| non-increasing, and it stands in for the singular values: an
    entry is kept when it is above tol relative to the staircase's scale,
    the largest column norm of the whole of mat^H, or, given rank_hint, the
    first rank_hint entries are; a hint applies to a one-block staircase
    only, which is a plain pivoted QR.  A block leaves behind only its kept
    reflectors and their tau.  The gap is the smallest kept entry over the
    largest dropped one: 0 when a kept entry is not above that cutoff,
    which only a hint can ask for, and inf when nothing is dropped.
    Without a hint, a gap under 10 means the cutoff is a guess, and that
    is reported as an error rather than a silent choice.  The basis is the
    orthogonal complement of the kept pivoted rows of mat; it is got by
    applying the kept reflectors to unit vectors, never forming Q.

    Returns (basis, ranks, gap), ranks the rank of mat^H's leading columns
    up to each block end: one entry per block.
    """
    if not 0 < tol < 1:
        raise ValueError(f"need tol in (0, 1), got {tol}")
    size, count = stairs.shape
    bounds = [0, *stairs.ends]
    if bounds[-1] != count or bounds != sorted(bounds):
        raise ValueError(f"ends {bounds[1:]} are no staircase of a {size} x {count} mat^H")
    if rank_hint is not None and len(bounds) > 2:
        raise ValueError("rank_hint applies to one block only")
    cutoff = tol * stairs.scale

    rank, ranks, kept = 0, [], []
    smallest, largest = math.inf, 0.0
    for start, end in zip(bounds, bounds[1:]):
        block = _next_block(stairs, start, end, rank, kept)
        factor, tau, _ = _pivoted_qr(block)
        diag = np.abs(np.diagonal(factor))
        if rank_hint is None:
            k = int(np.count_nonzero(diag > cutoff))
        elif 0 <= rank_hint <= diag.shape[0]:
            k = rank_hint
        else:
            raise ValueError(f"rank_hint {rank_hint} out of range")
        if k:
            smallest = min(smallest, float(diag[k - 1]))
            kept.append((rank, factor[:, :k], tau[:k]))
        if k < diag.shape[0]:
            largest = max(largest, float(diag[k]))
        del block, factor  # a block's buffer goes, but for its kept reflectors
        rank += k
        ranks.append(rank)

    if smallest <= cutoff:
        gap = 0.0
    elif largest > 0:
        gap = smallest / largest if rank else 1.0
    else:
        gap = math.inf
    if rank_hint is None and math.isfinite(gap) and gap < _SPECTRAL_GAP_FLOOR:
        raise AmbiguousRankError(
            f"R-diagonal ratios give no clear rank: gap {gap:.2f} at index {rank}"
        )
    # The basis is Q [0; I], held as its adjoint [0, I] Q^H so that the
    # rows a reflector acts on are contiguous columns.  Q is the product of
    # the kept reflectors in order, so [0, I] Q^H takes them last first, a
    # chunk at a time: unmqr wants a chunk's reflectors from its own first
    # row down, so each chunk is copied, never a whole block.
    basis = np.zeros((size - rank, size), dtype=np.complex128, order="F")
    basis[:, rank:] = np.eye(size - rank)
    if size == rank:  # unmqr rejects a basis with no rows
        kept = []
    for row0, reflectors, tau in reversed(kept):
        for a in reversed(range(0, reflectors.shape[1], _CHUNK)):
            b = min(a + _CHUNK, reflectors.shape[1])
            _apply_reflectors(b"R", np.asfortranarray(reflectors[a:, a:b]), tau[a:b],
                              basis[:, row0 + a : row0 + len(reflectors)])
    basis = np.conjugate(basis, out=basis).T
    return basis, ranks, gap


def cokernel_quotients(n: int, d: int, forms: np.ndarray, e: int,
                       tol: float = DEFAULT_TOL) -> tuple[np.ndarray, list[int], float]:
    """Cokernel of the Macaulay matrix M at degree d+e of the degree-d
    ``forms`` (columns over ``monomials(n, d)``), and the quotient that M
    shows at every degree d+1..d+e.

    The cokernel is taken under the bilinear pairing: the vectors x with
    x^T M = 0.  For the ideal of points these are spanned by the evaluation
    functionals f -> f(z_i), unconjugated, which is what the eigenvalue step
    of ``decompose`` needs.  They are the kernel of M^T, whose adjoint is M
    conjugated: the Macaulay matrix of the conjugated forms.

    M's rows and shifts descend in x_0's exponent: the shifts of x_0-exponent
    e-k and up, the first g*hs(n,k) columns for g forms, are x_0^(e-k) times
    the Macaulay matrix at degree d+k, on its top hs(n,d+k) rows.  M is
    never built: ``numerical_kernel`` is handed it as a ``Staircase`` with
    blocks ending at those columns, and each block of shifts is built when
    its turn comes, by ``macaulay_array`` on the top rows it reaches.  The
    rank at every block end gives the quotient at every degree up to d+e
    from the one pass: hs(n,d+k) minus that rank at degree d+k.  A column of
    M holds one form's coefficients, so M's largest column norm, which sets
    the cutoff, is the largest form's.

    Before the first block is built, the working set is checked against
    physical memory: each block's top rows times its columns (a bound on
    the reflectors it leaves behind), plus the largest block, at 16 bytes a
    cell.  Too large a case raises ``CapacityError`` then.

    Returns (cokernel, quotients, gap): the cokernel's orthonormal basis as
    columns, the quotient at degrees d+1..d+e, and the smallest R-diagonal
    gap over the blocks, inf when no block drops an entry.
    """
    g = forms.shape[1]
    conjugated = np.conjugate(forms)
    ends = [g * hs(n, k) for k in range(e + 1)]
    cells = [hs(n, d + k) * (end - start) for k, (start, end) in enumerate(zip([0, *ends], ends))]
    _check_memory(f"a staircase of {e + 1} blocks of a {hs(n, d + e)} x {ends[-1]} Macaulay "
                  f"matrix", 16 * (sum(cells) + max(cells)))

    stairs = macaulay_staircase(
        n, d, g, e, [hs(n, k) for k in range(e + 1)],
        lambda first, stop: macaulay_array(n, d, conjugated, e, shifts=(first, stop)),
        _largest_column_norm(forms))
    cokernel, ranks, gap = numerical_kernel(stairs, tol=tol)
    return cokernel, [hs(n, d + k) - ranks[k] for k in range(1, e + 1)], gap


def _working_parameters(n: int, r: int, D: int) -> tuple[int, int]:
    """Smallest usable generation degree d <= D/2 and its gap e.

    Degrees with r < hs(n,d) - n support the full pipeline.  The boundary
    r = hs(n,d) - n is usable exactly when the kernel is a complete
    intersection cutting out d^n = r points; its quotient settles at r by
    its socle degree n(d-1) (``ci_socle``), giving the gap below.
    """
    for d in range(1, D // 2 + 1):
        if admissible(n, d, r):
            return d, expected_gap_and_table(n, d, r)[0]
        if d**n == r == hs(n, d) - n:
            return d, max(1, ci_socle(n, (d,) * n) - d)
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


def _sketched_shifts(cokernel: np.ndarray, shifts: np.ndarray, r: int,
                     seed: int) -> np.ndarray:
    """The r monomials of degree d+e-1, sorted, whose shifted cokernel rows
    are as independent as possible: the first r pivots of a pivoted QR of
    the shift stack S, whose k-th block of r rows is C_k^T for C_k =
    cokernel[shifts[k]], of size hs(n,d+e-1) x r.

    S is never built.  Its rows lie in the span of the r evaluation
    functionals, so S = U W with U an (n+1)r x r matrix of orthonormal
    columns.  For G the column of n+1 complex Gaussian blocks G_k, each
    r x (r+8), the sketch G^T S = (G^T U) W has the same row space, and the
    (r+8) x r Gaussian G^T U is well conditioned with high probability: the
    pivots of the sketch's QR pick columns about as well as the stack's
    would (Martinsson, Quintana-Orti, Heavner and van de Geijn, "Householder
    QR factorization with randomization for column pivoting", SIAM J. Sci.
    Comput. 2017; Duersch and Gu, "Randomized QR with column pivoting",
    SIAM J. Sci. Comput. 2017).  The sketch is Y^T for Y = sum_k C_k G_k,
    hs(n,d+e-1) x (r+8) and row-major, so Y^T is the Fortran-ordered array
    the QR factors.  The G_k come from a generator of their own, seeded
    [seed, 1], which leaves the draws of a generator seeded ``seed`` as
    they were.
    """
    gauss = np.random.default_rng([seed, 1])
    size = (r, r + 8)
    sketch = np.zeros((shifts.shape[1], r + 8), dtype=np.complex128)
    for row in shifts:
        sketch += cokernel[row, :] @ (gauss.standard_normal(size)
                                      + 1j * gauss.standard_normal(size))
    _, _, pivots = _pivoted_qr(sketch.T)
    return np.sort(pivots[:r])


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

    The Macaulay matrix is factored as a staircase, one pivoted QR per
    x_0-degree block of its shifts, each block built when its turn comes,
    so the matrix is never held whole (``cokernel_quotients``).
    Every run that gets that far reports, in its diagnostics, the quotient
    at every degree d+1..d+e beside the expected table, and the R-diagonal
    gaps of both factorizations; a cokernel that is not r-dimensional
    raises with them.

    Everything after the argument checks runs on one BLAS thread, and the
    caller's thread counts are restored on return or raise.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if not np.any(form.coeffs):
        raise ValueError("the zero form has no Waring decomposition")
    n, D = form.n, form.D
    d, e = _working_parameters(n, r, D)

    import scipy.linalg  # noqa: F401  (loaded before the pin, so it is pinned too)

    with one_blas_thread():
        with np.errstate(over="ignore", invalid="ignore"):
            cat = catalecticant(form, d)
        kernel, (cat_rank,), cat_gap = numerical_kernel(_equilibrated_adjoint(cat), r, tol=tol)
        diagnostics = {
            "catalecticant_rank": cat_rank,
            "kernel_dim": kernel.shape[1],
            "macaulay_degree": d + e,
            "cokernel_condition": math.inf,
            "eigen_offdiag_max": math.inf,
            "catalecticant_gap": cat_gap,
        }
        if cat_gap == 0:  # any cokernel found past this roundoff would be a fluke
            raise DecompositionError(f"the catalecticant's R diagonal is at most tol relative "
                                     f"to its first entry at index {r - 1}, so the form's "
                                     f"rank is probably not {r}", diagnostics)

        cokernel, observed, cokernel_gap = cokernel_quotients(n, d, kernel, e, tol)
        expected = list(expected_gap_and_table(n, d, r)[1][d + 1 : d + e + 1])
        diagnostics.update(numerical_quotient=observed, expected_quotient=expected,
                           cokernel_gap=cokernel_gap)
        if cokernel.shape[1] != r:
            if cat_gap < _SPECTRAL_GAP_FLOOR:
                # the hint r, not the gap prediction, is what does not fit
                cause = (f"the catalecticant shows no clear rank-{r} cutoff (R-diagonal "
                         f"gap {cat_gap:.2f}), so the form's rank is probably not {r}")
            else:
                cause = f"the gap prediction e={e} failed for this form"
            raise DecompositionError(
                f"cokernel dimension {cokernel.shape[1]}, expected {r}; {cause}: quotient "
                f"dimensions at degrees {d + 1}..{d + e} are {observed}, expected {expected}",
                diagnostics,
            )

        # Pick r monomials of degree d+e-1 to index the multiplication
        # matrices, by a pivoted QR of an (r+8)-row Gaussian sketch of the
        # shift stack, seeded from ``seed`` (``_sketched_shifts``).
        # shifts[k, b]: position in degree d+e of x_k times the b-th monomial
        # of degree d+e-1 (monomials(n, 1)[k] is x_k)
        shifts = product_index_map(n, d + e - 1, 1)
        chosen = _sketched_shifts(cokernel, shifts, r, seed)
        blocks = cokernel[shifts[:, chosen]]
        del cokernel

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

        solved = np.linalg.solve(n_ell, blocks)
        del blocks
        _, eigvecs = np.linalg.eig(np.tensordot(ell_prime, solved, axes=(0, 0)))
        conjugated = np.linalg.inv(eigvecs) @ solved @ eigvecs
        coords = np.diagonal(conjugated, axis1=1, axis2=2).T.copy()
        conjugated[:, range(r), range(r)] = 0
        diagnostics["eigen_offdiag_max"] = float(np.abs(conjugated).max())
        # the least-squares system below is the largest array left: kept
        # through it, these and the cokernel took the traced peak at
        # (4,12,200) from 18.5 to 24.1 MiB
        del solved, conjugated, eigvecs

        try:
            points, _ = _normalized_points(coords)
        except ValueError as exc:
            raise DecompositionError(f"eigenvalue step: {exc}", diagnostics) from exc
        system = evaluation_array(points, D)
        system *= _multinomials(n, D)  # in place: no second array of the system's size
        system = system.T
        coefficients, *_ = np.linalg.lstsq(system, form.coeffs, rcond=None)
        residual = float(
            np.linalg.norm(system @ coefficients - form.coeffs) / form.norm
        )
        if not residual <= RESIDUAL_LIMIT:  # a NaN residual fails too
            raise DecompositionError(
                f"FAILED_RESIDUAL: relative error {residual:.3e} exceeds "
                f"{RESIDUAL_LIMIT:.0e}",
                {**diagnostics, "residual": residual},
            )
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
    """JSON-ready dictionary with one term per nonzero coefficient.
    No caller outside the tests: kept because it writes the form files
    that the ``decompose`` command reads (through ``form_from_dict``)."""
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


def diagnostics_to_dict(diagnostics: dict) -> dict:
    """Diagnostics for strict JSON: a non-finite float, such as an infinite
    R-diagonal gap, is written as null."""
    return {key: None if isinstance(value, float) and not math.isfinite(value)
            else value for key, value in diagnostics.items()}


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
        "diagnostics": diagnostics_to_dict(result.diagnostics),
    }
