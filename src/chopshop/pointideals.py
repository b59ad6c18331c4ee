"""Ideals of point configurations over a prime field.

A configuration is a list of projective points with coordinates in F_p.
Its ideal is only ever touched degree by degree: the degree-t component is
the kernel of the evaluation matrix, and the ideal generated by the degree-d
component ("chopped" at d) is spanned degree by degree by columns of a
Macaulay matrix.  Every quantity of interest here (Hilbert functions,
saturation gaps) is a rank of one of these matrices.  The evaluation and
Macaulay builders work on any coefficient dtype, so the floating-point
Waring pipeline builds its matrices with them too.

The points fix some rows of every Macaulay matrix (the normal-set argument
of Buchberger and Moeller, EUROCAM 1982).  Let P be the pivot columns of
the degree-d evaluation matrix E_d, and suppose x_0 vanishes at none of
the points.  Lex order lists x_0's multiples first, so in degree t >= d
the monomials x_0^(t-d) P sit at the same positions as P in degree d, and
E_t restricted to them is E_d[:, P] with row i scaled by x_0^(t-d) at
point i: full column rank.  So a degree-t form that vanishes on the points
is determined by its other coordinates, and since every column of a
Macaulay matrix of the ideal's forms vanishes on the points, deleting
those rows keeps the rank of every set of its columns.  The chopped scan
builds its staircase without them (``_fixed_rows``), except the last:
where the quotient is r the matrix keeps one row more than its rank, so
an elimination that overcounts a rank there still shows a quotient below
r.  When x_0 vanishes at some point every row is kept.

Both pipelines take a Macaulay matrix too large to hold whole as a
``Staircase``: its shape, the ends of its blocks of whole shifts, and a
build of any range of them on the top rows it reaches, made by one builder
(``macaulay_staircase``).  ``waring.cokernel_quotients`` ends its blocks at
the degree boundaries and hands them to its QR; the chopped scan ends its
blocks where they would pass ``BATCH_BYTES`` of int32, on panel boundaries
where it can, and hands them to ``modlinalg._block_echelon``
(``_staircase``), after checking the scan's working set against physical
memory.  A scan within that budget is built whole and runs in lockstep.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .formulas import CaseParams, predicted_gap
# unused here, but the benchmark's tracer (benchmarks/tracing.py) patches it
from .formulas import gap_upper_bound  # noqa: F401
from .grading import CapacityError, HilbertTable, hs, monomials, product_index_map
from .modlinalg import (_LEAF, ModMatrix, PrimeField, _block_echelon, _echelons, _inverses,
                        _kernels, rank)
# unused here, but the benchmark's tracer (benchmarks/tracing.py) patches it
from .modlinalg import kernel_basis  # noqa: F401


class GenericityError(RuntimeError):
    """Sampling kept producing configurations that fail the genericity test."""


RETRY_BUDGET = 16

# Bytes of the matrices one lockstep batch holds at once (``_lockstep``):
# every matrix of a batch is alive until the batch ends, so the cap bounds
# what batching adds to the peak.  The 21 cases of degree 23 in the plane
# take 7.5 MB of int32 evaluation matrices, four batches under this cap.
# A 4 MiB cap took a plane grid's peak RSS 12% above the case-at-a-time
# code's in the benchmark, which keeps every round's output; 2 MiB 7%.
BATCH_BYTES = 2 << 20


def _check_memory(what: str, need: int) -> None:
    """Raise ``CapacityError`` when ``need`` bytes exceed physical memory,
    before anything that size is allocated."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise CapacityError(f"{what} needs {need} bytes, more than the {have} bytes of "
                            f"physical memory")


def evaluation_array(coords: np.ndarray, t: int, p: int | None = None) -> np.ndarray:
    """Evaluations of the degree-t monomials at the rows of ``coords``.

    Entry (i, alpha) is the alpha-th monomial of degree t evaluated at row
    i, in the dtype of ``coords``: int64 coordinates over F_p for the exact
    pipeline (a product of two residues needs int64; ``ModMatrix`` narrows
    the reduced result to int32), complex points for the Waring one.  Built
    from per-variable power tables so each entry costs n multiplications
    instead of t.
    With a modulus p every product is reduced mod p, in a third array of
    that shape besides the result and a gathered power table; without one
    the products are taken in place.  A build whose three arrays would
    exceed physical memory raises ``CapacityError`` instead, with or
    without a modulus.
    """
    r, nvars = coords.shape
    exps = np.asarray(monomials(nvars - 1, t), dtype=np.int64)
    h = exps.shape[0]
    _check_memory(f"building a {r} x {h} evaluation matrix", 3 * r * h * coords.itemsize)
    out = None
    for i in range(nvars):
        powers = np.empty((r, t + 1), dtype=coords.dtype)
        powers[:, 0] = 1
        for k in range(1, t + 1):
            powers[:, k] = powers[:, k - 1] * coords[:, i]
            if p is not None:
                powers[:, k] %= p
        gathered = np.take(powers, exps[:, i], axis=1)  # C order, as every array here
        if out is None:
            out = gathered
        elif p is None:  # unreduced products go into the result's own buffer
            out *= gathered
            del gathered  # before the next table is gathered
        else:  # x - p * (x // p): a floor division costs less than a remainder
            out = out * gathered
            np.floor_divide(out, p, out=gathered)
            gathered *= p
            out -= gathered
    return out


def _normalized_rows(coords: np.ndarray, p: int) -> np.ndarray | None:
    """Each row of the reduced coords scaled so its first nonzero entry is
    1, or None if some row is zero.  Two rows are the same projective point
    iff they normalize to the same row.  The leading entries are inverted
    together (``modlinalg._inverses``); every product of two residues fits
    in int64."""
    nonzero = coords != 0
    if not nonzero.any(axis=1).all():
        return None
    leading = coords[np.arange(coords.shape[0]), nonzero.argmax(axis=1)]
    inverses = np.array(_inverses(leading.tolist(), p), dtype=np.int64)
    return coords * inverses[:, None] % p


def _has_repeated_row(rows: np.ndarray) -> bool:
    """Whether two rows are equal: neighbours after a lexicographic sort."""
    ordered = rows[np.lexsort(rows.T)]
    return bool((ordered[1:] == ordered[:-1]).all(axis=1).any())


@dataclass(frozen=True, eq=False)
class PointConfig:
    """r projective points in n-space with coordinates in F_p.

    Rows of ``coords`` are homogeneous coordinate vectors: nonzero, and
    pairwise distinct as projective points.  ``seed`` records how the
    configuration was drawn and ``retries`` how many redraws the genericity
    check forced; both travel into certificates.

    ``ideal_component`` keeps each graded component of the ideal it
    computes, by degree, so the degree-d kernel that the genericity check
    takes is not eliminated again.  It is a cache of values derived from
    the coordinates: not an argument, not part of equality, never written
    to a certificate.
    """

    n: int
    r: int
    coords: np.ndarray
    prime: PrimeField
    seed: int
    retries: int = 0
    _components: dict[int, GradedBasis] = field(default_factory=dict, init=False,
                                                repr=False)

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=np.int64) % self.prime.p
        if arr.shape != (self.r, self.n + 1):
            raise ValueError(
                f"expected coordinate shape {(self.r, self.n + 1)}, got {arr.shape}"
            )
        normalized = _normalized_rows(arr, self.prime.p)
        if normalized is None:
            raise ValueError("every point needs a nonzero coordinate row")
        if _has_repeated_row(normalized):
            raise ValueError("rows must be pairwise distinct projective points")
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
      K.  Lex order lists x_0's multiples first, so the first hs(n,d-1)
      columns of E_d are E_{d-1} with row i scaled by x_0 at point i.  K
      is in echelon-complement form (``kernel_basis``): each column's last
      nonzero entry is at its free coordinate, a column of E_d that
      depends on the columns before it.  So those first columns are
      independent iff every column of K is nonzero below row hs(n,d-1),
      and then E_{d-1} has full column rank.  When x_0 vanishes at none of
      the points the scaling loses no rank, and the converse holds.

    So the check (``is_generic``) takes the kernel at degree d, whose size
    gives the rank there, then looks where K's columns end (when d >= 2);
    degree d+1 needs no matrix.  Only when some column ends too high and
    x_0 vanishes at some point, which needs a small prime, does the check
    rank the degree-(d-1) evaluation matrix itself.  Either way a draw is
    accepted exactly when the three ranks are full.

    This is ``sample_configs`` of one case.
    """
    config, = sample_configs([(n, r, seed)], prime)
    if config is None:
        raise GenericityError(
            f"no generic configuration for n={n}, r={r}, p={prime.p} in {RETRY_BUDGET} draws"
        )
    return config


def sample_configs(cases: list[tuple[int, int, int]], prime: PrimeField) -> list:
    """``sample_points`` of every case (n, r, seed), with None for a case
    whose retry budget runs out.

    Each case draws from its own seeded stream, so it gets the configuration
    ``sample_points`` gives it alone.  The first draws of all cases are
    checked together: their degree-d kernels are eliminated in lockstep
    (``_eliminate``), those of one n and d as one batch.  Only a case whose
    first draw fails draws again, alone.
    """
    for n, r, _ in cases:
        if n < 1 or r < 1:
            raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    streams = [np.random.default_rng(seed) for _, _, seed in cases]
    firsts = [_draw(n, r, prime, seed, rng, 0) for (n, r, seed), rng in zip(cases, streams)]
    drawn = [config for config in firsts if config is not None]
    _eliminate(drawn, [CaseParams(config.n, config.r).d for config in drawn])
    configs = []
    for (n, r, seed), rng, config in zip(cases, streams, firsts):
        for attempt in range(1, RETRY_BUDGET + 1):
            if config is not None and is_generic(config):
                break
            config = _draw(n, r, prime, seed, rng, attempt) if attempt < RETRY_BUDGET else None
        configs.append(config)
    return configs


def _draw(n: int, r: int, prime: PrimeField, seed: int, rng: np.random.Generator,
          attempt: int) -> PointConfig | None:
    """The next r uniform points of the stream, or None when a row is zero
    or a point repeats."""
    coords = rng.integers(0, prime.p, size=(r, n + 1), dtype=np.int64)
    try:
        return PointConfig(n, r, coords, prime, seed, retries=attempt)
    except ValueError:
        return None


def is_generic(config: PointConfig) -> bool:
    """Whether the points pass the genericity check of ``sample_points``:
    full rank at degree d, read off the size of its kernel, at degree d-1,
    read off where the kernel's columns end, hence at d+1.  Sampling and
    replay both decide by it.  The kernel is the degree-d component of the
    ideal, which the configuration keeps."""
    n, d = config.n, CaseParams(config.n, config.r).d
    kernel = ideal_component(config, d).vectors
    if hs(n, d) - kernel.cols != config.r:
        return False
    return d < 2 or _full_rank_below(config.coords, config.prime, d, kernel)


def _full_rank_below(coords: np.ndarray, prime: PrimeField, d: int,
                     kernel: ModMatrix) -> bool:
    """Whether the points impose hs(n,d-1) conditions in degree d-1, given
    the degree-d kernel (the third lemma of ``sample_points``): yes when
    every kernel column ends below row hs(n,d-1), no when some column ends
    above it and x_0 vanishes at none of the points, and otherwise the
    rank of the degree-(d-1) evaluation matrix.  It takes bare
    coordinates, not a ``PointConfig``, so any matrix can test it."""
    n = coords.shape[1] - 1
    if kernel.array[hs(n, d - 1):].any(axis=0).all():
        return True
    if coords[:, 0].all():
        return False
    below = evaluation_array(coords, d - 1, prime.p)
    return rank(ModMatrix(prime, below, _trusted=True)) == hs(n, d - 1)


def evaluation_matrix(config: PointConfig, t: int) -> ModMatrix:
    """r x hs(n,t) matrix whose (i, alpha) entry is point i raised to the
    exponent alpha, over all degree-t monomials in order."""
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    values = evaluation_array(config.coords, t, config.prime.p)
    return ModMatrix(config.prime, values, _trusted=True)


def ideal_component(config: PointConfig, t: int) -> GradedBasis:
    """Degree-t component of the vanishing ideal: forms whose coefficient
    vectors kill the evaluation matrix.  Each degree is computed once per
    configuration and kept on it (``_eliminate`` of one configuration)."""
    _eliminate([config], [t])
    return config._components[t]


def _eliminate(configs: list[PointConfig], degrees: list[int]) -> None:
    """Keep on each configuration its ideal's component at its entry of
    ``degrees``, unless it has it already: the kernels of the evaluation
    matrices (``modlinalg._kernels``), in lockstep batches of one n, degree
    and prime (``_lockstep``)."""
    todo = [(config, t) for config, t in zip(configs, degrees) if t not in config._components]
    kernels = _lockstep(todo, lambda job: (job[0].n, job[1], job[0].prime.p),
                        lambda job: 4 * job[0].r * hs(job[0].n, job[1]),
                        lambda job: evaluation_matrix(*job), _kernels)
    for (config, t), kernel in zip(todo, kernels):
        config._components[t] = GradedBasis(config.n, t,
                                            ModMatrix(config.prime, kernel, _trusted=True))


def _lockstep(jobs: list, key, size, build, eliminate) -> list:
    """``eliminate(arrays, p)``'s result for each job's matrix, in job order.

    Jobs of one ``key`` (whose last entry is the prime p) run in order, in
    batches holding matrices of at most ``BATCH_BYTES`` in all by ``size``
    (a larger one alone).  Each batch is built when its turn comes, one
    ``ModMatrix`` per job by ``build``, and its fresh arrays are handed to
    ``eliminate`` together, to be worked on in place and in lockstep.
    """
    groups: dict = {}
    for i, job in enumerate(jobs):
        groups.setdefault(key(job), []).append(i)
    results: list = [None] * len(jobs)
    for group_key, group in groups.items():
        batches, held = [], BATCH_BYTES
        for i in group:
            if held + size(jobs[i]) > BATCH_BYTES:
                batches.append([])
                held = 0
            batches[-1].append(i)
            held += size(jobs[i])
        for batch in batches:
            arrays = [_writable(build(jobs[i])) for i in batch]
            for i, result in zip(batch, eliminate(arrays, group_key[-1])):
                results[i] = result
            del arrays  # before the next batch is built
    return results


def macaulay_array(n: int, d: int, coeffs: np.ndarray, e: int, drop: np.ndarray | tuple = (),
                   shifts: tuple[int, int] | None = None) -> np.ndarray:
    """All degree-e monomial shifts of degree-d forms, as columns in degree d+e.

    ``coeffs`` holds one form per column (hs(n,d) rows, any dtype; the
    result has the same dtype).  Column m*g + j holds (monomial m) * (form
    j), for the g forms and the degree-e monomials in ``monomials`` order:
    monomial-major, form-minor, which in lex order is a staircase (see
    ``chopped_profile``).  Its column span is the degree-(d+e) component of
    the ideal generated by the forms.  The result is C-ordered, on both
    sides: the Waring side copies what it factors into column-major buffers
    of its own.  A matrix larger than physical memory, counted
    at the coefficients' item size (4 bytes a cell for the int32 residues of
    the exact pipeline), raises ``CapacityError`` instead of being allocated.

    ``shifts`` (first, stop) builds only the columns of the shifts
    ``monomials(n, e)[first:stop]``, on the top rows they reach: the rows
    down to the last of their products.  In lex order a shift's products
    precede those of every later shift by the same monomials, so a later
    range reaches at least as far, and a caller can build the matrix a
    block of columns at a time without ever holding it whole.

    ``drop`` lists rows (positions in degree d+e, within the rows built) to
    leave out: the other rows move up in order, and one zero sink row
    follows them, so the result has len(drop) - 1 rows fewer than it would
    without.  Entries bound for a dropped row land in the sink, which is
    zeroed afterwards, so no second array of the matrix's size is made.
    """
    g = coeffs.shape[1]
    if shifts is None:
        rows, he = hs(n, d + e), hs(n, e)
    else:
        positions = product_index_map(n, d, e)[shifts[0]:shifts[1]]
        rows, he = int(positions.max(initial=-1)) + 1, len(positions)
    shape = (rows - len(drop) + 1 if len(drop) else rows, he * g)
    _check_memory(f"a {shape[0]} x {shape[1]} Macaulay matrix",
                  shape[0] * shape[1] * coeffs.itemsize)
    if shifts is None:  # a whole matrix's index table is built once the matrix fits
        positions = product_index_map(n, d, e)
    if len(drop):
        kept = np.ones(rows, dtype=bool)
        kept[drop] = False
        moved = np.full(rows, shape[0] - 1, dtype=np.int64)
        moved[kept] = np.arange(shape[0] - 1)
        positions = moved[positions]
    out = np.zeros(shape, dtype=coeffs.dtype)
    out[positions[:, :, None], np.arange(he * g).reshape(he, 1, g)] = coeffs[None]
    if len(drop):
        out[-1] = 0
    return out


def macaulay_matrix(basis: GradedBasis, e: int, drop: np.ndarray | tuple = (),
                    shifts: tuple[int, int] | None = None) -> ModMatrix:
    """The Macaulay matrix of the basis forms at degree d+e over F_p, less
    the rows in ``drop``, or the columns of a range of ``shifts`` of it
    (see ``macaulay_array``)."""
    if e < 0:
        raise ValueError(f"need e >= 0, got {e}")
    out = macaulay_array(basis.n, basis.degree, basis.vectors.array, e, drop=drop, shifts=shifts)
    return ModMatrix(basis.vectors.field, out, _trusted=True)


@dataclass(frozen=True)
class Staircase:
    """A matrix that a left-looking factorization is handed a block of
    columns at a time, never whole: ``modlinalg._block_echelon`` over F_p,
    ``waring.numerical_kernel`` in floating point.

    ``shape`` is the matrix's (rows, columns); ``ends`` are the block ends
    0 <= e_1 <= ... <= e_m, e_m the column count; ``scale`` is the largest
    column norm, which sets the numerical kernel's rank cutoff (the exact
    scan, whose ranks are exact, leaves it 0).  ``build(start, stop)``
    returns the columns [start, stop) as a fresh array, on its top rows
    down to the last one that any column before ``stop`` reaches (all rows
    below are zero, and no earlier block's factor acts on them); the
    factorization spends it.  A factorization asks only for ranges whose
    ends are multiples of the greatest common divisor of the block ends,
    such as whole shifts of a Macaulay matrix (``macaulay_staircase``).
    """

    shape: tuple[int, int]
    ends: tuple[int, ...]
    scale: float
    build: Callable[[int, int], np.ndarray]


def macaulay_staircase(n: int, d: int, g: int, e: int, shift_ends, build_shifts,
                       scale: float = 0.0, dropped: int = 0) -> Staircase:
    """The Macaulay matrix at degree d+e of g degree-d forms, as a
    ``Staircase`` whose blocks end after the shifts ``shift_ends``.  The
    columns [start, stop) are the shifts [start // g, stop // g), built by
    ``build_shifts(first, stop)`` on the top rows they reach:
    ``macaulay_array(..., shifts=)`` or its ``macaulay_matrix`` form, less
    ``dropped`` rows and with one zero sink row when rows are dropped."""
    rows = hs(n, d + e) - dropped + 1 if dropped else hs(n, d + e)

    def build(start: int, stop: int) -> np.ndarray:
        return build_shifts(start // g, stop // g)

    return Staircase((rows, g * hs(n, e)), tuple(g * end for end in shift_ends), scale, build)


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
    return _graded_quotients(basis, t - d, _fixed_rows(config, basis))[-1]


def _fixed_rows(config: PointConfig, basis: GradedBasis) -> np.ndarray:
    """Rows of the chopped Macaulay staircase that the points fix, all but
    the last (see the module docstring); none when x_0 vanishes at some
    point.  ``basis`` is the kernel of E_d in echelon-complement form, so
    each column's last nonzero entry is at its free coordinate and the
    pivot columns of E_d are the rest.  Their positions in degree d are
    those of their x_0-multiples in every degree above."""
    if not config.coords[:, 0].all():
        return np.empty(0, dtype=np.int64)
    kernel = basis.vectors.array
    free = kernel.shape[0] - 1 - np.argmax(kernel[::-1] != 0, axis=0)
    return np.setdiff1d(np.arange(kernel.shape[0]), free)[:-1]


def _graded_quotients(basis: GradedBasis, top: int,
                      drop: np.ndarray | tuple = ()) -> list[int]:
    """Chopped quotient at degrees d+1, ..., d+top from one elimination of
    the Macaulay matrix at degree d+top less the rows in ``drop``
    (``_scans`` of one basis)."""
    return _scans([(basis, top, drop)])[0]


def _scans(scans: list[tuple]) -> list[list[int]]:
    """``_graded_quotients`` of each (basis, top, drop): the pivots of the
    Macaulay matrices.

    A matrix of at most ``BATCH_BYTES`` of int32 as built is built whole
    and eliminated in lockstep batches of one n, d and prime (``_lockstep``
    and ``modlinalg._echelons``), where it counts at its bytes with every
    row, a bound on the one built less the rows in ``drop``.  A larger one,
    which would be alone in its batch, is a ``Staircase`` of blocks of whole
    shifts instead (``_staircase``), built and eliminated a block at a time
    (``modlinalg._block_echelon``).  Every staircase is checked against
    physical memory before anything is built."""
    staircases = [_staircase(*scan) for scan in scans]
    whole = [i for i, stairs in enumerate(staircases) if stairs is None]
    pivots = dict(zip(whole, _lockstep(
        [scans[i] for i in whole],
        lambda scan: (scan[0].n, scan[0].degree, scan[0].vectors.field.p),
        lambda scan: 4 * hs(scan[0].n, scan[0].degree + scan[1]) * scan[0].dim
        * hs(scan[0].n, scan[1]),
        lambda scan: macaulay_matrix(*scan), _echelons)))
    for i, stairs in enumerate(staircases):
        if stairs is not None:
            pivots[i] = _block_echelon(stairs, scans[i][0].vectors.field.p)
    # the first g * hs(n,e) columns have the rank of M_e; piv ascends
    return [[hs(basis.n, basis.degree + e) - bisect_left(pivots[i], basis.dim * hs(basis.n, e))
             for e in range(1, top + 1)]
            for i, (basis, top, _) in enumerate(scans)]


def _staircase(basis: GradedBasis, e: int, drop: np.ndarray | tuple) -> Staircase | None:
    """The Macaulay matrix at degree d+e less the rows in ``drop``, as a
    ``Staircase`` whose blocks of whole shifts each hold at most
    ``BATCH_BYTES`` of int32 on the rows they reach (a shift larger than
    that is a block alone), each built by ``macaulay_matrix(...,
    shifts=)``; or None when the whole matrix is within that budget.  A
    block ends early, on a multiple of ``_LEAF`` columns, when it starts on
    one and the budget holds that much: then the block scan runs the
    whole-matrix scan's panels, and its products write the same cells.

    Before anything is built, the working set of ``_block_echelon`` is
    checked against physical memory, and too large a case raises
    ``CapacityError``.  On an M x N matrix, m = min(M, N), the kept bands
    of multipliers hold at most the cells of an M x m matrix below its
    diagonal, at 4 bytes a cell, and the kept L^-1 at most ``_LEAF`` 8-byte
    entries a pivot.  The largest block, at most the budget or one shift on
    every row, counts at 4 bytes a cell, the float64 temporaries of an
    update of it at 16, and the index table of the shifts' products at 8
    bytes an entry.
    """
    n, d, g = basis.n, basis.degree, basis.dim
    less = len(drop) - 1 if len(drop) else 0  # the dropped rows come back as one sink row
    rows, count = hs(n, d + e) - less, hs(n, e)
    if 4 * rows * g * count <= BATCH_BYTES:
        return None
    m = min(rows, g * count)
    bands = m * rows - m * (m + 1) // 2
    largest = max(BATCH_BYTES // 4, rows * g)
    _check_memory(f"a staircase of blocks of a {rows} x {g * count} Macaulay matrix",
                  4 * bands + 8 * _LEAF * m + 20 * largest + 8 * count * hs(n, d))
    reach = product_index_map(n, d, e).max(axis=1) + 1 - less  # rows built up to each shift
    unit = math.lcm(g, _LEAF) // g  # the fewest shifts that fill whole panels
    ends, first = [], 0
    while first < count:
        stop = first + 1
        while stop < count and 4 * int(reach[stop]) * g * (stop + 1 - first) <= BATCH_BYTES:
            stop += 1
        if first % unit == 0 and first < stop // unit * unit < stop < count:
            stop = stop // unit * unit
        ends.append(stop)
        first = stop
    return macaulay_staircase(
        n, d, g, e, ends, lambda first, stop: _writable(macaulay_matrix(basis, e, drop,
                                                                        shifts=(first, stop))),
        dropped=len(drop))


def _writable(m: ModMatrix) -> np.ndarray:
    """The array of a ``ModMatrix`` just built, which only the caller holds,
    made writable so that it can be eliminated in place."""
    m.array.setflags(write=True)
    return m.array


def chopped_profile(config: PointConfig, e_max: int | None = None) -> ChoppedProfile:
    """Scan the chopped quotient degree by degree (``chopped_profiles`` of
    one configuration).

    No caller outside the tests: the package scans its cases in batches
    through ``chopped_profiles``, and the tests check one configuration's
    scan through this.
    """
    return chopped_profiles([config], e_max)[0]


def chopped_profiles(configs: list[PointConfig], e_max: int | None = None) -> list:
    """Scan the chopped quotient of each configuration degree by degree.

    The scan starts at d and stops as soon as the quotient returns to r,
    or at e_max.  e_max defaults to the proven gap bound plus two and may
    not be set below the predicted gap.

    Every degree up to the predicted gap G comes from one elimination, of
    the Macaulay matrix M_G at degree d+G.  Its rows and its shifts descend
    in x_0's exponent, and a column whose shift has exponent k is nonzero
    only in the top hs(n,d+G-k) rows, those divisible by x_0^k: M_G is a
    staircase (see ``modlinalg``).  Its first g*hs(n,e) columns, for the g
    forms, are x_0^(G-e) times the columns of M_e, and that product is
    injective, so they have the rank of M_e.  Pivots come in column
    rank-profile order, so the quotient at d+e is hs(n,d+e) minus the
    pivots before column g*hs(n,e).  When the quotient has not returned to
    r by G, one more elimination, at e_max, gives the rest of the scan.

    Both eliminations leave out the rows the points fix (``_fixed_rows``):
    when x_0 vanishes at none of the points, the x_0-multiples of the
    pivot columns of E_d, all but the last.  Every column vanishes on the
    points and those coordinates are determined by the others, so every
    column prefix keeps its rank, and each panel's update runs over r - 1
    fewer rows.  The kept row leaves the matrix one row more than its rank
    where the quotient is r.  The dropped rows lie in the top hs(n,d),
    inside every column's block, so the matrix stays a staircase.

    The eliminations of all configurations run in lockstep batches
    (``_scans``): first every one at its G, then, together, those that
    need their e_max.
    """
    cases = []
    for config in configs:
        params = CaseParams(config.n, config.r)
        prediction = predicted_gap(params)
        horizon = max(prediction.bound, prediction.gap) + 2 if e_max is None else e_max
        if horizon < prediction.gap:
            raise ValueError(
                f"scan horizon e_max={horizon} is below the predicted gap {prediction.gap}"
            )
        basis = ideal_component(config, params.d)
        cases.append((config, basis, _fixed_rows(config, basis), prediction.gap, horizon))
    quotients = _scans([(basis, gap, drop) for _, basis, drop, gap, _ in cases])
    longer = [i for i, (config, _, _, gap, horizon) in enumerate(cases)
              if config.r not in quotients[i] and horizon > gap]
    rescans = _scans([(cases[i][1], cases[i][4], cases[i][2]) for i in longer])
    for i, rescan in zip(longer, rescans):
        quotients[i] = rescan
    profiles = []
    for (config, basis, _, _, _), values in zip(cases, quotients):
        n, d = config.n, basis.degree
        gap_seen = values.index(config.r) + 1 if config.r in values else None
        observed = [hs(n, t) for t in range(d)] + [hs(n, d) - basis.dim] + values[:gap_seen]
        tail = config.r if gap_seen is not None else None
        profiles.append(ChoppedProfile(HilbertTable(n, tuple(observed), tail), gap_seen))
    return profiles
