"""Verification harness for the chopped-ideal Hilbert function conjecture.

A single case samples generic points over F_p, scans the chopped quotient,
compares it with the closed-form prediction, and emits a certificate: the
prime, the seed, the coordinates, and both value tables.  Anyone can replay
the certificate and land on the same integers.  The expected value is a
proven lower bound below degree 2d (a column count) and where it is r (the
points); from 2d on it rests on the Koszul syzygies of the degree-d forms
staying independent, not yet shown for chopped ideals.  Until it is, a
PASS bounds the generic quotient only from above, by semicontinuity.

The harness also hunts for monomial ideals with the same chopped Hilbert
behavior (a combinatorial certificate needing no sampling at all) and runs
the missing-sextic membership demonstration for 18 plane points.
"""

from __future__ import annotations

import functools
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .formulas import (CaseParams, GapPrediction, admissible, expected_chopped_hf,
                       predicted_gap)
from .grading import Exponent, hs, mono_index, monomials, product_index_map
from .modlinalg import PrimeField, _set_blas_threads, in_span, matmul, rank
from .pointideals import (
    RETRY_BUDGET,
    ChoppedProfile,
    GenericityError,
    PointConfig,
    chopped_profiles,
    ideal_component,
    is_generic,
    macaulay_matrix,
    sample_configs,
    sample_points,
)
# unused here, but the benchmark's tracer (benchmarks/tracing.py) patches it
from .pointideals import chopped_profile  # noqa: F401
from .version import __version__

SCHEMA_VERSION = 1

_MASK64 = (1 << 64) - 1


def _splitmix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, n: int, r: int, trial: int) -> int:
    """Per-case seed, a pure 64-bit hash of (base_seed, n, r, trial).

    Cases get independent streams no matter how the grid is scheduled, and
    rerunning any single case reproduces it exactly.
    """
    z = base_seed & _MASK64
    for v in (n, r, trial):
        z = _splitmix((z + 0x9E3779B97F4A7C15 * (v + 1)) & _MASK64)
    return z


@dataclass(frozen=True)
class Certificate:
    """Replayable witness of one verification case.

    ``points`` are the exact sampled coordinates; feeding them back through
    the same computation must reproduce ``observed_quotient`` bit for bit.
    Quotient arrays are indexed by degree starting at 0.  The JSON form
    holds ``schema_version`` and then the fields in declaration order.

    ``wall_ms`` is the case's equal share of the wall time of the batch it
    ran in (``verify_cases``), the cases of its n and generation degree d
    that one process ran together: sampling, scans and certificates of
    every case of the batch, divided by their number and truncated to whole
    milliseconds.  A lone ``verify`` is a batch of one, so there it is the
    case's own time.  The shares of a grid run on one worker sum to at most
    its ``total_wall_ms``.  Replay ignores it, and ``--no-timing`` writes 0.
    """

    n: int
    r: int
    d: int
    prime: int
    seed: int
    retries: int
    points: tuple[tuple[int, ...], ...]
    observed_quotient: tuple[int, ...]
    expected_quotient: tuple[int, ...]
    observed_gap: int | None
    expected_gap: int
    verdict: str
    first_mismatch_degree: int | None
    tool_version: str
    wall_ms: int

    def to_dict(self) -> dict:
        data = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):
            data[f.name] = _lists(getattr(self, f.name))
        return data

    @staticmethod
    def from_dict(data: dict) -> "Certificate":
        """Inverse of ``to_dict``.  No caller outside the tests: kept because the
        certificate is the product, and a planned replay command reads stored ones."""
        if not isinstance(data, dict):
            raise ValueError(f"a certificate is a JSON object, got {data!r}")
        version = data.get("schema_version")
        if not _is_int(version) or version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {version}")
        missing = [f.name for f in fields(Certificate) if f.name not in data]
        if missing:
            raise ValueError(f"certificate is missing {', '.join(missing)}")
        for f in fields(Certificate):
            if not _FIELD_CHECKS.get(f.name, _is_int)(data[f.name]):
                raise ValueError(f"certificate field {f.name} is malformed: {data[f.name]!r}")
        return Certificate(**{f.name: _tuples(data[f.name]) for f in fields(Certificate)})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


# JSON types of the certificate fields that are not plain integers
_FIELD_CHECKS = {
    "points": lambda v: isinstance(v, list) and all(map(_is_int_list, v)),
    "observed_quotient": _is_int_list,
    "expected_quotient": _is_int_list,
    "observed_gap": lambda v: v is None or _is_int(v),
    "first_mismatch_degree": lambda v: v is None or _is_int(v),
    "verdict": lambda v: v in ("PASS", "FAIL", "GENERICITY_FAIL"),
    "tool_version": lambda v: isinstance(v, str),
}


def _lists(value):
    """JSON form of a certificate field: tuples, nested too, become lists."""
    if not isinstance(value, tuple):
        return value
    return [_lists(v) if isinstance(v, tuple) else v for v in value]


def _tuples(value):
    """Certificate field from its JSON form: lists become tuples."""
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


class SelfCheckError(RuntimeError):
    """An observed quotient below the expected value: never a verdict, and a
    bug in chopshop's arithmetic where that value is a proven lower bound
    (below degree 2d and at r; see ``_certificate``)."""


def _certificate(params: CaseParams, prediction: GapPrediction, config: PointConfig | None,
                 profile: ChoppedProfile | None, prime: int, seed: int) -> Certificate:
    """The certificate of one case: the chopped quotient ``profile`` of
    ``config`` judged against ``prediction``, or GENERICITY_FAIL when
    sampling gave no configuration.  ``wall_ms`` is left at 0 for the
    caller to time.  This is the one place a verdict is decided."""
    if config is None:
        outcome = dict(retries=RETRY_BUDGET, points=(), observed_quotient=(),
                       observed_gap=None, verdict="GENERICITY_FAIL",
                       first_mismatch_degree=None)
    else:
        observed = profile.observed.values
        # The expected value is taken to bound the observed one from below:
        # max(Froeberg coefficient, r) up to the predicted gap, r past it.  r
        # is proven: the chopped ideal lies in the ideal of the points, whose
        # quotient the genericity check makes r from degree d on.  The
        # Froeberg coefficient (Math. Scand. 56, 1985) is hs(n,t) less the
        # s*hs(n,t-d) Macaulay columns, proven below degree 2d; from 2d on it
        # adds the Koszul syzygies f_i*f_j = f_j*f_i as independent, not yet
        # shown for chopped ideals.  So a genuine FAIL is a rank deficit,
        # observed above expected, and a value below is taken to be a bug.
        mismatch = None
        for t, value in enumerate(observed):
            expected = prediction.table.value_at(t)
            if value < expected:
                raise SelfCheckError(
                    f"internal error, a bug in chopshop and not a FAIL: the observed "
                    f"quotient {value} at degree {t} of (n={params.n}, r={params.r}) "
                    f"is below the expected {expected}, its lower bound"
                )
            if value != expected and mismatch is None:
                mismatch = t
        if mismatch is None and profile.observed_gap is None:
            # every scanned value matched, yet the quotient never came back
            # to r: the first unscanned degree is the mismatch
            mismatch = len(observed)
        outcome = dict(
            retries=config.retries,
            points=tuple(map(tuple, config.coords.tolist())),
            observed_quotient=observed,
            observed_gap=profile.observed_gap,
            verdict="PASS" if mismatch is None else "FAIL",
            first_mismatch_degree=mismatch,
        )
    return Certificate(n=params.n, r=params.r, d=params.d, prime=prime, seed=seed,
                       expected_quotient=prediction.table.values,
                       expected_gap=prediction.gap, tool_version=__version__, wall_ms=0,
                       **outcome)


def _certificates(cases: list[tuple[int, int, int]], configs: list, e_max: int | None,
                  prime: int) -> list[Certificate]:
    """The certificate of each case (n, r, seed) with its sampled
    configuration (None for GENERICITY_FAIL), every configuration's chopped
    quotient scanned up to ``e_max`` in one batch (``chopped_profiles``)."""
    profiles = iter(chopped_profiles([c for c in configs if c is not None], e_max=e_max))
    certificates = []
    for (n, r, seed), config in zip(cases, configs):
        params = CaseParams(n, r)
        profile = None if config is None else next(profiles)
        certificates.append(_certificate(params, predicted_gap(params), config, profile,
                                         prime, seed))
    return certificates


def verify_case(
    n: int, r: int, prime: PrimeField, seed: int, e_max: int | None = None
) -> Certificate:
    """Run one (n, r) case end to end and certify the outcome: ``verify_cases``
    of one case.

    Raises RangeError when r is too large for the chopped ideal to cut out
    the configuration.  A sampling failure becomes a GENERICITY_FAIL
    verdict rather than an exception, so grids keep going.
    """
    return verify_cases([(n, r, seed)], prime, e_max)[0]


def verify_cases(cases: list[tuple[int, int, int]], prime: PrimeField,
                 e_max: int | None = None) -> list[Certificate]:
    """Run every case (n, r, seed) end to end and certify each, the cases
    of one n and generation degree d as one batch.

    A batch's cases are sampled together (``sample_configs``) and their
    chopped quotients scanned together (``chopped_profiles``); each case
    keeps its own draws, so its certificate is the one it gets alone.
    Every size is checked before anything runs: an inadmissible r raises
    RangeError.  Each certificate's ``wall_ms`` is an equal share of its
    batch's time (see ``Certificate``).
    """
    batches: dict[tuple[int, int], list[int]] = {}
    for i, (n, r, _) in enumerate(cases):
        params = CaseParams(n, r)
        predicted_gap(params)  # rejects inadmissible r
        batches.setdefault((n, params.d), []).append(i)
    certificates: list = [None] * len(cases)
    for indices in batches.values():
        batch = [cases[i] for i in indices]
        start = time.perf_counter()
        done = _certificates(batch, sample_configs(batch, prime), e_max, prime.p)
        share = int((time.perf_counter() - start) * 1000 / len(batch))
        for i, cert in zip(indices, done):
            certificates[i] = replace(cert, wall_ms=share)
    return certificates


def replay_certificate(cert: Certificate) -> bool:
    """Recompute a certificate from its stored points and compare.

    True when the certificate rebuilt from the stored points, seed and
    retries equals the stored one but for ``wall_ms`` and ``tool_version``:
    the observed table and gap come from the points, the rest from the
    closed-form prediction.  Points must be stored reduced mod p and pass
    the genericity check, as sampled points do: the expected table rests on
    it.  Certificates without points cannot be replayed.

    The rescan runs to the horizon the stored table shows: its last degree
    past d, and never less than the predicted gap.  A scan stops at its gap
    or at its horizon, so this reproduces the table of any honest run,
    whatever ``e_max`` it was made with.

    No caller outside the tests: kept because the certificate is the
    product, and a planned replay command runs it.
    """
    if not cert.points:
        raise ValueError("certificate carries no points to replay")
    params = CaseParams(cert.n, cert.r)
    prediction = predicted_gap(params)
    e_max = max(len(cert.observed_quotient) - params.d - 1, prediction.gap)
    config = PointConfig(cert.n, cert.r, np.array(cert.points, dtype=np.int64),
                         PrimeField(cert.prime), cert.seed, retries=cert.retries)
    if not is_generic(config):
        return False
    recomputed, = _certificates([(cert.n, cert.r, cert.seed)], [config], e_max, cert.prime)
    return replace(recomputed, wall_ms=cert.wall_ms, tool_version=cert.tool_version) == cert


@dataclass(frozen=True)
class SkippedCase:
    n: int
    r: int
    reason: str


@dataclass(frozen=True)
class GridReport:
    """All certificates of a grid run plus skip records and tallies."""

    certificates: tuple[Certificate, ...]
    skipped: tuple[SkippedCase, ...]
    summary: dict

    def to_dict(self) -> dict:
        return {
            "certificates": [c.to_dict() for c in self.certificates],
            "skipped": [
                {"n": s.n, "r": s.r, "reason": s.reason} for s in self.skipped
            ],
            "summary": dict(self.summary),
        }


def verify_grid(
    n: int,
    r_from: int,
    r_to: int,
    prime: PrimeField,
    base_seed: int,
    trials_per_case: int = 1,
    workers: int = 1,
    e_max: int | None = None,
) -> GridReport:
    """Verify every admissible r in [r_from, r_to].

    Inadmissible sizes (see ``formulas.admissible``) are recorded as skips
    with the reason spelled out.  Every admissible size runs, including the
    ones whose predicted gap is 1.  Per-case seeds come from derive_seed, so
    reports are reproducible and independent of the worker count.  Each
    worker runs a fixed share of the cases, every ``workers``-th one, in
    ``verify_cases``; one worker runs them all.  With more than one
    worker, each worker process runs on one BLAS thread for its lifetime,
    since the workers already share the cores and BLAS threads of their own
    would contend for them.
    """
    start = time.perf_counter()
    jobs: list[tuple[int, int, int]] = []
    skipped: list[SkippedCase] = []
    for r in range(r_from, r_to + 1):
        params = CaseParams(n, r)
        d = params.d
        if not admissible(n, d, r):
            skipped.append(
                SkippedCase(
                    n, r, f"r >= hs({n},{d}) - {n}: chopped ideal cannot cut out Z"
                )
            )
            continue
        for trial in range(trials_per_case):
            jobs.append((n, r, derive_seed(base_seed, n, r, trial)))

    certificates: list = [None] * len(jobs)
    if workers > 1 and len(jobs) > 1:
        shares = [jobs[i::workers] for i in range(min(workers, len(jobs)))]
        with ProcessPoolExecutor(max_workers=len(shares), initializer=_set_blas_threads,
                                 initargs=(1,)) as pool:
            run = functools.partial(verify_cases, prime=prime, e_max=e_max)
            for i, share in enumerate(pool.map(run, shares)):
                certificates[i::len(shares)] = share
    elif jobs:
        certificates = verify_cases(jobs, prime, e_max)

    tally = {"PASS": 0, "FAIL": 0, "GENERICITY_FAIL": 0}
    for cert in certificates:
        tally[cert.verdict] += 1
    summary = {
        "pass": tally["PASS"],
        "fail": tally["FAIL"] + tally["GENERICITY_FAIL"],
        "skip": len(skipped),
        "total_wall_ms": int((time.perf_counter() - start) * 1000),
    }
    return GridReport(tuple(certificates), tuple(skipped), summary)


# ---------------------------------------------------------------------------
# Monomial-ideal certificates


def _divides(a: Exponent, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


@dataclass(frozen=True)
class MonomialIdeal:
    """Ideal generated by monomials, stored as minimal exponent vectors."""

    n: int
    generators: frozenset

    def __post_init__(self):
        gens = frozenset(Exponent(g) for g in self.generators)
        for a, b in itertools.permutations(gens, 2):
            if _divides(a, b):
                raise ValueError(f"generator {tuple(a)} divides {tuple(b)}")
        object.__setattr__(self, "generators", gens)

    def sorted_generators(self) -> tuple[Exponent, ...]:
        return tuple(sorted(self.generators))

    def permuted(self, perm: tuple[int, ...]) -> "MonomialIdeal":
        """The ideal with its variables reordered by ``perm``."""
        moved = frozenset(
            Exponent(tuple(g[i] for i in perm)) for g in self.generators
        )
        return MonomialIdeal(self.n, moved)


SEARCH_SIZES = (18, 25, 32, 33)


@functools.cache
def _multiple_masks(n: int, d: int, t: int) -> dict[Exponent, int]:
    """The degree-t multiples of each degree-d monomial as a bitmask whose
    bit j stands for monomials(n, t)[j]: the monomial's column of
    product_index_map(n, d, t - d).  Keys run in monomial order; below
    degree d every mask is 0."""
    if t < d:
        return dict.fromkeys(monomials(n, d), 0)
    columns = product_index_map(n, d, t - d).T.tolist()
    return {m: sum(1 << j for j in col) for m, col in zip(monomials(n, d), columns)}


def _multiples(n: int, t: int, gens) -> int:
    """The degree-t monomials divisible by some generator, as one bitmask
    (see ``_multiple_masks``); its ``bit_count()`` is their number."""
    mask = 0
    for g in gens:
        mask |= _multiple_masks(n, sum(g), t)[g]
    return mask


def search_monomial_ideals(r: int) -> tuple[MonomialIdeal, ...]:
    """All plane monomial ideals of point degenerations whose quotient has
    the generic Hilbert function of r points and whose chopped ideal
    matches the conjectured table.

    The enumeration picks the degree-d generator set, one per orbit of the
    variable permutations (the set whose sorted monomial positions come
    first among its images), requires its multiples to hit the conjectured
    chopped dimensions through degree 3d, extends in degree d+1 to the
    generic dimension, demands the quotient stay at r through 3d, and
    finally keeps only saturated ideals.  Multiples are counted as
    bitmasks read off the shared ``product_index_map`` table.

    Saturation is what ties the combinatorial object back to configurations
    of r points: a plane ideal with constant quotient dimension r defines a
    length-r scheme exactly when it is saturated, and such schemes deform
    to r distinct points.  An ideal is saturated when no monomial outside
    it has every variable shift inside (such a socle monomial lies in the
    saturation).  Generators all live in degrees d and d+1, so degrees
    below d-1 hold no socle monomials and the quotient is eventually pure;
    scanning degrees d-1 through the horizon suffices.  The returned list
    is the full permutation closure of the satisfiers, sorted.
    """
    if r not in SEARCH_SIZES:
        raise ValueError(f"supported sizes are {SEARCH_SIZES}, got {r}")
    n = 2
    params = CaseParams(n, r)
    d = params.d
    horizon = 3 * d
    chopped = {t: expected_chopped_hf(params, t)[0] for t in range(d + 1, horizon + 1)}
    degree_d = monomials(n, d)
    perms = tuple(itertools.permutations(range(n + 1)))
    # perms[0] is the identity: a set is never smaller than itself
    images = [[mono_index(n, d, [m[i] for i in perm]) for m in degree_d] for perm in perms[1:]]

    satisfiers = []
    for picked in itertools.combinations(range(len(degree_d)), hs(n, d) - r):
        if any(tuple(sorted(image[i] for i in picked)) < picked for image in images):
            continue
        gens = [degree_d[i] for i in picked]
        if any(_multiples(n, t, gens).bit_count() != target for t, target in chopped.items()):
            continue
        below = _multiples(n, d + 1, gens)
        pool = [m for j, m in enumerate(monomials(n, d + 1)) if not below >> j & 1]
        if len(pool) < r:
            continue
        for extension in itertools.combinations(pool, len(pool) - r):
            full = gens + list(extension)
            if any(hs(n, t) - _multiples(n, t, full).bit_count() != r
                   for t in range(d + 2, horizon + 1)):
                continue
            # saturated: no monomial outside with every variable shift inside
            inside = [_multiples(n, t, full) for t in range(d - 1, horizon + 2)]
            if not any(not here >> j & 1 and not shifts & ~above
                       for t, here, above in zip(range(d - 1, horizon + 1), inside, inside[1:])
                       for j, shifts in enumerate(_multiple_masks(n, t, t + 1).values())):
                satisfiers.append(MonomialIdeal(n, frozenset(full)))

    closure = {ideal.permuted(perm) for ideal in satisfiers for perm in perms}
    return tuple(sorted(closure, key=MonomialIdeal.sorted_generators))


# ---------------------------------------------------------------------------
# Membership demonstration: the sextic outside the chopped ideal


def missing_sextic_demo(prime: PrimeField, seed: int) -> dict:
    """Exhibit a sextic in the ideal of 18 plane points that the quintics
    do not generate.

    Splits the configuration into two halves of 9, takes the unique cubic
    through each half, and tests their product for membership in the full
    degree-6 component versus the quintic-generated one.  The expected
    record is g_in_I6 true, g_in_chopped6 false, dimensions 10 and 9.
    """
    config = sample_points(2, 18, prime, seed)
    cubics = [ideal_component(PointConfig(2, 9, rows, prime, seed), 3)
              for rows in (config.coords[:9], config.coords[9:])]
    for half in cubics:
        if half.dim != 1:
            raise GenericityError(f"a 9-point half admits {half.dim} cubics instead of 1")
    g = matmul(macaulay_matrix(cubics[0], 3), cubics[1].vectors).array

    full6 = ideal_component(config, 6)
    quintics = ideal_component(config, 5)
    chopped6 = macaulay_matrix(quintics, 1)
    return {
        "g_in_I6": in_span(full6.vectors, g),
        "g_in_chopped6": in_span(chopped6, g),
        "chopped6_dim": rank(chopped6),
        "I6_dim": full6.dim,
    }
