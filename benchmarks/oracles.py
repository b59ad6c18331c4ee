"""Independent reference computations for checking chopshop's outputs.

Nothing here imports chopshop.  The expected tables come straight from the
paper's syzygy count, the exact recomputation uses its own elimination mod
p, the Waring checks re-expand forms from their points, and the monomial
checks count divisibility directly.  Each ``check_*`` function returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.optimize

# ---------------------------------------------------------------------------
# Expected chopped Hilbert function


def hs(n: int, t: int) -> int:
    """Number of degree-t monomials in n+1 variables (0 for t < 0)."""
    return math.comb(n + t, n) if t >= 0 else 0


def generation_degree(n: int, r: int) -> int:
    """Least degree t with hs(n, t) >= r."""
    t = 0
    while hs(n, t) < r:
        t += 1
    return t


def admissible(n: int, r: int) -> bool:
    """Whether the chopped ideal of r generic points cuts them out."""
    return r < hs(n, generation_degree(n, r)) - n


def expected_table(n: int, r: int) -> tuple[tuple[int, ...], int]:
    """Expected quotient Hilbert function of the chopped ideal, and its gap.

    The degree-t part of the ideal generated by the g = hs(n,d) - r forms of
    degree d has the expected dimension
        sum_{k>=1} (-1)^(k+1) C(g, k) hs(n, t - k d),
    until that count reaches hs(n,t) - r, the dimension of the saturated
    ideal; from there on the quotient equals r.  The table runs from degree
    0 through d + gap, with the full ring below d.
    """
    if not admissible(n, r):
        raise ValueError(f"(n={n}, r={r}) is outside the admissible range")
    d = generation_degree(n, r)
    g = hs(n, d) - r
    values = [hs(n, t) for t in range(d)]
    e = 0
    while True:
        t = d + e
        ideal_dim = sum(
            (-1) ** (k + 1) * math.comb(g, k) * hs(n, t - k * d)
            for k in range(1, t // d + 1)
        )
        quotient = hs(n, t) - ideal_dim
        if e > 0 and quotient <= r:
            values.append(r)
            return tuple(values), e
        values.append(quotient)
        e += 1


def gap_ceiling(n: int, d: int) -> int:
    """The paper's proven ceiling (n-1)d - (n+1) on the saturation gap."""
    return (n - 1) * d - (n + 1)


# ---------------------------------------------------------------------------
# Exact linear algebra mod p


def monomial_exponents(n: int, t: int) -> list[tuple[int, ...]]:
    """Every degree-t exponent vector in n+1 variables (order is arbitrary
    but fixed)."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n + 1), t):
        exp = [0] * (n + 1)
        for var in combo:
            exp[var] += 1
        out.append(tuple(exp))
    return out


def row_reduce(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a mod p (entries in [0, p), p < 2**31)
    and its pivot columns.  One pivot at a time; products stay below 2**62."""
    a = np.array(a, dtype=np.int64) % p
    m, ncols = a.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row == m:
            break
        nz = np.flatnonzero(a[row:, col])
        if nz.size == 0:
            continue
        top = row + int(nz[0])
        if top != row:
            a[[row, top]] = a[[top, row]]
        a[row] = a[row] * pow(int(a[row, col]), p - 2, p) % p
        others = np.flatnonzero(a[:, col])
        others = others[others != row]
        if others.size:
            a[others] = (a[others] - a[others, col][:, None] * a[row]) % p
        pivots.append(col)
        row += 1
    return a, pivots


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right null space mod p, one column per free column."""
    reduced, pivots = row_reduce(a, p)
    ncols = a.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = np.zeros((ncols, len(free)), dtype=np.int64)
    for j, col in enumerate(free):
        basis[col, j] = 1
        for i, pcol in enumerate(pivots):
            basis[pcol, j] = (-reduced[i, col]) % p
    return basis


def evaluation(points: np.ndarray, exps: list[tuple[int, ...]], p: int) -> np.ndarray:
    """Entry (i, j): monomial exps[j] evaluated at point i, mod p."""
    pts = np.asarray(points, dtype=np.int64) % p
    top = max((max(e) for e in exps), default=0)
    powers = np.ones((pts.shape[0], pts.shape[1], top + 1), dtype=np.int64)
    for k in range(1, top + 1):
        powers[:, :, k] = powers[:, :, k - 1] * pts % p
    exp_arr = np.asarray(exps, dtype=np.int64)
    out = np.ones((pts.shape[0], len(exps)), dtype=np.int64)
    for var in range(pts.shape[1]):
        out = out * powers[:, var, exp_arr[:, var]] % p
    return out


def quotient_at_d_and_next(n: int, points, p: int, d: int) -> tuple[int, int]:
    """Chopped quotient dimensions at degrees d and d+1, from the points.

    The degree-d forms through the points are the null space of the
    evaluation matrix; their products with the n+1 variables span the
    chopped ideal in degree d+1.
    """
    exps_d = monomial_exponents(n, d)
    forms = nullspace(evaluation(np.asarray(points), exps_d, p), p)
    exps_next = monomial_exponents(n, d + 1)
    index = {e: i for i, e in enumerate(exps_next)}
    shifted = np.zeros((len(exps_next), forms.shape[1] * (n + 1)), dtype=np.int64)
    for var in range(n + 1):
        rows = [
            index[tuple(x + (i == var) for i, x in enumerate(e))] for e in exps_d
        ]
        shifted[rows, var * forms.shape[1]:(var + 1) * forms.shape[1]] = forms
    _, pivots = row_reduce(shifted, p)
    return hs(n, d) - forms.shape[1], hs(n, d + 1) - len(pivots)


def _projective_key(row, p: int) -> tuple[int, ...] | None:
    nz = [v for v in row if v % p]
    if not nz:
        return None
    inv = pow(nz[0], p - 2, p)
    return tuple(v * inv % p for v in row)


def check_certificate(cert: dict, n: int, r: int, prime: int) -> list[str]:
    """Compare a verify certificate with the expected table and the
    properties every passing certificate must have."""
    problems = []
    table, gap = expected_table(n, r)
    d = generation_degree(n, r)
    observed = cert.get("observed_quotient")
    if (cert.get("n"), cert.get("r"), cert.get("d"), cert.get("prime")) != (n, r, d, prime):
        problems.append(f"({n},{r}): header {cert.get('n'), cert.get('r'), cert.get('d')}")
    if cert.get("verdict") != "PASS":
        problems.append(f"({n},{r}): verdict {cert.get('verdict')}")
    if observed != list(table) or cert.get("expected_quotient") != list(table):
        problems.append(f"({n},{r}): quotient {observed} != expected {list(table)}")
    if cert.get("observed_gap") != gap or cert.get("expected_gap") != gap:
        problems.append(f"({n},{r}): gap {cert.get('observed_gap')} != {gap}")
    if gap > gap_ceiling(n, d):
        problems.append(f"({n},{r}): gap {gap} above the ceiling {gap_ceiling(n, d)}")
    if observed and (min(observed[d:]) < r or observed[-1] != r):
        problems.append(f"({n},{r}): observed values fall below r or do not end at r")
    points = cert.get("points") or []
    if len(points) != r or any(len(row) != n + 1 for row in points):
        problems.append(f"({n},{r}): {len(points)} stored points")
    else:
        keys = [_projective_key(row, prime) for row in points]
        if any(not all(0 <= v < prime for v in row) for row in points):
            problems.append(f"({n},{r}): coordinates outside [0, p)")
        if None in keys:
            problems.append(f"({n},{r}): a stored point is zero")
        elif len(set(keys)) != r:
            problems.append(f"({n},{r}): stored points are not distinct")
    return problems


def check_recomputation(cert: dict) -> list[str]:
    """Recompute the quotient at d and d+1 from the stored points."""
    n, r, d, prime = cert["n"], cert["r"], cert["d"], cert["prime"]
    at_d, at_next = quotient_at_d_and_next(n, cert["points"], prime, d)
    observed = cert["observed_quotient"]
    if (at_d, at_next) != (observed[d], observed[d + 1]):
        return [
            f"({n},{r}): recomputed quotient {at_d}, {at_next} at degrees "
            f"{d}, {d + 1}; certificate says {observed[d]}, {observed[d + 1]}"
        ]
    return []


# ---------------------------------------------------------------------------
# Waring decomposition


def multinomial(exp: tuple[int, ...]) -> int:
    out, used = 1, 0
    for b in exp:
        used += b
        out *= math.comb(used, b)
    return out


def expand_form(points, weights, D: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Coefficients of sum_i w_i (z_i . y)^D, one per degree-D monomial."""
    pts = np.asarray(points, dtype=np.complex128)
    exps = monomial_exponents(pts.shape[1] - 1, D)
    exp_arr = np.asarray(exps)
    values = np.ones((pts.shape[0], len(exps)), dtype=np.complex128)
    for var in range(pts.shape[1]):
        values *= pts[:, var][:, None] ** exp_arr[:, var][None, :]
    weights = np.asarray(weights, dtype=np.complex128)
    scale = np.array([multinomial(e) for e in exps], dtype=np.float64)
    return exps, scale * (weights @ values)


def form_document(n: int, D: int, exps, coeffs) -> dict:
    """A form in chopshop's documented JSON form-file layout."""
    return {
        "schema_version": 1,
        "n": n,
        "D": D,
        "terms": [
            {"exponent": list(e), "re": float(c.real), "im": float(c.imag)}
            for e, c in zip(exps, coeffs)
        ],
    }


def normalized(points) -> np.ndarray:
    """Unit rows whose first non-negligible entry is real and positive."""
    out = np.array(points, dtype=np.complex128)
    for row in out:
        row /= np.linalg.norm(row)
        lead = row[np.flatnonzero(np.abs(row) > 1e-10)[0]]
        row *= np.conj(lead) / abs(lead)
    return out


def check_decomposition(
    payload: dict, document: dict, true_points, r: int,
    point_tol: float = 1e-6, form_tol: float = 1e-8,
) -> list[str]:
    """Points against the drawn ones, and the re-expanded form against the
    form file the program read."""
    tag = f"(n={document['n']},D={document['D']},r={r})"
    try:
        found = np.array(
            [[complex(z["re"], z["im"]) for z in row] for row in payload["points"]]
        )
        coeffs = np.array([complex(c["re"], c["im"]) for c in payload["coefficients"]])
    except (KeyError, TypeError) as exc:
        return [f"{tag}: malformed result ({exc!r})"]
    if found.shape != (r, document["n"] + 1) or coeffs.shape != (r,):
        return [f"{tag}: result shapes {found.shape}, {coeffs.shape}"]
    problems = []
    truth = normalized(true_points)
    distances = np.linalg.norm(truth[:, None, :] - normalized(found)[None, :, :], axis=2)
    rows, cols = scipy.optimize.linear_sum_assignment(distances)
    point_error = float(distances[rows, cols].max())
    if point_error > point_tol:
        problems.append(f"{tag}: point error {point_error:.2e} > {point_tol:.0e}")
    given = {tuple(t["exponent"]): complex(t["re"], t["im"]) for t in document["terms"]}
    exps, reexpanded = expand_form(found, coeffs, document["D"])
    target = np.array([given.get(e, 0j) for e in exps])
    form_error = float(np.linalg.norm(reexpanded - target) / np.linalg.norm(target))
    if form_error > form_tol:
        problems.append(f"{tag}: re-expansion error {form_error:.2e} > {form_tol:.0e}")
    return problems


# ---------------------------------------------------------------------------
# Plane monomial ideals


def _in_ideal(mono, gens) -> bool:
    return any(all(m >= g for m, g in zip(mono, gen)) for gen in gens)


def inside_count(gens, t: int) -> int:
    """Degree-t plane monomials divisible by some generator."""
    return sum(_in_ideal(m, gens) for m in monomial_exponents(2, t))


def has_socle(gens, horizon: int) -> bool:
    """Whether some monomial outside the ideal, of degree at most horizon,
    lands inside after multiplication by every variable."""
    for t in range(horizon + 1):
        for mono in monomial_exponents(2, t):
            if _in_ideal(mono, gens):
                continue
            shifts = (tuple(x + (i == v) for i, x in enumerate(mono)) for v in range(3))
            if all(_in_ideal(s, gens) for s in shifts):
                return True
    return False


PAPER_EXAMPLE_18 = frozenset({(3, 2, 0), (0, 3, 2), (2, 0, 3), (2, 2, 2)})


def check_monomial_search(payload: dict, r: int) -> list[str]:
    """Every returned ideal behaves like r points chopped at degree d."""
    ideals = payload.get("ideals")
    if payload.get("r") != r or not isinstance(ideals, list) or payload.get("count") != len(ideals):
        return [f"search r={r}: malformed payload"]
    problems = []
    d = generation_degree(2, r)
    table, _ = expected_table(2, r)
    sets = [frozenset(tuple(g) for g in gens) for gens in ideals]
    for gens in sets:
        label = f"search r={r} {sorted(gens)}"
        for t in range(d + 2, 3 * d + 1):
            if hs(2, t) - inside_count(gens, t) != r:
                problems.append(f"{label}: quotient at {t} is not {r}")
                break
        if has_socle(gens, 3 * d):
            problems.append(f"{label}: has a socle monomial")
        degree_d = [g for g in gens if sum(g) == d]
        for t in range(d, 3 * d + 1):
            expected_q = table[t] if t < len(table) else r
            if inside_count(degree_d, t) != hs(2, t) - expected_q:
                problems.append(f"{label}: chopped dimension at {t} is off")
                break
    closed = set(sets)
    for gens in sets:
        for perm in itertools.permutations(range(3)):
            if frozenset(tuple(g[i] for i in perm) for g in gens) not in closed:
                problems.append(f"search r={r}: not closed under variable permutations")
                break
    if r == 18 and PAPER_EXAMPLE_18 not in closed:
        problems.append("search r=18: the paper's example ideal is missing")
    return problems
