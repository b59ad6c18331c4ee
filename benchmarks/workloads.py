"""The benchmark's workloads: what each op runs and how its output is checked.

An op is one ``chopshop`` invocation, given as the argument list for
``chopshop.cli.run``.  ``make_ops`` builds a workload's ops from the seed;
``check_op`` checks one op's JSON output against ``oracles`` and
``recompute`` runs the slower exact recomputation on a fixed subset of ops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

PRIME = 2147483647

# verify-range over every admissible r of each generation degree d; one
# degree, timed twice, is steadier than a wider band timed once in the same time
PLANE_DEGREES = (23,)
# tall Macaulay matrices at the top of the admissible range
HARD_CASES = ((3, 159), (3, 160), (3, 161), (4, 118), (4, 119), (4, 120))
# (n, D, r) for decompose
WARING_SIZES = ((2, 10, 18), (4, 10, 100), (3, 12, 80), (4, 12, 200))
# search-monomial sizes; the search takes no seed
SEARCH_SIZES = (18, 25, 32, 33)
# counts the repository's tests pin for these sizes
SEARCH_COUNTS = {18: 2, 25: 0, 32: 18, 33: 0}

# monomial-search runs on request but is not in BENCHMARK.json: it is pure
# Python, whose speed on the reference machine drifts by up to 2x over minutes
WORKLOADS = ("plane-grid", "hard-regime", "waring-roundtrip", "monomial-search")
# rounds a run makes however short --seconds is: each op is timed at its
# fastest round, and one round would be a single sample
MIN_ROUNDS = {"plane-grid": 2, "hard-regime": 2}


@dataclass
class Op:
    """One invocation and what its output is checked against."""

    label: str
    argv: list[str]
    cases: list[tuple[int, int]] = field(default_factory=list)
    document: dict | None = None
    true_points: np.ndarray | None = None
    r: int = 0


def program_seed(seed: int, *tag: int) -> int:
    """The seed handed to chopshop for one op, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *tag]).generate_state(1, np.uint64)[0] >> 1)


def _plane_ops(seed: int) -> list[Op]:
    ops = []
    for d in PLANE_DEGREES:
        lo, hi = oracles.hs(2, d - 1) + 1, oracles.hs(2, d) - 3
        cases = [(2, r) for r in range(lo, hi + 1)]
        ops.append(Op(
            f"plane d={d}",
            ["verify-range", "--n", "2", "--r-from", str(lo), "--r-to", str(hi),
             "--workers", "1", "--prime", str(PRIME), "--seed", str(program_seed(seed, d)),
             "--format", "json", "--no-timing"],
            cases=cases,
        ))
    return ops


def _hard_ops(seed: int) -> list[Op]:
    return [
        Op(f"verify ({n},{r})",
           ["verify", "--n", str(n), "--r", str(r), "--prime", str(PRIME),
            "--seed", str(program_seed(seed, n, r)), "--format", "json", "--no-timing"],
           cases=[(n, r)])
        for n, r in HARD_CASES
    ]


def _waring_ops(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for n, D, r in WARING_SIZES:
        rng = np.random.default_rng(np.random.SeedSequence([seed, n, D, r]))
        points = np.exp(2j * np.pi * rng.random((r, n + 1)))
        exps, coeffs = oracles.expand_form(points, np.ones(r), D)
        document = oracles.form_document(n, D, exps, coeffs)
        path = workdir / f"form-n{n}-D{D}-r{r}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        ops.append(Op(
            f"decompose ({n},{D},{r})",
            ["decompose", str(path), "--r", str(r),
             "--seed", str(program_seed(seed, n, D, r)), "--format", "json"],
            document=document, true_points=points, r=r,
        ))
    return ops


def _search_ops() -> list[Op]:
    return [
        Op(f"search r={r}", ["search-monomial", "--r", str(r), "--format", "json"], r=r)
        for r in SEARCH_SIZES
    ]


def make_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The ops of one round; the inputs depend only on the workload and seed."""
    if workload == "plane-grid":
        return _plane_ops(seed)
    if workload == "hard-regime":
        return _hard_ops(seed)
    if workload == "waring-roundtrip":
        workdir.mkdir(parents=True, exist_ok=True)
        return _waring_ops(seed, workdir)
    if workload == "monomial-search":
        return _search_ops()
    raise ValueError(f"unknown workload {workload!r}")


def check_op(op: Op, code: int, output: str) -> list[str]:
    """Problems with one op's exit code and JSON output."""
    if code != 0:
        return [f"{op.label}: exit code {code}"]
    try:
        payload = json.loads(output)
    except json.JSONDecodeError as exc:
        return [f"{op.label}: output is not JSON ({exc})"]
    if "error" in payload:
        return [f"{op.label}: error payload {payload['error']}"]
    command = op.argv[0]
    if command == "verify":
        (n, r), = op.cases
        return oracles.check_certificate(payload, n, r, PRIME)
    if command == "verify-range":
        certs = payload.get("certificates", [])
        got = [(c.get("n"), c.get("r")) for c in certs]
        if got != op.cases or payload.get("skipped"):
            return [f"{op.label}: covered {got}, skipped {payload.get('skipped')}"]
        summary = payload.get("summary", {})
        if (summary.get("pass"), summary.get("fail")) != (len(certs), 0):
            return [f"{op.label}: summary {summary}"]
        return [p for c, (n, r) in zip(certs, op.cases)
                for p in oracles.check_certificate(c, n, r, PRIME)]
    if command == "decompose":
        return oracles.check_decomposition(payload, op.document, op.true_points, op.r)
    if command == "search-monomial":
        problems = oracles.check_monomial_search(payload, op.r)
        if payload.get("count") != SEARCH_COUNTS[op.r]:
            problems.append(f"{op.label}: {payload.get('count')} ideals, "
                            f"expected {SEARCH_COUNTS[op.r]}")
        return problems
    raise ValueError(f"no check for {command!r}")


def recompute(op: Op, output: str) -> list[str]:
    """Exact recomputation of the quotient at d and d+1 for a fixed subset
    of certificates: every hard-regime case, and the first, middle and last
    r of each plane-grid degree."""
    payload = json.loads(output)
    if op.argv[0] == "verify":
        return oracles.check_recomputation(payload)
    if op.argv[0] == "verify-range":
        certs = payload["certificates"]
        picks = sorted({0, len(certs) // 2, len(certs) - 1})
        return [p for i in picks for p in oracles.check_recomputation(certs[i])]
    return []
