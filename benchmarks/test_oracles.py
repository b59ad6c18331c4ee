"""Tests of the benchmark's own reference computations and span accounting.

Run with:  python3 -m pytest benchmarks
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import oracles
import tracing

P = 2147483647


@pytest.mark.parametrize(
    "n, r, table, gap",
    [
        (2, 18, (1, 3, 6, 10, 15, 18, 19, 18), 2),
        (2, 41, (1, 3, 6, 10, 15, 21, 28, 36, 41, 43, 42, 41), 3),
    ],
)
def test_expected_table_matches_worked_examples(n, r, table, gap):
    assert oracles.expected_table(n, r) == (table, gap)


def test_inadmissible_size_is_rejected():
    with pytest.raises(ValueError):
        oracles.expected_table(2, 19)  # hs(2,5) - 2 = 19


def test_workload_cases_respect_the_gap_ceiling():
    for n, r in [(3, 159), (3, 160), (3, 161), (4, 118), (4, 119), (4, 120)] + [
        (2, r) for r in range(254, 298) if oracles.admissible(2, r)
    ]:
        _, gap = oracles.expected_table(n, r)
        assert 1 <= gap <= oracles.gap_ceiling(n, oracles.generation_degree(n, r))


def test_nullspace_annihilates_and_counts():
    rng = np.random.default_rng(1)
    a = rng.integers(0, P, size=(5, 9))
    a[4] = (a[0] + 3 * a[1]) % P  # rank 4
    basis = oracles.nullspace(a, P)
    assert basis.shape == (9, 5)
    product = [[sum(int(x) * int(y) for x, y in zip(row, col)) % P for col in basis.T] for row in a]
    assert not np.any(product)
    _, pivots = oracles.row_reduce(basis, P)
    assert len(pivots) == 5


def test_quotient_recomputation_on_generic_plane_points():
    points = np.random.default_rng(7).integers(1, P, size=(18, 3))
    assert oracles.quotient_at_d_and_next(2, points, P, 5) == (18, 19)


def _closure(gens):
    return {
        frozenset(tuple(g[i] for i in perm) for g in gens)
        for perm in itertools.permutations(range(3))
    }


def test_paper_example_passes_the_monomial_checks():
    ideals = sorted(sorted(map(list, s)) for s in _closure(oracles.PAPER_EXAMPLE_18))
    payload = {"r": 18, "count": len(ideals), "ideals": ideals}
    assert len(ideals) == 2
    assert oracles.check_monomial_search(payload, 18) == []


def test_monomial_checks_catch_a_broken_ideal():
    broken = [[3, 2, 0], [0, 3, 2], [2, 0, 3], [1, 1, 3]]
    payload = {"r": 18, "count": 1, "ideals": [broken]}
    problems = oracles.check_monomial_search(payload, 18)
    assert any("quotient at 7" in p for p in problems)
    assert any("socle" in p for p in problems)
    assert any("chopped dimension at 5" in p for p in problems)
    assert any("permutations" in p for p in problems)
    assert any("paper's example" in p for p in problems)


def test_decomposition_check_accepts_truth_and_rejects_a_moved_point():
    rng = np.random.default_rng(3)
    points = np.exp(2j * np.pi * rng.random((18, 3)))
    exps, coeffs = oracles.expand_form(points, np.ones(18), 10)
    document = oracles.form_document(2, 10, exps, coeffs)

    def payload(pts):
        return {
            "points": [[{"re": z.real, "im": z.imag} for z in row] for row in pts],
            "coefficients": [{"re": 1.0, "im": 0.0}] * 18,
        }

    # a projective rescaling of each point with the weight compensated
    scale = np.exp(0.7j)
    rescaled = payload(points * scale)
    rescaled["coefficients"] = [{"re": (scale ** -10).real, "im": (scale ** -10).imag}] * 18
    assert oracles.check_decomposition(rescaled, document, points, 18) == []
    moved = points.copy()
    moved[0, 1] *= np.exp(1e-4j)
    problems = oracles.check_decomposition(payload(moved), document, points, 18)
    assert len(problems) == 2


def test_expand_form_matches_direct_power_sum():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    weights = rng.normal(size=4)
    exps, coeffs = oracles.expand_form(points, weights, 3)
    y = rng.normal(size=3)
    direct = sum(w * (p @ y) ** 3 for w, p in zip(weights, points))
    via_coeffs = sum(c * np.prod(y ** np.array(e)) for e, c in zip(exps, coeffs))
    assert abs(direct - via_coeffs) < 1e-9 * abs(direct)


def test_layer_metrics_split_rank_calls_and_self_time():
    spans = [
        ["cli.run", 0.0, 10.0, -1, 0, None],
        ["verify.verify_case", 1.0, 9.0, 0, 0, None],
        ["pointideals.sample_points", 1.0, 4.0, 1, 0, 2],
        ["modlinalg.rank", 1.5, 2.5, 2, 0, (10, 20)],
        ["pointideals.chopped_profile", 4.0, 8.0, 1, 0, None],
        ["modlinalg.rank", 5.0, 7.0, 4, 0, (30, 40)],
    ]
    m = tracing.layer_metrics(spans, 0, len(spans))
    assert m["modlinalg.rank.genericity_s"] == 1.0
    assert m["modlinalg.rank.genericity_calls"] == 1
    assert m["modlinalg.rank.macaulay_s"] == 2.0
    assert m["modlinalg.rank.macaulay_cells"] == 1200
    assert m["modlinalg.rank.macaulay_mcells_per_s"] == 1200 / 2.0 / 1e6
    assert m["pointideals.sample_points.self_s"] == 2.0
    assert m["pointideals.sample_points.draws"] == 2
    assert m["verify.verify_case.self_s"] == 1.0
    assert m["cli.run.self_s"] == 2.0
    assert m["modlinalg.self_s"] == 3.0


def test_every_listed_layer_metric_is_produced():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    produced = set(tracing.layer_metrics([], 0, 0)) | {
        "trace.overhead_s", "trace.untraced_total_s", "trace.traced_total_s",
    }
    assert {m["name"] for m in spec["per_layer"]} <= produced
