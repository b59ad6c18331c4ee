"""Tests for the verification harness.

Monomial Hilbert functions get an independent oracle (exhaustive
divisibility scan over all monomials, coded here).  Certificates are
checked for key layout, replayability, and agreement with the frozen
values from the worked examples.
"""

import itertools
import json

import numpy as np
import pytest

from chopshop import pointideals
from chopshop.formulas import RangeError
from chopshop.grading import hs, monomials
from chopshop.modlinalg import PrimeField
from chopshop.verify import (
    Certificate,
    MonomialIdeal,
    derive_seed,
    missing_sextic_demo,
    monomial_chopped_hf,
    monomial_hf,
    replay_certificate,
    search_monomial_ideals,
    verify_case,
    verify_grid,
)

P = PrimeField(2147483647)

CERT_KEYS = [
    "schema_version",
    "n",
    "r",
    "d",
    "prime",
    "seed",
    "retries",
    "points",
    "observed_quotient",
    "expected_quotient",
    "observed_gap",
    "expected_gap",
    "verdict",
    "first_mismatch_degree",
    "tool_version",
    "wall_ms",
]

THEOREM_IDEAL = frozenset(
    [(3, 2, 0), (0, 3, 2), (2, 0, 3), (2, 2, 2)]
)


def count_multiples_oracle(gens, n, t):
    """Scan every degree-t monomial and mark divisibility, no set algebra."""
    hits = 0
    for mono in monomials(n, t):
        if any(all(g <= m for g, m in zip(gen, mono)) for gen in gens):
            hits += 1
    return hits


class TestDeriveSeed:
    def test_deterministic_and_spread(self):
        seeds = {derive_seed(7, n, r, k) for n in (2, 3) for r in (10, 11) for k in (0, 1)}
        assert len(seeds) == 8
        assert derive_seed(7, 2, 10, 0) == derive_seed(7, 2, 10, 0)

    def test_base_seed_matters(self):
        assert derive_seed(1, 2, 18, 0) != derive_seed(2, 2, 18, 0)


class TestVerifyCase:
    def test_example_18_points(self):
        cert = verify_case(2, 18, P, seed=11)
        assert cert.verdict == "PASS"
        assert cert.observed_quotient == (1, 3, 6, 10, 15, 18, 19, 18)
        assert cert.observed_gap == 2 and cert.expected_gap == 2
        assert cert.first_mismatch_degree is None
        assert cert.d == 5 and cert.prime == P.p

    def test_example_17_points(self):
        cert = verify_case(2, 17, P, seed=11)
        assert cert.verdict == "PASS" and cert.observed_gap == 1
        # chopped component equals the full degree-5 component: 4 quintics
        assert cert.observed_quotient[5] == 17

    def test_example_41_points(self):
        cert = verify_case(2, 41, P, seed=11)
        assert cert.verdict == "PASS" and cert.observed_gap == 3
        assert cert.observed_quotient[8:] == (41, 43, 42, 41)

    def test_16_points_in_p3(self):
        cert = verify_case(3, 16, P, seed=11)
        assert cert.verdict == "PASS" and cert.observed_gap == 2

    def test_inadmissible_r_raises(self):
        with pytest.raises(RangeError):
            verify_case(2, 19, P, seed=1)

    def test_genericity_failure_verdict(self):
        # The projective plane over F_3 has 13 points, so 30 distinct ones
        # can never be drawn and the retry budget must run out.
        cert = verify_case(2, 30, PrimeField(3), seed=1)
        assert cert.verdict == "GENERICITY_FAIL"
        assert cert.points == () and cert.observed_quotient == ()
        assert cert.retries == 16

    def test_tiny_prime_mismatch_is_honest_fail(self):
        # Seven points over F_3 can pass the rank genericity screen while
        # the chopped quotient still deviates from the large-field
        # prediction; the certificate must say FAIL, not PASS.
        cert = verify_case(2, 7, PrimeField(3), seed=1)
        assert cert.verdict == "FAIL"
        assert cert.first_mismatch_degree is not None
        assert cert.points != ()

    def test_json_round_trip_and_key_order(self):
        cert = verify_case(2, 18, P, seed=5)
        data = cert.to_dict()
        assert list(data.keys()) == CERT_KEYS
        decoded = Certificate.from_dict(json.loads(json.dumps(data)))
        assert decoded == cert

    def test_replay(self):
        cert = verify_case(2, 18, P, seed=7)
        assert replay_certificate(cert)
        tampered = Certificate.from_dict(
            {**cert.to_dict(), "observed_gap": cert.observed_gap + 1}
        )
        assert not replay_certificate(tampered)

    def test_replay_recomputes_the_degree_d_kernel(self, monkeypatch):
        # The replayed configuration is built from the stored points alone;
        # it has no basis kept from sampling, so the kernel is eliminated anew.
        cert = verify_case(2, 18, P, seed=7)
        shapes = []
        real = pointideals.kernel_basis

        def counting(m):
            shapes.append(m.shape)
            return real(m)

        monkeypatch.setattr(pointideals, "kernel_basis", counting)
        assert replay_certificate(cert)
        assert shapes == [(18, 21)]
        table = list(cert.observed_quotient)
        table[5] -= 1
        tampered = Certificate.from_dict({**cert.to_dict(), "observed_quotient": table})
        assert not replay_certificate(tampered)


class TestVerifyGrid:
    def test_small_plane_grid(self):
        report = verify_grid(2, 6, 9, P, base_seed=3)
        skipped_r = {s.r for s in report.skipped}
        assert skipped_r == {6, 8, 9}  # at or above hs(2,d) - 2 for their d
        assert report.summary["skip"] == 3
        assert report.summary["fail"] == 0
        ran = {c.r for c in report.certificates}
        assert ran == {7}
        assert all(c.verdict == "PASS" for c in report.certificates)

    def test_plane_grid_18_to_25(self):
        report = verify_grid(2, 18, 25, P, base_seed=3)
        assert report.summary["fail"] == 0
        gaps = {c.r: c.observed_gap for c in report.certificates}
        assert gaps[18] == 2 and gaps[25] == 3
        # r = 19, 20 sit at or above hs(2,5) - 2 = 19, and r = 21 equals
        # hs(2,5) itself, so all three are inadmissible for d = 5.
        assert {s.r for s in report.skipped} == {19, 20, 21}

    def test_trials_and_worker_invariance(self):
        seq = verify_grid(2, 15, 17, P, base_seed=9, trials_per_case=2)
        par = verify_grid(2, 15, 17, P, base_seed=9, trials_per_case=2, workers=2)
        assert [c.seed for c in seq.certificates] == [c.seed for c in par.certificates]
        assert [c.observed_quotient for c in seq.certificates] == [
            c.observed_quotient for c in par.certificates
        ]
        # r = 15 is skipped (hs(2,4) = 15 makes d = 4 and 15 >= 13), leaving
        # r = 16, 17 with two trials each.
        assert seq.summary["pass"] == 4

    def test_report_serialization(self):
        report = verify_grid(2, 7, 7, P, base_seed=1)
        data = report.to_dict()
        assert set(data) == {"certificates", "skipped", "summary"}
        assert data["summary"]["pass"] == 1
        json.dumps(data)  # must be JSON-clean


class TestMonomialHilbert:
    def test_theorem_ideal_chopped_values(self):
        quintic_part = frozenset(g for g in THEOREM_IDEAL if sum(g) == 5)
        chopped = MonomialIdeal(2, quintic_part)
        assert monomial_chopped_hf(chopped, 6) == 9
        assert hs(2, 6) - monomial_chopped_hf(chopped, 6) == 19
        assert monomial_chopped_hf(chopped, 7) == 18

    def test_full_theorem_ideal_has_generic_hf(self):
        ideal = MonomialIdeal(2, THEOREM_IDEAL)
        for t in range(16):
            assert monomial_hf(ideal, t) == min(hs(2, t), 18)

    def test_single_generator(self):
        ideal = MonomialIdeal(2, frozenset([(4, 0, 0)]))
        for t in range(4, 9):
            assert monomial_chopped_hf(ideal, t) == hs(2, t - 4)

    def test_empty_generators(self):
        ideal = MonomialIdeal(2, frozenset())
        assert monomial_chopped_hf(ideal, 5) == 0
        assert monomial_hf(ideal, 5) == hs(2, 5)

    def test_counts_match_bruteforce(self):
        gens = frozenset([(2, 1, 0), (0, 3, 1), (1, 0, 3)])
        ideal = MonomialIdeal(2, gens)
        for t in range(3, 10):
            assert monomial_chopped_hf(ideal, t) == count_multiples_oracle(gens, 2, t)

    def test_minimality_enforced(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, frozenset([(1, 0, 0), (2, 1, 0)]))


class TestMonomialSearch:
    def test_r18_unique_orbit(self):
        found = search_monomial_ideals(18)
        gen_sets = {ideal.generators for ideal in found}
        target = MonomialIdeal(2, THEOREM_IDEAL)
        assert target.generators in gen_sets
        # closure under the variable action, single orbit
        orbit = {target.permuted(p).generators for p in
                 itertools.permutations(range(3))}
        assert gen_sets == orbit
        assert len(found) == len(orbit) == 2

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            search_monomial_ideals(19)

    @pytest.mark.extended
    def test_r25_empty(self):
        assert search_monomial_ideals(25) == ()

    @pytest.mark.extended
    def test_r33_empty(self):
        assert search_monomial_ideals(33) == ()

    @pytest.mark.extended
    def test_r32_satisfiers_are_genuine(self):
        # Thirty-two points admit genuine monomial certificates: three
        # variable-permutation orbits survive every filter.  Each survivor
        # is re-verified here from scratch, far past the search horizon.
        found = search_monomial_ideals(32)
        gen_sets = {ideal.generators for ideal in found}
        assert len(found) == len(gen_sets) == 18
        closure = {
            frozenset(tuple(g[i] for i in perm) for g in gens)
            for gens in gen_sets
            for perm in itertools.permutations(range(3))
        }
        assert closure == gen_sets
        d, r, horizon = 7, 32, 40
        from chopshop.formulas import CaseParams, expected_chopped_hf

        expected = {
            t: expected_chopped_hf(CaseParams(2, r), t)[0]
            for t in range(d + 1, horizon + 1)
        }
        def inside(gens, t):
            return {
                m for m in monomials(2, t)
                if any(all(a >= b for a, b in zip(m, g)) for g in gens)
            }

        for ideal in found:
            gens = ideal.generators
            degree_d_part = frozenset(g for g in gens if sum(g) == d)
            for t in range(horizon + 1):
                assert monomial_hf(ideal, t) == min(hs(2, t), r)
                if t > d:
                    chopped = count_multiples_oracle(degree_d_part, 2, t)
                    assert chopped == expected[t]
            # saturation: no monomial outside with every shift inside
            for t in range(d - 1, horizon):
                members = inside(gens, t)
                members_next = inside(gens, t + 1)
                for mono in monomials(2, t):
                    if mono in members:
                        continue
                    shifts = [
                        tuple(m + (j == i) for j, m in enumerate(mono))
                        for i in range(3)
                    ]
                    assert not all(s in members_next for s in shifts)


class TestMissingSextic:
    def test_membership_record(self):
        record = missing_sextic_demo(P, seed=2)
        assert record == {
            "g_in_I6": True,
            "g_in_chopped6": False,
            "chopped6_dim": 9,
            "I6_dim": 10,
        }

    def test_deterministic(self):
        assert missing_sextic_demo(P, seed=4) == missing_sextic_demo(P, seed=4)

    def test_many_seeds(self):
        for seed in range(6):
            record = missing_sextic_demo(P, seed=seed)
            assert record["g_in_I6"] and not record["g_in_chopped6"]
