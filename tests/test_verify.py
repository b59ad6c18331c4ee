"""Tests for the verification harness.

Monomial Hilbert functions get an independent oracle (exhaustive
divisibility scan over all monomials, coded here).  Certificates are
checked for key layout, replayability, and agreement with the frozen
values from the worked examples.
"""

import itertools
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from chopshop import modlinalg, pointideals, verify
from chopshop.formulas import CaseParams, RangeError
from chopshop.grading import hs, monomials
from chopshop.modlinalg import PrimeField
from chopshop.verify import (
    Certificate,
    MonomialIdeal,
    SelfCheckError,
    _multiple_masks,
    _multiples,
    derive_seed,
    missing_sextic_demo,
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

    def test_missing_field_is_named(self):
        data = verify_case(2, 18, P, seed=5).to_dict()
        del data["wall_ms"]
        with pytest.raises(ValueError, match="missing wall_ms"):
            Certificate.from_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [("n", "2"), ("prime", 2.5), ("points", "abc"), ("retries", None),
         ("seed", True), ("points", [[1, 2, "3"]]), ("points", [1, 2, 3]),
         ("observed_quotient", [1, 3.0]), ("verdict", "pass"), ("observed_gap", 2.0),
         ("first_mismatch_degree", "6"), ("tool_version", 1)],
    )
    def test_malformed_field_is_named(self, key, value):
        data = verify_case(2, 18, P, seed=5).to_dict()
        with pytest.raises(ValueError, match=f"certificate field {key} is malformed"):
            Certificate.from_dict({**data, key: value})

    def test_malformed_document_is_rejected(self):
        data = verify_case(2, 18, P, seed=5).to_dict()
        with pytest.raises(ValueError, match="unsupported schema_version True"):
            Certificate.from_dict({**data, "schema_version": True})
        with pytest.raises(ValueError, match="a certificate is a JSON object"):
            Certificate.from_dict([data])

    def test_replay(self):
        cert = verify_case(2, 18, P, seed=7)
        assert replay_certificate(cert)
        tampered = Certificate.from_dict(
            {**cert.to_dict(), "observed_gap": cert.observed_gap + 1}
        )
        assert not replay_certificate(tampered)

    def test_replay_recomputes_the_verdict(self):
        cert = verify_case(2, 18, P, seed=7)
        data = cert.to_dict()
        forged = {
            **data,
            "d": 3,
            "expected_quotient": [9, 9, 9],
            "expected_gap": 99,
            "verdict": "FAIL",
        }
        assert not replay_certificate(Certificate.from_dict(forged))
        for key, value in (
            ("d", 3),
            ("expected_quotient", [9, 9, 9]),
            ("expected_gap", 99),
            ("verdict", "FAIL"),
            ("first_mismatch_degree", 6),
        ):
            tampered = Certificate.from_dict({**data, key: value})
            assert not replay_certificate(tampered), key

    def test_replay_of_a_huge_r_is_refused_at_once(self, few_hs_calls):
        data = verify_case(2, 18, P, seed=5).to_dict()
        with pytest.raises(RangeError):
            replay_certificate(Certificate.from_dict({**data, "n": 1, "r": 10**12}))

    def test_replay_rejects_points_stored_unreduced(self):
        # the same projective points, one coordinate shifted by p: the
        # chopped quotient is unchanged, but sampling never writes it so
        cert = verify_case(2, 18, P, seed=7)
        points = [list(row) for row in cert.points]
        points[0][0] += P.p
        tampered = Certificate.from_dict({**cert.to_dict(), "points": points})
        assert not replay_certificate(tampered)

    def test_replay_rechecks_genericity(self):
        # 18 distinct collinear points impose only 6 conditions on quintics,
        # so their quotient falls below the expected table; replay runs
        # sampling's genericity check first, so they do not replay, and no
        # SelfCheckError blames chopshop for an edited certificate
        cert = verify_case(2, 18, P, seed=0)
        assert cert.verdict == "PASS"
        collinear = [[1, i + 1, 0] for i in range(18)]
        edited = Certificate.from_dict({**cert.to_dict(), "points": collinear})
        assert not replay_certificate(edited)

    def test_replay_accepts_an_honest_fail(self):
        cert = verify_case(2, 7, PrimeField(3), seed=1)
        assert cert.verdict == "FAIL"
        assert replay_certificate(cert)
        passed = Certificate.from_dict(
            {**cert.to_dict(), "verdict": "PASS", "first_mismatch_degree": None}
        )
        assert not replay_certificate(passed)

    @pytest.mark.parametrize("e_max", [1, 2, 3, 4, 6])
    def test_replay_uses_the_certificates_horizon(self, e_max):
        # (2,7) over F_3, seed 1: the quotient never returns to r, so the
        # table runs to the horizon it was made with (the predicted gap is
        # 1; the default horizon is 3).
        cert = verify_case(2, 7, PrimeField(3), seed=1, e_max=e_max)
        assert cert.verdict == "FAIL" and cert.observed_gap is None
        assert len(cert.observed_quotient) == cert.d + 1 + e_max
        assert replay_certificate(cert)

        def with_table(values):
            return Certificate.from_dict({**cert.to_dict(), "observed_quotient": values})

        table = list(cert.observed_quotient)
        longer = verify_case(2, 7, PrimeField(3), seed=1, e_max=e_max + 1)
        assert list(longer.observed_quotient[:-1]) == table
        # one more degree with a value the points do not have
        assert not replay_certificate(with_table(table + [longer.observed_quotient[-1] + 1]))
        # one degree less is the honest table of the next shorter horizon,
        # unless that horizon falls below the predicted gap
        assert replay_certificate(with_table(table[:-1])) == (e_max > cert.expected_gap)

    def test_replay_recomputes_the_degree_d_kernel(self, monkeypatch):
        # The replayed configuration is built from the stored points alone;
        # it has no basis kept from sampling, so the kernel is eliminated anew.
        cert = verify_case(2, 18, P, seed=7)
        shapes = []
        real = pointideals._kernels

        def counting(arrays, p):
            shapes.extend(a.shape for a in arrays)
            return real(arrays, p)

        monkeypatch.setattr(pointideals, "_kernels", counting)
        assert replay_certificate(cert)
        assert shapes == [(18, 21)]
        table = list(cert.observed_quotient)
        table[5] -= 1
        tampered = Certificate.from_dict({**cert.to_dict(), "observed_quotient": table})
        assert not replay_certificate(tampered)


class TestSelfCheck:
    def test_skipped_schur_update_trips_it(self, skipped_schur_update):
        # stale rows give spurious pivots, so the observed quotient falls
        # below the proven lower bound: an internal error, not a FAIL
        with pytest.raises(SelfCheckError, match="a bug in chopshop and not a FAIL"):
            verify_case(2, 41, P, seed=0)


def _blas_threads_cases(cases, prime, e_max=None):
    """Stands in for verify.verify_cases in a worker: for each case a PASS
    that carries the thread count of every OpenBLAS pool the worker has."""
    threads = [get() for get, _ in modlinalg._openblas_pools()]
    return [SimpleNamespace(verdict="PASS", blas_threads=threads) for _ in cases]


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
        # Each worker runs its share of the cases, a batch per generation
        # degree, and one worker runs them all: the certificates are the
        # same, wall clocks aside.  Over F_101, r = 271..278 spans the generation degrees 22
        # and 23, and with two trials it holds first-draw PASSes, PASSes
        # after redraws and GENERICITY_FAILs: 271 points of the 10303 in
        # the plane over F_101 repeat one in most draws.
        reports = {}
        for prime, r_from, r_to in ((P, 15, 17), (PrimeField(101), 271, 278)):
            runs = [verify_grid(2, r_from, r_to, prime, base_seed=9, trials_per_case=2,
                                workers=workers) for workers in (1, 2, 3)]
            certificates = [[replace(c, wall_ms=0) for c in run.certificates] for run in runs]
            assert certificates[1] == certificates[0] and certificates[2] == certificates[0]
            assert all(run.summary["pass"] == runs[0].summary["pass"] for run in runs)
            reports[prime.p] = runs[0]
        # r = 15 is skipped (hs(2,4) = 15 makes d = 4 and 15 >= 13), leaving
        # r = 16, 17 with two trials each.
        assert reports[P.p].summary["pass"] == 4
        small = reports[101].certificates
        assert {c.d for c in small} == {22, 23}
        kinds = {(c.verdict, c.retries > 0) for c in small}
        assert {("PASS", False), ("PASS", True), ("GENERICITY_FAIL", True)} <= kinds

    def test_a_batch_over_the_memory_budget_splits(self, monkeypatch):
        # The same grid under a budget of one byte, which puts every matrix
        # in a lockstep batch of its own: the budget is patched because a
        # batch that overflows the real one would allocate megabytes
        sizes = []
        for name in ("_kernels", "_echelons"):
            real = getattr(pointideals, name)

            def counted(arrays, p, *args, _real=real):
                sizes.append(len(arrays))
                return _real(arrays, p, *args)

            monkeypatch.setattr(pointideals, name, counted)
        whole = verify_grid(2, 18, 41, P, base_seed=3)
        batched = list(sizes)
        sizes.clear()
        monkeypatch.setattr(pointideals, "BATCH_BYTES", 1)
        split = verify_grid(2, 18, 41, P, base_seed=3)
        assert max(batched) > 1 and set(sizes) == {1} and len(sizes) == sum(batched)
        assert [replace(c, wall_ms=0) for c in split.certificates] == \
            [replace(c, wall_ms=0) for c in whole.certificates]

    def test_wall_clocks_are_equal_shares_of_the_batch(self, monkeypatch):
        # one worker runs the cases of each generation degree as one batch,
        # and each certificate's wall_ms is an equal share of its batch, so
        # together they fit in the grid's.  On a clock that runs d seconds a
        # case while a batch of degree d is certified, each share is d s
        clock = [0.0]
        certificates = verify._certificates

        def certified(cases, configs, e_max, prime):
            degrees = {CaseParams(n, r).d for n, r, _ in cases}
            assert len(degrees) == 1
            clock[0] += len(cases) * degrees.pop()
            return certificates(cases, configs, e_max, prime)

        monkeypatch.setattr(verify, "_certificates", certified)
        monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        report = verify_grid(2, 18, 60, P, base_seed=3)
        assert len({c.d for c in report.certificates}) > 1
        assert all(c.wall_ms == 1000 * c.d for c in report.certificates)
        assert sum(c.wall_ms for c in report.certificates) <= report.summary["total_wall_ms"]

    def test_workers_run_on_one_blas_thread(self, blas_pools, monkeypatch):
        # this process runs on two threads, and a forked worker inherits them
        monkeypatch.setattr(verify, "verify_cases", _blas_threads_cases)
        report = verify_grid(2, 16, 17, P, base_seed=9, trials_per_case=2, workers=2)
        threads = [c.blas_threads for c in report.certificates]
        assert len(threads) == 4 and all(t and set(t) == {1} for t in threads)
        assert [get() for get, _ in blas_pools] == [2] * len(blas_pools)

    def test_report_serialization(self):
        report = verify_grid(2, 7, 7, P, base_seed=1)
        data = report.to_dict()
        assert set(data) == {"certificates", "skipped", "summary"}
        assert data["summary"]["pass"] == 1
        json.dumps(data)  # must be JSON-clean


class TestMonomialHilbert:
    def test_theorem_ideal_chopped_values(self):
        quintic_part = frozenset(g for g in THEOREM_IDEAL if sum(g) == 5)
        assert count_multiples_oracle(quintic_part, 2, 6) == 9
        assert hs(2, 6) - count_multiples_oracle(quintic_part, 2, 6) == 19
        assert count_multiples_oracle(quintic_part, 2, 7) == 18

    def test_full_theorem_ideal_has_generic_hf(self):
        for t in range(16):
            assert hs(2, t) - count_multiples_oracle(THEOREM_IDEAL, 2, t) == min(hs(2, t), 18)

    # The search counts multiples as bitmasks read off product_index_map.
    def test_single_generator(self):
        for t in range(4, 9):
            mask = _multiple_masks(2, 4, t)[(4, 0, 0)]
            assert mask == _multiples(2, t, [(4, 0, 0)])
            assert mask.bit_count() == hs(2, t - 4)
            multiples = {m for j, m in enumerate(monomials(2, t)) if mask >> j & 1}
            assert multiples == {m for m in monomials(2, t) if m[0] >= 4}

    def test_empty_generators(self):
        assert _multiples(2, 5, []) == 0

    def test_counts_match_bruteforce(self):
        gens = frozenset([(2, 1, 0), (0, 3, 1), (1, 0, 3)])
        for t in range(3, 10):
            assert _multiples(2, t, gens).bit_count() == count_multiples_oracle(gens, 2, t)

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
                assert hs(2, t) - count_multiples_oracle(gens, 2, t) == min(hs(2, t), r)
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
