"""The block-wise chopped scan: a Macaulay staircase over the batch budget
is built and eliminated a block of whole shifts at a time, left-looking
(``pointideals._staircase``, ``modlinalg._block_echelon``), and must find
the pivots, hence the quotient at every degree, that one ``_echelon`` of
the whole matrix finds.
"""

import os
import re
import tracemalloc
from bisect import bisect_left
from collections import Counter
from unittest import mock

import pytest

from chopshop import modlinalg, pointideals
from chopshop.formulas import CaseParams, admissible, predicted_gap
from chopshop.grading import CapacityError, hs
from chopshop.modlinalg import PrimeField, _echelon
from chopshop.pointideals import (
    _fixed_rows,
    _graded_quotients,
    _staircase,
    chopped_profile,
    ideal_component,
    macaulay_matrix,
    sample_configs,
    sample_points,
)
from chopshop.verify import derive_seed

P = PrimeField(2147483647)


def quotients(basis, top, piv):
    """The quotient at degrees d+1..d+top read off the pivot columns."""
    n, d, g = basis.n, basis.degree, basis.dim
    return [hs(n, d + e) - bisect_left(piv, g * hs(n, e)) for e in range(1, top + 1)]


@pytest.fixture
def block_pivots(monkeypatch):
    """The pivots of every block-wise scan, in order."""
    seen = []
    real = pointideals._block_echelon

    def recorded(stairs, p):
        seen.append(real(stairs, p))
        return seen[-1]

    monkeypatch.setattr(pointideals, "_block_echelon", recorded)
    return seen


@pytest.mark.parametrize("p", [7, 11, 101, P.p])
def test_one_shift_blocks_match_the_whole_matrix(p, block_pivots, monkeypatch):
    # under a one-byte budget every staircase runs one shift a block, so
    # every block boundary that a real budget could draw is exercised.  The
    # scan at the predicted gap, and at the default horizon where the
    # quotient has not come back to r by then, each give the pivots and
    # quotients of one elimination of the whole matrix
    prime = PrimeField(p)
    exchanged = Counter()
    real_exchanged = modlinalg._exchanged

    def counted(lower, *args):
        out = real_exchanged(lower, *args)
        exchanged["moved"] += out is not lower
        exchanged["grown"] += len(out) > len(lower)
        return out

    monkeypatch.setattr(modlinalg, "_exchanged", counted)
    monkeypatch.setattr(pointideals, "BATCH_BYTES", 1)
    seen = Counter()
    for n, r_to in ((2, 60), (3, 40)):
        cases = [(n, r, derive_seed(0, n, r, 0)) for r in range(1, r_to + 1)
                 if admissible(n, CaseParams(n, r).d, r)]
        for config in sample_configs(cases, prime):
            if config is None:
                continue
            params = CaseParams(n, config.r)
            prediction = predicted_gap(params)
            basis = ideal_component(config, params.d)
            drop = _fixed_rows(config, basis)
            tops = [prediction.gap]
            horizon = max(prediction.bound, prediction.gap) + 2
            for top in tops:
                whole = macaulay_matrix(basis, top, drop).array.copy()
                want = _echelon(whole, p)
                stairs = _staircase(basis, top, drop)
                assert stairs.ends == tuple(basis.dim * (i + 1) for i in range(hs(n, top)))
                got = _graded_quotients(basis, top, drop)
                assert block_pivots[-1] == want, (n, config.r, top)
                assert got == quotients(basis, top, want), (n, config.r, top)
                if config.r not in got and top < horizon:
                    tops.append(horizon)
                    seen["rescans"] += 1
            table = prediction.table.values
            seen["disagrees"] += got[:len(table) - params.d - 1] != list(table[params.d + 1:])
            seen["x0 vanishes"] += not drop.size
            seen["cases"] += 1
    seen.update(exchanged)
    assert seen["cases"] > 20, seen
    if p < 100:
        assert min(seen[k] for k in ("rescans", "disagrees", "x0 vanishes", "moved",
                                     "grown")) > 0, seen


@pytest.mark.parametrize("n, r", [(3, 161), (4, 120)])
def test_real_budget_blocks_match_the_whole_matrix(n, r, block_pivots, monkeypatch):
    # the hard cases at the real budget: a few blocks of many shifts each,
    # every one starting on a panel boundary, so the block scan runs the
    # whole-matrix scan's panels and its products write as many cells
    cells, path = Counter(), "setup"
    real_mul_mod = modlinalg._mul_mod

    def counted(a, b, p, c=None):
        out = real_mul_mod(a, b, p, c)
        cells[path] += out.size
        return out

    monkeypatch.setattr(modlinalg, "_mul_mod", counted)
    config = sample_points(n, r, P, 7)
    params = CaseParams(n, r)
    gap = predicted_gap(params).gap
    basis = ideal_component(config, params.d)
    drop = _fixed_rows(config, basis)
    whole = macaulay_matrix(basis, gap, drop).array.copy()
    stairs = _staircase(basis, gap, drop)
    assert 1 < len(stairs.ends) and whole.nbytes > pointideals.BATCH_BYTES
    assert all(end % modlinalg._LEAF == 0 for end in stairs.ends[:-1])
    path = "whole"
    want = _echelon(whole, P.p)
    del whole
    path = "blocks"
    profile = chopped_profile(config)
    assert block_pivots == [want]
    assert cells["blocks"] == cells["whole"]
    assert list(profile.observed.values[params.d + 1:]) == quotients(basis, gap, want)
    assert profile.observed.values == predicted_gap(params).table.values


class TestCapacity:
    @staticmethod
    def memory(pages):
        return {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": 1}.__getitem__

    def test_working_set_over_memory_raises_before_a_block_is_built(self, monkeypatch):
        # (3,161) is over the budget: its working set, the kept bands, the
        # largest block and its temporaries, is checked before the first
        # block is built, under a patched physical memory that is one byte
        # short of it; with exactly that much the scan runs
        config = sample_points(3, 161, P, 7)
        basis = ideal_component(config, CaseParams(3, 161).d)
        builds = []
        build = pointideals.macaulay_matrix

        def recorded(*args, **kwargs):
            builds.append(kwargs.get("shifts"))
            return build(*args, **kwargs)

        monkeypatch.setattr(pointideals, "macaulay_matrix", recorded)
        with mock.patch.object(os, "sysconf", self.memory(1)):
            with pytest.raises(CapacityError, match="staircase") as info:
                chopped_profile(config)
        assert builds == []
        need = int(re.search(r" needs (\d+) bytes", str(info.value)).group(1))
        with mock.patch.object(os, "sysconf", self.memory(need - 1)):
            with pytest.raises(CapacityError):
                chopped_profile(config)
        assert builds == []
        # with exactly that much the scan runs, within what was counted
        tracemalloc.start()
        try:
            with mock.patch.object(os, "sysconf", self.memory(need)):
                profile = chopped_profile(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(builds) > 1 and None not in builds
        assert profile.observed_gap == predicted_gap(CaseParams(3, 161)).gap
        assert peak < need

    def test_the_largest_plane_case_is_built_whole(self):
        # (2,297), the largest staircase of the plane grids, holds 1.83 MiB
        # of int32 at its gap: within the budget, so it is built whole, in
        # lockstep with its batch, and only its builder checks its memory
        config = sample_points(2, 297, P, 7)
        params = CaseParams(2, 297)
        basis = ideal_component(config, params.d)
        gap = predicted_gap(params).gap
        drop = _fixed_rows(config, basis)
        assert _staircase(basis, gap, drop) is None
        assert macaulay_matrix(basis, gap, drop).array.nbytes <= pointideals.BATCH_BYTES
