"""Shared fixtures.

The acceptance tests record one line per criterion; the terminal-summary
hook replays those lines after the run so they are visible even with
output capture on.
"""

import itertools
from unittest import mock

import pytest

from chopshop import formulas, modlinalg, pointideals, verify
from chopshop.grading import hs

_acceptance_lines = []


@pytest.fixture(scope="session")
def acceptance():
    """Recorder for acceptance criteria.

    Call it once per criterion with the criterion number, the boolean
    outcome, and a short detail string.  It prints the line, stores it for
    the terminal summary, and fails the test when the outcome is false.
    """

    def record(criterion: int, ok: bool, detail: str) -> None:
        line = f"criterion {criterion:2d} {'PASS' if ok else 'FAIL'}  {detail}"
        _acceptance_lines.append(line)
        print(line)
        assert ok, line

    return record


@pytest.fixture
def few_hs_calls(monkeypatch):
    """formulas.hs fails on its 500th call, so a scan one degree at a time
    up to a huge degree fails the test instead of running for hours."""
    calls = itertools.count()

    def counted(n, t):
        if next(calls) >= 500:
            raise AssertionError("hs called 500 times")
        return hs(n, t)

    monkeypatch.setattr(formulas, "hs", counted)


@pytest.fixture
def skipped_schur_update(monkeypatch):
    """Certificates scan their chopped quotient with a broken elimination
    that skips the Schur update (``modlinalg._update``): each panel still
    solves its pivot rows, the rows below keep their stale entries.
    Sampling stays honest."""

    def profiles(configs, e_max=None):
        with mock.patch.object(modlinalg, "_update", lambda *args: None):
            return pointideals.chopped_profiles(configs, e_max=e_max)

    monkeypatch.setattr(verify, "chopped_profiles", profiles)


@pytest.fixture
def blas_pools():
    """Every OpenBLAS thread pool of the process, numpy's and scipy's, as
    (get, set) pairs, each set to two threads; after the test each pool
    gets back the count it had."""
    import scipy.linalg  # noqa: F401  (loads scipy's pool)

    pools = modlinalg._openblas_pools()
    if not pools:
        pytest.skip("no OpenBLAS in this process")
    saved = [get() for get, _ in pools]
    for _, put in pools:
        put(2)
    yield pools
    for (_, put), count in zip(pools, saved):
        put(count)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(_acceptance_lines):
            terminalreporter.write_line(line)
