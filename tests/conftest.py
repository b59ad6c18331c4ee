"""Shared fixtures.

The acceptance tests record one line per criterion; the terminal-summary
hook replays those lines after the run so they are visible even with
output capture on.
"""

from unittest import mock

import pytest

from chopshop import modlinalg, pointideals, verify

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


def _replay_without_update(a, p, row0, leaves, c0, c1):
    """modlinalg._replay with its Schur update skipped: the pivot rows are
    solved, the rows below them keep their stale entries."""
    k = sum(len(cols) for cols, _ in leaves)
    modlinalg._solve_lower(a, p, row0, leaves, a[row0:row0 + k, c0:c1])


@pytest.fixture
def skipped_schur_update(monkeypatch):
    """Certificates scan their chopped quotient with a broken elimination
    that skips the Schur update; sampling stays honest."""

    def profile(config, e_max=None):
        with mock.patch.object(modlinalg, "_replay", _replay_without_update):
            return pointideals.chopped_profile(config, e_max=e_max)

    monkeypatch.setattr(verify, "chopped_profile", profile)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(_acceptance_lines):
            terminalreporter.write_line(line)
