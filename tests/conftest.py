"""Fixtures shared across the test modules."""

import pytest

from gptsteer import lp


@pytest.fixture
def lp_solves(monkeypatch):
    """Every problem handed to lp.solve while the test runs, in call order."""
    seen = []
    solve = lp.solve

    def counting(problem, mode="float", **keywords):
        seen.append(problem)
        return solve(problem, mode, **keywords)

    monkeypatch.setattr(lp, "solve", counting)
    return seen
