"""Fixtures shared across the test modules."""

import warnings

import pytest

from gptsteer import lp

# Hypothesis imports its patch writer while it reports a failing example,
# and that import (libcst) raises a DeprecationWarning, which the "error"
# warning filter turns into an INTERNALERROR that stops the session.
# Importing it once here, with that warning ignored, lets a failing
# property test fail like any other test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


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
