"""Deterministic linear programming with checked certificates.

Two-phase simplex on a dense tableau with Bland's entering rule and
lowest-index tie-breaking, so a given problem always walks the same pivot
path and the returned arrays are bit-identical across runs.  Every variable
is nonnegative (lower bound 0, of either sign) or free (lower bound -inf);
any other bound is an inequality row of the caller's.  A free variable is
z+ - z- on two tableau columns, so every column is z >= 0.  Nothing is
returned unchecked: an optimal answer must pass primal feasibility, dual sign
conditions and strong duality, an infeasible verdict must carry a Farkas
certificate whose separation margin is verified against the original data.
A failed check raises NumericalFailure rather than returning a wrong answer.

Callers read outcomes through two contracts: `feasibility` returns status
"optimal" or "infeasible", never "unbounded", and `optimum` returns an
optimal outcome or raises NumericalFailure naming the LP.  Both look up
`solve` as this module's global, so a wrapper on `lp.solve` sees every one.

`mode="exact"` is a choice of number type, made once at the top of `solve`:
the same set-up, pivots, extraction and checks run on object arrays of
`fractions.Fraction` (imported on that path alone) at zero tolerance in
place of tolerances.py's.  Only the float mode rebuilds its tableau, so
only it may leave the artificial columns stale during a phase.  Exact mode
is slow and guarded (see guards.py) but removes floating-point doubt on
small instances; float inputs convert exactly, so both modes see one
problem.

A float solve may start from a basis: `start` lists one tableau column
per constraint row, where the columns are each variable's (two for a free
variable, z+ then z-), then one slack per inequality row, then one
artificial per row, as in the `basis` of an optimal LpOutcome.  The
solver builds the same tableau, rebuilds it once on the start's columns
(every other column at 0, the artificials fixed at 0) and skips phase
one when the basic values are nonnegative, and the artificials' 0, to
LP_FEASIBILITY; phase two, the extraction and every check then run as on
the cold path.  A numerically singular or infeasible start leaves the
tableau untouched and runs the cold path, so its outcome is the cold one
byte for byte; a start of the wrong length, with a repeated, negative,
too large or non-integer column, or in exact mode is InvalidInput.  A
start that ends at another optimal vertex gives another x and other
certificates, each checked.  The robustness bisection starts each
cone-membership LP from the basis that decided the same entry one step
earlier.

Most LPs the library asks are tiny (three rows and four columns for a cone
membership), so a call's fixed cost is numpy dispatch rather than pivots,
and each step is written with few numpy calls: `LpProblem` converts every
field with `guards.float_array` (text, bools, None and complex data are a
MalformedProblem naming the field), validates in one pass and works out
which check failed only on failure; `solve` builds its
tableau in place, copies the constraint block and the costs out of it, and
sums the phase-one row in one axis-0 reduction; `_verify` computes a row's
size-relative slack only for a row that misses by more than the bare
tolerance.  Every arithmetic operation keeps its operands and its order, so
the pivots and the outcome bytes are those of the one-step-at-a-time code
that tests/test_lp_reference.py keeps as the reference.

One rule decides what a solve leaves out: a step is skipped only when its
operands make it an exact no-op, and that is decided on each call from the
problem's arrays, so a replayed or a mutated LpProblem takes the path its
data asks for.  With no free variable (as every cone-membership LP has)
the column gathers and negations of the z+ - z- split are skipped; with no
inequality row, the copies that append its rows, its slack diagonal, the
product A_ub^T y_ub and its multipliers' sign checks are; with no negative
right-hand side, the negations of the flipped rows of b, T and y are.
Dropping rc - A_ub^T y_ub with no inequality row keeps every byte, since
that product is +0.0 and t - (+0.0) is t for every float t, -0.0
included.  Every solve keeps x = l + z, the addition of the zero lower
bounds: 0.0 + (-0.0) is +0.0, so that addition is no exact no-op.
"""

import functools
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import guards
from .errors import InvalidInput, MalformedProblem, NumericalFailure
from .kernels import (
    BASIC,
    PHASE_ITER_LIMIT,
    PHASE_OPTIMAL,
    PHASE_UNBOUNDED,
    drive_out_artificials,
    entering,
    simplex_phase,
)
from .tolerances import LP_FEASIBILITY, LP_GAP, PIVOT


def _floats(field, value):
    """value as a float array (`guards.float_array`), or MalformedProblem
    naming the field."""
    message = f"{field} must be numeric"
    try:
        return guards.float_array(value, message)
    except InvalidInput:
        raise MalformedProblem(message) from None


def _rows(name, rows, rhs, n):
    """(A, b) as float arrays, a flat A read as one row; MalformedProblem
    when a field is not numeric or only one of the two is given."""
    if rows is None and rhs is None:
        return np.zeros((0, n)), np.zeros(0)
    if rows is None or rhs is None:
        raise MalformedProblem(f"{name}_rows and {name}_rhs must be given together")
    A = _floats(f"{name}_rows", rows)
    return (A.reshape(1, -1) if A.ndim == 1 else A,
            _floats(f"{name}_rhs", rhs).reshape(-1))


def _reject(problem):
    """Raise the first failing check of an invalid LpProblem, in order."""
    c = _floats("objective", problem.objective).reshape(-1)
    if c.size < 1:
        raise MalformedProblem("objective must have at least one entry")
    if not np.all(np.isfinite(c)):
        raise MalformedProblem("objective must be finite")
    n = c.size
    for name in ("eq", "ub"):
        A, b = _rows(name, getattr(problem, f"{name}_rows"),
                     getattr(problem, f"{name}_rhs"), n)
        if A.ndim != 2 or A.shape[1] != n:
            raise MalformedProblem(f"{name}_rows must have {n} columns")
        if A.shape[0] != b.shape[0]:
            raise MalformedProblem(f"{name}_rhs length does not match {name}_rows")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise MalformedProblem(f"{name} constraint data must be finite")
    l = (np.zeros(n) if problem.lower is None
         else _floats("lower", problem.lower).reshape(-1))
    if l.shape[0] != n:
        raise MalformedProblem("bound vectors must match the objective length")
    j = int(np.argmax(~_allowed(l)))
    raise MalformedProblem(f"lower bound at index {j} must be 0 or -inf")


def _allowed(lower):
    """Mask of the lower bounds a variable may have: 0 (either sign), a
    nonnegative variable, or -inf, a free one (NaN is neither)."""
    return (lower == 0) | (lower == -np.inf)


@dataclass(eq=False)
class LpProblem:
    """min objective . x  s.t.  eq_rows x = eq_rhs, ub_rows x <= ub_rhs,
    x_j >= 0 where lower[j] is 0 (the default) and x_j free where it is
    -inf.  Any other bound on x_j is an inequality row."""

    objective: np.ndarray
    eq_rows: Optional[np.ndarray] = None
    eq_rhs: Optional[np.ndarray] = None
    ub_rows: Optional[np.ndarray] = None
    ub_rhs: Optional[np.ndarray] = None
    lower: Optional[np.ndarray] = None

    def __post_init__(self):
        # The valid path tests everything at once: the shapes fit, all the
        # coefficients are finite, and (unless the lower bounds are the
        # default) each lower bound is 0 or -inf.  `_reject` finds which
        # check failed.
        try:
            c = _floats("objective", self.objective).reshape(-1)
            n = c.size
            eq = _rows("eq", self.eq_rows, self.eq_rhs, n)
            ub = _rows("ub", self.ub_rows, self.ub_rhs, n)
            l = (np.zeros(n) if self.lower is None
                 else _floats("lower", self.lower).reshape(-1))
            valid = (n and eq[0].shape == (eq[1].size, n)
                     and ub[0].shape == (ub[1].size, n) and l.size == n
                     and np.isfinite(np.concatenate((c, *eq, *ub),
                                                    axis=None)).all()
                     and (self.lower is None or _allowed(l).all()))
        except MalformedProblem:
            valid = False
        if not valid:
            _reject(self)
        self.objective = c
        (self.eq_rows, self.eq_rhs), (self.ub_rows, self.ub_rhs) = eq, ub
        self.lower = l

    @property
    def n_vars(self):
        return self.objective.size


@dataclass(eq=False)
class LpOutcome:
    """Result of `solve`.  For status "infeasible" the dual vectors hold the
    Farkas certificate and `farkas_margin` its verified separation; for
    status "unbounded" everything but the status is None.  `basis` holds,
    read-only, the tableau columns basic at a checked optimum, one per
    constraint row, and is None otherwise; it is a valid `start`."""

    status: str
    x: Optional[np.ndarray]
    value: Optional[float]
    dual_eq: Optional[np.ndarray]
    dual_ub: Optional[np.ndarray]
    reduced_costs: Optional[np.ndarray]
    farkas_margin: Optional[float] = None
    basis: Optional[np.ndarray] = None


def _fractionize(a):
    """Exact object-array copy of a float array; infinities stay floats."""
    from fractions import Fraction

    out = a.astype(object)
    finite = np.isfinite(a)
    out[finite] = [Fraction(v) for v in a[finite].tolist()]
    return out


def _negate(a, where):
    """a with its entries under the mask `where` negated in place; a mask
    of None negates nothing."""
    return a if where is None else np.negative(a, out=a, where=where)


def _fill_diagonal(T, row, col, count, value):
    """T[row + k, col + k] = value for k < count: one strided write to the
    flat view of the contiguous T."""
    width = T.shape[1]
    start = row * width + col
    T.reshape(-1)[start:start + count * (width + 1):width + 1] = value


def _fold(start, terms):
    """start + terms[0] + terms[1] + ..., added left to right as a loop adds
    them (a sum may pair the terms and round differently)."""
    return functools.reduce(operator.add, terms.tolist(), start)


def feasibility(problem, start=None):
    """Solve a zero-objective problem, from the basis `start` when one is
    given; only status and certificates matter.  No ray improves a zero
    objective, so the status is "optimal" or "infeasible"; an "unbounded"
    verdict raises NumericalFailure."""
    if isinstance(problem, LpProblem) and problem.objective.any():
        raise MalformedProblem("a feasibility problem has a zero objective")
    out = solve(problem, start=start)
    if out.status == "unbounded":
        rows = problem.eq_rows.shape[0] + problem.ub_rows.shape[0]
        raise NumericalFailure(f"feasibility LP of shape {rows}x"
                               f"{problem.n_vars} ended unbounded")
    return out


def optimum(problem, what):
    """`solve`'s outcome when it is optimal; otherwise NumericalFailure
    saying that `what` ended infeasible or unbounded."""
    out = solve(problem)
    if out.status != "optimal":
        raise NumericalFailure(f"{what} ended {out.status}")
    return out


def solve(problem, mode="float", start=None):
    """Solve an LpProblem and return a verified LpOutcome; a `start` basis
    may skip phase one (the module docstring's start contract).  A set-up,
    extraction or check step is skipped only where this problem's arrays
    make it an exact no-op (the module docstring's rule): the z+ - z-
    split with no free variable, the inequality-row work with no
    inequality row, the flips with no negative right-hand side."""
    if not isinstance(problem, LpProblem):
        raise InvalidInput("problem must be an LpProblem")
    if mode not in ("float", "exact"):
        raise InvalidInput("mode must be 'float' or 'exact'")
    if start is not None and mode == "exact":
        raise InvalidInput("a start basis needs mode 'float'")
    me = problem.eq_rows.shape[0]
    mu = problem.ub_rows.shape[0]
    m0 = me + mu
    n0 = problem.n_vars
    # Columns z >= 0: x = l + z where the lower bound l is 0, and a free x
    # is z+ - z- on two columns.  The slack columns follow.
    free = problem.lower == -np.inf
    paired = free.any()
    if paired:
        span = free + 1
        first = span.cumsum() - span    # each variable's first column
        var = np.arange(n0).repeat(span)
        neg = np.zeros(var.size, dtype=bool)    # the columns of z-
        neg[first[free] + 1] = True
        nv = var.size
    else:
        first = var = slice(n0)         # one column per variable
        neg = None
        nv = n0
    ncols = nv + mu
    N = ncols + m0
    if start is not None:
        start = _start_columns(start, m0, N)

    # The number type: float64 at tolerances.py's tolerances with narrow
    # phases (each ends in a rebuild), or Fractions at zero tolerance with
    # every column pivoted.
    data = (problem.objective, problem.eq_rows, problem.eq_rhs,
            problem.ub_rows, problem.ub_rhs, problem.lower)
    if mode == "exact":
        from fractions import Fraction

        guards.check("exact_vars", N)
        data = tuple(map(_fractionize, data))
        exact, scalar, width = True, Fraction, N
        tol = feas = gap = 0
        zero, one = Fraction(0), Fraction(1)
        T = np.full((m0 + 2, N + 1), zero, dtype=object)
    else:
        exact, scalar, width = False, float, ncols
        tol, feas, gap = PIVOT, LP_FEASIBILITY, LP_GAP
        zero, one = 0.0, 1.0
        T = np.zeros((m0 + 2, N + 1))
    c0, A_eq, b_eq, A_ub, b_ub, l0 = data

    if mu:
        A_all = np.concatenate((A_eq, A_ub))
        b_all = np.concatenate((b_eq, b_ub))
    else:   # b_all is the solve's own: a flip negates it in place
        A_all, b_all = A_eq, b_eq.copy()
    # Flip rows to b >= 0 so the artificial basis starts feasible; with no
    # negative right-hand side no row flips, and `flipped` is None.
    flipped = b_all < 0
    if flipped.any():
        _negate(b_all, flipped)
    else:
        flipped = None

    # The tableau [A | S | I | b] over the phase-two and phase-one cost
    # rows, built in place (the phase-one row only when phase one runs).
    # A flipped row flips its slack too, not its artificial.
    T[:m0, :nv] = A_all[:, var]
    _negate(T[:m0, :nv], neg)
    if mu:
        _fill_diagonal(T, me, nv, mu, one)
    if flipped is not None:
        _negate(T[:m0, :ncols], flipped[:, None])
    _fill_diagonal(T, 0, ncols, m0, one)
    T[:m0, N] = b_all
    T[m0, :nv] = c0[var]
    _negate(T[m0, :nv], neg)
    # [M | I | b]: the constraint columns, the artificial (identity) columns
    # and the right-hand side, shared by every float refactorization of
    # this solve; M and the phase-two costs (0 on the artificials) are
    # contiguous copies.
    aug = T[:m0].copy()
    M = T[:m0, :ncols].copy()
    cvec = T[m0, :N].copy()

    vstat = np.zeros(N, dtype=np.int64)
    max_iter = 1000 + 30 * (m0 + N)
    if start is not None and _warm_start(T, start, M, aug, cvec, m0, ncols,
                                         N, feas):
        # The start's basic values are feasible: phase one is skipped.
        basis = start
        vstat[basis] = BASIC
        moved = 0
    else:
        # The phase-one row is minus the sum of the rows, added one row at
        # a time (every pivot reads this row, so its rounding is kept): an
        # axis-0 reduction over whole rows adds them in order, where a sum
        # along one column may pair them.
        np.negative(np.add.reduce(T[:m0], axis=0, initial=zero)[:ncols],
                    out=T[m0 + 1, :ncols])
        basis = np.arange(ncols, N, dtype=np.int64)
        vstat[ncols:] = BASIC
        code = _run_phase(T, basis, vstat, m0, N, m0 + 1, ncols, width, tol,
                          max_iter, exact, M, aug, cvec)
        if code == PHASE_ITER_LIMIT:
            raise NumericalFailure(
                "simplex iteration limit exceeded in phase one")
        if code != PHASE_OPTIMAL:
            raise NumericalFailure("phase one terminated abnormally")

        nu = _fold(zero, T[:m0, N][basis >= ncols])
        if nu > feas * float(b_all.max(initial=1.0)):
            return _infeasible_outcome(T, flipped, m0, ncols, data, zero,
                                       one, feas, scalar)

        moved = drive_out_artificials(T, basis, vstat, m0, N, ncols, tol)

    if not moved and entering(T, vstat, m0, ncols, tol) == -1:
        # Nothing has pivoted since phase one (or the start's rebuild) and
        # phase two has no column to enter, so phase two would return at
        # once; in float mode its closing rebuild would recompute the
        # rebuilt tableau.
        code = PHASE_OPTIMAL
    else:
        code = _run_phase(T, basis, vstat, m0, N, m0, ncols, width, tol,
                          max_iter, exact, M, aug, cvec)
    if code == PHASE_ITER_LIMIT:
        raise NumericalFailure("simplex iteration limit exceeded in phase two")
    if code == PHASE_UNBOUNDED:
        return LpOutcome("unbounded", None, None, None, None, None)

    # x from the column values z, basic or 0: x = l + z (0.0 + (-0.0) is
    # +0.0, so the addition is kept), and z+ - z- for a free x.
    z = np.full(N, zero, dtype=T.dtype)
    z[basis] = T[:m0, N]
    x = l0 + z[first]
    if paired:
        pair = first[free]
        x[free] = z[pair] - z[pair + 1]
    return _optimal_outcome(T, x, basis, flipped, m0, ncols, N, data, zero,
                            feas, gap, scalar)


def _start_columns(start, m0, N):
    """start as a new int64 array, once it lists m0 distinct integer
    columns in [0, N); InvalidInput otherwise."""
    message = f"start must list {m0} distinct column indices in [0, {N})"
    try:
        s = np.asarray(start)
    except (ValueError, TypeError, OverflowError):   # ragged, or past int64
        raise InvalidInput(message) from None
    if s.dtype.kind not in "iu" or s.shape != (m0,):
        raise InvalidInput(message)
    cols = s.tolist()
    if len(set(cols)) != m0 or m0 and not (0 <= min(cols) and max(cols) < N):
        raise InvalidInput(message)
    return s.astype(np.int64)


def _basic_solution(aug, B):
    """B^-1 [M | I | b] for the basis matrix B, or None when B is
    numerically singular."""
    try:
        sol = np.linalg.solve(B, aug)
    except np.linalg.LinAlgError:
        return None
    return sol if np.isfinite(sol).all() else None


def _warm_start(T, start, M, aug, cvec, m0, ncols, N, feas):
    """Rebuild T on the basis `start` (every other column at 0) and return
    True when its basic values are nonnegative, and its artificials' 0, to
    `feas`; return False, T untouched, when the start is numerically
    singular or its basic values are not.  A start
    counts as singular when the condition estimate max|B| max|B^-1| (over
    the entries) passes 1 / PIVOT, where roundoff alone may have kept an
    exactly singular B invertible."""
    if m0 == 0:
        return True
    B = aug.take(start, axis=1)
    sol = _basic_solution(aug, B)
    if sol is None or PIVOT * np.abs(B).max() \
            * np.abs(sol[:, ncols:N]).max() > 1:
        return False
    xB = sol[:, N]
    if not ((xB >= -feas) & ((start < ncols) | (xB <= feas))).all():
        return False
    _install(T, sol, start, M, cvec, m0, ncols, N, False)
    return True


def _refactorize(T, basis, M, aug, cvec, m0, ncols, N, phase_one):
    """Rebuild the float tableau from the original data and current basis.

    Dense row updates accumulate roundoff over many pivots (badly so on
    nearly parallel constraint sets), and the certificates are read straight
    off the tableau, so before anything is extracted every row is recomputed
    against the original columns: basic values, the phase-two reduced-cost
    row, the phase-one row while phase one runs (`phase_one`), and the
    B^-1 image in the artificial slots.  `aug` is the solve's [M | I | b]
    buffer, B its basis columns: every nonbasic column sits at 0, so the
    basic values solve B xB = b.  Products with the constraint columns use
    the contiguous M, as they always have.  `cvec` holds the phase-two
    costs of all N columns (0 on the artificials).
    """
    if m0 == 0:
        return
    sol = _basic_solution(aug, aug.take(basis, axis=1))
    if sol is None:
        raise NumericalFailure("working basis is numerically singular")
    _install(T, sol, basis, M, cvec, m0, ncols, N, phase_one)


def _install(T, sol, basis, M, cvec, m0, ncols, N, phase_one):
    """Write the basis' solution sol = B^-1 [M | I | b] into T's rows and
    recompute the phase-two reduced-cost row from `cvec` and the constraint
    columns M, and with `phase_one` the phase-one row too.  Once phase one
    is over nothing reads that row (pricing reads row m0, the Farkas
    certificate is read as phase one ends), so a warm start and the
    phase-two rebuilds leave it stale."""
    T[:m0] = sol
    Binv = sol[:, ncols:N]
    xB = sol[:, N]
    cb2 = cvec[basis]
    y2 = cb2 @ Binv
    np.subtract(cvec[:ncols], y2 @ M, out=T[m0, :ncols])
    np.negative(y2, out=T[m0, ncols:N])
    T[m0, N] = -(cb2 @ xB)
    if not phase_one:
        return
    cb1 = (basis >= ncols).astype(np.float64)
    y1 = cb1 @ Binv
    np.negative(y1 @ M, out=T[m0 + 1, :ncols])
    np.subtract(1.0, y1, out=T[m0 + 1, ncols:N])
    T[m0 + 1, N] = -(cb1 @ xB)


def _run_phase(T, basis, vstat, m0, N, cost_row, ncols, width, tol,
               max_iter, exact, M, aug, cvec):
    """One simplex phase, refactorizing at optimum until it stays optimal.

    A phase that terminates on drifted rows may not be optimal for the true
    data; after the rebuild the pricing test is repeated and the phase rerun
    on the clean tableau.  Exact mode has no drift and runs the phase once.
    `width` goes to simplex_phase.
    """
    retried_unbounded = False
    for _ in range(6):
        code = simplex_phase(T, basis, vstat, m0, N, cost_row, ncols, tol,
                             max_iter, width=width)
        if exact:
            return code
        if code == PHASE_UNBOUNDED and not retried_unbounded:
            # An unbounded ray seen on drifted rows may close after rebuild.
            retried_unbounded = True
            _refactorize(T, basis, M, aug, cvec, m0, ncols, N,
                         cost_row > m0)
            continue
        if code != PHASE_OPTIMAL:
            return code
        _refactorize(T, basis, M, aug, cvec, m0, ncols, N, cost_row > m0)
        if entering(T, vstat, cost_row, ncols, tol) == -1:
            return code
    raise NumericalFailure("simplex failed to stabilize after refactorizations")


def _infeasible_outcome(T, flipped, m0, ncols, data, zero, one, feas,
                        scalar):
    _, A_eq, b_eq, A_ub, b_ub, l0 = data
    # Phase-one reduced cost of artificial i is 1 - y_i in the flipped rows.
    y = _negate(one - T[m0 + 1, ncols:ncols + m0], flipped)
    peak = np.abs(y).max(initial=0)
    if peak == 0:
        raise NumericalFailure("phase one reported infeasible without a certificate")
    y = y / peak
    y_eq, y_ub = y[:b_eq.size], y[b_eq.size:]
    positive = y_ub > 0
    if positive.any():
        if (y_ub > feas).any():
            raise NumericalFailure("Farkas multipliers on inequality rows must be nonpositive")
        y_ub[positive] = 0

    # A negative r_j is capped by x_j's lower bound; an active r_j that is
    # positive (no variable has an upper bound) or on a free x_j leaks.
    r = A_eq.T @ y_eq + A_ub.T @ y_ub
    active = np.abs(r) > feas
    up = r > 0
    leak = active & (up | (l0 == -np.inf))
    if leak.any():
        side = "upper" if up[leak.argmax()] else "lower"
        raise NumericalFailure(f"Farkas certificate leaks through an infinite {side} bound")
    cap = _fold(zero, r[active] * l0[active])
    viol = _fold(-cap, np.concatenate([y_eq * b_eq, y_ub * b_ub]))
    if viol <= 0:
        raise NumericalFailure("Farkas certificate does not separate")
    return LpOutcome("infeasible", None, None, y_eq, y_ub, None, scalar(viol))


def _optimal_outcome(T, x, basis, flipped, m0, ncols, N, data, zero, feas,
                     gap, scalar):
    c0, A_eq, b_eq, A_ub, b_ub, _ = data
    y = _negate(zero - T[m0, ncols:N], flipped)
    y_eq, y_ub = y[:b_eq.size], y[b_eq.size:]
    rc = c0 - A_eq.T @ y_eq
    if b_ub.size:   # else A_ub.T @ y_ub is +0.0, and rc - 0.0 is rc
        rc = rc - A_ub.T @ y_ub
    x = _verify(x, _fold(zero, c0 * x), y_eq, y_ub, rc, data, feas, gap)
    basis.flags.writeable = False
    return LpOutcome("optimal", x, scalar(c0 @ x), y_eq, y_ub, rc,
                     basis=basis)


def _verify(x, value, y_eq, y_ub, rc, data, feas, gap):
    """Check an optimal answer against the original data: the rows and
    lower bounds within `feas` relative to their size, the multiplier
    signs, and strong duality within `gap`.  Returns x snapped onto its
    lower bounds and clears roundoff-positive inequality multipliers in
    place.  Exact mode runs the same checks on Fractions at zero
    tolerance."""
    _, A_eq, b_eq, A_ub, b_ub, l0 = data
    # A row may miss by `feas` times its size, which is at least 1; the
    # size is computed only for a row that misses by more than `feas`, and
    # at zero tolerance not at all.
    if b_eq.size:
        miss = np.abs(A_eq @ x - b_eq)
        if not (miss <= feas).all():
            slack = feas and feas * (1 + np.abs(b_eq) + np.abs(A_eq) @ np.abs(x))
            if (miss > slack).any():
                raise NumericalFailure("optimal point violates an equality row")
    if b_ub.size:
        miss = A_ub @ x - b_ub
        if not (miss <= feas).all():
            slack = feas and feas * (1 + np.abs(b_ub) + np.abs(A_ub) @ np.abs(x))
            if (miss > slack).any():
                raise NumericalFailure("optimal point violates an inequality row")
    # Snap roundoff onto the lower bounds so downstream weights are clean.
    # Only a coordinate the snap moves can be off its bound by more than
    # `feas`.
    box = x.clip(l0, np.inf)
    moved = (box != x).nonzero()[0]
    if moved.size:
        bound = box[moved]
        if (x[moved] < bound - feas * (1 + np.abs(bound))).any():
            raise NumericalFailure("optimal point violates a lower bound")
    x = box

    # A positive multiplier past `feas` fails; roundoff below it is cleared.
    if y_ub.size:
        positive = y_ub > 0
        if positive.any():
            if (y_ub > feas).any():
                raise NumericalFailure("inequality multipliers must be nonpositive at optimum")
            y_ub[positive] = 0

    # A positive reduced cost prices x_j at its lower bound; an active
    # reduced cost that is negative (no variable has an upper bound) or on
    # a free x_j is unpriced.
    size = np.abs(rc)
    active = size > feas * (1 + size.max())
    dual_obj = y_eq @ b_eq + y_ub @ b_ub
    if active.any():
        up = rc > 0
        unpriced = active & ~(up & (l0 != -np.inf))
        if unpriced.any():
            if up[unpriced.argmax()]:
                raise NumericalFailure("reduced cost positive on a variable without lower bound")
            raise NumericalFailure("reduced cost negative on a variable without upper bound")
        dual_obj = _fold(dual_obj, rc[active] * l0[active])
    if abs(value - dual_obj) > gap * (1 + abs(value)):
        raise NumericalFailure("strong duality gap exceeds tolerance")
    return x
