"""Deterministic linear programming with checked certificates.

Bounded-variable two-phase simplex on a dense tableau with Bland's entering
rule and lowest-index tie-breaking, so a given problem always walks the same
pivot path and the returned arrays are bit-identical across runs.  Nothing is
returned unchecked: an optimal answer must pass primal feasibility, dual sign
conditions and strong duality, an infeasible verdict must carry a Farkas
certificate whose separation margin is verified against the original data.
A failed check raises NumericalFailure rather than returning a wrong answer.

`mode="exact"` reruns the identical pivot source on object arrays of
`fractions.Fraction` with zero tolerances in place of tolerances.py's.  It
is slow and guarded (see guards.py) but removes floating-point doubt on
small instances; float inputs convert exactly, so both modes see one problem.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import guards
from .errors import InvalidInput, MalformedProblem, NumericalFailure
from .kernels import (
    AT_UPPER,
    BASIC,
    PHASE_ITER_LIMIT,
    PHASE_OPTIMAL,
    PHASE_UNBOUNDED,
    drive_out_artificials,
    entering,
    simplex_phase,
)
from .tolerances import LP_FEASIBILITY, LP_GAP, PIVOT


def _as_matrix(name, rows, rhs, n):
    if rows is None and rhs is None:
        return np.zeros((0, n)), np.zeros(0)
    if rows is None or rhs is None:
        raise MalformedProblem(f"{name}_rows and {name}_rhs must be given together")
    A = np.asarray(rows, dtype=np.float64)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    b = np.asarray(rhs, dtype=np.float64).reshape(-1)
    if A.ndim != 2 or A.shape[1] != n:
        raise MalformedProblem(f"{name}_rows must have {n} columns")
    if A.shape[0] != b.shape[0]:
        raise MalformedProblem(f"{name}_rhs length does not match {name}_rows")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise MalformedProblem(f"{name} constraint data must be finite")
    return A, b


@dataclass
class LpProblem:
    """min objective . x  s.t.  eq_rows x = eq_rhs, ub_rows x <= ub_rhs,
    lower <= x <= upper componentwise (infinite bounds allowed)."""

    objective: np.ndarray
    eq_rows: Optional[np.ndarray] = None
    eq_rhs: Optional[np.ndarray] = None
    ub_rows: Optional[np.ndarray] = None
    ub_rhs: Optional[np.ndarray] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=np.float64).reshape(-1)
        if c.size < 1:
            raise MalformedProblem("objective must have at least one entry")
        if not np.all(np.isfinite(c)):
            raise MalformedProblem("objective must be finite")
        n = c.size
        A_eq, b_eq = _as_matrix("eq", self.eq_rows, self.eq_rhs, n)
        A_ub, b_ub = _as_matrix("ub", self.ub_rows, self.ub_rhs, n)
        l = (np.zeros(n) if self.lower is None
             else np.asarray(self.lower, dtype=np.float64).reshape(-1))
        u = (np.full(n, np.inf) if self.upper is None
             else np.asarray(self.upper, dtype=np.float64).reshape(-1))
        if l.shape[0] != n or u.shape[0] != n:
            raise MalformedProblem("bound vectors must match the objective length")
        if np.any(np.isnan(l)) or np.any(np.isnan(u)):
            raise MalformedProblem("bounds must not contain NaN")
        if np.any(l == np.inf) or np.any(u == -np.inf):
            raise MalformedProblem("bounds describe an empty interval")
        bad = l > u
        if np.any(bad):
            j = int(np.argmax(bad))
            raise MalformedProblem(f"lower bound exceeds upper bound at index {j}")
        self.objective = c
        self.eq_rows, self.eq_rhs = A_eq, b_eq
        self.ub_rows, self.ub_rhs = A_ub, b_ub
        self.lower, self.upper = l, u

    @property
    def n_vars(self):
        return self.objective.size


@dataclass
class LpOutcome:
    """Result of `solve`.  For status "infeasible" the dual vectors hold the
    Farkas certificate and `farkas_margin` its verified separation; for
    status "unbounded" everything but the status is None."""

    status: str
    x: Optional[np.ndarray]
    value: Optional[float]
    dual_eq: Optional[np.ndarray]
    dual_ub: Optional[np.ndarray]
    reduced_costs: Optional[np.ndarray]
    farkas_margin: Optional[float] = None


def _fractionize(a):
    """Exact object-array copy of a float array; infinities stay floats."""
    out = np.empty(a.shape, dtype=object)
    src = a.reshape(-1)
    dst = out.reshape(-1)
    for i in range(src.size):
        v = float(src[i])
        dst[i] = v if math.isinf(v) else Fraction(v)
    return out


def feasibility(problem):
    """Solve a zero-objective problem; only status and certificates matter."""
    if isinstance(problem, LpProblem) and np.any(problem.objective):
        raise MalformedProblem("a feasibility problem has a zero objective")
    return solve(problem)


def solve(problem, mode="float"):
    """Solve an LpProblem and return a verified LpOutcome."""
    if not isinstance(problem, LpProblem):
        raise InvalidInput("problem must be an LpProblem")
    if mode not in ("float", "exact"):
        raise InvalidInput("mode must be 'float' or 'exact'")
    exact = mode == "exact"
    me = problem.eq_rows.shape[0]
    mu = problem.ub_rows.shape[0]
    m0 = me + mu
    n0 = problem.n_vars

    if exact:
        c0 = _fractionize(problem.objective)
        A_eq = _fractionize(problem.eq_rows)
        b_eq = _fractionize(problem.eq_rhs)
        A_ub = _fractionize(problem.ub_rows)
        b_ub = _fractionize(problem.ub_rhs)
        l0 = _fractionize(problem.lower)
        u0 = _fractionize(problem.upper)
        zero = Fraction(0)
    else:
        c0 = problem.objective
        A_eq, b_eq = problem.eq_rows, problem.eq_rhs
        A_ub, b_ub = problem.ub_rows, problem.ub_rhs
        l0, u0 = problem.lower, problem.upper
        zero = 0.0

    if m0 > 0:
        A_all = np.concatenate([A_eq, A_ub], axis=0)
        b_all = np.concatenate([b_eq, b_ub]).copy()
    else:
        A_all = np.zeros((0, n0), dtype=object if exact else np.float64)
        b_all = np.zeros(0, dtype=object if exact else np.float64)
        if exact:
            A_all[...] = zero

    # Column transforms onto z >= 0 with optional finite upper bound.
    cols = []
    cvec = []
    uppers = []
    kinds = []
    for j in range(n0):
        lj, uj = l0[j], u0[j]
        a = A_all[:, j]
        if lj != -np.inf:
            if lj != 0:
                b_all = b_all - a * lj
            cols.append(a.copy())
            cvec.append(c0[j])
            uppers.append(np.inf if uj == np.inf else uj - lj)
            kinds.append(("shift", lj))
        elif uj != np.inf:
            b_all = b_all - a * uj
            cols.append(-a)
            cvec.append(-c0[j])
            uppers.append(np.inf)
            kinds.append(("flip", uj))
        else:
            cols.append(a.copy())
            cvec.append(c0[j])
            uppers.append(np.inf)
            cols.append(-a)
            cvec.append(-c0[j])
            uppers.append(np.inf)
            kinds.append(("split",))
    for i in range(mu):
        s_col = np.full(m0, zero, dtype=object) if exact else np.zeros(m0)
        s_col[me + i] = zero + 1
        cols.append(s_col)
        cvec.append(zero)
        uppers.append(np.inf)
    ncols = len(cols)
    N = ncols + m0
    if exact:
        guards.check("exact_vars", N)

    dtype = object if exact else np.float64
    M = np.empty((m0, ncols), dtype=dtype)
    for k, col in enumerate(cols):
        M[:, k] = col

    # Flip rows to b >= 0 so the artificial basis starts feasible.
    sgn = np.ones(m0, dtype=np.int64)
    for i in range(m0):
        if b_all[i] < 0:
            sgn[i] = -1
            M[i, :] = -M[i, :]
            b_all[i] = -b_all[i]

    T = np.full((m0 + 2, N + 1), zero, dtype=dtype)
    T[:m0, :ncols] = M
    for i in range(m0):
        T[i, ncols + i] = zero + 1
        T[i, N] = b_all[i]
    T[m0, :ncols] = cvec
    acc = np.full(ncols, zero, dtype=dtype)
    for i in range(m0):
        acc = acc + T[i, :ncols]
    T[m0 + 1, :ncols] = -acc

    basis = np.arange(ncols, ncols + m0, dtype=np.int64)
    vstat = np.zeros(N, dtype=np.int64)
    vstat[basis] = BASIC
    if exact:
        upper = np.empty(N, dtype=object)
        for j in range(ncols):
            upper[j] = uppers[j]
        for j in range(ncols, N):
            upper[j] = np.inf
    else:
        upper = np.concatenate([np.asarray(uppers, dtype=np.float64),
                                np.full(m0, np.inf)])

    tol = 0 if exact else PIVOT
    max_iter = 1000 + 30 * (m0 + N)
    if exact:
        aug = cvec_arr = None
    else:
        # [M | I | b]: the constraint columns, the artificial (identity)
        # columns and a spare column for the right-hand side, shared by every
        # refactorization of this solve.
        aug = np.concatenate([M, np.eye(m0), b_all[:, None]], axis=1)
        cvec_arr = np.asarray(cvec, dtype=np.float64)

    code = _run_phase(T, basis, vstat, upper, m0, N, m0 + 1, ncols, N,
                      tol, max_iter, exact, M, aug, b_all, cvec_arr)
    if code == PHASE_ITER_LIMIT:
        raise NumericalFailure("simplex iteration limit exceeded in phase one")
    if code != PHASE_OPTIMAL:
        raise NumericalFailure("phase one terminated abnormally")

    nu = zero
    for i in range(m0):
        if basis[i] >= ncols:
            nu = nu + T[i, N]
    b_scale = 1.0
    for i in range(m0):
        b_scale = max(b_scale, abs(float(b_all[i])))
    infeasible = nu > 0 if exact else nu > LP_FEASIBILITY * b_scale
    if infeasible:
        return _infeasible_outcome(
            T, sgn, me, mu, m0, N, ncols,
            A_eq, b_eq, A_ub, b_ub, l0, u0, exact)

    phase_one_basis = basis.copy()
    drive_out_artificials(T, basis, vstat, upper, m0, N, ncols, tol)
    for j in range(ncols, N):
        upper[j] = zero

    if not exact and np.array_equal(basis, phase_one_basis) \
            and entering(T, vstat, upper, m0, ncols, tol)[0] == -1:
        # Phase one ended in a rebuild, nothing has pivoted since and phase
        # two has no column to enter: its closing rebuild would recompute
        # the same tableau from the same basis, so it is skipped.
        code = PHASE_OPTIMAL
    else:
        # Float phase two ends in a rebuild of the whole tableau, and its
        # pivots read no artificial column, so they skip that block.
        code = _run_phase(T, basis, vstat, upper, m0, N, m0, ncols,
                          N if exact else ncols,
                          tol, max_iter, exact, M, aug, b_all, cvec_arr)
    if code == PHASE_ITER_LIMIT:
        raise NumericalFailure("simplex iteration limit exceeded in phase two")
    if code == PHASE_UNBOUNDED:
        return LpOutcome("unbounded", None, None, None, None, None)

    return _optimal_outcome(
        T, basis, vstat, upper, sgn, kinds, me, mu, m0, N, ncols,
        c0, A_eq, b_eq, A_ub, b_ub, l0, u0, exact)


def _refactorize(T, basis, vstat, upper, M, aug, b_flip, cvec, m0, ncols, N):
    """Rebuild the float tableau from the original data and current basis.

    Dense row updates accumulate roundoff over many pivots (badly so on
    nearly parallel constraint sets), and the certificates are read straight
    off the tableau, so before anything is extracted every row is recomputed
    against the original columns: basic values, both reduced-cost rows, and
    the B^-1 image in the artificial slots.  `aug` is the solve's [M | I | b]
    buffer: B is its basis columns, and its last column is overwritten with
    b less the columns held at a finite nonzero upper bound.  Products with
    the constraint columns use the contiguous M, as they always have.
    """
    if m0 == 0:
        return
    B = aug[:, basis]
    rhs = aug[:, N]
    rhs[:] = b_flip
    for j in np.flatnonzero(vstat[:ncols] == AT_UPPER).tolist():
        if 0 < upper[j] < np.inf:
            rhs -= M[:, j] * upper[j]
    try:
        sol = np.linalg.solve(B, aug)
    except np.linalg.LinAlgError:
        raise NumericalFailure("working basis is numerically singular")
    if not np.all(np.isfinite(sol)):
        raise NumericalFailure("working basis is numerically singular")
    T[:m0, :N] = sol[:, :N]
    T[:m0, N] = sol[:, N]
    Binv = sol[:, ncols:N]
    xB = sol[:, N]
    jb = np.asarray(basis, dtype=np.int64)
    cb2 = np.where(jb < ncols, cvec[np.minimum(jb, ncols - 1)], 0.0)
    y2 = cb2 @ Binv
    T[m0, :ncols] = cvec - y2 @ M
    T[m0, ncols:N] = -y2
    T[m0, N] = -float(cb2 @ xB)
    cb1 = (jb >= ncols).astype(np.float64)
    y1 = cb1 @ Binv
    T[m0 + 1, :ncols] = -(y1 @ M)
    T[m0 + 1, ncols:N] = 1.0 - y1
    T[m0 + 1, N] = -float(cb1 @ xB)


def _run_phase(T, basis, vstat, upper, m0, N, cost_row, ncols, width,
               tol, max_iter, exact, M, aug, b_flip, cvec):
    """One simplex phase, refactorizing at optimum until it stays optimal.

    A phase that terminates on drifted rows may not be optimal for the true
    data; after the rebuild the pricing test is repeated and the phase rerun
    on the clean tableau.  Exact mode has no drift and runs the phase once.
    `width` goes to simplex_phase.
    """
    retried_unbounded = False
    for _ in range(6):
        code = simplex_phase(T, basis, vstat, upper, m0, N, cost_row, ncols,
                             tol, max_iter, width=width)
        if exact:
            return code
        if code == PHASE_UNBOUNDED and not retried_unbounded:
            # An unbounded ray seen on drifted rows may close after rebuild.
            retried_unbounded = True
            _refactorize(T, basis, vstat, upper, M, aug, b_flip, cvec,
                         m0, ncols, N)
            continue
        if code != PHASE_OPTIMAL:
            return code
        _refactorize(T, basis, vstat, upper, M, aug, b_flip, cvec,
                     m0, ncols, N)
        if entering(T, vstat, upper, cost_row, ncols, tol)[0] == -1:
            return code
    raise NumericalFailure("simplex failed to stabilize after refactorizations")


def _infeasible_outcome(T, sgn, me, mu, m0, N, ncols,
                        A_eq, b_eq, A_ub, b_ub, l0, u0, exact):
    # Phase-one reduced cost of artificial i is 1 - y_i in the flipped rows.
    y = np.empty(m0, dtype=object if exact else np.float64)
    for i in range(m0):
        y[i] = int(sgn[i]) * ((1 if exact else 1.0) - T[m0 + 1, ncols + i])
    peak = max((abs(v) for v in y), default=0)
    if peak == 0:
        raise NumericalFailure("phase one reported infeasible without a certificate")
    for i in range(m0):
        y[i] = y[i] / peak
    y_eq, y_ub = y[:me], y[me:]

    ztol = 0 if exact else LP_FEASIBILITY
    for i in range(mu):
        if y_ub[i] > ztol:
            raise NumericalFailure("Farkas multipliers on inequality rows must be nonpositive")
        if not exact and y_ub[i] > 0:
            y_ub[i] = 0.0

    r = np.zeros(A_eq.shape[1], dtype=object if exact else np.float64)
    if exact:
        r[...] = Fraction(0)
    if me:
        r = r + A_eq.T @ y_eq
    if mu:
        r = r + A_ub.T @ y_ub
    cap = Fraction(0) if exact else 0.0
    for j in range(r.size):
        rj = r[j]
        if abs(rj) <= ztol:
            continue
        if rj > 0:
            if u0[j] == np.inf:
                raise NumericalFailure("Farkas certificate leaks through an infinite upper bound")
            cap = cap + rj * u0[j]
        else:
            if l0[j] == -np.inf:
                raise NumericalFailure("Farkas certificate leaks through an infinite lower bound")
            cap = cap + rj * l0[j]
    viol = -cap
    for i in range(me):
        viol = viol + y_eq[i] * b_eq[i]
    for i in range(mu):
        viol = viol + y_ub[i] * b_ub[i]
    if viol <= 0:
        raise NumericalFailure("Farkas certificate does not separate")
    if exact:
        return LpOutcome("infeasible", None, None, y_eq, y_ub, None, viol)
    return LpOutcome("infeasible", None, None, y_eq, y_ub, None, float(viol))


def _optimal_outcome(T, basis, vstat, upper, sgn, kinds, me, mu, m0, N, ncols,
                     c0, A_eq, b_eq, A_ub, b_ub, l0, u0, exact):
    zero = Fraction(0) if exact else 0.0
    z = np.full(N, zero, dtype=object if exact else np.float64)
    for j in range(ncols):
        if vstat[j] == AT_UPPER:
            z[j] = upper[j]
    for i in range(m0):
        z[basis[i]] = T[i, N]

    n0 = c0.size
    x = np.empty(n0, dtype=object if exact else np.float64)
    k = 0
    for j, kind in enumerate(kinds):
        if kind[0] == "shift":
            x[j] = kind[1] + z[k]
            k += 1
        elif kind[0] == "flip":
            x[j] = kind[1] - z[k]
            k += 1
        else:
            x[j] = z[k] - z[k + 1]
            k += 2

    y = np.empty(m0, dtype=object if exact else np.float64)
    for i in range(m0):
        y[i] = int(sgn[i]) * (zero - T[m0, ncols + i])
    y_eq, y_ub = y[:me], y[me:]

    rc = c0.copy()
    if me:
        rc = rc - A_eq.T @ y_eq
    if mu:
        rc = rc - A_ub.T @ y_ub

    value = zero
    for j in range(n0):
        value = value + c0[j] * x[j]

    if exact:
        _verify_exact(x, value, y_eq, y_ub, rc,
                      A_eq, b_eq, A_ub, b_ub, l0, u0)
    else:
        x = _verify_float(x, value, y_eq, y_ub, rc,
                          A_eq, b_eq, A_ub, b_ub, l0, u0)
        value = float(c0 @ x)
    return LpOutcome("optimal", x, value, y_eq, y_ub, rc)


def _verify_float(x, value, y_eq, y_ub, rc, A_eq, b_eq, A_ub, b_ub, l0, u0):
    n0 = x.size
    for i in range(A_eq.shape[0]):
        ref = 1.0 + abs(b_eq[i]) + float(np.abs(A_eq[i]) @ np.abs(x))
        if abs(float(A_eq[i] @ x) - b_eq[i]) > LP_FEASIBILITY * ref:
            raise NumericalFailure("optimal point violates an equality row")
    for i in range(A_ub.shape[0]):
        ref = 1.0 + abs(b_ub[i]) + float(np.abs(A_ub[i]) @ np.abs(x))
        if float(A_ub[i] @ x) - b_ub[i] > LP_FEASIBILITY * ref:
            raise NumericalFailure("optimal point violates an inequality row")
    for j in range(n0):
        if l0[j] != -np.inf and x[j] < l0[j] - LP_FEASIBILITY * (1.0 + abs(l0[j])):
            raise NumericalFailure("optimal point violates a lower bound")
        if u0[j] != np.inf and x[j] > u0[j] + LP_FEASIBILITY * (1.0 + abs(u0[j])):
            raise NumericalFailure("optimal point violates an upper bound")
    # Snap roundoff onto the box so downstream weights are clean.
    x = np.clip(x, l0, u0)

    for i in range(y_ub.size):
        if y_ub[i] > LP_FEASIBILITY:
            raise NumericalFailure("inequality multipliers must be nonpositive at optimum")
        if y_ub[i] > 0:
            y_ub[i] = 0.0

    c_scale = 1.0 + float(np.max(np.abs(rc))) if rc.size else 1.0
    ztol = LP_FEASIBILITY * c_scale
    dual_obj = float(y_eq @ b_eq) + float(y_ub @ b_ub)
    for j in range(n0):
        r = rc[j]
        if abs(r) <= ztol:
            continue
        if r > 0:
            if l0[j] == -np.inf:
                raise NumericalFailure("reduced cost positive on a variable without lower bound")
            dual_obj += r * l0[j]
        else:
            if u0[j] == np.inf:
                raise NumericalFailure("reduced cost negative on a variable without upper bound")
            dual_obj += r * u0[j]
    if abs(value - dual_obj) > LP_GAP * (1.0 + abs(value)):
        raise NumericalFailure("strong duality gap exceeds tolerance")
    return x


def _verify_exact(x, value, y_eq, y_ub, rc, A_eq, b_eq, A_ub, b_ub, l0, u0):
    for i in range(A_eq.shape[0]):
        if sum(A_eq[i, j] * x[j] for j in range(x.size)) != b_eq[i]:
            raise NumericalFailure("exact mode: equality residual is nonzero")
    for i in range(A_ub.shape[0]):
        if sum(A_ub[i, j] * x[j] for j in range(x.size)) > b_ub[i]:
            raise NumericalFailure("exact mode: inequality row violated")
    for j in range(x.size):
        if x[j] < l0[j] or x[j] > u0[j]:
            raise NumericalFailure("exact mode: bound violated")
    for i in range(y_ub.size):
        if y_ub[i] > 0:
            raise NumericalFailure("exact mode: inequality multiplier positive")
    dual_obj = Fraction(0)
    for i in range(b_eq.size):
        dual_obj += y_eq[i] * b_eq[i]
    for i in range(b_ub.size):
        dual_obj += y_ub[i] * b_ub[i]
    for j in range(x.size):
        r = rc[j]
        if r == 0:
            continue
        if r > 0:
            if l0[j] == -np.inf:
                raise NumericalFailure("exact mode: dual infeasible at a free lower bound")
            dual_obj += r * l0[j]
        else:
            if u0[j] == np.inf:
                raise NumericalFailure("exact mode: dual infeasible at a free upper bound")
            dual_obj += r * u0[j]
    if dual_obj != value:
        raise NumericalFailure("exact mode: duality gap is nonzero")
