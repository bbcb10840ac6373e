"""lp.solve against its earlier per-call code, compared byte for byte.

The reference functions below are the set-up, checks and validation that
`lp.solve` and `LpProblem` ran before they were cut to fewer numpy calls:
`LpProblem` validation as one check after another, the set-up that built
the constraint block, the costs and the tableau one after another and
summed the phase-one row one row at a time, the x extraction, the
refactorization with its masked cost lookup, and the outcome checks with
the size-relative slack of every row computed up front.  They drive the
same kernels (`simplex_phase`, `entering`, `drive_out_artificials`).  The
solver must reproduce them: the same tableau handed to phase one, the same
outcome bytes or exception in both modes, the same accept/reject set and
snapped answer from `_verify`, and the same arrays or message from
`LpProblem`.
"""

import collections
import functools
import operator
from fractions import Fraction

import lp_cases
import numpy as np
import pytest

from gptsteer import guards, lp
from gptsteer.errors import GuardExceeded, MalformedProblem, NumericalFailure
from gptsteer.kernels import (BASIC, PHASE_ITER_LIMIT, PHASE_OPTIMAL,
                              PHASE_UNBOUNDED, drive_out_artificials,
                              entering, simplex_phase)
from gptsteer.lp import LpOutcome, LpProblem
from gptsteer.tolerances import LP_FEASIBILITY, LP_GAP, PIVOT

# ---------------------------------------------------------------------------
# reference validation


def ref_floats(field, value):
    try:
        leaves = np.asarray(value, dtype=object).ravel()
        if any(isinstance(v, (str, bytes, bool, np.bool_, complex,
                              np.complexfloating)) for v in leaves):
            raise TypeError("text, bools and complex numbers are not real")
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedProblem(f"{field} must be numeric") from exc


def ref_as_matrix(name, rows, rhs, n):
    if rows is None and rhs is None:
        return np.zeros((0, n)), np.zeros(0)
    if rows is None or rhs is None:
        raise MalformedProblem(f"{name}_rows and {name}_rhs must be given together")
    A = ref_floats(f"{name}_rows", rows)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    b = ref_floats(f"{name}_rhs", rhs).reshape(-1)
    if A.ndim != 2 or A.shape[1] != n:
        raise MalformedProblem(f"{name}_rows must have {n} columns")
    if A.shape[0] != b.shape[0]:
        raise MalformedProblem(f"{name}_rhs length does not match {name}_rows")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise MalformedProblem(f"{name} constraint data must be finite")
    return A, b


def ref_validate(objective, eq_rows=None, eq_rhs=None, ub_rows=None,
                 ub_rhs=None, lower=None):
    """The arrays an LpProblem stores, each check in turn."""
    c = ref_floats("objective", objective).reshape(-1)
    if c.size < 1:
        raise MalformedProblem("objective must have at least one entry")
    if not np.all(np.isfinite(c)):
        raise MalformedProblem("objective must be finite")
    n = c.size
    A_eq, b_eq = ref_as_matrix("eq", eq_rows, eq_rhs, n)
    A_ub, b_ub = ref_as_matrix("ub", ub_rows, ub_rhs, n)
    l = (np.zeros(n) if lower is None
         else ref_floats("lower", lower).reshape(-1))
    if l.shape[0] != n:
        raise MalformedProblem("bound vectors must match the objective length")
    for j, v in enumerate(l.tolist()):
        if not (v == 0 or v == -np.inf):
            raise MalformedProblem(f"lower bound at index {j} must be 0 or -inf")
    return c, A_eq, b_eq, A_ub, b_ub, l


# ---------------------------------------------------------------------------
# reference set-up, phases, extraction and checks


def _negate(a, where):
    return np.negative(a, out=a, where=where)


def _fold(start, terms):
    return functools.reduce(operator.add, terms.tolist(), start)


def ref_setup(problem, mode="float"):
    """Everything the first phase is handed, and what extraction needs."""
    me = problem.eq_rows.shape[0]
    mu = problem.ub_rows.shape[0]
    m0 = me + mu
    n0 = problem.n_vars
    free = problem.lower == -np.inf
    span = 1 + free
    first = np.cumsum(span) - span
    var = np.repeat(np.arange(n0), span)
    neg = np.zeros(var.size, dtype=bool)
    neg[first[free] + 1] = True
    ncols = var.size + mu
    N = ncols + m0

    exact = mode == "exact"
    if exact:
        guards.check("exact_vars", N)
        convert, scalar, width = lp._fractionize, Fraction, N
        tol = feas = gap = 0
    else:
        convert, scalar, width = np.asarray, float, ncols
        tol, feas, gap = PIVOT, LP_FEASIBILITY, LP_GAP
    data = tuple(map(convert, (
        problem.objective, problem.eq_rows, problem.eq_rhs, problem.ub_rows,
        problem.ub_rhs, problem.lower)))
    c0, A_eq, b_eq, A_ub, b_ub, _ = data
    zero, one = scalar(0), scalar(1)
    dtype = c0.dtype

    A_all = np.concatenate([A_eq, A_ub])
    b_all = np.concatenate([b_eq, b_ub])

    M = np.full((m0, ncols), zero, dtype=dtype)
    M[:, :var.size] = _negate(A_all[:, var], neg)
    np.fill_diagonal(M[me:, var.size:], one)
    cvec = np.full(ncols, zero, dtype=dtype)
    cvec[:var.size] = _negate(c0[var], neg)

    flipped = b_all < 0
    _negate(M, flipped[:, None])
    _negate(b_all, flipped)

    T = np.full((m0 + 2, N + 1), zero, dtype=dtype)
    T[:m0, :ncols] = M
    np.fill_diagonal(T[:m0, ncols:N], one)
    T[:m0, N] = b_all
    T[m0, :ncols] = cvec
    acc = np.full(ncols, zero, dtype=dtype)
    for i in range(m0):
        acc = acc + T[i, :ncols]
    T[m0 + 1, :ncols] = -acc

    basis = np.arange(ncols, N, dtype=np.int64)
    vstat = np.zeros(N, dtype=np.int64)
    vstat[basis] = BASIC
    max_iter = 1000 + 30 * (m0 + N)
    aug = T[:m0].copy()
    return dict(T=T, basis=basis, vstat=vstat, m0=m0, N=N, ncols=ncols,
                width=width, tol=tol, max_iter=max_iter, exact=exact, M=M,
                aug=aug, b_flip=b_all, cvec=cvec, first=first, free=free,
                flipped=flipped, data=data, zero=zero, one=one, feas=feas,
                gap=gap, scalar=scalar, dtype=dtype)


def ref_refactorize(T, basis, M, aug, b_flip, cvec, m0, ncols, N):
    if m0 == 0:
        return
    B = aug[:, basis]
    aug[:, N] = b_flip
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


def ref_run_phase(T, basis, vstat, m0, N, cost_row, ncols, width, tol,
                  max_iter, exact, M, aug, b_flip, cvec):
    retried_unbounded = False
    for _ in range(6):
        code = simplex_phase(T, basis, vstat, m0, N, cost_row, ncols, tol,
                             max_iter, width=width)
        if exact:
            return code
        if code == PHASE_UNBOUNDED and not retried_unbounded:
            retried_unbounded = True
            ref_refactorize(T, basis, M, aug, b_flip, cvec, m0, ncols, N)
            continue
        if code != PHASE_OPTIMAL:
            return code
        ref_refactorize(T, basis, M, aug, b_flip, cvec, m0, ncols, N)
        if entering(T, vstat, cost_row, ncols, tol) == -1:
            return code
    raise NumericalFailure("simplex failed to stabilize after refactorizations")


def ref_infeasible_outcome(T, flipped, m0, ncols, data, zero, one, feas,
                           scalar):
    _, A_eq, b_eq, A_ub, b_ub, l0 = data
    y = _negate(one - T[m0 + 1, ncols:ncols + m0], flipped)
    peak = np.abs(y).max(initial=0)
    if peak == 0:
        raise NumericalFailure("phase one reported infeasible without a certificate")
    y = y / peak
    y_eq, y_ub = y[:b_eq.size], y[b_eq.size:]
    if (y_ub > feas).any():
        raise NumericalFailure("Farkas multipliers on inequality rows must be nonpositive")
    y_ub[y_ub > 0] = 0
    r = A_eq.T @ y_eq + A_ub.T @ y_ub
    active = np.abs(r) > feas
    up = active & (r > 0)
    leak = up | (active & (l0 == -np.inf))
    if leak.any():
        side = "upper" if up[np.argmax(leak)] else "lower"
        raise NumericalFailure(f"Farkas certificate leaks through an infinite {side} bound")
    cap = _fold(zero, r[active] * l0[active])
    viol = _fold(-cap, np.concatenate([y_eq * b_eq, y_ub * b_ub]))
    if viol <= 0:
        raise NumericalFailure("Farkas certificate does not separate")
    return LpOutcome("infeasible", None, None, y_eq, y_ub, None, scalar(viol))


def ref_verify(x, value, y_eq, y_ub, rc, data, feas, gap):
    _, A_eq, b_eq, A_ub, b_ub, l0 = data
    ax = np.abs(x)
    if b_eq.size:
        slack = feas and feas * (1 + np.abs(b_eq) + np.abs(A_eq) @ ax)
        if (np.abs(A_eq @ x - b_eq) > slack).any():
            raise NumericalFailure("optimal point violates an equality row")
    if b_ub.size:
        slack = feas and feas * (1 + np.abs(b_ub) + np.abs(A_ub) @ ax)
        if (A_ub @ x - b_ub > slack).any():
            raise NumericalFailure("optimal point violates an inequality row")
    box = np.clip(x, l0, np.inf)
    moved = (box != x).nonzero()[0]
    if moved.size:
        xm, bound = x[moved], box[moved]
        if (xm < bound - feas * (1 + np.abs(bound))).any():
            raise NumericalFailure("optimal point violates a lower bound")
    x = box
    if (y_ub > feas).any():
        raise NumericalFailure("inequality multipliers must be nonpositive at optimum")
    y_ub[y_ub > 0] = 0
    size = np.abs(rc)
    active = size > feas * (1 + size.max())
    up = active & (rc > 0)
    unpriced = (up & (l0 == -np.inf)) | (active & ~up)
    if unpriced.any():
        if up[np.argmax(unpriced)]:
            raise NumericalFailure("reduced cost positive on a variable without lower bound")
        raise NumericalFailure("reduced cost negative on a variable without upper bound")
    dual_obj = _fold(y_eq @ b_eq + y_ub @ b_ub, rc[active] * l0[active])
    if abs(value - dual_obj) > gap * (1 + abs(value)):
        raise NumericalFailure("strong duality gap exceeds tolerance")
    return x


def ref_solve(problem, mode="float"):
    s = ref_setup(problem, mode)
    T, basis, vstat = s["T"], s["basis"], s["vstat"]
    m0, N, ncols, zero = s["m0"], s["N"], s["ncols"], s["zero"]
    phase = (T, basis, vstat, m0, N)
    rest = (ncols, s["width"], s["tol"], s["max_iter"], s["exact"], s["M"],
            s["aug"], s["b_flip"], s["cvec"])
    code = ref_run_phase(*phase, m0 + 1, *rest)
    if code == PHASE_ITER_LIMIT:
        raise NumericalFailure("simplex iteration limit exceeded in phase one")
    if code != PHASE_OPTIMAL:
        raise NumericalFailure("phase one terminated abnormally")
    nu = _fold(zero, T[:m0, N][basis >= ncols])
    if nu > s["feas"] * float(s["b_flip"].max(initial=1.0)):
        return ref_infeasible_outcome(T, s["flipped"], m0, ncols, s["data"],
                                      zero, s["one"], s["feas"], s["scalar"])
    phase_one_basis = basis.copy()
    drive_out_artificials(T, basis, vstat, m0, N, ncols, s["tol"])
    if (basis == phase_one_basis).all() \
            and entering(T, vstat, m0, ncols, s["tol"]) == -1:
        code = PHASE_OPTIMAL
    else:
        code = ref_run_phase(*phase, m0, *rest)
    if code == PHASE_ITER_LIMIT:
        raise NumericalFailure("simplex iteration limit exceeded in phase two")
    if code == PHASE_UNBOUNDED:
        return LpOutcome("unbounded", None, None, None, None, None)

    first, free = s["first"], s["free"]
    c0, A_eq, b_eq, A_ub, b_ub, l0 = s["data"]
    z = np.full(N, zero, dtype=s["dtype"])
    z[basis] = T[:m0, N]
    x = l0 + z[first]
    pair = first[free]
    x[free] = z[pair] - z[pair + 1]

    y = _negate(zero - T[m0, ncols:N], s["flipped"])
    y_eq, y_ub = y[:b_eq.size], y[b_eq.size:]
    rc = c0 - A_eq.T @ y_eq - A_ub.T @ y_ub
    x = ref_verify(x, _fold(zero, c0 * x), y_eq, y_ub, rc, s["data"],
                   s["feas"], s["gap"])
    return LpOutcome("optimal", x, s["scalar"](c0 @ x), y_eq, y_ub, rc)


# ---------------------------------------------------------------------------
# comparisons

FIELDS = ("x", "value", "dual_eq", "dual_ub", "reduced_costs", "farkas_margin")


def _bytes(v):
    if isinstance(v, np.ndarray):
        if v.dtype == object:
            return v.shape, repr([(type(e).__name__, e) for e in v.tolist()])
        return v.dtype.str, v.shape, v.tobytes()
    return type(v).__name__, repr(v)


def _outcome(solve, problem, mode):
    try:
        o = solve(problem, mode)
    except (NumericalFailure, GuardExceeded) as exc:
        return type(exc).__name__, str(exc)
    return (o.status,) + tuple(_bytes(getattr(o, k)) for k in FIELDS)


def _families():
    return {
        "random": lp_cases.random_lps(),
        "signed_zero": lp_cases.signed_zero_lps(),
        "tall": lp_cases.tall_lps(),
        "tied": lp_cases.tied_lps(),
        "flip": lp_cases.flip_lps(),
        "default": lp_cases.default_bound_lps(),
        "infeasible": lp_cases.infeasible_lps(),
        "unbounded": lp_cases.unbounded_lps(),
        "library": [p for p, _ in lp_cases.library_lps()],
    }


def _exact_cases():
    """Problems small enough for exact mode from every generated family."""
    return (lp_cases.random_lps(seed=4, count=30)
            + lp_cases.signed_zero_lps(count=20) + lp_cases.tall_lps()[:6]
            + lp_cases.tied_lps()[:8]
            + lp_cases.flip_lps()[:4] + lp_cases.default_bound_lps(count=24)
            + lp_cases.infeasible_lps() + lp_cases.unbounded_lps())


class _Handed(Exception):
    """Stops a solve once phase one has been handed its tableau."""


def _phase_one_input(problem, mode, monkeypatch):
    """The arrays lp.solve hands its first phase, copied."""
    seen = {}

    def capture(T, basis, vstat, m0, N, cost_row, ncols, width, tol,
                max_iter, exact, M, aug, cvec):
        seen.update(T=T.copy(), basis=basis.copy(), vstat=vstat.copy(),
                    M=M.copy(), aug=aug.copy(), cvec=cvec.copy(),
                    sizes=(m0, N, cost_row, ncols, width, tol, max_iter,
                           exact))
        raise _Handed

    with monkeypatch.context() as m:
        m.setattr(lp, "_run_phase", capture)
        with pytest.raises(_Handed):
            lp.solve(problem, mode)
    return seen


def _same_phase_one_input(problem, mode, monkeypatch):
    got = _phase_one_input(problem, mode, monkeypatch)
    want = ref_setup(problem, mode)
    m0, N, ncols = want["m0"], want["N"], want["ncols"]
    assert got["sizes"] == (m0, N, m0 + 1, ncols, want["width"], want["tol"],
                            want["max_iter"], want["exact"])
    # aug's last column holds b after the row flips, which every rebuild
    # solves against
    for key in ("T", "basis", "vstat", "M", "aug"):
        assert _bytes(got[key]) == _bytes(want[key]), key
    # the phase-two costs now cover the artificial columns too, at 0
    assert _bytes(got["cvec"][:ncols]) == _bytes(want["cvec"])
    assert all(v == 0 for v in got["cvec"][ncols:].tolist())


def _default_bounds(problem):
    """Every lower bound 0 (either sign): no free variable."""
    return bool((problem.lower == 0).all())


@pytest.mark.parametrize("family", sorted(_families()))
def test_phase_one_gets_the_reference_tableau(family, monkeypatch):
    for problem in _families()[family]:
        _same_phase_one_input(problem, "float", monkeypatch)


def test_exact_phase_one_gets_the_reference_tableau(monkeypatch):
    for problem in _exact_cases():
        _same_phase_one_input(problem, "exact", monkeypatch)


@pytest.mark.parametrize("family", sorted(_families()))
def test_outcomes_match_the_reference_solve(family):
    statuses = collections.Counter()
    for problem in _families()[family]:
        want = _outcome(ref_solve, problem, "float")
        assert _outcome(lp.solve, problem, "float") == want
        statuses[want[0]] += 1
    if family in ("infeasible", "unbounded"):
        assert set(statuses) == {family}
    else:
        assert statuses["optimal"]


def test_exact_outcomes_match_the_reference_solve():
    statuses = collections.Counter()
    for problem in _exact_cases():
        want = _outcome(ref_solve, problem, "exact")
        assert _outcome(lp.solve, problem, "exact") == want
        statuses[want[0]] += 1
    assert set(statuses) == {"optimal", "infeasible", "unbounded"}


def test_phase_one_row_keeps_its_signed_zeros(monkeypatch):
    # x1's column is -0.0 in both rows: added to 0.0 one row at a time it
    # sums to 0.0, so its phase-one reduced cost is -0.0
    p = LpProblem([1.0, 0.0], eq_rows=[[1.0, -0.0], [2.0, -0.0]],
                  eq_rhs=[1.0, 2.0])
    T = _phase_one_input(p, "float", monkeypatch)["T"]
    assert T[3, :2].tolist() == [-3.0, 0.0] and np.signbit(T[3, 1])
    _same_phase_one_input(p, "float", monkeypatch)


@pytest.mark.parametrize("lower, sign", [(None, 0.0), ([0.0], 0.0),
                                          ([-0.0], -0.0)])
def test_default_bounds_still_add_the_lower_bound(lower, sign, monkeypatch):
    # the right-hand side -0.0 rebuilds to a basic value of -0.0, and
    # x = l + z turns it into +0.0 unless l is -0.0 too: adding a zero lower
    # bound is not an exact no-op, so the default bounds keep it (the snap
    # onto the box would make this -0.0 a +0.0 as well)
    handed = []
    verify = lp._verify

    def spy(x, *args):
        handed.append(x.copy())
        return verify(x, *args)

    p = LpProblem([1.0], eq_rows=[[1.0]], eq_rhs=[-0.0], lower=lower)
    with monkeypatch.context() as m:
        m.setattr(lp, "_verify", spy)
        lp.solve(p)
    assert handed[0].tolist() == [0.0]
    assert np.signbit(handed[0][0]) == np.signbit(sign)
    for mode in ("float", "exact"):
        assert _outcome(lp.solve, p, mode) == _outcome(ref_solve, p, mode)


def test_signed_zero_rows_reach_every_set_up_branch():
    # the generator must keep producing what it is there for
    seen = collections.Counter()
    for p in lp_cases.signed_zero_lps():
        rows = np.concatenate([p.eq_rows, p.ub_rows])
        rhs = np.concatenate([p.eq_rhs, p.ub_rhs])
        seen["-0.0 row"] += bool(np.all(np.signbit(rows) & (rows == 0), axis=1).any())
        seen["-0.0 bound"] += bool((np.signbit(p.lower) & (p.lower == 0)).any())
        seen["negative rhs"] += bool((rhs < 0).any())
        seen["free"] += bool((p.lower == -np.inf).any())
        f = lp_cases.original(p)
        seen["bound row"] += p.ub_rhs.size > f["ub_rhs"].size
    assert min(seen.values()) >= 5 and len(seen) == 5


@pytest.mark.parametrize("family", ["default", "library", "random", "tied"])
def test_a_start_at_the_own_optimal_basis_matches_the_reference(family):
    # the start rebuilds the tableau the cold solve ended on, with every
    # nonbasic column at 0 as the solve left it, so phase one and phase two
    # are skipped and the outcome is the reference's
    warm = 0
    for problem in _families()[family]:
        cold = lp.solve(problem)
        if cold.status != "optimal":
            continue
        want = _outcome(ref_solve, problem, "float")
        got = _outcome(lambda p, mode: lp.solve(p, mode, start=cold.basis),
                       problem, "float")
        assert got == want
        warm += 1
    assert warm >= 5


def test_default_bound_lps_reach_every_skip_branch():
    # the generator must keep producing what it is there for: each skip
    # of lp.solve taken and not taken, and every status (the optimal ones
    # also from a start, above)
    seen = collections.Counter()
    for p in lp_cases.default_bound_lps():
        assert _default_bounds(p)
        rhs = np.concatenate([p.eq_rhs, p.ub_rhs])
        status = lp.solve(p).status
        seen[status] += 1
        seen["negative rhs" if (rhs < 0).any() else "no negative rhs"] += 1
        seen["equality rows only" if not p.ub_rhs.size
             else "inequality rows"] += 1
        seen["-0.0 lower bound"] += bool(np.signbit(p.lower).any())
    for p in lp_cases.random_lps():
        seen["free variables"] += not _default_bounds(p)
    assert min(seen.values()) >= 3 and len(seen) == 9


# ---------------------------------------------------------------------------
# _verify keeps its accept/reject set


def _verify_calls(problems, mode):
    """The arguments of every _verify call the solves make, copied."""
    calls = []
    verify = lp._verify

    def record(x, value, y_eq, y_ub, rc, data, feas, gap):
        calls.append((x.copy(), value, y_eq.copy(), y_ub.copy(), rc.copy(),
                      data, feas, gap))
        return verify(x, value, y_eq, y_ub, rc, data, feas, gap)

    lp._verify = record
    try:
        for problem in problems:
            _outcome(lp.solve, problem, mode)
    finally:
        lp._verify = verify
    return calls


def _nudges(rng, call):
    """The call itself, then x, y_ub and rc moved by amounts around the
    float tolerances (and NaN), one coordinate at a time."""
    x, value, y_eq, y_ub, rc, data, feas, gap = call
    yield call
    exact = x.dtype == object
    steps = ([Fraction(1, 10**12), Fraction(-1, 10**12)] if exact else
             [1e-12, -1e-12, 5e-10, -5e-10, 2e-9, -2e-9, 1e-6, -1e-6, 0.5,
              np.nan])
    for name, vec in (("x", x), ("y_ub", y_ub), ("rc", rc)):
        if not vec.size:
            continue
        for step in steps:
            moved = vec.copy()
            j = int(rng.integers(vec.size))
            moved[j] = moved[j] + step
            args = dict(x=x, y_ub=y_ub, rc=rc)
            args[name] = moved
            yield (args["x"], value, y_eq, args["y_ub"], args["rc"], data,
                   feas, gap)


def _verdict(verify, args):
    x, value, y_eq, y_ub, rc, data, feas, gap = args
    y_ub = y_ub.copy()   # cleared in place
    try:
        got = verify(x.copy(), value, y_eq, y_ub, rc, data, feas, gap)
    except NumericalFailure as exc:
        return "reject", str(exc)
    return "accept", _bytes(got), _bytes(y_ub)


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_verify_keeps_its_accept_set(mode):
    problems = (_exact_cases() if mode == "exact" else
                lp_cases.random_lps() + lp_cases.signed_zero_lps()
                + lp_cases.tied_lps() + lp_cases.flip_lps())
    rng = np.random.default_rng(17)
    seen = collections.Counter()
    for call in _verify_calls(problems, mode):
        for args in _nudges(rng, call):
            want = _verdict(ref_verify, args)
            assert _verdict(lp._verify, args) == want
            seen[want[0] if want[0] == "accept" else want[1]] += 1
    assert seen["accept"]
    rejections = {k for k in seen if k != "accept"}
    if mode == "float":
        assert {"optimal point violates an equality row",
                "optimal point violates an inequality row",
                "strong duality gap exceeds tolerance"} <= rejections
    assert len(rejections) >= 3


# ---------------------------------------------------------------------------
# LpProblem validation


def _stored(problem):
    return tuple(_bytes(getattr(problem, k)) for k in (
        "objective", "eq_rows", "eq_rhs", "ub_rows", "ub_rhs", "lower"))


def _validated(build, kwargs):
    try:
        got = build(**kwargs)
    except (MalformedProblem, TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, LpProblem):
        return _stored(got)
    return tuple(_bytes(a) for a in got)


def _random_fields(rng):
    """Problem fields, mostly well formed, with one or two of the ways each
    field can be wrong."""
    bad = [np.nan, np.inf, -np.inf]
    n = int(rng.integers(0, 4)) if rng.random() < 0.1 else int(rng.integers(1, 4))

    def vec(k, spoil=0.15):
        v = rng.standard_normal(k)
        if k and rng.random() < spoil:
            v[rng.integers(k)] = bad[rng.integers(3)]
        return v

    fields = {"objective": vec(n)}
    for name in ("eq", "ub"):
        if rng.random() < 0.35:
            continue
        m = int(rng.integers(1, 3))
        rows = rng.standard_normal((m, n))
        if rng.random() < 0.1 and rows.size:
            rows[rng.integers(m), rng.integers(n)] = bad[rng.integers(3)]
        rhs = vec(m, 0.1)
        pick = rng.random()
        if pick < 0.05:
            rows = None
        elif pick < 0.1:
            rhs = None
        elif pick < 0.15:
            rows = rng.standard_normal((m, n + 1))
        elif pick < 0.2:
            rhs = vec(m + 1, 0)
        elif pick < 0.25 and m == 1:
            rows = rows[0].tolist()     # one row as a flat list
        elif pick < 0.28:
            rows = [[1.0] * n, [1.0] * (n + 1)]   # ragged
        fields[f"{name}_rows"], fields[f"{name}_rhs"] = rows, rhs
    choices = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]
    if rng.random() < 0.5:
        k = n + 1 if rng.random() < 0.05 else n
        fields["lower"] = rng.choice(choices, k,
                                     p=[.3, .1, .1, .05, .05, .38, .02])
    return fields


def test_validation_matches_the_reference():
    rng = np.random.default_rng(29)
    seen = collections.Counter()
    for _ in range(3000):
        fields = _random_fields(rng)
        want = _validated(ref_validate, fields)
        assert _validated(LpProblem, fields) == want, fields
        seen[want[1] if isinstance(want[0], str) else "valid"] += 1
    assert seen["valid"] >= 300
    # every message below, raised by some draw
    assert len(seen) >= 12


@pytest.mark.parametrize("fields, message", [
    (dict(objective=[]), "objective must have at least one entry"),
    (dict(objective=[1.0, np.nan]), "objective must be finite"),
    (dict(objective=[1.0], eq_rows=[[1.0]]),
     "eq_rows and eq_rhs must be given together"),
    (dict(objective=[1.0], ub_rhs=[1.0]),
     "ub_rows and ub_rhs must be given together"),
    (dict(objective=[1.0], eq_rows=[[1.0, 2.0]], eq_rhs=[0.0]),
     "eq_rows must have 1 columns"),
    (dict(objective=[1.0, 1.0], ub_rows=[[[1.0, 2.0]]], ub_rhs=[0.0]),
     "ub_rows must have 2 columns"),
    (dict(objective=[1.0], eq_rows=[[1.0]], eq_rhs=[0.0, 1.0]),
     "eq_rhs length does not match eq_rows"),
    (dict(objective=[1.0], ub_rows=[[1.0], [2.0]], ub_rhs=[0.0]),
     "ub_rhs length does not match ub_rows"),
    (dict(objective=[1.0], eq_rows=[[1.0]], eq_rhs=[np.inf]),
     "eq constraint data must be finite"),
    (dict(objective=[1.0], ub_rows=[[np.nan]], ub_rhs=[0.0]),
     "ub constraint data must be finite"),
    (dict(objective=[1.0, 2.0], lower=[0.0]),
     "bound vectors must match the objective length"),
    (dict(objective=[1.0], lower=[np.nan]),
     "lower bound at index 0 must be 0 or -inf"),
    (dict(objective=[1.0, 1.0], lower=[-np.inf, np.nan]),
     "lower bound at index 1 must be 0 or -inf"),
    (dict(objective=[1.0, 1.0], lower=[0.0, np.inf]),
     "lower bound at index 1 must be 0 or -inf"),
    (dict(objective=[1.0], lower=[1.0]),
     "lower bound at index 0 must be 0 or -inf"),
    (dict(objective=[1.0, 1.0, 1.0], lower=[-0.0, -2.0, 3.0]),
     "lower bound at index 1 must be 0 or -inf"),
    (dict(objective="abc"), "objective must be numeric"),
    (dict(objective=[10 ** 400]), "objective must be numeric"),
    (dict(objective=[1.0, 1.0], eq_rows=[[1.0, 2.0], [3.0]],
          eq_rhs=[1.0, 1.0]), "eq_rows must be numeric"),
    (dict(objective=[1.0], ub_rows=[[1.0]], ub_rhs=["x"]),
     "ub_rhs must be numeric"),
    (dict(objective=[1.0], lower=["x"]), "lower must be numeric"),
    (dict(objective=[1.0], lower=[{}]), "lower must be numeric"),
    # numpy would parse these strings as numbers
    (dict(objective="1.5"), "objective must be numeric"),
    (dict(objective=[1.0], lower=["-2"]), "lower must be numeric"),
    (dict(objective=[1.0, 2.0], eq_rows=[[1.0, "2"]], eq_rhs=[1.0]),
     "eq_rows must be numeric"),
    (dict(objective=[1.0], eq_rows=[[1.0]], eq_rhs=np.array(["1"])),
     "eq_rhs must be numeric"),
    (dict(objective=[1.0], lower=np.array([b"0"])), "lower must be numeric"),
    (dict(objective=[1.0], ub_rows=np.array([["2"]], dtype=object),
          ub_rhs=[1.0]), "ub_rows must be numeric"),
    (dict(objective=np.array([1.0, "2"], dtype=object)),
     "objective must be numeric"),
    # numpy would convert these bools to numbers
    (dict(objective=[True, 1.0]), "objective must be numeric"),
    (dict(objective=[1.0, 2.0], eq_rows=[[True, False]], eq_rhs=[1.0]),
     "eq_rows must be numeric"),
    (dict(objective=[1.0], lower=[np.False_]), "lower must be numeric"),
    (dict(objective=np.array([1.0, True], dtype=object)),
     "objective must be numeric"),
    # numpy would drop these imaginary parts with a ComplexWarning
    (dict(objective=np.array([1 + 1j, 2.0])), "objective must be numeric"),
    (dict(objective=[1.0, 2.0], eq_rows=np.array([[1.0, 2j]]),
          eq_rhs=[1.0]), "eq_rows must be numeric"),
])
def test_each_rejection_names_its_check(fields, message):
    with pytest.raises(MalformedProblem) as err:
        LpProblem(**fields)
    assert str(err.value) == message
    with pytest.raises(MalformedProblem) as ref:
        ref_validate(**fields)
    assert str(ref.value) == message


def test_a_conversion_error_is_raised_where_the_checks_reach_it():
    # the objective's own check comes before the rows are read
    with pytest.raises(MalformedProblem, match="objective must be finite"):
        LpProblem([np.inf], eq_rows=[[1.0], [1.0, 2.0]], eq_rhs=[0.0, 0.0])
    with pytest.raises(MalformedProblem, match="eq_rows must be numeric"):
        LpProblem([1.0], eq_rows=[[1.0], [1.0, 2.0]], eq_rhs=[0.0, 0.0])
