"""Solver-level checks: frozen small programs, certificates, determinism,
and agreement with an independent brute-force vertex enumeration and with
HiGHS (scipy.optimize.linprog, skipped when scipy is absent)."""

import dataclasses
import itertools
from fractions import Fraction

import lp_cases
import numpy as np
import pytest

from gptsteer import choquet, lp, systems, tensors
from gptsteer.errors import (GuardExceeded, InvalidInput, MalformedProblem,
                             NumericalFailure)
from gptsteer.lp import LpProblem, LpOutcome, feasibility, solve
from gptsteer.tolerances import LP_GAP


def test_single_variable_floor():
    # min x subject to x >= 3 (written as -x <= -3)
    p = LpProblem(np.array([1.0]), ub_rows=[[-1.0]], ub_rhs=[-3.0])
    out = solve(p)
    assert out.status == "optimal"
    assert abs(out.value - 3.0) <= 1e-9
    assert abs(out.x[0] - 3.0) <= 1e-9


def test_result_records_holding_arrays_compare_by_identity():
    problem = LpProblem(np.array([1.0]), ub_rows=[[-1.0]], ub_rhs=[-3.0])
    makers = (
        lambda: LpProblem(np.array([1.0]), ub_rows=[[-1.0]], ub_rhs=[-3.0]),
        lambda: solve(problem),
        lambda: systems.ConeMembership(True, np.ones(2), None),
        lambda: choquet.ChoquetVerdict(below=True, responses=np.eye(2)),
        lambda: tensors.MinConeResult(member=True, coefficients=np.ones(2),
                                      witness=None))
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b and len({a, b, a}) == 2, type(a)


def test_infeasible_box_carries_farkas_certificate():
    # x <= -1 clashes with the default bound x >= 0
    p = LpProblem(np.array([0.0]), ub_rows=[[1.0]], ub_rhs=[-1.0])
    out = solve(p)
    assert out.status == "infeasible"
    assert out.x is None and out.value is None
    assert out.farkas_margin >= 1e-9
    assert out.dual_ub[0] <= 0.0


def test_simplex_face_optimum():
    p = LpProblem(np.array([-1.0, -1.0]), ub_rows=[[1.0, 1.0]], ub_rhs=[1.0])
    out = solve(p)
    assert out.status == "optimal"
    assert abs(out.value - (-1.0)) <= 1e-9
    assert abs(out.x.sum() - 1.0) <= 1e-9


def test_phase_two_rebuilds_only_after_phase_one(monkeypatch):
    rebuilds = []
    refactorize = lp._refactorize

    def counting(*args):
        rebuilds.append(1)
        return refactorize(*args)

    monkeypatch.setattr(lp, "_refactorize", counting)
    # a feasibility LP: phase two has nothing to price, so phase one's
    # closing rebuild is the only one
    V = np.array([[1.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])
    out = solve(LpProblem(np.zeros(4), eq_rows=V.T, eq_rhs=[1.0, 0.2, -0.4]))
    assert out.status == "optimal" and len(rebuilds) == 1
    assert np.max(np.abs(V.T @ out.x - [1.0, 0.2, -0.4])) <= 1e-12
    # phase two pivots here, so it ends in a rebuild of its own
    rebuilds.clear()
    out = solve(LpProblem(np.array([-1.0, -2.0]), ub_rows=[[1.0, 1.0]],
                          ub_rhs=[1.0]))
    assert out.status == "optimal" and len(rebuilds) == 2
    assert out.x.tolist() == [0.0, 1.0]


def test_only_phase_one_rebuilds_the_phase_one_row(monkeypatch):
    # nothing reads the phase-one cost row once phase one is over, so a
    # warm start and phase two's rebuilds leave it as it stands
    flags = []
    install = lp._install

    def recording(*args):
        flags.append(args[-1])
        return install(*args)

    monkeypatch.setattr(lp, "_install", recording)
    p = LpProblem(np.array([-1.0, -2.0]), ub_rows=[[1.0, 1.0]], ub_rhs=[1.0])
    cold = solve(p)
    assert cold.status == "optimal" and flags == [True, False]
    flags.clear()
    warm = solve(p, start=cold.basis)
    assert flags == [False]
    assert warm.x.tobytes() == cold.x.tobytes() and warm.value == cold.value


def test_unbounded_detected():
    out = solve(LpProblem(np.array([-1.0])))
    assert out.status == "unbounded"
    assert out.x is None


def test_strong_duality_reported_values():
    # x <= (1, 1, 0.5) as three inequality rows
    p = LpProblem(
        np.array([2.0, 1.0, -1.0]),
        eq_rows=[[1.0, 1.0, 1.0]], eq_rhs=[1.0],
        ub_rows=np.vstack([[1.0, -1.0, 0.0], np.eye(3)]),
        ub_rhs=[0.25, 1.0, 1.0, 0.5],
    )
    out = solve(p)
    assert out.status == "optimal"
    dual = float(out.dual_eq @ p.eq_rhs) + float(out.dual_ub @ p.ub_rhs)
    for j in range(p.n_vars):
        r = out.reduced_costs[j]
        # only a lower bound can price a reduced cost, and only one > 0
        assert r >= -1e-9
        if r > 1e-9:
            dual += r * p.lower[j]
    assert abs(out.value - dual) <= 1e-7 * (1 + abs(out.value))
    assert np.all(out.dual_ub <= 1e-12)


def _brute_force_value(p):
    """Minimum over vertices enumerated from all n-subsets of tight rows
    of the problem as drawn (`lp_cases.original`), box and all.

    Independent of the solver: dense solve per subset, full feasibility scan.
    Returns None when no feasible vertex exists (bounded problems only).
    """
    f = lp_cases.original(p)
    n = p.n_vars
    rows = [(a, b, True) for a, b in zip(f["eq_rows"], f["eq_rhs"])]
    rows += [(a, b, False) for a, b in zip(f["ub_rows"], f["ub_rhs"])]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((-e, -f["lower"][j], False))
        rows.append((e, f["upper"][j], False))
    best = None
    for comb in itertools.combinations(range(len(rows)), n):
        A = np.array([rows[i][0] for i in comb])
        b = np.array([rows[i][1] for i in comb])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        ok = True
        for a, bb, is_eq in rows:
            v = float(a @ x)
            if is_eq and abs(v - bb) > 1e-7:
                ok = False
                break
            if not is_eq and v > bb + 1e-7:
                ok = False
                break
        if ok:
            val = float(f["objective"] @ x)
            best = val if best is None else min(best, val)
    return best


def test_matches_brute_force_on_random_boxes():
    rng = np.random.default_rng(7)
    for trial in range(120):
        n = int(rng.integers(1, 5))
        me = int(rng.integers(0, 3))
        mu = int(rng.integers(0, 4))
        c = np.round(rng.normal(size=n), 3)
        l = np.round(rng.uniform(-2, 0, n), 3)
        u = l + np.round(rng.uniform(0.5, 3, n), 3)
        p = lp_cases.boxed(
            c,
            np.round(rng.normal(size=(me, n)), 3) if me else None,
            np.round(rng.normal(size=me), 3) if me else None,
            np.round(rng.normal(size=(mu, n)), 3) if mu else None,
            np.round(rng.normal(size=mu), 3) if mu else None,
            l, u,
        )
        out = solve(p)
        ref = _brute_force_value(p)
        if out.status == "optimal":
            assert ref is not None, f"trial {trial}: brute force disagrees on feasibility"
            assert abs(out.value - ref) <= 1e-6 * (1 + abs(ref)), f"trial {trial}"
        else:
            assert out.status == "infeasible", f"trial {trial}: bounded box cannot be unbounded"
            assert ref is None, f"trial {trial}: solver missed a feasible vertex"
            assert out.farkas_margin > 0


def test_farkas_certificate_separates_by_hand():
    rng = np.random.default_rng(11)
    seen = 0
    for trial in range(200):
        n = int(rng.integers(1, 4))
        mu = int(rng.integers(2, 5))
        # x <= 1.5 as one inequality row per variable
        p = lp_cases.boxed(
            np.zeros(n),
            ub_rows=np.round(rng.normal(size=(mu, n)), 3),
            ub_rhs=np.round(rng.normal(loc=-0.5, size=mu), 3),
            upper=np.full(n, 1.5),
        )
        out = solve(p)
        if out.status != "infeasible":
            continue
        seen += 1
        y = out.dual_ub
        assert np.all(y <= 1e-12)
        r = p.ub_rows.T @ y
        # the largest r . x over x >= 0: r_j x_j is unbounded for r_j > 0
        # and greatest at the lower bound 0 for r_j <= 0
        assert np.all(r <= 1e-9)
        cap = 0.0
        for j in range(n):
            cap += r[j] * p.lower[j]
        assert float(y @ p.ub_rhs) - cap >= 1e-9
    assert seen >= 20


def test_exact_mode_agrees_with_float():
    rng = np.random.default_rng(23)
    for trial in range(40):
        n = int(rng.integers(1, 4))
        me = int(rng.integers(0, 2))
        mu = int(rng.integers(0, 3))
        p = lp_cases.boxed(
            np.round(rng.normal(size=n), 2),
            np.round(rng.normal(size=(me, n)), 2) if me else None,
            np.round(rng.normal(size=me), 2) if me else None,
            np.round(rng.normal(size=(mu, n)), 2) if mu else None,
            np.round(rng.normal(size=mu), 2) if mu else None,
            None,
            np.round(rng.uniform(0.5, 2, n), 2),
        )
        o_float = solve(p)
        o_exact = solve(p, mode="exact")
        assert o_float.status == o_exact.status, f"trial {trial}"
        if o_float.status == "optimal":
            assert abs(o_float.value - float(o_exact.value)) <= 1e-7, f"trial {trial}"


def test_exact_mode_value_is_a_fraction():
    p = LpProblem(np.array([-1.0, -1.0]), ub_rows=[[1.0, 1.0]], ub_rhs=[1.0])
    out = solve(p, mode="exact")
    assert isinstance(out.value, Fraction)
    assert out.value == -1


@pytest.mark.parametrize("mode, delta, holds", [
    ("exact", Fraction(1, 10**30), False),
    ("float", 1e-12, True),
    ("float", 1e-6, False),
])
def test_one_verifier_keeps_both_tolerance_regimes(mode, delta, holds,
                                                   monkeypatch):
    # The optimum (1, 0) of x0 + x1 = 1 is moved off the row by delta before
    # the shared check: exact mode allows no residual, float mode allows
    # LP_FEASIBILITY relative to the row's size.
    verify = lp._verify

    def nudged(x, *args):
        x = x.copy()
        x[0] = x[0] + delta
        return verify(x, *args)

    monkeypatch.setattr(lp, "_verify", nudged)
    p = LpProblem(np.array([1.0, 2.0]), eq_rows=[[1.0, 1.0]], eq_rhs=[1.0])
    if holds:
        assert solve(p, mode=mode).status == "optimal"
    else:
        with pytest.raises(NumericalFailure, match="equality row"):
            solve(p, mode=mode)


def test_repeat_solves_are_bit_identical():
    p = LpProblem(
        np.array([-1.0, 2.0, 0.5]),
        eq_rows=[[1.0, 1.0, 1.0]], eq_rhs=[1.0],
        ub_rows=[[1.0, -1.0, 0.0]], ub_rhs=[0.3],
    )
    a = solve(p)
    b = solve(p)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.value == b.value
    assert a.dual_eq.tobytes() == b.dual_eq.tobytes()
    assert a.reduced_costs.tobytes() == b.reduced_costs.tobytes()


def test_feasibility_rejects_a_nonzero_objective():
    p = LpProblem(np.zeros(2), eq_rows=[[1.0, 1.0]], eq_rhs=[1.0])
    out = feasibility(p)
    assert out.status == "optimal"
    assert abs(out.x.sum() - 1.0) <= 1e-9
    with pytest.raises(MalformedProblem, match="zero objective"):
        feasibility(LpProblem(
            np.array([100.0, -100.0]), eq_rows=[[1.0, 1.0]], eq_rhs=[1.0]))


def test_malformed_problems_are_rejected():
    with pytest.raises(MalformedProblem):
        LpProblem(np.array([]))
    with pytest.raises(MalformedProblem):
        LpProblem(np.array([np.inf]))
    with pytest.raises(MalformedProblem):
        LpProblem(np.array([1.0]), eq_rows=[[1.0, 2.0]], eq_rhs=[0.0])
    with pytest.raises(MalformedProblem):
        LpProblem(np.array([1.0]), eq_rows=[[1.0]], eq_rhs=[0.0, 1.0])
    with pytest.raises(MalformedProblem):
        LpProblem(np.array([1.0, 1.0]), lower=[0.0, 1.0])
    with pytest.raises(TypeError, match="upper"):
        LpProblem(np.array([1.0]), upper=[1.0])
    with pytest.raises(MalformedProblem):
        LpProblem(np.array([1.0]), lower=[np.nan])
    with pytest.raises(MalformedProblem):
        LpProblem(np.array([1.0]), ub_rows=[[np.inf]], ub_rhs=[0.0])


def test_lower_bound_violation_names_the_index():
    with pytest.raises(MalformedProblem) as err:
        LpProblem(np.zeros(3), lower=[0.0, -np.inf, 2.0])
    assert "index 2" in str(err.value)


@pytest.mark.parametrize("bad", [1.0, -1.0, np.inf, np.nan])
@pytest.mark.parametrize("j", [0, 2])
def test_a_lower_bound_other_than_zero_or_minus_inf_names_its_index(bad, j):
    # a variable is nonnegative (0, of either sign) or free (-inf); any
    # other bound is the caller's inequality row
    lower = [0.0, -np.inf, -0.0]
    assert LpProblem(np.zeros(3), lower=lower).lower.tolist() == lower
    lower[j] = bad
    with pytest.raises(MalformedProblem,
                       match=f"^lower bound at index {j} must be 0 or -inf$"):
        LpProblem(np.zeros(3), lower=lower)


def test_mode_and_problem_type_validation():
    p = LpProblem(np.array([1.0]))
    with pytest.raises(InvalidInput):
        solve(p, mode="fast")
    with pytest.raises(InvalidInput):
        solve("not a problem")


def test_exact_mode_guard_trips_on_large_problems():
    n = 80
    p = LpProblem(np.ones(n), eq_rows=np.ones((1, n)), eq_rhs=[1.0])
    with pytest.raises(GuardExceeded):
        solve(p, mode="exact")


def test_free_variable_equalities():
    # y = 2t and y = 6 with both variables free
    p = LpProblem(
        np.array([0.0, 1.0]),
        eq_rows=[[1.0, -2.0], [1.0, 0.0]], eq_rhs=[0.0, 6.0],
        lower=np.array([-np.inf, -np.inf]),
    )
    out = solve(p)
    assert out.status == "optimal"
    assert abs(out.x[0] - 6.0) <= 1e-9
    assert abs(out.x[1] - 3.0) <= 1e-9


def test_outcome_dataclass_shape():
    out = solve(LpProblem(np.array([1.0])))
    assert isinstance(out, LpOutcome)
    assert out.status == "optimal"
    assert out.farkas_margin is None


# ---------------------------------------------------------------------------
# differential oracle: HiGHS through scipy


def _highs(problem):
    optimize = pytest.importorskip("scipy.optimize")

    def rows(A, b):
        return (A, b) if A.shape[0] else (None, None)

    # the problem as drawn, box and all
    f = lp_cases.original(problem)
    A_ub, b_ub = rows(f["ub_rows"], f["ub_rhs"])
    A_eq, b_eq = rows(f["eq_rows"], f["eq_rhs"])
    bounds = [(None if lo == -np.inf else lo, None if hi == np.inf else hi)
              for lo, hi in zip(f["lower"], f["upper"])]
    return optimize.linprog(f["objective"], A_ub=A_ub, b_ub=b_ub,
                            A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                            method="highs")


HIGHS_STATUS = {"optimal": 0, "infeasible": 2, "unbounded": 3}


def _agrees_with_highs(problems):
    statuses = []
    for problem in problems:
        ours, ref = solve(problem), _highs(problem)
        assert ref.status == HIGHS_STATUS[ours.status], ref.message
        if ours.status == "optimal":
            assert abs(ours.value - ref.fun) <= LP_GAP * (1 + abs(ours.value))
        statuses.append(ours.status)
    return set(statuses)


def test_random_lps_agree_with_highs():
    problems = (lp_cases.random_lps(seed=5) + lp_cases.tied_lps()
                + lp_cases.flip_lps() + lp_cases.infeasible_lps()
                + lp_cases.unbounded_lps())
    assert _agrees_with_highs(problems) == {"optimal", "infeasible", "unbounded"}


def test_library_lps_agree_with_highs():
    problems = [p for p, mode in lp_cases.library_lps() if mode == "float"]
    assert _agrees_with_highs(problems) == {"optimal", "infeasible"}


ZERO_OBJECTIVE_FAMILIES = {
    "random": lp_cases.random_lps,
    "signed_zero": lp_cases.signed_zero_lps,
    "tall": lp_cases.tall_lps,
    "tied": lp_cases.tied_lps,
    "flip": lp_cases.flip_lps,
    "infeasible": lp_cases.infeasible_lps,
    "unbounded": lp_cases.unbounded_lps,
    "library": lambda: [p for p, _ in lp_cases.library_lps()],
}


@pytest.mark.parametrize("family", sorted(ZERO_OBJECTIVE_FAMILIES))
def test_zero_objective_ends_optimal_or_infeasible(family):
    # The contract `feasibility` states: no ray improves a zero objective.
    # Exact mode runs on the problems within its column guard.
    exact = 0
    for p in ZERO_OBJECTIVE_FAMILIES[family]():
        zero = dataclasses.replace(p, objective=np.zeros(p.n_vars))
        assert feasibility(zero).status in ("optimal", "infeasible")
        try:
            out = solve(zero, mode="exact")
        except GuardExceeded:
            continue
        assert out.status in ("optimal", "infeasible")
        exact += 1
    assert exact > 0


BOX_FAMILIES = {
    "random": lp_cases.random_lps,
    "signed_zero": lp_cases.signed_zero_lps,
    "tall": lp_cases.tall_lps,
    "tied": lp_cases.tied_lps,
    "flip": lp_cases.flip_lps,
    "default_bound": lp_cases.default_bound_lps,
    "library": lambda: [p for p, mode in lp_cases.library_lps()
                        if mode == "float"],
}


@pytest.mark.parametrize("family", sorted(BOX_FAMILIES))
def test_optimal_x_lies_on_its_box_exactly(family):
    # The contract callers read x by, with no clip or sign check of their
    # own: every coordinate at or above its lower bound exactly, and +0.0,
    # never -0.0, where the lower bound is +0.0 (every cone-membership and
    # cover LP's default bound).  An upper bound is an inequality row,
    # held to LP_FEASIBILITY.
    optimal = 0
    for p in BOX_FAMILIES[family]():
        out = solve(p)
        if out.status != "optimal":
            continue
        optimal += 1
        assert np.all(p.lower <= out.x)
        zero = (p.lower == 0.0) & ~np.signbit(p.lower)
        assert not np.signbit(out.x[zero]).any()
    assert optimal > 0


def test_feasibility_refuses_an_unbounded_verdict(monkeypatch):
    monkeypatch.setattr(
        lp, "solve",
        lambda problem, **keywords: LpOutcome("unbounded", None, None, None,
                                              None, None))
    with pytest.raises(NumericalFailure,
                       match="feasibility LP of shape 1x2 ended unbounded"):
        feasibility(LpProblem(np.zeros(2), ub_rows=[[1.0, 1.0]], ub_rhs=[1.0]))


@pytest.mark.parametrize("problem, status", [
    (LpProblem(np.array([0.0]), ub_rows=[[1.0]], ub_rhs=[-1.0]), "infeasible"),
    (LpProblem(np.array([-1.0]), ub_rows=[[-1.0]], ub_rhs=[0.0]), "unbounded"),
])
def test_optimum_names_the_lp_that_did_not_end_optimal(problem, status):
    with pytest.raises(NumericalFailure, match=f"probe LP ended {status}"):
        lp.optimum(problem, "probe LP")


def test_optimum_returns_the_optimal_outcome():
    p = LpProblem(np.array([-1.0, -1.0]), ub_rows=[[1.0, 1.0]], ub_rhs=[1.0])
    out = lp.optimum(p, "probe LP")
    assert out.status == "optimal" and out.value == solve(p).value


# ---------------------------------------------------------------------------
# warm starts


WARM_FAMILIES = {
    "random": lp_cases.random_lps,
    "signed_zero": lp_cases.signed_zero_lps,
    "tall": lp_cases.tall_lps,
    "tied": lp_cases.tied_lps,
    "flip": lp_cases.flip_lps,
    "infeasible": lp_cases.infeasible_lps,
    "unbounded": lp_cases.unbounded_lps,
    "library": lambda: [p for p, mode in lp_cases.library_lps()
                        if mode == "float"],
}


# the least number of solves in each family that a nearby optimum's basis
# starts without phase one (61, 13, 19 and 75 at seed 11)
WARM_SKIPS = {"random": 50, "signed_zero": 10, "tied": 15, "library": 60}


def _outcome_bytes(problem, **keywords):
    out = solve(problem, **keywords)
    return (out.status,) + tuple(
        None if v is None else np.asarray(v).tobytes()
        for v in (out.x, out.value, out.dual_eq, out.dual_ub,
                  out.reduced_costs, out.farkas_margin, out.basis))


@pytest.fixture
def warm_starts(monkeypatch):
    """Whether each `_warm_start` the solves make skipped phase one."""
    taken = []
    warm = lp._warm_start

    def spy(*args):
        taken.append(warm(*args))
        return taken[-1]

    monkeypatch.setattr(lp, "_warm_start", spy)
    return taken


def _perturbed(problem, rng, scale):
    eq, ub = problem.eq_rhs, problem.ub_rhs
    return dataclasses.replace(
        problem, eq_rhs=eq + scale * rng.standard_normal(eq.size),
        ub_rhs=ub + scale * rng.standard_normal(ub.size))


@pytest.mark.parametrize("family", sorted(WARM_FAMILIES))
def test_a_start_from_a_nearby_optimum_keeps_status_and_value(family,
                                                              warm_starts):
    # the optimal basis of a perturbed right-hand side starts the solve
    rng = np.random.default_rng(11)
    for p in WARM_FAMILIES[family]():
        cold = solve(p)
        near = solve(_perturbed(p, rng, 1e-3))
        if near.status != "optimal":
            continue
        warm = solve(p, start=near.basis)
        assert warm.status == cold.status
        if cold.status == "optimal":
            gap = LP_GAP * (1 + abs(cold.value))
            assert abs(warm.value - cold.value) <= gap
            ref = _highs(p)
            assert abs(warm.value - ref.fun) <= LP_GAP * (1 + abs(ref.fun))
            assert warm.basis is not None and not warm.basis.flags.writeable
    # how many of those skip phase one: the perturbed `tall`, `infeasible`
    # and `unbounded` problems end without an optimum to start from
    assert warm_starts.count(True) >= WARM_SKIPS.get(family, 0)


def test_outcome_basis_is_read_only_and_set_at_an_optimum_only():
    p = LpProblem(np.array([-1.0, -1.0]), ub_rows=[[1.0, 1.0]], ub_rhs=[1.0])
    out = solve(p)
    assert out.basis.tolist() == [0] and not out.basis.flags.writeable
    with pytest.raises(ValueError):
        out.basis[0] = 1
    assert solve(p, mode="exact").basis.tolist() == [0]
    for q in lp_cases.infeasible_lps() + lp_cases.unbounded_lps():
        assert solve(q).basis is None


def _columns(p):
    """The tableau's column count: one per variable (two when free), one
    slack per inequality row and one artificial per row."""
    free = p.lower == -np.inf
    return (p.n_vars + int(free.sum()) + 2 * p.ub_rows.shape[0]
            + p.eq_rows.shape[0])


@pytest.mark.parametrize("family", sorted(WARM_FAMILIES))
def test_a_singular_or_infeasible_start_gives_the_cold_outcome(family,
                                                               warm_starts):
    # random column sets: every one that does not skip phase one leaves
    # each byte of the cold solve
    rng = np.random.default_rng(12)
    fallbacks = 0
    for p in WARM_FAMILIES[family]():
        m0 = p.eq_rows.shape[0] + p.ub_rows.shape[0]
        cold = _outcome_bytes(p)
        for _ in range(3):
            start = rng.choice(_columns(p), size=m0, replace=False)
            warm_starts.clear()
            got = _outcome_bytes(p, start=start)
            if m0 and warm_starts == [False]:
                assert got == cold
                fallbacks += 1
            elif got[0] == "optimal":
                # a feasible start: another optimum, within the gap
                value = solve(p).value
                assert abs(solve(p, start=start).value - value) \
                    <= LP_GAP * (1 + abs(value))
            else:
                assert got[0] == cold[0]
    assert fallbacks >= 3


def test_a_singular_start_runs_the_cold_path(warm_starts):
    # columns 0 and 1 are parallel, so no basis holds both
    p = LpProblem(np.array([1.0, 2.0, 3.0]), eq_rows=[[1.0, 2.0, 0.0],
                                                    [2.0, 4.0, 1.0]],
                  eq_rhs=[2.0, 5.0])
    assert _outcome_bytes(p, start=[0, 1]) == _outcome_bytes(p)
    assert warm_starts == [False]
    # an infeasible one: on columns 2 and 1, x_1 = -1/3
    q = LpProblem(np.array([1.0, 2.0, 3.0]), eq_rows=[[1.0, 2.0, -1.0],
                                                    [0.0, 1.0, 1.0]],
                  eq_rhs=[-1.0, 0.0])
    warm_starts.clear()
    assert _outcome_bytes(q, start=[2, 1]) == _outcome_bytes(q)
    assert warm_starts == [False]


@pytest.mark.parametrize("start", [
    [0], [0, 1, 2, 3], [0, 0, 1], [0, 1, 7], [-1, 0, 1], [0.0, 1.0, 2.0],
    [0, 1, 2.5], ["0", "1", "2"], [True, False, True], [[0, 1, 2]],
    [0, 1, 2 ** 70], 3, "012", [0, 1, None]],
    ids=["short", "long", "repeat", "past the columns", "negative",
         "floats", "fraction", "text", "bools", "nested", "huge", "number",
         "string", "none"])
def test_a_malformed_start_is_invalid_input(start):
    # the cone LP of the square: 3 rows, 4 columns and 3 artificials
    V = np.array([[1.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])
    p = LpProblem(np.zeros(4), eq_rows=V.T, eq_rhs=[1.0, 0.2, -0.4])
    with pytest.raises(InvalidInput, match="start must list 3 distinct"):
        solve(p, start=start)
    with pytest.raises(InvalidInput, match="start must list 3 distinct"):
        feasibility(p, start=start)


def test_a_start_in_exact_mode_is_invalid_input():
    p = LpProblem(np.array([1.0]), ub_rows=[[-1.0]], ub_rhs=[-1.0])
    basis = solve(p).basis
    assert solve(p, start=basis).status == "optimal"
    with pytest.raises(InvalidInput, match="needs mode 'float'"):
        solve(p, mode="exact", start=basis)


def test_a_warm_feasible_cone_lp_makes_no_phase_one(monkeypatch):
    V = np.array([[1.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])
    basis = feasibility(LpProblem(np.zeros(4), eq_rows=V.T,
                                  eq_rhs=[1.0, 0.2, -0.4])).basis
    rows = []
    phase = lp.simplex_phase

    def phases(T, basis, vstat, m, N, cost_row, *args, **keywords):
        rows.append(cost_row)
        return phase(T, basis, vstat, m, N, cost_row, *args, **keywords)

    monkeypatch.setattr(lp, "simplex_phase", phases)
    b = [1.0, 0.25, -0.35]
    out = feasibility(LpProblem(np.zeros(4), eq_rows=V.T, eq_rhs=b),
                      start=basis)
    assert out.status == "optimal" and rows == []
    assert out.basis.tolist() == basis.tolist()
    assert np.max(np.abs(V.T @ out.x - b)) <= 1e-12
    # the cold solve of the same LP runs phase one (cost row 3 + 1)
    feasibility(LpProblem(np.zeros(4), eq_rows=V.T, eq_rhs=b))
    assert rows == [4]
