"""LP problems shared by the simplex reference tests and the HiGHS oracle.

`lp.solve` takes a variable nonnegative or free; `boxed` writes any other
bound as an inequality row and keeps the problem as drawn, box and all,
for the oracles that take a box (HiGHS, brute force), which read it back
with `original`.  `random_lps` mixes every bound kind (nonnegative,
boxed, upper-only, free, shifted), `signed_zero_lps` are such problems with
-0.0 in place of some of their zeros and rows that are -0.0 throughout,
`tall_lps` have one structural column under 8 to 20 rows of mixed
magnitudes (a column sum taken in pairs rounds differently there),
`tied_lps` repeats and rescales rows so
the ratio test meets exact and near ties, `flip_lps` are boxes whose
optimum puts most coordinates on a bound, `default_bound_lps` keep every variable
in [0, inf) with and without negative right-hand sides, `infeasible_lps` and `unbounded_lps` end
in those verdicts, and `library_lps` records every problem the library
solves for steering-norm (on polytopes and on the inscribed disk polygon),
projective sigma-norm, strategy, facet-subproblem, universal-degree,
two-atom order and zonotope questions, plus cone-membership LPs on the
assemblage entries and measure atoms (feasible) and on a point outside V+
(infeasible).  Its facet subproblems are every facet LP of `c_mu`, from
`full_scan_c_mu`, the unscreened reference that `c_mu` must match; its
two-atom order LPs are `choquet_below`'s under a point mass, which
`dichotomic_below_exact` solves where mu's zonotope gauges have no closed
form, and every sign pattern's LP over the sigma-dual ball, from
`full_scan_dichotomic_below`, the reference for `dichotomic_below_exact`.
`lambda_degree` and `free_coefficient_unsteerable` are the two zonotope
LPs the library solved before both moved onto `choquet._cover_lp`, kept
as the references for `universal_degree`'s value and
`unsteerable_dichotomic`'s verdict.
"""

import functools
import itertools
import weakref
from dataclasses import replace

import numpy as np

from gptsteer import (bipartite, choquet, guards, lp, sampling, steering,
                      systems, tensors)
from gptsteer.lp import LpProblem

INF = np.inf

# each `boxed` problem's fields as drawn, box and all
_ORIGINALS = weakref.WeakKeyDictionary()


def boxed(objective, eq_rows=None, eq_rhs=None, ub_rows=None, ub_rhs=None,
          lower=None, upper=None):
    """The LP min objective . x  s.t.  the rows and lower <= x <= upper
    (default 0 and +inf), as an LpProblem over x >= 0 and free variables:
    a lower bound of 0 (either sign) or -inf stays, any other one, l_j,
    becomes the row -x_j <= -l_j and a finite upper bound u_j the row
    x_j <= u_j; those rows follow the inequality rows, the lower-bound
    rows first, each kind in variable order.  `original` gives back the
    fields as given."""
    c = np.asarray(objective, dtype=float)
    n = c.size
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, INF) if upper is None else np.asarray(upper,
                                                             dtype=float)
    A = np.zeros((0, n)) if ub_rows is None else np.asarray(ub_rows,
                                                            dtype=float)
    b = np.zeros(0) if ub_rhs is None else np.asarray(ub_rhs, dtype=float)
    kept = (lower == 0) | (lower == -INF)
    capped = upper < INF
    eye = np.eye(n)
    problem = LpProblem(
        c, eq_rows, eq_rhs,
        np.concatenate([A, -eye[~kept], eye[capped]]),
        np.concatenate([b, -lower[~kept], upper[capped]]),
        np.where(kept, lower, -INF))
    _ORIGINALS[problem] = dict(
        objective=c, eq_rows=problem.eq_rows, eq_rhs=problem.eq_rhs,
        ub_rows=A.reshape(-1, n), ub_rhs=b, lower=lower, upper=upper)
    return problem


def original(problem):
    """The fields a `boxed` problem was drawn with; for any other problem
    its own fields and upper bounds of +inf."""
    fields = _ORIGINALS.get(problem)
    if fields is None:
        fields = {k: getattr(problem, k) for k in (
            "objective", "eq_rows", "eq_rhs", "ub_rows", "ub_rhs", "lower")}
        fields["upper"] = np.full(problem.n_vars, INF)
    return fields


def _random_fields(rng, n, me, mu, integer):
    if integer:
        def draw(size):
            return rng.integers(-2, 3, size).astype(float)
    else:
        draw = rng.standard_normal
    kind = rng.integers(0, 5, n)   # 0 [0, inf) 1 [l, u] 2 (-inf, u] 3 free 4 [l, inf)
    lo = np.round(rng.uniform(-2, 0, n)) if integer else rng.uniform(-2, 0, n)
    hi = lo + (rng.integers(1, 3, n) if integer else rng.uniform(0.5, 2, n))
    lower = np.select([kind == 0, kind == 1, kind == 4], [0.0, lo, lo], -INF)
    upper = np.where((kind == 1) | (kind == 2), hi, INF)
    x0 = np.clip(rng.integers(-1, 2, n).astype(float) if integer
                 else rng.standard_normal(n), lower, upper)
    A_eq, A_ub = draw((me, n)), draw((mu, n))
    slack = rng.integers(0, 2, mu) if integer else rng.uniform(0, 1, mu)
    return [draw(n), A_eq, A_eq @ x0, A_ub, A_ub @ x0 + slack, lower, upper]


def random_lps(seed=0, count=120):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.integers(2, 9))
        out.append(boxed(*_random_fields(rng, n, int(rng.integers(0, 4)),
                                         int(rng.integers(1, 7)),
                                         integer=k % 2 == 0)))
    return out


def signed_zero_lps(seed=6, count=60):
    """Integer problems of `random_lps`'s kinds with about half their zero
    coefficients, right-hand sides and bounds written as -0.0, a row of
    -0.0 (right-hand side -0.0) added to the equalities or the
    inequalities of every other problem, and a column of -0.0 in every
    third."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.integers(2, 7))
        fields = _random_fields(rng, n, int(rng.integers(0, 3)),
                                int(rng.integers(1, 5)), integer=True)
        for a in fields:
            a[(a == 0) & (rng.random(a.shape) < 0.5)] = -0.0
        if k % 3 == 0:
            fields[1][:, 0] = fields[3][:, 0] = -0.0
        if k % 2 == 0:
            side = 1 if k % 4 == 0 else 3
            fields[side] = np.concatenate([fields[side], np.full((1, n), -0.0)])
            fields[side + 1] = np.append(fields[side + 1], -0.0)
        out.append(boxed(*fields))
    return out


def tall_lps(seed=8, count=20):
    """One variable, boxed or free, in 8 to 20 equality or inequality rows
    whose entries span twelve orders of magnitude."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        m = int(rng.integers(8, 21))
        a = (rng.standard_normal(m) * 10.0 ** rng.integers(-6, 7, m))[:, None]
        b = a[:, 0] * rng.uniform(-1, 1)
        bounds = ([-INF], [INF]) if k % 2 else ([-1.0], [1.0])
        rows = dict(eq_rows=a, eq_rhs=b) if k % 3 else dict(ub_rows=a,
                                                            ub_rhs=b)
        out.append(boxed([float(rng.choice([-1.0, 0.0, 1.0]))],
                         lower=bounds[0], upper=bounds[1], **rows))
    return out


def tied_lps(seed=1, count=40):
    """Rows repeated, scaled by 2 and 3, and nudged by 1e-12 relative."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 6))
        a = rng.integers(0, 3, (int(rng.integers(1, 4)), n)).astype(float)
        b = rng.integers(0, 3, a.shape[0]).astype(float)
        rows = np.concatenate([a, 2 * a, a, 3 * a, a])
        rhs = np.concatenate([b, 2 * b, b, 3 * b, b * (1 + 1e-12)])
        upper = np.where(rng.random(n) < 0.3, 1.0, INF)
        out.append(boxed(-rng.integers(0, 3, n).astype(float),
                         ub_rows=rows, ub_rhs=rhs, upper=upper))
    return out


def flip_lps(seed=2, count=20):
    """Maximize over a box under one loose budget row."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(3, 10))
        w = rng.uniform(0.5, 1.5, n)
        out.append(boxed(-rng.uniform(0.1, 1, n),
                         ub_rows=w[None, :], ub_rhs=[w.sum() - 0.7],
                         lower=-rng.uniform(0, 1, n),
                         upper=rng.uniform(0.5, 2, n)))
    return out


def default_bound_lps(seed=3, count=60):
    """Problems under the default bounds x >= 0, as every cone-membership
    LP is: equality rows only, inequality rows only, or both (by k % 3);
    rows of nonnegative entries, so that no right-hand side is negative,
    or signed rows (by k % 2); the lower bounds left out, or given as 0
    with some of them -0.0 (by k % 4); a nonnegative objective, or a
    signed one that may leave the LP unbounded.  Every seventh problem
    with nonnegative rows asks its first row for -1, so it is infeasible."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.integers(2, 7))
        me, mu = [(int(rng.integers(1, 4)), 0), (0, int(rng.integers(1, 4))),
                  (int(rng.integers(1, 3)), int(rng.integers(1, 3)))][k % 3]
        signed = k % 2 == 1
        draw = rng.standard_normal if signed else functools.partial(
            rng.uniform, 0.0, 2.0)
        x0 = rng.uniform(0, 1, n) * (rng.random(n) < 0.6)
        A_eq, A_ub = draw((me, n)), draw((mu, n))
        b_eq, b_ub = A_eq @ x0, A_ub @ x0 + rng.uniform(0, 1, mu)
        if not signed and k % 7 == 6:
            (b_eq if me else b_ub)[0] = -1.0
        bounds = {}
        if k % 4 == 0:
            bounds = dict(lower=np.where(rng.random(n) < 0.5, -0.0, 0.0))
        elif k % 4 == 1:
            bounds = dict(lower=np.zeros(n))
        objective = (rng.standard_normal(n) if k % 5 == 4
                     else rng.uniform(0, 1, n))
        out.append(LpProblem(objective, eq_rows=A_eq, eq_rhs=b_eq,
                             ub_rows=A_ub, ub_rhs=b_ub, **bounds))
    return out


def infeasible_lps():
    return [
        LpProblem(objective=[1.0, 1.0], eq_rows=[[1.0, 1.0], [1.0, 1.0]],
                  eq_rhs=[1.0, 2.0]),
        boxed([0.0, 0.0, 0.0], ub_rows=[[-1.0, -1.0, -1.0]], ub_rhs=[-3.5],
              upper=[1.0, 1.0, 1.0]),
        LpProblem(objective=[1.0, -1.0], eq_rows=[[1.0, -1.0]], eq_rhs=[3.0],
                  ub_rows=[[1.0, 0.0], [0.0, -1.0]], ub_rhs=[1.0, 0.0]),
        boxed([0.0, 1.0], eq_rows=[[1.0, 2.0]], eq_rhs=[-1.0],
              lower=[0.0, -INF], upper=[INF, -1.0],
              ub_rows=[[0.0, -1.0]], ub_rhs=[0.5]),
    ]


def unbounded_lps():
    return [
        LpProblem(objective=[-1.0, 0.0], ub_rows=[[1.0, -1.0]], ub_rhs=[1.0]),
        LpProblem(objective=[1.0, 1.0], eq_rows=[[1.0, -1.0]], eq_rhs=[0.0],
                  lower=[-INF, -INF]),
        boxed([0.0, -1.0, 0.0], ub_rows=[[1.0, -1.0, 1.0]], ub_rhs=[2.0],
              lower=[0.0, 0.0, -INF], upper=[1.0, INF, 3.0]),
    ]


def facet_subproblems(system, sigma, mu):
    """Every facet LP of `choquet.c_mu`, one per kept sigma-interval vertex,
    built as c_mu builds them and in its unscreened order."""
    Y = choquet._interval_vertices(system, sigma)
    d = system.dim
    ball = choquet._ball_epigraph(Y, mu.weights, mu.points)
    out = []
    for y in Y:
        facet = np.zeros((1, ball.n_vars))
        facet[0, :d] = y
        out.append(replace(ball, eq_rows=facet, eq_rhs=np.ones(1)))
    return out


def full_scan_c_mu(system, sigma, mu):
    """The variational constant by solving every facet LP, without floors:
    the reference the screened `choquet.c_mu` must match to the byte."""
    best = min(lp.optimum(p, "facet subproblem").value
               for p in facet_subproblems(system, sigma, mu))
    return min(max(best, 0.0), 1.0)


def full_scan_dichotomic_below(nu, mu):
    """The two-atom order decision by one LP per sign pattern eps: the least
    sum_j mu_j |<h, P_j>| - <h, t_eps> over the unit ball of the sigma base
    norm, a negative value refuting with its h, of sigma base norm one.
    The reference whose verdict `choquet.dichotomic_below_exact` must give
    (it solved these LPs itself where mu's gauges have no closed form)."""
    guards.expect(mu, choquet.SimpleMeasure,
                  guards.expect(nu, choquet.SimpleMeasure).system)
    system = nu.system
    Y = choquet._interval_vertices(system, nu.barycenter)
    ball = choquet._ball_epigraph(Y, mu.weights, mu.points)
    target = nu.weights[:, None] * nu.points
    d, k = system.dim, target.shape[0]
    best = np.inf
    best_h = None
    for tail in itertools.product((1.0, -1.0), repeat=k - 1):
        lin = -(np.array((1.0,) + tail) @ target)
        out = lp.optimum(replace(ball, objective=np.concatenate(
            [lin, mu.weights])), "order LP")
        if out.value < best:
            best, best_h = out.value, out.x[:d]
    if best >= -choquet.COINCIDENCE:
        return choquet.DichotomicBelowVerdict(True)
    h = system.functional(best_h)
    return choquet.DichotomicBelowVerdict(
        False, functional=h, margin=choquet._abs_gap(nu, mu, h))


def lambda_degree(system, sigma):
    """The universal degree by the LP with one lambda_i column per kept
    sigma-interval vertex Y_i: max s subject to s <= lambda_i, lambda_i Y_i
    = P^T (alpha_i - beta_i), alpha_i + beta_i <= mu, sum mu = 1 and P^T mu
    = sigma (the sum row is redundant).  The reference whose value
    `choquet.universal_degree`, built on `choquet._cover_lp`, must match
    within LP_GAP (1 + |value|)."""
    Y = choquet._interval_vertices(system, sigma)
    P = system.vertices
    (m, d), n = Y.shape, P.shape[0]
    k = 1 + 2 * n   # columns of block i: lambda_i, alpha_i, beta_i
    eq = np.zeros((m * d + 1 + d, 1 + n + m * k))
    ub = np.zeros((m + m * n, eq.shape[1]))
    ub[:m, 0] = 1.0
    ub[m:, 1:1 + n] = np.tile(-np.eye(n), (m, 1))
    for i in range(m):
        c = 1 + n + i * k
        ub[i, c] = -1.0
        eq[i * d:(i + 1) * d, c:c + k] = np.column_stack([Y[i], -P.T, P.T])
        ub[m + i * n:m + (i + 1) * n, c + 1:c + k] = np.tile(np.eye(n), 2)
    eq[m * d, 1:1 + n] = 1.0
    eq[m * d + 1:, 1:1 + n] = P.T
    lower = np.zeros(eq.shape[1])
    lower[0] = lower[1 + n::k] = -INF
    objective = np.zeros(eq.shape[1])
    objective[0] = -1.0
    return -lp.optimum(LpProblem(
        objective, eq_rows=eq, eq_rhs=np.concatenate(
            [np.zeros(m * d), [1.0], sigma.coords]),
        ub_rows=ub, ub_rhs=np.zeros(ub.shape[0]), lower=lower),
        "lambda degree LP").value


def free_coefficient_unsteerable(state):
    """Whether the dichotomic unsteerability LP with free zonotope
    coefficients t_ij, |t_ij| <= mu_j as 2n rows per target, is feasible:
    some vertex measure mu on B with barycenter sigma_B writes every S*(e)
    of A's non-unit interval extremes as sum_j t_ij rho_j.  The reference
    whose verdict `bipartite.unsteerable_dichotomic` must give."""
    es = bipartite._nonunit_extremes(state.system_a)
    V = state.system_b.vertices
    n, d = V.shape
    m = len(es)
    targets = np.array([state.coeffs.T @ e for e in es]).reshape(m, d)
    nvar = n * (1 + m)
    eq = np.zeros((d * (1 + m), nvar))
    eq[:d, :n] = V.T
    for i in range(m):
        eq[d * (i + 1):d * (i + 2), n * (i + 1):n * (i + 2)] = V.T
    rhs = np.concatenate([state.marginal_b.coords, targets.reshape(-1)])
    ub = np.zeros((2 * m * n, nvar))
    idx = np.arange(n)
    for i in range(m):
        top = 2 * n * i
        ub[top + idx, n * (i + 1) + idx] = 1.0
        ub[top + idx, idx] = -1.0
        ub[top + n + idx, n * (i + 1) + idx] = -1.0
        ub[top + n + idx, idx] = -1.0
    lower = np.concatenate([np.zeros(n), np.full(n * m, -INF)])
    return lp.feasibility(LpProblem(
        objective=np.zeros(nvar), eq_rows=eq, eq_rhs=rhs,
        ub_rows=ub, ub_rhs=np.zeros(2 * m * n),
        lower=lower)).status == "optimal"


@functools.lru_cache(maxsize=None)
def library_lps():
    """Every (problem, mode) the library solves for a few paper questions."""
    seen = []
    solve = lp.solve

    def record(problem, mode="float", **keywords):
        seen.append((problem, mode))
        return solve(problem, mode, **keywords)

    def members(points):
        # the membership LPs measures and conditional assemblages solved
        # before they decided on the cached facets
        for p in points:
            systems.cone_member(p.system, p)

    lp.solve = record
    try:
        rng = np.random.default_rng(3)
        for system in (systems.hypercube(2), systems.regular_polygon(5),
                       systems.cross_polytope(3)):
            for _ in range(2):
                t = sampling.random_steerable_leaning_tensor(rng, system, g=2)
                tensors.steering_norm(t)
                tensors.projective_norm_dichotomic(t)
                asm = steering.from_dichotomic_tensor(t)
                # the entries' membership LPs, which the assemblage inherits
                # from the tensor and so no longer solves
                for row in asm.entries:
                    for rho in row:
                        systems.cone_member(system, rho)
                steering.lhs_check(asm)
                state = bipartite.BipartiteState(tensors.embed_dichotomic(t))
                verdict = bipartite.unsteerable_dichotomic(state)
                if verdict.unsteerable:
                    members(p for _, p in verdict.model.atoms)
                else:
                    members(rho for row in bipartite.conditional_assemblage(
                        state, verdict.measurements).entries for rho in row)
            sigma = system.vector(system.vertices.mean(axis=0))
            systems.cone_member(system, -sigma)   # outside V+: infeasible
            mu = choquet.vertex_measure(system)
            members(p for _, p in mu.atoms)
            # every facet LP, of which c_mu solves those its floors admit
            full_scan_c_mu(system, sigma, mu)
            # the universal degree LP
            choquet.universal_degree(system, sigma)
        # two-atom order on the square: edge midpoints sit below the uniform
        # vertex measure (LP optimum 0), opposite vertices do not
        sq = systems.hypercube(2)
        uniform = choquet.vertex_measure(sq)
        members(p for _, p in uniform.atoms)
        for pair in (((1, 1, 0), (1, -1, 0)), ((1, 1, 1), (1, -1, -1))):
            nu = choquet.SimpleMeasure(tuple((0.5, sq.vector(p)) for p in pair))
            members(p for _, p in nu.atoms)
            # both pattern LPs of the reference
            full_scan_dichotomic_below(nu, uniform)
            # a point mass spans no zonotope: the order LP decides
            choquet.dichotomic_below_exact(nu, choquet.point_mass(sq.barycenter))
        # the steering-norm LP on the inscribed polygon, the first of the two
        # that `robustness` solves for a rank-2 tensor on the l2 disk
        disk = steering._disk_polygons()[0]
        tensors.steering_norm(tensors.DichotomicTensor.unchecked(
            disk.vector([1.0, 0.0, 0.0]),
            (disk.vector([0.0, 0.6, 0.2]), disk.vector([0.0, -0.3, 0.5]))))
    finally:
        lp.solve = solve
    return tuple(seen)
