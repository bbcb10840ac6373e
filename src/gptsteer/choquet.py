"""Simple measures on the state space and the Choquet order between them.

A simple measure is a finite convex combination of point masses on the
state space K.  One measure sits below another when every convex function
averages at least as high against the second; for simple measures this is
decided by an LP over response weights, and the Farkas dual of that LP is a
tuple of affine functionals violating the dual-order inequality, so both
answers come with a certificate.  Only the exact closed-form decision for
two-atom measures cross-checks the LP.

A measure's average of |<h, .>| is the support function of a zonotope, the
weighted sum of the segments [-P_j, P_j] over its atoms, whose facets are
spanned by subsets of the atoms; so its gauges have a closed form
(`_zonotope_gauges`).  For two-atom nu the order is zonotope membership: nu
sits below mu when each sign-pattern target of nu's weighted atoms has
gauge at most one in mu's zonotope.  The exact decision reads those gauges
with one relative tolerance and refutes with the normal that attains the
largest, solving no LP; where the gauges have no closed form it takes the
verdict of the response-weight LP.

The same machinery yields the variational constant attached to a measure:
the minimum of the measure's average of |<h, .>| over the unit sphere of
the sigma base norm.  That constant lower-bounds the steering robustness of
every assemblage with barycenter sigma; its largest value over boundary
measures with barycenter sigma, the universal steering degree, is one LP
with a certificate each way (`universal_degree`): the largest s with s
times each interval vertex in the zonotope of a vertex measure, a zonotope
cover (`_cover_lp`, checked by `_check_cover`) that also decides
`bipartite.unsteerable_dichotomic`.  The constant is the least of one LP
per facet of the sphere, and each facet has a closed-form floor, one over
the zonotope gauge of the facet's interval vertex: the minimum over the
facet's whole hyperplane.  The smallest floor equals the constant, so
`c_mu` solves facets in order of increasing floor, stops once the floors
pass the best LP value, and checks that value against the smallest floor;
when the atoms do not span the space (the constant is 0) or have too many
subsets, every facet LP is solved.
"""

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import guards, kernels, lp, systems, tensors
from .errors import (InvalidInput, NotASymmetry, NotDichotomic,
                     NumericalFailure)
from .tolerances import CERTIFICATE, COINCIDENCE, LP_GAP, RECONSTRUCTION


@dataclass(frozen=True, eq=False)
class SimpleMeasure:
    """Convex combination of point masses: atoms are (weight, state) pairs.

    Weights are nonnegative and sum to one; every state lies in V+ with
    unit pairing one.  Membership is decided with one `systems.in_cone` on
    the stacked atoms (closed form on balls), so construction solves no LP;
    `BoundaryMeasure`, `vertex_measure`, `point_mass` and the samplers
    inherit that.  The barycenter is computed once at construction.
    """

    atoms: tuple

    def __post_init__(self):
        pairs = "atoms must be (weight, point) pairs"
        try:
            atoms = tuple((guards.real_float(w, pairs), p)
                          for (w, p) in guards.items(
                              self.atoms, "measure needs at least one atom"))
        except (TypeError, ValueError) as exc:
            raise InvalidInput(pairs) from exc
        system = guards.expect(atoms[0][1], systems.Vector,
                               name="atom 0 point").system
        total = 0.0
        for j, (w, p) in enumerate(atoms):
            guards.expect(p, systems.Vector, system, f"atom {j} point")
            if not w >= -1e-12:   # NaN fails too
                raise InvalidInput(f"atom {j} weight must be nonnegative")
            if abs(systems.pair(system.unit_functional, p) - 1.0) > COINCIDENCE:
                raise InvalidInput(f"atom {j} point is not normalized")
            total += w
        inside = systems.in_cone(system, np.array([p.coords for _, p in atoms]))
        if not inside.all():
            raise InvalidInput(f"atom {int(np.argmin(inside))} point is outside V+")
        if abs(total - 1.0) > RECONSTRUCTION:
            raise InvalidInput("atom weights must sum to one")
        bary = np.zeros(system.dim)
        for w, p in atoms:
            bary = bary + w * p.coords
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_barycenter", system.vector(bary))

    @property
    def system(self):
        return self.atoms[0][1].system

    @property
    def barycenter(self):
        return self._barycenter

    @property
    def weights(self):
        return np.array([w for w, _ in self.atoms])

    @property
    def points(self):
        """Atom states as rows, aligned with `weights`."""
        return np.array([p.coords for _, p in self.atoms])


class BoundaryMeasure(SimpleMeasure):
    """Simple measure supported on the vertex set of a polytopic system."""

    def __post_init__(self):
        super().__post_init__()
        system = self.system
        systems.require_polytopic(system)
        for j, (_, p) in enumerate(self.atoms):
            gap = np.max(np.abs(system.vertices - p.coords), axis=1)
            if float(np.min(gap)) > COINCIDENCE:
                raise InvalidInput(f"atom {j} point is not a vertex")


def point_mass(rho):
    """The measure concentrated at a single state."""
    return SimpleMeasure(((1.0, rho),))


def vertex_measure(system, weights=None):
    """Boundary measure on the full vertex set; uniform unless weighted."""
    systems.require_polytopic(system)
    n = system.n_vertices
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = guards.float_array(
            weights, "weights must list one entry per vertex").reshape(-1)
        if w.shape[0] != n:
            raise InvalidInput("weights must list one entry per vertex")
    return BoundaryMeasure(
        tuple((float(wi), system.vector(v)) for wi, v in zip(w, system.vertices)))


def _barycenter_gap(nu, mu):
    return float(np.max(np.abs(nu.barycenter.coords - mu.barycenter.coords)))


def _dual_gap(nu, mu, gs):
    """lhs - rhs of the dual-order inequality for a functional tuple.

    Positive gap refutes nu below mu: the tuple pairs higher against nu's
    atoms than its pointwise maximum averages against mu.
    """
    G = np.array([g.coords for g in gs])
    lhs = float(np.sum(nu.weights * np.einsum("ad,ad->a", G, nu.points)))
    rhs = float(mu.weights @ np.max(G @ mu.points.T, axis=0))
    return lhs - rhs


def _abs_gap(nu, mu, h):
    """lhs - rhs of the two-atom (absolute value) form for a single h."""
    lhs = float(nu.weights @ np.abs(nu.points @ h.coords))
    rhs = float(mu.weights @ np.abs(mu.points @ h.coords))
    return lhs - rhs


@dataclass(frozen=True, eq=False)
class ChoquetVerdict:
    """Outcome of choquet_below.

    When nu sits below mu, `responses` holds the weights q[a, j] splitting
    mu's atoms among nu's.  Otherwise `functionals` is a tuple g_1..g_k
    violating
        sum_a nu_a <g_a, point_a>  <=  sum_j mu_j max_a <g_a, point_j>
    by `violation`.
    """

    below: bool
    responses: Optional[np.ndarray] = None
    functionals: Optional[tuple] = None
    violation: Optional[float] = None


def _refuted(nu, mu, gs):
    gap = _dual_gap(nu, mu, gs)
    if not gap > 0.0:
        raise NumericalFailure("refutation certificate lost its violation")
    return ChoquetVerdict(False, functionals=tuple(gs), violation=gap)


def choquet_below(nu, mu):
    """Decide whether nu sits below mu in the Choquet order.

    Feasibility of response weights q(a|j) >= 0 with sum_a q(a|j) = 1 and
    sum_j mu_j q(a|j) point_j = nu_a point_a decides the order for simple
    measures; an infeasibility certificate reshapes into a violating
    functional tuple.  Measures with different barycenters are never
    ordered, so that case short-circuits to a refutation.
    """
    guards.expect(mu, SimpleMeasure, guards.expect(
        nu, SimpleMeasure, name="nu").system, "mu")
    if _barycenter_gap(nu, mu) > RECONSTRUCTION:
        # the difference direction, used for every slot, already violates
        # the dual inequality at the affine level
        diff = nu.barycenter.coords - mu.barycenter.coords
        h = nu.system.functional(diff / np.linalg.norm(diff))
        return _refuted(nu, mu, (h,) * len(nu.atoms))
    k, n, d = len(nu.atoms), len(mu.atoms), nu.system.dim
    weighted_mu = mu.weights[:, None] * mu.points
    target = nu.weights[:, None] * nu.points
    A = np.zeros((n + k * d, k * n))
    for j in range(n):
        A[j, j::n] = 1.0
    for a in range(k):
        A[n + a * d:n + (a + 1) * d, a * n:(a + 1) * n] = weighted_mu.T
    b = np.concatenate([np.ones(n), target.reshape(-1)])
    out = lp.feasibility(lp.LpProblem(np.zeros(k * n), eq_rows=A, eq_rhs=b))
    if out.status == "optimal":
        q = out.x.reshape(k, n)
        if float(np.max(np.abs(q.sum(axis=0) - 1.0))) > CERTIFICATE:
            raise NumericalFailure("response weights do not sum to one")
        recon = np.einsum("aj,jd->ad", q, weighted_mu)
        if float(np.max(np.abs(recon - target))) > CERTIFICATE:
            raise NumericalFailure("responses fail to reconstruct the atoms")
        return ChoquetVerdict(True, responses=q)
    y = out.dual_eq
    H = y[n:].reshape(k, d)
    scale = max(1.0, float(np.max(np.abs(H))))
    gs = [nu.system.functional(H[a] / scale) for a in range(k)]
    return _refuted(nu, mu, gs)


def co_norm_max(system, sigma, h):
    """Sigma base norm of h with a maximizing two-atom measure.

    The norm LP's achiever y* splits sigma into halves (sigma +- y*)/2;
    normalizing them gives a measure whose |<h, .>| average equals the
    norm, and no measure with barycenter sigma averages higher.
    """
    unit = guards.expect(sigma, systems.Vector, system).system.unit_functional
    if abs(systems.pair(unit, sigma) - 1.0) > COINCIDENCE:
        raise InvalidInput("sigma must be normalized")
    value, y = systems.sigma_base_norm(system, h, sigma)
    atoms = []
    for s in (1.0, -1.0):
        half = 0.5 * (sigma + s * y)
        w = systems.pair(unit, half)
        if w > 1e-12:
            atoms.append((w, (1.0 / w) * half))
    if not atoms:
        raise NumericalFailure("norm decomposition produced no mass")
    measure = SimpleMeasure(tuple(atoms))
    avg = sum(w * abs(systems.pair(h, p)) for w, p in measure.atoms)
    if abs(avg - value) > CERTIFICATE * (1.0 + abs(value)):
        raise NumericalFailure("maximizing measure misses the norm value")
    return value, measure


def _interval_vertices(system, sigma):
    """One representative per mirror pair of order-interval vertices.

    The interval [-sigma, sigma] is centrally symmetric and the minimized
    objectives are even, so the facet scan may drop one of each +-y pair
    (the h -> -h reflection maps the mirrored facet problem onto the kept
    one); the ball rows |<h, y>| <= 1 are the same for y and -y.
    """
    systems.assert_interior(system, sigma)
    guards.check("cmu_dim", system.dim)
    Y = tensors.sigma_interval_vertices(system, sigma)
    return Y[systems.mirror_representatives(Y)]


def _ball_epigraph(Y, weights, P):
    """LP minimizing  sum_j weights_j |<h, P_j>|  over the sigma-dual ball
    |<h, Y_k>| <= 1, with epigraph variables t_j bounding the absolute
    values; variables are (h, t), h free and t nonnegative."""
    m, d = Y.shape
    n = P.shape[0]
    ub = np.zeros((2 * n + 2 * m, d + n))
    ub[:n, :d] = P
    ub[:n, d:] = -np.eye(n)
    ub[n:2 * n, :d] = -P
    ub[n:2 * n, d:] = -np.eye(n)
    ub[2 * n:2 * n + m, :d] = Y
    ub[2 * n + m:, :d] = -Y
    rhs = np.concatenate([np.zeros(2 * n), np.ones(2 * m)])
    lower = np.concatenate([np.full(d, -np.inf), np.zeros(n)])
    return lp.LpProblem(np.concatenate([np.zeros(d), weights]),
                        ub_rows=ub, ub_rhs=rhs, lower=lower)


def _zonotope_gauges(weights, P, T):
    """Gauges ||T_i||_Z of the rows of T and maximizers, or None where no
    closed form applies.

    f(h) = sum_j w_j |<h, P_j>| is the support function of the zonotope
    Z = sum_j w_j [-P_j, P_j], so ||t||_Z = max{<h, t> : f(h) <= 1}.  When
    the atoms of positive weight span R^d, {f <= 1} is a polytope whose
    vertices are u / f(u) over the normals u of the hyperplanes spanned by
    (d-1)-subsets of atoms, so the gauge is the largest |<u, t>| / f(u).  A
    repeated atom spans no new hyperplane, so the subsets run over the
    distinct atoms, first occurrences in their original order.  Row i of
    the maximizers is u / f(u) for the first u attaining gauge i.  None
    when the atoms span no more than a hyperplane ({f <= 1} is unbounded)
    or when the C(n, d-1) subsets of the distinct ones pass
    kernels.ROW_CAP.
    """
    live = weights > 0
    P, w = P[live], weights[live]
    D = np.array(list({p.tobytes(): p for p in P}.values()))
    if math.comb(D.shape[0], D.shape[1] - 1) > kernels.ROW_CAP:
        return None
    Dn = D / np.linalg.norm(D, axis=1, keepdims=True)
    U = kernels.subset_normals(Dn)
    if not U.size or not float(np.max(np.abs(U @ Dn.T))) > COINCIDENCE:
        return None
    # spanning atoms leave no normal orthogonal to all of them: f(u) > 0
    f = np.abs(U @ P.T) @ w
    ratios = np.abs(U @ T.T) / f[:, None]
    best = np.argmax(ratios, axis=0)
    return ratios[best, np.arange(T.shape[0])], U[best] / f[best, None]


def c_mu(system, sigma, mu):
    """Minimum of the mu-average of |<h, .>| over the unit sphere of the
    sigma base norm.

    The sphere bounds the polar of the order interval [-sigma, sigma], so
    its facets pair with the interval's vertices Y_i at one; the minimum
    over each facet is an LP with epigraph variables for the absolute
    values, one facet per mirror pair.  The measure must have barycenter
    sigma, which caps the result at one.

    Before any LP, each facet gets a floor, one over the zonotope gauge of
    Y_i (`_zonotope_gauges`): the closed-form minimum of the same objective
    over its whole hyperplane <h, Y_i> = 1, so a lower bound on the facet
    LP, and since every h on that hyperplane has sigma base norm at least
    one, the smallest floor is c_mu itself.  Facets are solved in order of
    increasing floor (stable), and the scan stops at the first floor above
    best + 2 LP_GAP (1 + |best|): every facet skipped has an LP value above
    the minimum so far, and a float min does not depend on order, so the
    value is the full scan's, to the byte.  The LP minimum
    must agree with the smallest floor within CERTIFICATE (1 + |best|),
    else NumericalFailure.  Without floors (atoms spanning no more than a
    hyperplane, or too many atom subsets) every facet is solved.
    """
    guards.expect(mu, SimpleMeasure, systems.require_polytopic(system),
                  "measure")
    Y = _interval_vertices(system, sigma)
    if float(np.max(np.abs(mu.barycenter.coords - sigma.coords))) > RECONSTRUCTION:
        raise InvalidInput("measure barycenter must equal sigma")
    d = system.dim
    w, P = mu.weights, mu.points
    ball = _ball_epigraph(Y, w, P)
    gauges = _zonotope_gauges(w, P, Y)
    if gauges is None:
        floors, order = None, range(Y.shape[0])
    else:
        floors = 1.0 / gauges[0]
        order = np.argsort(floors, kind="stable").tolist()
    best = math.inf
    for i in order:
        if floors is not None and floors[i] > best + 2 * LP_GAP * (1 + abs(best)):
            break   # this facet and every later one has its LP above best
        facet = np.zeros((1, ball.n_vars))
        facet[0, :d] = Y[i]
        out = lp.optimum(replace(
            ball, eq_rows=facet, eq_rhs=np.ones(1)), "facet subproblem")
        best = min(best, out.value)
    if floors is not None:
        floor = float(floors.min())
        if abs(best - floor) > CERTIFICATE * (1 + abs(best)):
            raise NumericalFailure(
                f"facet minimum {best} misses the zonotope floor {floor}")
    if best < -COINCIDENCE or best > 1.0 + COINCIDENCE:
        raise NumericalFailure(f"variational constant {best} escaped [0, 1]")
    return min(max(best, 0.0), 1.0)


def _cover_lp(P, sigma, targets, scaled):
    """LP for a vertex measure mu with barycenter sigma whose zonotope
    sum_j mu_j [-P_j, P_j] holds each row T_i of targets (s T_i for the
    largest s when scaled).  Columns, all nonnegative: mu, alpha_i and
    beta_i per target, then s when scaled, with objective -s; rows P^T mu
    = sigma, P^T (alpha_i - beta_i) = T_i (or s T_i) and alpha_i + beta_i
    <= mu.  No sum mu = 1 row: <unit, sigma> = 1 implies it."""
    n, d = P.shape
    m = targets.shape[0]
    eq = np.zeros((d * (1 + m), n * (1 + 2 * m) + scaled))
    ub = np.zeros((m * n, eq.shape[1]))
    eq[:d, :n] = P.T
    ub[:, :n] = np.tile(-np.eye(n), (m, 1))
    for i in range(m):
        c = n * (1 + 2 * i)
        eq[d * (1 + i):d * (2 + i), c:c + 2 * n] = np.hstack([P.T, -P.T])
        ub[n * i:n * (i + 1), c:c + 2 * n] = np.tile(np.eye(n), 2)
    objective = np.zeros(eq.shape[1])
    if scaled:
        eq[d:, -1] = -targets.reshape(-1)
        objective[-1] = -1.0
    rhs = np.concatenate([sigma, np.zeros(m * d) if scaled
                          else targets.reshape(-1)])
    return lp.LpProblem(objective, eq_rows=eq, eq_rhs=rhs, ub_rows=ub,
                        ub_rhs=np.zeros(m * n))


def _check_cover(P, weights, sigma, targets, t):
    """NumericalFailure unless weights on the vertices P_j have barycenter
    sigma and row i of t writes target T_i as sum_j t_ij P_j with |t_ij| <=
    weights_j, which puts T_i in their zonotope."""
    if not np.all(np.abs(weights @ P - sigma) <= CERTIFICATE):
        raise NumericalFailure("model barycenter drifted from sigma")
    if not np.all(np.abs(t @ P - targets) <= CERTIFICATE):
        raise NumericalFailure("zonotope coefficients miss their targets")
    if not np.all(np.abs(t) - weights <= CERTIFICATE):
        raise NumericalFailure("zonotope coefficients exceed the weights")


def universal_degree(system, sigma=None):
    """Universal steering degree at sigma (default the vertex barycenter),
    the largest c_mu over boundary measures with barycenter sigma, as
    (value, a measure attaining it).

    c_mu(mu) >= s iff s Y_i lies in the zonotope of mu for each kept
    interval vertex Y_i (the sigma sphere lies on the hyperplanes <h, +-Y_i>
    = 1), so the degree is the largest s of `_cover_lp` over the Y_i.  Both
    certificates are checked within CERTIFICATE (1 + value), else
    NumericalFailure.  Below: t = alpha - beta is a zonotope model
    (`_check_cover`) of value Y_i under mu* = x_mu.  Above: the
    duals give h_i with sum_i <h_i, Y_i> = 1 and a linear A with sum_i
    |<h_i, v>| <= A(v) on every vertex and A(sigma) = value; since sum_i
    |<h_i, Y_i>| >= 1, each mu with barycenter sigma has c_mu(mu) <= sum_i
    f_mu(h_i) <= mu(A) = value, f_mu being the mu-average of |<h, .>|.
    """
    systems.require_polytopic(system)
    sigma = system.barycenter if sigma is None else sigma
    Y = _interval_vertices(system, sigma)
    if abs(systems.pair(system.unit_functional, sigma) - 1.0) > COINCIDENCE:
        raise InvalidInput("sigma must be normalized")
    P = system.vertices
    (m, d), n = Y.shape, P.shape[0]
    out = lp.optimum(_cover_lp(P, sigma.coords, Y, scaled=True),
                     "universal degree LP")
    value = -out.value
    tol = CERTIFICATE * (1 + abs(value))
    A = -out.dual_eq[:d]
    H = out.dual_eq[d:].reshape(m, d)
    excess = tensors.local_bound(P, [(h, -h) for h in H]) - P @ A
    if (abs(np.einsum("id,id->", H, Y) - 1.0) > tol or excess.max() > tol
            or abs(A @ sigma.coords - value) > tol):
        raise NumericalFailure("universal degree dual certificate fails")
    ab = out.x[n:-1].reshape(m, 2, n)
    weights = out.x[:n]
    _check_cover(P, weights, sigma.coords, value * Y, ab[:, 0] - ab[:, 1])
    if value < -COINCIDENCE or value > 1.0 + COINCIDENCE:
        raise NumericalFailure(f"universal degree {value} escaped [0, 1]")
    return min(max(value, 0.0), 1.0), vertex_measure(system, weights)


@dataclass(frozen=True)
class DichotomicBelowVerdict:
    """Outcome of the exact two-atom order decision; a refutation carries a
    functional h whose nu-average of |<h, .>| beats the mu-average by
    `margin`.  From the zonotope gauges h has mu-average one, so `margin`
    is the largest gauge minus one; from `choquet_below`'s refutation h is
    half the difference of its two functionals."""

    below: bool
    functional: Optional[systems.Functional] = None
    margin: Optional[float] = None


def dichotomic_below_exact(nu, mu):
    """Exact Choquet-order decision for nu with at most two atoms.

    For two-atom nu the order is equivalent to the mu-average f of
    |<h, .>| dominating the nu-average for every h.  nu's side is the
    maximum over sign patterns eps of <h, t_eps>, t_eps = eps . (nu_a
    point_a), and eps and -eps are exchanged by h -> -h, so fixing
    eps_1 = +1 leaves at most two targets.  f is the support function of
    the zonotope Z = sum_j mu_j [-P_j, P_j], so the least f(h) - <h, t_eps>
    over f(h) = 1 is 1 - g_eps, g_eps = ||t_eps||_Z the gauge from
    `_zonotope_gauges`, and nu sits below mu exactly when every g_eps <= 1.
    The decision accepts 1 - g_eps >= -COINCIDENCE, a tolerance relative
    to Z (the all-plus target is sigma, of gauge one up to rounding).  A
    refutation's functional is h = u / f(u) for the subset normal u
    attaining the largest gauge, the first such normal of the first such
    pattern in `itertools.product` order, so f(h) = 1 and `margin` is that
    gauge minus one, up to rounding.  No LP is solved, and h is not
    rescaled to sigma base norm one (that norm is an LP).

    Where the gauges have no closed form (mu's atoms span no more than a
    hyperplane, or have too many subsets), the verdict is `choquet_below`'s,
    from its one LP.  A one-atom nu at mu's barycenter sits below mu
    (Jensen); a two-atom refutation's tuple (g_1, g_2) becomes h = (g_1 -
    g_2) / 2, since max(g_1, g_2) = m + |h| with m = (g_1 + g_2) / 2, so
    h's gap is at least the tuple's violation, up to the barycenter
    mismatch.  Either way the returned margin is the gap at h, which must
    be positive, else NumericalFailure.
    """
    guards.expect(mu, SimpleMeasure, guards.expect(
        nu, SimpleMeasure, name="nu").system, "mu")
    if len(nu.atoms) > 2:
        raise NotDichotomic("exact order check needs at most two atoms")
    if _barycenter_gap(nu, mu) > RECONSTRUCTION:
        raise InvalidInput("the two-atom characterization needs a common "
                           "barycenter")
    target = nu.weights[:, None] * nu.points
    T = np.array([(1.0,) + tail for tail in itertools.product(
        (1.0, -1.0), repeat=target.shape[0] - 1)]) @ target
    gauges = _zonotope_gauges(mu.weights, mu.points, T)
    if gauges is not None:
        i = int(np.argmax(gauges[0]))
        if 1.0 - gauges[0][i] >= -COINCIDENCE:
            return DichotomicBelowVerdict(True)
        h = nu.system.functional(gauges[1][i])
    else:
        verdict = choquet_below(nu, mu)
        if verdict.below:
            return DichotomicBelowVerdict(True)
        g = verdict.functionals
        h = 0.5 * (g[0] - g[-1])
    margin = _abs_gap(nu, mu, h)
    if not margin > 0.0:
        raise NumericalFailure("exact order check lost its violation")
    return DichotomicBelowVerdict(False, functional=h, margin=margin)


# Sample rows normalized per step in `c_mu_monte_carlo`: the step's
# temporaries stay a few blocks of rows, not copies of the whole sample.
SPHERE_BLOCK = 4096


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Estimate of the variational constant for the sphere-uniform measure
    on a ball system, with the analytic value of the sphere's first
    absolute moment for reference."""

    value: float
    stderr: float
    reference: float
    samples: int
    seed: int


def c_mu_monte_carlo(system=None, sigma=None, samples=100000, seed=0):
    """Monte Carlo variational constant of the l2 ball with sphere-uniform
    measure.

    Samples the sphere, scans a grid of unit functionals (the sigma base
    norm here is max(|t|, ||phi||_2)), and refines the best one by
    coordinate descent on the sample average of |<h, .>|.  A functional's
    score is one matrix-vector product with the samples, shifted by h[0]
    and taken in absolute value in place; scores are memoized by the
    functional's bytes within one call, since the descent revisits points
    (253 evaluations, 217 distinct, on the 3-ball with seed 1).  The
    reference value E|x_1| = Gamma(n/2) / (sqrt(pi) Gamma((n+1)/2)) is the
    exact constant for every ball dimension n (`_sphere_abs_mean`).

    One descent sweep scores 2(n + 1) functionals at samples * n
    multiply-adds each; that work is checked against the `mc_sweep` guard
    before anything is drawn.  The sample is one (samples, n) buffer: the
    Gaussian draw is normalized onto the sphere in place, SPHERE_BLOCK rows
    at a time, with the sum of squares and square root `np.linalg.norm`
    computes on a real array (on the segment, n = 1, each row becomes the
    sign of its draw, +1 at zero), and the final pass computes the winning
    functional's absolute values in place in one column and releases the
    sample before their standard deviation.  The traced peak is then about
    1 + 1/n times the sample's size (a score's column beside the sample);
    the values are those of a separately normalized copy, byte for byte.
    """
    if system is None:
        system = systems.ball(3)
    guards.expect(system, systems.GptSystem)
    if system.kind != systems.CENTRALLY_SYMMETRIC or system.ball_norm != "l2":
        raise InvalidInput("the Monte Carlo constant is specialized to the "
                           "l2 ball")
    if sigma is not None and not systems.is_center(system, sigma):
        raise InvalidInput("sigma must be the center of the ball")
    samples = int(guards.count(
        samples, 2, "samples must be an integer of at least 2"))
    guards.count(seed, 0, "seed must be a nonnegative integer")
    n = system.dim - 1
    guards.check("mc_sweep", samples * n * 2 * (n + 1))
    rng = np.random.default_rng(seed)
    with guards.allocation(f"{samples} samples"):
        U = rng.standard_normal((samples, n))
        for row in range(0, samples, SPHERE_BLOCK):
            block = U[row:row + SPHERE_BLOCK]
            if n == 1:
                negative = block < 0.0
                block.fill(1.0)
                block[negative] = -1.0
            else:
                block /= np.sqrt(np.add.reduce(block * block, axis=1,
                                               keepdims=True))

    scores = {}

    def score(h):
        key = h.tobytes()
        val = scores.get(key)
        if val is None:
            v = U @ h[1:]
            v += h[0]
            val = scores[key] = float(np.mean(np.abs(v, out=v)))
        return val

    def normalized(h):
        nrm = max(abs(h[0]), float(np.linalg.norm(h[1:])))
        return h / nrm if nrm > 1e-12 else None

    cands = []
    for t in np.linspace(0.0, 1.0, 6):
        edge = np.zeros(n + 1)
        edge[0], edge[1] = t, 1.0
        cands.append(edge.copy())
        edge[0], edge[1] = 1.0, t
        cands.append(edge)
    best = min(cands, key=score)
    best_val = score(best)
    step = 0.25
    while step > 1e-4:
        moved = False
        for j in range(n + 1):
            for s in (step, -step):
                trial = best.copy()
                trial[j] += s
                trial = normalized(trial)
                if trial is None:
                    continue
                val = score(trial)
                if val < best_val - 1e-12:
                    best, best_val, moved = trial, val, True
        if not moved:
            step *= 0.5
    vals = U @ best[1:]
    del U, block
    vals += best[0]
    stderr = float(np.abs(vals, out=vals).std(ddof=1)) / math.sqrt(samples)
    return MonteCarloEstimate(best_val, stderr, _sphere_abs_mean(n), samples,
                              seed)


def _sphere_abs_mean(n):
    """E|x_1| on the unit sphere of R^n, Gamma(n/2) / (sqrt(pi)
    Gamma((n+1)/2)); through lgamma where gamma overflows (n >= 343)."""
    try:
        return math.gamma(n / 2.0) / (math.sqrt(math.pi)
                                      * math.gamma((n + 1) / 2.0))
    except OverflowError:
        return math.exp(math.lgamma(n / 2.0) - math.lgamma((n + 1) / 2.0)) \
            / math.sqrt(math.pi)


def symmetrize(mu, group):
    """Uniform average of mu's pushforwards under a list of symmetries.

    Every map must permute the state-space vertices; coincident image atoms
    are merged.  Pass a full group (closure is not checked) to make the
    output invariant; vertex support survives, so a BoundaryMeasure stays
    one.
    """
    system = guards.expect(mu, SimpleMeasure).system
    maps = [guards.float_array(T, "a symmetry must be a matrix of real numbers")
            for T in guards.items(group,
                                  "group must contain at least one map")]
    for T in maps:
        if not systems.is_symmetry(system, T):
            raise NotASymmetry("map does not permute the state-space vertices")
    share = 1.0 / len(maps)
    points, weights = [], []
    for T in maps:
        for w, p in mu.atoms:
            img = T @ p.coords
            for i, q in enumerate(points):
                if float(np.max(np.abs(q - img))) <= COINCIDENCE:
                    weights[i] += share * w
                    break
            else:
                points.append(img)
                weights.append(share * w)
    cls = BoundaryMeasure if isinstance(mu, BoundaryMeasure) else SimpleMeasure
    return cls(tuple((w, system.vector(p)) for w, p in zip(weights, points)))
