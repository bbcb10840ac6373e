"""Bipartite states on the maximal tensor product and their steering maps.

A bipartite state is a tensor element normalized against the product
unit.  Measuring one party conditions the other party's state; the
family of conditioned states over a collection of measurements is an
assemblage, and the state is unsteerable for a class of measurements
when a single local model explains every assemblage the class produces.

For dichotomic measurements unsteerability admits an exact finite test:
it holds iff some vertex-supported measure mu with barycenter sigma_B
satisfies

    ||S(h)||_{V_A}  <=  sum_j mu_j |<h, rho_j>|    for every h on B,

where S is the steering map toward party A.  The right side is the
support function of the zonotope with generators mu_j rho_j, so the
condition says that the adjoint image S*(e) of every extreme point e of
the order interval [-unit_A, unit_A] lies in that zonotope.  Both e and -e
are extreme, and the zonotope is symmetric, so one representative per
+-pair (`systems.interval_extremes`) is enough.  The joint
search over mu and the memberships is one LP, the zonotope cover
`choquet._cover_lp` (coefficients t = alpha - beta, alpha + beta <= mu),
and a Farkas certificate of infeasibility converts into dichotomic
measurements on A whose conditional assemblage provably steers.

`unsteerable_sufficient` is a one-sided test from a lower bound on the
steering degree of sigma_B: one vertex search over the polytope cut by the
half-spaces |<h, y>| <= 1/s of B's sigma-interval vertices y, again one
per +-pair.
"""

import itertools
import math

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import choquet, geometry, guards, lp, steering, systems, tensors
from .errors import (
    InvalidInput, MarginalNotInterior, NotInterior, NumericalFailure)
from .tolerances import CERTIFICATE, COINCIDENCE

A_TO_B = "a_to_b"
B_TO_A = "b_to_a"


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Normalized element of the maximal tensor product of two systems.

    Wraps a TensorElement whose pairing with unit_A tensor unit_B is one
    and which pairs nonnegatively with every product of effects.  The
    membership test enumerates extreme effects, so both parties must be
    polytopic.  Marginals are cached at construction.
    """

    element: tensors.TensorElement

    def __post_init__(self):
        guards.expect(self.element, tensors.TensorElement)
        a, b = self.element.system_a, self.element.system_b
        systems.require_polytopic(a)
        systems.require_polytopic(b)
        c = self.element.coeffs
        total = float(a.unit @ c @ b.unit)
        if abs(total - 1.0) > COINCIDENCE:
            raise InvalidInput(
                "state is not normalized against the product unit")
        if not tensors.max_cone_member(self.element):
            raise InvalidInput(
                "state pairs negatively with a product of effects")
        object.__setattr__(self, "_marginal_a", a.vector(c @ b.unit))
        object.__setattr__(self, "_marginal_b", b.vector(c.T @ a.unit))

    @property
    def system_a(self):
        return self.element.system_a

    @property
    def system_b(self):
        return self.element.system_b

    @property
    def coeffs(self):
        return self.element.coeffs

    @property
    def marginal_a(self):
        return self._marginal_a

    @property
    def marginal_b(self):
        return self._marginal_b


def product_state(rho_a, rho_b):
    """The product of two normalized states as a bipartite state."""
    return BipartiteState(tensors.tensor_product(rho_a, rho_b))


def swapped(state):
    """The same state with the two parties exchanged."""
    guards.expect(state, BipartiteState)
    return BipartiteState(tensors.TensorElement(
        system_a=state.system_b, system_b=state.system_a,
        coeffs=state.coeffs.T))


@dataclass(frozen=True, eq=False)
class SteeringMap:
    """Linear map sending functionals on one party to vectors on the other.

    For direction "b_to_a" the defining identity reads
    <h_A, S(h_B)> = <h_A tensor h_B, state>; functionals that are
    positive and normalized on the source marginal land on states of
    the target system.
    """

    source: systems.GptSystem
    target: systems.GptSystem
    matrix: np.ndarray
    direction: str

    def __call__(self, h):
        guards.expect(h, systems.Functional, self.source)
        return self.target.vector(self.matrix @ h.coords)


def steering_map(state, direction=B_TO_A):
    """Steering map of a bipartite state in the given direction.

    "b_to_a" maps functionals on B into V_A and is the map bounded by
    the dichotomic unsteerability test; "a_to_b" sends measurement
    effects on A to the conditioned subnormalized states on B.  The
    source party's marginal must be interior so that its normalized
    positive functionals form a base of the dual cone.
    """
    guards.expect(state, BipartiteState)
    if direction == B_TO_A:
        source, target = state.system_b, state.system_a
        marginal, matrix = state.marginal_b, state.coeffs
    elif direction == A_TO_B:
        source, target = state.system_a, state.system_b
        marginal, matrix = state.marginal_a, state.coeffs.T
    else:
        raise InvalidInput('direction must be "a_to_b" or "b_to_a"')
    try:
        systems.assert_interior(source, marginal)
    except NotInterior as exc:
        raise MarginalNotInterior(
            f"source marginal for {direction} is not interior: {exc}")
    return SteeringMap(
        source=source, target=target, matrix=matrix, direction=direction)


def conditional_assemblage(state, measurements):
    """Assemblage produced on party B by measuring the given settings on A.

    Entry (a|x) pairs the effect f_{a|x} with the A side of the state.
    `BipartiteState` already guarantees every such entry lies in V+;
    `Assemblage` re-checks each with `systems.in_cone` (no LP) and verifies
    that the outcomes of every setting sum to the B marginal.
    """
    guards.expect(state, BipartiteState)
    meas = guards.items(measurements, "need at least one measurement")
    for x, m in enumerate(meas):
        guards.expect(m, systems.Measurement, state.system_a,
                      f"measurement {x}")
    b = state.system_b
    ct = state.coeffs.T
    return steering.Assemblage(barycenter=state.marginal_b, entries=tuple(
        tuple(b.vector(ct @ f.coords) for f in m.effects) for m in meas))


def _nonunit_extremes(system):
    """The interval extremes other than +-unit (either may represent its pair)."""
    E = systems.interval_extremes(system)
    u = system.unit
    return E[np.minimum(np.max(np.abs(E - u), axis=1),
                        np.max(np.abs(E + u), axis=1)) > COINCIDENCE]


def _require_interior_sigma_b(state):
    try:
        systems.assert_interior(state.system_b, state.marginal_b)
    except NotInterior as exc:
        raise MarginalNotInterior(f"sigma_B is not interior: {exc}")


@dataclass(frozen=True)
class UnsteerableVerdict:
    """Outcome of the dichotomic test, with a certificate either way.

    Unsteerable carries a vertex-supported model measure on B whose
    averaged absolute pairings dominate the steering map in every
    direction.  Steerable carries functionals on B (the Farkas dual
    directions) together with the dichotomic measurements on A whose
    conditional assemblage was verified to have no local model.
    """

    unsteerable: bool
    model: Optional[choquet.BoundaryMeasure] = None
    functionals: Optional[tuple] = None
    measurements: Optional[tuple] = None


def unsteerable_dichotomic(state):
    """Decide whether dichotomic measurements on A can steer party B.

    Feasibility of the zonotope LP described in the module docstring is
    decided exactly, with the unit extreme skipped: its inequality
    |<h, sigma_B>| <= sum_j mu_j |<h, rho_j>| holds automatically for
    any measure with barycenter sigma_B.  On the unsteerable side the
    zonotope coefficients t = alpha - beta are re-checked against the
    model (`choquet._check_cover`); on the steerable side the Farkas dual
    selects interval extremes on A, and the resulting measurements are
    certified by lhs_check (falling back to the full extreme family if
    rounding blurred the selection).  lhs_check may hit its own
    strategy-count guard for systems with many extreme effects.
    """
    guards.expect(state, BipartiteState)
    a, b = state.system_a, state.system_b
    _require_interior_sigma_b(state)
    guards.check("vertices", a.n_vertices)
    guards.check("vertices", b.n_vertices)
    es = _nonunit_extremes(a)
    guards.check("vertices", len(es))

    V = b.vertices
    n, d = V.shape
    m = len(es)
    targets = np.array([state.coeffs.T @ e for e in es]).reshape(m, d)
    sigma = state.marginal_b.coords
    out = lp.feasibility(choquet._cover_lp(V, sigma, targets, scaled=False))

    if out.status == "optimal":
        w = np.where(out.x[:n] > 1e-12, out.x[:n], 0.0)
        ab = out.x[n:].reshape(m, 2, n)
        choquet._check_cover(V, w, sigma, targets, ab[:, 0] - ab[:, 1])
        atoms = tuple((float(wj), b.vector(V[j]))
                      for j, wj in enumerate(w) if wj > 0.0)
        return UnsteerableVerdict(
            unsteerable=True, model=choquet.BoundaryMeasure(atoms))

    blocks = out.dual_eq[d:].reshape(m, d)
    scale = float(np.max(np.abs(blocks))) if m else 0.0
    if not np.isfinite(scale) or scale <= 1e-12:
        raise NumericalFailure("Farkas certificate carries no functional")
    live = [i for i in range(m)
            if float(np.max(np.abs(blocks[i]))) > COINCIDENCE * scale]
    full = list(range(m))
    for chosen in [live] if live == full else [live, full]:
        if not chosen:
            continue
        meas = tuple(
            systems.dichotomic_measurement(
                a, a.functional(0.5 * (a.unit + es[i])))
            for i in chosen)
        verdict = steering.lhs_check(conditional_assemblage(state, meas))
        if not verdict.classical:
            funs = tuple(b.functional(blocks[i] / scale) for i in chosen)
            return UnsteerableVerdict(
                unsteerable=False, functionals=funs, measurements=meas)
    raise NumericalFailure("steering certificate failed lhs_check")


def unsteerable_sufficient(state, s_lower):
    """One-sided unsteerability test from a steering-degree lower bound.

    When s_lower is a valid lower bound on the steering degree of
    sigma_B, some boundary measure achieves sum_j mu_j |<h, rho_j>| >=
    max(|<h, sigma_B>|, s_lower ||h||^{sigma_B}) in every direction h,
    so the state is unsteerable by dichotomic measurements if

        ||S(h)||_{V_A} <= max(|<h, sigma_B>|, s_lower ||h||^{sigma_B})

    for all h.  The first term in the max matters: without it the
    condition would fail at h = unit for every state, since S(unit) is
    the A marginal with base norm one.  The check is exact; the right
    side's unit sublevel set is a polytope and the left side is convex,
    so the maximum sits at one of the polytope's vertices.

    Both order intervals are read with one representative per +-pair.
    The polytope is |<h, y>| <= 1/s_lower and |<h, sigma_B>| <= 1, with y
    over `choquet._interval_vertices` of B (the sigma_B interval is
    centrally symmetric), so each half-space reaches the vertex search
    once.  The base norm of S(h) is the largest |<e, S(h)>| over
    `systems.interval_extremes` of A, read for every vertex h in one
    matrix product, no LP: `BipartiteState` has already enumerated A's
    extreme effects.

    `choquet.universal_degree(system_b, marginal_b)` is the largest valid
    s_lower.  True certifies unsteerability, False is inconclusive on its
    own.
    """
    guards.expect(state, BipartiteState)
    s = guards.real_float(s_lower,
                          "the degree lower bound must be a real number")
    if not 0.0 < s <= 1.0:
        raise InvalidInput("the degree lower bound must lie in (0, 1]")
    _require_interior_sigma_b(state)
    Y = choquet._interval_vertices(state.system_b, state.marginal_b)
    sig = state.marginal_b.coords
    rows = np.vstack([Y, -Y, sig[None, :], -sig[None, :]])
    rhs = np.concatenate([np.full(2 * Y.shape[0], 1.0 / s), np.ones(2)])
    H = geometry.vertices_of_polytope(rows, rhs)
    E = systems.interval_extremes(state.system_a)
    norms = np.abs(E @ state.coeffs @ H.T).max(axis=0)
    return bool(np.all(norms <= 1.0 + CERTIFICATE))


@dataclass(frozen=True)
class SearchResult:
    """First steering family found, if any; never certifies unsteerability."""

    found: bool
    measurements: Optional[tuple] = None
    verdict: Optional[steering.LhsVerdict] = None
    tried: int = 0


def _axis_family(system, count):
    # Coordinate-direction projections; on a hypercube system these are
    # the canonical sharp dichotomies.
    meas = []
    for i in range(1, system.dim):
        axis = np.zeros(system.dim)
        axis[i] = 1.0
        f = system.functional(0.5 * (system.unit + axis))
        if systems.is_effect(system, f):
            meas.append(systems.dichotomic_measurement(system, f))
        if len(meas) == count:
            return tuple(meas)
    return None


def _extreme_families(system, count):
    meas = [systems.dichotomic_measurement(
        system, system.functional(0.5 * (system.unit + e)))
        for e in _nonunit_extremes(system)]
    return itertools.combinations(meas, count)


def steerability_search(state, shapes=(2, 2), sampler=None, budget=50,
                        seed=0):
    """Look for measurement families on A whose assemblage steers B.

    Deterministic candidates run first when every shape is dichotomic:
    the coordinate projections, then pairs drawn from the interval
    extremes.  After that, families come from `sampler` (a callable on
    the generator returning a measurement tuple; the default jitters
    random extreme effects).  Each candidate costs one lhs_check.  A hit
    returns the family together with the steering verdict; exhausting
    the budget is inconclusive, never a claim of unsteerability.
    """
    from . import sampling

    guards.expect(state, BipartiteState)
    guards.count(budget, 1, "budget must be an integer of at least 1")
    guards.count(seed, 0, "seed must be a nonnegative integer")
    if sampler is not None and not callable(sampler):
        raise InvalidInput("sampler must be callable")
    counts = "shapes must list outcome counts of at least 2"
    shape = guards.items(shapes, counts)
    if not all(guards.is_integer(k) and k >= 2 for k in shape):
        raise InvalidInput(counts)
    # every candidate's lhs_check holds this guard: check it before a draw
    guards.check("lhs_atoms", math.prod(shape))
    a = state.system_a
    rng = np.random.default_rng(seed)
    if sampler is None:
        def sampler(r):
            return tuple(sampling.random_measurement(r, a, k) for k in shape)

    def stream():
        if all(k == 2 for k in shape):
            axis = _axis_family(a, len(shape))
            if axis is not None:
                yield axis
            yield from _extreme_families(a, len(shape))
        while True:
            yield sampler(rng)

    tried = 0
    families = stream()
    while tried < budget:
        family = next(families)
        tried += 1
        verdict = steering.lhs_check(conditional_assemblage(state, family))
        if not verdict.classical:
            return SearchResult(found=True, measurements=tuple(family),
                                verdict=verdict, tried=tried)
    return SearchResult(found=False, tried=tried)
