"""Acceptance self test: the ten checks a healthy build must pass.

Each item is a pure function returning (passed, measured); `run` executes
all of them under one seed, at full scale or a quick scale that keeps the
CLI verb responsive.  No item reads the clock: `run` reports each item's
wall time, but no verdict depends on it, since the benchmark, not the
self test, judges speed.  The CLI selftest verb and the acceptance test
file both consume this module, so the terminal report and the test gate
cannot drift apart.  Tolerance overrides exist for negative controls:
lowering a tolerance must produce named failures, nothing else changes.
"""

import math
import time

from dataclasses import dataclass

import numpy as np

from . import (bipartite, choquet, guards, lp, sampling, steering, systems,
               tensors)
from .errors import InvalidInput

DEFAULT_TOLS = {
    "norm-sandwich": 1e-7,
    "classicality-equivalence": 1e-7,
    "separability-equivalence": 1e-7,
    "square-constants": 1e-7,
    "degree-lower-bound": 1e-7,
    "cmu-achievability": 1e-7,
    "ball-monte-carlo": 5e-3,
    "choquet-coherence": 1e-9,
    "unsteerable-pipeline": 1e-6,
    "exact-kernel-agreement": 1e-7,
}

_CERT_TOL = 1e-8


@dataclass(frozen=True)
class ItemResult:
    """One acceptance item: verdict, measured values, wall time."""

    name: str
    passed: bool
    measured: dict
    elapsed: float


def format_line(item):
    body = " ".join(
        f"{key}={value:.3e}" if isinstance(value, float) else
        f"{key}={value}"
        for key, value in sorted(item.measured.items()))
    tag = "PASS" if item.passed else "FAIL"
    return f"[{tag}] {item.name}: {body} ({item.elapsed:.2f}s)"


def _diag_state():
    sq = systems.hypercube(2)
    t = tensors.DichotomicTensor(
        sigma=sq.vector((1.0, 0.0, 0.0)),
        components=(sq.vector((0.0, 1.0, 1.0)), sq.vector((0.0, 1.0, -1.0))))
    return bipartite.BipartiteState(tensors.embed_dichotomic(t))


def _norm_sandwich(rng, quick, tol):
    n = 60 if quick else 500
    worst = -np.inf
    for _ in range(n):
        system = sampling.random_polytopic_system(
            rng, dim=int(rng.integers(2, 5)))
        t = sampling.random_dichotomic_tensor(
            rng, system, g=int(rng.integers(1, 5)))
        inj = tensors.injective_norm_dichotomic(t)
        steer = tensors.steering_norm(t).value
        proj = tensors.projective_norm_dichotomic(t)
        worst = max(worst, inj - steer, steer - proj)
    measured = {"tensors": n, "max_violation": float(worst)}
    return worst <= tol, measured


def _classicality(rng, quick, tol):
    n = 40 if quick else 200
    counts = {"classical": 0, "steerable": 0}
    max_rec, min_det = 0.0, np.inf
    for k in range(n):
        system = sampling.random_polytopic_system(
            rng, dim=int(rng.integers(2, 5)))
        g = int(rng.integers(1, 4))
        if k % 2:
            t = sampling.random_steerable_leaning_tensor(rng, system, g)
        else:
            t = sampling.random_dichotomic_tensor(rng, system, g)
        asm = steering.from_dichotomic_tensor(t)
        norm = tensors.steering_norm(t).value
        verdict = steering.lhs_check(asm)
        if verdict.classical != (norm <= 1.0 + tol):
            return False, {"disagreed_at": k, "norm": norm}
        if verdict.classical:
            counts["classical"] += 1
            max_rec = max(max_rec, verdict.model.reconstruction_error(asm))
        else:
            counts["steerable"] += 1
            min_det = min(min_det, verdict.witness.detection_value(asm))
    ok = max_rec <= _CERT_TOL and min_det >= 1.0 + _CERT_TOL
    measured = dict(counts, max_reconstruction=float(max_rec),
                    min_detection=float(min_det))
    return ok, measured


def _separability(rng, quick, tol):
    n = 40 if quick else 200
    counts = {"separable": 0, "entangled": 0}
    for k in range(n):
        if k % 2:
            system = sampling.random_polytopic_system(rng, dim=3)
            t = sampling.random_dichotomic_max_cone_tensor(rng, system, g=2)
        else:
            sys_a = sampling.random_polytopic_system(rng, dim=3)
            sys_b = sampling.random_polytopic_system(rng, dim=3)
            t = sampling.random_max_cone_tensor(rng, sys_a, sys_b)
        total = float(t.system_a.unit @ t.coeffs @ t.system_b.unit)
        if total < 1e-6:
            continue
        t = tensors.TensorElement(
            system_a=t.system_a, system_b=t.system_b,
            coeffs=t.coeffs / total)
        member = tensors.min_cone_member(t).member
        proj = tensors.projective_norm(t)
        if member != (proj <= 1.0 + tol):
            return False, {"disagreed_at": k, "projective": proj}
        counts["separable" if member else "entangled"] += 1
    return True, counts


def _square_constants(rng, quick, tol):
    sq = systems.hypercube(2)
    center = sq.vector((1.0, 0.0, 0.0))
    diag = tensors.DichotomicTensor(
        sigma=center,
        components=(sq.vector((0.0, 1.0, 1.0)), sq.vector((0.0, 1.0, -1.0))))
    norm = tensors.steering_norm(diag).value
    rob = steering.robustness(steering.from_dichotomic_tensor(diag))
    axis = tensors.DichotomicTensor(
        sigma=center,
        components=(sq.vector((0.0, 1.0, 0.0)), sq.vector((0.0, 0.0, 1.0))))
    axis_classical = steering.lhs_check(
        steering.from_dichotomic_tensor(axis)).classical
    witness = steering.Witness(
        components=(sq.functional((0.0, 0.5, 0.5)),
                    sq.functional((0.0, 0.5, -0.5))),
        base=sq.unit_functional, normalized=True)
    strict = witness.detection_value(diag) > 1.0
    norm_sum = sum(
        systems.sigma_base_norm(sq, w, center)[0]
        for w in witness.components)
    ok = (abs(norm - 2.0) <= tol and abs(rob - 0.5) <= tol
          and axis_classical and strict
          and abs(norm_sum - 2.0) <= 1e-9)
    measured = {"steering_norm": norm, "robustness": rob,
                "axis_classical": axis_classical,
                "witness_norm_sum": float(norm_sum)}
    return ok, measured


def _degree_lower_bound(rng, quick, tol):
    n = 25 if quick else 100
    worst = np.inf
    for k in range(n):
        system = sampling.random_polytopic_system(
            rng, dim=int(rng.integers(2, 5)))
        g = int(rng.integers(1, 7))
        if k % 2:
            t = sampling.random_steerable_leaning_tensor(rng, system, g)
        else:
            t = sampling.random_dichotomic_tensor(rng, system, g)
        rob = steering.robustness(steering.from_dichotomic_tensor(t))
        worst = min(worst, rob - 1.0 / min(g, system.dim))
    measured = {"assemblages": n, "min_margin": float(worst)}
    return worst >= -tol, measured


def _cmu_achievability(rng, quick, tol):
    sq = systems.hypercube(2)
    center = sq.vector((1.0, 0.0, 0.0))
    uniform = choquet.c_mu(sq, center, choquet.vertex_measure(sq))
    degree = choquet.universal_degree(sq, center)[0]
    # vertex measures with the central barycenter form a segment; walk it
    null = np.linalg.svd(sq.vertices.T)[2][-1]
    null = null / np.max(np.abs(null))
    excess = uniform - degree
    for _ in range(8):
        w = 0.25 + float(rng.uniform(-0.2, 0.2)) * null
        mu = choquet.vertex_measure(sq, weights=w / w.sum())
        excess = max(excess, choquet.c_mu(sq, center, mu) - degree)
    ok = max(abs(uniform - 0.5), abs(degree - 0.5)) <= tol and excess <= 1e-6
    measured = {"cmu_uniform": float(uniform),
                "degree_infimum": float(degree),
                "max_excess": float(excess)}
    return ok, measured


def _ball_monte_carlo(rng, quick, tol):
    samples = 10**5 if quick else 10**6
    seed = int(rng.integers(2**31))
    out = {}
    ok = True
    for n, reference in ((3, 0.5), (2, 2.0 / math.pi)):
        est = choquet.c_mu_monte_carlo(
            system=systems.ball(n), samples=samples, seed=seed)
        ok = ok and abs(est.value - reference) <= tol
        ok = ok and abs(est.reference - reference) <= 1e-12
        out[f"ball{n}_value"] = est.value
        out[f"ball{n}_error"] = float(abs(est.value - reference))
    return ok, out


def _two_atom_split(rng, system, sigma):
    """Random 2-atom measure with barycenter sigma: interval-direction
    split, each half renormalized with its unit mass as the weight."""
    Y = tensors.sigma_interval_vertices(system, sigma)
    c = rng.dirichlet(np.ones(Y.shape[0])) * float(rng.uniform(0.3, 1.0))
    y = c @ Y
    atoms = []
    for s in (1.0, -1.0):
        half = 0.5 * (sigma.coords + s * y)
        w = float(system.unit @ half)
        if w > 1e-9:
            atoms.append((w, system.vector(half / w)))
    return choquet.SimpleMeasure(tuple(atoms))


def _choquet_coherence(rng, quick, tol):
    n = 40 if quick else 200
    counts = {"below": 0, "refuted": 0}
    min_violation = np.inf
    for k in range(n):
        system = systems.hypercube(2) if k % 2 else \
            sampling.random_polytopic_system(rng, dim=3)
        sigma = sampling.random_interior_state(rng, system)
        mu = sampling.random_measure_with_barycenter(rng, system, sigma)
        if k % 3 == 0:
            mu = sampling.random_dilation(rng, mu)
        nu = _two_atom_split(rng, system, sigma)
        lp_verdict = choquet.choquet_below(nu, mu)
        exact = choquet.dichotomic_below_exact(nu, mu)
        if lp_verdict.below != exact.below:
            return False, {"disagreed_at": k}
        if lp_verdict.below:
            counts["below"] += 1
        else:
            counts["refuted"] += 1
            min_violation = min(min_violation, lp_verdict.violation)
    ok = counts["refuted"] == 0 or min_violation > tol
    return ok, dict(counts, min_violation=float(min_violation))


def _unsteerable_pipeline(rng, quick, tol):
    n = 12 if quick else 50
    sq = systems.hypercube(2)
    others = (sq, systems.simplex(2))
    for k in range(n):
        sys_b = others[k % 2]
        c = sampling.random_separable_coeffs(rng, sq, sys_b)
        c = c / float(sq.unit @ c @ sys_b.unit)
        st = bipartite.BipartiteState(tensors.TensorElement(
            system_a=sq, system_b=sys_b, coeffs=c))
        if not bipartite.unsteerable_dichotomic(st).unsteerable:
            return False, {"separable_failed_at": k}
    diag = _diag_state()
    verdict = bipartite.unsteerable_dichotomic(diag)
    if verdict.unsteerable:
        return False, {"canonical": "not steerable"}
    rob = steering.robustness(
        bipartite.conditional_assemblage(diag, verdict.measurements))

    def mixed(lam):
        product = np.outer(diag.marginal_a.coords, diag.marginal_b.coords)
        return bipartite.BipartiteState(tensors.TensorElement(
            system_a=diag.system_a, system_b=diag.system_b,
            coeffs=lam * product + (1.0 - lam) * diag.coeffs))

    lo, hi = 0.0, 1.0  # steerable at lo, unsteerable at hi
    for _ in range(8):
        mid = 0.5 * (lo + hi)
        if bipartite.unsteerable_dichotomic(mixed(mid)).unsteerable:
            hi = mid
        else:
            lo = mid
    crossing = 0.5 * (lo + hi)
    ok = abs(rob - 0.5) <= tol and abs(crossing - 0.5) <= 1e-2
    measured = {"separable_states": n, "certificate_robustness": float(rob),
                "noise_crossing": float(crossing)}
    return ok, measured


def _random_small_lp(rng):
    """x >= 0 under half-integer rows, about half the x_j also <= 2.5 (a
    row each, after the drawn inequality rows)."""
    nvar = int(rng.integers(2, 7))
    half = lambda size: rng.integers(-6, 7, size=size) / 2.0
    me = int(rng.integers(0, 3))
    mu = int(rng.integers(1, 4))
    capped = np.eye(nvar)[rng.random(nvar) >= 0.5]
    objective, eq_rows, eq_rhs = half(nvar), half((me, nvar)), half(me)
    ub_rows, ub_rhs = half((mu, nvar)), half(mu)
    return lp.LpProblem(
        objective, eq_rows=eq_rows, eq_rhs=eq_rhs,
        ub_rows=np.concatenate([ub_rows, capped]),
        ub_rhs=np.concatenate([ub_rhs, np.full(len(capped), 2.5)]))


def _exact_kernel(rng, quick, tol):
    n = 30 if quick else 100
    statuses = {}
    worst = 0.0
    for k in range(n):
        problem = _random_small_lp(rng)
        a = lp.solve(problem, mode="float")
        b = lp.solve(problem, mode="exact")
        if a.status != b.status:
            return False, {"status_split_at": k,
                           "float": a.status, "exact": b.status}
        statuses[a.status] = statuses.get(a.status, 0) + 1
        if a.status == "optimal":
            worst = max(worst, abs(a.value - float(b.value)))
    return worst <= tol, dict(statuses, max_value_gap=float(worst))


ITEMS = (
    ("norm-sandwich", _norm_sandwich),
    ("classicality-equivalence", _classicality),
    ("separability-equivalence", _separability),
    ("square-constants", _square_constants),
    ("degree-lower-bound", _degree_lower_bound),
    ("cmu-achievability", _cmu_achievability),
    ("ball-monte-carlo", _ball_monte_carlo),
    ("choquet-coherence", _choquet_coherence),
    ("unsteerable-pipeline", _unsteerable_pipeline),
    ("exact-kernel-agreement", _exact_kernel),
)


def run(quick=False, seed=0, tol_overrides=None):
    """All acceptance items in order; independent seeding per item."""
    guards.count(seed, 0, "seed must be a nonnegative integer")
    overrides = dict(tol_overrides or {})
    known = {name for name, _ in ITEMS}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise InvalidInput(f"unknown acceptance items: {', '.join(unknown)}")
    results = []
    for index, (name, item) in enumerate(ITEMS):
        tol = float(overrides.get(name, DEFAULT_TOLS[name]))
        rng = np.random.default_rng([seed, index])
        start = time.perf_counter()
        passed, measured = item(rng, quick, tol)
        results.append(ItemResult(
            name=name, passed=bool(passed), measured=measured,
            elapsed=time.perf_counter() - start))
    return results
