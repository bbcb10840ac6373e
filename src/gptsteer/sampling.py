"""Seeded random instances shared by tests, the self test, and search tools.

Everything takes an explicit numpy Generator so callers control determinism.
The records drawn here (tensors, assemblages, measures) are built through
their public constructors, so `systems.in_cone` decides their cone
elements as it decides every caller's.
"""

import numpy as np

from . import choquet, guards, steering, systems, tensors
from .errors import InvalidInput, NumericalFailure


def random_polytopic_system(rng, dim=3, max_points=8):
    """Hull of lifted points (1, x) with x uniform in a cube.

    Retries until the hull is a valid system (enough extreme points, full
    span); degenerate draws are rare but possible.
    """
    guards.expect(rng, np.random.Generator, name="rng")
    guards.count(dim, 2, "sampled systems need an integer dim >= 2")
    guards.check("dim", dim)
    guards.count(max_points, dim + 1, "max_points must be an integer > dim")
    guards.check("vertices", max_points)
    for _ in range(100):
        n = int(rng.integers(dim + 1, max_points + 1))
        x = rng.uniform(-1.0, 1.0, size=(n, dim - 1))
        pts = np.column_stack([np.ones(n), x])
        try:
            return systems.polytopic_hull(pts)
        except InvalidInput:
            continue
    raise NumericalFailure("failed to sample a polytopic system")


def random_interior_state(rng, system, pull=None):
    """Strict convex mixture of the vertex barycenter with a random state,
    pull (default uniform in [0.2, 0.9]) of the way toward the latter."""
    guards.expect(rng, np.random.Generator, name="rng")
    systems.require_polytopic(system)
    if pull is not None and not 0.0 <= guards.real_float(
            pull, "pull must be a real number") <= 1.0:
        raise InvalidInput("pull must lie in [0, 1]")
    w = rng.dirichlet(np.ones(system.n_vertices))
    mix = system.vertices.T @ w
    a = float(rng.uniform(0.2, 0.9)) if pull is None else float(pull)
    return system.vector((1.0 - a) * system.barycenter.coords + a * mix)


def random_dichotomic_tensor(rng, system, g, sigma=None):
    """Tensor with components y_x drawn inside the sigma ball."""
    guards.expect(rng, np.random.Generator, name="rng")
    guards.count(g, 1, "g must be an integer of at least 1")
    guards.check("sign_vectors", g)
    if sigma is None:
        sigma = random_interior_state(rng, system)
    guards.expect(sigma, systems.Vector, system, "sigma")
    comps = []
    while len(comps) < g:
        u = rng.normal(size=system.dim)
        nu = systems.order_unit_norm(system, system.vector(u), unit=sigma)
        if nu < 1e-12:
            continue
        t = float(rng.uniform(0.0, 1.0))
        comps.append(system.vector(u * (t / nu)))
    return tensors.DichotomicTensor(sigma=sigma, components=tuple(comps))


def random_separable_coeffs(rng, sys_a, sys_b):
    """Coefficient matrix of a random mixture of four product states."""
    guards.expect(rng, np.random.Generator, name="rng")
    lam = rng.dirichlet(np.ones(4))
    C = 0.0   # random_interior_state checks both systems
    for w in lam:
        ra = random_interior_state(rng, sys_a, pull=rng.uniform(0.0, 1.0))
        rb = random_interior_state(rng, sys_b, pull=rng.uniform(0.0, 1.0))
        C += w * np.outer(ra.coords, rb.coords)
    return C


def random_max_cone_tensor(rng, sys_a, sys_b):
    """Normalized element of the max cone, biased toward its boundary.

    Starts from a separable point and walks a random direction until some
    product of extreme effects hits zero, then stops at a uniform fraction of
    that distance.  Near the far end the element is typically entangled.
    """
    EA = systems.extreme_effects(sys_a)
    EB = systems.extreme_effects(sys_b)
    T0 = random_separable_coeffs(rng, sys_a, sys_b)
    D = rng.normal(size=T0.shape)
    vals0 = EA @ T0 @ EB.T
    dvals = EA @ D @ EB.T
    shrinking = dvals < -1e-12
    if np.any(shrinking):
        smax = float(np.min(vals0[shrinking] / -dvals[shrinking]))
    else:
        smax = 1.0
    T = T0 + float(rng.uniform(0.0, 1.0)) * smax * D
    mass = float(sys_a.unit @ T @ sys_b.unit)
    if mass <= 1e-12:
        return random_max_cone_tensor(rng, sys_a, sys_b)
    return tensors.TensorElement(system_a=sys_a, system_b=sys_b, coeffs=T / mass)


def random_steerable_leaning_tensor(rng, system, g=2, sigma=None):
    """Dichotomic tensor with components near distinct sigma-ball vertices.

    Distinct extreme directions are mutually incompatible often enough that
    the steering norm exceeds 1 on a large fraction of draws; Gaussian
    components almost never steer at small g.
    """
    guards.expect(rng, np.random.Generator, name="rng")
    systems.require_polytopic(system)
    guards.count(g, 1, "g must be an integer of at least 1")
    guards.check("sign_vectors", g)
    if sigma is None:
        sigma = random_interior_state(rng, system)
    B = tensors.sigma_interval_vertices(system, sigma)
    idx = rng.choice(B.shape[0], size=g, replace=B.shape[0] < g)
    comps = tuple(
        system.vector(float(rng.uniform(0.8, 1.0)) * B[j]) for j in idx)
    return tensors.DichotomicTensor(sigma=sigma, components=comps)


def random_dichotomic_max_cone_tensor(rng, system, g=2):
    """Normalized max-cone element built from a random dichotomic family.

    The element is the (sigma, y) coefficient matrix over hypercube(g) x
    system; it lies outside the separable cone exactly when the family's
    steering norm exceeds 1.  The plain walk in random_max_cone_tensor
    almost never leaves the separable cone, so mixed suites should draw
    from both.
    """
    t = random_steerable_leaning_tensor(rng, system, g)
    return tensors.embed_dichotomic(t)


def random_classical_assemblage(rng, system, shape, sigma=None):
    """Assemblage carrying an explicit hidden-vertex model (so: classical).

    A conic decomposition of sigma over the vertices is split across
    outcomes independently per setting; the vertices themselves are the
    hidden states.  Useful as the guaranteed-classical side of property
    tests.  Every entry V^T (w * alloc) with w, alloc >= 0 is a conic
    combination of vertices; `Assemblage` decides the entries with
    `systems.in_cone`, as it does every builder's (no LP).
    """
    guards.expect(rng, np.random.Generator, name="rng")
    systems.require_polytopic(system)
    counts = "shape must list outcome counts of at least 1"
    shape = [guards.count(k, 1, counts) for k in guards.items(shape, counts)]
    V = system.vertices
    n = V.shape[0]
    if sigma is None:
        w = rng.dirichlet(np.ones(n))
    else:
        w = systems.cone_member(system, sigma).coefficients
        if w is None:
            raise InvalidInput("sigma must lie in the cone")
    entries = []
    for k in shape:
        with guards.allocation(f"{k} outcomes"):
            alloc = rng.dirichlet(np.ones(k), size=n)
        entries.append(tuple(
            system.vector(V.T @ (w * alloc[:, a])) for a in range(k)))
    return steering.Assemblage(system.vector(V.T @ w), tuple(entries))


def random_measure_with_barycenter(rng, system, sigma, n_satellites=3):
    """Simple measure whose barycenter is exactly sigma.

    Random vertex mixtures carry a small total mass and one absorbing atom
    keeps the average at sigma; the satellite mass halves until the
    absorber lands in the cone, which an interior sigma guarantees.
    """
    guards.expect(rng, np.random.Generator, name="rng")
    systems.require_polytopic(system)
    guards.expect(sigma, systems.Vector, system, "sigma")
    guards.count(n_satellites, 1, "n_satellites must be an integer >= 1")
    V = system.vertices
    with guards.allocation(f"{n_satellites} satellites"):
        W = rng.dirichlet(np.ones(V.shape[0]), size=n_satellites)
        split = rng.dirichlet(np.ones(n_satellites))
    sats = [system.vector(V.T @ w) for w in W]
    mix = sum(s * p.coords for s, p in zip(split, sats))
    t = 0.5
    for _ in range(40):
        rest = system.vector((sigma.coords - t * mix) / (1.0 - t))
        if systems.in_cone(system, rest):
            atoms = [(t * s, p) for s, p in zip(split, sats)]
            atoms.append((1.0 - t, rest))
            return choquet.SimpleMeasure(tuple(atoms))
        t *= 0.5
    raise NumericalFailure("no absorbing atom found; is sigma interior?")


def random_dilation(rng, measure):
    """Spread each atom toward the vertices, keeping its barycenter.

    Every atom (w, rho) becomes (1-b) w at rho plus b w distributed over a
    conic decomposition of rho, b uniform in [0.2, 0.9] per atom, so the
    result dominates `measure` in the Choquet order by construction.
    """
    guards.expect(rng, np.random.Generator, name="rng")
    guards.expect(measure, choquet.SimpleMeasure, name="measure")
    system = systems.require_polytopic(measure.system)
    V = system.vertices
    atoms = []
    for w, p in measure.atoms:
        if w <= 1e-12:
            continue
        b = float(rng.uniform(0.2, 0.9))
        coeff = systems.cone_member(system, p).coefficients
        atoms.append(((1.0 - b) * w, p))
        for i, ci in enumerate(coeff):
            if ci > 1e-12:
                atoms.append((b * w * ci, system.vector(V[i])))
    return choquet.SimpleMeasure(tuple(atoms))


def random_measurement(rng, system, n_outcomes):
    """Random measurement biased toward sharp effects.

    Dichotomic draws jitter a random extreme effect toward the flat coin
    unit/2; more outcomes split the unit as f_a = beta_a g_a with g_a a
    jittered extreme and the last effect absorbing the remainder, which
    keeps every effect inside the interval by construction.
    """
    guards.expect(rng, np.random.Generator, name="rng")
    guards.count(n_outcomes, 2, "a measurement needs at least two outcomes")
    extremes = systems.extreme_effects(system)
    half = 0.5 * system.unit

    def jittered():
        g = extremes[int(rng.integers(len(extremes)))]
        j = float(rng.uniform(0.0, 0.3))
        return (1.0 - j) * g + j * half

    if n_outcomes == 2:
        return systems.dichotomic_measurement(
            system, system.functional(jittered()))
    with guards.allocation(f"{n_outcomes} outcomes"):
        beta = rng.dirichlet(np.ones(n_outcomes))
    firsts = [beta[i] * jittered() for i in range(n_outcomes - 1)]
    effects = [system.functional(c) for c in firsts]
    effects.append(system.functional(system.unit - np.sum(firsts, axis=0)))
    return systems.Measurement(tuple(effects))
