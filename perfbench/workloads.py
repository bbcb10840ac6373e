"""The benchmark's in-process workloads: seeded question sequences.

A workload is a list of cases.  A case is a short run of questions that
share one input (a state space, a (space, sigma) group, an assemblage);
each question is one call into the library and one latency sample.  Each
case carries a check that runs after its questions, outside the timed
region, and names the questions whose answers break an invariant.

What is asked comes from a fixed catalog (CATALOG_SEED), so every seed
does the same kind and amount of work and run-to-run spreads stay small.
The run seed draws a change of coordinates x -> M x for every state space
(an orthogonal map times a scale), which changes every input number: no
two seeds, and in `norms` no two questions, share an input.  A `norms`
question is the exact image of its catalog entry, so its answers do not
depend on the seed beyond rounding; `order` and `steer` draw their
measures and assemblages on the moved spaces from the catalog stream.
Everything is built at set-up; the questions only answer.
"""

import itertools

import numpy as np

from gptsteer import bipartite, choquet, sampling, steering, systems, tensors
from perfbench.cases import ACCURACY, SLACK, Case

CATALOG_SEED = 220209109


def isomorphism(rng, d):
    """Random orthogonal d x d map times a scale in [0.8, 1.25]."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return float(rng.uniform(0.8, 1.25)) * q * np.sign(np.diag(r))


def axis_isomorphism(rng, d):
    """Signed permutation of the coordinates after the first, times a scale
    in [0.8, 1.25]."""
    M = np.zeros((d, d))
    M[0, 0] = 1.0
    M[1 + np.arange(d - 1), 1 + rng.permutation(d - 1)] = \
        rng.choice((-1.0, 1.0), size=d - 1)
    return float(rng.uniform(0.8, 1.25)) * M


def moved(system, M):
    """The copy of a polytopic system under the change of coordinates
    x -> M x on states (so u -> M^-T u on the unit)."""
    return systems.polytopic(system.vertices @ M.T,
                             unit=np.linalg.solve(M.T, system.unit))


def _streams(seed, workload):
    """(catalog rng, coordinates rng) for one workload."""
    return (np.random.default_rng([CATALOG_SEED, workload]),
            np.random.default_rng([seed, workload]))


# ---------------------------------------------------------------------------
# norms: a fresh state space on every question

NORMS_CASES = 2048
NORMS_CATALOG = 64
_CUBE = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
_OCTAHEDRON = np.vstack([np.eye(3), -np.eye(3)])


def _structured_points(rng, slot):
    """Regular polygon, cube or octahedron."""
    if slot in (0, 3):
        m = int(rng.integers(3, 7))
        ang = float(rng.uniform(0, 2 * np.pi)) + 2 * np.pi * np.arange(m) / m
        spatial = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        spatial = _CUBE if slot == 1 else _OCTAHEDRON
    return np.column_stack([np.ones(len(spatial)), spatial])


def _norms_question(points, pull, weights, dirs, radii):
    def ask():
        system = systems.polytopic_hull(points)
        sigma = system.vector(
            (1.0 - pull) * points.mean(axis=0) + pull * (weights @ points))
        comps = []
        for u, r in zip(dirs, radii):
            scale = systems.order_unit_norm(
                system, system.vector(u), unit=sigma)
            comps.append(system.vector(u * (r / scale)))
        t = tensors.DichotomicTensor(sigma=sigma, components=tuple(comps))
        inj = tensors.injective_norm_dichotomic(t)
        steer = tensors.steering_norm(t).value
        proj = tensors.projective_norm_dichotomic(t)
        verdict = steering.lhs_check(steering.from_dichotomic_tensor(t))
        return {"inj": float(inj), "steer": float(steer),
                "proj": float(proj), "classical": bool(verdict.classical)}
    return ask


def _norms_check(answers):
    a = answers[0]
    if not (a["inj"] <= a["steer"] + SLACK and a["steer"] <= a["proj"] + SLACK):
        yield 0, f"sandwich broken: {a}"
    if a["classical"] != (a["steer"] <= 1.0 + SLACK):
        yield 0, f"lhs_check disagrees with the steering norm: {a}"


def _norms_catalog(rng):
    """Blocks of 16: 12 random lifted hulls, one per (dim 2-4, g 1-4) pair,
    with at most 8 points as in the norm-sandwich item, then a polygon, the
    cube, the octahedron and a polygon; g shifts by one per block."""
    out = []
    for i in range(NORMS_CATALOG):
        slot = i % 16
        g = 1 + (i + i // 16) % 4
        if slot < 12:
            dim = 2 + slot % 3
            n = int(rng.integers(dim + 1, 9))
            points = np.column_stack(
                [np.ones(n), rng.uniform(-1.0, 1.0, size=(n, dim - 1))])
            kind = f"hull{dim}"
        else:
            points = _structured_points(rng, slot - 12)
            kind = ("polygon", "cube", "octahedron", "polygon")[slot - 12]
        n, dim = points.shape
        out.append((kind, points, float(rng.uniform(0.2, 0.9)),
                    rng.dirichlet(np.ones(n)), rng.normal(size=(g, dim)),
                    rng.uniform(0.5, 1.0, size=g)))
    return out


def norms(seed, count=NORMS_CASES):
    """A fresh state space on every question: the catalog replayed, each
    question under its own change of coordinates.

    The structured spaces keep their axes (signed permutations): under a
    general rotation, projective_norm_dichotomic on the octahedron can end
    in NumericalFailure (perfbench/known_failures holds one such tensor).
    """
    catalog_rng, coords_rng = _streams(seed, 1)
    catalog = _norms_catalog(catalog_rng)
    cases = []
    for i in range(count):
        kind, points, pull, weights, dirs, radii = catalog[i % len(catalog)]
        change = isomorphism if kind.startswith("hull") else axis_isomorphism
        M = change(coords_rng, points.shape[1])
        ask = _norms_question(points @ M.T, pull, weights, dirs @ M.T, radii)
        cases.append(Case(kind, (("norms", ask),), _norms_check))
    return cases


# ---------------------------------------------------------------------------
# order: Choquet-order and c_mu groups on shared (space, sigma)

ORDER_GROUPS = 20
MC_EVERY = 5          # one Monte Carlo question per this many groups
MC_SAMPLES = 10**5


def two_atom_split(rng, system, sigma):
    """Two-atom measure with barycenter sigma, split along a random
    direction of the sigma interval."""
    Y = tensors.sigma_interval_vertices(system, sigma)
    c = rng.dirichlet(np.ones(Y.shape[0])) * float(rng.uniform(0.3, 1.0))
    y = c @ Y
    atoms = []
    for s in (1.0, -1.0):
        half = 0.5 * (sigma.coords + s * y)
        w = float(system.unit @ half)
        atoms.append((w, system.vector(half / w)))
    return choquet.SimpleMeasure(tuple(atoms))


def _order_case(system, sigma, pairs, mc):
    questions = []
    for nu, mu in pairs:
        questions += [
            ("choquet_below",
             lambda nu=nu, mu=mu: {"below": bool(
                 choquet.choquet_below(nu, mu).below)}),
            ("dichotomic_below_exact",
             lambda nu=nu, mu=mu: {"below": bool(
                 choquet.dichotomic_below_exact(nu, mu).below)}),
            ("c_mu",
             lambda mu=mu: {"cmu": float(choquet.c_mu(system, sigma, mu))}),
        ]
    if mc is not None:
        questions.append(
            ("c_mu_monte_carlo",
             lambda: {"mc": float(choquet.c_mu_monte_carlo(
                 system=mc[0], samples=MC_SAMPLES, seed=mc[1]).value)}))

    def check(answers):
        for p in range(len(pairs)):
            lp_side, exact, cmu = answers[3 * p:3 * p + 3]
            if lp_side["below"] != exact["below"]:
                yield 3 * p + 1, "choquet_below and dichotomic_below_exact disagree"
            if not 0.0 <= cmu["cmu"] <= 1.0:
                yield 3 * p + 2, f"c_mu {cmu['cmu']} outside [0, 1]"
        if mc is not None and abs(answers[-1]["mc"] - 0.5) > ACCURACY["mc"]:
            yield len(answers) - 1, f"ball(3) constant {answers[-1]['mc']} != 0.5"

    return Case(f"order.{system.n_vertices}v", tuple(questions), check)


def order(seed, count=ORDER_GROUPS):
    """Groups of two (nu, mu) pairs on one (space, sigma) from a fixed pool
    of dim-3 spaces: square, simplex(3), pentagon and two random hulls,
    each under one change of coordinates for the whole run.
    A third of the mu are dilated; every MC_EVERY-th group adds a Monte
    Carlo constant of ball(3)."""
    rng, coords_rng = _streams(seed, 2)
    pool = (systems.hypercube(2), systems.simplex(3),
            systems.regular_polygon(5),
            sampling.random_polytopic_system(rng, dim=3),
            sampling.random_polytopic_system(rng, dim=3))
    pool = tuple(moved(s, isomorphism(coords_rng, 3)) for s in pool)
    ball3 = systems.ball(3)
    cases = []
    for j in range(count):
        system = pool[j % len(pool)]
        sigma = sampling.random_interior_state(rng, system)
        pairs = []
        for p in range(2):
            mu = sampling.random_measure_with_barycenter(rng, system, sigma)
            if (2 * j + p) % 3 == 0:
                mu = sampling.random_dilation(rng, mu)
            pairs.append((two_atom_split(rng, system, sigma), mu))
        mc = None
        if j % MC_EVERY == MC_EVERY - 1:
            mc = (ball3, int(coords_rng.integers(2**31)))
        cases.append(_order_case(system, sigma, pairs, mc))
    return cases


# ---------------------------------------------------------------------------
# steer: assemblage and bipartite decisions on shared spaces

STEER_BLOCKS = 16
SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2))


def diag_state(M=None):
    """The diagonal square state (steering robustness 1/2); party B's
    square is moved by M."""
    M = np.eye(3) if M is None else M
    sq = moved(systems.hypercube(2), M)
    t = tensors.DichotomicTensor(
        sigma=sq.vector(M @ (1.0, 0.0, 0.0)),
        components=(sq.vector(M @ (0.0, 1.0, 1.0)),
                    sq.vector(M @ (0.0, 1.0, -1.0))))
    return bipartite.BipartiteState(tensors.embed_dichotomic(t))


def noisy(state, lam):
    """The state mixed with the product of its marginals."""
    product = np.outer(state.marginal_a.coords, state.marginal_b.coords)
    return bipartite.BipartiteState(tensors.TensorElement(
        system_a=state.system_a, system_b=state.system_b,
        coeffs=lam * product + (1.0 - lam) * state.coeffs))


def _split(system, f, k, rng):
    """Measurement (f, rest) with the rest split into k - 1 outcomes."""
    rest = system.unit_functional - f
    if k == 2:
        return systems.Measurement((f, rest))
    p = float(rng.uniform(0.2, 0.8))
    return systems.Measurement((f, rest * p, rest * (1.0 - p)))


def _assemblage_case(kind, asm):
    """lhs_check and robustness, plus optimal_witness on two outcomes."""
    questions = [
        ("lhs_check",
         lambda: {"classical": bool(steering.lhs_check(asm).classical)}),
        ("robustness",
         lambda: {"robustness": float(steering.robustness(asm))}),
    ]
    dichotomic = all(k == 2 for k in asm.shape)
    if dichotomic:
        questions.append(
            ("optimal_witness",
             lambda: {"detection": float(
                 steering.optimal_witness(asm).detection_value(asm))}))
    expect = {"steerable": False, "classical": True}.get(kind.split(".")[0])

    def check(answers):
        classical = answers[0]["classical"]
        r = answers[1]["robustness"]
        if expect is not None and classical != expect:
            yield 0, f"{kind} assemblage came back classical={classical}"
        if classical != (r >= 1.0 - ACCURACY["robustness"]):
            yield 1, f"robustness {r} disagrees with lhs_check"
        if dichotomic:
            det = answers[2]["detection"]
            want = 1.0 / r if r < 1.0 else None
            if want is not None and abs(det - want) > 1e-6 * want:
                yield 2, f"witness detects {det}, steering norm is {want}"
            if want is None and det > 1.0 + SLACK:
                yield 2, f"witness detects {det} on a classical assemblage"

    return Case(kind, tuple(questions), check)


def steer(seed, count=STEER_BLOCKS):
    """Blocks of seven cases on the square, simplex(3), the pentagon and
    hypercube(3), each under one change of coordinates for the whole run
    (the l1 and linf balls under a signed coordinate permutation): a
    steerable square assemblage (the diagonal state measured with jittered
    extreme effects, outcomes split to the block's shape), a classical
    one, a steerable-leaning one, an l1/linf ball twin, and three bipartite
    cases (separable state, noise-mixed diagonal state, and the robustness
    of the latter's conditional assemblage)."""
    rng, coords_rng = _streams(seed, 3)
    square_move = isomorphism(coords_rng, 3)
    diag = diag_state(square_move)
    pool = (diag.system_b,) + tuple(
        moved(s, isomorphism(coords_rng, s.dim)) for s in (
            systems.simplex(3), systems.regular_polygon(5),
            systems.hypercube(3)))
    balls = (systems.ball(2, "l1"), systems.ball(2, "linf"))
    diag_meas = bipartite.unsteerable_dichotomic(diag).measurements
    sq = diag.system_a   # party A: the unmoved square
    half = 0.5 * sq.unit
    cases = []
    for j in range(count):
        shape = SHAPES[j % 4]

        # steerable: diag measured with jittered versions of its witnesses
        meas = []
        for x, k in enumerate(shape):
            if x < len(diag_meas):
                f = diag_meas[x].effects[0].coords
            else:
                f = sampling.random_measurement(rng, sq, 2).effects[0].coords
            jit = float(rng.uniform(0.0, 0.2))
            meas.append(_split(sq, sq.functional((1 - jit) * f + jit * half),
                               k, rng))
        asm = bipartite.conditional_assemblage(diag, meas)
        cases.append(_assemblage_case(f"steerable.{shape}", asm))

        # classical: explicit hidden-vertex model
        system = pool[j % len(pool)]
        cshape = SHAPES[(j // 4) % 4]
        asm = sampling.random_classical_assemblage(rng, system, cshape)
        cases.append(_assemblage_case(f"classical.{cshape}", asm))

        # steerable-leaning: components near sigma-interval vertices
        system = pool[2 + j % 2]
        t = sampling.random_steerable_leaning_tensor(
            rng, system, g=2 + (j // 2) % 2)
        cases.append(_assemblage_case(
            f"leaning.{system.n_vertices}v",
            steering.from_dichotomic_tensor(t)))

        # ball twin: robustness only (lhs_check needs a polytope)
        ball = balls[j % 2]
        ball_perm = coords_rng.permutation(2)
        ball_signs = coords_rng.choice((-1.0, 1.0), size=2)
        center = ball.vector((1.0, 0.0, 0.0))
        comps = []
        for _ in range(2):
            z = rng.normal(size=2)
            z = z / (np.abs(z).sum() if ball.ball_norm == "l1"
                     else np.abs(z).max())
            z = z[ball_perm] * ball_signs   # a symmetry of both balls
            comps.append(ball.vector(
                np.concatenate([[0.0], float(rng.uniform(0.3, 1.0)) * z])))
        asm = steering.from_dichotomic_tensor(tensors.DichotomicTensor(
            sigma=center, components=tuple(comps)))
        cases.append(Case(
            f"ball.{ball.ball_norm}",
            (("robustness", lambda asm=asm: {
                "robustness": float(steering.robustness(asm))}),),
            _unit_interval_check))

        # separable states are unsteerable
        sys_a, sys_b = pool[0], pool[j % len(pool)]
        c = sampling.random_separable_coeffs(rng, sys_a, sys_b)
        c = c / float(sys_a.unit @ c @ sys_b.unit)
        state = bipartite.BipartiteState(tensors.TensorElement(
            system_a=sys_a, system_b=sys_b, coeffs=c))
        cases.append(_unsteerable_case("separable", state, True))

        # noise-mixed diagonal state: crossing at lam = 1/2
        lam = 0.0 if j % 4 == 0 else float(
            rng.choice([rng.uniform(0.0, 0.4), rng.uniform(0.6, 1.0)]))
        state = noisy(diag, lam)
        cases.append(_unsteerable_case("noisy_diag", state, lam > 0.5))
        cases.append(_diag_robustness_case(state, diag_meas, lam))
    return cases


def _unit_interval_check(answers):
    r = answers[0]["robustness"]
    if not 0.0 < r <= 1.0:
        yield 0, f"robustness {r} outside (0, 1]"


def _unsteerable_case(kind, state, expected):
    def check(answers):
        if answers[0]["unsteerable"] != expected:
            yield 0, f"{kind} state came back unsteerable={not expected}"

    return Case(kind, (("unsteerable_dichotomic", lambda: {
        "unsteerable": bool(
            bipartite.unsteerable_dichotomic(state).unsteerable)}),), check)


def _diag_robustness_case(state, meas, lam):
    """Conditional assemblage of the noisy diagonal state under its
    witnessing measurements; the robustness is min(1, 1/(2 (1 - lam)))."""
    want = min(1.0, 0.5 / (1.0 - lam))

    def check(answers):
        r = answers[0]["robustness"]
        if abs(r - want) > ACCURACY["robustness"]:
            yield 0, f"diagonal robustness {r} expected {want}"

    return Case("diag_robustness", (("robustness", lambda: {
        "robustness": float(steering.robustness(
            bipartite.conditional_assemblage(state, meas)))}),), check)


BUILDERS = {"norms": norms, "order": order, "steer": steer}
# Cases after which a workload's mix repeats (default: its whole sequence);
# a run measures whole cycles.
CYCLES = {"norms": NORMS_CATALOG}
