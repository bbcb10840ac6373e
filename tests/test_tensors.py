"""Cross norms: frozen square values, certificates, the sandwich, and the
former two-LP tensor check and all-sign projective LP as references."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptsteer import lp, sampling, steering, systems, tensors
from gptsteer.cli import load_tensor
from gptsteer.errors import (
    GuardExceeded,
    InvalidInput,
    NotInterior,
    NumericalFailure,
)
from gptsteer.tolerances import CERTIFICATE, COINCIDENCE, LP_GAP

KNOWN_FAILURES = Path(__file__).resolve().parent.parent / "perfbench" / "known_failures"


def square():
    return systems.hypercube(2)


def center_tensor(*components):
    s = square()
    return tensors.DichotomicTensor(
        sigma=s.vector([1.0, 0, 0]),
        components=tuple(s.vector(c) for c in components))


AXIS = ((0.0, 1, 0), (0.0, 0, 1))
DIAG = ((0.0, 1, 1), (0.0, 1, -1))


# ---------------------------------------------------------------------------
# type validation


def test_rejects_unnormalized_barycenter():
    s = square()
    with pytest.raises(InvalidInput, match="normalized"):
        tensors.DichotomicTensor(
            sigma=s.vector([2.0, 0, 0]), components=(s.vector([0.0, 0, 0]),))


def test_rejects_component_outside_sigma_interval():
    s = square()
    with pytest.raises(InvalidInput, match="cone"):
        tensors.DichotomicTensor(
            sigma=s.vector([1.0, 0, 0]),
            components=(s.vector([0.0, 1.5, 0]),))


def test_unchecked_skips_validation():
    s = square()
    t = tensors.DichotomicTensor.unchecked(
        s.vector([1.0, 0, 0]), (s.vector([0.0, 9, 0]),))
    assert t.g == 1


def test_boundary_component_is_accepted():
    # sigma +- y on the cone boundary is still a valid tensor
    t = center_tensor((0.0, 1, 1))
    assert t.g == 1


def test_ball_component_outside_the_cone_is_rejected():
    b = systems.ball(2, "l2")
    with pytest.raises(InvalidInput, match="component 1 leaves the cone"):
        tensors.DichotomicTensor(
            sigma=b.vector([1.0, 0, 0]),
            components=(b.vector([0.0, 0.6, 0.8]), b.vector([0.0, 0.8, 0.8])))


def reference_valid(sigma, components):
    """The former tensor check: two cone_member LPs per component."""
    return all(systems.cone_member(sigma.system, sigma + e * y).member
               for y in components for e in (1, -1))


NAMED = {"square": lambda: systems.hypercube(2),
         "cube": lambda: systems.hypercube(3),
         "octahedron": lambda: systems.cross_polytope(3),
         "pentagon": lambda: systems.regular_polygon(5)}
# ||y||_sigma - 1 of the boundary component
DELTAS = (-1e-6, -1e-9, 0.0, 1e-12, 1e-9, 1e-6)


def changed_coordinates(rng, system):
    """The system under a random linear map with condition number <= 4."""
    d = system.dim
    Q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    Q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    M = Q1 @ np.diag(rng.uniform(0.5, 2.0, d)) @ Q2
    return systems.polytopic(system.vertices @ M.T)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(["hull", *NAMED]),
       on_face=st.booleans())
def test_facet_check_matches_the_cone_member_reference(seed, shape, on_face):
    rng = np.random.default_rng(seed)
    if shape == "hull":
        base = sampling.random_polytopic_system(
            rng, dim=int(rng.integers(2, 6)))
    else:
        base = NAMED[shape]()
    s = changed_coordinates(rng, base)
    V, F = s.vertices, s.cone_facets
    if on_face:
        # sigma well inside a facet; components in the facet's span, so the
        # facet itself stays tight for sigma +- y
        face = V[np.abs(V @ F[int(rng.integers(len(F)))]) <= 1e-9]
        w = 0.5 / len(face) + 0.5 * rng.dirichlet(np.ones(len(face)))
        sigma = s.vector(face.T @ w)
        span = face.T
    else:
        sigma = sampling.random_interior_state(rng, s)
        span = np.eye(s.dim)
    Fs = F @ sigma.coords
    live = Fs > 1e-9 * (1.0 + Fs.max())

    def scaled(norm):
        y = span @ rng.standard_normal(span.shape[1])
        return s.vector(y * (norm / np.max(np.abs(F[live] @ y) / Fs[live])))

    g = int(rng.integers(1, 4))
    x = int(rng.integers(g))
    for delta in DELTAS:
        comps = [scaled(0.5) for _ in range(g)]
        comps[x] = scaled(1.0 + delta)
        # the one rule on the entries (sigma +- y_x) / 2: min F v against
        # COINCIDENCE (1 + max |F v|)
        vals = np.array([(sigma.coords + e * y.coords) * 0.5
                         for y in comps for e in (1, -1)]) @ F.T
        margin = vals.min(axis=1)
        band = COINCIDENCE * (1.0 + np.abs(vals).max(axis=1))
        try:
            tensors.DichotomicTensor(sigma=sigma, components=tuple(comps))
            accepted = True
        except InvalidInput as exc:
            assert f"component {x} leaves the cone" in str(exc)
            accepted = False
        assert accepted == bool(np.all(margin >= -band))
        assert accepted or delta > 1e-9
        # the assemblage of an accepted tensor is built, with no
        # InvalidInput or NumericalFailure from a second boundary rule
        if accepted:
            asm = steering.from_dichotomic_tensor(
                tensors.DichotomicTensor.unchecked(sigma, comps))
            assert asm.shape == (2,) * g
        try:
            expected = reference_valid(sigma, comps)
        except NumericalFailure:
            # the reference LP fails numerically on some draws with sigma on
            # a face, and within 1e-9 of the boundary; the facet rule cannot
            assert on_face or abs(delta) == 1e-9
            continue
        if delta <= 1e-12 or np.any(margin < -band):
            # an entry inside the band is accepted by design; the
            # reference's LP tolerance may reject it
            assert expected == accepted
    comps[x] = scaled(1.0 + 1e-3)
    with pytest.raises(InvalidInput,
                       match=rf"^entry \([01]\|{x}\) is outside V\+$"):
        steering.from_dichotomic_tensor(
            tensors.DichotomicTensor.unchecked(sigma, comps))


RULE_SYSTEMS = {
    "hull": lambda rng: sampling.random_polytopic_system(
        rng, dim=int(rng.integers(3, 6))),
    "cube": lambda rng: systems.hypercube(3),
    "octahedron": lambda rng: systems.cross_polytope(3),
    "pentagon": lambda rng: systems.regular_polygon(5),
    **{f"{norm} ball": lambda rng, norm=norm: systems.ball(3, norm)
       for norm in systems.BALL_NORMS},
}
# ||y||_sigma - 1, either side of the boundary and of the COINCIDENCE band
NEAR = tuple(sign * d for d in (1e-12, 1e-9, 3e-9, 1e-8) for sign in (1, -1))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(list(RULE_SYSTEMS)))
def test_a_tensor_is_valid_exactly_when_its_assemblage_is(seed, shape):
    # one V+ rule: the tensor decides the very entries its assemblage holds
    rng = np.random.default_rng(seed)
    s = RULE_SYSTEMS[shape](rng)
    sigma = (s.barycenter if s.kind == systems.CENTRALLY_SYMMETRIC
             else sampling.random_interior_state(rng, s))

    def accepted(build):
        try:
            build()
        except InvalidInput:
            return False
        return True

    for delta in NEAR:
        u = s.vector(rng.standard_normal(s.dim))
        y = u * ((1.0 + delta) / systems.order_unit_norm(s, u, unit=sigma))
        as_tensor = accepted(
            lambda: tensors.DichotomicTensor(sigma=sigma, components=(y,)))
        as_assemblage = accepted(lambda: steering.Assemblage(
            sigma, (((sigma + y) * 0.5, (sigma - y) * 0.5),)))
        assert as_tensor == as_assemblage, delta
        assert as_tensor or delta > 0.0


def test_tensor_element_shape_check():
    with pytest.raises(InvalidInput, match="3 x 3"):
        tensors.TensorElement(
            system_a=square(), system_b=square(), coeffs=np.eye(2))


def test_tensor_element_rejects_text_and_bools():
    for bad in ("1", True, None):
        coeffs = np.eye(3).tolist()
        coeffs[1][2] = bad
        with pytest.raises(InvalidInput, match="^coeffs must be finite$"):
            tensors.TensorElement(
                system_a=square(), system_b=square(), coeffs=coeffs)


# ---------------------------------------------------------------------------
# frozen square values


def test_injective_norm_square_frozen():
    assert tensors.injective_norm_dichotomic(
        center_tensor(*AXIS)) == pytest.approx(1.0, abs=1e-9)
    assert tensors.injective_norm_dichotomic(
        center_tensor(*DIAG)) == pytest.approx(1.0, abs=1e-9)
    assert tensors.injective_norm_dichotomic(
        center_tensor((0.0, 0, 0), (0.0, 0, 0))) == 0.0


def test_steering_norm_square_frozen():
    assert tensors.steering_norm(
        center_tensor(*AXIS)).value == pytest.approx(1.0, abs=1e-7)
    assert tensors.steering_norm(
        center_tensor(*DIAG)).value == pytest.approx(2.0, abs=1e-7)
    assert tensors.steering_norm(
        center_tensor((0.0, 0, 0), (0.0, 0, 0))).value == pytest.approx(
            0.0, abs=1e-9)


def test_projective_sigma_square_frozen():
    assert tensors.projective_norm_dichotomic(
        center_tensor(*AXIS)) == pytest.approx(1.0, abs=1e-7)
    assert tensors.projective_norm_dichotomic(
        center_tensor(*DIAG)) == pytest.approx(2.0, abs=1e-7)


def test_diag_witness_is_the_half_diagonal_pair():
    res = tensors.steering_norm(center_tensor(*DIAG))
    w = [f.coords for f in res.witness.components]
    assert np.allclose(w[0], [0, 0.5, 0.5], atol=1e-7)
    assert np.allclose(w[1], [0, 0.5, -0.5], atol=1e-7)
    assert systems.pair(
        res.witness.base,
        square().vector([1.0, 0, 0])) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# certificates


def assert_certificates_consistent(t, res, tol=1e-7):
    V = t.system.vertices
    witness = res.witness
    assert witness.normalized
    Wv = np.array([f.coords for f in witness.components]) @ V.T
    assert ((witness.base.coords @ V.T)
            - np.abs(Wv).sum(axis=0)).min() >= -tol
    assert systems.pair(witness.base, t.sigma) == pytest.approx(
        1.0, abs=1e-8)
    attained = sum(
        f.coords @ y.coords
        for f, y in zip(witness.components, t.components))
    assert attained == pytest.approx(res.value, abs=tol * (1 + res.value))
    assert witness.detection_value(t) == pytest.approx(
        res.value, abs=CERTIFICATE)


def test_witness_failing_its_sign_condition_is_a_numerical_failure(
        monkeypatch):
    # Duals scaled past the base: the Witness constructor rejects them with
    # InvalidInput, which steering_norm reports as a numerical failure.
    real = lp.optimum

    def scaled(problem, what):
        out = real(problem, what)
        out.dual_eq = 10.0 * out.dual_eq
        return out

    monkeypatch.setattr(lp, "optimum", scaled)
    with pytest.raises(NumericalFailure, match="sign condition") as info:
        tensors.steering_norm(center_tensor(*DIAG))
    assert not isinstance(info.value, InvalidInput)


def test_certificates_on_frozen_instances():
    for comps in (AXIS, DIAG):
        t = center_tensor(*comps)
        assert_certificates_consistent(t, tensors.steering_norm(t))


def test_certificates_on_random_instances():
    rng = np.random.default_rng(55)
    for _ in range(25):
        dim = int(rng.integers(3, 5))
        g = int(rng.integers(1, 4))
        s = sampling.random_polytopic_system(rng, dim=dim)
        t = sampling.random_dichotomic_tensor(rng, s, g)
        assert_certificates_consistent(t, tensors.steering_norm(t))


def reference_strategy_bound(V, families):
    """The largest strategy sum at each vertex, one deterministic strategy
    at a time: the loop lhs_check's certificate check ran before
    local_bound."""
    P = [np.stack([V @ h for h in family]) for family in families]
    sums = [sum(P[x][omega[x]] for x in range(len(P)))
            for omega in itertools.product(*(range(len(p)) for p in P))]
    return np.max(np.stack(sums), axis=0)


def reference_signed_bound(V, comps):
    """sum_x |<w_x, v>| as the witness checks summed it before
    local_bound."""
    return np.sum(np.abs(np.stack([V @ w for w in comps])), axis=0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       name=st.sampled_from(["hull", *NAMED]))
def test_local_bound_equals_the_strategy_maximum(seed, shape, name):
    rng = np.random.default_rng(seed)
    if name == "hull":
        system = sampling.random_polytopic_system(
            rng, dim=int(rng.integers(2, 6)))
    else:
        system = NAMED[name]()
    V, d = system.vertices, system.dim
    scale = 10.0 ** int(rng.integers(-6, 7))
    families = [[scale * rng.standard_normal(d) for _ in range(k)]
                for k in shape]
    # ties between outcomes, and a functional that is zero on every vertex
    families[0].append(families[0][0].copy())
    families[-1][0] = np.zeros(d)
    got = tensors.local_bound(V, families)
    assert got.tobytes() == reference_strategy_bound(V, families).tobytes()
    comps = [scale * rng.standard_normal(d)
             for _ in range(int(rng.integers(1, 11)))] + [np.zeros(d)]
    got = tensors.local_bound(V, [(w, -w) for w in comps])
    assert got.tobytes() == reference_signed_bound(V, comps).tobytes()


# ---------------------------------------------------------------------------
# norm properties


def test_sandwich_on_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(60):
        dim = int(rng.integers(3, 5))
        g = int(rng.integers(1, 5))
        s = sampling.random_polytopic_system(rng, dim=dim)
        t = sampling.random_dichotomic_tensor(rng, s, g)
        inj = tensors.injective_norm_dichotomic(t)
        steer = tensors.steering_norm(t).value
        proj = tensors.projective_norm_dichotomic(t)
        assert inj <= steer + 1e-7
        assert steer <= proj + 1e-7


def test_embedded_projective_is_not_an_upper_bound():
    # the base-norm projective of the embedded (sigma, y) family can dip
    # below the steering norm when sigma is skewed; the sigma-normed
    # projective cannot.  Frozen counterexample, quadrilateral system.
    verts = np.array([
        [1.0, -0.04, 0.88],
        [1.0, -0.31, 0.10],
        [1.0, 0.71, 0.68],
        [1.0, 0.93, -0.25]])
    s = systems.polytopic(verts)
    t = tensors.DichotomicTensor(
        sigma=s.vector([1.0, 0.18, 0.41]),
        components=(
            s.vector([0.12, 0.12, -0.17]),
            s.vector([-0.04, 0.08, 0.03]),
            s.vector([-0.10, 0.33, 0.23])))
    steer = tensors.steering_norm(t).value
    embedded = tensors.projective_norm(tensors.embed_dichotomic(t))
    sigma_proj = tensors.projective_norm_dichotomic(t)
    assert steer == pytest.approx(1.124675921, abs=1e-7)
    assert embedded == pytest.approx(1.097616330, abs=1e-7)
    assert embedded < steer - 0.02
    assert sigma_proj >= steer - 1e-9


def test_sign_flip_invariance():
    rng = np.random.default_rng(3)
    s = sampling.random_polytopic_system(rng, dim=3)
    t = sampling.random_dichotomic_tensor(rng, s, 3)
    base = tensors.steering_norm(t).value
    for eps in ((1, -1, 1), (-1, -1, -1), (-1, 1, 1)):
        flipped = tensors.DichotomicTensor(
            sigma=t.sigma,
            components=tuple(
                e * y for e, y in zip(eps, t.components)))
        assert tensors.steering_norm(flipped).value == pytest.approx(
            base, abs=1e-8)


def test_permutation_invariance():
    rng = np.random.default_rng(4)
    s = sampling.random_polytopic_system(rng, dim=3)
    t = sampling.random_dichotomic_tensor(rng, s, 3)
    base = tensors.steering_norm(t).value
    perm = tensors.DichotomicTensor(
        sigma=t.sigma,
        components=(t.components[2], t.components[0], t.components[1]))
    assert tensors.steering_norm(perm).value == pytest.approx(base, abs=1e-8)


def test_zero_component_append_invariance():
    rng = np.random.default_rng(5)
    s = sampling.random_polytopic_system(rng, dim=3)
    t = sampling.random_dichotomic_tensor(rng, s, 2)
    base = tensors.steering_norm(t).value
    extended = tensors.DichotomicTensor(
        sigma=t.sigma,
        components=t.components + (s.vector(np.zeros(3)),))
    assert tensors.steering_norm(extended).value == pytest.approx(
        base, abs=1e-8)


def test_steering_norm_scales_linearly():
    t1 = center_tensor(*DIAG)
    half = tensors.DichotomicTensor(
        sigma=t1.sigma, components=tuple(0.5 * y for y in t1.components))
    assert tensors.steering_norm(half).value == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# errors and guards


def test_steering_norm_needs_interior_sigma():
    s = square()
    t = tensors.DichotomicTensor.unchecked(
        s.vector([1.0, 1.0, 0.0]), (s.vector([0.0, 0, 0]),))
    with pytest.raises(NotInterior):
        tensors.steering_norm(t)
    with pytest.raises(NotInterior):
        tensors.injective_norm_dichotomic(t)


def test_steering_norm_rejects_ball_systems():
    b = systems.ball(2, "l2")
    t = tensors.DichotomicTensor(
        sigma=b.vector([1.0, 0, 0]),
        components=(b.vector([0.0, 0.5, 0]),))
    with pytest.raises(InvalidInput):
        tensors.steering_norm(t)


def test_polytopic_validation_solves_no_lp(lp_solves):
    rng = np.random.default_rng(8)
    for system in (square(), systems.hypercube(3), systems.cross_polytope(3),
                   sampling.random_polytopic_system(rng, dim=4)):
        t = sampling.random_dichotomic_tensor(rng, system, 3)
        lp_solves.clear()
        tensors.DichotomicTensor(sigma=t.sigma, components=t.components)
        assert lp_solves == []
        tensors.projective_norm_dichotomic(t)
        assert len(lp_solves) == 1


def projective_all_signs(t):
    """The former projective LP: every sign vector, then [cols, -cols]."""
    B = tensors.sigma_interval_vertices(t.system, t.sigma)
    cols = np.array([np.concatenate([e * b for e in eps])
                     for eps in tensors.sign_vectors(t.g) for b in B]).T
    A_eq = np.concatenate([cols, -cols], axis=1)
    out = lp.solve(lp.LpProblem(
        objective=np.ones(A_eq.shape[1]), eq_rows=A_eq,
        eq_rhs=np.concatenate([y.coords for y in t.components])))
    assert out.status == "optimal"
    return float(out.value)


def test_projective_matches_the_all_sign_reference(lp_solves):
    rng = np.random.default_rng(150)
    shapes = list(NAMED.values())
    for k in range(160):
        if k % 2:
            system = shapes[k // 4 % len(shapes)]()
        else:
            system = sampling.random_polytopic_system(
                rng, dim=int(rng.integers(2, 5)))
        g = int(rng.integers(1, 5))
        if k % 4 < 2:
            t = sampling.random_dichotomic_tensor(rng, system, g)
        else:
            t = sampling.random_steerable_leaning_tensor(rng, system, g)
        lp_solves.clear()
        value = tensors.projective_norm_dichotomic(t)
        B = tensors.sigma_interval_vertices(system, t.sigma)
        assert lp_solves[-1].eq_rows.shape == (
            g * system.dim, 2 ** (g - 1) * len(B))
        ref = projective_all_signs(t)
        assert abs(value - ref) <= LP_GAP * (1.0 + abs(ref))


def test_sign_vector_guard(monkeypatch):
    monkeypatch.setenv("GPTSTEER_GUARDS", "sign_vectors=2")
    t = center_tensor((0.0, 0.5, 0), (0.0, 0, 0.5), (0.0, 0.2, 0.2))
    with pytest.raises(GuardExceeded):
        tensors.steering_norm(t)


# ---------------------------------------------------------------------------
# tensor elements, separability, cone tests


def test_product_state_norms():
    rng = np.random.default_rng(11)
    sa = sampling.random_polytopic_system(rng, dim=3)
    sb = sampling.random_polytopic_system(rng, dim=3)
    ra = sampling.random_interior_state(rng, sa)
    rb = sampling.random_interior_state(rng, sb)
    t = tensors.tensor_product(ra, rb)
    assert tensors.projective_norm(t) == pytest.approx(1.0, abs=1e-7)
    assert tensors.max_cone_member(t)
    res = tensors.min_cone_member(t)
    assert res.member
    Va, Vb = sa.vertices, sb.vertices
    recon = Va.T @ res.coefficients @ Vb
    assert np.allclose(recon, t.coeffs, atol=1e-8)


def test_zero_tensor_projective_norm():
    t = tensors.TensorElement(
        system_a=square(), system_b=square(), coeffs=np.zeros((3, 3)))
    assert tensors.projective_norm(t) == pytest.approx(0.0, abs=1e-12)
    assert tensors.min_cone_member(t).member


def test_max_cone_violation_detected():
    s = square()
    # -1 pairing against unit x unit
    t = tensors.TensorElement(
        system_a=s, system_b=s,
        coeffs=-np.outer([1.0, 0, 0], [1.0, 0, 0]))
    assert not tensors.max_cone_member(t)


def test_embedded_dichotomic_tensor_is_max_cone():
    rng = np.random.default_rng(21)
    for _ in range(10):
        s = sampling.random_polytopic_system(rng, dim=3)
        t = sampling.random_dichotomic_tensor(rng, s, int(rng.integers(1, 4)))
        assert tensors.max_cone_member(tensors.embed_dichotomic(t))


def test_separability_matches_projective_norm():
    rng = np.random.default_rng(33)
    seen = [0, 0]
    for k in range(40):
        if k % 2 == 0:
            sa = sampling.random_polytopic_system(rng, dim=3)
            sb = sampling.random_polytopic_system(rng, dim=3)
            t = sampling.random_max_cone_tensor(rng, sa, sb)
        else:
            sb = sampling.random_polytopic_system(rng, dim=3)
            t = sampling.random_dichotomic_max_cone_tensor(rng, sb)
            sa = t.system_a
        sep = tensors.min_cone_member(t)
        proj = tensors.projective_norm(t)
        if sep.member:
            seen[0] += 1
            assert proj <= 1.0 + 1e-7
        else:
            seen[1] += 1
            assert proj > 1.0 - 1e-7
            W = sep.witness
            assert (sa.vertices @ W @ sb.vertices.T).min() >= -1e-7
            assert float(np.sum(W * t.coeffs)) < 0
    assert min(seen) >= 5


def test_simplex_factor_collapses_the_cones():
    # with a simplex on one side every max-cone element is separable
    rng = np.random.default_rng(44)
    sa = systems.simplex(3)
    sb = sampling.random_polytopic_system(rng, dim=3)
    for _ in range(15):
        t = sampling.random_max_cone_tensor(rng, sa, sb)
        assert tensors.min_cone_member(t).member


def test_min_cone_witness_on_known_entangled_element():
    s = square()
    C = np.array([[1.0, 0, 0], [0, 1, 1], [0, 1, -1]])
    t = tensors.TensorElement(system_a=s, system_b=s, coeffs=C)
    assert tensors.max_cone_member(t)
    res = tensors.min_cone_member(t)
    assert not res.member
    assert tensors.projective_norm(t) > 1.0 + 1e-7


@pytest.mark.xfail(strict=True, raises=NumericalFailure,
                   reason="projective LP basis turns numerically singular")
def test_projective_norm_of_rotated_octahedron_tensor():
    # A randomly rotated cross_polytope(3).  Its sigma interval has 26
    # vertices at least 5e-4 apart, so enumeration is not at fault; the
    # simplex reports a numerically singular working basis.
    t = load_tensor(KNOWN_FAILURES / "rotated_octahedron_projective.json")
    assert tensors.projective_norm_dichotomic(t) > 0.0


@pytest.mark.xfail(strict=True, raises=NumericalFailure,
                   reason="simplex iteration limit in phase one (cycling)")
def test_disk_robustness_of_a_rank_two_qubit_tensor():
    # The first steering-norm LP of the disk bracket, on the inscribed
    # 64-gon (9 equality rows, 64 inequality rows, 513 columns), stops at
    # the iteration limit; HiGHS solves the same LP in 61 iterations, to
    # 1.1285799221648936.
    ball = systems.ball(3)
    t = tensors.DichotomicTensor(
        sigma=ball.vector([1.0, 0.0, 0.0, 0.0]),
        components=tuple(ball.vector(y) for y in (
            (0.0, 0.14910923215930152, 0.5267700785987224,
             -0.5923177658052656),
            (0.0, -0.72052549933614, 0.30406815799309167,
             -0.16377914502630078),
            (0.0, 0.6212615614296786, -0.2593694487274865,
             0.1382335895161032))))
    r = steering.robustness(steering.from_dichotomic_tensor(t))
    assert abs(r - 1.0 / 1.1285799221648936) <= 1e-3


# ---------------------------------------------------------------------------
# the sigma interval kept on the system


def test_sigma_interval_is_enumerated_once_per_sigma(monkeypatch):
    calls = []
    enumerate_vertices = tensors.vertices_of_polytope

    def counting(A, b):
        calls.append(1)
        return enumerate_vertices(A, b)

    monkeypatch.setattr(tensors, "vertices_of_polytope", counting)
    s = square()
    first = tensors.sigma_interval_vertices(s, s.vector([1.0, 0, 0]))
    assert len(calls) == 1 and not first.flags.writeable
    again = tensors.sigma_interval_vertices(s, s.vector([1.0, 0, 0]))
    assert len(calls) == 1
    assert again.tobytes() == first.tobytes()

    other = s.vector([1.0, 0.25, -0.5])
    moved = tensors.sigma_interval_vertices(s, other)
    assert len(calls) == 2
    F = s.cone_facets
    Fs = F @ other.coords
    fresh = enumerate_vertices(np.concatenate([F, -F]),
                               np.concatenate([Fs, Fs]))
    assert moved.tobytes() == fresh.tobytes()
    # two sigmas are kept: returning to the first costs no enumeration
    back = tensors.sigma_interval_vertices(s, s.vector([1.0, 0, 0]))
    assert len(calls) == 2 and back is first
    assert tensors.sigma_interval_vertices(s, other) is moved
    assert len(calls) == 2
    # a third distinct sigma evicts the one enumerated first
    tensors.sigma_interval_vertices(s, s.vector([1.0, -0.25, 0.5]))
    assert len(calls) == 3
    assert tensors.sigma_interval_vertices(s, other) is moved
    assert len(calls) == 3
    tensors.sigma_interval_vertices(s, s.vector([1.0, 0, 0]))
    assert len(calls) == 4
