"""Assemblages, hidden-state models, witnesses, robustness, measurements."""

import itertools

import numpy as np
import pytest

from gptsteer import choquet, guards, sampling, steering, systems, tensors
from gptsteer.errors import (
    GuardExceeded,
    InvalidInput,
    NotDichotomic,
    NotInterior,
)
from gptsteer.geometry import lex_sorted
from gptsteer.tolerances import RECONSTRUCTION


def square():
    return systems.hypercube(2)


def center_assemblage(*components):
    s = square()
    t = tensors.DichotomicTensor(
        sigma=s.vector([1.0, 0, 0]),
        components=tuple(s.vector(c) for c in components))
    return steering.from_dichotomic_tensor(t)


AXIS = ((0.0, 1, 0), (0.0, 0, 1))
DIAG = ((0.0, 1, 1), (0.0, 1, -1))


def random_system_tensor(rng, steerable_leaning):
    system = sampling.random_polytopic_system(
        rng, dim=int(rng.integers(3, 5)))
    g = int(rng.integers(2, 4))
    if steerable_leaning:
        return sampling.random_steerable_leaning_tensor(rng, system, g)
    return sampling.random_dichotomic_tensor(rng, system, g)


# ---------------------------------------------------------------------------
# assemblage type and the dichotomic round trip


def test_assemblage_accessors():
    asm = center_assemblage(*AXIS)
    assert asm.shape == (2, 2)
    assert asm.g == 2
    assert asm.system == square()


def test_round_trip_is_exact():
    rng = np.random.default_rng(11)
    for _ in range(10):
        t = random_system_tensor(rng, steerable_leaning=False)
        back = steering.to_dichotomic_tensor(
            steering.from_dichotomic_tensor(t))
        assert np.allclose(back.sigma.coords, t.sigma.coords, atol=1e-14)
        for y0, y1 in zip(back.components, t.components):
            assert np.allclose(y0.coords, y1.coords, atol=1e-14)


def test_from_dichotomic_tensor_inherits_membership(lp_solves):
    # the tensor's own cone test decides the entries: no LP, the same
    # (sigma +- y) * 0.5 arrays as before, and the round trip holds
    rng = np.random.default_rng(12)
    for system in (square(), systems.hypercube(3), systems.cross_polytope(3),
                   sampling.random_polytopic_system(rng, dim=4),
                   systems.ball(2, "l2"), systems.ball(3, "l1")):
        if system.kind == systems.POLYTOPIC:
            t = sampling.random_dichotomic_tensor(rng, system, 3)
        else:
            t = tensors.DichotomicTensor(
                sigma=system.vector(np.eye(system.dim)[0]),
                components=tuple(system.vector(np.concatenate(
                    [[0.0], rng.uniform(-0.3, 0.3, system.dim - 1)]))
                    for _ in range(3)))
        lp_solves.clear()
        asm = steering.from_dichotomic_tensor(t)
        assert lp_solves == []
        for (plus, minus), y in zip(asm.entries, t.components):
            assert plus.coords.tobytes() == (
                (t.sigma.coords + y.coords) * 0.5).tobytes()
            assert minus.coords.tobytes() == (
                (t.sigma.coords - y.coords) * 0.5).tobytes()
        back = steering.to_dichotomic_tensor(asm)
        assert np.max(np.abs(back.sigma.coords - t.sigma.coords)) \
            <= RECONSTRUCTION
        for y0, y1 in zip(back.components, t.components):
            assert np.max(np.abs(y0.coords - y1.coords)) <= RECONSTRUCTION


def test_from_dichotomic_tensor_checks_unchecked_tensors():
    s = square()
    t = tensors.DichotomicTensor.unchecked(
        s.vector([1.0, 0, 0]), (s.vector([0.0, 0.5, 0]),
                                 s.vector([0.0, 1.5, 0])))
    with pytest.raises(InvalidInput, match="component 1 leaves the cone"):
        steering.from_dichotomic_tensor(t)
    b = systems.ball(2, "l2")
    t = tensors.DichotomicTensor.unchecked(
        b.vector([1.0, 0, 0]), (b.vector([0.0, 0.8, 0.8]),))
    with pytest.raises(InvalidInput, match="component 0 leaves the cone"):
        steering.from_dichotomic_tensor(t)


def test_unchecked_assemblage_keeps_the_sum_check(lp_solves):
    s = square()
    sigma = s.vector([1.0, 0, 0])
    asm = steering.Assemblage.unchecked(
        sigma, ((s.vector([0.5, 0.2, 0]), s.vector([0.5, -0.2, 0])),))
    assert asm.shape == (2,) and lp_solves == []
    with pytest.raises(InvalidInput, match="sum to the barycenter"):
        steering.Assemblage.unchecked(
            sigma, ((s.vector([0.5, 0.2, 0]), s.vector([0.4, -0.2, 0])),))


def test_classical_sampler_solves_no_lp_and_mixing_keeps_its_lp(lp_solves):
    rng = np.random.default_rng(8)
    for system in (square(), systems.cross_polytope(3),
                   sampling.random_polytopic_system(rng, dim=4)):
        lp_solves.clear()
        asm = sampling.random_classical_assemblage(rng, system, (2, 3))
        assert lp_solves == []
        assert steering.lhs_check(asm).classical
        # mixed_with_trivial still decides each entry with a cone_member
        # LP: the robustness bisection's LP count is pinned by the
        # benchmark, so this builder keeps the LP until that pin moves
        lp_solves.clear()
        steering.mixed_with_trivial(asm, 0.5)
        assert len(lp_solves) == 5


def test_trivial_assemblage_has_zero_components():
    s = square()
    asm = steering.trivial_assemblage(s.vector([1.0, 0.2, -0.1]), (2, 2, 2))
    t = steering.to_dichotomic_tensor(asm)
    for y in t.components:
        assert np.allclose(y.coords, 0.0)


def test_trivial_assemblage_takes_integer_counts_only():
    sigma = square().vector([1.0, 0.2, -0.1])
    for bad in ((2, 2.5), (True, 2), (2, "2"), 2):
        with pytest.raises(InvalidInput, match="integer outcome counts"):
            steering.trivial_assemblage(sigma, bad)
    assert steering.trivial_assemblage(sigma, (np.int64(2), 3)).shape == (2, 3)


def test_square_vertex_assemblage_pattern():
    s = square()
    asm = steering.Assemblage(
        barycenter=s.vector([1.0, 0, 0]),
        entries=((s.vector([0.5, 0.5, 0.5]), s.vector([0.5, -0.5, -0.5])),))
    t = steering.to_dichotomic_tensor(asm)
    assert np.allclose(t.components[0].coords, [0.0, 1.0, 1.0])


def test_assemblage_rejects_entry_outside_cone():
    s = square()
    with pytest.raises(InvalidInput, match="outside V\\+"):
        steering.Assemblage(
            barycenter=s.vector([1.0, 0, 0]),
            entries=((s.vector([0.5, 0.9, 0]), s.vector([0.5, -0.9, 0])),))


def test_assemblage_rejects_sum_mismatch():
    s = square()
    with pytest.raises(InvalidInput, match="sum to the barycenter"):
        steering.Assemblage(
            barycenter=s.vector([1.0, 0, 0]),
            entries=((s.vector([0.5, 0.2, 0]), s.vector([0.4, -0.2, 0])),))


def test_assemblage_rejects_unnormalized_barycenter():
    s = square()
    with pytest.raises(InvalidInput, match="normalized"):
        steering.Assemblage(
            barycenter=s.vector([2.0, 0, 0]),
            entries=((s.vector([1.0, 0, 0]), s.vector([1.0, 0, 0])),))


def test_to_dichotomic_needs_two_outcomes():
    s = square()
    sigma = s.vector([1.0, 0, 0])
    third = sigma * (1.0 / 3.0)
    asm = steering.Assemblage(
        barycenter=sigma, entries=((third, third, third),))
    with pytest.raises(NotDichotomic):
        steering.to_dichotomic_tensor(asm)


# ---------------------------------------------------------------------------
# lhs_check: frozen square verdicts


def test_axis_pair_classical_quarter_model():
    verdict = steering.lhs_check(center_assemblage(*AXIS))
    assert verdict.classical
    assert verdict.witness is None and verdict.functionals is None
    model = verdict.model
    assert np.allclose(model.weights, 0.25)
    got = lex_sorted(np.stack([rho.coords for rho in model.states]))
    want = lex_sorted(square().vertices)
    assert np.allclose(got, want, atol=1e-9)
    assert model.reconstruction_error(center_assemblage(*AXIS)) <= 1e-10
    for row in model.responses:
        for r in row:
            assert set(np.round(r, 12)) <= {0.0, 1.0}


def test_diagonal_pair_witness_frozen():
    asm = center_assemblage(*DIAG)
    verdict = steering.lhs_check(asm)
    assert not verdict.classical
    assert verdict.model is None
    w = verdict.witness
    assert np.allclose(w.base.coords, [1.0, 0, 0], atol=1e-9)
    got = lex_sorted(np.stack([f.coords for f in w.components]))
    want = lex_sorted(np.array([[0.0, 0.5, 0.5], [0.0, 0.5, -0.5]]))
    assert np.allclose(got, want, atol=1e-9)
    assert w.normalized
    assert abs(w.detection_value(asm) - 2.0) <= 1e-9
    # the witness value 1 - detection on the assemblage is strictly negative
    assert 1.0 - w.detection_value(asm) < 0
    assert verdict.functionals is not None
    assert verdict.violation > 0


def test_simplex_assemblages_are_always_classical():
    # On a simplex every assemblage has the hidden-vertex form, so the
    # sampler covers the general case there.
    rng = np.random.default_rng(7)
    for k, shape in ((3, (2, 2)), (3, (3, 2)), (4, (2, 2, 2))):
        asm = sampling.random_classical_assemblage(
            rng, systems.simplex(k), shape)
        verdict = steering.lhs_check(asm)
        assert verdict.classical
        assert verdict.model.reconstruction_error(asm) <= 1e-8


def test_lhs_agrees_with_steering_norm():
    rng = np.random.default_rng(2025)
    seen = {True: 0, False: 0}
    for trial in range(26):
        t = random_system_tensor(rng, steerable_leaning=trial % 2 == 0)
        asm = steering.from_dichotomic_tensor(t)
        value = tensors.steering_norm(t).value
        verdict = steering.lhs_check(asm)
        assert verdict.classical == (value <= 1.0 + 1e-7)
        seen[verdict.classical] += 1
        if verdict.classical:
            assert verdict.model.reconstruction_error(asm) <= 1e-8
        else:
            assert verdict.witness.detection_value(asm) > 1.0
            assert verdict.violation > 0
    assert min(seen.values()) >= 5


def test_witness_duality_reaches_steering_norm():
    rng = np.random.default_rng(40)
    checked = 0
    while checked < 8:
        t = random_system_tensor(rng, steerable_leaning=True)
        value = tensors.steering_norm(t).value
        if value <= 1.0 + 1e-6:
            continue
        checked += 1
        asm = steering.from_dichotomic_tensor(t)
        farkas = steering.lhs_check(asm).witness.detection_value(asm)
        optimal = steering.optimal_witness(asm).detection_value(asm)
        best = max(farkas, optimal)
        assert farkas <= value + 1e-6
        assert abs(best - value) <= 1e-6
        assert abs(1.0 / steering.robustness(asm) - best) <= 1e-6


def test_classical_mixtures_stay_classical():
    rng = np.random.default_rng(9)
    for _ in range(8):
        system = sampling.random_polytopic_system(rng)
        sigma = sampling.random_interior_state(rng, system)
        pair = []
        for _ in range(2):
            t = sampling.random_dichotomic_tensor(rng, system, 2, sigma=sigma)
            scale = 0.95 / max(1.0, tensors.steering_norm(t).value)
            pair.append([y * scale for y in t.components])
        beta = float(rng.uniform(0.1, 0.9))
        mixed = tensors.DichotomicTensor(
            sigma=sigma,
            components=tuple(
                a * beta + b * (1.0 - beta)
                for a, b in zip(pair[0], pair[1])))
        assert steering.lhs_check(
            steering.from_dichotomic_tensor(mixed)).classical


def test_three_outcome_split_keeps_steering():
    # Splitting an outcome is classical post-processing: the split
    # assemblage steers exactly when the original does.
    asm = center_assemblage(*DIAG)
    s = square()
    split = steering.Assemblage(
        barycenter=asm.barycenter,
        entries=tuple(
            (row[0], row[1] * 0.5, row[1] * 0.5) for row in asm.entries))
    verdict = steering.lhs_check(split)
    assert not verdict.classical
    assert verdict.witness is None
    assert verdict.functionals is not None
    total = sum(
        systems.pair(f, rho)
        for frow, arow in zip(verdict.functionals, split.entries)
        for f, rho in zip(frow, arow))
    assert total > 0
    for omega in itertools.product(range(3), range(3)):
        combo = sum(
            verdict.functionals[x][omega[x]].coords for x in range(2))
        assert np.max(s.vertices @ combo) <= 1e-7


def test_lhs_guard_on_strategy_count(monkeypatch):
    monkeypatch.setenv("GPTSTEER_GUARDS", "lhs_atoms=8")
    sigma = square().vector([1.0, 0, 0])
    ok = steering.trivial_assemblage(sigma, (2, 2, 2))
    steering.lhs_check(ok)
    with pytest.raises(GuardExceeded):
        steering.lhs_check(steering.trivial_assemblage(sigma, (2, 2, 2, 2)))


def test_lhs_requires_polytopic():
    ball = systems.ball(2, "l2")
    asm = steering.trivial_assemblage(ball.vector([1.0, 0, 0]), (2, 2))
    with pytest.raises(InvalidInput):
        steering.lhs_check(asm)


# ---------------------------------------------------------------------------
# witness type and witness_verify


def test_one_witness_class():
    import gptsteer
    assert gptsteer.Witness is steering.Witness is tensors.Witness


def test_witness_rejects_bad_base():
    s = square()
    with pytest.raises(InvalidInput, match="dominate"):
        steering.Witness(
            components=(s.functional([0, 1.0, 0]), s.functional([0, 0, 1.0])),
            base=s.functional([1.0, 0, 0]))


def test_witness_normalized_needs_base():
    s = square()
    with pytest.raises(InvalidInput, match="base"):
        steering.Witness(
            components=(s.functional([0, 0.25, 0]),), normalized=True)


def test_witness_detection_needs_matching_g():
    s = square()
    w = steering.Witness(components=(s.functional([0, 0.5, 0]),))
    with pytest.raises(InvalidInput, match="different g"):
        w.detection_value(center_assemblage(*AXIS))


def test_ball_witness_dominance_check():
    ball = systems.ball(2, "l2")
    steering.Witness(
        components=(ball.functional([0, 0.5, 0]),),
        base=ball.functional([1.0, 0, 0]))
    with pytest.raises(InvalidInput, match="dominate"):
        steering.Witness(
            components=(ball.functional([0, 2.0, 0]),),
            base=ball.functional([1.0, 0, 0]))


def test_witness_verify_frozen_examples():
    s = square()
    sigma = s.vector([1.0, 0, 0])
    halves = steering.Witness(
        components=(s.functional([0, 0.5, 0]), s.functional([0, 0, 0.5])))
    v = steering.witness_verify(halves, sigma)
    assert v.valid and not v.strict
    total = sum(
        systems.sigma_base_norm(s, f, sigma)[0] for f in halves.components)
    assert abs(total - 1.0) <= 1e-9

    diag = steering.Witness(
        components=(s.functional([0, 0.5, 0.5]), s.functional([0, 0.5, -0.5])))
    v = steering.witness_verify(diag, sigma)
    assert v.valid and v.strict
    total = sum(
        systems.sigma_base_norm(s, f, sigma)[0] for f in diag.components)
    assert abs(total - 2.0) <= 1e-9

    zero = steering.Witness(components=(s.functional([0, 0, 0]),))
    v = steering.witness_verify(zero, sigma)
    assert v.valid and not v.strict


def test_witness_verify_takes_more_components_than_the_sign_guard():
    # the polytopic witness LP has one row per vertex whatever g is, so the
    # sign_vectors guard does not apply: 6 + 7 split diagonal halves
    s = square()
    comps = ((s.functional([0, 0.5 / 6, 0.5 / 6]),) * 6
             + (s.functional([0, 0.5 / 7, -0.5 / 7]),) * 7)
    w = steering.Witness(components=comps)
    assert w.g == 13 > guards.limit("sign_vectors")
    v = steering.witness_verify(w, s.vector([1.0, 0, 0]))
    assert v.valid and v.strict


def test_witness_verify_infeasible_components():
    s = square()
    w = steering.Witness(
        components=(s.functional([0, 2.0, 0]), s.functional([0, 0, 2.0])))
    v = steering.witness_verify(w, s.vector([1.0, 0, 0]))
    assert not v.valid and not v.strict and v.base is None


def test_witness_verify_returns_dominating_base():
    rng = np.random.default_rng(23)
    for _ in range(10):
        system = sampling.random_polytopic_system(rng)
        sigma = sampling.random_interior_state(rng, system)
        g = int(rng.integers(1, 4))
        comps = []
        for _ in range(g):
            h = rng.standard_normal(system.dim)
            h /= g * np.max(np.abs(system.vertices @ h)) / 0.9
            comps.append(system.functional(h))
        v = steering.witness_verify(
            steering.Witness(components=tuple(comps)), sigma)
        assert v.valid
        need = np.sum(np.abs(np.stack(
            [system.vertices @ f.coords for f in comps])), axis=0)
        have = system.vertices @ v.base.coords
        assert np.min(have - need) >= -1e-7
        assert abs(float(v.base.coords @ sigma.coords) - 1.0) <= 1e-7


def test_strict_witness_detects_some_assemblage():
    s = square()
    sigma = s.vector([1.0, 0, 0])
    rng = np.random.default_rng(31)
    found = 0
    while found < 4:
        t = sampling.random_steerable_leaning_tensor(rng, s, 2, sigma=sigma)
        if tensors.steering_norm(t).value <= 1.0 + 1e-6:
            continue
        found += 1
        w = steering.optimal_witness(steering.from_dichotomic_tensor(t))
        assert steering.witness_verify(w, sigma).strict
        comps = []
        for f in w.components:
            _, achiever = systems.sigma_base_norm(s, f, sigma)
            if float(f.coords @ achiever.coords) < 0:
                achiever = -achiever
            comps.append(achiever)
        demo = tensors.DichotomicTensor(sigma=sigma, components=tuple(comps))
        assert tensors.steering_norm(demo).value > 1.0
        assert w.detection_value(demo) > 1.0


def test_witness_verify_errors():
    s = square()
    w = steering.Witness(
        components=(s.functional([0, 0.1, 0]), s.functional([0, 0, 0.1])))
    with pytest.raises(NotInterior):
        steering.witness_verify(w, s.vector([1.0, 1.0, 1.0]))
    with pytest.raises(InvalidInput, match="another system"):
        steering.witness_verify(w, systems.simplex(3).vector([1, 0, 0]))
    for bad in (np.array([1.0, 0, 0]), s.functional([1.0, 0, 0])):
        with pytest.raises(InvalidInput, match="must be a Vector"):
            steering.witness_verify(w, bad)


def test_optimal_witness_attains_the_norm():
    asm = center_assemblage(*DIAG)
    w = steering.optimal_witness(asm)
    assert w.normalized
    assert abs(w.detection_value(asm) - 2.0) <= 1e-7


# ---------------------------------------------------------------------------
# robustness


def test_trivial_assemblage_robustness_one():
    sigma = square().vector([1.0, -0.3, 0.4])
    assert steering.robustness(
        steering.trivial_assemblage(sigma, (2, 2))) == 1.0


def test_diagonal_robustness_half():
    assert abs(steering.robustness(center_assemblage(*DIAG)) - 0.5) <= 1e-7


def test_classical_pairs_cap_at_one():
    assert steering.robustness(center_assemblage(*AXIS)) == 1.0
    damped = center_assemblage((0, 0.4, 0.4), (0, 0.4, -0.4))
    assert steering.robustness(damped) == 1.0


def test_bloch_two_axes_robustness():
    ball = systems.ball(3, "l2")
    t = tensors.DichotomicTensor(
        sigma=ball.vector([1.0, 0, 0, 0]),
        components=(ball.vector([0, 1.0, 0, 0]), ball.vector([0, 0, 1.0, 0])))
    r = steering.robustness(steering.from_dichotomic_tensor(t))
    assert abs(r - 1.0 / np.sqrt(2.0)) <= 1e-3


def test_ball_twin_robustness():
    l1 = systems.ball(2, "l1")
    t = tensors.DichotomicTensor(
        sigma=l1.vector([1.0, 0, 0]),
        components=(l1.vector([0, 1.0, 0]), l1.vector([0, 0, 1.0])))
    assert abs(steering.robustness(
        steering.from_dichotomic_tensor(t)) - 0.5) <= 1e-7
    linf = systems.ball(2, "linf")
    t = tensors.DichotomicTensor(
        sigma=linf.vector([1.0, 0, 0]),
        components=(linf.vector([0, 1.0, 1.0]), linf.vector([0, 1.0, -1.0])))
    assert abs(steering.robustness(
        steering.from_dichotomic_tensor(t)) - 0.5) <= 1e-7


def test_ball_twin_is_built_once(monkeypatch):
    # each (norm, n) builds its polytopic twin on the first robustness call
    # only; the value keeps the bytes of a freshly built twin's norm
    builds = []
    polytopic = systems.polytopic

    def counting(*args, **kwargs):
        builds.append(args)
        return polytopic(*args, **kwargs)

    monkeypatch.setattr(systems, "polytopic", counting)
    steering._ball_twin.cache_clear()
    rng = np.random.default_rng(12)
    for norm, build, order in (("l1", systems.cross_polytope, 1),
                               ("linf", systems.hypercube, np.inf)):
        for n in (2, 3):
            ball = systems.ball(n, norm)
            fresh = build(n)
            for call in range(3):
                raw = rng.uniform(-1.0, 1.0, size=(2, n))
                ys = 0.9 * raw / np.linalg.norm(raw, ord=order, axis=1)[:, None]
                t = tensors.DichotomicTensor(
                    sigma=ball.vector(np.r_[1.0, np.zeros(n)]),
                    components=tuple(ball.vector(np.r_[0.0, y]) for y in ys))
                builds.clear()
                r = steering.robustness(steering.from_dichotomic_tensor(t))
                assert len(builds) == (1 if call == 0 else 0)
                value = tensors.steering_norm(tensors.DichotomicTensor.unchecked(
                    fresh.vector(t.sigma.coords),
                    tuple(fresh.vector(y.coords) for y in t.components))).value
                assert r.hex() == (1.0 if value <= 1.0 else 1.0 / value).hex()
    # the l2 disk's two polygons likewise: both on the first call only
    steering._disk_polygons.cache_clear()
    for call, t in enumerate(_disk_family(rng, 3)):
        builds.clear()
        steering.robustness(steering.from_dichotomic_tensor(t))
        assert len(builds) == (2 if call == 0 else 0)


def _disk_family(rng, count):
    """Tensors at the center of ball(2) and ball(3) with two or three
    components of spatial rank <= 2 (a random plane), of spatial norm
    0.55-0.95 and first coordinate within 0.05 of zero."""
    for k in range(count):
        n = 2 + k % 2
        ball = systems.ball(n)
        Q = np.linalg.qr(rng.standard_normal((n, 2)))[0]
        comps = []
        for _ in range(2 + (k // 2) % 2):
            c = rng.standard_normal(2)
            c *= rng.uniform(0.55, 0.95) / np.linalg.norm(c)
            comps.append(ball.vector(np.r_[rng.uniform(-0.05, 0.05), Q @ c]))
        yield tensors.DichotomicTensor(
            sigma=ball.vector(np.r_[1.0, np.zeros(n)]),
            components=tuple(comps))


# robustness of `_disk_family(default_rng(0), 16)` when each call built
# both polygons afresh from cos and sin of the angles
DISK_ROBUSTNESS = [
    "0x1.b0fb29b5f9757p-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    "0x1.e57d56b2803a3p-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    "0x1.9f2d9e1f1500cp-1", "0x1.9e6db43d968c6p-1", "0x1.0000000000000p+0",
    "0x1.e811d72220121p-1", "0x1.b719b264d1c37p-1", "0x1.e5979a58d4ae3p-1",
    "0x1.f3da428bbc05ap-1", "0x1.d7b0df3768678p-1", "0x1.8a88e85673e72p-1",
    "0x1.bed9bb904b8ccp-1"]


def test_disk_robustness_keeps_its_bytes():
    got = [steering.robustness(steering.from_dichotomic_tensor(t)).hex()
           for t in _disk_family(np.random.default_rng(0), 16)]
    assert got == DISK_ROBUSTNESS


def test_disk_polygons_are_the_regular_polygon_and_its_scaling():
    inner, outer = steering._disk_polygons()
    want = systems.regular_polygon(64)
    assert inner.vertices.tobytes() == want.vertices.tobytes()
    assert inner.unit.tobytes() == outer.unit.tobytes() == want.unit.tobytes()
    ang = 2.0 * np.pi * np.arange(64) / 64
    radius = 1.0 / np.cos(np.pi / 64)
    assert outer.vertices.tobytes() == np.column_stack(
        [np.ones(64), radius * np.cos(ang), radius * np.sin(ang)]).tobytes()


def test_general_shape_bisection_postcondition():
    asm = center_assemblage(*DIAG)
    split = steering.Assemblage(
        barycenter=asm.barycenter,
        entries=tuple(
            (row[0], row[1] * 0.5, row[1] * 0.5) for row in asm.entries))
    r = steering.robustness(split)
    assert 0.0 < r < 1.0
    assert steering.lhs_check(steering.mixed_with_trivial(split, r)).classical
    probe = min(1.0, r + 2e-6)
    assert not steering.lhs_check(
        steering.mixed_with_trivial(split, probe)).classical


def test_disk_reduction_rank_guard():
    ball = systems.ball(3, "l2")
    t = tensors.DichotomicTensor(
        sigma=ball.vector([1.0, 0, 0, 0]),
        components=(ball.vector([0, 0.9, 0, 0]), ball.vector([0, 0, 0.9, 0]),
                    ball.vector([0, 0, 0, 0.9])))
    with pytest.raises(GuardExceeded, match="rank"):
        steering.robustness(steering.from_dichotomic_tensor(t))


def test_disk_reduction_needs_central_barycenter():
    ball = systems.ball(2, "l2")
    t = tensors.DichotomicTensor(
        sigma=ball.vector([1.0, 0.3, 0]),
        components=(ball.vector([0, 0.1, 0]),))
    with pytest.raises(InvalidInput, match="center"):
        steering.robustness(steering.from_dichotomic_tensor(t))


def test_robustness_needs_interior_sigma():
    s = square()
    sigma = s.vector([1.0, 1.0, 1.0])
    asm = steering.Assemblage(
        barycenter=sigma, entries=((sigma * 0.5, sigma * 0.5),))
    with pytest.raises(NotInterior):
        steering.robustness(asm)


def test_mixing_monotone_in_noise():
    asm = center_assemblage(*DIAG)
    assert steering.mixed_with_trivial(asm, 1.0).entries[0][0].coords \
        == pytest.approx(asm.entries[0][0].coords)
    trivial = steering.mixed_with_trivial(asm, 0.0)
    assert np.allclose(trivial.entries[0][0].coords,
                       asm.barycenter.coords * 0.5)
    with pytest.raises(InvalidInput):
        steering.mixed_with_trivial(asm, 1.2)
    # one real number: no text, bool or None, and no list or array of one
    for bad in ("0.5", True, None, [0.5], np.array([0.5]),
                np.array([[0.5]])):
        with pytest.raises(InvalidInput, match="real number"):
            steering.mixed_with_trivial(asm, bad)
    assert [[rho.coords.tobytes() for rho in row] for row in
            steering.mixed_with_trivial(asm, np.float64(0.75)).entries] == \
        [[rho.coords.tobytes() for rho in row]
         for row in steering.mixed_with_trivial(asm, 0.75).entries]
    assert steering.mixed_with_trivial(asm, np.array(0.75)).shape == asm.shape
    values = [steering.robustness(
        steering.mixed_with_trivial(asm, s)) for s in (1.0, 0.75, 0.5)]
    assert values[0] <= values[1] <= values[2]
    assert abs(values[2] - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# the universal steering degree


def test_universal_degree_values():
    for system, value in ((square(), 0.5), (systems.hypercube(3), 0.5),
                          (systems.cross_polytope(3), 1 / 3),
                          (systems.regular_polygon(6), 2 / 3),
                          (systems.simplex(3), 1.0)):
        got, mu = choquet.universal_degree(system)
        assert abs(got - value) <= 1e-12
        assert isinstance(mu, choquet.BoundaryMeasure)
        assert np.allclose(mu.barycenter.coords, system.barycenter.coords,
                           atol=RECONSTRUCTION)


def test_degree_estimate_square():
    # the square's degree 1/2: the uniform vertex measure attains it, and
    # the two diagonal settings reach it as injective / steering norm
    s = square()
    value, mu = choquet.universal_degree(s)
    assert abs(value - 0.5) <= 1e-12
    assert abs(choquet.c_mu(s, s.barycenter, mu) - value) <= 1e-12
    assert abs(choquet.c_mu(s, s.barycenter, choquet.vertex_measure(s))
               - value) <= 1e-12
    t = tensors.DichotomicTensor(
        sigma=s.barycenter, components=tuple(s.vector(c) for c in DIAG))
    ratio = (tensors.injective_norm_dichotomic(t)
             / tensors.steering_norm(t).value)
    assert abs(ratio - value) <= 1e-9


def test_universal_degree_lies_between_one_over_dim_and_one():
    rng = np.random.default_rng(77)
    for dim in (2, 3, 3, 4):
        system = sampling.random_polytopic_system(rng, dim=dim,
                                                  max_points=dim + 2)
        for sigma in (system.barycenter,
                      sampling.random_interior_state(rng, system)):
            value = choquet.universal_degree(system, sigma)[0]
            assert 1.0 / dim - 1e-12 <= value <= 1.0


def _degree_ratios(rng, system, sigma):
    """injective / steering norm of the families with 1 to 4 settings:
    combinations of sigma-interval vertices, then sampled tensors."""
    B = tensors.sigma_interval_vertices(system, sigma)
    out = []
    for g in range(1, 5):
        families = [tensors.DichotomicTensor.unchecked(
            sigma, tuple(system.vector(B[j]) for j in combo))
            for combo in itertools.islice(
                itertools.combinations(range(B.shape[0]), g), 12)]
        for k in range(6):
            draw = (sampling.random_steerable_leaning_tensor if k % 2 == 0
                    else sampling.random_dichotomic_tensor)
            families.append(draw(rng, system, g, sigma=sigma))
        for t in families:
            steer = tensors.steering_norm(t).value
            if steer > 1e-12:
                out.append(tensors.injective_norm_dichotomic(t) / steer)
    return np.array(out)


def test_universal_degree_bounds_every_sampled_degree_ratio():
    # the degree is the infimum over every number of settings: no family
    # goes below it, and on the named polytopes a vertex family reaches it
    rng = np.random.default_rng(0)
    hull = sampling.random_polytopic_system(rng, dim=3, max_points=5)
    for system, sigma, attained in (
            (square(), square().barycenter, True),
            (systems.cross_polytope(3), systems.cross_polytope(3).barycenter,
             True),
            (hull, sampling.random_interior_state(rng, hull), False)):
        value = choquet.universal_degree(system, sigma)[0]
        ratios = _degree_ratios(rng, system, sigma)
        assert ratios.size > 50
        assert ratios.min() >= value - 1e-9
        if attained:
            assert ratios.min() <= value + 1e-9


# ---------------------------------------------------------------------------
# measurements and the dual system


def test_dual_square_is_the_diamond():
    dual = steering.dual_system(square())
    got = lex_sorted(dual.vertices)
    want = lex_sorted(np.array(
        [[1.0, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1]]))
    assert np.allclose(got, want, atol=1e-9)
    assert np.allclose(dual.unit, [1.0, 0, 0], atol=1e-12)
    # and the dual of the diamond is the square again
    back = steering.dual_system(dual)
    assert np.allclose(
        lex_sorted(back.vertices), lex_sorted(square().vertices), atol=1e-9)


def test_measurement_bridge_compatibility_threshold():
    s = square()
    verdicts = {}
    for lam in (0.5, 0.6):
        pair = [
            systems.dichotomic_measurement(
                s, s.functional([0.5, 0.5 * lam, 0])),
            systems.dichotomic_measurement(
                s, s.functional([0.5, 0, 0.5 * lam])),
        ]
        asm = steering.measurements_to_assemblage(s, pair)
        assert np.allclose(asm.barycenter.coords, [1.0, 0, 0])
        verdicts[lam] = steering.lhs_check(asm).classical
    assert verdicts[0.5] and not verdicts[0.6]


def test_single_and_identical_measurements_compatible():
    s = square()
    m = systems.dichotomic_measurement(s, s.functional([0.5, 0.5, 0]))
    assert steering.lhs_check(
        steering.measurements_to_assemblage(s, [m])).classical
    assert steering.lhs_check(
        steering.measurements_to_assemblage(s, [m, m])).classical


def test_simplex_joint_measurement_matches_products():
    # On a classical system the product effects G_omega(i) =
    # prod_x f_{omega_x|x}(i) are an explicit joint measurement, so the
    # LP verdict must be Classical and the marginals must come out exact.
    rng = np.random.default_rng(3)
    system = systems.simplex(3)
    for n_meas in (1, 2, 3):
        effects = [rng.uniform(0.0, 1.0, 3) for _ in range(n_meas)]
        ms = [systems.dichotomic_measurement(system, system.functional(f))
              for f in effects]
        for omega in itertools.product(*(range(2) for _ in range(n_meas))):
            joint = np.ones(3)
            for x, a in enumerate(omega):
                joint *= ms[x].effects[a].coords
            assert np.all(joint >= -1e-12)
        for x in range(n_meas):
            for a in range(2):
                marg = np.zeros(3)
                for omega in itertools.product(
                        *(range(2) for _ in range(n_meas))):
                    if omega[x] != a:
                        continue
                    term = np.ones(3)
                    for xx, aa in enumerate(omega):
                        term *= ms[xx].effects[aa].coords
                    marg += term
                assert np.allclose(marg, ms[x].effects[a].coords, atol=1e-12)
        asm = steering.measurements_to_assemblage(system, ms)
        assert steering.lhs_check(asm).classical


def test_bridge_rejects_foreign_measurements():
    s = square()
    m = systems.dichotomic_measurement(s, s.functional([0.5, 0.5, 0]))
    with pytest.raises(InvalidInput):
        steering.measurements_to_assemblage(systems.simplex(3), [m])
    with pytest.raises(InvalidInput, match="at least one"):
        steering.measurements_to_assemblage(s, [])


# ---------------------------------------------------------------------------
# model validation


def test_model_validation_errors():
    s = square()
    state = s.vector([1.0, 0, 0])
    resp = ((np.array([1.0, 0.0]),),)
    with pytest.raises(InvalidInput, match="positive"):
        steering.LhsModel(
            weights=np.array([0.0]), states=(state,), responses=resp)
    with pytest.raises(InvalidInput, match="sum to 1"):
        steering.LhsModel(
            weights=np.array([0.5]), states=(state,), responses=resp)
    with pytest.raises(InvalidInput, match="align"):
        steering.LhsModel(
            weights=np.array([1.0]), states=(state, state), responses=resp)
    with pytest.raises(InvalidInput, match="sum to 1 per setting"):
        steering.LhsModel(
            weights=np.array([1.0]), states=(state,),
            responses=((np.array([0.7, 0.7]),),))
    with pytest.raises(InvalidInput, match="normalized"):
        steering.LhsModel(
            weights=np.array([1.0]), states=(s.vector([2.0, 0, 0]),),
            responses=resp)
    # NaN fails the range test rather than slipping past both
    for bad in ([np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan]):
        with pytest.raises(InvalidInput, match=r"lie in \[0, 1\]"):
            steering.LhsModel(
                weights=np.array([1.0]), states=(state,),
                responses=((np.array(bad),),))
    for bad in (["1"], [True]):
        with pytest.raises(InvalidInput, match="real numbers"):
            steering.LhsModel(weights=bad, states=(state,), responses=resp)
    model = steering.LhsModel(
        weights=np.array([1.0]), states=(state,), responses=resp)
    with pytest.raises(InvalidInput, match="shape"):
        model.reconstruction_error(center_assemblage(*AXIS))
    # responses are one row per setting for every hidden state: a ragged
    # setting or a missing one is rejected
    two = (state, state)
    with pytest.raises(InvalidInput):
        steering.LhsModel(
            weights=np.array([0.5, 0.5]), states=two,
            responses=(([1.0, [0.0]],), ([1.0, 0.0],)))
    with pytest.raises(InvalidInput):
        steering.LhsModel(
            weights=np.array([0.5, 0.5]), states=two,
            responses=(([1.0, 0.0],), ([1.0, 0.0, 0.0],)))
    with pytest.raises(InvalidInput, match="align"):
        steering.LhsModel(
            weights=np.array([0.5, 0.5]), states=two,
            responses=(([1.0, 0.0],), ([1.0, 0.0], [0.0, 1.0])))


def test_model_copies_and_freezes_its_responses():
    asm = center_assemblage(*AXIS)
    built = steering.lhs_check(asm).model
    mine = [[np.array(r) for r in row] for row in built.responses]
    model = steering.LhsModel(
        weights=built.weights, states=built.states, responses=mine)
    before = [[r.tobytes() for r in row] for row in model.responses]
    err = model.reconstruction_error(asm)
    for row in mine:
        for r in row:
            r[:] = 0.5
    mine[0][0] = np.array([0.0, 1.0])
    assert [[r.tobytes() for r in row] for row in model.responses] == before
    assert model.reconstruction_error(asm).hex() == err.hex()
    for row in model.responses:
        for r in row:
            assert not r.flags.writeable
    for R in model.by_setting:
        assert not R.flags.writeable
    with pytest.raises(ValueError):
        model.responses[0][0][0] = 0.5


# ---------------------------------------------------------------------------
# the array path against loop references: the per-strategy loops that
# `_build_model`, `LhsModel.reconstruction_error` and `mixed_with_trivial`
# replaced, kept to pin every byte of their answers


def loop_build_model(asm, omegas, phi):
    """(weights, states, responses) of the model, one strategy at a time."""
    system = asm.system
    unit = system.unit_functional.coords
    weights, states, responses = [], [], []
    for j, omega in enumerate(omegas):
        q = float(unit @ phi[j])
        if q <= 1e-15:
            continue
        weights.append(q)
        states.append(system.vector(phi[j] / q))
        resp = []
        for x, k in enumerate(asm.shape):
            row = np.zeros(k)
            row[omega[x]] = 1.0
            resp.append(row)
        responses.append(tuple(resp))
    return np.asarray(weights) / float(np.sum(weights)), states, responses


def loop_reconstruction_error(weights, states, responses, asm):
    worst = 0.0
    for x, row in enumerate(asm.entries):
        for a, rho in enumerate(row):
            acc = np.zeros(asm.system.dim)
            for q, state, resp in zip(weights, states, responses):
                acc = acc + q * resp[x][a] * state.coords
            worst = max(worst, float(np.max(np.abs(acc - rho.coords))))
    return worst


def vector_mixed_entries(asm, s):
    """mixed_with_trivial's entries by three `Vector` operations each."""
    return tuple(
        tuple(rho * s + asm.barycenter * ((1.0 - s) / len(row))
              for rho in row)
        for row in asm.entries)


def coord_bytes(vectors):
    return [v.coords.tobytes() for v in vectors]


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_array_path_matches_the_loop_references(shape, monkeypatch):
    calls = []
    build = steering._build_model

    def spy(asm, omegas, phi):
        calls.append((omegas, phi))
        return build(asm, omegas, phi)

    monkeypatch.setattr(steering, "_build_model", spy)
    rng = np.random.default_rng(sum(shape) + 10 * len(shape))
    for system in (square(), systems.simplex(3), systems.regular_polygon(5),
                   systems.hypercube(3), systems.cross_polytope(3)):
        asm = sampling.random_classical_assemblage(rng, system, shape)
        calls.clear()
        model = steering.lhs_check(asm).model
        [(omegas, phi)] = calls
        omegas = [tuple(int(a) for a in omega) for omega in omegas]
        assert omegas == list(itertools.product(*(range(k) for k in shape)))
        weights, states, responses = loop_build_model(asm, omegas, phi)
        assert model.weights.tobytes() == weights.tobytes()
        assert coord_bytes(model.states) == coord_bytes(states)
        assert [[(r.shape, r.tobytes()) for r in row]
                for row in model.responses] == \
            [[(r.shape, r.tobytes()) for r in row] for row in responses]
        assert model.reconstruction_error(asm).hex() == \
            loop_reconstruction_error(weights, states, responses, asm).hex()
        # stochastic responses: every product and sum is a nontrivial float
        mixed = [tuple(rng.dirichlet(np.ones(k)) for k in shape)
                 for _ in states]
        other = steering.LhsModel(
            weights=weights, states=states, responses=mixed)
        assert other.reconstruction_error(asm).hex() == \
            loop_reconstruction_error(weights, states, mixed, asm).hex()
        for s in (0.0, 0.3, 0.5, 1.0):
            got = steering.mixed_with_trivial(asm, s).entries
            want = vector_mixed_entries(asm, s)
            assert [coord_bytes(row) for row in got] == \
                [coord_bytes(row) for row in want]
