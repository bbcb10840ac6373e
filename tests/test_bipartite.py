"""Bipartite states, steering maps, and the dichotomic unsteerability test."""

import math

import lp_cases
import numpy as np
import pytest

from gptsteer import (bipartite, choquet, geometry, lp, sampling, steering,
                      systems, tensors, tolerances)
from gptsteer.errors import (
    GuardExceeded,
    InvalidInput,
    MarginalNotInterior,
    NotInterior,
    NumericalFailure,
    SystemMismatch,
)

DIAG = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 1.0],
    [0.0, 1.0, -1.0],
])


def square():
    return systems.hypercube(2)


def state_on(sys_a, sys_b, coeffs):
    return bipartite.BipartiteState(tensors.TensorElement(
        system_a=sys_a, system_b=sys_b, coeffs=np.asarray(coeffs, float)))


def diagonal_state():
    """Embeds the diagonal two-setting family over the square."""
    sq = square()
    t = tensors.DichotomicTensor(
        sigma=sq.vector((1.0, 0.0, 0.0)),
        components=(sq.vector((0.0, 1.0, 1.0)), sq.vector((0.0, 1.0, -1.0))))
    return bipartite.BipartiteState(tensors.embed_dichotomic(t))


def noise_mixed(state, lam):
    """lam of the product of marginals plus 1 - lam of the state."""
    product = np.outer(state.marginal_a.coords, state.marginal_b.coords)
    return state_on(state.system_a, state.system_b,
                    lam * product + (1.0 - lam) * state.coeffs)


def axis_projections(system, count):
    meas = []
    for i in range(1, count + 1):
        axis = np.zeros(system.dim)
        axis[i] = 1.0
        meas.append(systems.dichotomic_measurement(
            system, system.functional(0.5 * (system.unit + axis))))
    return tuple(meas)


def separable_state(seed=21):
    rng = np.random.default_rng(seed)
    sq = square()
    c = sampling.random_separable_coeffs(rng, sq, sq)
    return state_on(sq, sq, c / float(sq.unit @ c @ sq.unit))


def doubled_rows_unsteerable(state, s):
    """`unsteerable_sufficient` with every sigma_B-interval vertex y and its
    mirror -y both stacked with their negations, so that each half-space
    |<h, y>| <= 1/s enters the vertex search twice: the reference whose
    verdict the one-row-per-half-space test must give."""
    Y = tensors.sigma_interval_vertices(state.system_b, state.marginal_b)
    sig = state.marginal_b.coords
    rows = np.vstack([Y, -Y, sig[None, :], -sig[None, :]])
    rhs = np.concatenate([np.full(2 * Y.shape[0], 1.0 / s), np.ones(2)])
    H = geometry.vertices_of_polytope(rows, rhs)
    E = systems.interval_extremes(state.system_a)
    norms = np.abs(E @ state.coeffs @ H.T).max(axis=0)
    return bool(np.all(norms <= 1.0 + tolerances.CERTIFICATE))


def random_bipartite_states(rng, count):
    """Product, separable, noise-mixed diagonal and normalized max-cone
    states, in turn, on the square, the pentagon, simplex(3) and random
    dim-3 hulls."""
    pool = (square(), systems.regular_polygon(5), systems.simplex(3))
    diag = diagonal_state()
    for j in range(count):
        a = pool[j % 2]
        b = (pool[(j // 2) % 3] if j % 5
             else sampling.random_polytopic_system(rng, 3))
        kind = j % 4
        if kind == 0:
            yield bipartite.product_state(
                sampling.random_interior_state(rng, a),
                sampling.random_interior_state(rng, b))
        elif kind == 1:
            c = sampling.random_separable_coeffs(rng, a, b)
            yield state_on(a, b, c / float(a.unit @ c @ b.unit))
        elif kind == 2:
            yield noise_mixed(diag, float(rng.uniform()))
        else:
            yield bipartite.BipartiteState(
                sampling.random_max_cone_tensor(rng, a, b))


def vertex_weights(state, model):
    """Model measure atoms folded onto the vertex order of party B."""
    w = np.zeros(state.system_b.n_vertices)
    for weight, point in model.atoms:
        for j, v in enumerate(state.system_b.vertices):
            if np.allclose(point.coords, v):
                w[j] += weight
    return w


def assert_steering_bound(state, model, directions=32):
    """Independent oracle: ||S(h)||_{V_A} <= sum_j mu_j |<h, rho_j>| along
    random directions h, each left side a base-norm LP."""
    a = state.system_a
    rng = np.random.default_rng(0)
    for _ in range(directions):
        h = rng.standard_normal(state.system_b.dim)
        lhs = systems.base_norm(a, a.vector(state.coeffs @ h))
        rhs = float(model.weights @ np.abs(model.points @ h))
        assert lhs <= rhs + 1e-7 * max(1.0, rhs)


@pytest.fixture(autouse=True)
def oracle_checked_models(monkeypatch):
    """Every unsteerable model this module produces meets the oracle."""
    real = bipartite.unsteerable_dichotomic

    def checked(state):
        verdict = real(state)
        if verdict.unsteerable:
            assert_steering_bound(state, verdict.model)
        return verdict

    monkeypatch.setattr(bipartite, "unsteerable_dichotomic", checked)


class TestBipartiteState:
    def test_diagonal_embedding_coeffs_and_marginals(self):
        st = diagonal_state()
        assert np.array_equal(st.coeffs, DIAG)
        assert np.allclose(st.marginal_a.coords, [1.0, 0.0, 0.0])
        assert np.allclose(st.marginal_b.coords, [1.0, 0.0, 0.0])

    def test_product_state_marginals_are_the_factors(self):
        sq = square()
        rho_a = sq.vector((1.0, 0.3, -0.2))
        rho_b = sq.vector((1.0, -0.5, 0.1))
        st = bipartite.product_state(rho_a, rho_b)
        assert np.allclose(st.marginal_a.coords, rho_a.coords, atol=1e-12)
        assert np.allclose(st.marginal_b.coords, rho_b.coords, atol=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidInput, match="normalized"):
            state_on(square(), square(), 2.0 * DIAG)

    def test_outside_max_cone_rejected(self):
        bad = DIAG.copy()
        bad[1] = [0.0, 2.0, 2.0]
        with pytest.raises(InvalidInput, match="product of effects"):
            state_on(square(), square(), bad)

    def test_non_tensor_rejected(self):
        with pytest.raises(InvalidInput):
            bipartite.BipartiteState(DIAG)

    def test_ball_party_rejected(self):
        ball = systems.ball(2)
        el = tensors.TensorElement(
            system_a=ball, system_b=ball, coeffs=np.eye(3) * [1, 0, 0])
        with pytest.raises(InvalidInput):
            bipartite.BipartiteState(el)

    def test_swapped_transposes_and_involutes(self):
        st = diagonal_state()
        sw = bipartite.swapped(st)
        assert np.array_equal(sw.coeffs, DIAG.T)
        assert np.allclose(sw.marginal_a.coords, st.marginal_b.coords)
        assert np.array_equal(bipartite.swapped(sw).coeffs, st.coeffs)


class TestSteeringMap:
    def test_directions_give_matrix_and_transpose(self):
        st = diagonal_state()
        assert np.array_equal(
            bipartite.steering_map(st, "b_to_a").matrix, DIAG)
        assert np.array_equal(
            bipartite.steering_map(st, "a_to_b").matrix, DIAG.T)

    def test_a_to_b_sends_axes_to_components(self):
        # The x-th coordinate functional on the first party picks out the
        # x-th embedded component on the second.
        st = diagonal_state()
        mapped = bipartite.steering_map(st, "a_to_b")
        out1 = mapped(st.system_a.functional((0.0, 1.0, 0.0)))
        out2 = mapped(st.system_a.functional((0.0, 0.0, 1.0)))
        assert np.allclose(out1.coords, [0.0, 1.0, 1.0])
        assert np.allclose(out2.coords, [0.0, 1.0, -1.0])

    def test_product_map_is_rank_one(self):
        sq = square()
        rho_a = sq.vector((1.0, 0.4, 0.0))
        rho_b = sq.vector((1.0, -0.2, 0.3))
        mapped = bipartite.steering_map(
            bipartite.product_state(rho_a, rho_b), "b_to_a")
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = sq.functional(rng.standard_normal(3))
            expected = float(h.coords @ rho_b.coords) * rho_a.coords
            assert np.allclose(mapped(h).coords, expected, atol=1e-12)

    def test_pairing_identity_and_linearity(self):
        st = noise_mixed(diagonal_state(), 0.3)
        ba = bipartite.steering_map(st, "b_to_a")
        ab = bipartite.steering_map(st, "a_to_b")
        rng = np.random.default_rng(7)
        for _ in range(20):
            ha = st.system_a.functional(rng.standard_normal(3))
            hb = st.system_b.functional(rng.standard_normal(3))
            tensor_side = float(ha.coords @ st.coeffs @ hb.coords)
            assert abs(tensor_side
                       - float(ha.coords @ ba(hb).coords)) < 1e-9
            assert abs(tensor_side
                       - float(hb.coords @ ab(ha).coords)) < 1e-9
            alpha = float(rng.standard_normal())
            combo = ba(st.system_b.functional(
                alpha * hb.coords + ha.coords))
            spread = alpha * ba(hb).coords + ba(
                st.system_b.functional(ha.coords)).coords
            assert np.allclose(combo.coords, spread, atol=1e-9)

    def test_wrong_party_functional_rejected(self):
        mapped = bipartite.steering_map(diagonal_state(), "b_to_a")
        other = systems.simplex(2)
        with pytest.raises(SystemMismatch):
            mapped(other.functional((1.0, 0.0)))
        with pytest.raises(InvalidInput):
            mapped(np.array([0.0, 1.0, 0.0]))

    def test_boundary_marginal_raises(self):
        sq = square()
        st = bipartite.product_state(
            sq.vector((1.0, 0.2, 0.0)), sq.vector((1.0, 1.0, 1.0)))
        with pytest.raises(MarginalNotInterior):
            bipartite.steering_map(st, "b_to_a")
        with pytest.raises(NotInterior):
            bipartite.steering_map(st, "b_to_a")
        # the other direction only needs the A marginal
        bipartite.steering_map(st, "a_to_b")

    def test_unknown_direction_rejected(self):
        with pytest.raises(InvalidInput, match="direction"):
            bipartite.steering_map(diagonal_state(), "sideways")


class TestConditionalAssemblage:
    def test_projections_recover_the_embedded_family(self):
        st = diagonal_state()
        asm = bipartite.conditional_assemblage(
            st, axis_projections(st.system_a, 2))
        sigma = np.array([1.0, 0.0, 0.0])
        y = [np.array([0.0, 1.0, 1.0]), np.array([0.0, 1.0, -1.0])]
        for x in range(2):
            assert np.allclose(
                asm.entries[x][0].coords, 0.5 * (sigma + y[x]), atol=1e-12)
            assert np.allclose(
                asm.entries[x][1].coords, 0.5 * (sigma - y[x]), atol=1e-12)
        assert np.allclose(asm.barycenter.coords, sigma)

    def test_product_entries_factorize(self):
        sq = square()
        rho_a = sq.vector((1.0, 0.1, -0.3))
        rho_b = sq.vector((1.0, 0.6, 0.2))
        st = bipartite.product_state(rho_a, rho_b)
        rng = np.random.default_rng(9)
        fams = tuple(
            sampling.random_measurement(rng, sq, k) for k in (2, 3))
        asm = bipartite.conditional_assemblage(st, fams)
        for x, m in enumerate(fams):
            for a, f in enumerate(m.effects):
                expected = float(f.coords @ rho_a.coords) * rho_b.coords
                assert np.allclose(
                    asm.entries[x][a].coords, expected, atol=1e-12)

    def test_rows_sum_to_the_marginal(self):
        st = noise_mixed(diagonal_state(), 0.25)
        rng = np.random.default_rng(13)
        fams = tuple(
            sampling.random_measurement(rng, st.system_a, 2)
            for _ in range(3))
        asm = bipartite.conditional_assemblage(st, fams)
        for row in asm.entries:
            total = sum(rho.coords for rho in row)
            assert np.allclose(total, st.marginal_b.coords, atol=1e-9)

    def test_entries_match_the_a_to_b_map(self):
        st = noise_mixed(diagonal_state(), 0.4)
        mapped = bipartite.steering_map(st, "a_to_b")
        rng = np.random.default_rng(17)
        fams = tuple(
            sampling.random_measurement(rng, st.system_a, 3)
            for _ in range(2))
        asm = bipartite.conditional_assemblage(st, fams)
        for x, m in enumerate(fams):
            for a, f in enumerate(m.effects):
                assert np.allclose(
                    asm.entries[x][a].coords, mapped(f).coords, atol=1e-10)

    def test_swapped_roles_measure_the_other_party(self):
        st = bipartite.swapped(diagonal_state())
        asm = bipartite.conditional_assemblage(
            st, axis_projections(st.system_a, 1))
        assert asm.shape == (2,)
        assert np.allclose(asm.barycenter.coords, [1.0, 0.0, 0.0])

    def test_solves_no_lp(self, lp_solves):
        # BipartiteState guarantees the entries lie in V+; they are
        # re-checked on the cached facets, not with an LP per entry
        rng = np.random.default_rng(23)
        for st in (diagonal_state(), noise_mixed(diagonal_state(), 0.3)):
            fams = tuple(
                sampling.random_measurement(rng, st.system_a, k)
                for k in (2, 3, 2))
            lp_solves.clear()
            asm = bipartite.conditional_assemblage(st, fams)
            assert lp_solves == [] and asm.shape == (2, 3, 2)

    def test_wrong_party_measurement_rejected(self):
        other = systems.simplex(2)
        m = systems.dichotomic_measurement(
            other, other.functional((1.0, 0.0)))
        with pytest.raises(SystemMismatch):
            bipartite.conditional_assemblage(diagonal_state(), [m])

    def test_empty_or_malformed_settings_rejected(self):
        st = diagonal_state()
        with pytest.raises(InvalidInput):
            bipartite.conditional_assemblage(st, [])
        with pytest.raises(InvalidInput):
            bipartite.conditional_assemblage(st, [np.eye(3)])


class TestIntervalExtremes:
    def test_square_extremes(self):
        es = systems.interval_extremes(square())
        got = sorted(tuple(e) for e in es)
        assert got == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]

    def test_classical_bit_extremes(self):
        es = systems.interval_extremes(systems.simplex(2))
        got = sorted(tuple(e) for e in es)
        assert got == [(1.0, -1.0), (1.0, 1.0)]

    def test_nonunit_extremes_drop_minus_unit(self):
        # With unit (-1, 0, 0) the mirror rule keeps -unit = (1, 0, 0) as
        # the representative of the pair, which is still the unit's pair.
        moved = systems.polytopic(square().vertices * [-1.0, 1.0, 1.0],
                                  unit=[-1.0, 0.0, 0.0])
        es = systems.interval_extremes(moved)
        assert (1.0, 0.0, 0.0) in [tuple(e) for e in es]
        for sq in (square(), moved):
            got = sorted(tuple(e) for e in bipartite._nonunit_extremes(sq))
            assert got == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0)]

    def test_base_norm_is_the_extreme_envelope(self):
        sq = square()
        es = systems.interval_extremes(sq)
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = sq.vector(rng.standard_normal(3))
            envelope = max(
                abs(float(e @ v.coords)) for e in es)
            assert abs(envelope - systems.base_norm(sq, v)) < 1e-9


class TestUnsteerableDichotomic:
    def test_diagonal_state_is_steerable_with_frozen_certificate(self):
        verdict = bipartite.unsteerable_dichotomic(diagonal_state())
        assert not verdict.unsteerable
        funs = sorted(tuple(f.coords) for f in verdict.functionals)
        assert np.allclose(funs, [(0.0, 1.0, -1.0), (0.0, 1.0, 1.0)],
                           atol=1e-7)
        effects = [tuple(m.effects[0].coords) for m in verdict.measurements]
        assert sorted(effects) == [
            (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)]

    def test_steerable_certificate_fails_lhs_and_has_half_robustness(self):
        st = diagonal_state()
        verdict = bipartite.unsteerable_dichotomic(st)
        asm = bipartite.conditional_assemblage(st, verdict.measurements)
        check = steering.lhs_check(asm)
        assert not check.classical
        assert abs(steering.robustness(asm) - 0.5) < 1e-7

    def test_steerable_functionals_beat_every_vertex(self):
        # The dual directions h_i pair with the steered images more
        # strongly than any common vertex model can: the frozen margin
        # for the diagonal state is 4 against 2.
        st = diagonal_state()
        verdict = bipartite.unsteerable_dichotomic(st)
        paired = 0.0
        per_vertex = np.zeros(st.system_b.n_vertices)
        for f, m in zip(verdict.functionals, verdict.measurements):
            e = 2.0 * m.effects[0].coords - st.system_a.unit
            paired += float(f.coords @ (st.coeffs.T @ e))
            per_vertex += np.abs(st.system_b.vertices @ f.coords)
        assert abs(paired - 4.0) < 1e-7
        assert abs(float(per_vertex.max()) - 2.0) < 1e-7

    def test_product_state_unsteerable_with_verified_model(self):
        sq = square()
        st = bipartite.product_state(
            sq.vector((1.0, 0.3, 0.0)), sq.vector((1.0, 0.2, -0.1)))
        verdict = bipartite.unsteerable_dichotomic(st)
        assert verdict.unsteerable
        model = verdict.model
        assert np.allclose(
            model.barycenter.coords, st.marginal_b.coords, atol=1e-8)
        rng = np.random.default_rng(1)
        for _ in range(200):
            h = rng.standard_normal(3)
            lhs = systems.base_norm(sq, sq.vector(st.coeffs @ h))
            rhs = float(model.weights @ np.abs(model.points @ h))
            assert lhs <= rhs + 1e-7

    def test_min_cone_states_are_unsteerable(self):
        sq = square()
        rng = np.random.default_rng(33)
        for _ in range(6):
            c = sampling.random_separable_coeffs(rng, sq, sq)
            st = state_on(sq, sq, c / float(sq.unit @ c @ sq.unit))
            assert tensors.min_cone_member(st.element).member
            assert bipartite.unsteerable_dichotomic(st).unsteerable

    def test_classical_party_states_are_unsteerable(self):
        # A simplex factor makes the max cone separable, whichever side
        # it sits on.
        sq, sx = square(), systems.simplex(2)
        rng = np.random.default_rng(5)
        for _ in range(4):
            t = sampling.random_max_cone_tensor(rng, sq, sx)
            c = t.coeffs / float(sq.unit @ t.coeffs @ sx.unit)
            assert bipartite.unsteerable_dichotomic(
                state_on(sq, sx, c)).unsteerable
            t = sampling.random_max_cone_tensor(rng, sx, sq)
            c = t.coeffs / float(sx.unit @ t.coeffs @ sq.unit)
            assert bipartite.unsteerable_dichotomic(
                state_on(sx, sq, c)).unsteerable

    def test_unsteerable_consistency_500_random_pairs(self):
        st = separable_state()
        assert bipartite.unsteerable_dichotomic(st).unsteerable
        rng = np.random.default_rng(21)
        for _ in range(500):
            fam = tuple(
                sampling.random_measurement(rng, st.system_a, 2)
                for _ in range(2))
            asm = bipartite.conditional_assemblage(st, fam)
            assert steering.lhs_check(asm).classical

    def test_agreement_with_the_steering_norm(self):
        # For a hypercube first party the nontrivial interval extremes
        # are the coordinate projections, so the test decides exactly
        # classicality of the embedded family.
        sq = square()
        rng = np.random.default_rng(11)
        seen = {True: 0, False: 0}
        for _ in range(40):
            t = sampling.random_steerable_leaning_tensor(rng, sq, g=2)
            st = bipartite.BipartiteState(tensors.embed_dichotomic(t))
            verdict = bipartite.unsteerable_dichotomic(st)
            norm = tensors.steering_norm(t).value
            assert verdict.unsteerable == (norm <= 1.0 + 1e-7)
            seen[verdict.unsteerable] += 1
        assert min(seen.values()) >= 5

    def test_verdicts_match_the_free_coefficient_lp(self):
        sq = square()
        rng = np.random.default_rng(17)
        states = [separable_state(seed) for seed in range(21, 25)]
        states += [noise_mixed(diagonal_state(), lam)
                   for lam in (0.0, 0.3, 0.45, 0.5, 0.55, 0.8)]
        for _ in range(6):
            t = sampling.random_max_cone_tensor(rng, sq, sq)
            states.append(state_on(sq, sq, t.coeffs))
        # the walk above rarely leaves the separable cone; these embed
        # steering-leaning families, so some of them steer
        states += [bipartite.BipartiteState(
            sampling.random_dichotomic_max_cone_tensor(rng, sq, 2))
            for _ in range(6)]
        verdicts = [bipartite.unsteerable_dichotomic(st).unsteerable
                    for st in states]
        assert verdicts == [lp_cases.free_coefficient_unsteerable(st)
                            for st in states]
        assert 0 < sum(verdicts) < len(verdicts)

    def test_noise_mixing_crosses_at_one_half(self):
        st = diagonal_state()
        assert not bipartite.unsteerable_dichotomic(
            noise_mixed(st, 0.4)).unsteerable
        assert bipartite.unsteerable_dichotomic(
            noise_mixed(st, 0.5)).unsteerable
        assert bipartite.unsteerable_dichotomic(
            noise_mixed(st, 0.7)).unsteerable

    def test_mixing_with_marginal_product_preserves_unsteerability(self):
        rng = np.random.default_rng(43)
        st = separable_state(seed=29)
        for _ in range(4):
            lam = float(rng.uniform(0.1, 0.9))
            assert bipartite.unsteerable_dichotomic(
                noise_mixed(st, lam)).unsteerable

    def test_boundary_marginal_raises(self):
        sq = square()
        st = bipartite.product_state(
            sq.vector((1.0, 0.0, 0.0)), sq.vector((1.0, 1.0, 1.0)))
        with pytest.raises(MarginalNotInterior):
            bipartite.unsteerable_dichotomic(st)

    def test_vertex_guard(self, monkeypatch):
        monkeypatch.setenv("GPTSTEER_GUARDS", "vertices=2")
        with pytest.raises(GuardExceeded):
            bipartite.unsteerable_dichotomic(diagonal_state())

    def test_non_state_rejected(self):
        with pytest.raises(InvalidInput):
            bipartite.unsteerable_dichotomic(DIAG)


class TestZonotopeSoundness:
    def fixed_mu_blocks(self, state, weights):
        """Per-extreme membership LPs for a fixed weight vector."""
        V = state.system_b.vertices
        n = V.shape[0]
        outcomes = []
        for e in systems.interval_extremes(state.system_a):
            target = state.coeffs.T @ e
            ub = np.vstack([np.eye(n), -np.eye(n)])
            out = lp.feasibility(lp.LpProblem(
                objective=np.zeros(n), eq_rows=V.T, eq_rhs=target,
                ub_rows=ub, ub_rhs=np.concatenate([weights, weights]),
                lower=np.full(n, -np.inf)))
            outcomes.append((out, e))
        return outcomes

    def support_gap(self, state, weights, h):
        lhs = systems.base_norm(
            state.system_a, state.system_a.vector(state.coeffs @ h))
        rhs = float(weights @ np.abs(state.system_b.vertices @ h))
        return lhs - rhs

    def test_feasible_blocks_imply_the_inequality(self):
        # Nonnegative slack on top of a working model keeps every
        # membership block feasible, so the support inequality must hold
        # in all directions.
        st = noise_mixed(diagonal_state(), 0.6)
        base = vertex_weights(st, bipartite.unsteerable_dichotomic(st).model)
        rng = np.random.default_rng(2)
        for _ in range(4):
            w = base + rng.uniform(0.0, 0.4, size=base.size)
            outcomes = self.fixed_mu_blocks(st, w)
            assert all(o.status == "optimal" for o, _ in outcomes)
            for _ in range(200):
                h = rng.standard_normal(3)
                assert self.support_gap(st, w, h) <= 1e-7

    def test_infeasible_block_yields_a_violating_direction(self):
        st = diagonal_state()
        rng = np.random.default_rng(6)
        hit = 0
        for round_ in range(6):
            w = rng.dirichlet(np.ones(4))
            for out, e in self.fixed_mu_blocks(st, w):
                if out.status != "infeasible":
                    continue
                h = np.asarray(out.dual_eq, float)
                gap = max(-self.support_gap(st, w, h),
                          -self.support_gap(st, w, -h))
                # dual of the membership LP separates S*(e) from the
                # zonotope: some sign of h makes the pairing with the
                # target exceed the support function
                target = st.coeffs.T @ e
                reach = abs(float(h @ target))
                support = float(w @ np.abs(st.system_b.vertices @ h))
                assert reach > support - 1e-9
                hit += 1
        assert hit >= 1

    def test_returned_model_satisfies_every_block(self):
        sq = square()
        st = bipartite.product_state(
            sq.vector((1.0, -0.2, 0.4)), sq.vector((1.0, 0.1, 0.3)))
        verdict = bipartite.unsteerable_dichotomic(st)
        w = vertex_weights(st, verdict.model)
        for out, _ in self.fixed_mu_blocks(st, w):
            assert out.status == "optimal"


class TestUnsteerableSufficient:
    def test_product_true_even_with_small_bound(self):
        sq = square()
        st = bipartite.product_state(
            sq.vector((1.0, 0.4, -0.1)), sq.vector((1.0, 0.2, 0.1)))
        assert bipartite.unsteerable_sufficient(st, 1.0)
        # the |<h, sigma_B>| cap alone carries the product case
        assert bipartite.unsteerable_sufficient(st, 0.3)

    def test_diagonal_state_fails_at_the_square_degree(self):
        assert not bipartite.unsteerable_sufficient(diagonal_state(), 0.5)

    def test_diagonal_state_passes_an_overstated_bound(self):
        # 1.0 is not a valid degree bound for the square (the true value
        # is 1/2), so this True certifies nothing; it documents that the
        # precondition on s_lower is load-bearing.
        assert bipartite.unsteerable_sufficient(diagonal_state(), 1.0)

    def test_noise_threshold_matches_the_degree(self):
        st = diagonal_state()
        assert bipartite.unsteerable_sufficient(noise_mixed(st, 0.5), 0.5)
        assert not bipartite.unsteerable_sufficient(noise_mixed(st, 0.4), 0.5)
        # sufficient True is confirmed by the exact test
        assert bipartite.unsteerable_dichotomic(
            noise_mixed(st, 0.5)).unsteerable

    def test_universal_degree_is_a_valid_bound(self):
        st = diagonal_state()
        degree = choquet.universal_degree(st.system_b, st.marginal_b)[0]
        verdicts = []
        for lam in np.linspace(0.0, 1.0, 11):
            mixed = noise_mixed(st, lam)
            verdicts.append(bipartite.unsteerable_sufficient(mixed, degree))
            if verdicts[-1]:
                assert bipartite.unsteerable_dichotomic(mixed).unsteerable
        assert verdicts == [lam >= 0.5 - 1e-12
                            for lam in np.linspace(0.0, 1.0, 11)]

    def test_verdicts_match_the_doubled_rows_reference(self):
        rng = np.random.default_rng(5)
        verdicts = []
        for st in random_bipartite_states(rng, 100):
            s = 1.0 - float(rng.uniform())   # in (0, 1]
            got = bipartite.unsteerable_sufficient(st, s)
            assert got == doubled_rows_unsteerable(st, s)
            verdicts.append(got)
        assert 0 < sum(verdicts) < len(verdicts)
        # the degree boundary of test_universal_degree_is_a_valid_bound
        st = diagonal_state()
        degree = choquet.universal_degree(st.system_b, st.marginal_b)[0]
        for lam in np.linspace(0.0, 1.0, 11):
            mixed = noise_mixed(st, lam)
            assert (bipartite.unsteerable_sufficient(mixed, degree)
                    == doubled_rows_unsteerable(mixed, degree))

    def test_each_half_space_reaches_the_vertex_search_once(self,
                                                           monkeypatch):
        searched = []
        search = geometry.vertices_of_polytope
        monkeypatch.setattr(geometry, "vertices_of_polytope",
                            lambda A, b: searched.append((A, b))
                            or search(A, b))
        rng = np.random.default_rng(8)
        for st in random_bipartite_states(rng, 12):
            searched.clear()
            bipartite.unsteerable_sufficient(st, 0.5)
            (A, b), = searched
            Y = tensors.sigma_interval_vertices(st.system_b, st.marginal_b)
            sig = st.marginal_b.coords
            np.testing.assert_array_equal(A[-2:], [sig, -sig])
            np.testing.assert_array_equal(b, np.concatenate(
                [np.full(Y.shape[0], 2.0), np.ones(2)]))
            # the rows before sigma are the interval's vertices, each once
            # (a mirror -y is read off a kept y, so it may differ from the
            # enumerated one in the last bits)
            gap = np.abs(A[:-2, None, :] - Y[None, :, :]).max(axis=2)
            assert A.shape[0] == Y.shape[0] + 2
            assert np.all((gap <= 1e-12).sum(axis=0) == 1)

    def test_dim_four_hulls_past_the_doubled_rows_guard(self):
        # Doubled, the rows of these hulls cost C(49, 4) * 8 and
        # C(47, 4) * 8 eliminations, past the default guard of 10^6.
        sq = square()
        for seed, rows in ((2, 49), (4, 47)):
            b = sampling.random_polytopic_system(
                np.random.default_rng(seed), dim=4)
            st = bipartite.product_state(sq.barycenter, b.barycenter)
            assert bipartite.unsteerable_sufficient(st, 0.5)
            with pytest.raises(GuardExceeded, match=(
                    f"^eliminations={math.comb(rows, 4) * 8} ")):
                doubled_rows_unsteerable(st, 0.5)

    def test_bound_validation(self):
        st = diagonal_state()
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidInput):
                bipartite.unsteerable_sufficient(st, bad)
        # one real number: no text, bool or None, and no list or array of
        # one
        for bad in ("0.5", True, None, [0.5], np.array([0.5]),
                    np.array([[0.5]])):
            with pytest.raises(InvalidInput, match="real number"):
                bipartite.unsteerable_sufficient(st, bad)
        want = bipartite.unsteerable_sufficient(st, 0.5)
        assert bipartite.unsteerable_sufficient(st, np.float64(0.5)) == want
        assert bipartite.unsteerable_sufficient(st, np.array(0.5)) == want

    def test_boundary_marginal_raises(self):
        sq = square()
        st = bipartite.product_state(
            sq.vector((1.0, 0.0, 0.0)), sq.vector((1.0, -1.0, 1.0)))
        with pytest.raises(MarginalNotInterior):
            bipartite.unsteerable_sufficient(st, 0.5)

    def test_dimension_guard(self, monkeypatch):
        monkeypatch.setenv("GPTSTEER_GUARDS", "cmu_dim=2")
        with pytest.raises(GuardExceeded):
            bipartite.unsteerable_sufficient(diagonal_state(), 0.5)


class TestSteerabilitySearch:
    def test_finds_the_diagonal_family_first(self):
        result = bipartite.steerability_search(
            diagonal_state(), shapes=(2, 2), budget=5)
        assert result.found
        assert result.tried == 1
        effects = [tuple(m.effects[0].coords) for m in result.measurements]
        assert effects == [(0.5, 0.5, 0.0), (0.5, 0.0, 0.5)]
        assert not result.verdict.classical

    def test_separable_state_is_inconclusive(self):
        result = bipartite.steerability_search(
            separable_state(), shapes=(2, 2), budget=30, seed=2)
        assert not result.found
        assert result.tried == 30
        assert result.measurements is None

    def test_custom_sampler_runs_after_deterministic_seeds(self):
        st = separable_state()
        calls = []

        def sampler(rng):
            calls.append(1)
            return tuple(
                sampling.random_measurement(rng, st.system_a, 2)
                for _ in range(2))

        result = bipartite.steerability_search(
            st, shapes=(2, 2), sampler=sampler, budget=4)
        assert not result.found
        # axis family plus the single extreme pair come first
        assert len(calls) == 2

    def test_three_outcome_shapes_sample_valid_families(self):
        result = bipartite.steerability_search(
            separable_state(), shapes=(3,), budget=6, seed=1)
        assert not result.found
        assert result.tried == 6

    def test_budget_and_shape_validation(self):
        st = diagonal_state()
        with pytest.raises(InvalidInput):
            bipartite.steerability_search(st, budget=0)
        with pytest.raises(InvalidInput):
            bipartite.steerability_search(st, budget=-3)
        with pytest.raises(InvalidInput):
            bipartite.steerability_search(st, shapes=())
        with pytest.raises(InvalidInput):
            bipartite.steerability_search(st, shapes=(2, 1))
        # counts are not coerced: a bool, float or string is no count
        for budget in (True, 2.7, "3"):
            with pytest.raises(InvalidInput,
                               match="budget must be an integer"):
                bipartite.steerability_search(st, budget=budget)
        for shapes in ((2.5, 2), (2, True), ("3", 2), 2, None):
            with pytest.raises(InvalidInput,
                               match="shapes must list outcome counts"):
                bipartite.steerability_search(st, shapes=shapes)

    def test_strategy_guard_is_checked_before_any_draw(self):
        # 2 * 1000000 strategies pass the lhs_atoms guard of 4096: the
        # search stops before it asks the sampler for a family
        def sentinel(rng):
            raise AssertionError("the sampler was called")

        with pytest.raises(GuardExceeded, match="lhs_atoms=2000000"):
            bipartite.steerability_search(
                separable_state(), shapes=(2, 1000000), sampler=sentinel,
                budget=1)

    def test_numpy_integer_counts_accepted(self):
        result = bipartite.steerability_search(
            diagonal_state(), shapes=(np.int64(2), np.int32(2)),
            budget=np.int64(1))
        assert result.found and result.tried == 1


class TestRandomMeasurement:
    def test_outcome_counts_and_determinism(self):
        sq = square()
        a = sampling.random_measurement(np.random.default_rng(8), sq, 3)
        b = sampling.random_measurement(np.random.default_rng(8), sq, 3)
        assert a.n_outcomes == 3
        for fa, fb in zip(a.effects, b.effects):
            assert np.array_equal(fa.coords, fb.coords)
        total = sum(f.coords for f in a.effects)
        assert np.allclose(total, sq.unit, atol=1e-12)

    def test_single_outcome_rejected(self):
        with pytest.raises(InvalidInput):
            sampling.random_measurement(
                np.random.default_rng(0), square(), 1)


class TestModelCertificate:
    def captured(self, monkeypatch, state):
        """Arguments unsteerable_dichotomic hands to choquet._check_cover."""
        seen = []
        real = choquet._check_cover

        def spy(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(choquet, "_check_cover", spy)
        assert bipartite.unsteerable_dichotomic(state).unsteerable
        assert len(seen) == 1
        return seen[0]

    def test_certificate_covers_every_nonunit_extreme(self, monkeypatch):
        st = noise_mixed(diagonal_state(), 0.6)
        P, weights, sigma, targets, t = self.captured(monkeypatch, st)
        assert np.array_equal(P, st.system_b.vertices)
        assert np.array_equal(sigma, st.marginal_b.coords)
        assert t.shape == (2, 4) and targets.shape == (2, 3)
        assert np.allclose(t @ st.system_b.vertices, targets, atol=1e-9)
        assert np.all(np.abs(t) <= weights + 1e-9)
        model = bipartite.unsteerable_dichotomic(st).model
        assert np.allclose(weights, vertex_weights(st, model))

    def test_coefficient_past_its_weight_is_rejected(self, monkeypatch):
        st = noise_mixed(diagonal_state(), 0.6)
        P, weights, sigma, targets, t = self.captured(monkeypatch, st)
        j = int(np.argmax(weights))
        bad = t.copy()
        bad[0, j] = weights[j] + 10 * tolerances.CERTIFICATE
        # move the target along, so only the weight bound is violated
        with pytest.raises(NumericalFailure, match="exceed the weights"):
            choquet._check_cover(P, weights, sigma, bad @ P, bad)

    def test_target_off_by_ten_tolerances_is_rejected(self, monkeypatch):
        st = bipartite.product_state(
            square().vector((1.0, 0.3, 0.0)),
            square().vector((1.0, 0.2, -0.1)))
        P, weights, sigma, targets, t = self.captured(monkeypatch, st)
        off = targets.copy()
        off[-1, 1] += 10 * tolerances.CERTIFICATE
        with pytest.raises(NumericalFailure, match="miss"):
            choquet._check_cover(P, weights, sigma, off, t)

    def test_barycenter_off_by_ten_tolerances_is_rejected(self, monkeypatch):
        st = noise_mixed(diagonal_state(), 0.6)
        P, weights, sigma, targets, t = self.captured(monkeypatch, st)
        off = sigma.copy()
        off[1] += 10 * tolerances.CERTIFICATE
        with pytest.raises(NumericalFailure, match="barycenter"):
            choquet._check_cover(P, weights, off, targets, t)

    def test_verification_solves_no_lp(self, monkeypatch, lp_solves):
        inside = []
        real_check = choquet._check_cover

        def check(*args):
            before = len(lp_solves)
            real_check(*args)
            inside.append(len(lp_solves) - before)

        st = noise_mixed(diagonal_state(), 0.6)
        monkeypatch.setattr(choquet, "_check_cover", check)
        assert bipartite.unsteerable_dichotomic(st).unsteerable
        assert inside == [0]
