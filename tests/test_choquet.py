"""Simple measures, the Choquet order, and the variational constant."""

import itertools
import math
from dataclasses import replace

import lp_cases
import numpy as np
import pytest

from gptsteer import (choquet, kernels, lp, sampling, selftest, systems,
                      tensors)
from gptsteer.errors import (
    GuardExceeded,
    InvalidInput,
    NotASymmetry,
    NotDichotomic,
    NotInterior,
    NumericalFailure,
    SystemMismatch,
)
from gptsteer.tolerances import COINCIDENCE


def square():
    return systems.hypercube(2)


def center(sq):
    return sq.vector([1.0, 0.0, 0.0])


def measure(sq, *atoms):
    return choquet.SimpleMeasure(
        tuple((w, sq.vector(p)) for w, p in atoms))


def flat_pair(sq):
    """Two-atom measure on the horizontal edge midpoints; below uniform."""
    return measure(sq, (0.5, (1, 1, 0)), (0.5, (1, -1, 0)))


def vertex_diagonal(sq):
    """Two-atom measure on opposite vertices; not below uniform."""
    return measure(sq, (0.5, (1, 1, 1)), (0.5, (1, -1, -1)))


def tuple_gap(nu, mu, gs):
    """Recompute the dual-order violation with plain numpy."""
    G = [g.coords for g in gs]
    lhs = sum(w * float(G[a] @ p.coords)
              for a, (w, p) in enumerate(nu.atoms))
    rhs = sum(w * max(float(g @ p.coords) for g in G)
              for w, p in mu.atoms)
    return lhs - rhs


def abs_gap(nu, mu, h):
    def side(m):
        return sum(w * abs(float(h.coords @ p.coords)) for w, p in m.atoms)
    return side(nu) - side(mu)


def two_atom_with_barycenter(rng, system, sigma):
    """Random 2-atom measure averaging to sigma: split along an interval
    direction, the same construction the norm maximizer uses."""
    Y = tensors.sigma_interval_vertices(system, sigma)
    lam = rng.dirichlet(np.ones(Y.shape[0]))
    y = system.vector(float(rng.uniform(0.2, 1.0)) * (Y.T @ lam))
    atoms = []
    for s in (1.0, -1.0):
        half = 0.5 * (sigma + s * y)
        w = systems.pair(system.unit_functional, half)
        if w > 1e-9:
            atoms.append((w, (1.0 / w) * half))
    return choquet.SimpleMeasure(tuple(atoms))


# ---------------------------------------------------------------------------
# measure types


def test_measure_barycenter_cached():
    sq = square()
    u4 = choquet.vertex_measure(sq)
    assert np.allclose(u4.barycenter.coords, [1, 0, 0], atol=1e-12)
    assert np.allclose(u4.weights, 0.25)
    assert u4.points.shape == (4, 3)
    assert u4.system == sq


def test_measure_rejects_bad_weights():
    sq = square()
    with pytest.raises(InvalidInput):
        measure(sq, (0.7, (1, 0, 0)), (0.7, (1, 0.5, 0)))
    with pytest.raises(InvalidInput):
        measure(sq, (1.5, (1, 0, 0)), (-0.5, (1, 0.5, 0)))


def test_measure_rejects_bad_points():
    sq = square()
    with pytest.raises(InvalidInput):
        measure(sq, (1.0, (1, 2, 0)))          # outside the cone
    with pytest.raises(InvalidInput):
        measure(sq, (1.0, (2, 0, 0)))          # not normalized
    with pytest.raises(InvalidInput):
        choquet.SimpleMeasure(((1.0, np.array([1.0, 0, 0])),))
    with pytest.raises(SystemMismatch):
        choquet.SimpleMeasure(
            ((0.5, sq.vector([1, 0, 0])),
             (0.5, systems.simplex(3).vector([0.5, 0.5, 0]))))
    with pytest.raises(InvalidInput):
        choquet.SimpleMeasure(())
    with pytest.raises(InvalidInput):
        choquet.SimpleMeasure((1.0, sq.vector([1, 0, 0])))  # not pairs


def test_measure_rejects_text_and_bool_weights():
    sq = square()
    p, q = sq.vector(sq.vertices[0]), sq.vector(sq.vertices[1])
    for w in ("0.5", True, np.bool_(True), None, b"0.5"):
        with pytest.raises(InvalidInput,
                           match="^atoms must be \\(weight, point\\) pairs$"):
            choquet.SimpleMeasure(((w, p), (0.5, q)))
    # numpy scalars and integers are numbers
    m = choquet.SimpleMeasure(((np.float64(0.5), p), (np.int64(0), q),
                               (0.5, q)))
    assert [type(w) for w, _ in m.atoms] == [float] * 3


def test_vertex_measure_rejects_text_and_bool_weights():
    sq = square()
    for weights in (["0.25"] * 4, [True, 0, 0, 0], np.array([True, False] * 2),
                    [0.25, 0.25, 0.25, None], np.array(["0.25"] * 4)):
        with pytest.raises(InvalidInput,
                           match="^weights must list one entry per vertex$"):
            choquet.vertex_measure(sq, weights)
    assert np.allclose(choquet.vertex_measure(sq, (1, 0, 0, 0)).weights,
                       [1, 0, 0, 0])


def test_measures_solve_no_lp(lp_solves):
    # atoms are checked on the cached facets, so building a measure on a
    # polytopic system solves no LP, whichever builder makes it
    rng = np.random.default_rng(21)
    for system in (square(), systems.hypercube(3), systems.cross_polytope(3),
                   sampling.random_polytopic_system(rng, dim=4)):
        sigma = sampling.random_interior_state(rng, system)
        lp_solves.clear()
        choquet.SimpleMeasure(((0.25, system.vector(system.vertices[0])),
                               (0.75, sigma)))
        choquet.vertex_measure(system)
        choquet.point_mass(sigma)
        mu = sampling.random_measure_with_barycenter(rng, system, sigma)
        assert lp_solves == []
        assert np.max(np.abs(mu.barycenter.coords - sigma.coords)) <= 1e-12


def test_measure_rejects_a_nan_or_negative_weight_first():
    sq = square()
    for w in (np.nan, -1e-9):
        with pytest.raises(InvalidInput, match="atom 1 weight must be nonnegative"):
            measure(sq, (0.5, (1, 0, 0)), (w, (1, 1, 1)))


def test_measure_rejects_atoms_just_outside_the_cone():
    sq = square()
    for p in ((1, 1 + 1e-6, 0), (1, 1 + 1e-6, 1 + 1e-6), (1, -0.5, -1 - 1e-6)):
        with pytest.raises(InvalidInput, match="atom 1 point is outside V"):
            measure(sq, (0.5, (1, 0, 0)), (0.5, p))
    b = systems.ball(2, "l2")
    with pytest.raises(InvalidInput, match="atom 0 point is outside V"):
        choquet.point_mass(b.vector([1.0, 0.6, 0.8 + 1e-6]))
    assert choquet.point_mass(b.vector([1.0, 0.6, 0.8])).system is b


def test_boundary_measure_requires_vertices():
    sq = square()
    ok = choquet.BoundaryMeasure(
        ((0.5, sq.vector([1, 1, 1])), (0.5, sq.vector([1, -1, -1]))))
    assert isinstance(ok, choquet.SimpleMeasure)
    with pytest.raises(InvalidInput):
        choquet.BoundaryMeasure(((1.0, center(sq)),))
    ball = systems.ball(2)
    with pytest.raises(InvalidInput):
        choquet.BoundaryMeasure(((1.0, ball.vector([1, 0, 0])),))


def test_point_mass_and_vertex_measure():
    sq = square()
    pm = choquet.point_mass(center(sq))
    assert len(pm.atoms) == 1 and pm.atoms[0][0] == 1.0
    w = [0.4, 0.3, 0.2, 0.1]
    vm = choquet.vertex_measure(sq, w)
    assert isinstance(vm, choquet.BoundaryMeasure)
    assert np.allclose(vm.weights, w)
    with pytest.raises(InvalidInput):
        choquet.vertex_measure(sq, [0.5, 0.5])


# ---------------------------------------------------------------------------
# choquet_below


def test_below_barycenter_point_mass():
    sq = square()
    v = choquet.choquet_below(choquet.point_mass(center(sq)),
                              choquet.vertex_measure(sq))
    assert v.below
    assert np.allclose(v.responses, 1.0, atol=1e-9)


def test_below_reflexive():
    rng = np.random.default_rng(3)
    for _ in range(3):
        system = sampling.random_polytopic_system(rng, dim=3, max_points=6)
        sigma = sampling.random_interior_state(rng, system)
        mu = sampling.random_measure_with_barycenter(rng, system, sigma)
        assert choquet.choquet_below(mu, mu).below


def test_below_square_frozen_responses():
    sq = square()
    v = choquet.choquet_below(flat_pair(sq), choquet.vertex_measure(sq))
    assert v.below
    # outcome 0 takes exactly the two x=+1 vertices, whatever their order
    for j, vert in enumerate(sq.vertices):
        want = 1.0 if vert[1] > 0 else 0.0
        assert v.responses[0, j] == pytest.approx(want, abs=1e-9)
        assert v.responses[1, j] == pytest.approx(1.0 - want, abs=1e-9)


def test_below_refuted_with_verified_tuple():
    sq = square()
    u4 = choquet.vertex_measure(sq)
    delta = choquet.point_mass(center(sq))
    # a measure spread above a point mass: the absolute-value direction
    # that refutes it, by hand
    h = np.array([0.0, 1.0, 0.0])
    assert sum(0.25 * abs(h @ v) for v in sq.vertices) == pytest.approx(1.0)
    assert abs(h @ delta.barycenter.coords) == 0.0
    for nu, mu in ((vertex_diagonal(sq), u4), (u4, delta),
                   (flat_pair(sq), delta)):
        v = choquet.choquet_below(nu, mu)
        assert not v.below
        assert len(v.functionals) == len(nu.atoms)
        assert v.violation == pytest.approx(
            tuple_gap(nu, mu, v.functionals), abs=1e-12)
        assert v.violation > 1e-9


def test_below_mismatched_barycenters():
    sq = square()
    nu = choquet.point_mass(sq.vector([1, 0.2, 0]))
    mu = choquet.point_mass(center(sq))
    v = choquet.choquet_below(nu, mu)
    assert not v.below
    assert v.violation == pytest.approx(0.2, abs=1e-12)
    assert np.allclose(v.functionals[0].coords, [0, 1, 0], atol=1e-12)


def test_below_system_mismatch():
    sq = square()
    s3 = systems.simplex(3)
    with pytest.raises(SystemMismatch):
        choquet.choquet_below(
            choquet.point_mass(center(sq)),
            choquet.point_mass(s3.vector([1 / 3] * 3)))
    with pytest.raises(InvalidInput):
        choquet.choquet_below(choquet.point_mass(center(sq)), "nope")


def test_below_transitive_on_dilation_chains():
    rng = np.random.default_rng(7)
    for _ in range(6):
        system = sampling.random_polytopic_system(rng, dim=3, max_points=6)
        sigma = sampling.random_interior_state(rng, system)
        a = sampling.random_measure_with_barycenter(
            rng, system, sigma, n_satellites=2)
        b = sampling.random_dilation(rng, a)
        c = sampling.random_dilation(rng, b)
        ab = choquet.choquet_below(a, b)
        bc = choquet.choquet_below(b, c)
        ac = choquet.choquet_below(a, c)
        assert ab.below and bc.below and ac.below
        assert ac.responses.shape == (len(a.atoms), len(c.atoms))
        back = choquet.choquet_below(b, a)
        assert not back.below
        assert tuple_gap(b, a, back.functionals) == pytest.approx(
            back.violation, abs=1e-12)


def test_below_on_ball_system():
    ball = systems.ball(2)
    c = ball.vector([1, 0, 0])
    mu = choquet.SimpleMeasure(
        ((0.5, ball.vector([1, 0.8, 0])), (0.5, ball.vector([1, -0.8, 0]))))
    assert choquet.choquet_below(choquet.point_mass(c), mu).below
    assert not choquet.choquet_below(mu, choquet.point_mass(c)).below


# ---------------------------------------------------------------------------
# norm-maximizing measures


def test_co_norm_square_frozen():
    sq = square()
    value, m = choquet.co_norm_max(sq, center(sq),
                                   sq.functional([0, 0.5, 0.5]))
    assert value == pytest.approx(1.0, abs=1e-9)
    got = sorted((round(w, 9), tuple(p.coords)) for w, p in m.atoms)
    assert got == [(0.5, (1.0, -1.0, -1.0)), (0.5, (1.0, 1.0, 1.0))]


def test_co_norm_positive_functional():
    sq = square()
    value, m = choquet.co_norm_max(sq, center(sq), sq.unit_functional)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert len(m.atoms) == 1
    assert np.allclose(m.atoms[0][1].coords, [1, 0, 0], atol=1e-9)


def test_co_norm_zero_functional():
    sq = square()
    value, m = choquet.co_norm_max(sq, center(sq), sq.functional([0, 0, 0]))
    assert value == pytest.approx(0.0, abs=1e-12)
    assert sum(w for w, _ in m.atoms) == pytest.approx(1.0, abs=1e-9)


def test_co_norm_average_attains_value():
    rng = np.random.default_rng(23)
    cases = []
    for _ in range(5):
        system = sampling.random_polytopic_system(rng, dim=3, max_points=6)
        sigma = sampling.random_interior_state(rng, system)
        cases.append((system, sigma))
    ball = systems.ball(2)
    cases.append((ball, ball.vector([1, 0, 0])))
    for system, sigma in cases:
        h = system.functional(rng.normal(size=system.dim))
        value, m = choquet.co_norm_max(system, sigma, h)
        avg = sum(w * abs(systems.pair(h, p)) for w, p in m.atoms)
        assert avg == pytest.approx(value, rel=1e-7, abs=1e-9)
        assert np.allclose(m.barycenter.coords, sigma.coords, atol=1e-7)
        double, _ = choquet.co_norm_max(system, sigma, 2.0 * h)
        assert double == pytest.approx(2.0 * value, rel=1e-9, abs=1e-9)


def test_co_norm_dominates_other_measures():
    rng = np.random.default_rng(29)
    sq = square()
    sigma = center(sq)
    for _ in range(5):
        h = sq.functional(rng.normal(size=3))
        value, _ = choquet.co_norm_max(sq, sigma, h)
        mu = sampling.random_measure_with_barycenter(rng, sq, sigma)
        avg = sum(w * abs(systems.pair(h, p)) for w, p in mu.atoms)
        assert avg <= value + 1e-9


def test_co_norm_sigma_validation():
    sq = square()
    h = sq.functional([0, 1, 0])
    with pytest.raises(NotInterior):
        choquet.co_norm_max(sq, sq.vector([1, 1, 0]), h)
    with pytest.raises(InvalidInput):
        choquet.co_norm_max(sq, sq.vector([2, 0, 0]), h)


# ---------------------------------------------------------------------------
# the variational constant


def test_constant_square_uniform():
    sq = square()
    value = choquet.c_mu(sq, center(sq), choquet.vertex_measure(sq))
    assert value == pytest.approx(0.5, abs=1e-7)


def test_constant_point_mass_degenerates():
    sq = square()
    value = choquet.c_mu(sq, center(sq), choquet.point_mass(center(sq)))
    assert value == pytest.approx(0.0, abs=1e-9)


def test_constant_classical_bit():
    s2 = systems.simplex(2)
    sigma = s2.vector([0.5, 0.5])
    value = choquet.c_mu(s2, sigma, choquet.vertex_measure(s2))
    assert value == pytest.approx(1.0, abs=1e-9)


def test_constant_mixture_frozen():
    sq = square()
    u4 = choquet.vertex_measure(sq)
    mix = choquet.SimpleMeasure(
        tuple([(0.5 * w, p) for w, p in u4.atoms] + [(0.5, center(sq))]))
    assert choquet.c_mu(sq, center(sq), mix) == pytest.approx(0.25, abs=1e-7)


def test_constant_validation():
    sq = square()
    u4 = choquet.vertex_measure(sq)
    with pytest.raises(InvalidInput):
        choquet.c_mu(sq, sq.vector([1, 0.5, 0]), u4)  # wrong barycenter
    with pytest.raises(NotInterior):
        choquet.c_mu(sq, sq.vector([1, 1, 0]),
                     choquet.point_mass(sq.vector([1, 1, 0])))
    ball = systems.ball(2)
    with pytest.raises(InvalidInput):
        choquet.c_mu(ball, ball.vector([1, 0, 0]),
                     choquet.point_mass(ball.vector([1, 0, 0])))
    with pytest.raises(SystemMismatch):
        choquet.c_mu(sq, center(sq),
                     choquet.point_mass(systems.ball(2).vector([1, 0, 0])))


def test_constants_take_sigma_as_a_state_vector_of_the_system():
    sq = square()
    u4 = choquet.vertex_measure(sq)
    for bad in (np.array([1.0, 0.0, 0.0]), sq.functional([1.0, 0.0, 0.0])):
        with pytest.raises(InvalidInput, match="expected a Vector"):
            choquet.c_mu(sq, bad, u4)
    with pytest.raises(SystemMismatch):
        choquet.c_mu(sq, systems.simplex(3).vector([1 / 3] * 3), u4)
    ball = systems.ball(3)
    for bad in (np.array([1.0, 0.0, 0.0, 0.0]),
                ball.functional([1.0, 0.0, 0.0, 0.0])):
        with pytest.raises(InvalidInput, match="expected a Vector"):
            choquet.c_mu_monte_carlo(ball, bad, samples=100)
    with pytest.raises(SystemMismatch):
        choquet.c_mu_monte_carlo(ball, systems.ball(2).vector([1.0, 0, 0]),
                                 samples=100)


def test_constant_dimension_guard(monkeypatch):
    monkeypatch.setenv("GPTSTEER_GUARDS", "cmu_dim=2")
    sq = square()
    with pytest.raises(GuardExceeded):
        choquet.c_mu(sq, center(sq), choquet.vertex_measure(sq))


def test_constant_below_degree_estimates():
    # the universal degree bounds c_mu of every measure with barycenter
    # sigma, vertex-supported or not
    sq = square()
    value = choquet.c_mu(sq, center(sq), choquet.vertex_measure(sq))
    assert value <= choquet.universal_degree(sq, center(sq))[0] + 1e-9
    rng = np.random.default_rng(31)
    for _ in range(3):
        system = sampling.random_polytopic_system(rng, dim=3, max_points=6)
        sigma = sampling.random_interior_state(rng, system)
        degree = choquet.universal_degree(system, sigma)[0]
        for _ in range(4):
            mu = sampling.random_measure_with_barycenter(rng, system, sigma)
            assert choquet.c_mu(system, sigma, mu) <= degree + 1e-9


def test_constant_square_achievability():
    # symmetrizing any vertex-supported measure lands on the uniform one,
    # whose constant is the universal degree
    rng = np.random.default_rng(37)
    sq = square()
    group = systems.symmetries(sq)
    assert len(group) == 8
    best = 0.0
    for _ in range(3):
        mu = choquet.vertex_measure(sq, rng.dirichlet(np.ones(4)))
        sym = choquet.symmetrize(mu, group)
        assert np.allclose(sym.weights, 0.25, atol=1e-12)
        best = max(best, choquet.c_mu(sq, center(sq), sym))
    assert best == pytest.approx(0.5, abs=1e-6)
    assert best == pytest.approx(
        choquet.universal_degree(sq, center(sq))[0], abs=1e-12)


def _c_mu_family(seed=101, per_dim=3):
    """(system, sigma, mu) on random hulls of dim 2-5 with at most d + 2
    vertices: random measures with 2 to d + 2 satellites, their dilations
    up to dim 4 (in dim 5 the full scan of a dilation takes seconds),
    two-atom splits (rank-deficient from dim 3 on) and point masses."""
    rng = np.random.default_rng(seed)
    for dim in range(2, 6):
        for _ in range(per_dim):
            system = sampling.random_polytopic_system(rng, dim=dim,
                                                      max_points=dim + 2)
            sigma = sampling.random_interior_state(rng, system)
            mu = sampling.random_measure_with_barycenter(
                rng, system, sigma, n_satellites=int(rng.integers(2, dim + 3)))
            yield system, sigma, mu
            if dim < 5:
                yield system, sigma, sampling.random_dilation(rng, mu)
            yield system, sigma, two_atom_with_barycenter(rng, system, sigma)
            yield system, sigma, choquet.point_mass(sigma)


def test_constant_matches_the_full_facet_scan_to_the_byte():
    cases = 0
    for system, sigma, mu in _c_mu_family():
        assert choquet.c_mu(system, sigma, mu) == lp_cases.full_scan_c_mu(
            system, sigma, mu)
        cases += 1
    assert cases == 45


@pytest.mark.parametrize("system, value", [
    (systems.hypercube(2), 0.5), (systems.hypercube(3), 0.5),
    (systems.cross_polytope(3), 1 / 3), (systems.regular_polygon(6), 2 / 3),
    (systems.simplex(3), 1.0)])
def test_constant_of_vertex_measures(system, value):
    sigma = system.vector(system.vertices.mean(axis=0))
    mu = choquet.vertex_measure(system)
    got = choquet.c_mu(system, sigma, mu)
    assert got == lp_cases.full_scan_c_mu(system, sigma, mu)
    assert got == pytest.approx(value, abs=1e-15)
    assert choquet.c_mu(system, sigma, choquet.point_mass(sigma)) == 0.0


def _facet_count(system, sigma):
    return choquet._interval_vertices(system, sigma).shape[0]


def _floors(Y, mu):
    """c_mu's facet floors, one over the zonotope gauges of the rows of Y,
    or None where the gauges have no closed form."""
    gauges = choquet._zonotope_gauges(mu.weights, mu.points, Y)
    return None if gauges is None else 1.0 / gauges[0]


def test_constant_of_a_generic_measure_solves_one_facet(lp_solves):
    rng = np.random.default_rng(7)
    for dim in (3, 4):
        system = sampling.random_polytopic_system(rng, dim=dim)
        sigma = sampling.random_interior_state(rng, system)
        mu = sampling.random_measure_with_barycenter(rng, system, sigma,
                                                     n_satellites=dim + 1)
        assert _facet_count(system, sigma) > 1
        lp_solves.clear()
        choquet.c_mu(system, sigma, mu)
        assert len(lp_solves) == 1


def test_constant_without_floors_solves_every_facet(lp_solves):
    rng = np.random.default_rng(8)
    sq = square()
    # two atoms do not span R^3 or R^4: no floors, and the constant is 0
    for system in (sq, systems.hypercube(3)):
        sigma = sampling.random_interior_state(rng, system)
        pair = two_atom_with_barycenter(rng, system, sigma)
        Y = choquet._interval_vertices(system, sigma)
        assert _floors(Y, pair) is None
        lp_solves.clear()
        assert choquet.c_mu(system, sigma, pair) == 0.0
        assert len(lp_solves) == Y.shape[0]
    # 92 atoms in R^3 have C(92, 2) = 4186 > ROW_CAP pairs: no floors
    P = np.column_stack([np.ones(92), rng.uniform(-1, 1, (92, 2))])
    w = rng.dirichlet(np.ones(92))
    big = choquet.SimpleMeasure(tuple(
        (float(wi), sq.vector(p)) for wi, p in zip(w, P)))
    assert math.comb(92, 2) > kernels.ROW_CAP
    assert _floors(choquet._interval_vertices(sq, big.barycenter),
                   big) is None
    lp_solves.clear()
    value = choquet.c_mu(sq, big.barycenter, big)
    assert len(lp_solves) == _facet_count(sq, big.barycenter)
    assert value == lp_cases.full_scan_c_mu(sq, big.barycenter, big)


def test_constant_of_the_square_solves_each_tied_facet(lp_solves):
    sq = square()
    mu = choquet.vertex_measure(sq)
    floors = _floors(choquet._interval_vertices(sq, center(sq)), mu)
    # the two diagonal facets tie at 1/2, the sigma facet sits at 1
    assert sorted(floors.tolist()) == pytest.approx([0.5, 0.5, 1.0],
                                                    abs=1e-15)
    assert choquet.c_mu(sq, center(sq), mu) == 0.5
    assert len(lp_solves) == 2


def test_constant_checks_the_lp_minimum_against_the_smallest_floor(
        monkeypatch):
    sq = square()
    gauges = choquet._zonotope_gauges

    def low(weights, P, T):
        # every floor 0.01 lower
        g, U = gauges(weights, P, T)
        return 1.0 / (1.0 / g - 0.01), U

    monkeypatch.setattr(choquet, "_zonotope_gauges", low)
    with pytest.raises(NumericalFailure, match="zonotope floor"):
        choquet.c_mu(sq, center(sq), choquet.vertex_measure(sq))


def test_floors_enumerate_repeated_atoms_once(lp_solves):
    # a dilation repeats its atoms: counted with repeats its atom subsets
    # pass ROW_CAP, the distinct atoms still get floors
    rng = np.random.default_rng(3)
    for dim in (4, 5):
        system = sampling.random_polytopic_system(rng, dim=dim,
                                                  max_points=dim + 2)
        sigma = sampling.random_interior_state(rng, system)
        mu = sampling.random_dilation(
            rng, sampling.random_measure_with_barycenter(
                rng, system, sigma, n_satellites=dim + 2))
        assert math.comb(len(mu.atoms), dim - 1) > kernels.ROW_CAP
        Y = choquet._interval_vertices(system, sigma)
        assert _floors(Y, mu) is not None
        lp_solves.clear()
        value = choquet.c_mu(system, sigma, mu)
        solved = len(lp_solves)
        assert value == lp_cases.full_scan_c_mu(system, sigma, mu)
        assert solved < len(lp_solves) - solved == Y.shape[0]


def test_library_lps_record_every_facet_subproblem():
    recorded = {_problem_bytes(p) for p, _ in lp_cases.library_lps()}
    for system in (systems.hypercube(2), systems.regular_polygon(5),
                   systems.cross_polytope(3)):
        sigma = system.vector(system.vertices.mean(axis=0))
        facets = lp_cases.facet_subproblems(
            system, sigma, choquet.vertex_measure(system))
        assert len(facets) == _facet_count(system, sigma)
        assert all(_problem_bytes(p) in recorded for p in facets)


def _problem_bytes(p):
    return b"|".join(np.asarray(f).tobytes() for f in (
        p.objective, p.eq_rows, p.eq_rhs, p.ub_rows, p.ub_rhs, p.lower,
        p.upper))


# ---------------------------------------------------------------------------
# universal steering degree: the largest constant, one LP


def test_universal_degree_is_invariant_under_a_signed_axis_permutation():
    rng = np.random.default_rng(41)
    for dim in (3, 4):
        system = sampling.random_polytopic_system(rng, dim=dim,
                                                  max_points=dim + 2)
        sigma = sampling.random_interior_state(rng, system)
        T = np.eye(dim)
        T[1:, 1:] = np.eye(dim - 1)[rng.permutation(dim - 1)]
        T[1:] *= rng.choice([-1.0, 1.0], size=(dim - 1, 1))
        moved = systems.polytopic(system.vertices @ T.T)
        value = choquet.universal_degree(system, sigma)[0]
        assert choquet.universal_degree(
            moved, moved.vector(T @ sigma.coords))[0] == pytest.approx(
                value, abs=1e-12)


def test_universal_degree_validation(monkeypatch):
    sq = square()
    with pytest.raises(InvalidInput, match="normalized"):
        choquet.universal_degree(sq, sq.vector([2.0, 0.0, 0.0]))
    with pytest.raises(NotInterior):
        choquet.universal_degree(sq, sq.vector([1.0, 1.0, 0.0]))
    with pytest.raises(InvalidInput):
        choquet.universal_degree(systems.ball(2))
    monkeypatch.setenv("GPTSTEER_GUARDS", "cmu_dim=2")
    with pytest.raises(GuardExceeded):
        choquet.universal_degree(sq)


def _perturbed_degree_lp(monkeypatch, change):
    """Make lp.solve hand the degree LP's outcome (the one LP minimizing
    -s, its last column) through `change` before universal_degree checks
    it."""
    solve = lp.solve

    def perturbed(problem, mode="float"):
        out = solve(problem, mode)
        return change(out) if problem.objective[-1] == -1.0 else out

    monkeypatch.setattr(lp, "solve", perturbed)


def test_universal_degree_checks_its_maximizing_measure(monkeypatch):
    # the central square's other vertex measures have c_mu below 1/2, so
    # no zonotope model of theirs reaches the degree
    sq = square()
    null = np.linalg.svd(sq.vertices.T)[2][-1]
    w = 0.25 + 0.1 * null / np.max(np.abs(null))

    def other_measure(out):
        x = out.x.copy()
        x[:4] = w
        return replace(out, x=x)

    _perturbed_degree_lp(monkeypatch, other_measure)
    with pytest.raises(NumericalFailure, match="exceed the weights"):
        choquet.universal_degree(sq)


@pytest.mark.parametrize("field, index", [
    ("dual_eq", 0),      # the constant term of A (the square's unit is e_0)
    ("dual_eq", 1),      # a linear coefficient of A
    ("dual_eq", -4),     # a coordinate of h_2
    ("dual_eq", -1)])    # a coordinate of h_3
def test_universal_degree_checks_its_dual_certificate(monkeypatch, field,
                                                       index):
    def nudged(out):
        y = getattr(out, field).copy()
        y[index] += 1e-3
        return replace(out, **{field: y})

    _perturbed_degree_lp(monkeypatch, nudged)
    with pytest.raises(NumericalFailure, match="dual certificate"):
        choquet.universal_degree(square())


def test_universal_degree_solves_one_lp(lp_solves):
    for system in (square(), systems.regular_polygon(7),
                   systems.cross_polytope(3)):
        lp_solves.clear()
        choquet.universal_degree(system)
        assert len(lp_solves) == 1


# ---------------------------------------------------------------------------
# Monte Carlo constant for the ball


def test_monte_carlo_three_ball():
    est = choquet.c_mu_monte_carlo(samples=200000, seed=0)
    assert est.reference == pytest.approx(0.5, abs=1e-12)
    assert est.value == pytest.approx(0.5, abs=0.005)
    assert 0.0 < est.stderr < 0.002
    assert est.samples == 200000 and est.seed == 0


def test_monte_carlo_disk_and_segment():
    disk = choquet.c_mu_monte_carlo(systems.ball(2), samples=200000, seed=0)
    assert disk.reference == pytest.approx(2.0 / np.pi, abs=1e-12)
    assert disk.value == pytest.approx(2.0 / np.pi, abs=0.005)
    seg = choquet.c_mu_monte_carlo(systems.ball(1), samples=200000, seed=0)
    assert seg.reference == pytest.approx(1.0, abs=1e-12)
    assert seg.value == pytest.approx(1.0, abs=0.005)


def test_monte_carlo_deterministic():
    a = choquet.c_mu_monte_carlo(samples=20000, seed=5)
    b = choquet.c_mu_monte_carlo(samples=20000, seed=5)
    assert a.value == b.value and a.stderr == b.stderr


def test_monte_carlo_validation():
    with pytest.raises(InvalidInput):
        choquet.c_mu_monte_carlo(systems.ball(2, norm="l1"))
    with pytest.raises(InvalidInput):
        choquet.c_mu_monte_carlo(square())
    ball = systems.ball(3)
    with pytest.raises(InvalidInput):
        choquet.c_mu_monte_carlo(ball, sigma=ball.vector([1, 0.3, 0, 0]))
    with pytest.raises(InvalidInput):
        choquet.c_mu_monte_carlo(samples=1)


@pytest.mark.parametrize("samples", [2.5, "abc", None, True, False, 0])
def test_monte_carlo_samples_must_be_an_integer_of_at_least_two(samples):
    with pytest.raises(InvalidInput,
                       match="samples must be an integer of at least 2"):
        choquet.c_mu_monte_carlo(samples=samples)


def test_monte_carlo_takes_numpy_integer_samples():
    got = choquet.c_mu_monte_carlo(systems.ball(2), samples=np.int64(50))
    want = choquet.c_mu_monte_carlo(systems.ball(2), samples=50)
    assert (got.value, got.stderr) == (want.value, want.stderr)
    assert type(got.samples) is int


def ref_monte_carlo(n, samples, seed):
    """(value, stderr) of the Monte Carlo search on the ball in R^(n+1) with
    the one-expression score, evaluated afresh at every visit."""
    rng = np.random.default_rng(seed)
    if n == 1:
        U = np.where(rng.standard_normal((samples, 1)) >= 0.0, 1.0, -1.0)
    else:
        G = rng.standard_normal((samples, n))
        U = G / np.linalg.norm(G, axis=1, keepdims=True)

    def score(h):
        return float(np.mean(np.abs(h[0] + U @ h[1:])))

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
    vals = np.abs(best[0] + U @ best[1:])
    return best_val, float(vals.std(ddof=1)) / math.sqrt(samples)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("samples", [2, 3, 10**4])
def test_monte_carlo_matches_one_expression_score(n, samples):
    for seed in range(8):
        est = choquet.c_mu_monte_carlo(systems.ball(n), samples=samples,
                                       seed=seed)
        want = ref_monte_carlo(n, samples, seed)
        assert (est.value.hex(), est.stderr.hex()) == tuple(
            v.hex() for v in want)


# ---------------------------------------------------------------------------
# exact two-atom decision


def test_exact_square_frozen():
    sq = square()
    u4 = choquet.vertex_measure(sq)
    assert choquet.dichotomic_below_exact(flat_pair(sq), u4).below
    v = choquet.dichotomic_below_exact(vertex_diagonal(sq), u4)
    assert not v.below
    # the (+, -) target (0, 1, 1) has gauge 2 in the uniform zonotope,
    # attained at h = (0, 1, 1), whose uniform average of |<h, .>| is 1
    assert v.margin == 1.0
    assert v.functional.coords.tolist() == [0.0, 1.0, 1.0]
    assert abs_gap(vertex_diagonal(sq), u4, v.functional) == pytest.approx(
        v.margin, abs=1e-12)


def test_exact_agrees_with_response_lp():
    rng = np.random.default_rng(11)
    verdicts = {True: 0, False: 0}
    for i in range(200):
        system = sampling.random_polytopic_system(rng, dim=3, max_points=6)
        sigma = sampling.random_interior_state(rng, system)
        nu = two_atom_with_barycenter(rng, system, sigma)
        if i % 2 == 0:
            mu = sampling.random_dilation(rng, nu)
        else:
            mu = sampling.random_measure_with_barycenter(rng, system, sigma)
        got = choquet.choquet_below(nu, mu).below
        assert choquet.dichotomic_below_exact(nu, mu).below == got
        verdicts[got] += 1
    assert verdicts[True] >= 40 and verdicts[False] >= 40


def facet_scan_minimum(nu, mu):
    """Reference for dichotomic_below_exact: the facet-by-facet scan it
    replaced.  For each kept interval vertex y_i and each sign pattern eps
    of nu's atoms, minimize  sum_j mu_j |<h, p_j>| - eps . (nu_a <h, q_a>)
    over the facet <h, y_i> = 1 of the sigma-dual ball, four LPs per facet.
    Returns the least value and the first h that reached it."""
    system = nu.system
    Y = tensors.sigma_interval_vertices(system, nu.barycenter)
    Y = Y[systems.mirror_representatives(Y)]
    m, d = Y.shape
    P, n = mu.points, len(mu.atoms)
    target = nu.weights[:, None] * nu.points
    ub = np.zeros((2 * n + 2 * m, d + n))
    ub[:n, :d], ub[:n, d:] = P, -np.eye(n)
    ub[n:2 * n, :d], ub[n:2 * n, d:] = -P, -np.eye(n)
    ub[2 * n:2 * n + m, :d], ub[2 * n + m:, :d] = Y, -Y
    rhs = np.concatenate([np.zeros(2 * n), np.ones(2 * m)])
    lower = np.concatenate([np.full(d, -np.inf), np.zeros(n)])
    best, best_h = np.inf, None
    for i in range(m):
        eq = np.zeros((1, d + n))
        eq[0, :d] = Y[i]
        for eps in itertools.product((1.0, -1.0), repeat=len(nu.atoms)):
            out = lp.solve(lp.LpProblem(
                np.concatenate([-(np.array(eps) @ target), mu.weights]),
                eq_rows=eq, eq_rhs=np.ones(1),
                ub_rows=ub, ub_rhs=rhs, lower=lower))
            assert out.status == "optimal"
            if out.value < best:
                best, best_h = out.value, out.x[:d]
    return best, system.functional(best_h)


def _gauge_by_lp(mu, t):
    """max <h, t> over f(h) = sum_j mu_j |<h, P_j>| <= 1, as an LP."""
    P, w = mu.points, mu.weights
    n, d = P.shape
    ub = np.zeros((2 * n + 1, d + n))
    ub[:n, :d], ub[:n, d:] = P, -np.eye(n)
    ub[n:2 * n, :d], ub[n:2 * n, d:] = -P, -np.eye(n)
    ub[2 * n, d:] = w
    out = lp.optimum(lp.LpProblem(
        np.concatenate([-t, np.zeros(n)]), ub_rows=ub,
        ub_rhs=np.concatenate([np.zeros(2 * n), [1.0]]),
        lower=np.concatenate([np.full(d, -np.inf), np.zeros(n)])), "gauge")
    return -out.value


def _ball_max_by_lp(Y, p):
    """max |<h, p>| over the sigma-dual ball |<h, Y_k>| <= 1, as an LP."""
    out = lp.optimum(lp.LpProblem(
        -p, ub_rows=np.vstack([Y, -Y]), ub_rhs=np.ones(2 * Y.shape[0]),
        lower=np.full(p.size, -np.inf)), "ball maximum")
    return -out.value


def assert_unit_average(mu, h):
    """mu's average of |<h, .>| is one, up to rounding on the scale of its
    terms (h is large on a thin zonotope)."""
    scale = mu.weights @ (np.abs(mu.points) @ np.abs(h))
    assert abs(mu.weights @ np.abs(mu.points @ h) - 1.0) <= 1e-12 * scale


def assert_refutation(nu, mu, v, violation):
    """Check a refutation against V, a reference's largest violation over
    the sigma-dual ball (its least order-LP value, negated).  The margin
    is the gap at h, and positive, so h / ||h||_sigma shows
    margin / ||h||_sigma <= V.  From the gauges, h has mu-average one and
    the margin is g - 1; on the ball the mu-average is at most
    M = sum_j mu_j max_ball |<h, P_j>|, so V <= (g - 1) M = margin M.
    Where the gauges have no closed form, h comes from `choquet_below`'s
    tuple and the margin is exactly the gap that `_abs_gap` computes."""
    h = v.functional
    assert v.margin > 0.0
    assert abs_gap(nu, mu, h) == pytest.approx(v.margin, rel=1e-12,
                                               abs=1e-12)
    norm, _ = systems.sigma_base_norm(nu.system, h, nu.barycenter)
    assert v.margin / norm <= violation + 1e-9
    if choquet._zonotope_gauges(mu.weights, mu.points, nu.points) is None:
        assert v.margin == choquet._abs_gap(nu, mu, h)
        return
    Y = choquet._interval_vertices(nu.system, nu.barycenter)
    M = sum(w * _ball_max_by_lp(Y, p) for w, p in zip(mu.weights, mu.points))
    assert violation <= v.margin * M + 1e-9
    assert_unit_average(mu, h.coords)


def assert_matches_facet_scan(nu, mu):
    """The facet scan's verdict, or where the two differ the verdict of
    `choquet_below`; a refutation passes `assert_refutation` against the
    scan's least value.  Returns (below, whether the scan differed)."""
    v = choquet.dichotomic_below_exact(nu, mu)
    best, _ = facet_scan_minimum(nu, mu)
    differs = v.below != (best >= -COINCIDENCE)
    if differs:
        assert v.below == choquet.choquet_below(nu, mu).below
    if not v.below:
        assert_refutation(nu, mu, v, -best)
    return v.below, differs


SPACES = {
    "hull3": lambda rng: sampling.random_polytopic_system(rng, dim=3,
                                                          max_points=6),
    "hull4": lambda rng: sampling.random_polytopic_system(rng, dim=4,
                                                          max_points=7),
    "square": lambda rng: systems.hypercube(2),
    "cube": lambda rng: systems.hypercube(3),
    "octahedron": lambda rng: systems.cross_polytope(3),
    "hexagon": lambda rng: systems.regular_polygon(6),
}


@pytest.mark.parametrize("space", sorted(SPACES))
def test_exact_matches_facet_scan(space):
    rng = np.random.default_rng(sorted(SPACES).index(space))
    verdicts = {True: 0, False: 0}
    differed = 0
    for i in range(8):
        system = SPACES[space](rng)
        sigma = sampling.random_interior_state(rng, system)
        nu = two_atom_with_barycenter(rng, system, sigma)
        if i % 3 == 0:
            mu = sampling.random_dilation(rng, nu)
        else:
            mu = sampling.random_measure_with_barycenter(rng, system, sigma)
        below, differs = assert_matches_facet_scan(nu, mu)
        verdicts[below] += 1
        differed += differs
    assert verdicts[True] >= 3 and verdicts[False] >= 1
    assert differed == 0


@pytest.mark.parametrize("space", sorted(SPACES))
def test_exact_matches_facet_scan_on_edge_cases(space):
    rng = np.random.default_rng(10 + sorted(SPACES).index(space))
    system = SPACES[space](rng)
    sigma = sampling.random_interior_state(rng, system)
    mu = sampling.random_measure_with_barycenter(rng, system, sigma)
    nu = two_atom_with_barycenter(rng, system, sigma)
    assert assert_matches_facet_scan(choquet.point_mass(sigma), mu) == (
        True, False)
    assert assert_matches_facet_scan(nu, nu) == (True, False)
    assert assert_matches_facet_scan(
        nu, sampling.random_dilation(rng, nu)) == (True, False)
    # sigma a hair inside the boundary, next to a vertex
    edge = system.vector(0.03 * system.barycenter.coords
                         + 0.97 * system.vertices[0])
    _, differs = assert_matches_facet_scan(
        two_atom_with_barycenter(rng, system, edge),
        sampling.random_measure_with_barycenter(rng, system, edge))
    assert not differs


def test_exact_lp_count(lp_solves):
    square, cube = systems.hypercube(2), systems.hypercube(3)
    # the intervals differ in vertex count; the LP count does not
    assert (len(tensors.sigma_interval_vertices(square, square.barycenter))
            != len(tensors.sigma_interval_vertices(cube, cube.barycenter)))
    cases = []
    for system in (square, cube):
        sigma = system.barycenter
        nu = two_atom_with_barycenter(np.random.default_rng(0), system, sigma)
        cases.append((nu, choquet.point_mass(sigma),
                      choquet.vertex_measure(system)))
    for nu, point, mu in cases:
        assert len(nu.atoms) == 2
        # both patterns' gauges are at most one: no LP decides "below"
        lp_solves.clear()
        assert choquet.dichotomic_below_exact(nu, mu).below
        assert len(lp_solves) == 0
        lp_solves.clear()
        assert choquet.dichotomic_below_exact(point, mu).below
        assert len(lp_solves) == 0
        # a point mass spans no zonotope: the order LP decides
        lp_solves.clear()
        assert not choquet.dichotomic_below_exact(nu, point).below
        assert len(lp_solves) == 1
    # the gauges refute the diagonal with no LP
    lp_solves.clear()
    assert not choquet.dichotomic_below_exact(
        vertex_diagonal(square), choquet.vertex_measure(square)).below
    assert len(lp_solves) == 0


def _order_family(rng, per_space):
    """(nu, mu) pairs on each space of SPACES: random two-atom splits (both
    constructions) under random measures, dilations of nu, nu itself,
    point masses, sigma next to a vertex, and vertex measures."""
    for space in sorted(SPACES):
        for _ in range(per_space):
            system = SPACES[space](rng)
            sigma = sampling.random_interior_state(rng, system)
            nu = two_atom_with_barycenter(rng, system, sigma)
            split = selftest._two_atom_split(rng, system, sigma)
            mu = sampling.random_measure_with_barycenter(rng, system, sigma)
            yield nu, mu
            yield split, mu
            yield nu, sampling.random_dilation(rng, nu)
            yield split, sampling.random_dilation(rng, split)
            yield nu, nu
            yield choquet.point_mass(sigma), mu
            yield nu, choquet.point_mass(sigma)
            edge = system.vector(0.03 * system.barycenter.coords
                                 + 0.97 * system.vertices[0])
            yield (two_atom_with_barycenter(rng, system, edge),
                   sampling.random_measure_with_barycenter(rng, system, edge))
            yield (two_atom_with_barycenter(rng, system, system.barycenter),
                   choquet.vertex_measure(system))


def test_exact_matches_the_full_pattern_scan(lp_solves):
    verdicts = {True: 0, False: 0}
    fallback = 0
    for nu, mu in _order_family(np.random.default_rng(71), per_space=5):
        lp_solves.clear()
        got = choquet.dichotomic_below_exact(nu, mu)
        solved = len(lp_solves)
        want = lp_cases.full_scan_dichotomic_below(nu, mu)
        assert got.below == want.below == choquet.choquet_below(nu, mu).below
        if not got.below:
            assert_refutation(nu, mu, got, want.margin)
        # the gauges solve no LP; without them the order LP decides
        if choquet._zonotope_gauges(mu.weights, mu.points, nu.points) is None:
            fallback += 1
            assert solved == 1
        else:
            assert solved == 0
        verdicts[got.below] += 1
    assert verdicts[True] >= 40 and verdicts[False] >= 40
    assert fallback > 0


def _ball_order_family(rng, norm, count):
    """(nu, mu) pairs on ball(2) and ball(3) with the `norm`, at a random
    interior sigma: nu two atoms on a chord through sigma, with unequal
    weights; mu two to four such chords, a dilation of nu (each atom split
    along a chord through it), nu itself or the point mass at sigma."""
    order = {"l1": 1, "l2": 2, "linf": np.inf}[norm]

    def chord(centre, scale):
        # atoms centre + a y and centre - b y, weights b and a over a + b;
        # ||y|| <= 1 - ||centre|| keeps both in the ball
        y = rng.standard_normal(centre.size)
        y *= scale * (1.0 - np.linalg.norm(centre, order)) / np.linalg.norm(
            y, order)
        a, b = rng.uniform(0.2, 1.0, 2)
        return [(b / (a + b), centre + a * y), (a / (a + b), centre - b * y)]

    def measure(atoms):
        return choquet.SimpleMeasure(tuple(
            (float(w), system.vector(np.r_[1.0, x])) for w, x in atoms))

    for k in range(count):
        system = systems.ball(2 + k % 2, norm)
        s = rng.standard_normal(system.dim - 1)
        s *= rng.uniform(0.0, 0.5) / np.linalg.norm(s, order)
        nu_atoms = chord(s, rng.uniform(0.1, 0.7))
        nu = measure(nu_atoms)
        kind = k % 6
        if kind < 3:
            m = int(rng.integers(2, 5))
            mu = measure([(w / m, x) for _ in range(m)
                          for w, x in chord(s, rng.uniform(0.4, 1.0))])
        elif kind == 3:
            mu = measure([(w * v, z) for w, x in nu_atoms
                          for v, z in chord(x, rng.uniform(0.2, 1.0))])
        elif kind == 4:
            mu = nu
        else:
            mu = choquet.point_mass(nu.barycenter)
        yield nu, mu


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_exact_matches_choquet_below_on_balls(norm, lp_solves):
    verdicts = {True: 0, False: 0}
    rng = np.random.default_rng(74 + ["l1", "l2", "linf"].index(norm))
    for nu, mu in _ball_order_family(rng, norm, 48):
        lp_solves.clear()
        got = choquet.dichotomic_below_exact(nu, mu)
        gauges = choquet._zonotope_gauges(mu.weights, mu.points, nu.points)
        assert len(lp_solves) == (0 if gauges is not None else 1)
        assert got.below == choquet.choquet_below(nu, mu).below
        if not got.below:
            assert got.margin > 0.0
            assert got.margin == choquet._abs_gap(nu, mu, got.functional)
        verdicts[got.below] += 1
    assert verdicts[True] >= 10 and verdicts[False] >= 10


def test_zonotope_gauges_match_the_gauge_lp():
    checked = 0
    for nu, mu in _order_family(np.random.default_rng(72), per_space=2):
        target = nu.weights[:, None] * nu.points
        T = np.array([(1.0,) + tail for tail in itertools.product(
            (1.0, -1.0), repeat=len(nu.atoms) - 1)]) @ target
        gauges = choquet._zonotope_gauges(mu.weights, mu.points, T)
        if gauges is None:
            continue
        for t, g, h in zip(T, *gauges):
            assert g == pytest.approx(_gauge_by_lp(mu, t), rel=1e-9)
            # h = u / f(u) attains the gauge on the boundary of {f <= 1}
            assert_unit_average(mu, h)
            assert abs(h @ t) == pytest.approx(g, rel=1e-12)
            checked += 1
    assert checked >= 100


def test_exact_at_the_zonotope_boundary(lp_solves):
    # nu splits sigma along s y / ||y||_Z, so its (1, -1) target is that
    # point, of gauge s: s just below one is below mu and s just above one
    # refutes with margin s - 1, with no LP either way, even on a thin
    # zonotope, where an absolute tolerance on an LP minimum said below
    rng = np.random.default_rng(73)
    refuted = 0
    for space in sorted(SPACES):
        for _ in range(3):
            system = SPACES[space](rng)
            sigma = sampling.random_interior_state(rng, system)
            mu = sampling.random_measure_with_barycenter(rng, system, sigma)
            Y = tensors.sigma_interval_vertices(system, sigma)
            y = rng.dirichlet(np.ones(Y.shape[0])) @ Y
            g = choquet._zonotope_gauges(mu.weights, mu.points, y[None])[0][0]
            for s in (1 - 1e-5, 1 + 1e-5):
                atoms = []
                for sign in (1.0, -1.0):
                    half = 0.5 * (sigma.coords + sign * (s / g) * y)
                    w = float(system.unit @ half)
                    atoms.append((w, system.vector(half / w)))
                nu = choquet.SimpleMeasure(tuple(atoms))
                lp_solves.clear()
                got = choquet.dichotomic_below_exact(nu, mu)
                assert len(lp_solves) == 0
                assert got.below == (s < 1)
                assert got.below == choquet.choquet_below(nu, mu).below
                if not got.below:
                    assert got.margin == pytest.approx(s - 1, rel=1e-6)
                    refuted += 1
    assert refuted == 3 * len(SPACES)


def test_exact_validation():
    sq = square()
    u4 = choquet.vertex_measure(sq)
    with pytest.raises(NotDichotomic):
        choquet.dichotomic_below_exact(u4, u4)
    with pytest.raises(InvalidInput):
        choquet.dichotomic_below_exact(
            choquet.point_mass(sq.vector([1, 0.5, 0])), u4)
    assert choquet.dichotomic_below_exact(
        choquet.point_mass(center(sq)), u4).below


# ---------------------------------------------------------------------------
# symmetrization


def test_symmetrize_vertex_orbit():
    sq = square()
    group = systems.symmetries(sq)
    delta = choquet.BoundaryMeasure(((1.0, sq.vector(sq.vertices[0])),))
    sym = choquet.symmetrize(delta, group)
    assert isinstance(sym, choquet.BoundaryMeasure)
    assert len(sym.atoms) == 4
    assert np.allclose(sym.weights, 0.25, atol=1e-12)
    assert np.allclose(sym.barycenter.coords, [1, 0, 0], atol=1e-12)


def test_symmetrize_identity_and_invariant():
    sq = square()
    u4 = choquet.vertex_measure(sq)
    same = choquet.symmetrize(u4, [np.eye(3)])
    assert sorted(map(tuple, same.points.tolist())) == \
        sorted(map(tuple, u4.points.tolist()))
    sym = choquet.symmetrize(u4, systems.symmetries(sq))
    assert np.allclose(sorted(sym.weights), sorted(u4.weights), atol=1e-12)


def test_symmetrize_idempotent():
    rng = np.random.default_rng(41)
    sq = square()
    group = systems.symmetries(sq)
    mu = choquet.vertex_measure(sq, rng.dirichlet(np.ones(4)))
    once = choquet.symmetrize(mu, group)
    twice = choquet.symmetrize(once, group)
    a = sorted((tuple(np.round(p, 9)), w)
               for (w, _), p in zip(once.atoms, once.points))
    b = sorted((tuple(np.round(p, 9)), w)
               for (w, _), p in zip(twice.atoms, twice.points))
    for (pa, wa), (pb, wb) in zip(a, b):
        assert pa == pb
        assert wa == pytest.approx(wb, abs=1e-12)


def test_symmetrize_rejects_non_symmetry():
    sq = square()
    mu = choquet.vertex_measure(sq)
    with pytest.raises(NotASymmetry):
        choquet.symmetrize(mu, [np.diag([1.0, 2.0, 1.0])])
    with pytest.raises(InvalidInput):
        choquet.symmetrize(mu, [])
    with pytest.raises(InvalidInput, match="real numbers"):
        choquet.symmetrize(mu, ["abc"])


def test_symmetrize_preserves_domination():
    rng = np.random.default_rng(43)
    sq = square()
    flip = [np.eye(3), np.diag([1.0, -1.0, -1.0])]
    nu = measure(sq, (0.5, (1, 0.4, 0.4)), (0.5, (1, -0.4, -0.4)))
    for _ in range(4):
        mu = sampling.random_dilation(rng, nu)
        assert choquet.choquet_below(nu, mu).below
        sym = choquet.symmetrize(mu, flip)
        assert choquet.choquet_below(nu, sym).below
        assert np.allclose(sym.barycenter.coords, [1, 0, 0], atol=1e-9)
