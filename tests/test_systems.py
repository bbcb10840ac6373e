"""System model: norms, cones, effects, symmetries, serialization."""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_tensors import changed_coordinates

from gptsteer import lp, sampling, systems
from gptsteer.errors import (
    GuardExceeded,
    InvalidInput,
    NotInterior,
    NumericalFailure,
    SystemMismatch,
)
from gptsteer.geometry import facets_of_cone, lex_sorted, vertices_of_polytope
from gptsteer.tensors import sigma_interval_vertices
from gptsteer.tolerances import COINCIDENCE

RT2 = np.sqrt(2.0)


def square():
    return systems.hypercube(2)


# ---------------------------------------------------------------------------
# construction and validation


def test_simplex_vertices_are_standard_basis():
    s = systems.simplex(3)
    assert np.array_equal(s.vertices, np.eye(3))
    assert np.array_equal(s.unit, np.ones(3))


def test_square_unit_inferred():
    s = systems.polytopic(np.array(
        [[1.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]]))
    assert np.allclose(s.unit, [1, 0, 0], atol=1e-9)


def test_rejects_non_extreme_vertex():
    pts = np.array([[1.0, 1], [1, -1], [1, 0]])
    with pytest.raises(InvalidInput, match="extreme"):
        systems.polytopic(pts)


def test_rejects_rank_deficient_span():
    pts = np.array([[1.0, 1, 0], [1, -1, 0]])
    with pytest.raises(InvalidInput, match="span"):
        systems.polytopic(pts)


def test_rejects_unit_not_one_on_vertices():
    pts = np.array([[1.0, 1], [2, -1]])
    with pytest.raises(InvalidInput, match="unit"):
        systems.polytopic(pts, unit=np.array([1.0, 0]))


def test_hull_factory_prunes_interior_and_duplicates():
    pts = np.array([
        [1.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1],
        [1, 0, 0], [1, 1, 1],
    ])
    s = systems.polytopic_hull(pts)
    assert s.n_vertices == 4
    assert s == square()


def test_dimension_guard(monkeypatch):
    monkeypatch.setenv("GPTSTEER_GUARDS", "dim=3")
    with pytest.raises(GuardExceeded):
        systems.simplex(5)


def test_ball_requires_canonical_unit():
    with pytest.raises(InvalidInput):
        systems.GptSystem(
            kind=systems.CENTRALLY_SYMMETRIC, dim=3,
            unit=np.array([1.0, 1.0, 0.0]), ball_norm="l2")


def test_system_equality_is_content_based():
    assert systems.hypercube(2) == systems.hypercube(2)
    assert systems.hypercube(2) != systems.simplex(3)
    assert systems.ball(2, "l2") != systems.ball(2, "linf")


# ---------------------------------------------------------------------------
# cone facets of the square, frozen from the enumeration kernel

def test_square_cone_facets_frozen():
    got = square().cone_facets
    want = lex_sorted(np.array([
        [1, -1, 0], [1, 1, 0], [1, 0, -1], [1, 0, 1]]) / RT2)
    assert np.allclose(got, want, atol=1e-9)


def test_mirror_representatives_keep_one_row_of_each_pair():
    # the sign of the first entry above 1e-9 in magnitude decides
    Y = np.array([[0.0, 1.0], [0.0, -1.0], [1e-10, -1.0], [-1e-10, 1.0],
                  [2.0, -1.0], [-2.0, 1.0], [0.0, 0.0]])
    assert systems.mirror_representatives(Y).tolist() == [
        True, False, False, True, True, False, False]


def test_ball_systems_take_no_vertices():
    with pytest.raises(InvalidInput, match="no vertices"):
        systems.GptSystem(kind=systems.CENTRALLY_SYMMETRIC, dim=3,
                          ball_norm="l2", vertices=square().vertices)


def test_cone_facets_are_computed_not_passed():
    with pytest.raises(TypeError, match="cone_facets"):
        systems.GptSystem(kind=systems.POLYTOPIC, dim=3,
                          vertices=square().vertices,
                          cone_facets=square().cone_facets)


def test_facets_and_vertices_are_mutual_descriptions():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = np.concatenate(
            [np.ones((6, 1)), rng.uniform(-1, 1, size=(6, 2))], axis=1)
        try:
            s = systems.polytopic_hull(pts)
        except InvalidInput:
            continue
        # every vertex saturates >= d facets and violates none
        prods = s.cone_facets @ s.vertices.T
        assert prods.min() >= -1e-9
        tight = (np.abs(prods) <= 1e-7).sum(axis=0)
        assert tight.min() >= s.dim - 1


# ---------------------------------------------------------------------------
# cone membership


def test_cone_member_accepts_center_with_certificate():
    s = square()
    res = systems.cone_member(s, s.vector([1.0, 0, 0]))
    assert res.member
    c = res.coefficients
    assert c.min() >= -1e-12
    assert np.allclose(s.vertices.T @ c, [1, 0, 0], atol=1e-9)


def test_cone_member_rejects_with_separator():
    s = square()
    v = s.vector([0.0, 1.0, 0.0])
    res = systems.cone_member(s, v)
    assert not res.member
    h = res.separator
    assert (s.vertices @ h).min() >= -1e-9
    assert h @ v.coords < -1e-9


def test_cone_member_zero_vector():
    s = square()
    assert systems.cone_member(s, s.vector([0.0, 0, 0])).member


def test_cone_member_ball_analytic():
    s = systems.ball(2, "l2")
    assert systems.cone_member(s, s.vector([1.0, 0.6, 0.8])).member
    res = systems.cone_member(s, s.vector([1.0, 0.7, 0.8]))
    assert not res.member
    # separator is an exposed face functional
    h = res.separator
    assert h @ np.array([1.0, 0.7, 0.8]) < -1e-9


def test_cone_certificates_on_random_points():
    rng = np.random.default_rng(17)
    s = square()
    seen = [0, 0]
    for _ in range(60):
        v = s.vector(rng.uniform(-1.5, 1.5, size=3))
        res = systems.cone_member(s, v)
        if res.member:
            seen[0] += 1
            assert np.allclose(
                s.vertices.T @ res.coefficients, v.coords, atol=1e-8)
            assert res.coefficients.min() >= -1e-10
        else:
            seen[1] += 1
            assert (s.vertices @ res.separator).min() >= -1e-8
            assert res.separator @ v.coords < 0
    assert min(seen) > 5


# ---------------------------------------------------------------------------
# base norm


def test_base_norm_simplex_frozen():
    s = systems.simplex(3)
    assert systems.base_norm(s, s.vector([0.7, -0.3, 0.0])) == pytest.approx(
        1.0, abs=1e-9)


def test_base_norm_is_one_on_states():
    rng = np.random.default_rng(3)
    for s in (square(), systems.simplex(3), systems.cross_polytope(3)):
        for _ in range(10):
            w = rng.dirichlet(np.ones(s.n_vertices))
            v = s.vector(s.vertices.T @ w)
            assert systems.base_norm(s, v) == pytest.approx(1.0, abs=1e-8)


def test_base_norm_centrally_symmetric_formula():
    s = systems.ball(2, "linf")
    assert systems.base_norm(
        s, s.vector([0.4, 0.9, 0.1])) == pytest.approx(0.9, abs=1e-12)
    assert systems.base_norm(
        s, s.vector([1.4, 0.9, 0.1])) == pytest.approx(1.4, abs=1e-12)


def test_base_norm_duality_with_extreme_effects():
    # norm of v equals the best signed pairing over 2E - unit, the extreme
    # points of the symmetric functional interval
    rng = np.random.default_rng(31)
    for s in (square(), systems.simplex(2), systems.cross_polytope(3)):
        eff = np.array([f.coords for f in systems.extreme_effects(s)])
        signed = 2.0 * eff - s.unit[None, :]
        for _ in range(25):
            v = rng.normal(size=s.dim)
            direct = systems.base_norm(s, s.vector(v))
            via_dual = np.abs(signed @ v).max()
            assert direct == pytest.approx(via_dual, abs=1e-7)


def test_ball_matches_polytopic_twin_base_norm():
    rng = np.random.default_rng(8)
    pairs = [
        (systems.ball(2, "linf"), systems.hypercube(2)),
        (systems.ball(3, "l1"), systems.cross_polytope(3)),
    ]
    for cs, poly in pairs:
        for _ in range(25):
            v = rng.normal(size=cs.dim)
            a = systems.base_norm(cs, cs.vector(v))
            b = systems.base_norm(poly, poly.vector(v))
            assert a == pytest.approx(b, abs=1e-9)


# ---------------------------------------------------------------------------
# order unit norm


def test_order_unit_norm_of_unit_is_one():
    for s in (square(), systems.simplex(4), systems.ball(3, "l2")):
        assert systems.order_unit_norm(
            s, s.functional(s.unit)) == pytest.approx(1.0, abs=1e-12)


def test_order_unit_norm_square_frozen():
    s = square()
    f = s.functional([0.0, 1.0, -1.0])
    assert systems.order_unit_norm(s, f) == pytest.approx(2.0, abs=1e-12)


def test_order_unit_norm_ball_formula():
    s = systems.ball(2, "l2")
    f = s.functional([0.25, 0.3, -0.4])
    assert systems.order_unit_norm(s, f) == pytest.approx(0.75, abs=1e-12)


def test_order_unit_norm_vector_side_needs_interior_unit():
    s = square()
    with pytest.raises(NotInterior):
        systems.order_unit_norm(
            s, s.vector([0.0, 1.0, 0.0]), unit=s.vector([1.0, 1.0, 0.0]))


def test_order_unit_norm_vector_side_square():
    s = square()
    y = s.vector([0.2, 0.5, -0.8])
    # with the central unit this is the sigma norm at the center
    assert systems.order_unit_norm(
        s, y, unit=s.vector([1.0, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-12)


def test_ball_matches_polytopic_twin_order_unit():
    rng = np.random.default_rng(21)
    cs, poly = systems.ball(2, "linf"), systems.hypercube(2)
    for _ in range(25):
        f = rng.normal(size=3)
        a = systems.order_unit_norm(cs, cs.functional(f))
        b = systems.order_unit_norm(poly, poly.functional(f))
        assert a == pytest.approx(b, abs=1e-9)


# ---------------------------------------------------------------------------
# sigma norms


def test_sigma_order_unit_square_center_frozen():
    s = square()
    sig = s.vector([1.0, 0.0, 0.0])
    y = s.vector([0.0, 0.5, -0.8])
    val = systems.order_unit_norm(s, y, unit=sig)
    assert val == pytest.approx(0.8, abs=1e-12)
    val = systems.order_unit_norm(s, s.vector([0.2, 0.5, -0.8]), unit=sig)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_sigma_base_norm_square_frozen():
    s = square()
    sig = s.vector([1.0, 0.0, 0.0])
    val, ystar = systems.sigma_base_norm(s, s.functional([0.0, 0.5, 0.5]), sig)
    assert val == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(np.abs(ystar.coords), [0, 1, 1], atol=1e-8)
    # |t| + l1(phi) <= 1 on the sigma interval, so max(|t|, l1(phi)) is the
    # dual value: (1/2, 1/2, 0) scores 1/2, not 1
    val, _ = systems.sigma_base_norm(s, s.functional([0.5, 0.5, 0.0]), sig)
    assert val == pytest.approx(0.5, abs=1e-9)


def test_sigma_base_norm_maximizer_is_feasible():
    rng = np.random.default_rng(13)
    s = square()
    for _ in range(30):
        sig_x = rng.uniform(-0.8, 0.8, size=2)
        sig = s.vector([1.0, *sig_x])
        h = s.functional(rng.normal(size=3))
        val, ystar = systems.sigma_base_norm(s, h, sig)
        y = ystar.coords
        assert (s.cone_facets @ (sig.coords + y)).min() >= -1e-8
        assert (s.cone_facets @ (sig.coords - y)).min() >= -1e-8
        assert h.coords @ y == pytest.approx(val, abs=1e-8)
        assert val >= abs(h.coords @ sig.coords) - 1e-9


def test_sigma_norms_are_dual_on_square():
    # <h, y> <= ||h||^sigma * ||y||_sigma with equality at the maximizer
    rng = np.random.default_rng(29)
    s = square()
    sig = s.vector([1.0, 0.2, -0.3])
    for _ in range(20):
        h = s.functional(rng.normal(size=3))
        val, ystar = systems.sigma_base_norm(s, h, sig)
        yn = systems.order_unit_norm(s, ystar, unit=sig)
        assert yn <= 1.0 + 1e-8
        assert val == pytest.approx(h.coords @ ystar.coords, abs=1e-8)


def test_ball_matches_polytopic_twin_sigma_norms():
    rng = np.random.default_rng(41)
    cs, poly = systems.ball(2, "linf"), systems.hypercube(2)
    center_cs = cs.vector([1.0, 0.0, 0.0])
    center_poly = poly.vector([1.0, 0.0, 0.0])
    for _ in range(25):
        y = rng.normal(size=3)
        a = systems.order_unit_norm(cs, cs.vector(y), unit=center_cs)
        b = systems.order_unit_norm(poly, poly.vector(y), unit=center_poly)
        assert a == pytest.approx(b, abs=1e-9)
        h = rng.normal(size=3)
        va, _ = systems.sigma_base_norm(cs, cs.functional(h), center_cs)
        vb, _ = systems.sigma_base_norm(poly, poly.functional(h), center_poly)
        assert va == pytest.approx(vb, abs=1e-9)


def test_sigma_norm_requires_interior_sigma():
    s = square()
    with pytest.raises(NotInterior):
        systems.sigma_base_norm(
            s, s.functional([1.0, 0, 0]), s.vector([1.0, 1.0, 0.0]))


def test_ball_sigma_norms_only_at_center():
    s = systems.ball(2, "l2")
    with pytest.raises(InvalidInput):
        systems.sigma_base_norm(
            s, s.functional([1.0, 0, 0]), s.vector([1.0, 0.5, 0.0]))


# ---------------------------------------------------------------------------
# effects


def _brute_force_effects(system):
    # independent enumeration: intersect tight constraint subsets of
    # 0 <= <f, v_i> <= 1
    V = system.vertices
    n, d = V.shape
    rows = np.concatenate([V, -V], axis=0)
    rhs = np.concatenate([np.ones(n), np.zeros(n)])
    found = []
    for idx in itertools.combinations(range(2 * n), d):
        A = rows[list(idx)]
        if np.linalg.matrix_rank(A, tol=1e-9) < d:
            continue
        f, *_ = np.linalg.lstsq(A, rhs[list(idx)], rcond=None)
        if not np.allclose(A @ f, rhs[list(idx)], atol=1e-9):
            continue
        p = V @ f
        if p.min() >= -1e-9 and p.max() <= 1 + 1e-9:
            if not any(np.allclose(f, g, atol=1e-8) for g in found):
                found.append(f)
    return lex_sorted(np.array(found))


def _effect_rows(system):
    return np.array([f.coords for f in systems.extreme_effects(system)])


def test_extreme_effects_simplex_frozen():
    got = _effect_rows(systems.simplex(2))
    want = lex_sorted(np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]]))
    assert np.allclose(got, want, atol=1e-9)


def test_extreme_effects_square_frozen():
    got = _effect_rows(square())
    want = lex_sorted(np.array([
        [0.0, 0, 0], [1, 0, 0],
        [0.5, 0.5, 0], [0.5, -0.5, 0], [0.5, 0, 0.5], [0.5, 0, -0.5]]))
    assert got.shape == (6, 3)
    assert np.allclose(got, want, atol=1e-9)


def test_extreme_effects_against_brute_force():
    for s in (systems.simplex(3), square(), systems.cross_polytope(2)):
        got = _effect_rows(s)
        want = _brute_force_effects(s)
        assert got.shape == want.shape
        assert np.allclose(got, want, atol=1e-7)


def test_extreme_effects_are_enumerated_once_per_system(monkeypatch):
    calls = []
    enumerate_ = systems.vertices_of_polytope
    monkeypatch.setattr(systems, "vertices_of_polytope",
                        lambda *a: calls.append(1) or enumerate_(*a))
    sq, cube = square(), systems.hypercube(3)
    first = systems.extreme_effects(sq)
    assert isinstance(first, tuple) and len(first) == 6
    assert systems.extreme_effects(sq) is first
    systems.extreme_effects(cube)
    systems.extreme_effects(cube)
    assert len(calls) == 2
    # an equal system built anew enumerates its own
    assert systems.extreme_effects(square()) is not first
    assert len(calls) == 3


def test_is_effect():
    s = square()
    assert systems.is_effect(s, s.functional([0.5, 0.5, 0.0]))
    assert not systems.is_effect(s, s.functional([0.5, 0.6, 0.0]))
    b = systems.ball(3, "l2")
    assert systems.is_effect(b, b.functional([0.5, 0.3, 0.0, 0.4]))
    assert not systems.is_effect(b, b.functional([0.5, 0.4, 0.0, 0.4]))


def test_measurement_validation():
    s = square()
    f = s.functional([0.5, 0.5, 0.0])
    m = systems.dichotomic_measurement(s, f)
    assert len(m.effects) == 2
    with pytest.raises(InvalidInput, match="sum"):
        systems.Measurement(effects=(f, f))
    with pytest.raises(InvalidInput, match="effect"):
        systems.Measurement(
            effects=(s.functional([1.5, 0, 0]), s.functional([-0.5, 0, 0])))


def test_dichotomic_measurement_rejects_non_effect():
    s = square()
    with pytest.raises(InvalidInput):
        systems.dichotomic_measurement(s, s.functional([2.0, 0, 0]))


# ---------------------------------------------------------------------------
# interior checks


def test_assert_interior():
    s = square()
    systems.assert_interior(s, s.vector([1.0, 0.3, -0.2]))
    with pytest.raises(NotInterior):
        systems.assert_interior(s, s.vector([1.0, 1.0, 0.0]))
    b = systems.ball(2, "l2")
    systems.assert_interior(b, b.vector([1.0, 0.5, 0.5]))
    with pytest.raises(NotInterior):
        systems.assert_interior(b, b.vector([1.0, 0.6, 0.8]))


# ---------------------------------------------------------------------------
# symmetries


def test_square_symmetry_group_order():
    mats = systems.symmetries(square())
    assert len(mats) == 8


def test_simplex_symmetry_group_order():
    assert len(systems.symmetries(systems.simplex(2))) == 2
    assert len(systems.symmetries(systems.simplex(3))) == 6


def test_symmetries_fixing_a_point():
    s = square()
    v = s.vector([1.0, 1.0, 1.0])
    mats = systems.symmetries(s, fix=v)
    assert len(mats) == 2
    for m in mats:
        assert np.allclose(m @ v.coords, v.coords, atol=1e-9)


def test_symmetry_group_closure():
    mats = systems.symmetries(square())
    s = square()
    for a in mats:
        for b in mats:
            c = a @ b
            assert systems.is_symmetry(s, c)
            assert any(np.allclose(c, m, atol=1e-8) for m in mats)


def test_is_symmetry_rejects_shear():
    s = square()
    m = np.eye(3)
    m[1, 2] = 0.5
    assert not systems.is_symmetry(s, m)


def test_symmetry_guard(monkeypatch):
    monkeypatch.setenv("GPTSTEER_GUARDS", "symmetry_vertices=3")
    with pytest.raises(GuardExceeded):
        systems.symmetries(square())


# ---------------------------------------------------------------------------
# ball approximations


def test_polygon_approximation_inradius():
    inner, r_in = systems.ball_approximation(2, 16, which="inner")
    outer, r_out = systems.ball_approximation(2, 16, which="outer")
    assert r_in == pytest.approx(np.cos(np.pi / 16), rel=1e-9)
    assert r_out == pytest.approx(r_in, abs=1e-12)
    assert inner.n_vertices == 16
    assert outer.n_vertices == 16
    # outer hull contains the circle: its vertices lie at radius 1/r
    rad = np.linalg.norm(outer.vertices[:, 1:], axis=1)
    assert np.allclose(rad, 1.0 / r_out, atol=1e-9)


def test_sphere_approximation_shape():
    inner, r = systems.ball_approximation(3, 3, which="inner")
    assert inner.n_vertices == 14
    assert r == pytest.approx(0.75, abs=1e-9)
    assert 0 < r <= 1


def test_line_segment_approximation_exact():
    inner, r = systems.ball_approximation(1, 7, which="inner")
    assert r == pytest.approx(1.0, abs=1e-12)
    assert inner.n_vertices == 2


def test_ball_approximation_rejects_high_dim():
    with pytest.raises(InvalidInput):
        systems.ball_approximation(4, 3)


# ---------------------------------------------------------------------------
# vectors, functionals, serialization


def test_vector_arithmetic_and_mismatch():
    s, t = square(), systems.simplex(3)
    v = s.vector([1.0, 0.5, 0.0])
    w = s.vector([0.0, 0.5, 0.5])
    assert np.allclose((v + w).coords, [1, 1, 0.5])
    assert np.allclose((v - w).coords, [1, 0, -0.5])
    assert np.allclose((2.0 * v).coords, [2, 1, 0])
    with pytest.raises(SystemMismatch):
        v + t.vector([0.3, 0.3, 0.4])
    with pytest.raises(SystemMismatch):
        systems.pair(t.functional([1.0, 1, 1]), v)


@pytest.mark.parametrize("tag", ["vector", "functional"])
def test_element_tags_keep_their_types_and_messages(tag):
    s, t = square(), systems.simplex(3)
    make, other = ((s.vector, s.functional) if tag == "vector"
                   else (s.functional, s.vector))
    a, b = make([1.0, 0.5, 0.0]), make([0.0, 0.5, 0.5])
    cls = type(a)
    assert cls.__name__.lower() == tag
    for c in (a + b, a - b, -a, 2.0 * a, a * 2.0):
        assert type(c) is cls and c.system is s
    with pytest.raises(InvalidInput, match=f"^{tag} arithmetic requires another {tag}$"):
        a + other([1.0, 0, 0])
    with pytest.raises(SystemMismatch, match=f"^{tag}s belong to different systems$"):
        a - getattr(t, tag)([0.3, 0.3, 0.4])
    with pytest.raises(InvalidInput, match=f"^{tag} coordinates must have length 3$"):
        make([1.0, 0.0])
    with pytest.raises(InvalidInput, match=f"^{tag} coordinates must be finite$"):
        make([1.0, np.nan, 0.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.coords = b.coords
    check = systems.in_cone if tag == "vector" else systems.is_effect
    with pytest.raises(InvalidInput, match=f"^expected a {cls.__name__}$"):
        check(s, other([1.0, 0, 0]))
    with pytest.raises(SystemMismatch, match=f"^{tag} tagged with a different system$"):
        check(t, a)


def test_pairing():
    s = square()
    f = s.functional([0.5, 0.5, 0.0])
    v = s.vector([1.0, 1.0, -1.0])
    assert systems.pair(f, v) == pytest.approx(1.0, abs=1e-12)
    assert f.pair(v) == pytest.approx(1.0, abs=1e-12)


def test_vector_values_are_frozen():
    v = square().vector([1.0, 0, 0])
    with pytest.raises(ValueError):
        v.coords[0] = 2.0


def test_json_round_trip():
    for s in (square(), systems.simplex(3), systems.ball(3, "l2")):
        payload = systems.system_to_payload(s)
        json.dumps(payload)  # must be serializable
        back = systems.system_from_payload(payload)
        assert back == s


def test_payload_reports_first_violated_invariant():
    with pytest.raises(InvalidInput, match="kind"):
        systems.system_from_payload({"dim": 3})
    with pytest.raises(InvalidInput, match="ball_norm"):
        systems.system_from_payload(
            {"kind": "centrally_symmetric", "dim": 3, "unit": [1, 0, 0],
             "ball_norm": "l7"})
    with pytest.raises(InvalidInput, match="vertices"):
        systems.system_from_payload(
            {"kind": "polytopic", "dim": 2, "unit": [1, 0]})


def test_vertices_of_polytope_wrapper():
    # unit box via inequalities only
    A = np.concatenate([np.eye(2), -np.eye(2)], axis=0)
    b = np.ones(4)
    got = vertices_of_polytope(A, b)
    want = lex_sorted(np.array([[-1.0, -1], [-1, 1], [1, -1], [1, 1]]))
    assert np.allclose(got, want, atol=1e-9)


def test_facets_of_cone_wrapper():
    V = np.array([[1.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])
    got = facets_of_cone(V)
    assert got.shape == (4, 3)
    assert (got @ V.T).min() >= -1e-9


# ---------------------------------------------------------------------------
# dual description against Qhull (scipy)


def _distinct(rows, tol=1e-7):
    kept = []
    for r in rows:
        if all(np.abs(r - k).max() > tol for k in kept):
            kept.append(r)
    return np.array(kept)


def _assert_same_rows(got, want, tol=1e-7):
    want = _distinct(want, tol)
    assert got.shape == want.shape
    gap = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2)
    assert gap.min(axis=1).max() <= tol
    assert gap.min(axis=0).max() <= tol


def _qhull_vertices(A, b):
    spatial = pytest.importorskip("scipy.spatial")
    hs = spatial.HalfspaceIntersection(
        np.concatenate([A, -b[:, None]], axis=1), np.zeros(A.shape[1]))
    return hs.intersections


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_vertices_of_polytope_matches_qhull(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(3):
        # random cuts plus a box, so the polytope is bounded around 0
        A = np.concatenate([rng.normal(size=(d + 6, d)), np.eye(d), -np.eye(d)])
        b = np.concatenate([rng.uniform(0.5, 1.5, size=d + 6), np.full(2 * d, 2.0)])
        _assert_same_rows(vertices_of_polytope(A, b), _qhull_vertices(A, b))


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_facets_of_cone_matches_qhull(d):
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(200 + d)
    for _ in range(3):
        pts = rng.normal(size=(d + 4, d - 1))   # cross-section at x_0 = 1
        V = np.concatenate([np.ones((d + 4, 1)), pts], axis=1)
        eq = spatial.ConvexHull(pts).equations   # n.p + off <= 0 inside
        want = -np.concatenate([eq[:, -1:], eq[:, :-1]], axis=1)
        want /= np.linalg.norm(want, axis=1)[:, None]
        _assert_same_rows(facets_of_cone(V), want)


@pytest.mark.parametrize("factory", [systems.hypercube, systems.cross_polytope])
def test_degenerate_sigma_intervals_match_qhull(factory):
    # many singular subsets and many subsets per vertex
    s = factory(3)
    sigma = s.vector([1.0, 0.1, -0.2, 0.05])
    F = s.cone_facets
    A = np.concatenate([F, -F])
    b = np.concatenate([F @ sigma.coords] * 2)
    _assert_same_rows(sigma_interval_vertices(s, sigma), _qhull_vertices(A, b))


def test_repeated_half_space_changes_nothing():
    A = np.concatenate([np.eye(2), -np.eye(2)])
    b = np.ones(4)
    once = vertices_of_polytope(A, b)
    twice = vertices_of_polytope(np.concatenate([A, A[:1]]), np.append(b, 1.0))
    assert once.tobytes() == twice.tobytes()
    _assert_same_rows(once, _qhull_vertices(A, b))


def test_too_few_or_infeasible_half_spaces_give_no_vertices():
    assert vertices_of_polytope(np.array([[1.0, 2.0]]), np.ones(1)).shape == (0, 2)
    A = np.concatenate([np.eye(2), -np.eye(2)])
    got = vertices_of_polytope(A, np.array([-1.0, 1, -1, 1]))   # x<=-1, x>=1
    assert got.shape == (0, 2)


# ---------------------------------------------------------------------------
# extremality from the facets against one LP per point


def _lp_keep(P):
    """Mask of the points a per-point LP keeps: first copies (within 1e-12)
    that are not convex combinations of the other distinct points."""
    first = [j for j in range(P.shape[0])
             if not any(np.max(np.abs(P[j] - P[i])) <= 1e-12 for i in range(j))]
    U = P[first]
    keep = np.zeros(P.shape[0], dtype=bool)
    for pos, j in enumerate(first):
        others = np.delete(U, pos, axis=0)
        if others.shape[0] == 0:
            keep[j] = True
            continue
        prob = lp.LpProblem(
            np.zeros(others.shape[0]),
            eq_rows=np.vstack([others.T, np.ones((1, others.shape[0]))]),
            eq_rhs=np.concatenate([U[pos], [1.0]]),
        )
        keep[j] = lp.feasibility(prob).status != "optimal"
    return keep


@st.composite
def lifted_clouds(draw):
    """Spanning lifted point clouds in R^d, d = 2..5, with repeated points,
    midpoints and centroids (on edges, on facets or inside) mixed in."""
    d = draw(st.integers(2, 5))
    coord = st.integers(-4, 4).map(lambda k: k / 4.0)
    n = draw(st.integers(d, 8))
    base = np.array([[draw(coord) for _ in range(d - 1)] for _ in range(n)])
    rows = list(base)
    for kind in draw(st.lists(st.sampled_from(["repeat", "average"]),
                              max_size=4)):
        if kind == "repeat":
            rows.append(rows[draw(st.integers(0, len(rows) - 1))].copy())
        else:
            idx = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                max_size=d, unique=True))
            rows.append(base[idx].mean(axis=0))
    order = draw(st.permutations(range(len(rows))))
    P = np.column_stack([np.ones(len(rows)), np.array(rows)[order]])
    assume(np.linalg.matrix_rank(P) == d)
    return P


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lifted_clouds())
def test_facet_extremality_matches_the_per_point_lp(P):
    keep = _lp_keep(P)
    got = systems.extreme_rows(P, facets_of_cone(P))
    assert np.array_equal(got, keep)
    hull = systems.polytopic_hull(P)
    assert hull.vertices.tobytes() == P[keep].tobytes()
    assert hull.cone_facets.tobytes() == systems.polytopic(
        P[keep]).cone_facets.tobytes()
    assert hull.unit.tobytes() == systems.polytopic(P[keep]).unit.tobytes()
    if keep.all():
        assert systems.polytopic(P).vertices.tobytes() == P.tobytes()
    else:
        with pytest.raises(InvalidInput, match="not an extreme point"):
            systems.polytopic(P)


def test_hull_hands_its_facets_to_the_system_when_nothing_is_pruned(
        monkeypatch):
    calls = []
    enumerate_ = systems.facets_of_cone
    monkeypatch.setattr(systems, "facets_of_cone",
                        lambda V: calls.append(V.shape[0]) or enumerate_(V))
    cube = systems.hypercube(3).vertices.copy()
    calls.clear()
    hull = systems.polytopic_hull(cube)
    assert calls == [8]
    assert hull.cone_facets.tobytes() == systems.polytopic(cube).cone_facets.tobytes()
    # the system keeps frozen copies; the caller's array stays its own
    assert not hull.cone_facets.flags.writeable
    assert not hull.vertices.flags.writeable and cube.flags.writeable
    # a pruned hull enumerates again on the kept rows
    calls.clear()
    pruned = systems.polytopic_hull(np.vstack([cube, cube.mean(axis=0)]))
    assert calls == [9, 8]
    assert pruned.cone_facets.tobytes() == hull.cone_facets.tobytes()
    # the hull's own checks still run on a kept set
    with pytest.raises(InvalidInput, match="unit must pair to 1"):
        systems.polytopic_hull(cube, unit=np.array([2.0, 0, 0, 0]))


def test_hull_input_count_is_guarded(monkeypatch):
    monkeypatch.setenv("GPTSTEER_GUARDS", "vertices=5")
    pts = np.array([[1.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1],
                    [1, 0, 0], [1, 0.5, 0]])
    with pytest.raises(GuardExceeded):
        systems.polytopic_hull(pts)
    assert systems.polytopic_hull(pts[:5]).n_vertices == 4


def test_construction_solves_no_lp(lp_solves):
    sq = systems.hypercube(2)
    systems.cross_polytope(3)
    systems.ball_approximation(3, 3)
    systems.polytopic_hull(np.array(
        [[1.0, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1], [1, 0, 0],
         [1, 1, 1], [1, 1, 0]]))
    assert lp_solves == []
    # cone membership keeps its LP, which also supplies the coefficients
    assert systems.cone_member(sq, sq.barycenter).member
    assert len(lp_solves) == 1


def test_system_equals_itself_without_comparing_vertices(monkeypatch):
    s = systems.hypercube(2)
    monkeypatch.setattr(systems, "lex_sorted", None)
    assert s == s
    assert (s.vector([1.0, 0, 0]) + s.vector([0.0, 1, 0])).system is s


def test_in_cone_solves_no_lp(lp_solves):
    sq = systems.hypercube(2)
    assert systems.in_cone(sq, sq.vector([1.0, 1.0, 1.0]))       # vertex
    assert systems.in_cone(sq, sq.vector([1.0, 0.3, -1.0]))      # edge
    assert systems.in_cone(sq, sq.vector([0.0, 0.0, 0.0]))       # apex
    assert not systems.in_cone(sq, sq.vector([1.0, 1.0 + 1e-6, 0.0]))
    assert not systems.in_cone(sq, sq.vector([-1.0, 0.0, 0.0]))
    points = ([1.0, 0.6, 0.0, 0.4], [1.0, 0.6, 0.6, 0.6],
              [1.0, 1.0, 0.0, 0.0], [2.0, 0.0, -2.0 - 1e-6, 0.0])
    for norm, expected in (("l1", [True, False, True, False]),
                           ("l2", [True, False, True, False]),
                           ("linf", [True, True, True, False])):
        b = systems.ball(3, norm)
        assert [systems.in_cone(b, b.vector(v)) for v in points] == expected
    assert lp_solves == []
    with pytest.raises(SystemMismatch):
        systems.in_cone(sq, systems.simplex(3).vector([1.0, 0, 0]))


def faces_by_dimension(V, F):
    """{k: [vertex indices of each k-face]} for k = 0 .. dim - 2: the
    facets' vertex sets closed under intersection."""
    tight = np.abs(V @ F.T) <= 1e-9
    facets = {frozenset(np.flatnonzero(tight[:, k]).tolist())
              for k in range(F.shape[0])}
    found, frontier = set(facets), set(facets)
    while frontier:
        frontier = {a & b for a in frontier for b in facets} - found - {
            frozenset()}
        found |= frontier
    out = {}
    for face in sorted(found, key=sorted):
        rows = sorted(face)
        out.setdefault(np.linalg.matrix_rank(V[rows]) - 1, []).append(rows)
    return out


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(["cube", "octahedron", "hull"]))
def test_in_cone_matches_cone_member_off_faces(seed, shape):
    # a point inside a random face of each dimension, pushed off it by
    # delta in a random direction; outside the COINCIDENCE band of the
    # facet margin the facet rule and the LP agree wherever the LP ends
    # with a verdict
    rng = np.random.default_rng(seed)
    base = {"cube": lambda: systems.hypercube(3),
            "octahedron": lambda: systems.cross_polytope(3),
            "hull": lambda: sampling.random_polytopic_system(
                rng, dim=int(rng.integers(3, 6)))}[shape]()
    s = changed_coordinates(rng, base)
    V, F = s.vertices, s.cone_facets
    faces = faces_by_dimension(V, F)
    assert sorted(faces) == list(range(s.dim - 1))
    for k, listed in faces.items():
        face = listed[int(rng.integers(len(listed)))]
        on_face = V[face].T @ rng.dirichlet(np.ones(len(face)))
        for delta in (1e-12, 1e-9, 1e-6):
            u = rng.standard_normal(s.dim)
            v = s.vector(on_face + delta * u / np.linalg.norm(u))
            vals = F @ v.coords
            margin = float(np.min(vals))
            band = COINCIDENCE * (1.0 + float(np.max(np.abs(vals))))
            fast = systems.in_cone(s, v)
            assert fast == (margin >= -band)
            try:
                reference = systems.cone_member(s, v).member
            except NumericalFailure:
                continue
            if abs(margin) > band:
                assert fast == reference, (k, delta, margin)
