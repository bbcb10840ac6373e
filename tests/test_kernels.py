"""Kernels against scalar references, compared byte for byte.

The reference functions below are the scalar algorithm the batched kernels
must reproduce operation for operation: lexicographic subsets, first-maximum
partial pivoting, the same singularity tests, sums taken one column at a time
and greedy first-found de-duplication.  Further down, the scalar simplex
phase, artificial drive-out and symmetry search are the references for the
shared-pivot simplex kernel and the numpy symmetry search, and the scalar
vertex matcher is the reference for `systems.is_symmetry`.  Results are
compared byte for byte, with one exception: the references leave a row
whose multiplier is exactly 0 untouched and the kernels subtract a signed
zero from it, so a simplex tableau, and the effect-interval and edge-case
vertices found by another elimination order (the full scan, the scalar
reference), are compared up to the signs of zeros (`_same_values`).  Where a reference reports
overflow at a cap, the kernel, run with that cap, must raise
GuardExceeded.  `full_scan_vertices` keeps the vertex kernel as it was
before rows were grouped into +- pairs (every d-subset of rows eliminated
on its own): the grouped kernel must give its values, and the scalar
reference's, on what the library asks of it (a `norms` benchmark cycle,
sigma intervals with exact pivot ties, effect intervals, the rows of
`unsteerable_sufficient`, one per half-space) and on inputs with zero
vertex coordinates, rows that have no partner or repeated rows (among
them a sigma interval stacked twice, every half-space repeated).  The
list-based pricing rule is also compared on its own, and an artificial
block filled with NaN shows that a float phase two reads none of the
columns its pivots skip.
"""

import collections
import itertools
import sys
from fractions import Fraction
from pathlib import Path

import lp_cases
import numpy as np
import pytest

from gptsteer import bipartite, geometry, kernels, lp, systems, tensors
from gptsteer.errors import GuardExceeded, NumericalFailure
from gptsteer.kernels import (AT_LOWER, BASIC, PHASE_ITER_LIMIT,
                              PHASE_OPTIMAL, PHASE_UNBOUNDED)
from gptsteer.tolerances import ARTIFICIAL_PIVOT, COINCIDENCE

TOLS = (COINCIDENCE,) * 3   # dedupe, feasibility, singularity


# ---------------------------------------------------------------------------
# scalar reference


def _ref_eliminate(M, tol, rhs):
    """Upper-triangularize M (and rhs) in place; None when a pivot <= tol."""
    d = M.shape[0]
    det = 1.0
    for k in range(d):
        p = max(range(k, d), key=lambda i: abs(M[i, k]))   # first maximum
        if abs(M[p, k]) <= tol:
            return None
        if p != k:
            M[[k, p]] = M[[p, k]]
            rhs[[k, p]] = rhs[[p, k]]
            det = -det
        det = det * M[k, k]
        for i in range(k + 1, d):
            f = M[i, k] / M[k, k]
            if f != 0:
                M[i, k:] = M[i, k:] - f * M[k, k:]
                rhs[i] = rhs[i] - f * rhs[k]
    return det


def _ref_solve(M, rhs, tol):
    M, rhs = M.copy(), rhs.copy()
    if _ref_eliminate(M, tol, rhs) is None:
        return None
    d = rhs.shape[0]
    x = np.empty(d)
    for k in range(d - 1, -1, -1):
        s = rhs[k]
        for j in range(k + 1, d):
            s = s - M[k, j] * x[j]
        x[k] = s / M[k, k]
    return x


def _ref_det(M):
    det = _ref_eliminate(M.copy(), 0.0, np.zeros(M.shape[0]))
    return 0.0 if det is None else det


def _ref_append(out, row, tol, cap):
    """Greedy insertion; returns True on overflow."""
    if any(not (np.abs(v - row) > tol).any() for v in out):
        return False
    if len(out) >= cap:
        return True
    out.append(row)
    return False


def ref_vertices(A, b, dedupe_tol, feas_tol, sing_tol, cap):
    m, d = A.shape
    out = []
    for rows in itertools.combinations(range(m), d):
        x = _ref_solve(A[list(rows)], b[list(rows)], sing_tol)
        if x is None:
            continue
        feasible = True
        for i in range(m):
            s = -b[i]
            for c in range(d):
                s = s + A[i, c] * x[c]
            feasible = feasible and not s > feas_tol
        if feasible and _ref_append(out, x, dedupe_tol, cap):
            return np.array(out).reshape(-1, d), 1
    return np.array(out).reshape(-1, d), 0


def full_scan_vertices(A, b):
    """Vertices by eliminating every d-subset of rows on its own, chunk by
    chunk in lexicographic order, each chunk de-duplicated as it comes: the
    kernel before rows were grouped into +- pairs, the reference that
    `kernels.enum_polytope_vertices` must match in value (up to the signs
    of zeros)."""
    m, d = A.shape
    out = np.empty((0, d))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for rows in kernels._subset_chunks(m, d, kernels.CHUNK):
            _, x = kernels._row_subset_vertices(A, b, rows)
            out = kernels._append_distinct(out, x, "vertex")
    return out


def ref_facets(V, dedupe_tol, feas_tol, sing_tol, cap):
    n, d = V.shape
    out = []
    for rows in itertools.combinations(range(n), d - 1):
        sub = V[list(rows)]
        normal = np.empty(d)
        for c in range(d):
            det = _ref_det(np.delete(sub, c, axis=1))
            normal[c] = det if c % 2 == 0 else -det
        nrm = 0.0
        for c in range(d):
            nrm = nrm + normal[c] * normal[c]
        nrm = np.sqrt(nrm)
        if not nrm > sing_tol:
            continue
        normal = normal / nrm
        sides = []
        for i in range(n):
            s = 0.0
            for c in range(d):
                s = s + V[i, c] * normal[c]
            sides.append(s)
        pos = not any(s < -feas_tol for s in sides)
        neg = not any(s > feas_tol for s in sides)
        if not (pos or neg):
            continue
        if neg and not pos:
            normal = -normal
        if _ref_append(out, normal, dedupe_tol, cap):
            return np.array(out).reshape(-1, d), 1
    return np.array(out).reshape(-1, d), 0


# ---------------------------------------------------------------------------
# inputs


def _unit_rows(A, b=None):
    scale = np.linalg.norm(A, axis=1)
    if b is None:
        return A / scale[:, None]
    return A / scale[:, None], b / scale


def _box(d, copies=1):
    A = np.concatenate([np.eye(d), -np.eye(d)] * copies)
    return A, np.ones(2 * d * copies)


def _vertex_cases():
    rng = np.random.default_rng(7)
    for d in range(1, 5):
        for m in (d, d + 2, 2 * d + 3):
            A, b = _unit_rows(rng.normal(size=(m, d)),
                              rng.uniform(0.2, 1.5, size=m))
            yield A, b
            yield A, -b                     # usually infeasible
        yield _box(d)
        yield _box(d, copies=2)             # every vertex hit many times
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=d)))
        yield _unit_rows(signs, np.ones(len(signs)))   # cross-polytope
    yield _unit_rows(np.array([[1.0, 2.0]]), np.ones(1))   # m < d


def _cone_cases():
    rng = np.random.default_rng(11)
    for d in range(2, 6):
        for system in (systems.hypercube(d - 1), systems.cross_polytope(d - 1)):
            yield _unit_rows(system.vertices)
        pts = rng.normal(size=(d + 3, d - 1))
        yield _unit_rows(np.concatenate([np.ones((d + 3, 1)), pts], axis=1))


def _same(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_values(got, want):
    """`_same` up to the signs of zeros, which no kernel promises."""
    _same(got + 0.0, want + 0.0)


def _matches_reference(run, want, monkeypatch):
    """run() at the patched kernels.ROW_CAP against a reference's (rows,
    overflow flag) at that cap: the same bytes or, where the reference
    overflowed, GuardExceeded, and uncapped, more rows that begin with the
    reference's.  Returns the flag."""
    rows, overflow = want
    if not overflow:
        _same(run(), rows)
        return overflow
    with pytest.raises(GuardExceeded):
        run()
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "ROW_CAP", 4096)
        got = run()
    assert got.shape[0] > rows.shape[0]
    _same(got[:rows.shape[0]], rows)
    return overflow


# ---------------------------------------------------------------------------
# batched kernels


@pytest.mark.parametrize("cap", [4096, 3])
def test_vertices_match_scalar_reference_bytewise(cap, monkeypatch):
    cases = list(_vertex_cases())
    monkeypatch.setattr(kernels, "ROW_CAP", cap)
    flags = [_matches_reference(lambda: kernels.enum_polytope_vertices(A, b),
                                ref_vertices(A, b, *TOLS, cap), monkeypatch)
             for A, b in cases]
    assert any(flags) == (cap == 3) and not all(flags)


@pytest.mark.parametrize("cap", [4096, 3])
def test_facets_match_scalar_reference_bytewise(cap, monkeypatch):
    cases = list(_cone_cases())   # built before the cap is lowered
    monkeypatch.setattr(kernels, "ROW_CAP", cap)
    flags = [_matches_reference(lambda: kernels.enum_cone_facets(V),
                                ref_facets(V, *TOLS, cap), monkeypatch)
             for V in cases]
    assert any(flags) == (cap == 3) and not all(flags)


ROOT = Path(__file__).resolve().parents[1]


def _vertex_inputs(run):
    """(A, b) of every enumeration run() asks of geometry, as the kernel
    receives them (rows normalized)."""
    seen = []
    enum = geometry.enum_polytope_vertices

    def capture(A, b):
        seen.append((A.copy(), b.copy()))
        return enum(A, b)

    geometry.enum_polytope_vertices = capture
    try:
        run()
    finally:
        geometry.enum_polytope_vertices = enum
    return seen


def _norms_cycle(seed):
    """One cycle of the `norms` benchmark workload."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import workloads
    for case in workloads.norms(seed, workloads.NORMS_CATALOG):
        for _, ask in case.questions:
            ask()


def _sigma_intervals():
    for system in (systems.hypercube(2), systems.hypercube(3),
                   systems.cross_polytope(3), systems.regular_polygon(5)):
        centre = system.vector(system.vertices.mean(axis=0))
        off = system.vector(system.vertices.mean(axis=0)
                            + 0.1 * (system.vertices[0] - system.vertices[1]))
        for sigma in (centre, off):
            tensors.sigma_interval_vertices(system, sigma)


def _effect_intervals(large):
    names = (["hypercube4"] if large else
             ["hypercube2", "hypercube3", "cross3", "cross4", "simplex3"]
             + [f"polygon{n}" for n in range(3, 7)])
    build = {"hypercube2": lambda: systems.hypercube(2),
             "hypercube3": lambda: systems.hypercube(3),
             "hypercube4": lambda: systems.hypercube(4),
             "cross3": lambda: systems.cross_polytope(3),
             "cross4": lambda: systems.cross_polytope(4),
             "simplex3": lambda: systems.simplex(3)}
    for name in names:
        system = (systems.regular_polygon(int(name[7:]))
                  if name.startswith("polygon") else build[name]())
        systems.extreme_effects(system)


def _unsteerable_rows():
    sq = systems.hypercube(2)
    t = tensors.DichotomicTensor(
        sigma=sq.vector((1.0, 0.0, 0.0)),
        components=(sq.vector((0.0, 1.0, 1.0)), sq.vector((0.0, 1.0, -1.0))))
    diagonal = bipartite.BipartiteState(tensors.embed_dichotomic(t))
    product = bipartite.product_state(sq.vector((1.0, 0.4, -0.1)),
                                      sq.vector((1.0, 0.2, 0.1)))
    for state, s in ((diagonal, 0.5), (diagonal, 1.0), (product, 0.3)):
        bipartite.unsteerable_sufficient(state, s)


def _zero_face(rng, d):
    """x_0 <= 0 and x_0 >= -1 cut by d + 1 random +- pairs: the vertices
    on the face x_0 = 0 have an exact zero coordinate and no pivot ties."""
    G = _unit_rows(rng.normal(size=(d + 1, d)))
    e = np.eye(d)[:1]
    A = np.vstack([e, -e, G, -G])
    return A, np.concatenate([[0.0, 1.0], rng.uniform(0.5, 1.5, 2 * d + 2)])


def _edge_cases():
    """Zero vertex coordinates, rows without a partner, duplicated rows
    and pairs, partners whose b differ, and intervals and triangles."""
    rng = np.random.default_rng(17)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
    yield _unit_rows(signs, np.ones(8))        # vertices +-e_i: zeros
    for d in (2, 3, 4):
        yield _zero_face(rng, d)
    yield np.array([[1.0], [-1.0]]), np.array([2.0, 2.0])
    yield np.array([[1.0], [-1.0], [1.0]]), np.array([2.0, 1.0, 0.5])
    yield _unit_rows(rng.normal(size=(3, 2)) + [3.0, 0.0], -np.ones(3))
    box, ones = _box(3)
    yield box, np.array([1.0, 2.0, 0.5, 1.0, 0.0, 2.0])   # paired, b differ
    yield np.vstack([box, [[1.0, 0.0, 0.0]]]), np.append(ones, 0.5)
    for d in (2, 3, 4):
        G = rng.normal(size=(d + 2, d))
        A, b = _unit_rows(np.vstack([G, -G[:3], G[:1]]),
                          rng.uniform(0.2, 1.5, size=d + 6))
        yield A, b                              # some rows unpaired
        yield A[::-1].copy(), b[::-1].copy()    # partners before rows
    # the square's sigma interval at its center twice over, and +-sigma
    Y = np.array([[0.0, 1, 1], [0, 1, -1], [0, -1, 1], [0, -1, -1]])
    yield (np.vstack([Y, -Y, Y, -Y, [[1.0, 0, 0], [-1, 0, 0]]]),
           np.concatenate([np.full(16, 2.0), np.ones(2)]))


def _family(name):
    if name.startswith("norms"):
        return _vertex_inputs(lambda: _norms_cycle(int(name[5:])))
    run = {"sigma intervals": _sigma_intervals,
           "effect intervals": lambda: _effect_intervals(False),
           "unsteerable rows": _unsteerable_rows}.get(name)
    return _vertex_inputs(run) if run else list(_edge_cases())


@pytest.fixture
def recomputed(monkeypatch):
    """Rows handed to the one-subset-at-a-time path, by reason."""
    seen = collections.Counter()
    unit = kernels._unit_subset_vertices
    solve = kernels._row_subset_vertices

    def counting_unit(A, b, units, rhs, idx, signs, mirror):
        seen["unit subsets"] += idx.shape[0]
        seen["mirrored"] += idx.shape[0] * mirror
        return unit(A, b, units, rhs, idx, signs, mirror)

    def counting_solve(A, b, rows):
        seen["recomputed"] += rows.shape[0]
        return solve(A, b, rows)

    monkeypatch.setattr(kernels, "_unit_subset_vertices", counting_unit)
    monkeypatch.setattr(kernels, "_row_subset_vertices", counting_solve)
    return seen


@pytest.mark.parametrize("family", ["norms0", "norms1", "norms2",
                                    "sigma intervals", "effect intervals",
                                    "unsteerable rows", "edge cases"])
def test_paired_vertices_match_full_scan_and_scalar_reference(family,
                                                              recomputed):
    cases = _family(family)
    got = [kernels.enum_polytope_vertices(A, b) for A, b in cases]
    assert got and recomputed["unit subsets"] and recomputed["recomputed"]
    assert bool(recomputed["mirrored"]) == (family != "effect intervals")
    # Only these two families have a vertex whose zero coordinate another
    # elimination order signs differently; the rest stay byte for byte.
    same = (_same_values if family in ("effect intervals", "edge cases")
            else _same)
    for (A, b), rows in zip(cases, got):
        same(rows, full_scan_vertices(A, b))
        same(rows, ref_vertices(A, b, *TOLS, kernels.ROW_CAP)[0])


def test_hypercube4_effects_match_full_scan(monkeypatch):
    # C(32, 5) subsets: the scalar reference would take about 10 s, so the
    # full scan, itself held to the scalar reference above, stands in.
    (A, b), = _vertex_inputs(lambda: _effect_intervals(True))
    # 30080 feasible solutions for 10 vertices: the ones that must wait for
    # later chunks stay within two chunks, and a few dozen once repeats go.
    waiting = []
    first_copies = kernels._first_copies

    def recording(rows, x):
        kept = first_copies(rows, x)
        waiting.append((x.shape[0], kept[1].shape[0]))
        return kept

    monkeypatch.setattr(kernels, "_first_copies", recording)
    _same(kernels.enum_polytope_vertices(A, b), full_scan_vertices(A, b))
    assert len(waiting) > 10
    assert max(w for w, _ in waiting) <= 2 * kernels.CHUNK
    assert max(k for _, k in waiting) < kernels.CHUNK // 4


def test_recompute_rules_fire(recomputed):
    # A random interval has no pivot tie.
    rng = np.random.default_rng(3)
    F = _unit_rows(rng.normal(size=(6, 3)))
    kernels.enum_polytope_vertices(np.vstack([F, -F]), np.ones(12))
    assert recomputed == {"unit subsets": 20, "mirrored": 20}
    # The octahedron's interval ties a pivot in each of its unit subsets,
    # so all 16 patterns of every subset are solved again.
    recomputed.clear()
    octahedron = systems.cross_polytope(3)
    tensors.sigma_interval_vertices(
        octahedron, octahedron.vector((1.0, 0.0, 0.0, 0.0)))
    assert recomputed["recomputed"] == 16 * recomputed["unit subsets"] == 1120
    # Without ties nothing is solved again, not even the vertices on the
    # face x_0 = 0, whose zero coordinate may carry either sign.
    recomputed.clear()
    A, b = _zero_face(rng, 3)
    got = kernels.enum_polytope_vertices(A, b)
    assert recomputed["recomputed"] == 0 < recomputed["unit subsets"]
    assert (got[:, 0] == 0).any() and (got[:, 0] != 0).any()


def test_pair_units_match_bit_for_bit():
    A = np.array([[1.0, 0.0], [-1.0, -0.0], [-1.0, 0.0], [1.0, 0.0],
                  [2.0, 1.0], [-2.0, -1.0], [-2.0, -1.0], [2.0, 1.0]])
    # Row 1 is row 0 negated, -0.0 included.  Rows 2 and 3 differ from
    # each other's negation in the sign of a zero, so neither has a
    # partner.  Row 4 takes row 5, the first later negation, and row 6,
    # row 5's equal, is left to pair with row 7.
    units = kernels._pair_units(A)
    assert units.tolist() == [[0, 1], [2, -1], [3, -1], [4, 5], [6, 7]]
    assert kernels._pair_units(A[[0, 2, 4]]).tolist() == [[0, -1], [1, -1],
                                                          [2, -1]]


@pytest.mark.parametrize("chunk", [1, 7, 1819])
def test_paired_vertices_do_not_depend_on_chunk_size(chunk, monkeypatch):
    cases = (_family("norms0")[::7] + _family("sigma intervals")
             + list(_edge_cases()))
    want = [kernels.enum_polytope_vertices(A, b) for A, b in cases]
    monkeypatch.setattr(kernels, "CHUNK", chunk)
    for (A, b), rows in zip(cases, want):
        _same(kernels.enum_polytope_vertices(A, b), rows)
        _same_values(full_scan_vertices(A, b), rows)


def test_paired_vertices_overflow_where_the_full_scan_does(monkeypatch):
    cases = _family("sigma intervals") + list(_edge_cases())
    monkeypatch.setattr(kernels, "ROW_CAP", 3)
    flags = [_matches_reference(lambda: kernels.enum_polytope_vertices(A, b),
                                ref_vertices(A, b, *TOLS, 3), monkeypatch)
             for A, b in cases]
    assert any(flags) and not all(flags)


def test_vertex_hit_in_several_chunks_comes_out_once(monkeypatch):
    # m = 16, d = 4: 1820 subsets, four chunks; each vertex of the 4-cube is
    # the solution of 16 subsets spread over those chunks.
    A, b = _box(4, copies=2)
    got = kernels.enum_polytope_vertices(A, b)
    assert got.shape == (16, 4)
    # first-found order: the same rows, in the same order, as the single box
    _same(got, kernels.enum_polytope_vertices(*_box(4)))
    for chunk in (1, 7, 1819):
        monkeypatch.setattr(kernels, "CHUNK", chunk)
        _same(kernels.enum_polytope_vertices(A, b), got)


def test_facet_output_does_not_depend_on_chunk_size(monkeypatch):
    V = _unit_rows(systems.hypercube(4).vertices)   # C(16, 4) = 1820 subsets
    got = kernels.enum_cone_facets(V)
    assert got.shape == (8, 5)
    for chunk in (1, 5):
        monkeypatch.setattr(kernels, "CHUNK", chunk)
        _same(kernels.enum_cone_facets(V), got)


@pytest.mark.parametrize("cap", [40, 7])
def test_greedy_dedupe_on_chains_of_near_duplicates(cap, monkeypatch):
    # Points 0.6 tol apart along a line: closeness is not transitive, so
    # which points survive depends on insertion order.
    monkeypatch.setattr(kernels, "ROW_CAP", cap)
    rng = np.random.default_rng(5)
    tol = COINCIDENCE
    flags = []
    for _ in range(20):
        cand = np.round(rng.uniform(0, 12, size=(30, 2))) * 0.6 * tol
        prior = cand[rng.choice(30, size=3)] + 0.3 * tol
        want = [row for row in prior]
        overflow = False
        for row in cand:
            overflow = _ref_append(want, row, tol, cap)
            if overflow:
                break
        flags.append(_matches_reference(
            lambda: kernels._append_distinct(prior, cand, "test"),
            (np.array(want), overflow), monkeypatch))
    assert flags == [cap == 7] * 20


def test_cap_overflow_flag_on_the_cube(monkeypatch):
    # 8 vertices and 6 facets: a cap of exactly that many rows holds them,
    # one row fewer raises, naming the enumeration.
    A, b = _box(3)
    V = _unit_rows(systems.hypercube(3).vertices)   # built at the full cap
    monkeypatch.setattr(kernels, "ROW_CAP", 8)
    assert kernels.enum_polytope_vertices(A, b).shape == (8, 3)
    monkeypatch.setattr(kernels, "ROW_CAP", 7)
    with pytest.raises(GuardExceeded, match="^vertex enumeration exceeded 7 rows$"):
        kernels.enum_polytope_vertices(A, b)
    monkeypatch.setattr(kernels, "ROW_CAP", 6)
    assert kernels.enum_cone_facets(V).shape == (6, 4)
    monkeypatch.setattr(kernels, "ROW_CAP", 5)
    with pytest.raises(GuardExceeded, match="^facet enumeration exceeded 5 rows$"):
        kernels.enum_cone_facets(V)


def test_row_cap_raises_guard_exceeded(monkeypatch):
    monkeypatch.setattr(kernels, "ROW_CAP", 3)
    with pytest.raises(GuardExceeded, match="vertex enumeration exceeded 3"):
        geometry.vertices_of_polytope(*_box(3))
    with pytest.raises(GuardExceeded, match="facet enumeration exceeded 3"):
        geometry.facets_of_cone(systems.hypercube(3).vertices)


# ---------------------------------------------------------------------------
# scalar simplex and symmetry search reference
#
# The simplex kernel shares one pivot, one pricing rule and one ratio pass;
# the functions below are the scalar loops it replaced, kept to show that
# every pivot path, and so every outcome byte, is unchanged.  EVENTS counts
# the reference's ratio-band decisions (a larger pivot or a lower basis
# index taking over) and the steps a basic artificial fixed at 0 blocks on
# a negative entry, so the cases are seen to reach them.

EVENTS = collections.Counter()


def ref_simplex_phase(T, basis, vstat, m, N, cost_row, n_elig, tol,
                      max_iter, width=None):
    """Scalar simplex phase: Bland pricing, a first ratio scan for the
    minimum, a second for the largest pivot in its band, and per-row
    elimination.  In phase two (cost_row m) a basic artificial (a column
    at or past n_elig) is fixed at 0.  `width` is ignored: full-width
    pivots give the same outcome bytes, as the kernel's narrow ones must."""
    a_block = tol * 100

    def ratio_of(i, a):
        """Row i's step, or None when it does not block."""
        if a > a_block:
            ratio = T[i, N] / a
        elif a < -a_block and cost_row == m and basis[i] >= n_elig:
            ratio = (0 - T[i, N]) / (0 - a)
        else:
            return None
        return ratio * 0 if ratio < 0 else ratio  # keeps the scalar type

    it = 0
    while it < max_iter:
        it += 1
        enter = -1
        for j in range(n_elig):
            if vstat[j] == AT_LOWER and T[cost_row, j] < -tol:
                enter = j
                break
        if enter == -1:
            return PHASE_OPTIMAL

        # Ratio test, first pass: smallest step t >= 0 keeping every basic
        # variable inside its bounds.
        t_best = np.inf
        leave_row = -1
        for i in range(m):
            ratio = ratio_of(i, T[i, enter])
            if ratio is not None and ratio < t_best:
                t_best = ratio
                leave_row = i
        if leave_row == -1:
            return PHASE_UNBOUNDED

        # Second pass: the largest pivot whose ratio is within a relative
        # band of the minimum (the band is zero in exact mode).
        cutoff = t_best + tol * (1 + t_best)
        best_a = T[leave_row, enter]
        for i in range(m):
            a = T[i, enter]
            ratio = ratio_of(i, a)
            if ratio is not None and ratio <= cutoff:
                aa = a if a > 0 else 0 - a
                bb = best_a if best_a > 0 else 0 - best_a
                if aa > bb or (aa == bb and basis[i] < basis[leave_row]):
                    EVENTS["band" if aa > bb else "basis tie"] += 1
                    leave_row = i
                    best_a = a
        t = ratio_of(leave_row, T[leave_row, enter])
        if T[leave_row, enter] < 0:
            EVENTS["fixed artificial"] += 1

        p = T[leave_row, enter]
        leaving = basis[leave_row]
        vstat[leaving] = AT_LOWER
        T[leave_row, :N] = T[leave_row, :N] / p
        for i in range(m + 2):
            if i == leave_row:
                continue
            f = T[i, enter]
            if i < m:
                T[i, N] = T[i, N] - f * t
            if f != 0:
                T[i, :N] = T[i, :N] - f * T[leave_row, :N]
        T[leave_row, N] = t
        basis[leave_row] = enter
        vstat[enter] = BASIC
    return PHASE_ITER_LIMIT


def ref_drive_out_artificials(T, basis, vstat, m, N, n_nonart, tol):
    """Scalar artificial drive-out with per-row elimination; returns the
    number of pivots."""
    moved = 0
    for r in range(m):
        if basis[r] < n_nonart:
            continue
        piv = -1
        best = tol
        for j in range(n_nonart):
            if vstat[j] == BASIC:
                continue
            v = abs(T[r, j])
            if piv == -1 and v > ARTIFICIAL_PIVOT:
                piv = j
                break
            if v > best:
                best = v
                piv = j
        if piv == -1:
            continue
        p = T[r, piv]
        T[r, :N] = T[r, :N] / p
        for i in range(m + 2):
            if i == r:
                continue
            f = T[i, piv]
            if f != 0:
                T[i, :N] = T[i, :N] - f * T[r, :N]
        vstat[basis[r]] = AT_LOWER
        basis[r] = piv
        T[r, N] = 0
        vstat[piv] = BASIC
        moved += 1
    return moved


def ref_entering(T, vstat, cost_row, n_elig, tol):
    """Bland pricing as a scalar loop over numpy array entries."""
    for j in range(n_elig):
        if vstat[j] == AT_LOWER and T[cost_row, j] < -tol:
            return j
    return -1


def ref_has_entering(T, vstat, cost_row, n_elig, tol):
    """Pricing test after a refactorization: is any variable improving?"""
    row = T[cost_row, :n_elig]
    return bool(np.any((vstat[:n_elig] == AT_LOWER) & (row < -tol)))


def ref_symmetry_search(V, Binv, fix, match_tol, cap):
    """Scalar symmetry search: a backtracking stack over ordered d-tuples,
    element-loop products and preallocated `cap`-sized outputs.  Returns
    (matrices, perms, count, overflow_flag)."""
    n, d = V.shape
    mats = np.empty((cap, d, d))
    perms = np.empty((cap, n), np.int64)
    count = 0
    overflow = 0
    pos = np.full(d, -1, np.int64)
    used = np.zeros(n, np.uint8)
    W = np.empty((d, d))
    L = np.empty((d, d))
    perm = np.empty(n, np.int64)
    taken = np.zeros(n, np.uint8)
    w = np.empty(d)
    depth = 0
    while depth >= 0:
        nxt = pos[depth] + 1
        if pos[depth] >= 0:
            used[pos[depth]] = 0
        found = -1
        for cand in range(nxt, n):
            if used[cand] == 0:
                found = cand
                break
        if found == -1:
            pos[depth] = -1
            depth -= 1
            continue
        pos[depth] = found
        used[found] = 1
        if depth < d - 1:
            depth += 1
            continue

        # Full tuple: candidate map L = (Binv @ V[pos])^T.
        for r in range(d):
            for c in range(d):
                s = 0.0
                for q in range(d):
                    s += Binv[r, q] * V[pos[q], c]
                W[r, c] = s
        for r in range(d):
            for c in range(d):
                L[r, c] = W[c, r]
        ok = True
        for c in range(d):
            s = 0.0
            for q in range(d):
                s += L[c, q] * fix[q]
            if abs(s - fix[c]) > match_tol:
                ok = False
                break
        if ok:
            for i in range(n):
                taken[i] = 0
            for i in range(n):
                for r in range(d):
                    s = 0.0
                    for q in range(d):
                        s += L[r, q] * V[i, q]
                    w[r] = s
                hit = -1
                for j in range(n):
                    if taken[j] == 1:
                        continue
                    close = True
                    for r in range(d):
                        if abs(w[r] - V[j, r]) > match_tol:
                            close = False
                            break
                    if close:
                        hit = j
                        break
                if hit == -1:
                    ok = False
                    break
                taken[hit] = 1
                perm[i] = hit
        if ok:
            dup = False
            for g in range(count):
                same = True
                for i in range(n):
                    if perms[g, i] != perm[i]:
                        same = False
                        break
                if same:
                    dup = True
                    break
            if not dup:
                if count >= cap:
                    overflow = 1
                    break
                for r in range(d):
                    for c in range(d):
                        mats[count, r, c] = L[r, c]
                for i in range(n):
                    perms[count, i] = perm[i]
                count += 1
        # stay at this depth, try the next candidate for the last slot
    return mats[:count].copy(), perms[:count].copy(), count, overflow


# ---------------------------------------------------------------------------
# shared simplex kernel against the scalar reference

FIELDS = ("x", "value", "dual_eq", "dual_ub", "reduced_costs", "farkas_margin")


def _bytes(v):
    if isinstance(v, np.ndarray):
        if v.dtype == object:
            return repr([(type(e).__name__, e) for e in v.tolist()])
        return v.dtype.str, v.shape, v.tobytes()
    return type(v).__name__, repr(v)


def _outcome(problem, mode="float", start=None):
    try:
        o = lp.solve(problem, mode, start=start)
    except NumericalFailure as exc:
        return "NumericalFailure", str(exc)
    return (o.status,) + tuple(_bytes(getattr(o, k)) for k in FIELDS)


@pytest.fixture
def scalar_outcome(monkeypatch):
    """`_outcome` with the scalar reference kernels and pricing test."""
    def outcome(problem, mode="float", start=None):
        with monkeypatch.context() as m:
            m.setattr(lp, "simplex_phase", ref_simplex_phase)
            m.setattr(lp, "drive_out_artificials", ref_drive_out_artificials)
            m.setattr(lp, "entering",
                      lambda *a: 0 if ref_has_entering(*a) else -1)
            return _outcome(problem, mode, start)
    return outcome


def _same_outcomes(cases, scalar_outcome):
    """Compare every (problem, mode); returns the count of each status."""
    statuses = collections.Counter()
    for problem, mode in cases:
        want = scalar_outcome(problem, mode)
        assert _outcome(problem, mode) == want
        statuses[want[0]] += 1
    return statuses


def _float(problems):
    return [(p, "float") for p in problems]


def test_pivot_keeps_the_values_of_rows_with_a_zero_multiplier():
    # Rows 1 and 2 have a zero multiplier: the update subtracts a signed
    # zero from each entry, which may flip the sign of a zero entry only.
    T = np.array([[2.0, -1.0, 4.0, 6.0],
                  [0.0, -0.0, 3.0, 1.0],
                  [-0.0, -0.0, -0.0, 2.0],
                  [1.0, -1.0, 0.5, 0.0]])
    before = T.copy()
    kernels._pivot(T, 0, 0, 3)
    assert (T[1] == before[1]).all() and (T[2] == before[2]).all()
    assert T[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert T[3].tolist() == [0.0, -0.5, -1.5, 0.0]


def test_exact_pivot_skips_rows_with_a_zero_multiplier():
    # Fraction arithmetic is Python-level, so an exact pivot does none for
    # rows 1 and 2: they hold the very objects they held before.
    T = np.array([[2, -1, 4, 6], [0, 0, 3, 1], [0, 0, 0, 2],
                  [1, -1, Fraction(1, 2), 0]], dtype=object)
    T = np.vectorize(Fraction, otypes=[object])(T)
    before = T.copy()
    kernels._pivot(T, 0, 0, 3)
    assert all(a is b for a, b in zip(T[1:3].flat, before[1:3].flat))
    assert T[:, 0].tolist() == [1, 0, 0, 0]
    assert T[3].tolist() == [0, Fraction(-1, 2), Fraction(-3, 2), 0]


def test_random_lps_match_scalar_reference(scalar_outcome):
    got = _same_outcomes(_float(lp_cases.random_lps()), scalar_outcome)
    assert got["optimal"] >= 40 and got["unbounded"] >= 10


def test_ties_and_boxes_match_scalar_reference(scalar_outcome):
    EVENTS.clear()
    cases = _float(lp_cases.tied_lps() + lp_cases.flip_lps())
    assert _same_outcomes(cases, scalar_outcome)["optimal"] >= 50
    assert EVENTS["band"] and EVENTS["basis tie"]


def test_a_basic_artificial_blocks_at_zero_as_in_the_reference(
        scalar_outcome):
    # A start may hold an artificial, which phase two keeps at 0, so it
    # blocks a step on a negative entry as well.  Each start is an optimal
    # basis with one structural or slack column swapped for the artificial
    # of its row.
    EVENTS.clear()
    starts = 0
    for problem in lp_cases.random_lps() + lp_cases.signed_zero_lps():
        basis = lp.solve(problem).basis
        if basis is None:
            continue
        ncols = (problem.n_vars + int((problem.lower == -np.inf).sum())
                 + problem.ub_rows.shape[0])
        for r in (basis < ncols).nonzero()[0].tolist():
            start = basis.copy()
            start[r] = ncols + r
            if ncols + r in basis:
                continue
            assert _outcome(problem, start=start) \
                == scalar_outcome(problem, start=start)
            starts += 1
    assert starts >= 100 and EVENTS["fixed artificial"] >= 10


def test_infeasible_and_unbounded_match_scalar_reference(scalar_outcome):
    assert _same_outcomes(_float(lp_cases.infeasible_lps()),
                          scalar_outcome) == {"infeasible": 4}
    assert _same_outcomes(_float(lp_cases.unbounded_lps()),
                          scalar_outcome) == {"unbounded": 3}


def test_exact_mode_matches_scalar_reference(scalar_outcome):
    small = (lp_cases.random_lps(seed=4, count=30) + lp_cases.tied_lps()[:8]
             + lp_cases.flip_lps()[:4] + lp_cases.infeasible_lps()
             + lp_cases.unbounded_lps())
    got = _same_outcomes([(p, "exact") for p in small], scalar_outcome)
    assert set(got) == {"optimal", "infeasible", "unbounded"}


def test_library_lps_match_scalar_reference(scalar_outcome):
    cases = lp_cases.library_lps()
    got = _same_outcomes(cases, scalar_outcome)
    assert len(cases) >= 50 and got["optimal"] and got["infeasible"]


def _phase_calls(problems, monkeypatch):
    """The arguments but max_iter of every simplex_phase call `lp.solve`
    makes on `problems` in float mode, the arrays copied on entry."""
    calls = []
    phase = lp.simplex_phase

    def capture(T, basis, vstat, m, N, cost_row, n_elig, tol, max_iter,
                width=None):
        calls.append((T.copy(), basis.copy(), vstat.copy(), m, N, cost_row,
                      n_elig, tol, width))
        return phase(T, basis, vstat, m, N, cost_row, n_elig, tol,
                     max_iter, width=width)

    with monkeypatch.context() as m:
        m.setattr(lp, "simplex_phase", capture)
        for problem in problems:
            _outcome(problem)
    return calls


@pytest.mark.parametrize("family", ["random", "tied", "flip", "unbounded"])
def test_every_phase_exit_matches_scalar_reference(family, monkeypatch):
    # Each captured phase runs again on copies of its tableau with
    # max_iter = 0, 1, ..., k, where the k-th run is the first to end
    # optimal or unbounded; every run must end with the reference's code,
    # vstat and basis, and its tableau up to the signs of zeros (the
    # columns [width, N) the kernel leaves stale aside).
    problems = {"random": lp_cases.random_lps(),
                "tied": lp_cases.tied_lps(),
                "flip": lp_cases.flip_lps(),
                "unbounded": lp_cases.unbounded_lps()}[family]
    exits = collections.Counter()
    for T0, basis0, vstat0, m, N, cost_row, n_elig, tol, width \
            in _phase_calls(problems, monkeypatch):
        for max_iter in itertools.count():
            ends = []
            for phase in (kernels.simplex_phase, ref_simplex_phase):
                T, basis, vstat = T0.copy(), basis0.copy(), vstat0.copy()
                code = phase(T, basis, vstat, m, N, cost_row, n_elig, tol,
                             max_iter, width=width)
                ends.append((code, (T[:, :width] + 0.0).tobytes(),
                             T[:, N].tobytes(), vstat.tobytes(),
                             basis.tobytes()))
            assert ends[0] == ends[1]
            exits[ends[0][0]] += 1
            if ends[0][0] != PHASE_ITER_LIMIT:
                break
    assert exits[PHASE_ITER_LIMIT] > exits[PHASE_OPTIMAL] > 0
    if family == "unbounded":
        assert exits[PHASE_UNBOUNDED]


def _pricing_cases(rng, tol, count):
    """(T, vstat, cost_row, n_elig) with reduced costs at and just beyond
    +-tol, signed zeros and both statuses."""
    near = np.nextafter(tol, np.inf)
    values = np.array([-1.0, -2 * tol, -near, -tol, -0.0, 0.0, tol, near,
                       2 * tol, 1.0])
    for _ in range(count):
        n = int(rng.integers(1, 9))
        T = np.zeros((3, n + 2))
        T[1, :n] = rng.choice(values, n)
        vstat = rng.choice([AT_LOWER, BASIC], n + 2)
        yield T, vstat, 1, int(rng.integers(0, n + 1))


def _fraction_pricing_cases(rng, count):
    values = [Fraction(-1, 3), Fraction(0), Fraction(1, 7), Fraction(-2)]
    for _ in range(count):
        n = int(rng.integers(1, 7))
        T = np.empty((2, n + 1), dtype=object)
        T[...] = Fraction(0)
        T[0, :n] = [values[k] for k in rng.integers(0, len(values), n)]
        vstat = rng.choice([AT_LOWER, BASIC], n + 1)
        yield T, vstat, 0, n


def test_list_pricing_matches_scalar_reference():
    rng = np.random.default_rng(13)
    seen = collections.Counter()
    cases = [(case, 1e-9) for case in _pricing_cases(rng, 1e-9, 400)]
    cases += [(case, 0) for case in _fraction_pricing_cases(rng, 200)]
    for (T, vstat, row, n_elig), tol in cases:
        want = ref_entering(T, vstat, row, n_elig, tol)
        # arrays, as lp passes them after a refactorization, and the list
        # copies simplex_phase keeps
        assert kernels.entering(T, vstat, row, n_elig, tol) == want
        assert kernels.entering(T, vstat.tolist(), row, n_elig, tol) == want
        assert (want != -1) == ref_has_entering(T, vstat, row, n_elig, tol)
        seen["optimal" if want == -1 else "entered"] += 1
        if want != -1:
            seen["basic skipped"] += any(
                vstat[k] == BASIC and T[row, k] < -tol for k in range(want))
            seen["at tol skipped"] += any(
                abs(T[row, k]) == tol and vstat[k] != BASIC
                for k in range(want))
    assert seen["optimal"] and seen["entered"]
    assert seen["basic skipped"] and seen["at tol skipped"]


@pytest.fixture
def dead_block(monkeypatch):
    """lp.simplex_phase that fills the artificial block T[:m, n_elig:N]
    with NaN before every float run of either phase; returns the widths
    seen."""
    phase = lp.simplex_phase
    widths = collections.Counter()

    def poisoned(T, basis, vstat, m, N, cost_row, n_elig, tol, max_iter,
                 width=None):
        exact = T.dtype == object
        if not exact:
            T[:m, n_elig:N] = np.nan
        widths["exact" if exact else "float",
               "two" if cost_row == m else "one",
               "narrow" if width == n_elig else "full"] += 1
        return phase(T, basis, vstat, m, N, cost_row, n_elig, tol, max_iter,
                     width=width)

    monkeypatch.setattr(lp, "simplex_phase", poisoned)
    return widths


@pytest.mark.parametrize("family", ["random", "tied", "flip", "infeasible",
                                    "unbounded", "library"])
def test_phase_two_reads_no_artificial_column(family, dead_block):
    cases = {"random": _float(lp_cases.random_lps()),
             "tied": _float(lp_cases.tied_lps()),
             "flip": _float(lp_cases.flip_lps()),
             "infeasible": _float(lp_cases.infeasible_lps()),
             "unbounded": _float(lp_cases.unbounded_lps()),
             "library": lp_cases.library_lps()}[family]
    poisoned = lp.simplex_phase
    for problem, mode in cases:
        lp.simplex_phase = kernels.simplex_phase
        want = _outcome(problem, mode)
        lp.simplex_phase = poisoned
        assert _outcome(problem, mode) == want
    # Both float phases end in a rebuild, so neither pivots the block.
    if family != "infeasible":
        assert dead_block["float", "two", "narrow"]
    assert dead_block["float", "one", "narrow"]
    assert not dead_block["float", "two", "full"]
    assert not dead_block["float", "one", "full"]


def test_phase_two_pivots_leave_the_artificial_block(monkeypatch):
    # A finite sentinel in the artificial block survives a float phase two
    # that pivots, so its pivots skip those columns.
    phase = lp.simplex_phase
    kept = collections.Counter()

    def sentinel(T, basis, vstat, m, N, cost_row, n_elig, tol, max_iter,
                 width=None):
        if cost_row != m:
            return phase(T, basis, vstat, m, N, cost_row, n_elig, tol,
                         max_iter, width=width)
        T[:m, n_elig:N] = 0.5
        before = basis.copy()
        code = phase(T, basis, vstat, m, N, cost_row, n_elig, tol, max_iter,
                     width=width)
        if np.any(basis != before):
            kept[bool(np.all(T[:m, n_elig:N] == 0.5))] += 1
        return code

    monkeypatch.setattr(lp, "simplex_phase", sentinel)
    for problem in lp_cases.random_lps() + lp_cases.flip_lps():
        _outcome(problem)
    assert kept[True] >= 10 and not kept[False]


def test_exact_mode_pivots_full_width_and_verifies(dead_block):
    small = (lp_cases.random_lps(seed=4, count=30) + lp_cases.tied_lps()[:8]
             + lp_cases.infeasible_lps() + lp_cases.unbounded_lps())
    statuses = collections.Counter()
    for problem in small:
        got = _outcome(problem, "exact")   # exact solves verify themselves
        assert got[0] != "NumericalFailure"
        statuses[got[0]] += 1
    assert set(statuses) == {"optimal", "infeasible", "unbounded"}
    assert dead_block["exact", "two", "full"]
    assert not any(key[0] == "exact" and key[2] == "narrow"
                   for key in dead_block)


# ---------------------------------------------------------------------------
# numpy symmetry search against the scalar reference

SYMMETRIC = {
    "simplex2": (lambda: systems.simplex(2), 2),
    "simplex3": (lambda: systems.simplex(3), 6),
    "simplex4": (lambda: systems.simplex(4), 24),
    "square": (lambda: systems.hypercube(2), 8),
    "cube": (lambda: systems.hypercube(3), 48),
    "octahedron": (lambda: systems.cross_polytope(3), 48),
    "pentagon": (lambda: systems.regular_polygon(5), 10),
    "hexagon": (lambda: systems.regular_polygon(6), 12),
}


def _ref_maps(V, Binv, fix, cap):
    mats, _, count, overflow = ref_symmetry_search(
        np.ascontiguousarray(V), np.ascontiguousarray(Binv),
        np.ascontiguousarray(fix), COINCIDENCE, cap)
    return [mats[i].copy() for i in range(count)], overflow


def _ref_search(V, Binv, fix):
    """The reference in the kernel's place, overflowing at MAP_CAP."""
    maps, overflow = _ref_maps(V, Binv, fix, kernels.MAP_CAP)
    if overflow:
        raise GuardExceeded("reference overflow")
    return maps


def _fix_points(system):
    V = system.vertices
    center = V.mean(axis=0)
    return [None, system.vector(center), system.vector(V[0]),
            system.vector(0.6 * V[0] + 0.4 * V[1])]


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_symmetries_match_scalar_reference(name, monkeypatch):
    build, order = SYMMETRIC[name]
    system = build()
    got = [systems.symmetries(system, fix) for fix in _fix_points(system)]
    monkeypatch.setattr(kernels, "symmetry_search", _ref_search)
    want = [systems.symmetries(system, fix) for fix in _fix_points(system)]
    assert len(got[0]) == len(got[1]) == order
    assert len(got[2]) < order and len(got[3]) < order
    for maps, ref in zip(got, want):
        assert [(m.shape, m.tobytes()) for m in maps] == [
            (m.shape, m.tobytes()) for m in ref]


def test_symmetry_search_overflow_matches_scalar_reference(monkeypatch):
    calls = []
    search = kernels.symmetry_search
    monkeypatch.setattr(kernels, "symmetry_search",
                        lambda *a: calls.append(a) or [])
    systems.symmetries(systems.hypercube(3))
    V, Binv, fix = calls[0]
    for cap in (1, 5, 48, 49):
        monkeypatch.setattr(kernels, "MAP_CAP", cap)
        ref, ref_overflow = _ref_maps(V, Binv, fix, cap)
        assert ref_overflow == int(cap < 48)
        if ref_overflow:
            with pytest.raises(GuardExceeded,
                               match=f"^symmetry search found more than {cap} maps$"):
                search(V, Binv, fix)
        else:
            maps = search(V, Binv, fix)
            assert [m.tobytes() for m in maps] == [m.tobytes() for m in ref]


def ref_is_symmetry(system, mat):
    """Scalar vertex matcher: vertex i's image takes the first vertex within
    COINCIDENCE (by the maximum entry difference) that no earlier image
    took."""
    M = np.asarray(mat, dtype=np.float64)
    if M.shape != (system.dim, system.dim):
        return False
    images = system.vertices @ M.T
    taken = [False] * system.n_vertices
    for img in images:
        hit = -1
        for j, w in enumerate(system.vertices):
            if not taken[j] and np.max(np.abs(img - w)) <= COINCIDENCE:
                hit = j
                break
        if hit < 0:
            return False
        taken[hit] = True
    return True


def _candidate_maps(system, rng):
    """Symmetries, near misses on both sides of COINCIDENCE, collapsing and
    random maps, and matrices with NaN, inf or overflowing entries."""
    d = system.dim
    group = systems.symmetries(system)
    out = list(group)
    for g in group[:4]:
        for step in (0.4, 3.0):
            bump = np.zeros((d, d))
            bump[int(rng.integers(d)), int(rng.integers(d))] = step * COINCIDENCE
            out.append(g + bump)
    out.append(np.outer(system.vertices[0], system.unit))   # all to vertex 0
    out.append(np.zeros((d, d)))
    out.append(np.eye(d + 1))                                # wrong shape
    out += [rng.normal(size=(d, d)) for _ in range(3)]
    for bad in (np.nan, np.inf, -np.inf, 1e308):
        m = np.eye(d)
        m[d - 1, int(rng.integers(d))] = bad
        out.append(m)
        out.append(np.full((d, d), bad))
    return out


@pytest.mark.filterwarnings("ignore:.*encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_is_symmetry_matches_scalar_reference(name):
    system = SYMMETRIC[name][0]()
    rng = np.random.default_rng(3)
    verdicts = collections.Counter()
    for m in _candidate_maps(system, rng):
        want = ref_is_symmetry(system, m)
        assert systems.is_symmetry(system, m) == want
        verdicts[want] += 1
        if not np.all(np.isfinite(m)):
            assert not want
    assert verdicts[True] > len(systems.symmetries(system))
    assert verdicts[False] >= 10
