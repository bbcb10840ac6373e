"""Batched enumeration kernels against a one-subset-at-a-time reference.

The reference functions below are the scalar algorithm the batched kernels
must reproduce operation for operation: lexicographic subsets, first-maximum
partial pivoting, the same singularity tests, sums taken one column at a time
and greedy first-found de-duplication.  Results are compared byte for byte.
"""

import itertools

import numpy as np
import pytest

from gptsteer import geometry, kernels, systems
from gptsteer.errors import GuardExceeded

TOLS = (1e-9, 1e-9, 1e-9)   # dedupe, feasibility, singularity


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
    assert got[1] == want[1]
    assert got[0].shape == want[0].shape
    assert got[0].tobytes() == want[0].tobytes()


# ---------------------------------------------------------------------------
# batched kernels


@pytest.mark.parametrize("cap", [4096, 3])
def test_vertices_match_scalar_reference_bytewise(cap):
    for A, b in _vertex_cases():
        _same(kernels.enum_polytope_vertices(A, b, *TOLS, cap),
              ref_vertices(A, b, *TOLS, cap))


@pytest.mark.parametrize("cap", [4096, 3])
def test_facets_match_scalar_reference_bytewise(cap):
    for V in _cone_cases():
        _same(kernels.enum_cone_facets(V, *TOLS, cap),
              ref_facets(V, *TOLS, cap))


def test_vertex_hit_in_several_chunks_comes_out_once(monkeypatch):
    # m = 16, d = 4: 1820 subsets, four chunks; each vertex of the 4-cube is
    # the solution of 16 subsets spread over those chunks.
    A, b = _box(4, copies=2)
    got = kernels.enum_polytope_vertices(A, b, *TOLS, 4096)
    assert got[1] == 0 and got[0].shape == (16, 4)
    # first-found order: the same rows, in the same order, as the single box
    _same(got, kernels.enum_polytope_vertices(*_box(4), *TOLS, 4096))
    for chunk in (1, 7, 1819):
        monkeypatch.setattr(kernels, "CHUNK", chunk)
        _same(kernels.enum_polytope_vertices(A, b, *TOLS, 4096), got)


def test_facet_output_does_not_depend_on_chunk_size(monkeypatch):
    V = _unit_rows(systems.hypercube(4).vertices)   # C(16, 4) = 1820 subsets
    got = kernels.enum_cone_facets(V, *TOLS, 4096)
    assert got[1] == 0 and got[0].shape == (8, 5)
    for chunk in (1, 5):
        monkeypatch.setattr(kernels, "CHUNK", chunk)
        _same(kernels.enum_cone_facets(V, *TOLS, 4096), got)


@pytest.mark.parametrize("cap", [40, 7])
def test_greedy_dedupe_on_chains_of_near_duplicates(cap):
    # Points 0.6 tol apart along a line: closeness is not transitive, so
    # which points survive depends on insertion order.
    rng = np.random.default_rng(5)
    tol = 1e-9
    for _ in range(20):
        cand = np.round(rng.uniform(0, 12, size=(30, 2))) * 0.6 * tol
        prior = cand[rng.choice(30, size=3)] + 0.3 * tol
        want = [row for row in prior]
        overflow = False
        for row in cand:
            overflow = _ref_append(want, row, tol, cap)
            if overflow:
                break
        out = np.empty((cap, 2))
        out[:3] = prior
        count, flag = kernels._append_distinct(out, 3, cand, tol)
        assert flag == int(overflow)
        assert out[:count].tobytes() == np.array(want).tobytes()


def test_cap_overflow_flag_on_the_cube():
    A, b = _box(3)
    verts, flag = kernels.enum_polytope_vertices(A, b, *TOLS, 3)
    assert flag == 1 and verts.shape == (3, 3)
    V = _unit_rows(systems.hypercube(3).vertices)
    facets, flag = kernels.enum_cone_facets(V, *TOLS, 3)
    assert flag == 1 and facets.shape == (3, 4)


def test_row_cap_raises_guard_exceeded(monkeypatch):
    monkeypatch.setattr(geometry, "_ROW_CAP", 3)
    with pytest.raises(GuardExceeded):
        geometry.vertices_of_polytope(*_box(3))
    with pytest.raises(GuardExceeded):
        geometry.facets_of_cone(systems.hypercube(3).vertices)
