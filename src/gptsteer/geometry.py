"""Dual-description helpers: vertex and facet enumeration with canonical order.

Thin wrappers around the brute-force kernels, which test every d-subset of
half-spaces (or (d-1)-subset of generators) at COINCIDENCE and raise past
kernels.ROW_CAP rows.  Inputs are normalized here so that test is
scale-free, and output rows are sorted lexicographically after rounding so
results do not depend on input ordering, which keeps downstream
certificates byte-reproducible.
"""

import numpy as np

from . import guards
from .errors import InvalidInput
from .kernels import enum_cone_facets, enum_polytope_vertices
from .tolerances import COINCIDENCE

LEX_DECIMALS = 9   # rounding of the sort keys in lex_sorted


def lex_sorted(rows):
    """Rows sorted lexicographically by their rounded entries."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[0] <= 1:
        return rows.copy()
    keys = np.round(rows, LEX_DECIMALS)
    order = np.lexsort(keys[:, ::-1].T)
    return rows[order].copy()


def vertices_of_polytope(A, b):
    """All vertices of {x : A x <= b} by d-subset enumeration.

    Rows are normalized internally so the tolerance is scale-free; the
    dimension guard applies because the search is combinatorial in d.
    """
    A = guards.float_array(A, "half-space data must be real numbers")
    b = guards.float_array(b, "half-space data must be real numbers").reshape(-1)
    if A.ndim != 2 or A.shape[0] != b.shape[0]:
        raise InvalidInput("half-space matrix and offsets must have matching rows")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise InvalidInput("half-space data must be finite")
    d = A.shape[1]
    guards.check("dim", d)
    scale = np.linalg.norm(A, axis=1)
    keep = scale > 1e-12
    An = A[keep] / scale[keep, None]
    bn = b[keep] / scale[keep]
    if np.any(b[~keep] < -COINCIDENCE):
        return np.zeros((0, d))
    verts = enum_polytope_vertices(An, bn)
    return lex_sorted(verts + 0.0)  # + 0.0 canonicalizes negative zeros


def facets_of_cone(V):
    """Outer-oriented unit facet normals of cone(rows of V).

    Each normal F satisfies <F, v> >= 0 for every generator, with equality on
    a spanning subset; only full-dimensional pointed cones are meaningful
    inputs (the caller checks that).
    """
    V = guards.float_array(V, "generators must be real numbers")
    if V.ndim != 2:
        raise InvalidInput("generators must form a matrix")
    if not np.all(np.isfinite(V)):
        raise InvalidInput("generators must be finite")
    d = V.shape[1]
    guards.check("dim", d)
    scale = np.linalg.norm(V, axis=1)
    if np.any(scale <= 1e-12):
        raise InvalidInput("zero generator in cone description")
    Vn = V / scale[:, None]
    facets = enum_cone_facets(Vn)
    return lex_sorted(facets + 0.0)
