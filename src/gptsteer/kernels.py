"""Hot numeric loops: simplex pivoting and brute-force polyhedral searches.

The simplex keeps each decision in one place: `entering` is Bland's pricing
rule (also asked by lp after a refactorization), one ratio pass computes
each blocking row's step once, and `_pivot` is the single elimination, a
rank-1 update of the rows with a nonzero multiplier, shared with
`drive_out_artificials`.  Pricing and the ratio test stay early-exit loops,
over Python lists read off the tableau with `tolist()`: the LPs are mostly
small, numpy dispatch would cost more than it saves, and a list index is far
cheaper than fetching one numpy scalar.  The list values are the same
doubles (or Fractions), so every comparison, and with it every pivot, is
that of the tableau's own entries.  A phase may pivot only the columns
before a given width when its caller rebuilds the rest: lp's float phases,
one and two, pivot only the structural columns, since each ends in a
rebuild, and its exact-rational mode runs the same `simplex_phase` on
object arrays of Fractions over every column.
`symmetry_search` walks `itertools.permutations`, works on numpy rows and
matches vertex images with `_greedy_matching`, as `systems.is_symmetry` does.
The enumerations `enum_polytope_vertices` and `enum_cone_facets` are
batched numpy: they walk the candidate subsets in lexicographic chunks of
CHUNK and eliminate a whole chunk at once, with the pivoting, tolerance
tests and summation order of a one-subset-at-a-time elimination, so their
output does not depend on the chunk size.

Kernel conventions:
  * the simplex returns status codes; the searches raise GuardExceeded past
    ROW_CAP rows or MAP_CAP maps, and test at COINCIDENCE on normalized rows;
  * no float literals inside simplex arithmetic (object-array reuse);
  * deterministic tie-breaking everywhere (lowest index / Bland).
"""

import itertools

import numpy as np

from .errors import GuardExceeded
from .tolerances import ARTIFICIAL_PIVOT, COINCIDENCE

# Subsets per batched elimination: large enough to amortize numpy dispatch,
# small enough that the (CHUNK, m) feasibility sums stay within cache.
CHUNK = 512

# Hard ceilings on enumerated rows and on symmetry maps; reaching one means
# the instance is far outside desk scale regardless of the dimension guards.
ROW_CAP = 4096
MAP_CAP = 1024

# Tableau variable statuses.
AT_LOWER = 0
AT_UPPER = 1
BASIC = 2

# simplex_phase return codes (1 = infeasible is decided by the driver).
PHASE_OPTIMAL = 0
PHASE_UNBOUNDED = 2
PHASE_ITER_LIMIT = 3


def entering(T, vstat, upper, cost_row, n_elig, tol):
    """Bland's pricing rule: the lowest-index improving variable.

    Returns (j, direction): direction +1 raises a variable at its lower
    bound whose reduced cost is below -tol (unless its upper bound is 0, a
    fixed variable), -1 lowers one at its upper bound whose reduced cost is
    above tol; (-1, 0) when the cost row is optimal.  The cost row is read
    as a list; `vstat` and `upper` may be lists or arrays.
    """
    neg_tol = -tol
    for j, d in enumerate(T[cost_row, :n_elig].tolist()):
        s = vstat[j]
        if s == AT_LOWER:
            if d < neg_tol and upper[j] > 0:
                return j, 1
        elif s == AT_UPPER:
            if d > tol:
                return j, -1
    return -1, 0


def _pivot(T, r, j, N):
    """Make column j the unit vector e_r in columns 0..N-1 of T.

    Row r is divided by its pivot and subtracted, as one rank-1 update,
    from every other row whose entry in column j is nonzero; rows with a
    multiplier of exactly 0 are not touched, so their signed zeros stay.
    """
    T[r, :N] = T[r, :N] / T[r, j]
    f = T[:, j].copy()
    f[r] = 0
    rows = f.nonzero()[0]
    T[rows, :N] = T[rows, :N] - f[rows, None] * T[r, :N]


def simplex_phase(T, basis, vstat, upper, m, N, cost_row, n_elig, tol,
                  max_iter, width):
    """Run one phase of the bounded-variable simplex to optimality.

    T is the (m + 2) x (N + 1) tableau: rows 0..m-1 hold B^-1 A in columns
    0..N-1 and the current basic values in column N; rows m and m+1 are the
    phase-2 and phase-1 reduced-cost rows (both kept current by every pivot).
    All variables have lower bound 0 and upper bound `upper[j]` (np.inf for
    none).  Entering variable: `entering` (Bland).  Leaving variable: among
    rows whose entry clears a pivot threshold well above the zero tolerance,
    the largest pivot whose ratio is within a relative band of the minimum
    ratio (ties by lowest variable index).  Stepping onto a noise-level
    pivot poisons the working basis beyond what a refactorization can
    repair, so such rows never block; a direction that is a ray only
    because of sub-threshold entries is reported unbounded and the driver
    retries it on a rebuilt tableau.  A variable whose upper bound is 0 is
    fixed and never enters.

    Pivots update columns [0, width), width N or n_elig.  Nothing here
    reads a column at or past n_elig other than the basic values, so a
    caller that rebuilds the tableau afterwards may pass width=n_elig and
    leave the columns [n_elig, N) stale.  Pricing and the ratio test run
    on list copies of the cost row, the entering column, the basic values,
    vstat, upper and basis, which hold the arrays' own floats or
    Fractions; vstat and basis are written to the lists and the arrays
    together.
    """
    a_block = tol * 100
    neg_block = -a_block
    vs = vstat.tolist()
    up = upper.tolist()
    bl = basis.tolist()
    for _ in range(max_iter):
        enter, dirn = entering(T, vs, up, cost_row, n_elig, tol)
        if enter == -1:
            return PHASE_OPTIMAL

        # Ratio test: for each blocking row, the step t >= 0 at which its
        # basic variable reaches a bound (roundoff below 0 clamped to 0).
        dcol = dirn * T[:m, enter]
        col = dcol.tolist()
        rhs = T[:m, N].tolist()
        blocking = []
        t_min = np.inf
        for i, a in enumerate(col):
            if a > a_block:
                ratio = rhs[i] / a
            elif a < neg_block:
                ub = up[bl[i]]
                if ub == np.inf:
                    continue
                ratio = (ub - rhs[i]) / (0 - a)
            else:
                continue
            if ratio < 0:
                ratio = ratio * 0  # keeps the scalar type
            blocking.append((i, ratio, abs(a)))
            if ratio < t_min:
                t_min = ratio
        # Among the rows within a relative band of the minimum (zero in
        # exact mode) the largest pivot leaves, ties by lowest basis index.
        cutoff = t_min + tol * (1 + t_min)
        leave_row = -1
        t_best = np.inf
        best_a = 0
        for i, ratio, aa in blocking:
            if ratio <= cutoff and (
                    leave_row == -1 or aa > best_a
                    or (aa == best_a and bl[i] < bl[leave_row])):
                leave_row, t_best, best_a = i, ratio, aa

        t_flip = up[enter]
        if leave_row == -1 and t_flip == np.inf:
            return PHASE_UNBOUNDED

        if t_flip < t_best:
            # Bound flip: the entering variable crosses to its other bound,
            # the basis is unchanged.
            T[:m, N] = T[:m, N] - dcol * t_flip
            vs[enter] = vstat[enter] = 1 - vs[enter]
            continue

        if vs[enter] == AT_LOWER:
            x_enter = dirn * t_best
        else:
            x_enter = up[enter] + dirn * t_best
        leaving = bl[leave_row]
        vs[leaving] = vstat[leaving] = (
            AT_LOWER if col[leave_row] > 0 else AT_UPPER)
        T[:m, N] = T[:m, N] - dcol * t_best
        _pivot(T, leave_row, enter, width)
        T[leave_row, N] = x_enter
        bl[leave_row] = basis[leave_row] = enter
        vs[enter] = vstat[enter] = BASIC
    return PHASE_ITER_LIMIT


def drive_out_artificials(T, basis, vstat, upper, m, N, n_nonart, tol):
    """Pivot zero-valued basic artificials onto structural columns.

    Called between the phases (at most m degenerate pivots).  Rows where
    every structural entry vanishes are redundant; their artificial stays
    basic at 0 and is fixed by the caller via upper = 0.  Each row is read
    as a list, with vstat as it stands when the row is reached.  Returns
    the number of pivots made.
    """
    moved = 0
    for r, art in enumerate(basis.tolist()):
        if art < n_nonart:
            continue
        vs = vstat.tolist()
        piv = -1
        best = tol
        for j, v in enumerate(T[r, :n_nonart].tolist()):
            if vs[j] == BASIC:
                continue
            v = abs(v)
            if piv == -1 and v > ARTIFICIAL_PIVOT:
                piv = j
                break
            if v > best:
                best = v
                piv = j
        if piv == -1:
            continue
        _pivot(T, r, piv, N)
        vstat[art] = AT_LOWER
        basis[r] = piv
        T[r, N] = 0 if vs[piv] == AT_LOWER else upper[piv]
        vstat[piv] = BASIC
        moved += 1
    return moved


def _eliminate(M, tol, rhs=None):
    """Forward elimination with partial pivoting on a stack of square blocks.

    M is (S, d, d) and is reduced in place to upper-triangular form; rhs,
    when given, is (S, d) and follows the row operations.  The pivot is the
    first maximum of |column| on or below the diagonal, a block is singular
    once a pivot is <= tol, and a multiplier that is exactly 0 leaves its row
    untouched, so every block sees the float operations of a scalar
    elimination.  Returns (singular, det): det is the signed product of
    pivots and is meaningful only where singular is False.
    """
    S, d = M.shape[:2]
    rows = np.arange(S)
    singular = np.zeros(S, dtype=bool)
    det = np.ones(S)
    for k in range(d):
        p = k + np.argmax(np.abs(M[:, k:, k]), axis=1)
        singular |= np.abs(M[rows, p, k]) <= tol
        swap = rows[p != k]
        if swap.size:
            pk = p[swap]
            M[swap, k], M[swap, pk] = M[swap, pk], M[swap, k]
            if rhs is not None:
                rhs[swap, k], rhs[swap, pk] = rhs[swap, pk], rhs[swap, k]
            det[swap] = -det[swap]
        piv = M[:, k, k]
        det = det * piv
        if k + 1 == d:
            break
        f = M[:, k + 1:, k] / piv[:, None]
        live = f != 0
        M[:, k + 1:, k:] = np.where(
            live[:, :, None],
            M[:, k + 1:, k:] - f[:, :, None] * M[:, None, k, k:],
            M[:, k + 1:, k:])
        if rhs is not None:
            rhs[:, k + 1:] = np.where(
                live, rhs[:, k + 1:] - f * rhs[:, None, k], rhs[:, k + 1:])
    return singular, det


def _back_substitute(U, rhs):
    """Solutions of the upper-triangular systems U x = rhs, row by row."""
    d = U.shape[1]
    x = np.empty_like(rhs)
    for k in range(d - 1, -1, -1):
        s = rhs[:, k]
        for j in range(k + 1, d):
            s = s - U[:, k, j] * x[:, j]
        x[:, k] = s / U[:, k, k]
    return x


def _far(P, Q):
    """(len P, len Q) mask: row pairs more than COINCIDENCE apart somewhere."""
    far = np.zeros((P.shape[0], Q.shape[0]), dtype=bool)
    for c in range(P.shape[1]):
        far |= np.abs(Q[None, :, c] - P[:, None, c]) > COINCIDENCE
    return far


def _append_distinct(out, cand, what):
    """out and then the rows of cand that no earlier kept row matches.

    Greedy in row order, exactly as one-at-a-time insertion: a candidate is
    dropped when it is within COINCIDENCE (entrywise) of a row of out or of
    an earlier candidate that was itself kept.  Raises GuardExceeded, naming
    the enumeration `what`, when the result passes ROW_CAP rows.
    """
    cand = cand[_far(cand, out).all(axis=1)]
    near = np.tril(~_far(cand, cand), -1)   # near[j, i]: i < j, within tol
    # Candidate j is kept iff no earlier near candidate is kept.  Each round
    # settles at least the first unsettled candidate; clusters of
    # duplicates around a kept row settle in one round.
    keep = np.zeros(cand.shape[0], dtype=bool)
    drop = np.zeros(cand.shape[0], dtype=bool)
    while not (keep | drop).all():
        open_ = ~(keep | drop)
        drop |= open_ & (near & keep).any(axis=1)
        keep |= open_ & ~(near & ~drop).any(axis=1)
    out = np.concatenate([out, cand[keep]])
    if out.shape[0] > ROW_CAP:
        raise GuardExceeded(f"{what} enumeration exceeded {ROW_CAP} rows")
    return out


def _subset_chunks(n, k):
    """Lexicographic k-subsets of range(n) as (<= CHUNK, k) index arrays."""
    subsets = itertools.combinations(range(n), k)
    while True:
        chunk = list(itertools.islice(subsets, CHUNK))
        if not chunk:
            return
        flat = itertools.chain.from_iterable(chunk)
        yield np.fromiter(flat, np.intp, len(chunk) * k).reshape(len(chunk), k)


def enum_polytope_vertices(A, b):
    """Vertices of {x : A x <= b} by brute force over d-subsets of rows.

    Each d-subset of rows is solved as an equality system (skipped when a
    pivot is <= COINCIDENCE), the solution kept when every row satisfies
    -b_i + sum_c A_ic x_c <= COINCIDENCE, and the first of any vertices
    within COINCIDENCE of each other wins, in lexicographic subset order.
    Rows of (A | b) should be normalized by the caller so the tolerance is
    meaningful.
    """
    m, d = A.shape
    out = np.empty((0, d))
    if m < d:
        return out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for idx in _subset_chunks(m, d):
            M = A[idx]
            rhs = b[idx]
            singular, _ = _eliminate(M, COINCIDENCE, rhs)
            ok = ~singular
            x = _back_substitute(M[ok], rhs[ok])
            s = np.broadcast_to(-b, (x.shape[0], m)).copy()
            for c in range(d):
                s += A[None, :, c] * x[:, c, None]
            x = x[~(s > COINCIDENCE).any(axis=1)]
            out = _append_distinct(out, x, "vertex")
    return out


def enum_cone_facets(V):
    """Facet normals of cone(V rows) from (d-1)-subsets of generators.

    Each subset of d-1 generators spans a candidate hyperplane; its normal is
    computed by cofactor expansion (sign-alternating (d-1)-minors, each a
    determinant by elimination), kept when its norm exceeds COINCIDENCE,
    unit-normalized, oriented so every generator lies on the nonnegative
    side (within COINCIDENCE) and de-duplicated as in
    enum_polytope_vertices.  Rows of V should be normalized by the caller.
    """
    n, d = V.shape
    k = d - 1
    out = np.empty((0, d))
    if n < k or k < 1:
        return out
    minor_cols = np.array([[c for c in range(d) if c != drop]
                           for drop in range(d)])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for idx in _subset_chunks(n, k):
            S = idx.shape[0]
            # Block s * d + c is the minor of subset s without column c.
            M = V[idx[:, None, :, None], minor_cols[None, :, None, :]]
            singular, det = _eliminate(M.reshape(S * d, k, k), 0.0)
            normal = np.where(singular, 0.0, det).reshape(S, d)
            normal[:, 1::2] = -normal[:, 1::2]
            nrm = np.zeros(S)
            for c in range(d):
                nrm = nrm + normal[:, c] * normal[:, c]
            nrm = np.sqrt(nrm)
            ok = nrm > COINCIDENCE
            normal = normal[ok] / nrm[ok, None]
            s = np.zeros((normal.shape[0], n))
            for c in range(d):
                s += V[None, :, c] * normal[:, c, None]
            pos = ~(s < -COINCIDENCE).any(axis=1)
            neg = ~(s > COINCIDENCE).any(axis=1)
            flip = neg & ~pos
            normal[flip] = -normal[flip]
            normal = normal[pos | neg]
            out = _append_distinct(out, normal, "facet")
    return out


def _greedy_matching(P, Q):
    """Row i of P takes the first row of Q within COINCIDENCE (entrywise)
    that no earlier row took.  Returns the chosen rows as a tuple, or None
    when some row finds none."""
    near = ~_far(P, Q)
    taken = np.zeros(Q.shape[0], dtype=bool)
    perm = []
    for row in near:
        hit = np.flatnonzero(row & ~taken)
        if hit.size == 0:
            return None
        taken[hit[0]] = True
        perm.append(int(hit[0]))
    return tuple(perm)


def symmetry_search(V, Binv, fix):
    """Linear maps permuting the rows of V and fixing `fix`.

    Binv is the inverse of the d x d matrix whose rows are the first d
    linearly independent vertices (chosen by the caller); a candidate map is
    determined by the images of those rows, enumerated as ordered d-tuples
    of distinct vertex indices in lexicographic order.  Products are summed
    one index q at a time, as a scalar loop would.  A map must fix `fix`
    within COINCIDENCE (entrywise); vertex images are matched by
    `_greedy_matching`, and a map inducing an already found vertex
    permutation is dropped.  Returns the maps, which act on column vectors;
    raises GuardExceeded past MAP_CAP maps.
    """
    n, d = V.shape
    maps = []
    seen = set()
    for pos in itertools.permutations(range(n), d):
        W = np.zeros((d, d))            # Binv @ V[pos]
        for q in range(d):
            W += Binv[:, q, None] * V[pos[q]]
        L = W.T
        image = np.zeros(d)
        for q in range(d):
            image += L[:, q] * fix[q]
        if (np.abs(image - fix) > COINCIDENCE).any():
            continue
        images = np.zeros((n, d))
        for q in range(d):
            images += V[:, q, None] * L[:, q]
        perm = _greedy_matching(images, V)
        if perm is None or perm in seen:
            continue
        if len(maps) >= MAP_CAP:
            raise GuardExceeded(
                f"symmetry search found more than {MAP_CAP} maps")
        seen.add(perm)
        maps.append(L.copy())
    return maps
