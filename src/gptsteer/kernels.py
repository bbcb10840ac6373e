"""Hot numeric loops: simplex pivoting and brute-force polyhedral searches.

`simplex_phase` and `symmetry_search` are scalar loops over numpy arrays;
the exact-rational LP mode runs the same `simplex_phase` on object arrays
of Fractions.  The enumerations `enum_polytope_vertices` and `enum_cone_facets`
are batched numpy: they walk the candidate subsets in lexicographic chunks
of CHUNK and eliminate a whole chunk at once, with the pivoting, tolerance
tests and summation order of a one-subset-at-a-time elimination, so their
output does not depend on the chunk size.

Kernel conventions:
  * no exceptions, failures are encoded in return codes;
  * no float literals inside simplex arithmetic (object-array reuse);
  * deterministic tie-breaking everywhere (lowest index / Bland).
"""

import itertools

import numpy as np

from .tolerances import ARTIFICIAL_PIVOT

# Subsets per batched elimination: large enough to amortize numpy dispatch,
# small enough that the (CHUNK, m) feasibility sums stay within cache.
CHUNK = 512

# Tableau variable statuses.
AT_LOWER = 0
AT_UPPER = 1
BASIC = 2

# simplex_phase return codes (1 = infeasible is decided by the driver).
PHASE_OPTIMAL = 0
PHASE_UNBOUNDED = 2
PHASE_ITER_LIMIT = 3


def simplex_phase(T, basis, vstat, upper, m, N, cost_row, n_elig, tol, max_iter):
    """Run one phase of the bounded-variable simplex to optimality.

    T is the (m + 2) x (N + 1) tableau: rows 0..m-1 hold B^-1 A in columns
    0..N-1 and the current basic values in column N; rows m and m+1 are the
    phase-2 and phase-1 reduced-cost rows (both kept current by every pivot).
    All variables have lower bound 0 and upper bound `upper[j]` (np.inf for
    none).  Entering variable: lowest index with an improving reduced cost
    (Bland); leaving variable: minimum ratio over rows whose entry clears a
    pivot threshold well above the zero tolerance, then the largest pivot
    among near-minimal ratios (ties by lowest variable index).  Stepping
    onto a noise-level pivot poisons the working basis beyond what a
    refactorization can repair, so such rows never block; a direction that
    is a ray only because of sub-threshold entries is reported unbounded
    and the driver retries it on a rebuilt tableau.  A variable whose upper
    bound is 0 is fixed and never enters.
    """
    a_block = tol * 100
    it = 0
    while it < max_iter:
        it += 1
        enter = -1
        dirn = 0
        for j in range(n_elig):
            if vstat[j] == AT_LOWER:
                if T[cost_row, j] < -tol and upper[j] > 0:
                    enter = j
                    dirn = 1
                    break
            elif vstat[j] == AT_UPPER:
                if T[cost_row, j] > tol:
                    enter = j
                    dirn = -1
                    break
        if enter == -1:
            return PHASE_OPTIMAL

        # Ratio test, first pass: smallest step t >= 0 keeping every basic
        # variable inside its bounds, against the entering variable's own
        # bound flip.
        t_best = np.inf
        leave_row = -1
        for i in range(m):
            a = dirn * T[i, enter]
            if a > a_block:
                ratio = T[i, N] / a
            elif a < -a_block:
                ub = upper[basis[i]]
                if ub == np.inf:
                    continue
                ratio = (ub - T[i, N]) / (0 - a)
            else:
                continue
            if ratio < 0:
                ratio = ratio * 0  # clamp roundoff, keeping the scalar type
            if ratio < t_best:
                t_best = ratio
                leave_row = i

        t_flip = upper[enter]
        if leave_row == -1 and t_flip == np.inf:
            return PHASE_UNBOUNDED

        if leave_row >= 0 and t_best < np.inf:
            # Second pass: the largest pivot whose ratio is within a
            # relative band of the minimum (the band is zero in exact mode).
            cutoff = t_best + tol * (1 + t_best)
            best_a = dirn * T[leave_row, enter]
            for i in range(m):
                a = dirn * T[i, enter]
                if a > a_block:
                    ratio = T[i, N] / a
                elif a < -a_block:
                    ub = upper[basis[i]]
                    if ub == np.inf:
                        continue
                    ratio = (ub - T[i, N]) / (0 - a)
                else:
                    continue
                if ratio < 0:
                    ratio = ratio * 0
                if ratio <= cutoff:
                    aa = a if a > 0 else 0 - a
                    bb = best_a if best_a > 0 else 0 - best_a
                    if aa > bb or (aa == bb and basis[i] < basis[leave_row]):
                        leave_row = i
                        best_a = a
            a = dirn * T[leave_row, enter]
            if a > 0:
                t_best = T[leave_row, N] / a
            else:
                t_best = (upper[basis[leave_row]] - T[leave_row, N]) / (0 - a)
            if t_best < 0:
                t_best = t_best * 0

        if t_flip < t_best:
            # Bound flip: the entering variable crosses to its other bound,
            # the basis is unchanged.
            for i in range(m):
                T[i, N] = T[i, N] - dirn * T[i, enter] * t_flip
            vstat[enter] = 1 - vstat[enter]
            continue

        t = t_best
        p = T[leave_row, enter]
        a_r = dirn * p
        leaving = basis[leave_row]
        if vstat[enter] == AT_LOWER:
            x_enter = dirn * t
        else:
            x_enter = upper[enter] + dirn * t
        vstat[leaving] = AT_LOWER if a_r > 0 else AT_UPPER
        T[leave_row, :N] = T[leave_row, :N] / p
        for i in range(m + 2):
            if i == leave_row:
                continue
            f = T[i, enter]
            if i < m:
                T[i, N] = T[i, N] - dirn * f * t
            if f != 0:
                T[i, :N] = T[i, :N] - f * T[leave_row, :N]
        T[leave_row, N] = x_enter
        basis[leave_row] = enter
        vstat[enter] = BASIC
    return PHASE_ITER_LIMIT


def drive_out_artificials(T, basis, vstat, upper, m, N, n_nonart, tol):
    """Pivot zero-valued basic artificials onto structural columns.

    Called between the phases (plain Python is fine: at most m degenerate
    pivots).  Rows where every structural entry vanishes are redundant; their
    artificial stays basic at 0 and is fixed by the caller via upper = 0.
    """
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
        T[r, N] = 0 if vstat[piv] == AT_LOWER else upper[piv]
        vstat[piv] = BASIC


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


def _far(P, Q, tol):
    """(len P, len Q) mask: row pairs differing by more than tol somewhere."""
    far = np.zeros((P.shape[0], Q.shape[0]), dtype=bool)
    for c in range(P.shape[1]):
        far |= np.abs(Q[None, :, c] - P[:, None, c]) > tol
    return far


def _append_distinct(out, count, cand, tol):
    """Append the rows of cand that no earlier kept row matches within tol.

    Greedy in row order, exactly as one-at-a-time insertion: a candidate is
    dropped when it is within tol (entrywise) of a row already in out[:count]
    or of an earlier candidate that was itself kept.  Stops at the capacity
    of out.  Returns (new count, overflow flag).
    """
    cand = cand[_far(cand, out[:count], tol).all(axis=1)]
    near = np.tril(~_far(cand, cand, tol), -1)   # near[j, i]: i < j, within tol
    # Candidate j is kept iff no earlier near candidate is kept.  Each round
    # settles at least the first unsettled candidate; clusters of
    # duplicates around a kept row settle in one round.
    keep = np.zeros(cand.shape[0], dtype=bool)
    drop = np.zeros(cand.shape[0], dtype=bool)
    while not (keep | drop).all():
        open_ = ~(keep | drop)
        drop |= open_ & (near & keep).any(axis=1)
        keep |= open_ & ~(near & ~drop).any(axis=1)
    new = cand[keep]
    room = out.shape[0] - count
    out[count:count + min(room, new.shape[0])] = new[:room]
    return count + min(room, new.shape[0]), int(new.shape[0] > room)


def _subset_chunks(n, k):
    """Lexicographic k-subsets of range(n) as (<= CHUNK, k) index arrays."""
    subsets = itertools.combinations(range(n), k)
    while True:
        chunk = list(itertools.islice(subsets, CHUNK))
        if not chunk:
            return
        flat = itertools.chain.from_iterable(chunk)
        yield np.fromiter(flat, np.intp, len(chunk) * k).reshape(len(chunk), k)


def enum_polytope_vertices(A, b, dedupe_tol, feas_tol, sing_tol, cap):
    """Vertices of {x : A x <= b} by brute force over d-subsets of rows.

    Each d-subset of rows is solved as an equality system (skipped when a
    pivot is <= sing_tol), the solution kept when every row satisfies
    -b_i + sum_c A_ic x_c <= feas_tol, and the first of any vertices within
    dedupe_tol of each other wins, in lexicographic subset order.  Rows of
    (A | b) should be normalized by the caller so the tolerances are
    meaningful.  Returns (vertices, overflow_flag); overflow means more than
    `cap` distinct vertices were found.
    """
    m, d = A.shape
    out = np.empty((cap, d))
    count = 0
    if m < d:
        return out[:0].copy(), 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for idx in _subset_chunks(m, d):
            M = A[idx]
            rhs = b[idx]
            singular, _ = _eliminate(M, sing_tol, rhs)
            ok = ~singular
            x = _back_substitute(M[ok], rhs[ok])
            s = np.broadcast_to(-b, (x.shape[0], m)).copy()
            for c in range(d):
                s += A[None, :, c] * x[:, c, None]
            x = x[~(s > feas_tol).any(axis=1)]
            count, overflow = _append_distinct(out, count, x, dedupe_tol)
            if overflow:
                return out[:count].copy(), 1
    return out[:count].copy(), 0


def enum_cone_facets(V, dedupe_tol, feas_tol, sing_tol, cap):
    """Facet normals of cone(V rows) from (d-1)-subsets of generators.

    Each subset of d-1 generators spans a candidate hyperplane; its normal is
    computed by cofactor expansion (sign-alternating (d-1)-minors, each a
    determinant by elimination), kept when its norm exceeds sing_tol, unit-
    normalized, oriented so every generator lies on the nonnegative side
    (within feas_tol) and de-duplicated as in enum_polytope_vertices.  Rows
    of V should be normalized by the caller.  Returns (facets,
    overflow_flag).
    """
    n, d = V.shape
    k = d - 1
    out = np.empty((cap, d))
    count = 0
    if n < k or k < 1:
        return out[:0].copy(), 0
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
            ok = nrm > sing_tol
            normal = normal[ok] / nrm[ok, None]
            s = np.zeros((normal.shape[0], n))
            for c in range(d):
                s += V[None, :, c] * normal[:, c, None]
            pos = ~(s < -feas_tol).any(axis=1)
            neg = ~(s > feas_tol).any(axis=1)
            flip = neg & ~pos
            normal[flip] = -normal[flip]
            normal = normal[pos | neg]
            count, overflow = _append_distinct(out, count, normal, dedupe_tol)
            if overflow:
                return out[:count].copy(), 1
    return out[:count].copy(), 0


def symmetry_search(V, Binv, fix, match_tol, cap):
    """Linear maps permuting the rows of V and fixing `fix`.

    Binv is the inverse of the d x d matrix whose rows are the first d
    linearly independent vertices (chosen by the caller); a candidate map is
    determined by the images of those rows, enumerated as ordered d-tuples of
    distinct vertex indices (iterative backtracking, lexicographic order).
    Returns (matrices, perms, count, overflow_flag); matrices act on column
    vectors, perms[g, i] is the image vertex index of vertex i under map g.
    """
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
