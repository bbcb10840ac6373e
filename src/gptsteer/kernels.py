"""Hot numeric loops: simplex pivoting and brute-force polyhedral searches.

The simplex keeps each decision in one place: `entering` is Bland's pricing
rule (also asked by lp after a refactorization), one ratio pass computes
each blocking row's step once, and `_pivot` is the single elimination, an
in-place rank-1 update of the tableau (dense on floats; on Fractions only
the rows with a nonzero multiplier), shared with `drive_out_artificials`.  Pricing and the ratio test stay early-exit loops,
over Python lists read off the tableau with `tolist()`: the LPs are mostly
small, numpy dispatch would cost more than it saves, and a list index is far
cheaper than fetching one numpy scalar.  The list values are the same
doubles (or Fractions), so every comparison, and with it every pivot, is
that of the tableau's own entries.  Per pivot, numpy is called only for
work on whole rows and columns, in place where it can be: the row division
and update in `_pivot`, the basic values, the entering column and the list
copies; vstat and basis stay lists for the whole phase.  A phase may pivot
only the columns before a given width when its caller rebuilds the rest:
lp's float phases, one and two, pivot only the structural columns, since
each ends in a rebuild, and its exact-rational mode runs the same
`simplex_phase` on object arrays of Fractions over every column.
`symmetry_search` walks `itertools.permutations`, works on numpy rows and
matches vertex images with `_greedy_matching`, as `systems.is_symmetry` does.
The enumerations `enum_polytope_vertices` and `enum_cone_facets` are
batched numpy: they walk the candidate subsets in lexicographic chunks and
eliminate a whole chunk at once, with the pivoting, tolerance tests and
summation order of a one-subset-at-a-time elimination, so their output
does not depend on the chunk size.  The vertex search groups the rows into
units, a row and its exact negation, and eliminates each subset of units
once for every sign pattern, one right-hand side per pattern.  Negation is
exact and, without an exact tie for a pivot, the order of a subset's rows
does not change what partial pivoting computes, so each pattern gets the
values of its own row subset.  Only a unit subset whose pivot search met a
tie is solved again, row subset by row subset; the solutions are
de-duplicated in lexicographic row-subset order, as the
one-subset-at-a-time search finds them.

Kernel conventions:
  * outputs are values: the sign of a zero is part of no kernel contract.
    A row update subtracts a signed zero where its multiplier is 0, and
    every comparison the kernels make (`<`, `>`, `==`, `|.|`) reads -0.0 as
    0.0.  `geometry` canonicalizes the vertices and facets it returns with
    `+ 0.0`, and lp reads a float tableau only after `lp._refactorize` has
    rebuilt it from the problem's data; Fractions have no signed zero;
  * the simplex returns status codes; the searches raise GuardExceeded past
    ROW_CAP rows or MAP_CAP maps, the dual-description searches also when
    the subsets they are about to eliminate pass the `eliminations` guard
    (checked before the first), and all test at COINCIDENCE on normalized
    rows;
  * no float literals inside simplex arithmetic (object-array reuse);
  * deterministic tie-breaking everywhere (lowest index / Bland).
"""

import functools
import itertools
import math

import numpy as np

from . import guards
from .errors import GuardExceeded
from .tolerances import ARTIFICIAL_PIVOT, COINCIDENCE

# Subsets (or, in the vertex search, sign patterns) per batched
# elimination: large enough to amortize numpy dispatch, small enough that
# the (CHUNK, m) feasibility sums stay within cache.
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

    Row r is divided by its pivot in place, then subtracted from every other
    row, times that row's entry in column j, as one in-place rank-1 update.
    On floats the update is dense (row r's own multiplier is 0): a row with
    a multiplier of 0 keeps its values, and only a zero entry may change
    sign.  On Fractions (exact mode) each entry costs Python arithmetic, so
    only the rows with a nonzero multiplier are updated.  Each entry gets
    the one quotient, product and difference it would get out of place, so
    working in place changes no byte.
    """
    prow = T[r, :N]
    np.divide(prow, T[r, j], out=prow)
    f = T[:, j].copy()
    f[r] = 0
    rows = f.nonzero()[0] if T.dtype == object else slice(None)
    T[rows, :N] -= np.multiply.outer(f[rows], prow)


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
    Fractions.  The basic values are updated in place on the T[:m, N]
    view, the entering column is negated only when its variable moves
    down, and vstat and basis change only as lists inside the phase and
    are written back to the arrays once, on every return.
    """
    a_block = tol * 100
    neg_block = -a_block
    vs = vstat.tolist()
    up = upper.tolist()
    bl = basis.tolist()
    xb = T[:m, N]
    code = PHASE_ITER_LIMIT
    for _ in range(max_iter):
        enter, dirn = entering(T, vs, up, cost_row, n_elig, tol)
        if enter == -1:
            code = PHASE_OPTIMAL
            break

        # Ratio test: for each blocking row, the step t >= 0 at which its
        # basic variable reaches a bound (roundoff below 0 clamped to 0).
        dcol = T[:m, enter]
        if dirn < 0:
            dcol = dirn * dcol
        col = dcol.tolist()
        rhs = xb.tolist()
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
            code = PHASE_UNBOUNDED
            break

        if t_flip < t_best:
            # Bound flip: the entering variable crosses to its other bound,
            # the basis is unchanged.
            xb -= dcol * t_flip
            vs[enter] = 1 - vs[enter]
            continue

        if vs[enter] == AT_LOWER:
            x_enter = dirn * t_best
        else:
            x_enter = up[enter] + dirn * t_best
        vs[bl[leave_row]] = AT_LOWER if col[leave_row] > 0 else AT_UPPER
        xb -= dcol * t_best
        _pivot(T, leave_row, enter, width)
        T[leave_row, N] = x_enter
        bl[leave_row] = enter
        vs[enter] = BASIC
    vstat[:] = vs
    basis[:] = bl
    return code


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


def _eliminate(M, tol, tied=None, flips=None):
    """Forward elimination with partial pivoting on a stack of blocks.

    M is (S, d, d + r): square blocks, each followed by r right-hand sides,
    reduced in place to upper-triangular form with the right-hand sides
    following the row operations.  The pivot is the first maximum of
    |column| on or below the diagonal, a block is singular once a pivot is
    <= tol, and every row below the pivot is updated, so every block and
    right-hand side gets the values of a scalar elimination (a row whose
    multiplier is 0 keeps its values; only a zero entry may change sign).
    Returns the (S,) singular mask.  `tied` and `flips`, when given, are
    (S,) bool arrays: `tied` is set where a pivot search met more than one
    maximum before the block was found singular (only there can the order
    of a block's rows change what is computed), and `flips` ends as the
    parity of the row swaps.
    """
    S, d = M.shape[:2]
    rows = np.arange(S)
    singular = np.zeros(S, dtype=bool)
    for k in range(d):
        col = np.abs(M[:, k:, k])
        q = col.argmax(axis=1)
        top = col[rows, q]
        singular |= top <= tol
        if k + 1 == d:
            break
        if tied is not None:
            tied |= ((col == top[:, None]).sum(axis=1) > 1) > singular
        if flips is not None:
            flips ^= q != 0
        p = q + k
        prow = M[rows, p]
        M[rows, p] = M[:, k]
        M[:, k] = prow
        f = M[:, k + 1:, k] / prow[:, k, None]
        below = M[:, k + 1:, k:]
        below -= f[:, :, None] * prow[:, None, k:]
    return singular


def _back_substitute(M):
    """(S, d, r): the solutions of the upper-triangular systems that
    `_eliminate` leaves in M, row by row."""
    d = M.shape[1]
    x = np.empty((M.shape[0], d, M.shape[2] - d))
    for k in range(d - 1, -1, -1):
        s = M[:, k, d:]
        for j in range(k + 1, d):
            s = s - M[:, k, j, None] * x[:, j]
        x[:, k] = s / M[:, k, k, None]
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
    if out.shape[0]:
        cand = cand[_far(cand, out).all(axis=1)]
    order = np.arange(cand.shape[0])
    near = ~_far(cand, cand) & (order[:, None] > order)   # near[j, i]: i < j
    # Candidate j is kept iff no earlier near candidate is kept, so it is
    # kept at once if it has none.  Each round settles at least the first
    # unsettled candidate; clusters of duplicates around a kept row settle
    # in one round.
    keep = ~near.any(axis=1)
    drop = np.zeros(cand.shape[0], dtype=bool)
    while not (keep | drop).all():
        open_ = ~(keep | drop)
        drop |= open_ & (near & keep).any(axis=1)
        keep |= open_ & ~(near & ~drop).any(axis=1)
    out = np.concatenate([out, cand[keep]])
    if out.shape[0] > ROW_CAP:
        raise GuardExceeded(f"{what} enumeration exceeded {ROW_CAP} rows")
    return out


def _subset_chunks(n, k, size):
    """Lexicographic k-subsets of range(n) as (<= size, k) index arrays."""
    subsets = itertools.combinations(range(n), k)
    while True:
        chunk = list(itertools.islice(subsets, size))
        if not chunk:
            return
        flat = itertools.chain.from_iterable(chunk)
        yield np.fromiter(flat, np.intp, len(chunk) * k).reshape(len(chunk), k)


def _pair_units(A):
    """Rows grouped into units: a (u, 2) array whose row k holds unit k's
    first row and its partner, the first later row not yet in a unit that
    is the first row's negation bit for bit, or -1 where there is none."""
    m, d = A.shape
    key = np.dtype((np.void, 8 * d))
    A = np.ascontiguousarray(A)
    rows = A.view(key).ravel().tolist()
    negs = (-A).view(key).ravel().tolist()
    where = {}
    for i, row in enumerate(rows):
        where.setdefault(row, []).append(i)
    taken = [False] * m
    units = []
    for i in range(m):
        if taken[i]:
            continue
        j = next((j for j in where.get(negs[i], ()) if j > i and not taken[j]),
                 -1)
        if j >= 0:
            taken[j] = True
        units.append((i, j))
    return np.array(units).reshape(-1, 2)


@functools.lru_cache(maxsize=None)
def _sign_patterns(d):
    """(2^d, d) array of 0 and 1: pattern p takes unit k's first row where
    [p, k] is 0 and its partner where it is 1.  Pattern 2^d - 1 - p is the
    complement of p.  The array is shared, so it is read-only."""
    patterns = np.array(list(itertools.product((0, 1), repeat=d)),
                        dtype=np.intp).reshape(-1, d)
    patterns.setflags(write=False)
    return patterns


def _feasible(A, b, x):
    """Mask over the points x[..., :] with -b_i + sum_c A_ic x_c <=
    COINCIDENCE for every row i, summed one column at a time."""
    s = x[..., 0, None] * A[:, 0] - b
    for c in range(1, A.shape[1]):
        s += x[..., c, None] * A[:, c]
    return ~(s > COINCIDENCE).any(axis=-1)


def _ascending(rows):
    """rows with the entries of each row in increasing order.  The stable
    sort shares its code with `np.lexsort`; numpy's default sort on
    integers would map about 0.3 MB more of the library into memory."""
    return np.sort(rows, axis=1, kind="stable")


def _row_subset_vertices(A, b, rows):
    """(rows, x) of the feasible solutions of A[r] x = b[r], r a row of
    rows, each eliminated on its own in the order r lists its rows."""
    M = np.concatenate([A[rows], b[rows][:, :, None]], axis=2)
    singular = _eliminate(M, COINCIDENCE)
    ok = ~singular
    x = _back_substitute(M[ok])[:, :, 0]
    feasible = _feasible(A, b, x)
    return rows[ok][feasible], x[feasible]


def _unit_subset_vertices(A, b, units, rhs, idx, signs, mirror):
    """[(rows, x), ...]: the feasible solutions of the sign patterns signs
    of the unit subsets idx, each with its row subset in increasing order.

    rhs[k] holds the right-hand sides of unit k's first row for either
    sign: b of the row itself, or -b of its partner.  With mirror set, the
    input is centrally symmetric (every unit has a partner with the same
    b) and signs holds half the patterns: the complement of a pattern has
    the negated solution and the same feasibility, since each row's sum
    for -x is its partner's for x.  A unit subset whose pivot search met a
    tie has each of its patterns solved again on its own row subset
    (`_row_subset_vertices`); no other solution is, whatever the signs of
    its zero coordinates."""
    d = idx.shape[1]
    M = np.concatenate([A[units[idx, 0]], rhs[idx[:, :, None], signs.T]],
                       axis=2)
    tied = np.zeros(idx.shape[0], dtype=bool)
    singular = _eliminate(M, COINCIDENCE, tied)
    ok = ~(singular | tied)
    found = []
    if ok.any():
        x = _back_substitute(M[ok]).transpose(0, 2, 1)
        s, p = np.nonzero(_feasible(A, b, x))
        x = x[s, p]
        sub, sign = idx[ok][s], signs[p]
        rows = units[sub, sign]
        if mirror:
            rows = np.concatenate([rows, units[sub, 1 - sign]])
            x = np.concatenate([x, -x])
        else:   # drop the patterns that take a missing partner
            valid = (rows >= 0).all(axis=1)
            rows, x = rows[valid], x[valid]
        found.append((_ascending(rows), x))
    if tied.any():
        again = units[idx[tied][:, None, :], _sign_patterns(d)].reshape(-1, d)
        again = again[(again >= 0).all(axis=1)]
        found.append(_row_subset_vertices(A, b, _ascending(again)))
    return found


def _before(rows, bound):
    """Mask of the index tuples (rows of rows) that come before the tuple
    bound in lexicographic order."""
    before = np.zeros(rows.shape[0], dtype=bool)
    tie = np.ones(rows.shape[0], dtype=bool)
    for c in range(rows.shape[1]):
        before |= tie & (rows[:, c] < bound[c])
        tie &= rows[:, c] == bound[c]
    return before


def _first_copies(rows, x):
    """(rows, x) less each row of x that repeats an earlier row bit for bit.
    `_append_distinct` never keeps such a repeat (the row it repeats, or
    the kept row that dropped it, is as near), so it changes nothing."""
    if x.shape[0] < 2:
        return rows, x
    bits = x.view(np.int64)
    order = np.lexsort(bits.T)      # stable: first copies first
    sorted_bits = bits[order]
    first = np.ones(order.shape[0], dtype=bool)
    first[1:] = (sorted_bits[1:] != sorted_bits[:-1]).any(axis=1)
    keep = np.zeros(order.shape[0], dtype=bool)
    keep[order[first]] = True
    return rows[keep], x[keep]


def enum_polytope_vertices(A, b):
    """Vertices of {x : A x <= b} by brute force over d-subsets of rows.

    Each d-subset of rows is solved as an equality system (skipped when a
    pivot is <= COINCIDENCE), the solution kept when every row satisfies
    -b_i + sum_c A_ic x_c <= COINCIDENCE, and the first of any vertices
    within COINCIDENCE of each other wins, in lexicographic subset order.
    Rows of (A | b) should be normalized by the caller so the tolerance is
    meaningful.

    The rows are grouped into units by `_pair_units`: a row and, where
    there is one, its exact negation.  A subset holding both rows of a
    unit is singular, so only subsets of d distinct units are solved, and
    each is eliminated once for all its sign patterns: the unit's first
    row with the right-hand side b of the row the pattern takes, or -b of
    its partner.  Negation is exact and, without an exact tie for a pivot,
    the order of the rows does not change what partial pivoting computes,
    so every pattern gets the values of its own row subset.  Only the
    patterns of a unit subset whose pivot search met a tie are solved again
    on their own row subsets, one elimination each in increasing row order.
    The output's zeros may carry either sign; `geometry.vertices_of_polytope`
    canonicalizes them with `+ 0.0`.  When every row has a partner
    with the same b, half the patterns are solved and the other half
    mirrored (`_unit_subset_vertices`).  A chunk solves at most CHUNK
    patterns, and at least one unit subset.  The feasible solutions are
    de-duplicated in the lexicographic order of their row subsets, a batch
    at a time: once at least CHUNK solutions, and twice as many as after
    the last batch, wait, those that no later chunk can precede form the
    next batch, and the others wait on, less their bit-for-bit repeats
    (`_first_copies`).
    """
    m, d = A.shape
    out = np.empty((0, d))
    if m < d:
        return out
    units = _pair_units(A)
    # rhs[k]: b of unit k's first row and -b of its partner (a unit with
    # no partner reads another row's, and its patterns are dropped)
    rhs = np.concatenate([b, -b])[units + (0, m)]
    mirror = bool((units[:, 1] >= 0).all()) and (
        rhs[:, 0].tobytes() == (-rhs[:, 1]).tobytes())
    signs = _sign_patterns(d)
    if mirror:
        signs = signs[:signs.shape[0] // 2]
    guards.check("eliminations",
                 math.comb(units.shape[0], d) * signs.shape[0])
    # Slices of an eighth chunk: most candidates then meet the vertices
    # found before them in `_append_distinct`'s first filter, not in its
    # square masks, whose float temporaries stay near 32 KB.
    step = max(1, CHUNK // 8)
    pending = [(np.empty((0, d), np.intp), out)]
    held, limit = 0, CHUNK
    chunks = _subset_chunks(units.shape[0], d, max(1, CHUNK // signs.shape[0]))
    idx = next(chunks, None)
    while idx is not None:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            found = _unit_subset_vertices(A, b, units, rhs, idx, signs,
                                          mirror)
        pending += found
        held += sum(r.shape[0] for r, _ in found)
        idx = next(chunks, None)
        if idx is not None and held < limit:
            continue
        rows, x = map(np.concatenate, zip(*pending))
        order = np.lexsort(rows.T[::-1])
        rows, x = rows[order], x[order]
        # Unit subsets come in lexicographic order and a partner row comes
        # after its first row, so no later unit subset solves a row subset
        # before the first rows of the next one: the solutions before them
        # are final.
        ready = rows.shape[0] if idx is None else np.count_nonzero(
            _before(rows, units[idx[0], 0]))
        for start in range(0, ready, step):
            out = _append_distinct(out, x[start:min(start + step, ready)],
                                   "vertex")
        pending = [_first_copies(rows[ready:], x[ready:])]
        # The next flush waits for as many again and a chunk more, so the
        # waiting solutions are sorted O(log) times each.
        held = pending[0][0].shape[0]
        limit = 2 * held + CHUNK
    return out


def _chunk_normals(V, idx, minor_cols):
    """Unit normals of the hyperplanes spanned by the subsets idx of V rows.

    Each normal is computed by cofactor expansion (sign-alternating
    (d-1)-minors, each a determinant by elimination) and kept when its norm
    exceeds COINCIDENCE, so a subset of rank below d-1 gives none.
    """
    S, d = idx.shape[0], V.shape[1]
    # Block s * d + c is the minor of subset s without column c.
    M = V[idx[:, None, :, None], minor_cols[None, :, None, :]]
    M = M.reshape(S * d, d - 1, d - 1)
    flips = np.zeros(S * d, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        singular = _eliminate(M, 0.0, flips=flips)
        # the signed product of the pivots, in elimination order
        det = M[:, 0, 0]
        for k in range(1, d - 1):
            det = det * M[:, k, k]
    normal = np.where(singular, 0.0, np.where(flips, -det, det)).reshape(S, d)
    normal[:, 1::2] = -normal[:, 1::2]
    nrm = np.zeros(S)
    for c in range(d):
        nrm = nrm + normal[:, c] * normal[:, c]
    nrm = np.sqrt(nrm)
    ok = nrm > COINCIDENCE
    return normal[ok] / nrm[ok, None]


def _normal_chunks(V):
    """`_chunk_normals` of every (d-1)-subset of V rows, chunk by chunk in
    lexicographic subset order."""
    n, d = V.shape
    k = d - 1
    if n < k or k < 1:
        return
    minor_cols = np.array([[c for c in range(d) if c != drop]
                           for drop in range(d)])
    for idx in _subset_chunks(n, k, CHUNK):
        yield _chunk_normals(V, idx, minor_cols)


def subset_normals(V):
    """Unit normals, unoriented and not de-duplicated, of the hyperplanes
    spanned by (d-1)-subsets of V rows, one per subset of rank d-1 in
    lexicographic subset order.  Rows of V should be normalized by the
    caller; the caller bounds the C(n, d-1) subsets."""
    return np.concatenate([np.empty((0, V.shape[1])), *_normal_chunks(V)])


def enum_cone_facets(V):
    """Facet normals of cone(V rows) from (d-1)-subsets of generators.

    Each subset of d-1 generators spans a candidate hyperplane whose unit
    normal `_chunk_normals` computes; it is kept when it is oriented so
    every generator lies on the nonnegative side (within COINCIDENCE),
    flipped if need be, and de-duplicated as in enum_polytope_vertices.
    Rows of V should be normalized by the caller.
    """
    n, d = V.shape
    guards.check("eliminations", math.comb(n, d - 1) if d > 1 else 0)
    out = np.empty((0, d))
    for normal in _normal_chunks(V):
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
