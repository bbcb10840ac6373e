"""GPT systems: cone data, states, effects, and the four norms used everywhere.

A system is the triple (V, V+, unit): an ordered vector space of dimension d,
a pointed generating cone, and the normalizing functional whose level set
carries the state space K.  Two kinds are supported:

  * polytopic: K given by its extreme points; the facet description of V+ is
    computed at construction (brute force, guarded), so both representations
    are always available, and the facets tight on each point decide whether
    it is extreme (no LP);
  * centrally symmetric: K = {(1, x): ||x|| <= 1} for an l1/l2/linf ball norm,
    with analytic norms instead of enumerations (the qubit is the l2 ball in
    R^3 under the Bloch identification).

Vectors live in V, functionals in the dual; both carry their system so mixed
pairings fail loudly rather than silently misinterpreting coordinates.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import guards, kernels, lp
from .errors import (
    InvalidInput,
    NotInterior,
    SystemMismatch,
)
from .geometry import facets_of_cone, lex_sorted, vertices_of_polytope
from .tolerances import CERTIFICATE, COINCIDENCE, RECONSTRUCTION

POLYTOPIC = "polytopic"
CENTRALLY_SYMMETRIC = "centrally_symmetric"
BALL_NORMS = ("l1", "l2", "linf")


def _ball_norm_value(x, name):
    if name == "l1":
        return float(np.sum(np.abs(x)))
    if name == "l2":
        return float(np.linalg.norm(x))
    return float(np.max(np.abs(x))) if x.size else 0.0


def _dual_ball_name(name):
    return {"l1": "linf", "l2": "l2", "linf": "l1"}[name]


def _dual_achiever(phi, name):
    """Unit-ball point x (in the `name` ball) with <phi, x> = dual norm."""
    if name == "l2":
        n = np.linalg.norm(phi)
        return phi / n if n > 0 else np.zeros_like(phi)
    if name == "linf":
        return np.sign(phi)
    # l1 ball: best single coordinate, lowest index on ties
    if phi.size == 0 or np.all(phi == 0):
        return np.zeros_like(phi)
    k = int(np.argmax(np.abs(phi)))
    out = np.zeros_like(phi)
    out[k] = 1.0 if phi[k] >= 0 else -1.0
    return out


@dataclass(frozen=True, eq=False)
class GptSystem:
    """Immutable system data; use the factory functions below to build one."""

    kind: str
    dim: int
    vertices: Optional[np.ndarray] = None
    unit: Optional[np.ndarray] = None
    ball_norm: Optional[str] = None
    cone_facets: Optional[np.ndarray] = field(init=False, default=None)
    # the extreme effects, filled in by `extreme_effects` on first use
    effect_extremes: Optional[tuple] = field(init=False, default=None,
                                             repr=False)
    # (sigma bytes, read-only vertices) of the last two sigma intervals that
    # `tensors.sigma_interval_vertices` enumerated, the newest first
    sigma_interval: tuple = field(init=False, default=(), repr=False)

    def __post_init__(self):
        if self.kind == POLYTOPIC:
            self._init_polytopic()
        elif self.kind == CENTRALLY_SYMMETRIC:
            self._init_ball()
        else:
            raise InvalidInput(f"kind must be one of {POLYTOPIC!r}, {CENTRALLY_SYMMETRIC!r}")

    def _init_polytopic(self, facets=None):
        """Validate the vertices and store the cone facets.  `facets`, when
        given, are `facets_of_cone` of these very vertices, every one of
        which is already known to be extreme (see `polytopic_hull`)."""
        if self.vertices is None:
            raise InvalidInput("polytopic system requires vertices")
        if self.ball_norm is not None:
            raise InvalidInput("polytopic systems take no ball_norm")
        V = guards.float_array(self.vertices, "vertices must be finite")
        if V.ndim != 2 or V.shape[0] < 1:
            raise InvalidInput("vertices must form a nonempty matrix")
        if not np.all(np.isfinite(V)):
            raise InvalidInput("vertices must be finite")
        n, d = V.shape
        if d != self.dim:
            raise InvalidInput("dim does not match the vertex width")
        guards.check("dim", d)
        guards.check("vertices", n)

        if self.unit is None:
            u, res, _, _ = np.linalg.lstsq(V, np.ones(n), rcond=None)
            if np.max(np.abs(V @ u - 1.0)) > RECONSTRUCTION:
                raise InvalidInput(
                    "vertices must admit a unit functional pairing to 1 with every vertex")
        else:
            u = guards.float_array(
                self.unit, "unit must be a finite vector of length dim").reshape(-1)
            if u.shape[0] != d or not np.all(np.isfinite(u)):
                raise InvalidInput("unit must be a finite vector of length dim")
            if np.max(np.abs(V @ u - 1.0)) > RECONSTRUCTION:
                raise InvalidInput("unit must pair to 1 with every vertex")

        sv = np.linalg.svd(V, compute_uv=False)
        if sv.size < d or sv[-1] <= COINCIDENCE * sv[0]:
            raise InvalidInput("vertices must span the full space (generating cone)")

        if facets is None:
            facets = facets_of_cone(V)
            extreme = extreme_rows(V, facets)
            if not extreme.all():
                j = int(np.argmin(extreme))
                raise InvalidInput(f"vertex {j} is not an extreme point of the hull")
        if facets.shape[0] < d:
            raise InvalidInput("cone is not full-dimensional")

        V = V.copy()
        u = u.copy()
        V.setflags(write=False)
        u.setflags(write=False)
        facets.setflags(write=False)
        object.__setattr__(self, "vertices", V)
        object.__setattr__(self, "unit", u)
        object.__setattr__(self, "cone_facets", facets)

    def _init_ball(self):
        if self.ball_norm not in BALL_NORMS:
            raise InvalidInput(f"ball_norm must be one of {BALL_NORMS}")
        if not guards.is_integer(self.dim) or self.dim < 2:
            raise InvalidInput("centrally symmetric systems need dim >= 2")
        if self.vertices is not None:
            raise InvalidInput("centrally symmetric systems take no vertices")
        with guards.allocation(f"dimension {self.dim}"):
            e0 = np.zeros(self.dim)
        e0[0] = 1.0
        if self.unit is not None:
            u = guards.float_array(self.unit, "centrally symmetric unit must "
                                   "be the first coordinate functional").reshape(-1)
            if u.shape[0] != self.dim or np.max(np.abs(u - e0)) > 1e-12:
                raise InvalidInput(
                    "centrally symmetric unit must be the first coordinate functional")
        e0.setflags(write=False)
        object.__setattr__(self, "unit", e0)

    # -- convenience accessors -------------------------------------------

    @property
    def n_vertices(self):
        return 0 if self.vertices is None else self.vertices.shape[0]

    def vector(self, coords):
        return Vector(coords, self)

    def functional(self, coords):
        return Functional(coords, self)

    @cached_property
    def unit_functional(self):
        """The unit as a Functional, built on first read and kept."""
        return Functional(self.unit, self)

    @property
    def barycenter(self):
        if self.kind == POLYTOPIC:
            return self.vector(self.vertices.mean(axis=0))
        c = np.zeros(self.dim)
        c[0] = 1.0
        return self.vector(c)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GptSystem):
            return NotImplemented
        if self.kind != other.kind or self.dim != other.dim:
            return False
        if self.kind == CENTRALLY_SYMMETRIC:
            return self.ball_norm == other.ball_norm
        if self.n_vertices != other.n_vertices:
            return False
        # vertex order is a construction detail, not part of the system;
        # the unit may carry solver noise when inferred, so compare loosely
        return (np.allclose(lex_sorted(self.vertices),
                            lex_sorted(other.vertices), atol=COINCIDENCE)
                and np.allclose(self.unit, other.unit, atol=COINCIDENCE))

    def __repr__(self):
        if self.kind == CENTRALLY_SYMMETRIC:
            return f"GptSystem({self.ball_norm} ball, dim={self.dim})"
        return f"GptSystem(polytopic, dim={self.dim}, vertices={self.n_vertices})"


def _coerce(coords, dim, what):
    if type(coords) is not np.ndarray or coords.dtype != np.float64:
        coords = guards.float_array(coords, f"{what} coordinates must be finite")
    c = coords.reshape(-1)
    if c.shape[0] != dim:
        raise InvalidInput(f"{what} coordinates must have length {dim}")
    if not np.all(np.isfinite(c)):
        raise InvalidInput(f"{what} coordinates must be finite")
    c = c.copy()
    c.setflags(write=False)
    return c


@dataclass(frozen=True, eq=False)
class _Element:
    """Coordinates tagged with their system.  The two subclasses, Vector and
    Functional, are the tags: arithmetic stays within one, and `tag` names
    it in error messages."""

    coords: np.ndarray
    system: GptSystem

    def __post_init__(self):
        object.__setattr__(self, "coords", _coerce(self.coords, self.system.dim, self.tag))

    def _same(self, other):
        if not isinstance(other, type(self)):
            raise InvalidInput(f"{self.tag} arithmetic requires another {self.tag}")
        if self.system != other.system:
            raise SystemMismatch(f"{self.tag}s belong to different systems")

    def __add__(self, other):
        self._same(other)
        return type(self)(self.coords + other.coords, self.system)

    def __sub__(self, other):
        self._same(other)
        return type(self)(self.coords - other.coords, self.system)

    def __neg__(self):
        return type(self)(-self.coords, self.system)

    def __mul__(self, a):
        return type(self)(self.coords * guards.real_float(
            a, f"a {self.tag} scales by a real number only"), self.system)

    __rmul__ = __mul__


class Vector(_Element):
    """Element of V, tagged with its system."""

    tag = "vector"


class Functional(_Element):
    """Element of the dual space A = V*, tagged with its system."""

    tag = "functional"

    def pair(self, v):
        return pair(self, v)


def pair(f, v):
    """Dual pairing <f, v>; rejects mixed systems."""
    guards.expect(f, Functional)
    return float(f.coords @ guards.expect(v, Vector, f.system).coords)


# -- factories ------------------------------------------------------------


def extreme_rows(V, facets):
    """Mask of the rows of V that span extreme rays of cone(V).

    `facets` are the unit facet normals of that cone (`facets_of_cone(V)`).
    A row spans an extreme ray iff the facets tight on it, judged on the
    unit-normalized row as the facet search judges generators, have rank
    d - 1; a row repeating an earlier one within COINCIDENCE is not kept.
    """
    n, d = V.shape
    Vn = V / np.linalg.norm(V, axis=1)[:, None]
    tight = np.abs(Vn @ facets.T) <= COINCIDENCE
    keep = np.zeros(n, dtype=bool)
    for j in range(n):
        if j and np.any(np.max(np.abs(V[:j] - V[j]), axis=1) <= COINCIDENCE):
            continue
        F = facets[tight[j]]
        rank = np.linalg.matrix_rank(F, tol=COINCIDENCE) if F.shape[0] else 0
        keep[j] = rank == d - 1
    return keep


def mirror_representatives(rows):
    """Mask of one row per +-pair: its first entry beyond +-COINCIDENCE is > 0."""
    lead = np.argmax(np.abs(rows) > COINCIDENCE, axis=1)
    return rows[np.arange(rows.shape[0]), lead] > COINCIDENCE


def polytopic(vertices, unit=None):
    """System from the extreme points of K (each row one vertex)."""
    V = guards.float_array(vertices, "vertices must be finite")
    if V.ndim != 2:
        raise InvalidInput("vertices must form a matrix")
    return GptSystem(kind=POLYTOPIC, dim=V.shape[1], vertices=V, unit=unit)


def polytopic_hull(points, unit=None):
    """Like `polytopic`, but non-extreme and repeated points are pruned first.

    The facets of cone(points) decide which points to keep, so the input
    count is held to the `vertices` guard: the facet search is combinatorial
    in it.
    """
    P = guards.float_array(points, "points must form a nonempty matrix")
    if P.ndim != 2 or P.shape[0] < 1:
        raise InvalidInput("points must form a nonempty matrix")
    guards.check("vertices", P.shape[0])
    facets = facets_of_cone(P)
    keep = extreme_rows(P, facets)
    if not keep.all():
        return polytopic(P[keep], unit=unit)
    # Nothing pruned: the system's vertices are P itself, so its facet
    # search would repeat this one.
    system = object.__new__(GptSystem)
    for name, value in (("kind", POLYTOPIC), ("dim", P.shape[1]),
                        ("vertices", P), ("unit", unit), ("ball_norm", None)):
        object.__setattr__(system, name, value)
    system._init_polytopic(facets)
    return system


def simplex(k):
    """Classical system with k pure states (the probability simplex)."""
    guards.count(k, 1, "simplex needs an integer k >= 1")
    guards.check("dim", k)
    guards.check("vertices", k)
    return polytopic(np.eye(k), unit=np.ones(k))


def hypercube(g):
    """Polytopic l-infinity ball system in R^(g+1): vertices (1, signs)."""
    guards.count(g, 1, "hypercube needs an integer g >= 1")
    guards.check("dim", g + 1)
    guards.check("vertices", 2 ** g)
    rows = []
    for idx in range(2 ** g):
        eps = [1.0 if (idx >> b) & 1 == 0 else -1.0 for b in range(g)]
        rows.append([1.0] + eps)
    unit = np.zeros(g + 1)
    unit[0] = 1.0
    return polytopic(np.array(rows), unit=unit)


def square():
    """The square state space: hypercube with two sign coordinates."""
    return hypercube(2)


def cross_polytope(n):
    """Polytopic l1 ball system in R^(n+1): vertices (1, +-e_i)."""
    guards.count(n, 1, "cross polytope needs an integer n >= 1")
    guards.check("dim", n + 1)
    guards.check("vertices", 2 * n)
    rows = []
    for i in range(n):
        for s in (1.0, -1.0):
            e = np.zeros(n)
            e[i] = s
            rows.append(np.concatenate([[1.0], e]))
    unit = np.zeros(n + 1)
    unit[0] = 1.0
    return polytopic(np.array(rows), unit=unit)


def ball(n, norm="l2"):
    """Centrally symmetric ball system in R^(n+1) (n=3, l2: the qubit)."""
    guards.count(n, 1, "ball needs an integer n >= 1")
    return GptSystem(kind=CENTRALLY_SYMMETRIC, dim=int(n) + 1, ball_norm=norm)


def regular_polygon(m):
    """Polytopic disk approximation: m unit-circle vertices in R^3."""
    guards.count(m, 3, "polygon needs an integer m >= 3")
    guards.check("vertices", m)
    ang = 2.0 * np.pi * np.arange(m) / m
    V = np.column_stack([np.ones(m), np.cos(ang), np.sin(ang)])
    return polytopic(V, unit=np.array([1.0, 0.0, 0.0]))


# -- membership and norms -------------------------------------------------


def require_polytopic(system):
    """system, once it is a polytopic GptSystem; InvalidInput otherwise."""
    if guards.expect(system, GptSystem).kind != POLYTOPIC:
        raise InvalidInput("operation requires a polytopic system")
    return system


def assert_interior(system, sigma):
    """Raise NotInterior unless sigma lies strictly inside V+."""
    guards.expect(sigma, Vector, system)
    if system.kind == POLYTOPIC:
        vals = system.cone_facets @ sigma.coords
        scale = 1.0 + float(np.max(np.abs(vals)))
        if float(np.min(vals)) <= COINCIDENCE * scale:
            raise NotInterior("sigma must pair strictly positively with every cone facet")
    else:
        s = float(sigma.coords[0])
        r = _ball_norm_value(sigma.coords[1:], system.ball_norm)
        if r >= s - COINCIDENCE * (1.0 + abs(s)):
            raise NotInterior("sigma must lie strictly inside the ball cone")


def is_center(system, sigma):
    guards.expect(sigma, Vector, system)
    c = np.zeros(system.dim)
    c[0] = 1.0
    return float(np.max(np.abs(sigma.coords - c))) <= COINCIDENCE


def _require_center(system, sigma):
    if not is_center(system, sigma):
        raise InvalidInput(
            "centrally symmetric norms are implemented at the center state only")


@dataclass(frozen=True)
class ConeMembership:
    member: bool
    coefficients: Optional[np.ndarray]
    separator: Optional[np.ndarray]


def in_cone(system, v):
    """Decide v in V+ without an LP and without a certificate.

    Polytopic systems test min(F v) >= -COINCIDENCE * (1 + max |F v|) on
    the cached unit facets F; balls test the closed form ||x|| <= t within
    COINCIDENCE * (1 + |t|).  For callers that read only the yes/no answer;
    `cone_member` returns coefficients or a separator.
    """
    guards.expect(v, Vector, system)
    if system.kind == CENTRALLY_SYMMETRIC:
        t = float(v.coords[0])
        r = _ball_norm_value(v.coords[1:], system.ball_norm)
        return r <= t + COINCIDENCE * (1.0 + abs(t))
    vals = system.cone_facets @ v.coords
    scale = 1.0 + float(np.max(np.abs(vals)))
    return float(np.min(vals)) >= -COINCIDENCE * scale


def cone_member(system, v):
    """Decide v in V+ with a certificate either way.

    Membership comes with vertex coefficients (polytopic; None for balls),
    rejection with a functional nonnegative on V+ and negative on v.
    """
    guards.expect(v, Vector, system)
    if system.kind == CENTRALLY_SYMMETRIC:
        if in_cone(system, v):
            return ConeMembership(True, None, None)
        phi = _dual_achiever(v.coords[1:], system.ball_norm)
        return ConeMembership(False, None, np.concatenate([[1.0], -phi]))
    prob = lp.LpProblem(
        np.zeros(system.n_vertices),
        eq_rows=system.vertices.T,
        eq_rhs=v.coords,
    )
    out = lp.feasibility(prob)
    if out.status == "optimal":
        return ConeMembership(True, out.x, None)
    return ConeMembership(False, None, -out.dual_eq)


def base_norm(system, v):
    """||v||_V: minimal total unit mass over decompositions v+ - v- in V+,
    by LP (the dual envelope needs the C(2n, dim) effect enumeration)."""
    guards.expect(v, Vector, system)
    if system.kind == CENTRALLY_SYMMETRIC:
        return max(abs(float(v.coords[0])),
                   _ball_norm_value(v.coords[1:], system.ball_norm))
    n = system.n_vertices
    prob = lp.LpProblem(
        np.ones(2 * n),
        eq_rows=np.hstack([system.vertices.T, -system.vertices.T]),
        eq_rhs=v.coords,
    )
    # The cone is generating, so the LP is feasible and bounded below by 0.
    return float(lp.optimum(prob, "base norm LP").value)


def order_unit_norm(system, f, unit=None):
    """min lambda with lambda*unit +- f in the cone.

    Both arguments Functionals: the cone is A+ (unit defaults to the system
    unit).  Both Vectors: the cone is V+ and `unit` is the reference state
    sigma, giving the sigma order-unit norm on V.
    """
    if isinstance(f, Functional):
        guards.expect(f, Functional, system)
        unit = guards.expect(system.unit_functional if unit is None else unit,
                             Functional, system, "unit")
        if system.kind == CENTRALLY_SYMMETRIC:
            e0 = np.zeros(system.dim)
            e0[0] = 1.0
            if np.max(np.abs(unit.coords - e0)) > 1e-12:
                raise InvalidInput(
                    "centrally symmetric dual norms are implemented at the canonical unit")
            return abs(float(f.coords[0])) + _ball_norm_value(
                f.coords[1:], _dual_ball_name(system.ball_norm))
        den = system.vertices @ unit.coords
        scale = 1.0 + float(np.max(np.abs(den)))
        if float(np.min(den)) <= COINCIDENCE * scale:
            raise NotInterior("unit must pair strictly positively with every vertex")
        num = np.abs(system.vertices @ f.coords)
        return float(np.max(num / den))
    if isinstance(f, Vector):
        guards.expect(f, Vector, system)
        assert_interior(system, unit)
        if system.kind == CENTRALLY_SYMMETRIC:
            _require_center(system, unit)
            return abs(float(f.coords[0])) + _ball_norm_value(
                f.coords[1:], system.ball_norm)
        den = system.cone_facets @ unit.coords
        num = np.abs(system.cone_facets @ f.coords)
        return float(np.max(num / den))
    raise InvalidInput("order_unit_norm expects a Functional or a Vector")


def sigma_base_norm(system, h, sigma):
    """||h||^sigma = max <h, y> over -sigma <= y <= sigma; returns (value, y*)."""
    guards.expect(h, Functional, system)
    assert_interior(system, sigma)
    if system.kind == CENTRALLY_SYMMETRIC:
        _require_center(system, sigma)
        t = float(h.coords[0])
        phi = h.coords[1:]
        dual = _ball_norm_value(phi, _dual_ball_name(system.ball_norm))
        if abs(t) >= dual:
            y = np.zeros(system.dim)
            y[0] = 1.0 if t >= 0 else -1.0
            return abs(t), system.vector(y)
        x = _dual_achiever(phi, system.ball_norm)
        return dual, system.vector(np.concatenate([[0.0], x]))
    F = system.cone_facets
    rhs = F @ sigma.coords
    prob = lp.LpProblem(
        -h.coords,
        ub_rows=np.vstack([F, -F]),
        ub_rhs=np.concatenate([rhs, rhs]),
        lower=np.full(system.dim, -np.inf),
    )
    # After assert_interior the interval is bounded and contains 0.
    out = lp.optimum(prob, "sigma base norm LP")
    return float(-out.value), system.vector(out.x)


def extreme_effects(system):
    """All extreme points of the effect interval {0 <= f <= unit}, as a
    tuple enumerated once per system and kept on it."""
    require_polytopic(system)
    if system.effect_extremes is None:
        V = system.vertices
        n = V.shape[0]
        A = np.vstack([V, -V])
        b = np.concatenate([np.ones(n), np.zeros(n)])
        pts = vertices_of_polytope(A, b)
        object.__setattr__(system, "effect_extremes",
                           tuple(system.functional(p) for p in pts))
    return system.effect_extremes


def is_effect(system, f):
    guards.expect(f, Functional, system)
    if system.kind == CENTRALLY_SYMMETRIC:
        t = float(f.coords[0])
        r = _ball_norm_value(f.coords[1:], _dual_ball_name(system.ball_norm))
        return r <= t + COINCIDENCE and r <= (1.0 - t) + COINCIDENCE
    vals = system.vertices @ f.coords
    return (float(np.min(vals)) >= -COINCIDENCE
            and float(np.max(vals)) <= 1.0 + COINCIDENCE)


def in_dual_cone(system, f):
    """Whether f is nonnegative on every state, up to CERTIFICATE."""
    guards.expect(f, Functional, system)
    if system.kind == CENTRALLY_SYMMETRIC:
        t = float(f.coords[0])
        r = _ball_norm_value(f.coords[1:], _dual_ball_name(system.ball_norm))
        return r <= t + CERTIFICATE
    return float(np.min(system.vertices @ f.coords)) >= -CERTIFICATE


@dataclass(frozen=True, eq=False)
class Measurement:
    """Finite-outcome measurement: effects summing to the unit."""

    effects: tuple

    def __post_init__(self):
        effects = guards.items(self.effects,
                               "measurement needs at least one effect")
        system = guards.expect(effects[0], Functional).system
        total = np.zeros(system.dim)
        for i, f in enumerate(effects):
            guards.expect(f, Functional, system)
            if not is_effect(system, f):
                raise InvalidInput(f"effect {i} is outside the effect interval")
            total = total + f.coords
        if np.max(np.abs(total - system.unit)) > COINCIDENCE:
            raise InvalidInput("effects must sum to the unit functional")
        object.__setattr__(self, "effects", effects)

    @property
    def system(self):
        return self.effects[0].system

    @property
    def n_outcomes(self):
        return len(self.effects)


def dichotomic_measurement(system, f):
    """The pair (f, unit - f) for an effect f."""
    guards.expect(f, Functional, system)
    return Measurement((f, system.unit_functional - f))


def is_symmetry(system, mat):
    """True iff `mat` permutes the vertex set (acting on column vectors)."""
    require_polytopic(system)
    M = guards.float_array(mat, "a symmetry must be a matrix of real numbers")
    if M.shape != (system.dim, system.dim):
        return False
    images = system.vertices @ M.T
    # the matcher reads NaN as near, but a non-finite image is no vertex
    if not np.all(np.isfinite(images)):
        return False
    return kernels._greedy_matching(images, system.vertices) is not None


def symmetries(system, fix=None):
    """All linear maps permuting the vertices and fixing `fix` (barycenter
    by default, which every vertex permutation fixes automatically)."""
    require_polytopic(system)
    n = system.n_vertices
    guards.check("symmetry_vertices", n)
    fix_coords = (system.vertices.mean(axis=0) if fix is None
                  else guards.expect(fix, Vector, system).coords)
    V = system.vertices
    rows = []
    for i in range(n):
        cand = rows + [V[i]]
        s = np.linalg.svd(np.array(cand), compute_uv=False)
        if s[-1] > COINCIDENCE * s[0]:
            rows.append(V[i])
        if len(rows) == system.dim:
            break
    if len(rows) < system.dim:
        raise InvalidInput("vertices must span the full space (generating cone)")
    Binv = np.linalg.inv(np.array(rows))
    return kernels.symmetry_search(V, Binv, fix_coords)


# -- JSON ------------------------------------------------------------------


def system_to_payload(system):
    out = {"kind": system.kind, "dim": system.dim}
    if system.kind == POLYTOPIC:
        out["vertices"] = [list(map(float, row)) for row in system.vertices]
    else:
        out["ball_norm"] = system.ball_norm
    out["unit"] = list(map(float, system.unit))
    return out


def payload_floats(raw, what):
    """A JSON payload value as a float array (`guards.float_array`);
    InvalidInput when it is not numbers (a string, a bool, null, a ragged
    list)."""
    return guards.float_array(raw, f"{what} must be numbers")


def _payload_dim(payload):
    if not guards.is_integer(payload["dim"]):
        raise InvalidInput("dim must be an integer")
    return payload["dim"]


def system_from_payload(payload):
    if not isinstance(payload, dict):
        raise InvalidInput("system payload must be a JSON object")
    kind = payload.get("kind")
    unit = (None if payload.get("unit") is None
            else payload_floats(payload["unit"], "unit"))
    if kind == POLYTOPIC:
        if "vertices" not in payload:
            raise InvalidInput("polytopic system requires vertices")
        sys_ = polytopic(payload_floats(payload["vertices"], "vertices"),
                         unit=unit)
    elif kind == CENTRALLY_SYMMETRIC:
        if "ball_norm" not in payload:
            raise InvalidInput("centrally symmetric system requires ball_norm")
        if "dim" not in payload:
            raise InvalidInput("centrally symmetric system requires dim")
        sys_ = GptSystem(kind=CENTRALLY_SYMMETRIC, dim=_payload_dim(payload),
                         ball_norm=payload["ball_norm"], unit=unit)
    else:
        raise InvalidInput(f"kind must be one of {POLYTOPIC!r}, {CENTRALLY_SYMMETRIC!r}")
    if "dim" in payload and _payload_dim(payload) != sys_.dim:
        raise InvalidInput("dim does not match the vertex width")
    return sys_
