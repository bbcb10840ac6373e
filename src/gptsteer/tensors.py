"""Cross norms and tensor-cone membership on pairs of systems.

Two element types live here.  TensorElement is a coefficient matrix over a
pair of systems; it carries the injective/projective norm machinery and the
min/max cone tests (separability).  DichotomicTensor is the (sigma, y_1..y_g)
family behind dichotomic steering: a barycenter plus one signed component per
setting in the sigma interval {y: sigma +- y in V+}, whose vertices span
the projective sigma norm.  `systems.in_cone`, the one V+ rule of every
record, validates it on the entries (sigma +- y_x) / 2 of its assemblage.

The steering norm is the workhorse: a single LP over sign-vector-indexed cone
elements whose optimum is the norm and whose duals assemble into a Witness;
its constructor is the dominance check, so that witness is checked once.
"""

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import guards, lp, systems
from .errors import InvalidInput, NumericalFailure
from .geometry import vertices_of_polytope
from .tolerances import CERTIFICATE, COINCIDENCE


@dataclass(frozen=True, eq=False)
class TensorElement:
    """Element of the tensor product of two systems, as a coefficient matrix.

    coeffs[i, j] multiplies (basis_A_i tensor basis_B_j); rows belong to
    system_a, columns to system_b.
    """

    system_a: systems.GptSystem
    system_b: systems.GptSystem
    coeffs: np.ndarray

    def __post_init__(self):
        guards.expect(self.system_a, systems.GptSystem)
        guards.expect(self.system_b, systems.GptSystem)
        c = guards.float_array(self.coeffs, "coeffs must be finite")
        if c.shape != (self.system_a.dim, self.system_b.dim):
            raise InvalidInput(
                f"coeffs must be {self.system_a.dim} x {self.system_b.dim}, "
                f"got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise InvalidInput("coeffs must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)


def tensor_product(rho_a, rho_b):
    """Simple tensor of two vectors as a TensorElement."""
    guards.expect(rho_a, systems.Vector)
    guards.expect(rho_b, systems.Vector)
    return TensorElement(
        system_a=rho_a.system, system_b=rho_b.system,
        coeffs=np.outer(rho_a.coords, rho_b.coords))


@dataclass(frozen=True, eq=False)
class DichotomicTensor:
    """Barycenter sigma plus signed components y_1..y_g on one system.

    Valid tensors satisfy sigma +- y_x in V+ for every x, which is exactly
    membership of the (sigma, y) family in the max cone against the hypercube
    system; <unit, sigma> must be 1.  The entries (sigma +- y_x) / 2 that
    `steering.from_dichotomic_tensor` builds are decided with one
    `systems.in_cone` on their stack, no LP (sigma may lie on the
    boundary), so a tensor and its assemblage are valid together.
    InvalidInput names the first component that leaves the cone.
    """

    sigma: systems.Vector
    components: tuple

    def __post_init__(self):
        system = guards.expect(self.sigma, systems.Vector,
                               name="sigma").system
        comps = guards.items(self.components, "need at least one component")
        for x, y in enumerate(comps):
            guards.expect(y, systems.Vector, system, f"component {x}")
        if abs(systems.pair(system.unit_functional, self.sigma)
               - 1.0) > COINCIDENCE:
            raise InvalidInput("barycenter is not normalized")
        s, Y = self.sigma.coords, np.array([y.coords for y in comps])
        # one row per entry, in the assemblage's order: + then - per setting
        inside = systems.in_cone(system, np.hstack(
            [s + Y, s - Y]).reshape(-1, system.dim) * 0.5)
        if not inside.all():
            raise InvalidInput(
                f"component {int(np.argmin(inside)) // 2} leaves the cone: "
                "sigma +- y_x must stay in V+")
        object.__setattr__(self, "components", comps)

    @staticmethod
    def unchecked(sigma, components):
        """Skip validation; for internal construction of known-good tensors."""
        t = object.__new__(DichotomicTensor)
        object.__setattr__(t, "sigma", sigma)
        object.__setattr__(t, "components", tuple(components))
        return t

    @property
    def system(self):
        return self.sigma.system

    @property
    def g(self):
        return len(self.components)


def embed_dichotomic(t):
    """The (sigma, y) family as a TensorElement over hypercube(g) x system.

    Row 0 of the coefficient matrix is sigma, row x is y_x.
    """
    guards.expect(t, DichotomicTensor)
    rows = [t.sigma.coords] + [y.coords for y in t.components]
    return TensorElement(
        system_a=systems.hypercube(t.g), system_b=t.system,
        coeffs=np.stack(rows))


def injective_norm_dichotomic(t):
    """Largest sigma order-unit norm among the components."""
    system = guards.expect(t, DichotomicTensor).system
    systems.assert_interior(system, t.sigma)
    return max(
        systems.order_unit_norm(system, y, unit=t.sigma)
        for y in t.components)


def sign_vectors(g):
    """All of {+1, -1}^g in a fixed deterministic order."""
    return list(itertools.product((1, -1), repeat=g))


def local_bound(V, families):
    """sum_x max_a <h_{a|x}, v> at each row v of V; families[x] holds the
    coordinates of the h_{a|x}.  Rounded addition is monotone, so this is
    bit for bit the largest strategy sum sum_x <h_{omega(x)|x}, v>, at
    O(n sum_x k_x) cost, not O(n prod_x k_x).  Families (w_x, -w_x) give
    sum_x |<w_x, v>|, the bound a witness base must meet."""
    total = 0.0
    for family in families:
        total = total + functools.reduce(np.maximum, [V @ h for h in family])
    return total


@dataclass(frozen=True, eq=False)
class Witness:
    """Steering witness (w_1..w_g), optionally with a dominating base w_0.

    The defining condition is sum_x eps_x w_x <= w_0 for every sign vector
    eps, i.e. the base dominates every signed combination on the cone.  A
    sigma-normalized witness additionally has <w_0, sigma> = 1; classical
    two-outcome assemblages with that barycenter then satisfy
    sum_x |<w_x, y_x>| <= 1.
    """

    components: tuple
    base: Optional[systems.Functional] = None
    normalized: bool = False

    def __post_init__(self):
        comps = guards.items(self.components,
                             "witness needs at least one component")
        system = guards.expect(comps[0], systems.Functional,
                               name="witness component 0").system
        for x, w in enumerate(comps):
            guards.expect(w, systems.Functional, system,
                          f"witness component {x}")
        if self.base is not None:
            guards.expect(self.base, systems.Functional, system,
                          "witness base")
            self._check_dominance(system, comps)
        elif self.normalized:
            raise InvalidInput("a normalized witness must carry its base")
        object.__setattr__(self, "components", comps)

    def _check_dominance(self, system, comps):
        if system.kind == systems.POLYTOPIC:
            V = system.vertices
            need = local_bound(V, [(w.coords, -w.coords) for w in comps])
            have = V @ self.base.coords
            if np.min(have - need) < -CERTIFICATE:
                raise InvalidInput(
                    "base does not dominate the signed combinations")
            return
        guards.check("sign_vectors", len(comps))
        for eps in sign_vectors(len(comps)):
            combo = self.base.coords - sum(
                e * w.coords for e, w in zip(eps, comps))
            if not systems.in_dual_cone(system, system.functional(combo)):
                raise InvalidInput(
                    "base does not dominate the signed combinations")

    @property
    def system(self):
        return self.components[0].system

    @property
    def g(self):
        return len(self.components)

    def detection_value(self, target):
        """sum_x |<w_x, y_x>| against an assemblage or dichotomic tensor.

        For a sigma-normalized witness, any classical assemblage with that
        barycenter scores at most 1; a score above 1 certifies steering.
        """
        from . import steering
        if isinstance(target, steering.Assemblage):
            target = steering.to_dichotomic_tensor(target)
        if guards.expect(target, DichotomicTensor, name="target").g != self.g:
            raise InvalidInput("witness and target have different g")
        return float(sum(
            abs(systems.pair(w, y))
            for w, y in zip(self.components, target.components)))


@dataclass(frozen=True)
class SteeringNormResult:
    """Value of the steering-norm LP with its checked witness.

    `witness` is the sigma-normalized Witness (w0, w) read off the LP's
    duals: its constructor checked that sum_x eps_x w_x <= w0 on the cone
    for every sign vector, <w0, sigma> = 1, and steering_norm checked that
    sum_x <w_x, y_x> = value, both within CERTIFICATE, so its detection
    value on the tensor is the norm up to that tolerance.
    """

    value: float
    witness: Witness


def steering_norm(t):
    """Steering norm of a dichotomic tensor, with its checked witness.

    LP over phi_eps in V+ (one per sign vector eps, encoded by vertex
    weights): minimize lambda subject to sum_eps eps_x phi_eps = y_x and
    sum_eps phi_eps <= lambda sigma.
    """
    system = guards.expect(t, DichotomicTensor).system
    systems.require_polytopic(system)
    systems.assert_interior(system, t.sigma)
    guards.check("sign_vectors", t.g)

    V = system.vertices
    F = system.cone_facets
    n, d = V.shape
    g = t.g
    eps_list = sign_vectors(g)
    S = len(eps_list)
    ncols = S * n + 1

    A_eq = np.zeros((g * d, ncols))
    for s, eps in enumerate(eps_list):
        block = V.T  # d x n
        for x in range(g):
            A_eq[x * d:(x + 1) * d, s * n:(s + 1) * n] = eps[x] * block
    b_eq = np.concatenate([y.coords for y in t.components])

    FV = F @ V.T  # facet value at each vertex, >= 0
    A_ub = np.zeros((F.shape[0], ncols))
    A_ub[:, :-1] = np.tile(FV, (1, S))
    A_ub[:, -1] = -(F @ t.sigma.coords)
    b_ub = np.zeros(F.shape[0])

    obj = np.zeros(ncols)
    obj[-1] = 1.0
    out = lp.optimum(lp.LpProblem(
        objective=obj, eq_rows=A_eq, eq_rhs=b_eq, ub_rows=A_ub, ub_rhs=b_ub),
        "steering norm LP")

    value = float(out.value)
    w = tuple(
        system.functional(out.dual_eq[x * d:(x + 1) * d]) for x in range(g))
    w0_raw = -(F.T @ out.dual_ub)
    shift = 1.0 - float(w0_raw @ t.sigma.coords)
    if shift < -CERTIFICATE:
        raise NumericalFailure("steering witness normalization failed")
    w0 = system.functional(w0_raw + max(shift, 0.0) * system.unit)

    try:
        witness = Witness(components=w, base=w0, normalized=True)
    except InvalidInput as exc:
        raise NumericalFailure(
            "steering witness violates the sign condition") from exc
    attained = sum(
        float(f.coords @ y.coords) for f, y in zip(w, t.components))
    if abs(attained - value) > CERTIFICATE * (1.0 + abs(value)):
        raise NumericalFailure("steering witness does not attain the norm")
    return SteeringNormResult(value=value, witness=witness)


def _vertex_products(t):
    """The products v_i tensor w_j of the vertices of t's two polytopic
    systems as columns, pair (i, j) at column i * n_b + j; the rows
    follow t.coeffs.reshape(-1)."""
    guards.expect(t, TensorElement)
    systems.require_polytopic(t.system_a)
    systems.require_polytopic(t.system_b)
    Va, Vb = t.system_a.vertices, t.system_b.vertices
    na, nb = Va.shape[0], Vb.shape[0]
    return np.einsum("ip,jq->ijpq", Va, Vb).reshape(na * nb, -1).T


def projective_norm(t):
    """Projective cross norm of the base norms on the two systems.

    LP: minimal total |c| over representations of t as a signed combination
    of vertex products v_i tensor w_j.  At most 1 exactly when the element is
    a difference bounded inside conv(K_A x K_B) both ways; for normalized max
    cone elements, <= 1 iff separable.
    """
    cols = _vertex_products(t)
    A_eq = np.concatenate([cols, -cols], axis=1)
    b_eq = t.coeffs.reshape(-1)
    obj = np.ones(2 * cols.shape[1])
    out = lp.optimum(lp.LpProblem(objective=obj, eq_rows=A_eq, eq_rhs=b_eq),
                     "projective norm LP")
    return float(out.value)


def sigma_interval_vertices(system, sigma):
    """Vertices of the sigma interval {y: sigma +- y in V+} (the unit ball
    of the sigma order-unit norm), as a read-only array.

    The last two sigmas' vertices are kept on the system, keyed by the
    bytes of their coordinates: a Choquet-order group asks for its sigma
    and for a two-atom measure's barycenter, which may differ from sigma in
    the last bits, several times each, and an equal sigma runs no second
    enumeration.  A third distinct sigma evicts the one enumerated first.
    """
    systems.require_polytopic(system)
    key = guards.expect(sigma, systems.Vector, system).coords.tobytes()
    for cached, B in system.sigma_interval:
        if cached == key:
            return B
    F = system.cone_facets
    Fs = F @ sigma.coords
    B = vertices_of_polytope(
        np.concatenate([F, -F], axis=0), np.concatenate([Fs, Fs]))
    B.setflags(write=False)
    object.__setattr__(system, "sigma_interval",
                       ((key, B),) + system.sigma_interval[:1])
    return B


def projective_norm_dichotomic(t):
    """Projective cross norm of (y_1..y_g) in linf^g tensor (V, sigma norm).

    Columns are eps tensor b over sign vectors eps with eps_1 = +1 and vertices
    b of the sigma interval {y: sigma +- y in V+}: as B = -B and eps tensor b =
    (-eps) tensor (-b), that set is closed under negation, so the least total
    weight on its 2^(g-1) |B| columns is the norm.  Always an upper bound for
    the steering norm: column c (eps tensor b) splits into cone elements
    c/2 (sigma + b) on eps and c/2 (sigma - b) on -eps, of mass c sigma.
    """
    system = guards.expect(t, DichotomicTensor).system
    systems.require_polytopic(system)
    systems.assert_interior(system, t.sigma)
    guards.check("sign_vectors", t.g)
    B = sigma_interval_vertices(system, t.sigma)
    eps = np.array(sign_vectors(t.g)[:2 ** (t.g - 1)], dtype=np.float64)
    A_eq = np.einsum("sx,bp->xpsb", eps, B).reshape(t.g * system.dim, -1)
    b_eq = np.concatenate([y.coords for y in t.components])
    obj = np.ones(A_eq.shape[1])
    out = lp.optimum(lp.LpProblem(objective=obj, eq_rows=A_eq, eq_rhs=b_eq),
                     "projective sigma norm LP")
    return float(out.value)


def max_cone_member(t):
    """Whether t pairs nonnegatively with every product of effects."""
    guards.expect(t, TensorElement)
    EA = systems.extreme_effects(t.system_a)
    EB = systems.extreme_effects(t.system_b)
    return bool(np.min(EA @ t.coeffs @ EB.T) >= -COINCIDENCE)


@dataclass(frozen=True, eq=False)
class MinConeResult:
    """Separability verdict with a certificate either way.

    member True comes with nonnegative coefficients over vertex products
    reconstructing the element; member False comes with a witness matrix W
    that is nonnegative on every vertex product and strictly negative on the
    element.
    """

    member: bool
    coefficients: Optional[np.ndarray]
    witness: Optional[np.ndarray]


def min_cone_member(t):
    """Membership of t in the separable cone, by LP feasibility."""
    cols = _vertex_products(t)
    b_eq = t.coeffs.reshape(-1)
    out = lp.feasibility(lp.LpProblem(
        objective=np.zeros(cols.shape[1]), eq_rows=cols, eq_rhs=b_eq))
    Va, Vb = t.system_a.vertices, t.system_b.vertices
    if out.status == "optimal":
        return MinConeResult(member=True, witness=None,
                             coefficients=out.x.reshape(len(Va), len(Vb)))
    da, db = t.system_a.dim, t.system_b.dim
    W = -out.dual_eq.reshape(da, db)
    pairings = Va @ W @ Vb.T
    if pairings.min() < -CERTIFICATE or float(np.sum(W * t.coeffs)) > -1e-12:
        raise NumericalFailure("separability witness failed verification")
    return MinConeResult(member=False, coefficients=None, witness=W)
