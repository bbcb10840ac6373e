"""Assemblages, hidden-state certification, robustness, and witnesses.

An assemblage is a finite family of subnormalized states rho_{a|x} sharing a
barycenter sigma.  The central question is whether it admits a hidden-state
model (an ensemble plus response functions); `lhs_check` decides it by LP
over deterministic strategies and returns either the model or a certificate
of steering (a one-setting assemblage is classical in closed form, its
entries its own hidden states); the model's responses are frozen arrays,
one per setting.
`Assemblage` decides its entries in V+ with `systems.in_cone`, no LP, and
`LhsModel` its hidden states' shares the same way.
Robustness measures how much trivial noise the assemblage tolerates before
turning classical: 1 for a one-setting assemblage on any system, and for
two-outcome assemblages the reciprocal of the
steering norm (on l1 and linf balls, of a polytopic twin built once; on
the l2 disk, bracketed by two polygons built once), and
other shapes bisect over mixtures whose entries are built from coordinates,
each still checked by one `cone_member` LP, which from the second step on
starts from the basis that decided the same entry one step before: the
one record check left that is not `systems.in_cone`.

The measurement side of the duality lives here too: a family of measurements
on a system becomes an assemblage on the dual system, and joint
measurability becomes the hidden-state question for that assemblage.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import guards, lp, systems, tensors
from .errors import (GuardExceeded, InvalidInput, NotDichotomic,
                     NumericalFailure)
from .tensors import Witness
from .tolerances import (BISECTION_WIDTH, CERTIFICATE, COINCIDENCE, RECONSTRUCTION,
                         SPATIAL_RANK, STATE_NORMALIZATION, WITNESS_RESCALE)

_DISK_VERTICES = 64   # of each polygon bracketing the l2 disk


@dataclass(frozen=True, eq=False)
class Assemblage:
    """Family of subnormalized states rho_{a|x} with common barycenter.

    entries[x][a] is the state steered to by outcome a of setting x; every
    entry lies in V+ and each setting's outcomes sum to the barycenter.

    Every builder's entries are decided by `systems.in_cone`, stacked into
    one facet product (the closed form on balls), no LP: direct
    construction (the CLI's assemblage input too), `mixed_with_trivial`,
    `trivial_assemblage`, `measurements_to_assemblage`,
    `from_dichotomic_tensor`, `bipartite.conditional_assemblage` and
    `sampling.random_classical_assemblage`.  The one exception is the
    mixtures of the `robustness` bisection, decided by one warm-started
    `cone_member` LP per entry.
    """

    barycenter: systems.Vector
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", _checked_rows(
            self.barycenter, self.entries))

    @property
    def system(self):
        return self.barycenter.system

    @property
    def shape(self):
        return tuple(len(row) for row in self.entries)

    @property
    def g(self):
        return len(self.entries)


def _assemblage(barycenter, entries, bases):
    """An Assemblage whose entries `_checked_rows` decides by the warm
    `cone_member` LPs of `bases`."""
    asm = object.__new__(Assemblage)
    object.__setattr__(asm, "barycenter", barycenter)
    object.__setattr__(asm, "entries", _checked_rows(
        barycenter, entries, bases))
    return asm


def _checked_rows(barycenter, entries, bases=None):
    """The entries as a tuple of tuples, checked as `Assemblage` states;
    their cone membership by one `systems.in_cone` on the stacked entries,
    or with a dict `bases` (polytopic systems) by a `cone_member` LP per
    entry that starts from bases[x, a] and leaves there the basis that
    decided it."""
    system = guards.expect(barycenter, systems.Vector,
                           name="barycenter").system
    rows = tuple(guards.items(row, f"setting {x} has no outcomes")
                 for x, row in enumerate(guards.items(
                     entries, "assemblage needs at least one setting")))
    if abs(systems.pair(system.unit_functional, barycenter)
           - 1.0) > COINCIDENCE:
        raise InvalidInput("barycenter is not normalized")
    labels = [(a, x) for x, row in enumerate(rows) for a in range(len(row))]
    for a, x in labels:
        guards.expect(rows[x][a], systems.Vector, system, f"entry ({a}|{x})")
    if bases is None:
        inside = systems.in_cone(system, np.array(
            [rho.coords for row in rows for rho in row]))
    else:
        inside = []
        for a, x in labels:
            member, bases[x, a] = systems._cone_member_from(
                system, rows[x][a], bases.get((x, a)))
            inside.append(member.member)
    if not all(inside):
        a, x = labels[list(inside).index(False)]
        raise InvalidInput(f"entry ({a}|{x}) is outside V+")
    for x, row in enumerate(rows):
        total = np.add.reduce([rho.coords for rho in row])
        if np.max(np.abs(total - barycenter.coords)) > RECONSTRUCTION:
            raise InvalidInput(
                f"setting {x} outcomes do not sum to the barycenter")
    return rows


def trivial_assemblage(sigma, shape):
    """The assemblage rho_{a|x} = sigma / k_x, classical for any sigma;
    `Assemblage` decides each entry with `systems.in_cone`, no LP."""
    shape = guards.items(shape, "shape must list integer outcome counts")
    if not all(map(guards.is_integer, shape)):
        raise InvalidInput("shape must list integer outcome counts")
    entries = tuple(
        tuple(sigma * (1.0 / k) for _ in range(k)) for k in shape)
    return Assemblage(barycenter=sigma, entries=entries)


def mixed_with_trivial(asm, s):
    """Mix s of the assemblage with 1 - s of the trivial one (same sigma).

    Entries are built from coordinates; `Assemblage` decides each with
    `systems.in_cone`, no LP."""
    s = guards.real_float(s, "mixing weight must be a real number in [0, 1]")
    if not 0.0 <= s <= 1.0:
        raise InvalidInput("mixing weight must be a real number in [0, 1]")
    return Assemblage(barycenter=guards.expect(asm, Assemblage).barycenter,
                      entries=_mixture(asm, s))


def _mixture(asm, s):
    """The entries s rho_{a|x} + (1 - s) sigma / k_x, from coordinates."""
    sigma = asm.barycenter
    return tuple(
        tuple(sigma.system.vector(
            rho.coords * s + sigma.coords * ((1.0 - s) / len(row)))
            for rho in row)
        for row in asm.entries)


def to_dichotomic_tensor(asm):
    """The (sigma, y) family of a two-outcome assemblage, y_x = rho+ - rho-.

    Outcome index 0 plays the "+" role.  The tensor is built with
    `DichotomicTensor.unchecked`.  Were each setting's entries to sum to
    sigma exactly, sigma +- y_x = 2 rho_{-/+|x} would lie in the cone; but
    `Assemblage` holds the sums to sigma only within RECONSTRUCTION, while
    `systems.in_cone` decides within COINCIDENCE.  When a sum misses sigma
    by more than COINCIDENCE, the tensor, and the assemblage
    `from_dichotomic_tensor` rebuilds from it, can fail the cone check.
    """
    if any(k != 2 for k in guards.expect(asm, Assemblage).shape):
        raise NotDichotomic(
            "dichotomic reduction needs two outcomes per setting, "
            f"got shape {asm.shape}")
    comps = tuple(row[0] - row[1] for row in asm.entries)
    return tensors.DichotomicTensor.unchecked(asm.barycenter, comps)


def from_dichotomic_tensor(t):
    """Inverse of to_dichotomic_tensor: rho_{+-|x} = (sigma +- y_x) / 2.

    These entries are the vectors `DichotomicTensor` decides with
    `systems.in_cone`, so a valid tensor gives a valid assemblage;
    `Assemblage` decides them again, so a tensor built with
    `DichotomicTensor.unchecked` is checked too.
    """
    guards.expect(t, tensors.DichotomicTensor)
    return Assemblage(t.sigma, tuple(
        ((t.sigma + y) * 0.5, (t.sigma - y) * 0.5) for y in t.components))


@dataclass(frozen=True, eq=False)
class LhsModel:
    """Hidden-state model: ensemble (q(omega), rho_omega) plus responses.

    responses[omega][x][a] is the probability of reporting outcome a for
    setting x when the hidden state is omega; models built by lhs_check are
    deterministic.  Zero-weight strategies are dropped from the ensemble
    (their responses would be the uniform 1/k_x by convention).  Each
    hidden state's share q(omega) rho_omega, the scale at which lhs_check
    builds it, is decided in V+ with `systems.in_cone`.  The model
    is frozen: by_setting[x] is a read-only copy of setting x's responses,
    one row per hidden state, and responses[omega][x] is its row omega.
    """

    weights: np.ndarray
    states: tuple
    responses: tuple
    by_setting: tuple = field(init=False, repr=False)

    def __post_init__(self):
        w = guards.float_array(
            self.weights, "ensemble weights must be real numbers").reshape(-1)
        align = "ensemble, states and responses must align"
        states = guards.items(self.states, align)
        rows = tuple(guards.items(row, align)
                     for row in guards.items(self.responses, align))
        if not (w.size == len(states) == len(rows)) or w.size < 1 \
                or any(len(row) != len(rows[0]) for row in rows):
            raise InvalidInput(align)
        by_setting = tuple(guards.float_array(
            [row[x] for row in rows],
            f"responses to setting {x} must be rows of real numbers")
            for x in range(len(rows[0])))
        if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise InvalidInput("ensemble weights must be positive")
        if abs(float(np.sum(w)) - 1.0) > RECONSTRUCTION:
            raise InvalidInput("ensemble weights must sum to 1")
        system = guards.expect(states[0], systems.Vector,
                               name="hidden state 0").system
        unit = system.unit_functional
        for j, rho in enumerate(states):
            guards.expect(rho, systems.Vector, system, f"hidden state {j}")
            if abs(systems.pair(unit, rho) - 1.0) > STATE_NORMALIZATION:
                raise InvalidInput("hidden states must be normalized")
        inside = systems.in_cone(
            system, w[:, None] * np.array([rho.coords for rho in states]))
        if not inside.all():
            raise InvalidInput(
                f"hidden state {int(np.argmin(inside))} is outside V+")
        # Written so that NaN fails each test.
        for R in by_setting:
            if R.ndim != 2:
                raise InvalidInput(align)
            if not (np.all(R >= -1e-12) and np.all(R <= 1.0 + 1e-12)):
                raise InvalidInput("responses must lie in [0, 1]")
            if not np.all(np.abs(np.sum(R, axis=1) - 1.0) <= COINCIDENCE):
                raise InvalidInput("responses must sum to 1 per setting")
            R.flags.writeable = False
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "by_setting", by_setting)
        object.__setattr__(self, "responses", tuple(
            tuple(R[j] for R in by_setting) for j in range(w.size)))

    @property
    def system(self):
        return self.states[0].system

    def reconstruction_error(self, asm):
        """Largest coordinate deviation of the model from the assemblage
        (each entry adds its strategies' terms left to right)."""
        if len(self.by_setting) != guards.expect(
                asm, Assemblage, self.system).g or any(
                R.shape[1] != k for R, k in zip(self.by_setting, asm.shape)):
            raise InvalidInput("model responses do not match the shape")
        S = np.array([rho.coords for rho in self.states])
        worst = 0.0
        for R, row in zip(self.by_setting, asm.entries):
            acc = np.add.reduce(
                (self.weights[:, None] * R)[:, :, None] * S[:, None, :], axis=0)
            worst = max(worst, float(np.max(np.abs(
                acc - np.array([rho.coords for rho in row])))))
        return worst


@dataclass(frozen=True)
class LhsVerdict:
    """Outcome of lhs_check: a model when classical, certificates when not.

    For steerable two-outcome assemblages `witness` is a sigma-normalized
    Witness with detection value above 1; for general shapes `functionals`
    holds the family h_{a|x} that is nonpositive on every deterministic
    strategy yet pairs positively with the assemblage (`violation`).
    """

    classical: bool
    model: Optional[LhsModel] = None
    witness: Optional[Witness] = None
    functionals: Optional[tuple] = None
    violation: Optional[float] = None


def lhs_check(asm):
    """Decide whether the assemblage has a hidden-state model.

    The LP searches cone elements phi_omega, one per deterministic strategy
    omega (a joint choice of outcome for every setting), reproducing each
    rho_{a|x} as the sum of phi_omega over strategies answering a at x.
    Feasible: the normalized phi_omega are the hidden states.  Infeasible:
    the Farkas dual supplies the steering certificate.  A one-setting
    assemblage needs no LP: it is classical, its entries being their own
    hidden states (phi_a = rho_a, weights <u, rho_a>), and its model is
    checked as the LP's is.
    """
    system = systems.require_polytopic(guards.expect(asm, Assemblage).system)
    shape = asm.shape
    n_atoms = math.prod(shape)
    guards.check("lhs_atoms", n_atoms)
    # the strategies, one row each, in itertools.product order
    omegas = np.indices(shape).reshape(len(shape), -1).T
    if asm.g == 1:
        return LhsVerdict(classical=True, model=_build_model(
            asm, omegas, np.array([rho.coords for rho in asm.entries[0]])))
    V = system.vertices
    n, d = V.shape
    offsets = np.concatenate([[0], np.cumsum(shape)])
    A = np.zeros((d * int(offsets[-1]), n_atoms * n))
    b = np.concatenate([rho.coords for row in asm.entries for rho in row])
    # block (outcome offsets[x] + omega_j[x], strategy j) of A is V^T
    blocks = A.reshape(int(offsets[-1]), d, n_atoms, n)
    for x in range(len(shape)):
        blocks[offsets[x] + omegas[:, x], :, np.arange(n_atoms), :] = V.T
    out = lp.feasibility(lp.LpProblem(
        objective=np.zeros(n_atoms * n), eq_rows=A, eq_rhs=b))
    if out.status == "optimal":
        return LhsVerdict(classical=True, model=_build_model(
            asm, omegas, out.x.reshape(n_atoms, n) @ V))
    return _steerable_verdict(asm, offsets, out.dual_eq)


def _build_model(asm, omegas, phi):
    """The model of the strategies' cone elements phi[j] (strategy j is row
    j of omegas); those of weight q_j <= 1e-15 are dropped."""
    system = asm.system
    unit = system.unit_functional.coords
    # one dot per strategy: a matrix product may round the weights otherwise
    q = np.array([unit @ p for p in phi])
    keep = q > 1e-15
    q = q[keep]
    model = LhsModel(
        weights=q / float(np.sum(q)),
        states=tuple(system.vector(p) for p in phi[keep] / q[:, None]),
        responses=tuple(zip(*(np.eye(k)[omegas[keep, x]]
                              for x, k in enumerate(asm.shape)))))
    err = model.reconstruction_error(asm)
    if err > RECONSTRUCTION:
        raise NumericalFailure(
            f"hidden-state model misses the assemblage by {err:.2e}")
    return model


def _steerable_verdict(asm, offsets, dual):
    system = asm.system
    d = system.dim
    h = [[system.functional(dual[d * (int(offsets[x]) + a):
                                 d * (int(offsets[x]) + a) + d])
          for a in range(k)] for x, k in enumerate(asm.shape)]
    worst = float(np.max(tensors.local_bound(
        system.vertices, [[f.coords for f in row] for row in h])))
    if worst > CERTIFICATE:
        raise NumericalFailure(
            "steering certificate is positive on a deterministic strategy")
    violation = float(sum(
        systems.pair(h[x][a], rho)
        for x, row in enumerate(asm.entries) for a, rho in enumerate(row)))
    if violation <= 1e-12:
        raise NumericalFailure("steering certificate does not separate")
    witness = None
    if all(k == 2 for k in asm.shape):
        witness = _witness_from_farkas(asm, h)
    return LhsVerdict(classical=False, witness=witness,
                      functionals=tuple(tuple(row) for row in h),
                      violation=violation)


def _witness_from_farkas(asm, h):
    """Normalize the Farkas family of a two-outcome assemblage to a witness.

    Writing h_{a|x} = m_x + eps_a u_x, strategy-nonpositivity reads
    sum_x |<u_x, v>| <= <-sum_x m_x, v> on vertices, so -sum m_x is a base
    for the components u_x; scaling by its value on sigma normalizes, and
    the Farkas separation turns into a detection value above 1.
    """
    system = asm.system
    m = sum(0.5 * (row[0].coords + row[1].coords) for row in h)
    u = [0.5 * (row[0].coords - row[1].coords) for row in h]
    tau = float(-m @ asm.barycenter.coords)
    if tau <= 1e-12:
        raise NumericalFailure("steering certificate cannot be normalized")
    base = -m / tau
    comps = [c / tau for c in u]
    V = system.vertices
    deficit = float(np.max(
        tensors.local_bound(V, [(c, -c) for c in comps]) - V @ base))
    if deficit > WITNESS_RESCALE:
        raise NumericalFailure(
            f"witness dominance fails by {deficit:.2e} after scaling")
    if deficit > 0.0:
        base = (base + deficit * system.unit_functional.coords) \
            / (1.0 + deficit)
        comps = [c / (1.0 + deficit) for c in comps]
    witness = Witness(
        components=tuple(system.functional(c) for c in comps),
        base=system.functional(base), normalized=True)
    if witness.detection_value(asm) <= 1.0 + 1e-12:
        raise NumericalFailure("witness lost its violation in normalization")
    return witness


def optimal_witness(asm):
    """Witness attaining the steering norm of the dichotomic reduction."""
    return tensors.steering_norm(to_dichotomic_tensor(asm)).witness


def robustness(asm):
    """Largest s for which s rho_{a|x} + (1-s) sigma/k_x stays classical.

    A one-setting assemblage is classical on every system (its entries are
    their own hidden states, as in lhs_check), so its robustness is 1 with
    no LP, whatever the system's kind or barycenter.  Two-outcome
    assemblages use the closed form 1/steering_norm (capped at 1);
    centrally symmetric systems reduce to polytopic twins, with an
    inner/outer polygon bracket of _DISK_VERTICES vertices for the l2
    ball, each twin and polygon built once per process.
    Other shapes bisect with lhs_check down to BISECTION_WIDTH, so the
    returned s tests classical and s + 2 BISECTION_WIDTH tests steerable.
    Each step builds the mixture of `mixed_with_trivial` and checks every
    entry with one cone-membership LP, which from the second step on
    starts from the basis that decided that entry at the step before
    (`lp.solve`'s start); a start that is no longer feasible solves cold.
    The LHS LPs solve cold: starting one from the last classical step's
    basis saved too little to keep.
    """
    system = guards.expect(asm, Assemblage).system
    systems.assert_interior(system, asm.barycenter)
    if asm.g == 1:
        return 1.0   # classical in closed form, as lhs_check answers it
    if all(k == 2 for k in asm.shape):
        t = to_dichotomic_tensor(asm)
        if system.kind == systems.POLYTOPIC:
            value = tensors.steering_norm(t).value
        else:
            value = _cs_steering_norm(t)
        return 1.0 if value <= 1.0 else 1.0 / value
    if lhs_check(asm).classical:
        return 1.0
    # each entry's membership LP starts from the basis that decided it at
    # the step before
    bases = {}
    lo, hi = 0.0, 1.0
    while hi - lo > BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        mixed = _assemblage(asm.barycenter, _mixture(asm, mid), bases)
        if lhs_check(mixed).classical:
            lo = mid
        else:
            hi = mid
    return lo


def _cs_steering_norm(t):
    """Steering norm on a ball system via an equivalent polytopic problem.

    l1 and linf balls have exact polytopic twins (cross polytope and
    hypercube).  The l2 ball needs the barycenter at the center; the
    problem then projects onto the span of the spatial components, which
    must fit in a plane, and the disk value is bracketed between the
    regular polygons of `_disk_polygons`, inscribed and circumscribed with
    _DISK_VERTICES vertices.  Twins and polygons are cached.
    """
    system = t.system
    n = system.dim - 1
    if system.ball_norm == "l2" and n > 1:
        return _disk_bracket(t)
    twin = _ball_twin(system.ball_norm, n)
    t_twin = tensors.DichotomicTensor.unchecked(
        twin.vector(t.sigma.coords),
        tuple(twin.vector(y.coords) for y in t.components))
    return tensors.steering_norm(t_twin).value


@functools.lru_cache(maxsize=None)
def _ball_twin(norm, n):
    """The polytopic twin of the `norm` ball in R^(n+1), built once: the
    cross polytope for l1 and for n = 1 (a segment), the hypercube for
    linf.  A cached twin is not held to the size guards again."""
    if norm == "l1" or n == 1:
        return systems.cross_polytope(n)
    return systems.hypercube(n)


@functools.lru_cache(maxsize=None)
def _disk_polygons():
    """The regular _DISK_VERTICES-gons inscribed in and circumscribed about
    the unit disk, built once: the outer one is the inner one with its
    spatial coordinates scaled by 1 / cos(pi / _DISK_VERTICES)."""
    inner = systems.regular_polygon(_DISK_VERTICES)
    radius = 1.0 / np.cos(np.pi / _DISK_VERTICES)
    return inner, systems.polytopic(
        inner.vertices * np.array([1.0, radius, radius]), unit=inner.unit)


def _disk_bracket(t):
    system = t.system
    if not systems.is_center(system, t.sigma):
        raise InvalidInput(
            "l2 steering norm needs the barycenter at the center")
    S = np.array([y.coords[0] for y in t.components])
    Z = np.stack([y.coords[1:] for y in t.components])
    sv = np.linalg.svd(Z, compute_uv=False)
    rank = int(np.sum(sv > SPATIAL_RANK * max(1.0, sv[0]))) if sv.size else 0
    if rank > 2:
        raise GuardExceeded(
            "l2 steering reduction handles spatial rank <= 2, "
            f"got rank {rank}")
    # Orthonormal rows of Vt span the row space; rank <= 2 means the first
    # two rows suffice (padded with zeros when the space is a line).
    Vt = np.linalg.svd(Z, full_matrices=True)[2]
    Q = np.zeros((2, Z.shape[1]))
    Q[:min(2, Vt.shape[0])] = Vt[:min(2, Vt.shape[0])]
    plane = np.column_stack([S, Z @ Q[0], Z @ Q[1]])
    values = []
    for poly in _disk_polygons():
        t_poly = tensors.DichotomicTensor.unchecked(
            poly.vector(np.array([1.0, 0.0, 0.0])),
            tuple(poly.vector(row) for row in plane))
        values.append(tensors.steering_norm(t_poly).value)
    inner, outer = values
    if outer > inner + COINCIDENCE:
        raise NumericalFailure("disk bracket lost its ordering")
    if inner - outer > 1e-2 * max(1.0, inner):
        raise NumericalFailure(
            f"disk bracket too wide: [{outer:.6f}, {inner:.6f}]")
    return 0.5 * (inner + outer)


@dataclass(frozen=True)
class WitnessVerdict:
    """witness_verify outcome; `base` is the dominating w_0 found (valid)."""

    valid: bool
    strict: bool
    base: Optional[systems.Functional] = None


def witness_verify(w, sigma):
    """Check sigma-normalizability and strictness of witness components.

    Valid: some w_0 in the dual cone with <w_0, sigma> = 1 dominates all
    signed combinations of the components.  On a polytopic system the 2^g
    sign constraints collapse to one absolute-value bound per vertex.
    Strict: additionally the sigma base norms of the components sum above 1,
    so the witness detects some assemblage.
    """
    system = systems.require_polytopic(guards.expect(w, Witness).system)
    systems.assert_interior(system, guards.expect(
        sigma, systems.Vector, system, "sigma"))
    V = system.vertices
    need = tensors.local_bound(
        V, [(f.coords, -f.coords) for f in w.components])
    out = lp.feasibility(lp.LpProblem(
        objective=np.zeros(system.dim),
        eq_rows=sigma.coords.reshape(1, -1), eq_rhs=np.array([1.0]),
        ub_rows=-V, ub_rhs=-need,
        lower=np.full(system.dim, -np.inf)))
    if out.status == "infeasible":
        return WitnessVerdict(valid=False, strict=False)
    total = sum(
        systems.sigma_base_norm(system, f, sigma)[0] for f in w.components)
    return WitnessVerdict(valid=True, strict=total > 1.0 + COINCIDENCE,
                          base=system.functional(out.x))


def dual_system(system, sigma=None):
    """The effect side of a polytopic system as a system of its own.

    States of the dual are dual-cone elements normalized against sigma;
    its vertices are the cone facets scaled to value 1 on sigma, and its
    unit functional is sigma itself.  Defaults to the vertex barycenter.
    """
    systems.require_polytopic(system)
    if sigma is None:
        sigma = system.barycenter
    systems.assert_interior(system, sigma)
    F = system.cone_facets
    scale = F @ sigma.coords
    return systems.polytopic(F / scale[:, None], unit=sigma.coords)


def measurements_to_assemblage(system, measurements, sigma=None):
    """Measurements as an assemblage on the dual system (barycenter unit).

    The x-th setting's outcome a maps to the effect f_{a|x} viewed as a
    dual-system state; all settings share the unit functional as
    barycenter.  lhs_check on the result decides joint measurability.
    """
    meas = guards.items(measurements, "need at least one measurement")
    for x, m in enumerate(meas):
        guards.expect(m, systems.Measurement, system, f"measurement {x}")
    dual = dual_system(system, sigma)
    entries = tuple(
        tuple(dual.vector(f.coords) for f in m.effects) for m in meas)
    return Assemblage(
        barycenter=dual.vector(system.unit_functional.coords),
        entries=entries)
