"""The input rules every entry point shares.

One real-number rule (`guards.real_numbers`, `real_number`, `float_array`)
decides every coordinate, weight, scale and LP datum: text, numeric
strings, bools, complex numbers, None and ragged nesting are rejected with
InvalidInput (MalformedProblem naming the field for LP data), and ints,
numpy scalars, Fractions and float lists are accepted.  The constructors
check an element's type before they read its system.
"""

import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gptsteer import (bipartite, choquet, cli, geometry, guards, lp,
                      sampling, selftest, steering, systems, tensors)
from gptsteer.errors import GuardExceeded, InvalidInput, MalformedProblem

SQ = systems.polytopic(
    [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]], unit=[1, 0, 0])
CENTER = SQ.vector([1.0, 0.0, 0.0])
SQUARE_VERTICES = [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]]
HALF_SPACES = [[1, 0], [-1, 0], [0, 1], [0, -1]]
LP_FIELDS = dict(objective=[1, 1], eq_rows=[[1, 1]], eq_rhs=[1],
                 ub_rows=[[1, 0]], ub_rhs=[1], lower=[0, 0], upper=[1, 1])


def _axis_assemblage():
    half = [[0.5, 0.5, 0.0], [0.5, -0.5, 0.0]], [[0.5, 0.0, 0.5],
                                                  [0.5, 0.0, -0.5]]
    return steering.Assemblage(
        barycenter=CENTER,
        entries=tuple(tuple(SQ.vector(e) for e in row) for row in half))


def _product_state():
    return bipartite.product_state(CENTER, SQ.vector([1.0, 0.2, 0.1]))


def _cmu_weight(w):
    """`gptsteer cmu` on a point mass of weight w; InvalidInput on exit 1."""
    payload = {"system": systems.system_to_payload(SQ),
               "atoms": [{"weight": w, "point": [1, 0, 0]}]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "measure.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        code = cli.main(["cmu", path])
    if code == 1:
        raise InvalidInput("gptsteer cmu exit 1")
    assert code == 0


def _lp_field(name):
    return lambda x: lp.LpProblem(**dict(LP_FIELDS, **{name: x}))


# name -> (call with the input, a valid input as a nested list)
ENTRY_POINTS = {
    **{f"lp {name}": (_lp_field(name), good)
       for name, good in LP_FIELDS.items()},
    "vertices_of_polytope A": (
        lambda x: geometry.vertices_of_polytope(x, [1, 1, 1, 1]),
        HALF_SPACES),
    "vertices_of_polytope b": (
        lambda x: geometry.vertices_of_polytope(HALF_SPACES, x), [1, 1, 1, 1]),
    "facets_of_cone": (geometry.facets_of_cone, SQUARE_VERTICES),
    "polytopic": (systems.polytopic, SQUARE_VERTICES),
    "polytopic_hull": (systems.polytopic_hull,
                       SQUARE_VERTICES + [[1, 0, 0]]),
    "vector": (SQ.vector, [1, 0, 0]),
    "scaling": (lambda x: CENTER * x, 2),
    "TensorElement": (
        lambda x: tensors.TensorElement(system_a=SQ, system_b=SQ, coeffs=x),
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
    "SimpleMeasure weight": (
        lambda x: choquet.SimpleMeasure(((x, CENTER),)), 1),
    "vertex_measure": (
        lambda x: choquet.vertex_measure(SQ, weights=x), [0.25] * 4),
    "LhsModel weights": (
        lambda x: steering.LhsModel(weights=x, states=(CENTER,),
                                    responses=(([1.0, 0.0],),)), [1]),
    "LhsModel responses": (
        lambda x: steering.LhsModel(weights=[1.0], states=(CENTER,),
                                    responses=((x,),)), [1, 0]),
    "mixed_with_trivial": (
        lambda x: steering.mixed_with_trivial(_axis_assemblage(), x), 1),
    "unsteerable_sufficient": (
        lambda x: bipartite.unsteerable_sufficient(_product_state(), x), 1),
    "gptsteer cmu weight": (_cmu_weight, 1),
}

NOT_REAL = {
    "text": "abc",
    "numeric string": "2",
    "bool": True,
    "bool in a float list": [1.0, True],
    "complex scalar": 2j,
    "complex array": np.array([1 + 1j, 2.0]),
    "None": None,
    "None in a float list": [1.0, None],
    "ragged": [[1.0, 2.0], [3.0]],
    "past float range": 10 ** 400,
}


def _jsonable(x):
    try:
        json.dumps(x)
    except TypeError:
        return False
    return True


def _leaves(raw, f):
    if isinstance(raw, list):
        return [_leaves(x, f) for x in raw]
    return f(raw)


REAL = {
    "ints": lambda v: int(v) if v == int(v) else v,
    "floats": float,
    "numpy floats": np.float64,
    "numpy ints": lambda v: np.int64(v) if v == int(v) else v,
    "fractions": Fraction,
}


# optional arguments, which read None as not given
OPTIONAL = {f"lp {name}" for name in LP_FIELDS if name != "objective"} | {
    "vertex_measure"}


def _applies(entry, bad):
    if entry == "gptsteer cmu weight":   # JSON holds no complex number
        return _jsonable(NOT_REAL[bad])
    return not (entry in OPTIONAL and bad == "None")


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in ENTRY_POINTS for bad in NOT_REAL
    if _applies(entry, bad)])
def test_every_entry_point_rejects_what_is_not_real(entry, bad):
    call, _ = ENTRY_POINTS[entry]
    if entry.startswith("lp "):
        field = entry[3:]
        with pytest.raises(MalformedProblem, match=f"^{field} must be numeric$"):
            call(NOT_REAL[bad])
    else:
        with pytest.raises(InvalidInput):
            call(NOT_REAL[bad])


@pytest.mark.parametrize("entry, kind", [
    (entry, kind) for entry in ENTRY_POINTS for kind in REAL
    if entry != "gptsteer cmu weight"
    or _jsonable(_leaves(ENTRY_POINTS[entry][1], REAL[kind]))])
def test_every_entry_point_takes_real_numbers(entry, kind):
    call, good = ENTRY_POINTS[entry]
    call(_leaves(good, REAL[kind]))


def test_a_float_array_is_returned_unchecked():
    a = np.array([1.0, np.nan])
    assert guards.float_array(a, "m") is a
    assert systems.payload_floats(a, "x") is a


@pytest.mark.parametrize("raw, real", [
    ([np.array(1.0), np.array(2)], True),    # 0-d arrays inside a list
    ([[1, 2], (3, 4)], True),
    (np.array([Fraction(1, 2), 1], dtype=object), True),
    ([np.float32(0.5), np.int8(3)], True),
    (range(3), False),
    ([range(2), range(2)], False),            # numpy would unpack these
    ([{}], False),
    ([np.bool_(True)], False),
    (np.array([1, 2], dtype=np.complex128), False),
    (np.array([[1.0, "2"]], dtype=object), False),
])
def test_real_numbers_reads_the_leaves_of_lists_tuples_and_arrays(raw, real):
    assert guards.real_numbers(raw) is real


def test_real_number_is_one_real_number():
    for x in (2, 0.5, np.float64(0.5), np.int32(3), Fraction(1, 3),
              np.array(0.5)):
        assert guards.real_number(x)
    for x in (True, np.True_, "2", None, 2j, [2], np.array([2.0]), range(1)):
        assert not guards.real_number(x)


def test_float_array_rejects_what_cannot_stack():
    # each leaf is real, but the nesting is ragged, or a float cannot
    # hold 10 ** 400
    for raw in ([[1.0, 2.0], [3.0]], [np.zeros(2), np.zeros((2, 2))],
                [10 ** 400]):
        assert guards.real_numbers(raw)
        with pytest.raises(InvalidInput, match="^m$"):
            guards.float_array(raw, "m")


# ---------------------------------------------------------------------------
# constructors check the element type before they read its system

RAW = np.array([1.0, 0.0, 0.0])


@pytest.mark.parametrize("build", [
    lambda: tensors.Witness(components=(RAW,)),
    lambda: systems.Measurement((RAW,)),
    lambda: tensors.DichotomicTensor(sigma=RAW, components=(CENTER,)),
    lambda: steering.Assemblage(barycenter=RAW, entries=((CENTER,),)),
    lambda: steering.Assemblage(barycenter=CENTER, entries=3),
    lambda: steering.Assemblage(barycenter=CENTER, entries=(3,)),
    lambda: steering.LhsModel(weights=[1.0], states=(RAW,),
                              responses=(([1.0, 0.0],),)),
    lambda: steering.LhsModel(weights=[1.0], states=3,
                              responses=(([1.0, 0.0],),)),
    lambda: steering.LhsModel(weights=[1.0], states=(CENTER,), responses=3),
    lambda: tensors.Witness(components=3),
    lambda: tensors.DichotomicTensor(sigma=CENTER, components=3),
    lambda: systems.Measurement(3),
], ids=["Witness", "Measurement", "DichotomicTensor", "Assemblage",
        "Assemblage entries=3", "Assemblage entries=(3,)", "LhsModel",
        "LhsModel states=3", "LhsModel responses=3", "Witness components=3",
        "DichotomicTensor components=3", "Measurement effects=3"])
def test_constructors_check_the_element_type_first(build):
    with pytest.raises(InvalidInput):
        build()


# ---------------------------------------------------------------------------
# counts: the size guards trip before anything is built, and a count past
# an index is no count

@pytest.mark.parametrize("build, named", [
    (lambda: systems.hypercube(30), "dim=31"),
    (lambda: systems.simplex(10 ** 6), "dim=1000000"),
    (lambda: systems.cross_polytope(10 ** 5), "dim=100001"),
], ids=["hypercube", "simplex", "cross_polytope"])
def test_factories_check_their_size_guards_before_they_build(build, named):
    with pytest.raises(GuardExceeded, match=f"^{named} exceeds guard "):
        build()


@pytest.mark.parametrize("build", [
    lambda: systems.ball(10 ** 400),
    lambda: choquet.c_mu_monte_carlo(samples=10 ** 400),
    lambda: systems.hypercube(10 ** 400),
], ids=["ball", "c_mu_monte_carlo", "hypercube"])
def test_a_count_past_an_index_is_invalid_input(build):
    with pytest.raises(InvalidInput):
        build()


# ---------------------------------------------------------------------------
# counts that fit an index but not memory: numpy refuses 2**62 doubles
# before it allocates, so the allocation rule turns its ValueError into
# InvalidInput in process; 2**40 doubles fail with a MemoryError only once
# the address space is capped, which only a child process may do to itself.
# The Monte Carlo sweep guard refuses such sample counts before the draw,
# so it is raised past them.

PAST_THE_SWEEP_GUARD = f"mc_sweep={2 ** 70}"


def _past_memory(count):
    rng = np.random.default_rng(0)
    return {
        "c_mu_monte_carlo": (
            lambda: choquet.c_mu_monte_carlo(samples=count),
            f"{count} samples"),
        "c_mu_monte_carlo on the segment": (
            lambda: choquet.c_mu_monte_carlo(systems.ball(1), samples=count),
            f"{count} samples"),
        "random_classical_assemblage": (
            lambda: sampling.random_classical_assemblage(rng, SQ, (2, count)),
            f"{count} outcomes"),
        "random_measure_with_barycenter": (
            lambda: sampling.random_measure_with_barycenter(
                rng, SQ, CENTER, n_satellites=count),
            f"{count} satellites"),
        "random_measurement": (
            lambda: sampling.random_measurement(rng, SQ, count),
            f"{count} outcomes"),
    }


@pytest.mark.parametrize("name", sorted(_past_memory(2 ** 62)))
def test_a_count_past_numpys_size_is_invalid_input(name, monkeypatch):
    monkeypatch.setenv("GPTSTEER_GUARDS", PAST_THE_SWEEP_GUARD)
    build, what = _past_memory(2 ** 62)[name]
    with pytest.raises(InvalidInput, match=f"^no memory for {what}$"):
        build()


def test_a_count_past_memory_is_invalid_input():
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "import test_inputs\n"
        "for name, (build, what) in sorted("
        "test_inputs._past_memory(2 ** 40).items()):\n"
        "    try:\n"
        "        build()\n"
        "    except test_inputs.InvalidInput as exc:\n"
        "        print(exc)\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               GPTSTEER_GUARDS=PAST_THE_SWEEP_GUARD,
               PYTHONPATH=os.pathsep.join(
                   (str(root / "src"), str(root / "tests"))))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    cases = _past_memory(2 ** 40)
    assert proc.stdout.splitlines() == [
        f"no memory for {cases[name][1]}" for name in sorted(cases)], \
        proc.stderr


def test_a_sampled_system_checks_its_vertex_guard_before_it_draws():
    rng = np.random.default_rng(0)
    with pytest.raises(GuardExceeded, match=f"^vertices={2 ** 62} exceeds"):
        sampling.random_polytopic_system(rng, 3, 2 ** 62)
    assert rng.bit_generator.state == np.random.default_rng(0) \
        .bit_generator.state


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None, 10 ** 400])
def test_selftest_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(InvalidInput, match="seed must be a nonnegative"):
        selftest.run(quick=True, seed=seed)
