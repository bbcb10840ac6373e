"""The public boundary: only GptSteerError subclasses escape a public name.

Three sweeps, none of which reads a timer:
- every callable in `gptsteer.__all__` is called with every tuple of up to
  three positional arguments drawn from CATALOG that binds to its
  signature, and may raise nothing but a GptSteerError subclass;
- each argument of one valid call per callable, and per `sampling`
  function, is replaced in turn by every CATALOG value, under the same
  rule;
- every CLI verb that reads a file runs on single-field mutations of the
  committed payloads under perfbench/cli/inputs (each object key deleted,
  and each key and each list's first entry replaced by every JSON value of
  JSON_VALUES), and may end only in exit codes 0-3, with no exception
  escaping `cli.main`.
"""

import functools
import inspect
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import gptsteer
from gptsteer import cli, sampling, systems
from gptsteer.errors import GptSteerError

SQUARE = systems.polytopic(
    [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]], unit=[1, 0, 0])

CATALOG = (3, "x", None, True, [], [1.0], math.nan, 10 ** 400, object(),
           (3,), SQUARE, SQUARE.vector([1.0, 0.0, 0.0]))

# exception classes construct from any arguments and raise nothing
ERRORS = sorted(name for name in gptsteer.__all__
                if inspect.isclass(obj := getattr(gptsteer, name))
                and issubclass(obj, GptSteerError))
PUBLIC_CALLABLES = sorted(set(gptsteer.__all__) - {"__version__", *ERRORS})


def _bindings(fn):
    signature = inspect.signature(fn)
    for n in range(4):
        for args in itertools.product(CATALOG, repeat=n):
            try:
                signature.bind(*args)
            except TypeError:
                continue
            yield args


def _leak(call, *args, **kwargs):
    """The exception other than a GptSteerError that the call raises, or
    None."""
    try:
        call(*args, **kwargs)
    except GptSteerError:
        return None
    except Exception as exc:   # noqa: BLE001 - the leak under test
        return exc
    return None


def test_the_sweep_covers_every_public_name():
    assert len(ERRORS) == 10 and len(PUBLIC_CALLABLES) == 32
    for name in PUBLIC_CALLABLES:
        fn = getattr(gptsteer, name)
        assert callable(fn) and any(True for _ in _bindings(fn))


@pytest.mark.parametrize("name", PUBLIC_CALLABLES)
def test_public_name_raises_only_library_errors(name):
    fn = getattr(gptsteer, name)
    leaks = []
    for args in _bindings(fn):
        exc = _leak(fn, *args)
        if exc is not None:
            shown = ", ".join(repr(a)[:40] for a in args)
            leaks.append(f"{name}({shown}): {type(exc).__name__}: {exc}")
    assert not leaks, f"{len(leaks)} leaks, first: " + "\n".join(leaks[:3])


# ---------------------------------------------------------------------------
# each argument of a valid call

@functools.lru_cache(maxsize=None)
def _valid_calls():
    """name -> the keyword arguments of one call that succeeds."""
    sq, center = SQUARE, CATALOG[-1]
    f = sq.functional([0.5, 0.5, 0.0])
    m = gptsteer.dichotomic_measurement(sq, f)
    ys = (sq.vector([0.0, 0.5, 0.0]), sq.vector([0.0, 0.0, 0.5]))
    t = gptsteer.DichotomicTensor(center, ys)
    te = gptsteer.TensorElement(sq, sq, np.eye(3))
    state = gptsteer.BipartiteState(te)
    asm = gptsteer.Assemblage(center, tuple(
        ((center + y) * 0.5, (center - y) * 0.5) for y in ys))
    nu = gptsteer.SimpleMeasure(((1.0, center),))
    mu = gptsteer.SimpleMeasure(tuple((0.25, sq.vector(v))
                                      for v in sq.vertices))
    w = gptsteer.steering_norm(t).witness
    return {
        "GptSystem": dict(kind="polytopic", dim=3, vertices=sq.vertices,
                          unit=[1, 0, 0], ball_norm=None),
        "Measurement": dict(effects=m.effects),
        "ball": dict(n=3, norm="l2"),
        "dichotomic_measurement": dict(system=sq, f=f),
        "hypercube": dict(g=2),
        "simplex": dict(k=3),
        "DichotomicTensor": dict(sigma=center, components=ys),
        "TensorElement": dict(system_a=sq, system_b=sq, coeffs=np.eye(3)),
        "Witness": dict(components=w.components, base=w.base,
                        normalized=True),
        "injective_norm_dichotomic": dict(t=t),
        "min_cone_member": dict(t=te),
        "projective_norm": dict(t=te),
        "projective_norm_dichotomic": dict(t=t),
        "steering_norm": dict(t=t),
        "Assemblage": dict(barycenter=center, entries=asm.entries),
        "lhs_check": dict(asm=asm),
        "optimal_witness": dict(asm=asm),
        "robustness": dict(asm=asm),
        "SimpleMeasure": dict(atoms=mu.atoms),
        "c_mu": dict(system=sq, sigma=center, mu=mu),
        "c_mu_monte_carlo": dict(system=gptsteer.ball(2), sigma=None,
                                 samples=50, seed=0),
        "choquet_below": dict(nu=nu, mu=mu),
        "choquet_below_dual_check": dict(nu=nu, mu=mu, trials=4, seed=0),
        "dichotomic_below_exact": dict(nu=nu, mu=mu),
        "universal_degree": dict(system=sq, sigma=center),
        "BipartiteState": dict(element=te),
        "conditional_assemblage": dict(state=state, measurements=(m,)),
        "product_state": dict(rho_a=center, rho_b=center),
        # shapes (2, 3) leave the dichotomic candidates out: the sampler runs
        "steerability_search": dict(state=state, shapes=(2, 3), sampler=None,
                                    budget=2, seed=0),
        "steering_map": dict(state=state, direction="b_to_a"),
        "unsteerable_dichotomic": dict(state=state),
        "unsteerable_sufficient": dict(state=state, s_lower=0.5),
    }


def test_every_public_callable_has_a_valid_call():
    assert sorted(_valid_calls()) == PUBLIC_CALLABLES
    for name, kwargs in _valid_calls().items():
        getattr(gptsteer, name)(**kwargs)


@functools.lru_cache(maxsize=None)
def _valid_samples():
    """`sampling` function name -> the keyword arguments of one call that
    succeeds; the calls share one generator."""
    sq, center = SQUARE, CATALOG[-1]
    rng = np.random.default_rng(0)
    rng_sq = dict(rng=rng, system=sq)
    return {
        "random_polytopic_system": dict(rng=rng, dim=3, max_points=5),
        "random_interior_state": dict(rng_sq, pull=0.5),
        "random_dichotomic_tensor": dict(rng_sq, g=2, sigma=center),
        "random_separable_coeffs": dict(rng=rng, sys_a=sq, sys_b=sq),
        "random_max_cone_tensor": dict(rng=rng, sys_a=sq, sys_b=sq),
        "random_steerable_leaning_tensor": dict(rng_sq, g=2, sigma=center),
        "random_dichotomic_max_cone_tensor": dict(rng_sq, g=2),
        "random_classical_assemblage": dict(rng_sq, shape=(2, 3),
                                            sigma=center),
        "random_measure_with_barycenter": dict(rng_sq, sigma=center,
                                               n_satellites=3),
        "random_dilation": dict(rng=rng, measure=gptsteer.SimpleMeasure(
            tuple((0.25, sq.vector(v)) for v in sq.vertices))),
        "random_measurement": dict(rng_sq, n_outcomes=3),
    }


def test_every_sampling_function_has_a_valid_call():
    assert sorted(_valid_samples()) == sorted(
        name for name, fn in inspect.getmembers(sampling, inspect.isfunction)
        if fn.__module__ == sampling.__name__ and not name.startswith("_"))
    for name, kwargs in _valid_samples().items():
        getattr(sampling, name)(**kwargs)


@pytest.mark.parametrize("name", PUBLIC_CALLABLES)
def test_each_argument_of_a_valid_call_is_checked(name):
    _assert_each_argument_checked(name, getattr(gptsteer, name),
                                  _valid_calls()[name])


@pytest.mark.parametrize("name", sorted(_valid_samples()))
def test_each_argument_of_a_sampling_call_is_checked(name):
    _assert_each_argument_checked(name, getattr(sampling, name),
                                  _valid_samples()[name])


def _assert_each_argument_checked(name, fn, kwargs):
    leaks = []
    for key, value in itertools.product(kwargs, CATALOG):
        exc = _leak(fn, **dict(kwargs, **{key: value}))
        if exc is not None:
            leaks.append(f"{name}({key}={repr(value)[:40]}): "
                         f"{type(exc).__name__}: {exc}")
    assert not leaks, f"{len(leaks)} leaks, first: " + "\n".join(leaks[:3])


# ---------------------------------------------------------------------------
# the CLI on mutated payloads

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "cli" / "inputs"

# name -> (argv, the fixture whose mutations replace "{}"); the other
# *.json arguments are the committed fixtures themselves
VERBS = {
    "norm injective": (["norm", "{}", "--kind", "injective"], "tensor.json"),
    "norm steering": (["norm", "{}", "--kind", "steering"], "tensor.json"),
    "norm projective": (["norm", "{}", "--kind", "projective"],
                        "tensor.json"),
    "lhs": (["lhs", "{}"], "asm_steerable.json"),
    "robustness": (["robustness", "{}"], "asm_three_settings.json"),
    "witness": (["witness", "{}"], "asm_steerable.json"),
    "choquet nu": (["choquet", "{}", "mu.json"], "nu.json"),
    "choquet mu": (["choquet", "nu.json", "{}"], "mu.json"),
    "cmu": (["cmu", "{}"], "mu.json"),
    "unsteerable": (["unsteerable", "{}"], "state_diag.json"),
    "unsteerable sufficient": (["unsteerable", "{}", "--sufficient", "0.5"],
                               "state_noisy.json"),
    "search": (["search", "{}", "--shapes", "2,2", "--budget", "4",
                "--seed", "2"], "state_noisy.json"),
}

JSON_VALUES = (3, "x", None, True, [], [1.0], math.nan, 10 ** 400, [3], {})
DELETED = object()


def _fields(node, path=()):
    """Paths to every object key and to every list's first entry."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield path + (key,)
            yield from _fields(child, path + (key,))
    elif isinstance(node, list) and node:
        yield path + (0,)
        yield from _fields(node[0], path + (0,))


def _mutated(payload, path, value):
    out = json.loads(json.dumps(payload))
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    if value is DELETED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def _mutations(payload):
    for path in _fields(payload):
        values = JSON_VALUES + ((DELETED,) if isinstance(path[-1], str)
                                else ())
        for value in values:
            yield path, value, _mutated(payload, path, value)


@pytest.mark.parametrize("verb", VERBS)
def test_cli_verb_ends_in_an_exit_code_on_every_mutation(
        verb, tmp_path, capsys):
    argv, fixture = VERBS[verb]
    payload = json.loads((INPUTS / fixture).read_text())
    path = tmp_path / fixture
    bad = []
    for field, value, mutated in _mutations(payload):
        path.write_text(json.dumps(mutated))
        args = [str(path) if a == "{}" else
                str(INPUTS / a) if a.endswith(".json") else a for a in argv]
        try:
            code = cli.main(args)
        except BaseException as exc:   # noqa: BLE001 - the leak under test
            code = f"{type(exc).__name__}: {exc}"
        capsys.readouterr()
        if code not in (0, 1, 2, 3):
            shown = "deleted" if value is DELETED else repr(value)[:20]
            bad.append(f"{'/'.join(map(str, field))} = {shown}: {code}")
    assert not bad, f"{len(bad)} bad endings, first: " + "\n".join(bad[:3])
