"""Command-line surface: schemas, verdict payloads, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gptsteer
from gptsteer import cli, selftest, steering, tolerances
from gptsteer.errors import NumericalFailure

SQUARE = {
    "kind": "polytopic",
    "dim": 3,
    "vertices": [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]],
    "unit": [1, 0, 0],
}

DIAG_TENSOR = {"system": SQUARE, "sigma": [1, 0, 0],
               "components": [[0, 1, 1], [0, 1, -1]]}

DIAG_ASM = {
    "system": SQUARE,
    "barycenter": [1, 0, 0],
    "entries": [
        [[0.5, 0.5, 0.5], [0.5, -0.5, -0.5]],
        [[0.5, 0.5, -0.5], [0.5, -0.5, 0.5]],
    ],
}

AXIS_ASM = {
    "system": SQUARE,
    "barycenter": [1, 0, 0],
    "entries": [
        [[0.5, 0.5, 0.0], [0.5, -0.5, 0.0]],
        [[0.5, 0.0, 0.5], [0.5, 0.0, -0.5]],
    ],
}

UNIFORM_MEASURE = {
    "system": SQUARE,
    "atoms": [{"weight": 0.25, "point": v} for v in SQUARE["vertices"]],
}

CENTER_MASS = {"system": SQUARE,
               "atoms": [{"weight": 1.0, "point": [1, 0, 0]}]}

DIAG_STATE = {"system_a": SQUARE, "system_b": SQUARE,
              "coeffs": [[1, 0, 0], [0, 1, 1], [0, 1, -1]]}

PRODUCT_STATE = {"system_a": SQUARE, "system_b": SQUARE,
                 "coeffs": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}


@pytest.fixture
def files(tmp_path):
    def write(obj, name="in.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return write


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    assert code == 0, out.err
    return json.loads(out.out)


# ---------------------------------------------------------------------------
# norm


def test_norm_steering_diagonal(files, capsys):
    out = run_json(capsys, ["norm", files(DIAG_TENSOR), "--kind", "steering"])
    assert out["value"] == pytest.approx(2.0, abs=1e-7)
    assert out["witness"]["normalized"] is True
    assert len(out["witness"]["components"]) == 2


def test_norm_zero_components(files, capsys):
    zero = dict(DIAG_TENSOR, components=[[0, 0, 0], [0, 0, 0]])
    out = run_json(capsys, ["norm", files(zero)])
    assert out["value"] == pytest.approx(0.0, abs=1e-9)


def test_norm_kinds_are_sandwiched(files, capsys):
    path = files(DIAG_TENSOR)
    inj = run_json(capsys, ["norm", path, "--kind", "injective"])["value"]
    steer = run_json(capsys, ["norm", path, "--kind", "steering"])["value"]
    proj = run_json(capsys, ["norm", path, "--kind", "projective"])["value"]
    assert inj == pytest.approx(1.0, abs=1e-7)
    assert proj == pytest.approx(2.0, abs=1e-7)
    assert inj <= steer + 1e-9 <= proj + 2e-9


def test_envelope_fields(files, capsys):
    out = run_json(capsys, ["norm", files(DIAG_TENSOR)])
    assert out["verb"] == "norm"
    assert out["version"] == gptsteer.__version__
    assert out["seed"] is None
    assert out["tolerances"] == {
        "lp_feasibility": tolerances.LP_FEASIBILITY,
        "lp_gap": tolerances.LP_GAP,
        "certificate": tolerances.CERTIFICATE,
    }
    assert out["tolerances"]["lp_feasibility"] == 1e-9


# ---------------------------------------------------------------------------
# lhs / robustness / witness


def test_lhs_steerable_diagonal(files, capsys):
    out = run_json(capsys, ["lhs", files(DIAG_ASM)])
    assert out["verdict"] == "steerable"
    assert out["robustness"] == pytest.approx(0.5, abs=1e-7)
    assert out["violation"] > 0
    assert out["witness"]["base"] is not None


def test_lhs_classical_axis(files, capsys):
    out = run_json(capsys, ["lhs", files(AXIS_ASM)])
    assert out["verdict"] == "classical"
    weights = out["model"]["weights"]
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)
    assert len(out["model"]["states"]) == len(weights)


def test_lhs_classical_model_with_unequal_outcome_counts(files, capsys):
    # settings with two and three outcomes: each model's responses are one
    # list per setting, of that setting's length
    asm = dict(AXIS_ASM, entries=[
        [[0.5, 0.1, 0.0], [0.5, -0.1, 0.0]],
        [[0.4, 0.0, 0.1], [0.3, 0.0, -0.1], [0.3, 0.0, 0.0]]])
    out = run_json(capsys, ["lhs", files(asm)])
    assert out["verdict"] == "classical"
    responses = out["model"]["responses"]
    assert len(responses) == len(out["model"]["weights"])
    assert {tuple(len(r) for r in row) for row in responses} == {(2, 3)}


def test_lhs_bad_sums_names_invariant(files, capsys):
    bad = dict(AXIS_ASM, entries=[[[0.5, 0.5, 0.0], [0.6, -0.5, 0.0]]])
    assert cli.main(["lhs", files(bad)]) == 1
    err = capsys.readouterr().err
    assert "do not sum to the barycenter" in err


def test_robustness_verb(files, capsys):
    out = run_json(capsys, ["robustness", files(DIAG_ASM)])
    assert out["robustness"] == pytest.approx(0.5, abs=1e-7)


def test_witness_verb(files, capsys):
    out = run_json(capsys, ["witness", files(DIAG_ASM)])
    assert out["detection_value"] == pytest.approx(2.0, abs=1e-7)
    base = np.asarray(out["witness"]["base"])
    assert np.allclose(base, [1, 0, 0], atol=1e-7)


# ---------------------------------------------------------------------------
# choquet / cmu / mc-cmu


def test_choquet_below_with_responses(files, capsys):
    out = run_json(capsys, ["choquet", files(CENTER_MASS, "nu.json"),
                            files(UNIFORM_MEASURE, "mu.json")])
    assert out["below"] is True
    responses = np.asarray(out["responses"])
    assert np.all(responses >= -1e-12)


def test_choquet_refuted_with_certificate(files, capsys):
    out = run_json(capsys, ["choquet", files(UNIFORM_MEASURE, "nu.json"),
                            files(CENTER_MASS, "mu.json")])
    assert out["below"] is False
    assert out["violation"] > 1e-9
    assert len(out["functionals"]) == 4


def test_cmu_uniform_square(files, capsys):
    out = run_json(capsys, ["cmu", files(UNIFORM_MEASURE)])
    assert out["value"] == pytest.approx(0.5, abs=1e-7)
    assert out["sigma"] == pytest.approx([1, 0, 0], abs=1e-9)


def test_mc_cmu_disk(capsys):
    out = run_json(capsys, ["mc-cmu", "--dim", "2", "--samples", "20000",
                            "--seed", "5"])
    assert out["value"] == pytest.approx(2.0 / np.pi, abs=0.02)
    assert out["reference"] == pytest.approx(2.0 / np.pi, abs=1e-12)
    assert out["samples"] == 20000
    assert out["seed"] == 5


# ---------------------------------------------------------------------------
# unsteerable / search


def test_unsteerable_product_with_round_trip(files, capsys, tmp_path):
    out = run_json(capsys, ["unsteerable", files(PRODUCT_STATE)])
    assert out["unsteerable"] is True
    # the certificate is a valid measure file as emitted
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(out["model"]))
    again = run_json(capsys, ["cmu", str(model_path)])
    assert again["value"] >= 0.0


def test_unsteerable_diagonal_certificate(files, capsys):
    out = run_json(capsys, ["unsteerable", files(DIAG_STATE)])
    assert out["unsteerable"] is False
    funs = np.asarray(sorted(out["functionals"]))
    assert np.allclose(funs, [[0, 1, -1], [0, 1, 1]], atol=1e-7)
    assert len(out["measurements"]) == 2
    assert all(len(m) == 2 for m in out["measurements"])


def test_unsteerable_sufficient_flag(files, capsys):
    out = run_json(capsys, ["unsteerable", files(PRODUCT_STATE),
                            "--sufficient", "0.3"])
    assert out["test"] == "sufficient"
    assert out["unsteerable"] is True
    out = run_json(capsys, ["unsteerable", files(DIAG_STATE),
                            "--sufficient", "0.5"])
    assert out["unsteerable"] is False


def test_search_finds_diagonal(files, capsys):
    out = run_json(capsys, ["search", files(DIAG_STATE), "--budget", "10"])
    assert out["found"] is True
    assert out["tried"] == 1
    assert len(out["measurements"]) == 2


def test_search_inconclusive_on_product(files, capsys):
    out = run_json(capsys, ["search", files(PRODUCT_STATE),
                            "--budget", "5"])
    assert out["found"] is False
    assert out["tried"] == 5


def test_search_bad_shapes(files, capsys):
    assert cli.main(["search", files(DIAG_STATE), "--shapes", "2,x"]) == 1
    assert "comma-separated integers" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# selftest


def test_selftest_quick_passes_and_is_deterministic(capsys):
    out1 = run_json(capsys, ["selftest", "--quick"])
    assert out1["all_passed"] is True
    assert [i["name"] for i in out1["items"]] == [
        name for name, _ in selftest.ITEMS]
    out2 = run_json(capsys, ["selftest", "--quick"])
    assert out1 == out2


def test_selftest_override_negative_control(capsys):
    code = cli.main(["selftest", "--quick", "--override",
                     "square-constants=1e-18"])
    captured = capsys.readouterr()
    assert code == 0
    out = json.loads(captured.out)
    assert out["all_passed"] is False
    failed = [i["name"] for i in out["items"] if not i["passed"]]
    assert failed == ["square-constants"]
    assert "[FAIL] square-constants" in captured.err


def test_selftest_report_goes_to_stderr(capsys):
    assert cli.main(["selftest", "--quick", "--override",
                     "bogus=1"]) == 1
    assert "unknown acceptance items" in capsys.readouterr().err


def test_selftest_bad_override_format(capsys):
    assert cli.main(["selftest", "--quick", "--override", "nonsense"]) == 1
    assert "name=value" in capsys.readouterr().err


def test_selftest_verdicts_ignore_the_clock(monkeypatch):
    # a clock that advances 1000 s per reading: every item still passes,
    # and each line still reports the wall time it read
    ticks = iter(range(0, 10 ** 9, 1000))
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    items = selftest.run(quick=True, seed=0)
    assert [item.name for item in items if not item.passed] == []
    assert all(item.elapsed >= 1000.0 for item in items)


# ---------------------------------------------------------------------------
# counts past memory end in "invalid input", not in a traceback

NOISY = str(Path(__file__).resolve().parents[1] / "perfbench" / "cli"
            / "inputs" / "state_noisy.json")


@pytest.mark.parametrize("argv", [
    ["selftest", "--quick", "--seed", "-1"],
    ["mc-cmu", "--samples", str(2 ** 62)],
], ids=["selftest seed", "mc-cmu samples"])
def test_a_count_past_numpys_size_is_invalid_input(argv, capsys):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and err.count("\n") == 1


def test_a_count_past_memory_is_invalid_input():
    # MemoryError needs a capped address space, which only a child process
    # may set for itself
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from gptsteer import cli\n"
        "print(cli.main(['mc-cmu', '--dim', '100000', '--samples', "
        "'1000000']))\n"
        f"print(cli.main(['search', {NOISY!r}, '--shapes', "
        f"'2,100000000000', '--budget', '1']))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["1", "1"]
    assert proc.stderr.splitlines() == [
        "invalid input: no memory for 1000000 samples",
        "invalid input: no memory for 100000000000 outcomes"]


# ---------------------------------------------------------------------------
# plumbing and exit codes


def test_out_flag_writes_file(files, capsys, tmp_path):
    target = tmp_path / "verdict.json"
    code = cli.main(["norm", files(DIAG_TENSOR), "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    data = json.loads(target.read_text())
    assert data["value"] == pytest.approx(2.0, abs=1e-7)


def test_byte_determinism(files, capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    path = files(DIAG_STATE)
    assert cli.main(["search", path, "--seed", "7", "--out", str(a)]) == 0
    assert cli.main(["search", path, "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_missing_file_exit_1(capsys):
    assert cli.main(["lhs", "/nonexistent/asm.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["lhs", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_key_exit_1(files, capsys):
    assert cli.main(["lhs", files({"system": SQUARE})]) == 1
    assert "missing 'barycenter'" in capsys.readouterr().err


def test_bad_system_payload_exit_1(files, capsys):
    bad = dict(DIAG_TENSOR, system=dict(SQUARE, kind="weird"))
    assert cli.main(["norm", files(bad)]) == 1


NOT_NUMBERS = {
    "weight": ("cmu", dict(UNIFORM_MEASURE, atoms=[
        {"weight": "abc", "point": [1, 0, 0]}])),
    "point": ("cmu", dict(UNIFORM_MEASURE, atoms=[
        {"weight": 1.0, "point": ["a", 0, 0]}])),
    "ragged_vertices": ("norm", dict(DIAG_TENSOR, system=dict(
        SQUARE, vertices=[[1, 1, 1], [1, 1], [1, -1, 1]]))),
    "dim": ("norm", dict(DIAG_TENSOR, system=dict(SQUARE, dim="three"))),
    "unit": ("norm", dict(DIAG_TENSOR, system=dict(SQUARE, unit="abc"))),
    "coeffs": ("unsteerable", dict(DIAG_STATE, coeffs="abc")),
    "entries": ("lhs", dict(DIAG_ASM, entries=[1])),
    "entry_row": ("lhs", dict(DIAG_ASM, entries=[DIAG_ASM["entries"][0], 3])),
    # numpy and int() would convert these: a string, bool or null is no
    # number, and dim must be a JSON integer
    "dim_string": ("cmu", dict(UNIFORM_MEASURE, system=dict(SQUARE, dim="3"))),
    "dim_fraction": ("cmu", dict(UNIFORM_MEASURE, system=dict(SQUARE,
                                                               dim=3.7))),
    "dim_bool": ("cmu", dict(UNIFORM_MEASURE, system=dict(SQUARE, dim=True))),
    "weight_string": ("cmu", dict(UNIFORM_MEASURE, atoms=[
        {"weight": "0.5", "point": [1, 1, 1]},
        {"weight": 0.5, "point": [1, -1, -1]}])),
    "weight_bool": ("cmu", dict(CENTER_MASS, atoms=[
        {"weight": True, "point": [1, 0, 0]}])),
    "bool_coordinate": ("cmu", dict(CENTER_MASS, atoms=[
        {"weight": 1.0, "point": [True, 0, 0]}])),
    "null_coordinate": ("lhs", dict(DIAG_ASM, barycenter=[1, None, 0])),
    "string_vertex": ("norm", dict(DIAG_TENSOR, system=dict(
        SQUARE, vertices=[["1", 1, 1], [1, 1, -1], [1, -1, 1],
                          [1, -1, -1]]))),
}


@pytest.mark.parametrize("case", sorted(NOT_NUMBERS))
def test_payload_that_is_not_numbers_exit_1(case, files, capsys):
    verb, payload = NOT_NUMBERS[case]
    assert cli.main([verb, files(payload)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and "Traceback" not in err


def test_unknown_verb_and_option_exit_1(files, capsys):
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["lhs", files(DIAG_ASM), "--bogus"]) == 1
    capsys.readouterr()


def test_guard_exceeded_exit_2(files, capsys, monkeypatch):
    monkeypatch.setenv("GPTSTEER_GUARDS", "cmu_dim=2")
    assert cli.main(["cmu", files(UNIFORM_MEASURE)]) == 2
    assert "guard" in capsys.readouterr().err


def test_numerical_failure_exit_3(files, capsys, monkeypatch):
    def boom(asm):
        raise NumericalFailure("synthetic")
    monkeypatch.setattr(steering, "robustness", boom)
    assert cli.main(["robustness", files(DIAG_ASM)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# child processes: the `python -m gptsteer.cli` path and what each verb loads

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import cli_workload  # noqa: E402


def _child(argv):
    return subprocess.run([sys.executable, *argv], cwd=ROOT,
                          env=cli_workload.child_env(ROOT),
                          capture_output=True, timeout=120, check=False)


@pytest.mark.parametrize("name, args", cli_workload.INVOCATIONS,
                         ids=[name for name, _ in cli_workload.INVOCATIONS])
def test_module_child_prints_the_expected_bytes(name, args):
    proc = _child(["-m", "gptsteer.cli", *cli_workload.argv_for(args)])
    assert proc.returncode == 0, proc.stderr.decode()
    expected = ROOT / cli_workload.EXPECTED / f"{name}.json"
    assert proc.stdout == expected.read_bytes()


# Runs each argument list through cli.main in one fresh interpreter and
# prints the gptsteer submodules it loaded.
LOADED = """
import contextlib, io, json, sys
from gptsteer import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.startswith("gptsteer."))))
"""


@pytest.mark.parametrize("family, absent", [
    ("norm", {"steering", "choquet", "bipartite", "sampling", "selftest"}),
    ("steering", {"choquet", "bipartite", "sampling", "selftest"}),
    ("choquet", {"steering", "bipartite", "sampling", "selftest"}),
    ("bipartite", {"selftest"}),
])
def test_each_verb_family_loads_only_its_modules(family, absent, files):
    asm = files(DIAG_ASM, "asm.json")
    mu = files(UNIFORM_MEASURE, "mu.json")
    state = files(DIAG_STATE, "state.json")
    argvs = {
        "norm": [["norm", files(DIAG_TENSOR), "--kind", kind]
                 for kind in ("injective", "steering", "projective")],
        "steering": [["lhs", asm], ["robustness", asm], ["witness", asm]],
        "choquet": [["choquet", files(CENTER_MASS, "nu.json"), mu],
                    ["cmu", mu], ["mc-cmu", "--samples", "500"]],
        "bipartite": [["unsteerable", state],
                      ["unsteerable", state, "--sufficient", "0.5"]],
    }[family]
    proc = _child(["-c", LOADED, json.dumps(argvs)])
    assert proc.returncode == 0, proc.stderr.decode()
    loaded = {m.removeprefix("gptsteer.") for m in json.loads(proc.stdout)}
    assert {"cli", "systems"} <= loaded
    assert not loaded & absent, sorted(loaded & absent)


def test_bare_import_and_a_float_solve_load_little():
    script = """
import json, sys
import gptsteer
bare = sorted(m for m in sys.modules if m.startswith("gptsteer."))
from gptsteer import lp
out = lp.solve(lp.LpProblem(objective=[1.0, 1.0], ub_rows=[[-1.0, -1.0]],
                            ub_rhs=[-1.0]))
assert out.status == "optimal", out.status
print(json.dumps({"bare": bare, "fractions": "fractions" in sys.modules}))
"""
    proc = _child(["-c", script])
    assert proc.returncode == 0, proc.stderr.decode()
    seen = json.loads(proc.stdout)
    assert set(seen["bare"]) <= {"gptsteer.errors"}
    assert seen["fractions"] is False
