"""Tests of the benchmark itself: tiny smoke runs and negative controls."""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import cases as cs
from perfbench import cli_workload, run, tracer, workloads

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _args(workload, trace=0, seconds=0.05):
    return run.parse_args(["--workload", workload, "--seconds", str(seconds),
                           "--trace", str(trace)])


@pytest.mark.parametrize("workload", ["norms", "order", "steer", "cli"])
def test_smoke_run_prints_a_clean_result(workload, capsys):
    run.main(["--workload", workload, "--seconds", "0.05"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    stamp = json.loads(lines[-2])["stamp"]
    assert stamp["questions"]["failure_rate"] == 0.0
    assert stamp["use_numba"] in (True, False)


@pytest.mark.parametrize("workload", ["norms", "steer", "cli"])
def test_traced_run_reports_every_layer_metric(workload):
    args = _args(workload, trace=1, seconds=0.2)
    if workload == "cli":
        tallies, values, _ = run.run_cli(args)
    else:
        tallies, values, _ = run.run_library(args)
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    assert sum(t.failed for t in tallies) == 0
    assert 0.5 < values["trace.accounted_share"] <= 1.0 + 1e-9


def test_perturbed_reference_value_is_a_failure():
    reference = run.load_reference("norms", run.REFERENCE_SEED)
    clean = run.run_library(_args("norms"), reference=reference)[0]
    assert sum(t.failed for t in clean) == 0
    bent = json.loads(json.dumps(reference))
    bent[0][0]["steer"] += 1e-3
    tallies = run.run_library(_args("norms"), reference=bent)[0]
    assert sum(t.failed for t in tallies) >= 1
    assert any("steer=" in p for t in tallies for p in t.problems)


def test_flipped_expected_cli_byte_is_a_failure(tmp_path):
    expected = cli_workload.load_expected(ROOT)
    first = cli_workload.cases(ROOT, run.REFERENCE_SEED, expected)[0]
    name = first.kind.removeprefix("cli.")
    shutil.copytree(ROOT / cli_workload.EXPECTED, tmp_path, dirs_exist_ok=True)
    path = tmp_path / f"{name}.json"
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))
    tallies = run.run_cli(_args("cli"), expected_dir=tmp_path)[0]
    assert sum(t.failed for t in tallies) >= 1
    assert any("differs from its expected file" in p
               for t in tallies for p in t.problems)


def test_invariant_checks_flag_broken_answers():
    case = workloads.norms(0, 1)[0]
    bad = {"inj": 1.2, "steer": 1.1, "proj": 1.3, "classical": True}
    reasons = [why for _, why in case.check([bad])]
    assert any("sandwich" in r for r in reasons)
    assert any("lhs_check" in r for r in reasons)
    assert cs.disagreement({"robustness": 0.5 + 2e-6},
                           {"robustness": 0.5}) is not None
    assert cs.disagreement({"robustness": 0.5 + 5e-7},
                           {"robustness": 0.5}) is None


def test_latencies_scale_with_the_local_calibration_time():
    tally = cs.Tally(latencies=[0.01] * 20 + [0.02] * 20,
                     calibration_times=[1e-3] * 20 + [2e-3] * 20)
    scaled = cs.at_reference_speed(tally, 1e-3)
    assert scaled[:14] == pytest.approx([0.01] * 14)
    assert scaled[-14:] == pytest.approx([0.01] * 14)


def test_square_two_three_robustness_makes_121_lp_solves():
    from gptsteer import bipartite, steering, systems

    diag = workloads.diag_state()
    meas = bipartite.unsteerable_dichotomic(diag).measurements
    sq = diag.system_a
    f = meas[1].effects[0]
    rest = sq.unit_functional - f
    split = systems.Measurement((f, rest * 0.5, rest * 0.5))
    asm = bipartite.conditional_assemblage(diag, (meas[0], split))
    assert asm.shape == (2, 3)
    t = tracer.Tracer()
    with t.installed():
        with t.question():
            r = steering.robustness(asm)
    assert abs(r - 0.5) <= 1e-6
    assert t.lp_under["steering.robustness"] == 121
    assert t.calls["steering.robustness"] == 1
    # feasibility wraps solve: self times add up to no more than the span
    assert sum(t.self_time.values()) == pytest.approx(t.question_time)


def test_tracer_restores_every_binding():
    import importlib

    before = {(m, a): getattr(importlib.import_module(f"gptsteer.{m}"), a)
              for m, a, _ in tracer.TARGETS}
    with tracer.Tracer().installed():
        pass
    after = {(m, a): getattr(importlib.import_module(f"gptsteer.{m}"), a)
             for m, a, _ in tracer.TARGETS}
    assert before == after


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "norms",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
