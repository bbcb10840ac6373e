"""tools/lp_replay.py: caller chains, the recording format and `callers`."""

import importlib.util
import json
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from gptsteer import lp, sampling, steering, systems, tensors

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "lp_replay.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("lp_replay", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_caller_chain_names_the_asking_functions(monkeypatch):
    tool = load_tool()
    chains = []
    solve = lp.solve

    def recording(problem, mode="float", **keywords):
        chains.append(tool.caller_chain(sys._getframe(1)))
        return solve(problem, mode, **keywords)

    monkeypatch.setattr(lp, "solve", recording)
    rng = np.random.default_rng(4)
    sq = systems.hypercube(2)
    t = sampling.random_dichotomic_tensor(rng, sq, 2)
    asm = steering.from_dichotomic_tensor(t)
    steering.mixed_with_trivial(asm, 0.5)
    assert chains == []
    sampling.random_classical_assemblage(rng, sq, (2, 3), sigma=asm.barycenter)
    # lp.feasibility and this test are left out
    assert chains == ["cone_member <- random_classical_assemblage"]


def test_callers_counts_per_question_and_reads_old_recordings(tmp_path):
    tool = load_tool()
    fields = {k: np.zeros(1) for k in tool.FIELDS}
    new = tmp_path / "new.lps"
    with open(new, "wb") as fh:
        pickle.dump({"questions": 2, "problems": [
            (fields, "float", "cone_member <- random_dilation", None),
            (fields, "float", "build", None),
            (fields, "float", "lhs_check", 0),
            (fields, "float", "cone_member <- robustness", 0),
            (fields, "float", "cone_member <- robustness", 1),
            (fields, "float", "build", None)]}, fh)
    assert tool.callers(new) == [
        "    1.00  cone_member <- robustness",
        "    0.50  lhs_check",
        "    1.50  total per question, 2 questions",
        "       3  set-up solves",
        "       2  build",
        "       1  cone_member <- random_dilation"]
    old = tmp_path / "old.lps"
    with open(old, "wb") as fh:
        pickle.dump([(fields, "float")], fh)
    data = tool.load(old)
    assert data["questions"] is None
    [(got, mode, chain, question, start)] = data["problems"]
    assert sorted(got) == sorted(tool.FIELDS)
    assert (mode, chain, question, start) == ("float", None, None, None)


def test_diff_counts_differing_problems_and_a_count_mismatch(tmp_path,
                                                            capsys):
    tool = load_tool()
    rng = np.random.default_rng(5)
    problems = [({k: rng.normal(size=3) for k in tool.FIELDS}, "float",
                 "lhs_check", q) for q in range(3)]

    def run(edited):
        paths = []
        for name, recorded in (("old", problems), ("new", edited)):
            paths.append(tmp_path / f"{name}.lps")
            with open(paths[-1], "wb") as fh:
                pickle.dump({"questions": 3, "problems": recorded}, fh)
        code = tool.main(["diff", *map(str, paths)])
        return code, json.loads(capsys.readouterr().out)

    copies = [({k: v.copy() for k, v in f.items()}, m, c, q)
              for f, m, c, q in problems]
    assert run(copies) == (0, {
        "problems_a": 3, "problems_b": 3, "count_mismatch": False,
        "differences": 0, "first_differences": []})
    flipped = copies[1][0]["ub_rows"].view(np.uint8)
    flipped[0] ^= 1
    code, line = run(copies)
    assert (code, line["differences"], line["first_differences"]) == (1, 1, [1])
    code, line = run(problems[:2])
    assert (code, line["count_mismatch"], line["differences"]) == (1, True, 0)


def test_callers_exits_quietly_when_its_reader_is_gone(tmp_path):
    fields = {k: np.zeros(1) for k in load_tool().FIELDS}
    rec = tmp_path / "rec.lps"
    with open(rec, "wb") as fh:
        pickle.dump({"questions": 1, "problems": [
            (fields, "float", "lhs_check", 0)]}, fh)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, str(TOOL), "callers", str(rec)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_record_tests_keeps_each_distinct_problem_once(tmp_path):
    # The first test solves one float problem twice, the second one problem
    # in exact mode.
    out = tmp_path / "tests.lps"
    test_lp = TOOL.parent.parent / "tests" / "test_lp.py"
    subprocess.run(
        [sys.executable, str(TOOL), "record", "--workload", "tests",
         "--out", str(out),
         f"{test_lp}::test_repeat_solves_are_bit_identical",
         f"{test_lp}::test_exact_mode_value_is_a_fraction"],
        check=True, capture_output=True, text=True)
    data = load_tool().load(out)
    assert data["questions"] == 0
    assert [(mode, chain, question, start)
            for _, mode, chain, question, start in data["problems"]] == [
        ("float", "", None, None), ("exact", "", None, None)]


def test_time_loads_both_trees_and_times_every_problem(tmp_path):
    # a second tree: a copy of these sources
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "gptsteer", other / "src" / "gptsteer",
                    ignore=shutil.ignore_patterns("__pycache__"))
    fields = [
        {"objective": np.zeros(2), "eq_rows": np.ones((1, 2)),
         "eq_rhs": np.ones(1), "ub_rows": np.zeros((0, 2)),
         "ub_rhs": np.zeros(0), "lower": np.zeros(2),
         "upper": np.full(2, np.inf)},
        {"objective": np.array([1.0]), "eq_rows": np.zeros((0, 1)),
         "eq_rhs": np.zeros(0), "ub_rows": np.array([[1.0]]),
         "ub_rhs": np.array([-1.0]), "lower": np.zeros(1),
         "upper": np.full(1, np.inf)},                       # infeasible
        {"objective": np.array([1.0]), "eq_rows": np.zeros((0, 1)),
         "eq_rhs": np.zeros(0), "ub_rows": np.zeros((0, 1)),
         "ub_rhs": np.zeros(0), "lower": np.zeros(1),
         "upper": np.full(1, np.inf)}]
    rec = tmp_path / "three.lps"
    chains = ["lhs_check", "cone_member <- robustness", "", "lhs_check"]
    with open(rec, "wb") as fh:
        pickle.dump({"questions": 0, "problems": [
            (f, "float", c, None) for f, c in zip(fields, chains)] + [
            (fields[0], "exact", chains[3], None)]}, fh)
    proc = subprocess.run(
        [sys.executable, str(TOOL), "time", str(rec), str(ROOT), str(other),
         "--rounds", "2"],
        check=True, capture_output=True, text=True)
    *per_chain, last = proc.stdout.strip().splitlines()
    line = json.loads(last)
    assert sorted(line) == ["problems", "ratio", "rounds", "us_per_lp_a",
                            "us_per_lp_b"]
    assert line["problems"] == 4 and line["rounds"] == 2
    assert line["us_per_lp_a"] > 0 and line["us_per_lp_b"] > 0
    assert line["ratio"] == round(line["us_per_lp_b"] / line["us_per_lp_a"], 4)
    # one line per chain, most LPs first (ties by name), "-" for none
    rows = [row.split(None, 4) for row in per_chain]
    assert [(int(n), chain) for _, _, _, n, chain in rows] == [
        (2, "lhs_check"), (1, "-"), (1, "cone_member <- robustness")]
    for a, b, ratio, _, _ in rows:
        assert float(a) > 0 and float(b) > 0
        assert float(ratio) == round(float(b) / float(a), 4)
    for k, key in ((0, "us_per_lp_a"), (1, "us_per_lp_b")):
        total = sum(float(row[k]) * int(row[3]) for row in rows)
        assert abs(total / 4 - line[key]) <= 0.01


def test_tree_packages_load_side_by_side(tmp_path):
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "gptsteer", other / "src" / "gptsteer",
                    ignore=shutil.ignore_patterns("__pycache__"))
    tool = load_tool()
    names = ("lp_replay_test_tree_a", "lp_replay_test_tree_b")
    try:
        a = tool.load_tree_lp(ROOT, names[0])
        b = tool.load_tree_lp(other, names[1])
        assert a is not b and a.solve is not b.solve
        assert Path(a.__file__).resolve() == ROOT / "src" / "gptsteer" / "lp.py"
        assert Path(b.__file__).resolve() == (other / "src" / "gptsteer"
                                              / "lp.py").resolve()
        # each tree's lp runs on its own kernels
        assert sys.modules[f"{names[1]}.kernels"].__file__.startswith(
            str(other))
        assert a.solve(a.LpProblem([1.0])).status == "optimal"
    finally:
        for name in list(sys.modules):
            if name.split(".")[0] in names:
                del sys.modules[name]


def test_a_recorded_warm_bisection_replays_its_starts(monkeypatch):
    # the (2, 3) square assemblage of robustness 1/2: 20 bisection steps
    # of five membership LPs and one LHS LP, and the LHS LP before them
    tool = load_tool()
    sq = systems.hypercube(2)
    sigma = sq.vector([1.0, 0.0, 0.0])
    pair = steering.from_dichotomic_tensor(tensors.DichotomicTensor(
        sigma=sigma, components=(sq.vector([0.0, 1, 1]),
                                 sq.vector([0.0, 1, -1])))).entries
    asm = steering.Assemblage(barycenter=sigma, entries=(
        pair[0], (pair[1][0], pair[1][1] * 0.5, pair[1][1] * 0.5)))
    outs, seen = [], []
    solve = lp.solve

    def solving(problem, mode="float", **keywords):
        outs.append(solve(problem, mode, **keywords))
        return outs[-1]

    monkeypatch.setattr(lp, "solve", solving)
    monkeypatch.setattr(lp, "solve", tool.recorder(
        lp, lambda *problem: seen.append(problem)))
    assert abs(steering.robustness(asm) - 0.5) <= 1e-6
    monkeypatch.undo()
    assert len(seen) == len(outs) == 121
    chains = {chain for _, _, _, chain in seen}
    assert chains == {"lhs_check <- robustness",
                      "_cone_member_from <- _checked_rows <- _assemblage "
                      "<- robustness"}
    starts = [start for _, _, start, chain in seen
              if chain.startswith("_cone")]
    # the first step's five start cold, every later one from a basis
    assert [s is None for s in starts] == [True] * 5 + [False] * 95
    for (fields, mode, start, _), out in zip(seen, outs):
        assert tool.outcome(lp, fields, mode, start) == tool.outcome_bytes(out)


def test_diff_compares_starts(tmp_path, capsys):
    tool = load_tool()
    fields = {k: np.zeros(1) for k in tool.FIELDS}

    def run(starts_a, starts_b):
        paths = []
        for name, starts in (("a", starts_a), ("b", starts_b)):
            paths.append(tmp_path / f"{name}.lps")
            with open(paths[-1], "wb") as fh:
                pickle.dump({"questions": 1, "problems": [
                    (fields, "float", "lhs_check", 0) + (() if s is False
                                                         else (s,))
                    for s in starts]}, fh)
        code = tool.main(["diff", *map(str, paths)])
        return code, json.loads(capsys.readouterr().out)["first_differences"]

    basis = np.array([0])
    # a recording without starts reads as cold solves
    assert run([False, False], [None, None]) == (0, [])
    assert run([None, basis], [None, basis.copy()]) == (0, [])
    assert run([None, basis], [basis, np.array([1])]) == (1, [0, 1])
