"""tools/lp_replay.py: caller chains, the recording format and `callers`."""

import importlib.util
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

from gptsteer import lp, sampling, steering, systems

TOOL = Path(__file__).resolve().parent.parent / "tools" / "lp_replay.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("lp_replay", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_caller_chain_names_the_asking_functions(monkeypatch):
    tool = load_tool()
    chains = []
    solve = lp.solve

    def recording(problem, mode="float"):
        chains.append(tool.caller_chain(sys._getframe(1)))
        return solve(problem, mode)

    monkeypatch.setattr(lp, "solve", recording)
    rng = np.random.default_rng(4)
    t = sampling.random_dichotomic_tensor(rng, systems.hypercube(2), 2)
    asm = steering.from_dichotomic_tensor(t)
    assert chains == []
    steering.mixed_with_trivial(asm, 0.5)
    # lp.feasibility, the dataclass __init__ and this test are left out
    assert chains == [
        "cone_member <- _checked_rows <- Assemblage.__post_init__ "
        "<- mixed_with_trivial"] * 4


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
    [(got, mode, chain, question)] = data["problems"]
    assert sorted(got) == sorted(tool.FIELDS)
    assert (mode, chain, question) == ("float", None, None)


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
    assert [(mode, chain, question)
            for _, mode, chain, question in data["problems"]] == [
        ("float", "", None), ("exact", "", None)]
