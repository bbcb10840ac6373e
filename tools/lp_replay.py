"""Record a benchmark workload's LP problems; replay them on two trees.

    python3 tools/lp_replay.py record --workload order --seed 0 --out order.lps
    python3 tools/lp_replay.py record --workload tests --out tests.lps [PATH ...]
    python3 tools/lp_replay.py compare order.lps TREE_A TREE_B
    python3 tools/lp_replay.py diff OLD.lps NEW.lps
    python3 tools/lp_replay.py time order.lps TREE_A TREE_B [--rounds R]
    python3 tools/lp_replay.py callers order.lps

`record` builds the workload's cases with perfbench's builders and asks
every question of one cycle (perfbench's CYCLES, by default the whole
sequence) against this checkout's src/.  It stores each `lp.solve` call of
the set-up and the cycle: the problem data, the mode, the question it
belongs to (None for the set-up), the chain of gptsteer functions that
asked for it, innermost first and without the lp module's own wrappers
(`cone_member <- random_dilation <- ...`),
and the basis the solve started from (None for a cold solve).
`record --workload tests` instead runs pytest in process on the given test
files or directories (by default this checkout's tests/) and stores every
distinct problem, with its mode and start, that the tests hand to
`lp.solve`, in first-asked order and with the chain of its first asking;
they all count as set-up.
`callers` prints the cycle's LP solves per question by chain, then the
set-up's solves by chain.  A command whose reader closes stdout early
(`callers FILE | head -1`) exits 1 without a traceback.
`compare` solves every stored problem once
under each source tree, in a child process per tree that imports gptsteer
from TREE/src, and counts the problems whose outcome bytes differ.  An
outcome is the status, x, value, both dual vectors, the reduced costs and
the Farkas margin, or the type and message of the exception raised.  It
prints one JSON line and exits 1 when any outcome differs.  `diff` sets
two recordings side by side, say one made on each tree, since `compare`
cannot see a change that builds different problems: it counts the
positions whose mode, caller chain, question, start or any field's dtype,
shape or bytes differ, reports whether the problem counts differ, prints
one JSON line and exits 1 when anything differs.  `outcomes FILE
TREE` is the child's half: one status and digest per problem, as a JSON
list.  `time` loads both trees' gptsteer into one process, as two packages
under their own names, and times building each `LpProblem` and solving it.
Each round visits the problems in order and times both trees on a problem
before the next, the tree that goes first alternating.  Each problem keeps
its fastest of the R rounds; the JSON line gives the mean of those per
tree in microseconds per LP, rounded to 2 decimals, and the ratio B / A of
the rounded means.  Before it comes one line per caller chain, most LPs
first: the same two means and their ratio over that chain's LPs, the
count and the chain, so the time a change moves is attributed to the
layer that asks for the LPs.  A solve that raises is timed like one that
returns.
Every replay passes a problem's recorded start, and no start keyword at
all for a cold solve, so a recording without starts also replays on a
tree whose `lp.solve` takes none.

The file is a pickle of plain numpy arrays and strings; load only files you
recorded.  `load` also reads recordings made before the starts were stored
(four fields a problem), before the callers were (a bare list of
(fields, mode)) and while problems had an `upper` field (dropped when it
is +inf throughout; a finite one is refused), so a recording made on an
older tree still replays against a newer one.
"""

import argparse
import collections
import copy
import hashlib
import importlib
import importlib.util
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.run import import_library  # noqa: E402

FIELDS = ("objective", "eq_rows", "eq_rhs", "ub_rows", "ub_rhs", "lower")
OUTCOME = ("x", "value", "dual_eq", "dual_ub", "reduced_costs",
           "farkas_margin")


def start_key(start):
    """None for a cold solve, else the pickle of the start: two starts with
    the same key are the same start."""
    return None if start is None else pickle.dumps(start)


def field_key(fields):
    """Each field's name, dtype, shape and bytes, in name order: two
    problems with the same key and mode are the same problem."""
    return tuple((k, v.dtype.str, v.shape, v.tobytes())
                 for k, v in sorted(fields.items()))


def caller_chain(frame):
    """The gptsteer functions on the stack from `frame` outwards, innermost
    first, joined by " <- "; lp's own frames and generated code (dataclass
    __init__) are left out, and the chain ends at the first frame outside
    gptsteer."""
    names = []
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module != "gptsteer" and not module.startswith("gptsteer."):
            if names:
                break
        elif module != "gptsteer.lp" \
                and not frame.f_code.co_filename.startswith("<"):
            names.append(frame.f_code.co_qualname)
        frame = frame.f_back
    return " <- ".join(names)


def recorder(lp, keep):
    """A stand-in for `lp.solve` as it stands now: it hands each problem's
    fields, mode, start (copied) and caller chain to `keep`, then solves."""
    solve = lp.solve

    def recording(problem, mode="float", start=None):
        if isinstance(problem, lp.LpProblem):
            keep({k: getattr(problem, k).copy() for k in FIELDS}, mode,
                 copy.deepcopy(start), caller_chain(sys._getframe(1)))
        return solve(problem, mode, start=start)

    return recording


def record(workload, seed):
    """{"questions": n, "problems": [(fields, mode, chain, question,
    start)]} of every lp.solve call in the set-up (question None) and one
    cycle of `workload`, and the number of questions that raised."""
    import_library(ROOT)
    from gptsteer import lp
    from perfbench import workloads

    seen = []
    solve = lp.solve
    question = None

    def keep(fields, mode, start, chain):
        seen.append((fields, mode, chain, question, start))

    raised = 0
    lp.solve = recorder(lp, keep)
    try:
        cases = workloads.BUILDERS[workload](seed)
        cycle = workloads.CYCLES.get(workload) or len(cases)
        question = 0
        for case in cases[:cycle]:
            for _, ask in case.questions:
                try:
                    ask()
                except Exception as exc:  # the replay covers failing solves
                    raised += 1
                    print(f"lp_replay: {case.kind} raised {exc!r}",
                          file=sys.stderr)
                question += 1
    finally:
        lp.solve = solve
    return {"questions": question, "problems": seen}, raised


def record_tests(paths):
    """{"questions": 0, "problems": [(fields, mode, chain, None, start)]}
    of every distinct lp.solve problem and start the pytest run over
    `paths` asks for, and pytest's exit code."""
    import pytest

    import_library(ROOT)
    from gptsteer import lp

    seen = {}
    solve = lp.solve

    def keep(fields, mode, start, chain):
        key = (mode, start_key(start)) + field_key(fields)
        if key not in seen:
            seen[key] = (fields, mode, chain, None, start)

    # Patched before collection, so `from gptsteer.lp import solve` in a
    # test module binds the recording wrapper too.
    lp.solve = recorder(lp, keep)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir",
                            str(ROOT)] + [str(p) for p in paths])
    finally:
        lp.solve = solve
    return {"questions": 0, "problems": list(seen.values())}, int(code)


def load(path):
    """The recording in `path`, in the current format: a recording without
    callers (a bare list of (fields, mode)) gets chain and question None,
    one without starts gets start None, and one made while problems had
    upper bounds loses its all-+inf `upper` fields; a finite upper bound
    is refused, naming the problem."""
    with open(path, "rb") as fh:
        data = pickle.load(fh)
    if isinstance(data, list):
        data = {"questions": None, "problems": data}
    data["problems"] = [tuple(p) + (None,) * (5 - len(p))
                        for p in data["problems"]]
    for i, (fields, *_) in enumerate(data["problems"]):
        upper = fields.pop("upper", None)
        if upper is not None and (upper != float("inf")).any():
            raise SystemExit(f"lp_replay: problem {i} of {path} has a "
                             "finite upper bound")
    return data


def _bytes(v):
    import numpy as np

    if isinstance(v, np.ndarray):
        if v.dtype == object:
            return repr([(type(e).__name__, e) for e in v.tolist()])
        return v.dtype.str, v.shape, v.tobytes().hex()
    return type(v).__name__, repr(v)


def _solve(lp, fields, mode, start):
    """lp.solve on the recorded problem, with no start keyword for a cold
    solve."""
    problem = lp.LpProblem(**fields)
    if start is None:
        return lp.solve(problem, mode)
    return lp.solve(problem, mode, start=start)


def outcome_bytes(o):
    """An LpOutcome as a printable tuple: its status and the bytes of
    every OUTCOME field."""
    return (o.status,) + tuple(_bytes(getattr(o, k)) for k in OUTCOME)


def outcome(lp, fields, mode, start=None):
    """The outcome of one solve as a printable tuple."""
    try:
        o = _solve(lp, fields, mode, start)
    except Exception as exc:  # an exception is an outcome to compare
        return type(exc).__name__, str(exc)
    return outcome_bytes(o)


def outcomes(path, tree):
    """[(status, digest)] of every problem in `path`, solved by tree/src."""
    import_library(Path(tree).resolve())
    from gptsteer import lp

    out = []
    for fields, mode, _, _, start in load(path)["problems"]:
        got = outcome(lp, fields, mode, start)
        out.append((got[0], hashlib.sha256(repr(got).encode()).hexdigest()))
    return out


def _child(path, tree):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "outcomes",
         str(path), str(tree)],
        check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def compare(path, tree_a, tree_b):
    a, b = _child(path, tree_a), _child(path, tree_b)
    if len(a) != len(b):
        raise SystemExit("lp_replay: the trees replayed different counts")
    differ = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    return {"problems": len(a), "mismatches": len(differ),
            "first_mismatches": differ[:10],
            "statuses": dict(collections.Counter(s for s, _ in a))}


def _recorded(problem):
    fields, mode, chain, question, start = problem
    return mode, chain, question, start_key(start), field_key(fields)


def diff(path_a, path_b):
    """Positions where two recordings hold different problems, and
    whether their problem counts differ."""
    a, b = load(path_a)["problems"], load(path_b)["problems"]
    differ = [i for i, (x, y) in enumerate(zip(a, b))
              if _recorded(x) != _recorded(y)]
    return {"problems_a": len(a), "problems_b": len(b),
            "count_mismatch": len(a) != len(b), "differences": len(differ),
            "first_differences": differ[:10]}


def load_tree_lp(tree, name):
    """TREE/src/gptsteer imported as the package `name`; returns its lp
    module.  Relative imports keep every module inside that package, so
    two trees load side by side in one process."""
    src = Path(tree).resolve() / "src" / "gptsteer"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, src / "__init__.py", submodule_search_locations=[str(src)])
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.lp")


def _build_and_solve(lp, fields, mode, start):
    began = time.perf_counter()
    try:
        _solve(lp, fields, mode, start)
    except Exception:  # a failing solve is timed like any other
        pass
    return time.perf_counter() - began


def time_trees(path, tree_a, tree_b, rounds):
    """Microseconds per LP to build and solve every problem in `path`
    under each tree, each problem's fastest of `rounds` rounds, and the
    ratio B / A, as a dict; and the same per caller chain, as lines."""
    if rounds < 1:
        raise SystemExit("lp_replay: --rounds must be at least 1")
    libs = (load_tree_lp(tree_a, "lp_replay_tree_a"),
            load_tree_lp(tree_b, "lp_replay_tree_b"))
    recorded = load(path)["problems"]
    if not recorded:
        raise SystemExit(f"lp_replay: {path} holds no problems")
    best = [[float("inf")] * len(recorded) for _ in libs]
    for r in range(rounds):
        for i, (fields, mode, _, _, start) in enumerate(recorded):
            for k in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                best[k][i] = min(best[k][i], _build_and_solve(
                    libs[k], fields, mode, start))
    us = [round(1e6 * sum(b) / len(recorded), 2) for b in best]
    summary = {"problems": len(recorded), "rounds": rounds,
               "us_per_lp_a": us[0], "us_per_lp_b": us[1],
               "ratio": round(us[1] / us[0], 4)}
    return summary, _per_chain([p[2] for p in recorded], best)


def _per_chain(chains, best):
    """One line per caller chain, most LPs first: the mean microseconds per
    LP of each tree's best times, rounded to 2 decimals, the ratio B / A of
    the rounded means, the LP count and the chain ("-" for none)."""
    groups = collections.defaultdict(list)
    for i, chain in enumerate(chains):
        groups[chain or "-"].append(i)
    lines = []
    for chain, rows in _by_count({c: len(r) for c, r in groups.items()}):
        a, b = (round(1e6 * sum(t[i] for i in groups[chain]) / rows, 2)
                for t in best)
        lines.append(f"{a:10.2f} {b:10.2f} {b / a:8.4f} {rows:7d}  {chain}")
    return lines


def _by_count(counter):
    return sorted(counter.items(), key=lambda item: (-item[1], item[0]))


def callers(path):
    """Lines of LP solves per question by caller chain, most first, then
    the cycle's total, the set-up's count and its solves by chain."""
    data = load(path)
    if data["questions"] is None:
        raise SystemExit(f"lp_replay: {path} was recorded without callers")
    q = max(data["questions"], 1)
    cycle = collections.Counter(
        chain for _, _, chain, question, _ in data["problems"]
        if question is not None)
    setup = collections.Counter(
        chain for _, _, chain, question, _ in data["problems"]
        if question is None)
    lines = [f"{n / q:8.2f}  {chain}" for chain, n in _by_count(cycle)]
    lines.append(f"{sum(cycle.values()) / q:8.2f}  total per question, "
                 f"{data['questions']} questions")
    lines.append(f"{sum(setup.values()):8d}  set-up solves")
    lines += [f"{n:8d}  {chain}" for chain, n in _by_count(setup)]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="store one cycle's LP problems")
    rec.add_argument("--workload", required=True,
                     choices=("norms", "order", "steer", "tests"))
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--out", required=True)
    rec.add_argument("paths", nargs="*", default=[str(ROOT / "tests")],
                     help="test files or directories for --workload tests")
    cmp_ = sub.add_parser("compare", help="count outcome-byte mismatches")
    cmp_.add_argument("file")
    cmp_.add_argument("tree_a")
    cmp_.add_argument("tree_b")
    dif = sub.add_parser("diff", help="count problems two recordings differ in")
    dif.add_argument("file_a")
    dif.add_argument("file_b")
    tim = sub.add_parser("time", help="time build plus solve per LP")
    tim.add_argument("file")
    tim.add_argument("tree_a")
    tim.add_argument("tree_b")
    tim.add_argument("--rounds", type=int, default=7)
    who = sub.add_parser("callers", help="LP solves per question by caller")
    who.add_argument("file")
    one = sub.add_parser("outcomes", help="outcome digests under one tree")
    one.add_argument("file")
    one.add_argument("tree")
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`callers FILE | head -1`): point
        # stdout at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(args):
    if args.command == "record":
        if args.workload == "tests":
            data, code = record_tests(args.paths)
            summary = {"pytest_exit": code}
        else:
            data, raised = record(args.workload, args.seed)
            code = 0
            summary = {"questions": data["questions"],
                       "questions_raised": raised}
        with open(args.out, "wb") as fh:
            pickle.dump(data, fh)
        print(json.dumps({"problems": len(data["problems"]), **summary}))
        return code
    if args.command == "callers":
        print("\n".join(callers(args.file)))
    elif args.command == "time":
        summary, lines = time_trees(args.file, args.tree_a, args.tree_b,
                                    args.rounds)
        print("\n".join(lines))
        print(json.dumps(summary))
    elif args.command == "outcomes":
        print(json.dumps(outcomes(args.file, args.tree)))
    elif args.command == "diff":
        result = diff(args.file_a, args.file_b)
        print(json.dumps(result))
        return 1 if result["differences"] or result["count_mismatch"] else 0
    else:
        result = compare(args.file, args.tree_a, args.tree_b)
        print(json.dumps(result))
        return 1 if result["mismatches"] else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
