"""The `cli` workload: one `python -m gptsteer.cli` subprocess at a time.

Every verb except `selftest` runs on committed fixture files under
perfbench/cli/inputs; its stdout must equal perfbench/cli/expected/<name>.json
byte for byte.  The seed only shuffles the order of invocations within each
pass over the list, so the expected files hold for every seed.

This module imports neither numpy nor gptsteer, so the measuring process
stays out of the children's way; the traced run imports gptsteer.cli to
replay the same argument lists in process.
"""

import io
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from perfbench.cases import Case

CLI_DIR = Path("perfbench") / "cli"
INPUTS = CLI_DIR / "inputs"
EXPECTED = CLI_DIR / "expected"

# (name, argv after `python -m gptsteer.cli`), paths relative to the root.
INVOCATIONS = (
    ("norm-injective", ["norm", "tensor.json", "--kind", "injective"]),
    ("norm-steering", ["norm", "tensor.json", "--kind", "steering"]),
    ("norm-projective", ["norm", "tensor.json", "--kind", "projective"]),
    ("lhs", ["lhs", "asm_steerable.json"]),
    ("robustness", ["robustness", "asm_three_settings.json"]),
    ("witness", ["witness", "asm_steerable.json"]),
    ("choquet", ["choquet", "nu.json", "mu.json"]),
    ("cmu", ["cmu", "mu.json"]),
    ("mc-cmu", ["mc-cmu", "--dim", "3", "--samples", "20000", "--seed", "1"]),
    ("unsteerable", ["unsteerable", "state_diag.json"]),
    ("unsteerable-sufficient",
     ["unsteerable", "state_noisy.json", "--sufficient", "0.5"]),
    ("search", ["search", "state_noisy.json", "--shapes", "2,2",
                "--budget", "4", "--seed", "2"]),
)
PASSES = 40   # shuffled passes over INVOCATIONS in one sequence
REFERENCE_S = 0.2  # reference_child time that defines the reference speed


def argv_for(args, root=None):
    """Fixture names resolved to paths under `root`, or relative to the
    repository root (the children's working directory) when it is None."""
    inputs = INPUTS if root is None else Path(root) / INPUTS
    return [str(inputs / a) if a.endswith(".json") else a for a in args]


def child_env(root):
    env = dict(os.environ)
    src = str(Path(root) / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def run_child(root, args, timeout=120):
    """Run one CLI invocation; returns (exit code, stdout bytes)."""
    proc = subprocess.run(
        [sys.executable, "-m", "gptsteer.cli", *argv_for(args)],
        cwd=root, env=child_env(root), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=timeout, check=False)
    return proc.returncode, proc.stdout


def run_inproc(root, args):
    """The same argument list through `gptsteer.cli.main` in this process."""
    from gptsteer import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv_for(args, root))
    return code, buf.getvalue().encode()


def load_expected(root, expected_dir=None):
    """Expected stdout bytes for every invocation, by name."""
    where = Path(root) / (expected_dir or EXPECTED)
    return {name: (where / f"{name}.json").read_bytes()
            for name, _ in INVOCATIONS}


def _case(root, name, args, expected, runner):
    def ask():
        code, out = runner(root, args)
        return {"code": code, "stdout": out}

    def check(answers):
        a = answers[0]
        if a["code"] != 0:
            yield 0, f"{name} exited {a['code']}"
        elif a["stdout"] != expected:
            yield 0, f"{name} stdout differs from its expected file"

    return Case(f"cli.{name}", ((name, ask),), check)


def cases(root, seed, expected, runner=run_child, passes=PASSES):
    """Shuffled passes over every invocation, each run by
    `runner(root, argv)`: a child process, or `run_inproc`."""
    rng = random.Random(seed)
    out = []
    for _ in range(passes):
        order = list(INVOCATIONS)
        rng.shuffle(order)
        out += [_case(root, name, args, expected[name], runner)
                for name, args in order]
    return out


def import_probe(root):
    """Wall seconds of a child that only imports gptsteer."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gptsteer"], cwd=root,
                   env=child_env(root), check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def reference_child(root):
    """Wall seconds of a child that only imports numpy: how fast the machine
    starts the interpreter and imports, by code no gptsteer change moves."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=root,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start
