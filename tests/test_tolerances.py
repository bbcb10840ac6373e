"""The tolerance table is the one place a library tolerance is defined."""

import ast
import pathlib

import gptsteer

SRC = pathlib.Path(gptsteer.__file__).parent
# The table itself, and the acceptance battery's own pass bounds.
OWNERS = {"tolerances.py", "selftest.py"}


def _modules():
    for path in sorted(SRC.glob("*.py")):
        if path.name not in OWNERS:
            yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_other_module_assigns_a_tolerance_constant():
    found = []
    for name, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            found += [f"{name}: {n.id}" for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name) and n.id.endswith("_TOL")]
    assert found == []


def test_no_other_module_writes_a_tolerance_literal():
    # Every table entry lies in [1e-10, 1e-6]; positivity cut-offs (1e-12,
    # 1e-15) and coarser widths stay literal where they are used.
    found = [f"{name}:{node.lineno}: {node.value!r}"
             for name, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and type(node.value) is float
             and 1e-10 <= node.value <= 1e-6]
    assert found == []
