"""tools/code_lines.py: which lines count as code."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = textwrap.dedent('''\
    """Module docstring,
    on two lines."""

    # a comment line
    import os  # code with a comment


    class Box:
        """Class docstring."""

        size = 2


    def f(x):
        """Function docstring,

        on three lines."""
        text = """a string
        that is not a docstring"""
        return (x +
                1)


    async def g():
        """Async docstring."""
        "a second string is an expression, not a docstring"
''')


def test_docstrings_comments_and_blank_lines_do_not_count():
    # import, class, size, def, text (2 lines), return (2 lines), async def
    # and the second string
    assert load_tool().code_lines(SOURCE) == 10


def test_a_line_with_code_and_a_docstring_counts():
    tool = load_tool()
    assert tool.code_lines('def f(): """doc"""\n') == 1
    assert tool.code_lines('"""only a docstring"""\n') == 0
    assert tool.code_lines("") == 0


def test_command_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\n# note\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [f"2 {tmp_path / 'a.py'}",
                                f"10 {tmp_path / 'pkg' / 'b.py'}",
                                "12 total"]
