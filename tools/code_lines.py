"""Count the code lines of Python sources: lines that hold a token other
than a comment, leaving out module, class and function docstrings.

    python3 tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched recursively for them (by
default src/ beside this script's tools/ directory).  Prints one
"count path" line per file, sorted by path, then "count total".  Blank
lines, comment-only lines and docstrings do not count; a line that holds
code and a comment, or code and a docstring, does.  A multi-line token,
such as a string that is not a docstring, counts every line it spans.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(tree):
    """(line, column) of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if not isinstance(node, DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source):
    """Number of code lines in the Python source text."""
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths):
    for path in paths:
        path = Path(path)
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    total = 0
    for path in sorted(python_files(args or [ROOT / "src"])):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(count, path)
    print(total, "total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
