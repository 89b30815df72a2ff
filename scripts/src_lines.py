#!/usr/bin/env python3
"""Count the lines of each module of a package, split with ``ast`` and
``tokenize`` into code, docstring, comment and blank lines.

Usage, from the repository root:

    python3 scripts/src_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/core_picker``.  A docstring line is a line of
the docstring of the module, a class or a function, blank lines inside it
included.  A comment line holds only a comment, and a blank line only
whitespace; every other line is code, so the four parts sum to the file's
line count.  One row per module, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARTS = ("code", "docstrings", "comments", "blank")


def docstring_lines(tree) -> set:
    """Line numbers spanned by the docstrings of the module, its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """The line count of ``source`` and its split into :data:`PARTS`."""
    text = source.splitlines()
    docs = docstring_lines(ast.parse(source))
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    comments = {tok.start[0] for tok in tokens  # a comment with nothing before it on its line
                if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip()}
    parts = dict.fromkeys(PARTS, 0)
    for number, line in enumerate(text, start=1):
        part = ("docstrings" if number in docs else "comments" if number in comments
                else "blank" if not line.strip() else "code")
        parts[part] += 1
    return {"lines": len(text), **parts}


def main():
    package = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "src" / "core_picker"
    rows = {path.name: count(path.read_text()) for path in sorted(package.glob("*.py"))}
    rows["total"] = {key: sum(row[key] for row in rows.values()) for key in ("lines", *PARTS)}
    print(f"{'module':<14}" + "".join(f"{key:>11}" for key in ("lines", *PARTS)))
    for name, row in rows.items():
        print(f"{name:<14}" + "".join(f"{value:>11}" for value in row.values()))


if __name__ == "__main__":
    main()
