"""``scripts/src_lines.py``: each module's lines split into code, docstring,
comment and blank lines, which sum to its line count."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "src_lines.py"


def load_script():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_module_splits_into_parts_that_sum_to_its_lines():
    result = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                            timeout=60, check=True)
    header, *rows = [line.split() for line in result.stdout.splitlines()]
    assert header == ["module", "lines", "code", "docstrings", "comments", "blank"]
    modules = sorted(path.name for path in (ROOT / "src" / "core_picker").glob("*.py"))
    assert [row[0] for row in rows] == [*modules, "total"]
    for name, lines, *parts in rows:
        assert int(lines) == sum(map(int, parts)), name
        if name != "total":
            source = (ROOT / "src" / "core_picker" / name).read_text()
            assert int(lines) == len(source.splitlines()), name
    assert [sum(int(row[i]) for row in rows[:-1]) for i in range(1, 6)] == list(
        map(int, rows[-1][1:]))


def test_a_small_module_splits_as_read():
    source = ('"""Module.\n\nMore."""\n\n# a comment\nx = 1  # code\n'
              's = """\n# inside a string\n"""\n\ndef f():\n    """Doc."""\n    return x\n')
    assert load_script().count(source) == {
        "lines": 13, "code": 6, "docstrings": 4, "comments": 1, "blank": 2}
