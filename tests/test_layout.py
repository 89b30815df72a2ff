"""``src/`` holds only what the program, the benchmark or the acceptance suite
reaches: a public name that only unit tests use belongs in ``tests/support.py``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def used_names(tree, strings=False):
    """Names and attributes a tree reads, plus its string constants if asked
    (the benchmark's hooks name functions by string)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_public_name_in_src_is_reached():
    reached = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        reached |= used_names(ast.parse(path.read_text()), strings=True)
    for path in [*(ROOT / "scripts").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]:
        reached |= used_names(ast.parse(path.read_text()))
    top = [(path, node) for path in sorted((ROOT / "src" / "core_picker").glob("*.py"))
           for node in ast.parse(path.read_text()).body]
    uses = [used_names(node) for _, node in top]
    dead = []
    for i, (path, node) in enumerate(top):
        for name in defined_names(node):
            if path.name == "__init__.py" or name.startswith("_") or name in reached:
                continue
            if not any(name in u for j, u in enumerate(uses) if j != i):
                dead.append(f"{path.name}:{name}")
    assert dead == []
