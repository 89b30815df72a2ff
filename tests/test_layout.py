"""``src/`` holds only what the program, the benchmark or the acceptance suite
reaches: a public name that only unit tests use belongs in ``tests/support.py``,
a private name that nothing else in ``src/`` reads is dead, and so is a
dataclass field that none of them reads, and a defaulted parameter that no
call passes is a knob nobody turns.  The learner reads no game table, only
the n and mu(N) its oracle exposes.  A tolerance is a named module constant,
stated once.  Docstrings keep derivations; a timing, host or version goes
stale with the next change, so it belongs in CHANGES.md, and a ROADMAP item
number goes stale when the plan is renumbered, so a docstring states the
reason itself."""

import ast
import re
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


def unused_in_src(wanted):
    """``file:name`` of each top-level name of ``src/core_picker/*.py`` that
    ``wanted(path, name)`` selects and no other top-level node of ``src/`` reads."""
    top = [(path, node) for path in sorted((ROOT / "src" / "core_picker").glob("*.py"))
           for node in ast.parse(path.read_text()).body]
    uses = [used_names(node) for _, node in top]
    return [f"{path.name}:{name}"
            for i, (path, node) in enumerate(top) for name in defined_names(node)
            if wanted(path, name) and not any(name in u for j, u in enumerate(uses) if j != i)]


def test_every_public_name_in_src_is_reached():
    reached = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        reached |= used_names(ast.parse(path.read_text()), strings=True)
    for path in [*(ROOT / "scripts").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]:
        reached |= used_names(ast.parse(path.read_text()))

    def unreached(path, name):
        return path.name != "__init__.py" and not name.startswith("_") and name not in reached

    assert unused_in_src(unreached) == []


def dataclass_fields(tree):
    """``(class, field)`` of each annotated field of each ``@dataclass`` in a tree."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
                ast.unparse(d).partition("(")[0] == "dataclass" for d in cls.decorator_list):
            yield from ((cls.name, node.target.id) for node in cls.body
                        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name))


def test_every_dataclass_field_in_src_is_read():
    # a field that is filled in and never read is bookkeeping for no one:
    # constructor keywords and the annotation itself are not reads
    read = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py"),
                 *(ROOT / "scripts").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]:
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name}:{cls}.{field}"
              for path in sorted((ROOT / "src" / "core_picker").glob("*.py"))
              for cls, field in dataclass_fields(ast.parse(path.read_text()))
              if field not in read]
    assert unread == []


def test_every_private_name_in_src_is_used_in_src():
    # a private helper that a merge left behind is dead code, whatever the tests call
    assert unused_in_src(lambda path, name: name.startswith("_")) == []


def defaulted_params(fn):
    """(name, position or None if keyword-only) of each defaulted parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    keyword_only = zip(args.kwonlyargs, args.kw_defaults)
    return ([(a.arg, i) for i, a in enumerate(positional) if i >= first]
            + [(a.arg, None) for a, default in keyword_only if default is not None])


def passes(call, name, position):
    """Whether a call gives the parameter by position, by keyword, or
    through ``*args`` or ``**kwargs``."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if position is not None and position < len(call.args):
        return True
    return any(k.arg in (name, None) for k in call.keywords)


def test_every_defaulted_parameter_in_src_is_passed():
    # a default that no call overrides is a constant dressed as a knob
    calls = {}
    for top in ("src", "tests", "perfbench", "scripts"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)
    unturned = [f"{path.name}:{fn.name}({param})"
                for path in sorted((ROOT / "src" / "core_picker").glob("*.py"))
                for fn in ast.parse(path.read_text()).body if isinstance(fn, ast.FunctionDef)
                for param, position in defaulted_params(fn)
                if not any(passes(call, param, position) for call in calls.get(fn.name, []))]
    assert unturned == []


def test_learner_reads_the_game_only_through_n_and_mu_grand():
    # the oracle's n and mu_grand are all the learner may know of the game:
    # a read of the table would let it learn from something besides the bandit
    tree = ast.parse((ROOT / "src" / "core_picker" / "learner.py").read_text())
    names = used_names(tree) | {a.name for a in ast.walk(tree) if isinstance(a, ast.alias)}
    assert names & {"game", "mu", "_mu", "GameSpec"} == set()


MEASUREMENT = re.compile(r"\d\s*(?:ns|µs|us)\b|x86|Python 3\.|numpy 2\.")


def src_docstrings():
    """``(file:name, docstring)`` of the module, each class and each function of ``src/``."""
    for path in sorted((ROOT / "src" / "core_picker").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)):
                where = f"{path.name}:{getattr(node, 'name', 'module')}"
                yield where, ast.get_docstring(node) or ""


def test_no_docstring_in_src_quotes_a_measurement():
    quoted = [f"{where}: {found.group()}" for where, doc in src_docstrings()
              if (found := MEASUREMENT.search(doc))]
    assert quoted == []


def test_no_docstring_in_src_cites_a_roadmap_item():
    # the plan renumbers and prunes its items, so "ROADMAP item 5" soon names another task
    assert [where for where, doc in src_docstrings() if "ROADMAP" in doc] == []


TOLERANCE = 1e-6  # a float literal of smaller magnitude, but not zero, is a tolerance
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def test_every_tolerance_in_src_is_a_named_module_constant():
    # a bare 1e-10 in a function is a second copy of a tolerance, free to drift
    unnamed = []
    for path in sorted((ROOT / "src" / "core_picker").glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {id(literal) for node in tree.body if isinstance(node, ast.Assign)
                 and all(isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)
                         for t in node.targets)
                 for literal in ast.walk(node.value)}
        unnamed += [f"{path.name}:{node.lineno}: {node.value!r}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0 < abs(node.value) < TOLERANCE and id(node) not in named]
    assert unnamed == []
