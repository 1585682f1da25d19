"""No test-only public API: every name a module exports is read by the
package itself, by the benchmark harness, or by the acceptance suite.  And
one module knows the report's format: `cli` alone writes JSON or text."""

import ast
from pathlib import Path

import pytest

import a6k3

SRC = Path(a6k3.__file__).parent
ROOT = SRC.parent.parent


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def package_loads(modules):
    """(module, name) pairs loaded in the package, a name resolved to the
    module that defines it through `from .module import name`; a load inside
    the top-level definition of the same name does not count."""
    used = set()
    for module, tree in modules.items():
        origin = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                    used.add(origin.get(node.id, (module, node.id)))
    return used


def harness_names():
    """Every identifier and string constant in perfbench/*.py: the tracer
    names the functions it wraps as strings."""
    names = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def acceptance_imports():
    tree = parse(ROOT / "tests" / "test_acceptance.py")
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_the_package_namespace_binds_only_its_version():
    # no re-exports: importing one module of the package loads only the
    # modules that it imports itself
    tree = parse(SRC / "__init__.py")
    assert ast.get_docstring(tree)
    assert [ast.unparse(node).partition(" = ")[0] for node in tree.body[1:]] == ["__version__"]


def test_every_export_has_a_reader_outside_the_unit_tests():
    modules = {path.stem: parse(path) for path in sorted(SRC.glob("*.py"))}
    used = package_loads(modules)
    outside = harness_names() | acceptance_imports()
    unread = [
        f"{module}.{name}"
        for module, tree in modules.items()
        for name in exported(tree)
        if (module, name) not in used and name not in outside
    ]
    assert unread == []


RENDERERS = {"render_table_text", "_equation_text"}
# the modules that may call `.render_text()`: exact defines it, and its
# `__repr__` reads it
RENDER_TEXT_CALLERS = {"cli", "exact"}


def test_the_report_format_lives_in_cli():
    # the records carry data; no record serializes itself, and no module but
    # cli imports json or renders text
    misplaced, in_cli = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Call) and path.stem not in RENDER_TEXT_CALLERS:
                if isinstance(node.func, ast.Attribute) and node.func.attr == "render_text":
                    misplaced.append(f"{path.stem} calls render_text at line {node.lineno}")
            elif isinstance(node, ast.FunctionDef):
                if path.stem == "cli":
                    in_cli.add(node.name)
                elif node.name in RENDERERS:
                    misplaced.append(f"{path.stem}.{node.name}")
                if node.name == "to_json":
                    misplaced.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Import) and path.stem != "cli":
                misplaced += [f"{path.stem} imports {a.name}" for a in node.names if a.name == "json"]
            elif isinstance(node, ast.ImportFrom) and node.module == "json" and path.stem != "cli":
                misplaced.append(f"{path.stem} imports from json")
    assert misplaced == []
    assert RENDERERS <= in_cli


# each of the paper's answers with the top-level names that may hold it: the
# claims table, and for the verdict the candidate labels of extbuild
CLAIMED = {("cli", "CLAIMS")}
ANSWERS = {
    "M10_2": CLAIMED | {("extbuild", "KINDS"), ("extbuild", "_KIND_BY_FUSION")},
    (1, 5, 5, 8, 8, 9, 10): CLAIMED,
    (1, 1, 0, 0, 1, 0): CLAIMED,
    frozenset({(-1, 1, -1), (1, -1, -1), (-1, -1, -1), (-1, -1, 1)}): CLAIMED,
    (2, -1, True, (1, 1)): CLAIMED,
    (8, 1, True, (0, 8)): CLAIMED,
    (22, -1, True, (3, 19)): CLAIMED,
    (2, 36, True, (2, 0)): CLAIMED,
}
NOT_LITERAL = object()


def literal(node):
    """The value a node writes out, with a set read as a frozenset and a
    call such as `SignCase(-1, 1, -1)` as the tuple of its arguments."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = literal(node.operand)
        return -value if isinstance(value, int) else NOT_LITERAL
    if isinstance(node, ast.Call) and not node.keywords:
        parts = node.args
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        parts = node.elts
    else:
        return NOT_LITERAL
    values = tuple(map(literal, parts))
    if NOT_LITERAL in values:
        return NOT_LITERAL
    return frozenset(values) if isinstance(node, ast.Set) else values


def test_the_paper_answers_are_stated_once():
    # the engine checks its computations against themselves; only the claims
    # table compares them with the paper
    found = {answer: set() for answer in ANSWERS}
    for path in sorted(SRC.glob("*.py")):
        for top in parse(path).body:
            targets = getattr(top, "targets", [top])
            name = getattr(targets[0], "id", getattr(top, "name", None))
            for node in ast.walk(top):
                value = literal(node)
                if value is not NOT_LITERAL and value in ANSWERS:
                    found[value].add((path.stem, name))
    assert found == ANSWERS


def test_the_sources_parse_with_the_oldest_supported_grammar():
    # pyproject.toml promises Python 3.10; the 3.10 grammar rejects the
    # syntax added since, such as except*
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
