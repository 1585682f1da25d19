"""No test-only public API: every name a module exports is read by the
package itself, by the benchmark harness, or by the acceptance suite.  And
one module knows the report's format: `cli` alone writes JSON or text."""

import ast
from pathlib import Path

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


def test_every_export_has_a_reader_outside_the_unit_tests():
    # __init__.py only re-exports names that the modules' own lists cover
    modules = {path.stem: parse(path) for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    used = package_loads(modules)
    outside = harness_names() | acceptance_imports()
    unread = [
        f"{module}.{name}"
        for module, tree in modules.items()
        for name in exported(tree)
        if (module, name) not in used and name not in outside
    ]
    assert unread == []


RENDERERS = {"render_table_text", "display_value", "_equation_text"}


def test_the_report_format_lives_in_cli():
    # the records carry data; no record serializes itself, and no module but
    # cli imports json or renders text
    misplaced, in_cli = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.FunctionDef):
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
