"""The dependency layers of docs/architecture.md, enforced.

Parses every module under ``src/repro`` and checks that what it imports
*at module level* only goes down (or sideways in) the diagram.  Imports
inside a function are the sanctioned way to reach up or to defer a
subsystem (``lang/compile.py`` -> ``match.instantiation``, the CLI's
handlers) and are not counted; ``if TYPE_CHECKING:`` blocks import
nothing at run time and are skipped.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent

#: Bottom to top.  ``errors`` and the lazy-surface helper are below
#: everything; ``obs`` is checked separately (it may be imported from
#: anywhere and imports nothing but itself).
LAYERS = [
    {"errors", "_lazy"},
    {"wm"},
    {"lang"},
    {"match", "locks", "txn", "fault"},
    {"core", "sim"},
    {"engine", "analysis", "workloads"},
    {"cli"},
    {"__main__", "__init__"},
]
RANK = {unit: rank for rank, layer in enumerate(LAYERS) for unit in layer}

#: Modules allowed to import upwards, with the layer they reach.
EXCEPTIONS = {
    # The engine-driven crash sweep lives with the other fault drivers
    # (docs/architecture.md, "fault"); ``fault/__init__`` does not
    # export it, so importing ``repro.fault`` stays engine-free.
    ("fault/firing_chaos.py", "engine"),
    # ROADMAP 7(e)'s island: no consumer but its own test.
    ("core/observe.py", "engine"),
}


def _module_level_imports(tree: ast.Module):
    """(lineno, dotted module) of every import that runs at import."""

    def visit(statements):
        for node in statements:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield node.lineno, alias.name
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, "relative import"
                yield node.lineno, node.module
            elif isinstance(node, ast.If):
                if "TYPE_CHECKING" not in ast.unparse(node.test):
                    yield from visit(node.body)
                yield from visit(node.orelse)
            elif isinstance(node, ast.Try):
                yield from visit(node.body + node.orelse + node.finalbody)
                for handler in node.handlers:
                    yield from visit(handler.body)
            elif isinstance(node, (ast.ClassDef, ast.With)):
                yield from visit(node.body)

    return visit(tree.body)


def _edges():
    """(file, lineno, importing unit, imported unit) for every
    module-level import of one ``repro`` unit from another."""
    for path in sorted(ROOT.rglob("*.py")):
        relative = path.relative_to(ROOT)
        unit = relative.parts[0] if len(relative.parts) > 1 else path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for lineno, module in _module_level_imports(tree):
            parts = module.split(".")
            if parts[0] != "repro":
                continue
            target = parts[1] if len(parts) > 1 else "__init__"
            if target != unit:
                yield relative.as_posix(), lineno, unit, target


EDGES = list(_edges())


def test_every_unit_has_a_layer():
    units = {edge[2] for edge in EDGES} | {edge[3] for edge in EDGES}
    assert units - {"obs"} <= set(RANK)
    assert len(EDGES) > 150  # the scan sees the tree


def test_module_level_imports_only_go_down():
    upward = {
        (file, target)
        for file, _lineno, unit, target in EDGES
        if "obs" not in (unit, target) and RANK[target] > RANK[unit]
    }
    assert upward == EXCEPTIONS


def test_obs_imports_only_itself():
    # ... and, in its ``__init__``, the helper that makes a surface lazy.
    assert [
        (file, target) for file, _, unit, target in EDGES if unit == "obs"
    ] == [("obs/__init__.py", "_lazy")]


def test_null_observer_module_is_standard_library_only():
    tree = ast.parse((ROOT / "obs" / "null.py").read_text(encoding="utf-8"))
    imported = {module for _, module in _module_level_imports(tree)}
    assert imported == {"__future__", "typing"}

