"""Each public module-level function and class of the library modules, and
each public method of those classes, is named somewhere in src/emptytet
besides its own definition (a call, an attribute, an import), or UNCALLED
gives the reason it stays without a caller.  A new function with no caller
fails here until it gets one or a reason.
"""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "emptytet"
MODULES = ("intlin", "geometry", "white", "normalize", "verify")

UNCALLED = {
    "adjugate": "traced by bench/run.py",
    "compose": "traced by bench/run.py",
    "extend_to_basis": "traced by bench/run.py",
    "floor_step": "traced by bench/run.py",
    "floor_step_support": "traced by bench/run.py; public API that tests/test_white.py checks",
    "lattice_points_in": "reference oracle the geometry and normalize tests compare against",
    "is_empty_bruteforce": "reference oracle the tests and the acceptance gate compare against",
    "satisfies_fraction_system": "the paper's emptiness system, checked by acceptance criterion 3",
    "satisfies_step_system": "the paper's emptiness system, checked by acceptance criterion 3",
}


def test_public_names_have_a_caller_or_a_reason():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PKG.glob("*.py")}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    named = {node.id for node in nodes if isinstance(node, ast.Name)}
    named |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    named |= {node.name for node in nodes if isinstance(node, ast.alias)}
    uncalled = {
        node.name
        for module in MODULES
        for top in trees[module].body
        for node in (top, *(top.body if isinstance(top, ast.ClassDef) else ()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in named
    }
    assert uncalled == set(UNCALLED)
