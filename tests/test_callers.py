"""Each module-level function and class of the library modules and the CLI,
and each method of those classes, private ones included and dunders
excepted, is named somewhere in src/emptytet besides its own definition (a
call, an attribute, an import), or UNCALLED gives the reason it stays
without a caller.  A new function with no caller, or a private helper that
outlives its last caller, fails here until it gets one or a reason.  A
name mentioned only inside the bodies of uncalled functions has no caller
either: those mentions are discounted, again and again until the uncalled
set stops growing.

A reason that says "traced by bench/run.py" holds only while the benchmark
traces that name: once it stops, the entry fails here and the function is
left to be moved out of the library or deleted.

The package holds no assert statement, so that `python -O` still runs
every check it makes.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "emptytet"
MODULES = ("intlin", "geometry", "white", "normalize", "verify", "cli")

TRACED = "traced by bench/run.py"

UNCALLED = {
    "adjugate": TRACED,
    "compose": TRACED,
    "extend_to_basis": TRACED,
    "floor_step": TRACED,
    "floor_step_support": f"{TRACED}; public API that tests/test_white.py checks",
    "lattice_points_in": "reference oracle the geometry and normalize tests compare against",
    "is_empty_bruteforce": "reference oracle the tests and the acceptance gate compare against",
    "satisfies_fraction_system": "the paper's emptiness system, checked by acceptance criterion 3",
    "satisfies_step_system": "the paper's emptiness system, checked by acceptance criterion 3",
    "_require_clean_with_height": "the precondition of the paper's two emptiness systems, its only callers",
}


def _mentions(node) -> list[str]:
    """Every name mentioned under node: names, attributes and imported aliases."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.alias):
            names.append(sub.name)
    return names


def test_public_names_have_a_caller_or_a_reason():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PKG.glob("*.py")}
    mentions = Counter(name for tree in trees.values() for name in _mentions(tree))
    defs = [
        node
        for module in MODULES
        for top in trees[module].body
        for node in (top, *(top.body if isinstance(top, ast.ClassDef) else ()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__")
    ]
    uncalled: set[str] = set()
    while True:
        discounted = Counter(name for node in defs if node.name in uncalled for name in _mentions(node))
        grown = {node.name for node in defs if mentions[node.name] <= discounted[node.name]}
        if grown == uncalled:
            break
        uncalled = grown
    assert uncalled == set(UNCALLED)


def test_traced_reasons_name_what_the_benchmark_traces():
    # Rows are (module, attribute, ...) and (module, class, attribute, ...);
    # only the attribute, a string literal, is read.
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    column = {"TRACED_FUNCTIONS": 1, "TRACED_METHODS": 2}
    traced = {
        row.elts[column[target.id]].value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in column
        for row in node.value.elts
    }
    claimed = {name for name, reason in UNCALLED.items() if TRACED in reason}
    assert claimed - traced == set()


def test_no_assert_statements_in_the_package():
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PKG.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
