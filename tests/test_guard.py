"""Structure guards on ``src/nsforge``, read from the source: no dead module-level
function or class method, and no module importing from a higher layer.

The layers are ROADMAP's: L0 ring kernels, L1 class invariants, L2 analytic
tests, L3 constructions, L4 searches, L5 the wire formats and the CLI.
``__init__`` and ``__main__`` are the package surface above them.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import nsforge
from nsforge import cli

SRC = Path(nsforge.__file__).parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}

LAYERS = {
    "_intlinalg": 0, "_gaussian": 0, "_poly": 0, "errors": 0,
    "exterior": 1, "symplectic": 1, "normend": 1,
    "riemann": 2, "humbert": 2,
    "construct": 3,
    "scan": 4,
    "jsonio": 5, "cli": 5,
}

# kept although no src code reads them, each with its reason
UNREFERENCED = {
    "_intlinalg.det_fraction": "perfbench/tracing.py's TRACED still looks it up by name",
    "_intlinalg.solve_fraction": "perfbench/tracing.py's TRACED still looks it up by name",
    "cli.run": "the CLI's in-process entry point, which tests and perfbench's cli workload call",
}

# methods kept although no src code reads them, each with its reason
UNREAD_METHODS = {
    "_poly.IntPoly.evaluate": "the tests evaluate relations at tau, test_acceptance.py among them",
    "exterior.ModLCheck.ok": "a public result accessor, which the tests read",
    "symplectic.IntegerLattice.rank": "a public result accessor, which the tests read",
}

# imports of a higher layer, each with its reason
UPWARD = {
    ("riemann", "scan"): "scan_ppav walks with scan._walk and checks scan's box budget",
}


READS = (ast.Name, ast.Attribute)


def _names(node, kinds=READS):
    """How often each name is read in ``node``: a Name's id or an Attribute's attr."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, kinds))


PUBLIC = set(nsforge.__all__) | {command.handler.__name__ for command in cli._COMMANDS.values()}
EVERYWHERE = sum(map(_names, TREES.values()), Counter())
ATTRIBUTES = sum((_names(tree, ast.Attribute) for tree in TREES.values()), Counter())


def _dead(node, method=False):
    """A function that is not public and whose name nothing outside its own body reads.

    A method is read only through an attribute, so a same-named local does not hide it.
    """
    kinds, reads = (ast.Attribute, ATTRIBUTES) if method else (READS, EVERYWHERE)
    return (isinstance(node, ast.FunctionDef) and node.name not in PUBLIC
            and reads[node.name] == _names(node, kinds)[node.name])


def test_every_module_level_function_is_used():
    dead = sorted(f"{module}.{node.name}" for module, tree in TREES.items() for node in tree.body
                  if _dead(node))
    assert dead == sorted(UNREFERENCED)


def test_every_method_is_used():
    """Dunder methods and overrides (``cli._Parser.error``) are called by the language or a
    base class, not by name in ``src``, and are not checked."""
    def inherited(module, cls, name):
        return any(name in vars(base) for base in
                   getattr(importlib.import_module(f"nsforge.{module}"), cls).__mro__[1:])

    dead = sorted(f"{module}.{cls.name}.{node.name}" for module, tree in TREES.items()
                  for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body
                  if _dead(node, method=True) and not node.name.startswith("__")
                  and not inherited(module, cls.name, node.name))
    assert dead == sorted(UNREAD_METHODS)


def test_no_module_imports_a_higher_layer():
    assert set(LAYERS) == set(TREES) - {"__init__", "__main__"}
    upward = set()
    for module, tree in TREES.items():
        if module not in LAYERS:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                upward |= {(module, t) for t in targets if LAYERS[t] > LAYERS[module]}
    assert upward == set(UPWARD)
