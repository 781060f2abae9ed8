"""Structure guards on ``src/nsforge``, read from the source: no dead module-level
function, and no module importing from a higher layer.

The layers are ROADMAP's: L0 ring kernels, L1 class invariants, L2 analytic
tests, L3 constructions, L4 searches, L5 the wire formats and the CLI.
``__init__`` and ``__main__`` are the package surface above them.
"""

import ast
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

# imports of a higher layer, each with its reason
UPWARD = {
    ("riemann", "scan"): "scan_ppav walks with scan._walk and checks scan's box budget",
}


def _names(node):
    """How often each name is read in ``node``: a Name's id or an Attribute's attr."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_module_level_function_is_used():
    public = set(nsforge.__all__) | {command.handler.__name__ for command in cli._COMMANDS.values()}
    everywhere = sum(map(_names, TREES.values()), Counter())
    dead = sorted(f"{module}.{node.name}" for module, tree in TREES.items() for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name not in public
                  and everywhere[node.name] == _names(node)[node.name])
    assert dead == sorted(UNREFERENCED)


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
