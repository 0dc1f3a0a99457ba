"""Every function, method and class under ``src/liemd`` has a caller.

A definition counts as used when its name appears as a name, an attribute
or an imported name somewhere in ``src/liemd`` outside the definition
itself, or anywhere in ``perfbench/*.py``.  Dunder methods are called by
Python and are not scanned.  Prose in docstrings and comments does not
count.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# documented API that nothing in the library or the benchmark calls
ALLOWED = {
    "is_lie": "README: LieAlgebra's Jacobi check, as a predicate",
    "direct_sum": "README: LieAlgebra's direct sums",
    "abelian": "README: LieAlgebra.abelian, the abelian algebra of a dimension",
}


def names(tree) -> Counter:
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name] += 1
    return counts


def definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node


def test_every_definition_is_named_outside_itself():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "liemd").glob("*.py"))}
    library = sum((names(tree) for tree in trees.values()), Counter())
    bench = sum((names(ast.parse(path.read_text(encoding="utf-8")))
                 for path in (ROOT / "perfbench").glob("*.py")), Counter())
    unused = {(module, node.name) for module, tree in trees.items()
              for node in definitions(tree)
              if library[node.name] == names(node)[node.name] and not bench[node.name]}
    assert sorted(f"{module}: {name}" for module, name in unused if name not in ALLOWED) == []
    # and no allowance has outlived the need for it
    assert sorted(name for _, name in unused) == sorted(ALLOWED)
