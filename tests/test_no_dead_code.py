"""Every function, method, class and module-level name under ``src/liemd``
has a caller.

A definition counts as used when its name appears as a name, an attribute
or an imported name somewhere in ``src/liemd`` outside the definition
itself, or anywhere in ``perfbench/*.py``.  The ``from .x import ...``
lines of ``__init__.py`` re-export a name and do not count as a use.
Dunder names are used by Python and are not scanned.  Prose in docstrings
and comments does not count.
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


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


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


def uses(module: str, tree) -> Counter:
    """``names(tree)``, less the re-exports of a package's ``__init__``."""
    counts = names(tree)
    if module == "__init__.py":
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level:
                counts.subtract(names(node))
    return counts


def definitions(tree):
    """(name, node) for each def and class, and each name bound at module level."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node


def test_every_definition_is_named_outside_itself():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "liemd").glob("*.py"))}
    library = sum((uses(module, tree) for module, tree in trees.items()), Counter())
    bench = sum((names(ast.parse(path.read_text(encoding="utf-8")))
                 for path in (ROOT / "perfbench").glob("*.py")), Counter())
    unused = {(module, name) for module, tree in trees.items()
              for name, node in definitions(tree)
              if not is_dunder(name)
              and library[name] == names(node)[name] and not bench[name]}
    assert sorted(f"{module}: {name}" for module, name in unused if name not in ALLOWED) == []
    # and no allowance has outlived the need for it
    assert sorted(name for _, name in unused) == sorted(ALLOWED)
