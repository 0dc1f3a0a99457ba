"""The benchmark in ``perfbench/`` calls the library by name.

Most of these tests read its sources with ``ast``; one runs the worker's
traced ``verify-catalog`` and ``separate`` ops on a small grid.  A change
to ``liemd`` that drops or breaks a name or a call the benchmark uses
fails here rather than only in a benchmark run.
"""

import ast
import importlib
import sys
from pathlib import Path

from liemd.kirillov import GridSpec
from oracles import grid_covectors

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _trees():
    for path in sorted(PERFBENCH.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _liemd_imports():
    """(file, module, name) for every ``from liemd... import name``."""
    for filename, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "liemd"):
                for alias in node.names:
                    yield filename, node.module, alias.name


def _lib_grid() -> GridSpec:
    """The grid of the benchmark's library workload, read from ``run.py``."""
    tree = dict(_trees())["run.py"]
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LIB_GRID" for t in node.targets)):
            spec = ast.literal_eval(node.value)
            return GridSpec(radius=spec["radius"], extra_random_samples=spec["samples"],
                            seed=spec["seed"])
    raise AssertionError("run.py defines no LIB_GRID")


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # ``from liemd import catalog`` names a submodule
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_perfbench_library_imports_resolve():
    found = list(_liemd_imports())
    assert any(name == "GridSpec" for _, _, name in found)
    missing = [f"{filename}: from {module} import {name}"
               for filename, module, name in found if not _resolves(module, name)]
    assert not missing


def test_perfbench_grid_enumeration_matches_the_oracle():
    # the traced grid workload times list(grid.covectors(5))
    grid = _lib_grid()
    covectors = list(grid.covectors(5))
    assert len(covectors) == grid.count(5)
    assert covectors == grid_covectors(grid, 5)


def test_perfbench_worker_traces_catalog_and_separate(monkeypatch):
    # the worker imports its siblings (``run`` and what ``run`` imports) as
    # top-level modules; take them out of ``sys.modules`` again afterwards
    before = set(sys.modules)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    try:
        worker = importlib.import_module("worker")
        grid = {"radius": 1, "samples": 10, "seed": 1}
        catalog = worker.run_trace({"kind": "verify-catalog", "grid": grid})
        separate = worker.run_trace({"kind": "separate", "grid": grid})
    finally:
        for name in {"worker", "run", "checks", "inputs"} - before:
            sys.modules.pop(name, None)
    for result in (catalog, separate):
        assert result["spans"] and all(end is not None for _, _, end, _ in result["spans"])
    assert catalog["facts"]["verdicts"] == 42
    assert separate["facts"]["pairs"] == 42 * 41 // 2
