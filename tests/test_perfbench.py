"""The benchmark in ``perfbench/`` calls the library by name.

Most of these tests read its sources with ``ast``; two run the worker's
traced ops (``verify-catalog``, ``separate``, ``presentations`` and one
``check``) on a radius-1 grid.  A change to ``liemd`` that drops or breaks
a name or a call the benchmark uses fails here rather than only in a
benchmark run.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

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


@pytest.fixture
def perfbench_modules(monkeypatch):
    """``perfbench/run.py`` and ``perfbench/worker.py``, imported as the
    benchmark imports them: each imports its siblings as top-level modules,
    which are taken out of ``sys.modules`` again afterwards."""
    before = set(sys.modules)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    try:
        yield importlib.import_module("run"), importlib.import_module("worker")
    finally:
        for name in {"worker", "run", "checks", "inputs"} - before:
            sys.modules.pop(name, None)


def _closed(result) -> set:
    """The span names of a traced op, once every span is checked closed."""
    assert result["spans"] and all(end is not None for _, _, end, _ in result["spans"])
    return {name for name, _, _, _ in result["spans"]}


def test_perfbench_worker_traces_catalog_and_separate(perfbench_modules):
    _, worker = perfbench_modules
    grid = {"radius": 1, "samples": 10, "seed": 1}
    catalog = worker.run_trace({"kind": "verify-catalog", "grid": grid})
    separate = worker.run_trace({"kind": "separate", "grid": grid})
    _closed(catalog)
    _closed(separate)
    assert catalog["facts"]["verdicts"] == 42
    assert separate["facts"]["pairs"] == 42 * 41 // 2


def test_perfbench_worker_traces_presentations_and_check(perfbench_modules, tmp_path):
    run, worker = perfbench_modules
    data = run.generate(str(tmp_path), 1)
    grid = {"radius": 1, "samples": 10, "seed": 1}
    spec = dict(data["lib_spec"], kind="presentations", grid=grid,
                ops=data["lib_spec"]["ops"][:6])
    presentations = worker.run_trace(spec)
    check = worker.run_trace({"kind": "check", "file": data["grid_files"]["5.3.8"],
                              "grid": grid, "rank_span": "kirillov.rank_profile",
                              "enumerate": True})
    assert _closed(presentations) >= {
        "op.presentation", "lie_core.parse", "lie_core.jacobi", "lie_core.series",
        "lie_core.center", "kirillov.form", "kirillov.md_check", "exact.frobenius",
        "invariants.fingerprint"}
    assert presentations["wall"] > 0
    assert _closed(check) >= {"cli.check", "kirillov.grid_enum", "lie_core.parse",
                              "kirillov.md_check", "kirillov.rank_profile"}
    assert check["facts"]["grid_points"] == 3 ** 5 + 10
