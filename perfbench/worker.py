"""Child process of the benchmark: library-call passes and traced ops.

    python3 perfbench/worker.py presentations SPEC OUT
    python3 perfbench/worker.py trace SPEC OUT

``presentations`` runs the library workload as a closed loop: passes over
the op list, back to back, until the next pass would overrun the budget.
``trace`` re-runs ops with the public ``liemd`` functions called one by one
in the order ``cli._analyze`` and the ``cmd_*`` functions call them, with a
span around each call; stages cached on the algebra are charged to the
span that computes them first.  Spans stay in memory and are written to
OUT when the ops end.  Both modes need ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from liemd import catalog
from liemd.exact import frobenius_form
from liemd.invariants import fingerprint, iso_test_codim1, separation_matrix
from liemd.kirillov import (
    GridSpec,
    b_form_symbolic,
    md_check,
    nonvanishing_maximality_check,
    pfaffian_system,
    rank_profile,
)
from liemd.lie_core import LieAlgebra
from run import keep_going

DIM = 5
# fingerprint fields of ``Fingerprint.first_difference``; any other
# ``separated`` field comes from the exact isomorphism test
FINGERPRINT_FIELDS = {"dims", "kirillov", "spectral"}


def grid_of(spec: dict) -> GridSpec:
    return GridSpec(radius=spec["radius"], extra_random_samples=spec["samples"],
                    seed=spec["seed"])


class Tracer:
    """Spans (name, start, end, parent span index), kept in memory."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()


# ---------------------------------------------------------------------------
# the library workload
# ---------------------------------------------------------------------------

def _canonical(spec: dict, grid: GridSpec):
    algebras, reference = [], []
    for sample in spec["samples"]:
        g = LieAlgebra.from_dict(sample["doc"])
        algebras.append(g)
        reference.append({"verdict": list(md_check(g, grid).structural_summary()),
                          "fingerprint": fingerprint(g, grid).to_dict(),
                          "codim1": sample["codim1"]})
    return algebras, reference


def presentation_op(text: str, canonical: LieAlgebra, codim1: bool, grid: GridSpec) -> dict:
    g = LieAlgebra.from_dict(json.loads(text))
    verdict = md_check(g, grid)
    fp = fingerprint(g, grid)
    iso = iso_test_codim1(canonical, g) if codim1 else None
    return {"verdict": list(verdict.structural_summary()), "fingerprint": fp.to_dict(),
            "iso": None if iso is None else iso.to_dict()}


def run_presentations(spec: dict) -> dict:
    grid = grid_of(spec["grid"])
    algebras, reference = _canonical(spec, grid)
    ops = spec["ops"]
    passes = []
    started = time.perf_counter()
    while True:
        latencies, results = [], []
        t_pass = time.perf_counter()
        for op in ops:
            index = op["sample"]
            t_op = time.perf_counter()
            try:
                result = presentation_op(op["text"], algebras[index],
                                         reference[index]["codim1"], grid)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                result = {"error": f"{type(exc).__name__}: {exc}"}
            latencies.append(time.perf_counter() - t_op)
            results.append(result)
        passes.append({"wall": time.perf_counter() - t_pass,
                       "latencies": latencies, "results": results})
        if not keep_going(time.perf_counter() - started, spec["budget_s"],
                          [p["wall"] for p in passes]):
            break
    return {"reference": reference, "passes": passes}


# ---------------------------------------------------------------------------
# traced ops
# ---------------------------------------------------------------------------

def _analysis(tr: Tracer, g: LieAlgebra, grid: GridSpec, rank_span: str):
    """The calls of ``cli._analyze`` for a solvable 5-dimensional algebra."""
    with tr.span("lie_core.jacobi"):
        g.jacobi_check()
    with tr.span("lie_core.series"):
        g.derived_dims()
        g.lower_central_dims()
        g.is_solvable()
    with tr.span("kirillov.md_check"):
        verdict = md_check(g, grid)
    with tr.span(rank_span):
        profile = rank_profile(g, grid)
    if verdict.kind == "IsMD":
        with tr.span("kirillov.maximality"):
            nonvanishing_maximality_check(g, grid)
    return verdict, profile


def trace_check(tr: Tracer, spec: dict, grid: GridSpec, facts: dict):
    with tr.span("cli.check"):
        if spec["enumerate"]:
            with tr.span("kirillov.grid_enum"):
                points = list(grid.covectors(DIM))
            del points
        with tr.span("lie_core.parse"):
            with open(spec["file"], encoding="utf-8") as fh:
                g = LieAlgebra.from_dict(json.load(fh))
        verdict, profile = _analysis(tr, g, grid, spec["rank_span"])
        json.dumps(verdict.to_dict(histogram=profile.histogram), sort_keys=True)
    facts["grid_points"] = facts.get("grid_points", 0) + grid.count(DIM)


def trace_verify_catalog(tr: Tracer, grid: GridSpec, facts: dict):
    with tr.span("cli.verify-catalog"):
        for fid, params in catalog.default_samples():
            with tr.span("catalog.build"):
                g = catalog.build(fid, params)
            verdict, _ = _analysis(tr, g, grid, "kirillov.rank_profile")
            with tr.span("lie_core.ad_commute"):
                rng = random.Random(grid.seed)
                for _ in range(20):
                    g.ad_commute_check([Fraction(rng.randint(-3, 3)) for _ in range(DIM)],
                                       [Fraction(rng.randint(-3, 3)) for _ in range(DIM)])
            facts["verdicts"] = facts.get("verdicts", 0) + 1
            facts["proved"] = facts.get("proved", 0) + (verdict.proof is not None)


def trace_separate(tr: Tracer, grid: GridSpec, facts: dict):
    with tr.span("cli.separate"):
        with tr.span("catalog.build"):
            instances = [(catalog.sample_label(fid, p), catalog.build(fid, p))
                         for fid, p in catalog.default_samples()]
        with tr.span("invariants.separation"):
            pairs = separation_matrix(instances, grid)
    facts["pairs"] = facts.get("pairs", 0) + len(pairs)
    facts["fingerprint_decided"] = facts.get("fingerprint_decided", 0) + sum(
        p.outcome == "separated" and p.field in FINGERPRINT_FIELDS for p in pairs)


def trace_presentations(tr: Tracer, spec: dict, grid: GridSpec, facts: dict) -> float:
    algebras, reference = _canonical(spec, grid)
    started = time.perf_counter()
    for op in spec["ops"]:
        with tr.span("op.presentation"):
            with tr.span("lie_core.parse"):
                g = LieAlgebra.from_dict(json.loads(op["text"]))
            with tr.span("lie_core.jacobi"):
                g.jacobi_check()
            with tr.span("lie_core.series"):
                g.derived_series()
                g.lower_central_series()
            with tr.span("lie_core.center"):
                g.center()
                g.centralizer(g.derived_ideal())
            with tr.span("kirillov.form"):
                pfaffian_system(b_form_symbolic(g))
            with tr.span("kirillov.md_check"):
                md_check(g, grid)
            with tr.span("exact.frobenius"):
                g1 = g.derived_ideal()
                for i in range(DIM):
                    ad = g.ad_restricted(g.basis_vector(i), g1).matrix
                    if not ad.is_zero():
                        frobenius_form(ad)
                        break
            with tr.span("invariants.fingerprint"):
                fingerprint(g, grid)
            if reference[op["sample"]]["codim1"]:
                with tr.span("invariants.iso"):
                    iso_test_codim1(algebras[op["sample"]], g)
                facts["iso_tests"] = facts.get("iso_tests", 0) + 1
    return time.perf_counter() - started


def run_trace(spec: dict) -> dict:
    tr = Tracer()
    facts: dict = {}
    grid = grid_of(spec["grid"])
    wall = None
    kind = spec["kind"]
    if kind == "check":
        trace_check(tr, spec, grid, facts)
    elif kind == "verify-catalog":
        trace_verify_catalog(tr, grid, facts)
    elif kind == "separate":
        trace_separate(tr, grid, facts)
    elif kind == "presentations":
        wall = trace_presentations(tr, spec, grid, facts)
    else:
        raise ValueError(f"unknown traced op {kind!r}")
    return {"spans": tr.spans, "facts": facts, "wall": wall}


def main(argv: list) -> int:
    mode, spec_path, out_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_presentations(spec) if mode == "presentations" else run_trace(spec)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
