"""Acceptance suite: ten exact criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
are produced.  Criterion 8 fails by design of honesty: two pairs of
catalog families coincide up to isomorphism at the sampled parameters
(explicit basis-change witnesses are constructed in the assertion), so no
invariant fingerprint can separate them and the separation report lists
them as unresolved; see README "Known findings".
"""

import contextlib
import io
import json
import random
from fractions import Fraction as F

import pytest

from liemd.catalog import FamilyParams, GROUP_OF, build, default_samples
from liemd.cli import main as cli_main
from liemd.exact import MatrixQ
from liemd.invariants import fingerprint
from liemd.kirillov import (
    GridSpec,
    b_form_at,
    b_form_symbolic,
    md_check,
    nonvanishing_maximality_check,
    orbit_dim,
    pfaffian_system,
)
from liemd.lie_core import LieAlgebra
from conftest import random_invertible, random_rational
from oracles import grid_ranks, kernel_dim, minor_rank

GRID = GridSpec()  # radius 2, 200 extra samples, seed 1


def _report(number: int, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {number:2d}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    return ok


# ---------------------------------------------------------------------------
# 1. catalog well-formedness
# ---------------------------------------------------------------------------

def test_criterion_01_catalog_well_formed(catalog_samples):
    problems = []
    for label, fid, _, g in catalog_samples:
        if fid.startswith("rejected"):
            continue
        if g.jacobi_check() is not None:
            problems.append(f"{label}: Jacobi fails")
        g1 = g.derived_ideal()
        if g1.dim != GROUP_OF[fid]:
            problems.append(f"{label}: dim G^1 = {g1.dim}")
        if not g.is_subspace_commutative(g1):
            problems.append(f"{label}: G^1 not commutative")
        if g.span_of_brackets(g1, g1).dim != 0:
            problems.append(f"{label}: G^2 nonzero")
    families = {fid for _, fid, _, _ in catalog_samples if not fid.startswith("rejected")}
    if len(families) != 25:
        problems.append(f"expected 25 families, saw {len(families)}")
    ok = _report(1, not problems, f"{len(families)} families, all hypotheses hold"
                 if not problems else "; ".join(problems))
    assert ok, problems


# ---------------------------------------------------------------------------
# 2. orbit dimension equals codimension of the kernel of B_F
# ---------------------------------------------------------------------------

def test_criterion_02_rank_equals_kernel_codimension(catalog_samples):
    rng = random.Random(202)
    checked = 0
    problems = []
    for label, _, _, g in catalog_samples:
        for _ in range(100):
            f = [random_rational(rng, 9, 9) for _ in range(5)]
            b = b_form_at(g, f)
            expected = 5 - kernel_dim(b)
            if orbit_dim(g, f) != expected:
                problems.append(f"{label} at {f}")
                break
            checked += 1
    ok = _report(2, not problems, f"{checked} covectors, rank == 5 - dim ker B")
    assert ok, problems


# ---------------------------------------------------------------------------
# 3. codimension-1 commutative ideals always give orbit dimension <= 2
# ---------------------------------------------------------------------------

def _codim1_algebra(matrix: MatrixQ) -> LieAlgebra:
    entries = []
    for c in range(4):
        coeffs = {2 + r: matrix.data[r][c] for r in range(4) if matrix.data[r][c] != 0}
        if coeffs:
            entries.append((1, 2 + c, coeffs))
    return LieAlgebra.from_brackets(5, entries)


def test_criterion_03_codim1_rank_dichotomy():
    rng = random.Random(303)
    problems = []
    structural = {"pfaffian-vanishing", "zero-form"}
    box = GridSpec(radius=GRID.radius, extra_random_samples=0)
    for trial in range(50):
        m = MatrixQ([[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
                     for _ in range(4)])
        g = _codim1_algebra(m)
        ranks = set(grid_ranks(g, box))
        if not ranks <= {0, 2}:
            problems.append(f"trial {trial}: ranks {sorted(ranks)}")
            continue
        verdict = md_check(g, GRID)
        if verdict.kind != "IsMD" or verdict.proof not in structural:
            problems.append(f"trial {trial}: verdict {verdict.kind}/{verdict.proof}")
    ok = _report(3, not problems,
                 "50 random 4x4 actions: grid ranks within {0,2}, structural IsMD")
    assert ok, problems


# ---------------------------------------------------------------------------
# 4. every group-3 family is decided by vanishing sub-Pfaffians
# ---------------------------------------------------------------------------

def test_criterion_04_group3_structural_md(catalog_samples):
    problems = []
    seen = set()
    for label, fid, _, g in catalog_samples:
        if not fid.startswith("5.3."):
            continue
        seen.add(fid)
        if any(map(any, pfaffian_system(b_form_symbolic(g)))):
            problems.append(f"{label}: nonzero sub-Pfaffian")
            continue
        verdict = md_check(g, GRID)
        if (verdict.kind, verdict.max_dim) != ("IsMD", 2):
            problems.append(f"{label}: verdict {verdict.kind}/{verdict.max_dim}")
    if len(seen) != 8:
        problems.append(f"expected 8 group-3 families, saw {len(seen)}")
    ok = _report(4, not problems, "8 families, all five sub-Pfaffians vanish, IsMD max 2")
    assert ok, problems


# ---------------------------------------------------------------------------
# 5. both rejected specimens are refuted with verified witnesses
# ---------------------------------------------------------------------------

def test_criterion_05_rejections_reproduced():
    problems = []
    for fid in ("rejected.5.2.3", "rejected.3.2a"):
        g = build(fid)
        verdict = md_check(g, GRID)
        if verdict.kind != "NotMD":
            problems.append(f"{fid}: verdict {verdict.kind}")
            continue
        (f_low, r_low), (f_high, r_high) = verdict.witness_low, verdict.witness_high
        if (r_low, r_high) != (2, 4):
            problems.append(f"{fid}: witness ranks {(r_low, r_high)}")
        if minor_rank(b_form_at(g, f_low)) != 2 or minor_rank(b_form_at(g, f_high)) != 4:
            problems.append(f"{fid}: minor enumeration disagrees")
    ok = _report(5, not problems, "both specimens NotMD, witnesses re-verified by minors")
    assert ok, problems


# ---------------------------------------------------------------------------
# 6. adjoints commute on commutative derived ideals
# ---------------------------------------------------------------------------

def test_criterion_06_commuting_adjoints(catalog_samples):
    rng = random.Random(606)
    problems = []
    pairs = 0
    for label, _, _, g in catalog_samples:
        if not g.derived_ideal_commutative():
            problems.append(f"{label}: derived ideal not commutative")
            continue
        for _ in range(200):
            x = [random_rational(rng) for _ in range(5)]
            y = [random_rational(rng) for _ in range(5)]
            if not g.ad_commute_check(x, y):
                problems.append(f"{label}: ad operators fail to commute")
                break
            pairs += 1
    ok = _report(6, not problems, f"{pairs} random pairs commute on the derived ideal")
    assert ok, problems


# ---------------------------------------------------------------------------
# 7. covectors seen by the derived ideal reach the maximal orbit dimension
# ---------------------------------------------------------------------------

def test_criterion_07_nonvanishing_maximality(catalog_samples):
    problems = []
    discrepancy_counterexamples = 0
    for label, fid, _, g in catalog_samples:
        verdict = md_check(g, GRID)
        if fid == "5.2.2":
            # the discrepancy family: the checker must REPORT a grid
            # counterexample against the claimed maximality
            violator = nonvanishing_maximality_check(g, GRID, max_dim=4)
            if violator is None:
                problems.append(f"{label}: no counterexample found")
            else:
                discrepancy_counterexamples += 1
            continue
        if verdict.kind != "IsMD":
            continue
        violator = nonvanishing_maximality_check(g, GRID)
        if violator is not None:
            problems.append(f"{label}: maximality fails at {violator}")
    ok = _report(7, not problems and discrepancy_counterexamples == 2,
                 "all IsMD instances maximal; discrepancy family reports counterexamples")
    assert ok, problems


# ---------------------------------------------------------------------------
# 8. separation of the catalog
# ---------------------------------------------------------------------------

def test_criterion_08_separation():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["separate", "default", "--json"])
    assert code == 0
    pairs = json.loads(buf.getvalue())["pairs"]

    def family_of(label: str) -> str:
        return label.split("(")[0]

    cross_iso = [p for p in pairs if p["outcome"] == "iso-witnessed"
                 and family_of(p["a"]) != family_of(p["b"])]
    unresolved = [p for p in pairs if p["outcome"] == "unresolved"]
    for p in unresolved:
        print(f"[acceptance]   unresolved pair: {p['a']} | {p['b']}")
    cross_unresolved = [p for p in unresolved
                        if family_of(p["a"]) != family_of(p["b"])]
    ok = _report(8, not cross_iso and not cross_unresolved,
                 f"{len(cross_iso)} cross-family iso-witnessed, "
                 f"{len(cross_unresolved)} cross-family unresolved with equal fingerprints")
    assert not cross_iso, cross_iso
    assert ok, (
        "catalog families overlap: the pairs "
        + "; ".join(f"{p['a']} ~ {p['b']}" for p in cross_unresolved)
        + " are genuinely isomorphic algebras (explicit basis-change witnesses "
          "reproduce one from the other, see test_invariants and README 'Known "
          "findings'), so equal invariant fingerprints are mathematically forced "
          "and the separation criterion cannot hold as stated."
    )


# ---------------------------------------------------------------------------
# 9. basis invariance of fingerprints and verdicts
# ---------------------------------------------------------------------------

def test_criterion_09_basis_invariance(catalog_samples):
    rng = random.Random(909)
    problems = []
    changes = 0
    for label, _, _, g in catalog_samples:
        base_print = fingerprint(g)
        base_verdict = md_check(g, GRID).structural_summary()
        for _ in range(20):
            p = random_invertible(rng, 5)
            moved = g.change_of_basis(p)
            if md_check(moved, GRID).structural_summary() != base_verdict:
                problems.append(f"{label}: verdict changed under basis change")
                break
            if fingerprint(moved) != base_print:
                problems.append(f"{label}: fingerprint changed under basis change")
                break
            changes += 1
    ok = _report(9, not problems, f"{changes} basis changes, fingerprints and verdicts stable")
    assert ok, problems


# ---------------------------------------------------------------------------
# 10. the discrepancy finding, oracle-first
# ---------------------------------------------------------------------------

def test_criterion_10_discrepancy_finding():
    g = build("5.2.2", FamilyParams(lambdas=(F(2),)))
    # independent brute-force minor enumeration FIRST
    low = b_form_at(g, [0, 0, 0, 1, 0])
    high = b_form_at(g, [0, 0, 0, 0, 1])
    oracle_ok = minor_rank(low) == 2 and minor_rank(high) == 4
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["verify-catalog", "--json"])
    doc = json.loads(buf.getvalue())
    records = [r for r in doc["instances"]
               if r["family"] == "5.2.2" and r["params"] == "l=2"]
    flagged = bool(records) and records[0]["discrepancy"] is not None
    witnesses_ok = flagged and \
        {"F": [0, 0, 0, 1, 0], "rank": 2} in records[0]["discrepancy"]["witnesses"] and \
        {"F": [0, 0, 0, 0, 1], "rank": 4} in records[0]["discrepancy"]["witnesses"]
    listed = doc["summary"]["discrepancies"] == ["5.2.2"]
    ok = _report(10, oracle_ok and code == 0 and witnesses_ok and listed,
                 "minor oracle confirms ranks 2 and 4; report flags 5.2.2 without failing")
    assert ok, (oracle_ok, code, flagged, witnesses_ok, listed)
