import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from liemd import exact, invariants, lie_core
from liemd.catalog import FamilyParams, build
from liemd.exact import MatrixQ, UnitPoint
from liemd.invariants import (
    Fingerprint,
    fingerprint,
    iso_test_codim1,
    separation_matrix,
)
from liemd.kirillov import GridSpec
from liemd.lie_core import LieAlgebra
from conftest import random_invertible

FAST_GRID = GridSpec(radius=1, extra_random_samples=20, seed=4)


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

def test_fingerprint_abelian():
    fp = fingerprint(LieAlgebra.abelian(5))
    assert fp.dims == (5, (5, 0), (5, 0), 5, 5)
    assert fp.kirillov == ("IsMD", 0, True)
    assert fp.spectral[0] == 0 and fp.spectral[1] is None


def test_fingerprint_separates_derived_dimension():
    fp1 = fingerprint(build("5.1"))
    fp2 = fingerprint(build("5.2.1"))
    assert fp1.first_difference(fp2) == "dims"
    assert fp1.dims[1] == (5, 1, 0)
    assert fp2.dims[1] == (5, 2, 0)


def test_fingerprint_invariant_line_of_central_extension():
    fp = fingerprint(build("5.1"))
    assert fp.spectral[2] == (1, True)


def test_fingerprint_records_scaled_ray_data():
    fp = fingerprint(build("5.4.3", FamilyParams(lambdas=(2,))))
    d_act, ray, _ = fp.spectral
    assert d_act == 1
    assert ray[0] == "scaled"


def test_fingerprint_basis_invariance_spot():
    rng = random.Random(33)
    for fid, params in [("5.3.8", FamilyParams(lambdas=(2,), angle=UnitPoint(F(3, 5), F(4, 5)))),
                        ("5.4.9", FamilyParams(lambdas=(-3,))),
                        ("rejected.3.2a", FamilyParams())]:
        g = build(fid, params)
        fp0 = fingerprint(g)
        for _ in range(4):
            p = random_invertible(rng, 5)
            fp1 = fingerprint(g.change_of_basis(p))
            assert fp1 == fp0, fid


def test_default_fingerprints_match_golden(catalog_algebras):
    doc = {label: fingerprint(g).to_dict() for label, g in catalog_algebras}
    golden = Path(__file__).parent / "golden" / "fingerprints.json"
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == golden.read_text(encoding="utf-8")


def test_fingerprint_to_dict_is_jsonable():
    doc = fingerprint(build("5.4.14", FamilyParams(
        lambdas=(2,), mu=F(1), angle=UnitPoint(F(3, 5), F(4, 5))))).to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert doc["kirillov"]["verdict"] == "IsMD"


# ---------------------------------------------------------------------------
# exact isomorphism test
# ---------------------------------------------------------------------------

def test_iso_self_under_random_basis_change():
    rng = random.Random(35)
    g = build("5.4.5")
    for _ in range(6):
        p = random_invertible(rng, 5)
        moved = g.change_of_basis(p)
        result = iso_test_codim1(g, moved)
        assert result.kind == "Iso"
        # witness soundness: transporting g by the witness reproduces moved
        assert g.change_of_basis(result.witness).brackets == moved.brackets


def test_fingerprint_and_iso_decompose_a_presentation_once(monkeypatch):
    calls = {"on_g": 0, "total": 0}
    canonical = build("5.4.14", FamilyParams(
        lambdas=(2,), mu=F(1), angle=UnitPoint(F(3, 5), F(4, 5))))
    g = canonical.change_of_basis(random_invertible(random.Random(8), 5))
    mats = g.ad_on_derived()
    frobenius_form = exact.frobenius_form

    def counted_frobenius(m):
        calls["total"] += 1
        calls["on_g"] += any(m is a for a in mats)
        return frobenius_form(m)

    for module in (exact, lie_core, invariants):
        if hasattr(module, "frobenius_form"):
            monkeypatch.setattr(module, "frobenius_form", counted_frobenius)
    fingerprint(g, FAST_GRID)
    result = iso_test_codim1(canonical, g)
    assert result.kind == "Iso"
    assert canonical.change_of_basis(result.witness).brackets == g.brackets
    assert calls == {"on_g": 1, "total": 2}


def test_iso_distinguishes_eigenvalue_multiplicities():
    a = build("5.4.3", FamilyParams(lambdas=(2,)))   # diag(2,2,1,1)
    b = build("5.4.4", FamilyParams(lambdas=(2,)))   # diag(2,1,1,1)
    assert iso_test_codim1(a, b).kind == "NotIso"


def test_iso_finds_reciprocal_scaling_in_balanced_family():
    a = build("5.4.3", FamilyParams(lambdas=(2,)))
    b = build("5.4.3", FamilyParams(lambdas=(F(1, 2),)))
    result = iso_test_codim1(a, b)
    assert result.kind == "Iso"
    assert a.change_of_basis(result.witness).brackets == b.brackets


def test_iso_rejects_reciprocal_scaling_in_unbalanced_family():
    # scaling diag(1/2,1,1,1) by 2 gives diag(1,2,2,2), which is NOT similar
    # to diag(2,1,1,1): the eigenvalue multiplicities differ
    a = build("5.4.4", FamilyParams(lambdas=(2,)))
    b = build("5.4.4", FamilyParams(lambdas=(F(1, 2),)))
    assert iso_test_codim1(a, b).kind == "NotIso"


def test_iso_permuted_parameters():
    a = build("5.4.1", FamilyParams(lambdas=(2, 3, 5)))
    b = build("5.4.1", FamilyParams(lambdas=(3, 5, 2)))
    result = iso_test_codim1(a, b)
    assert result.kind == "Iso"
    assert a.change_of_basis(result.witness).brackets == b.brackets


def test_iso_unipotent_jordan_instance():
    a = build("5.4.10")
    b = a.change_of_basis(MatrixQ([[2, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                                   [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                                   [0, 0, 0, 0, 3]]))
    result = iso_test_codim1(a, b)
    assert result.kind == "Iso"
    assert a.change_of_basis(result.witness).brackets == b.brackets


def test_iso_completeness_on_constructed_scaled_similarities():
    # build B := ad matrix c * S A S^-1 from random invertible S and
    # nonzero rational c; the resulting algebras are isomorphic by
    # construction and the decision must find a verified witness
    rng = random.Random(77)
    found = 0
    while found < 25:
        a_mat = MatrixQ([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
        try:
            a_mat.inverse()  # derived ideal must be all of the ideal
        except ValueError:
            continue
        s = random_invertible(rng, 4)
        c = F(rng.choice([1, 2, -1, -2, 3]), rng.choice([1, 2, 3]))
        b_mat = s @ a_mat.scale(c) @ s.inverse()

        def algebra_of(m):
            entries = []
            for col in range(4):
                coeffs = {2 + r: m.data[r][col] for r in range(4) if m.data[r][col] != 0}
                if coeffs:
                    entries.append((1, 2 + col, coeffs))
            return LieAlgebra.from_brackets(5, entries)

        ga, gb = algebra_of(a_mat), algebra_of(b_mat)
        result = iso_test_codim1(ga, gb)
        assert result.kind == "Iso", (a_mat, c, s)
        assert ga.change_of_basis(result.witness).brackets == gb.brackets
        found += 1


def test_iso_requires_codim1():
    with pytest.raises(ValueError, match="codimension-1"):
        iso_test_codim1(build("5.3.4"), build("5.3.4"))


def test_iso_rotation_blocks_separate_from_split_spectra():
    a = build("5.4.11", FamilyParams(lambdas=(2, 3), angle=UnitPoint(F(3, 5), F(4, 5))))
    b = build("5.4.2", FamilyParams(lambdas=(2, 3)))
    assert iso_test_codim1(a, b).kind == "NotIso"


# ---------------------------------------------------------------------------
# separation report
# ---------------------------------------------------------------------------

def test_separation_is_symmetric():
    a = ("a", build("5.4.3", FamilyParams(lambdas=(2,))))
    b = ("b", build("5.4.4", FamilyParams(lambdas=(2,))))
    fwd = separation_matrix([a, b], FAST_GRID)[0]
    rev = separation_matrix([b, a], FAST_GRID)[0]
    assert fwd.outcome == rev.outcome


def test_separation_same_algebra_twice():
    g = build("5.4.5")
    pair = separation_matrix([("x", g), ("y", g)], FAST_GRID)[0]
    assert pair.outcome == "iso-witnessed"


def test_separation_never_splits_presentations_of_one_algebra(catalog_algebras):
    rng = random.Random(5)
    for label, g in catalog_algebras:
        moved = g.change_of_basis(random_invertible(rng, 5))
        [pair] = separation_matrix([(label, g), ("moved", moved)])
        assert pair.outcome != "separated", (label, pair.field)


def test_separation_cites_recomputable_field():
    a = ("a", build("5.1"))
    b = ("b", build("5.2.1"))
    pair = separation_matrix([a, b], FAST_GRID)[0]
    assert pair.outcome == "separated"
    fa, fb = fingerprint(a[1], FAST_GRID), fingerprint(b[1], FAST_GRID)
    assert getattr(fa, pair.field) != getattr(fb, pair.field)


def test_separation_unresolved_on_overlapping_group3_families():
    # these two catalog families coincide up to isomorphism; an honest
    # invariant fingerprint cannot split them and no exact test applies
    a = ("5.3.2(l=2)", build("5.3.2", FamilyParams(lambdas=(2,))))
    b = ("5.3.3(l=2)", build("5.3.3", FamilyParams(lambdas=(2,))))
    pair = separation_matrix([a, b], FAST_GRID)[0]
    assert pair.outcome == "unresolved"
    # ... and they really are isomorphic: exhibit the explicit basis change
    m = MatrixQ.from_columns([
        [2, 0, 1, -1, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1], [0, 0, 1, 0, 0]])
    assert b[1].change_of_basis(m).brackets == a[1].brackets
