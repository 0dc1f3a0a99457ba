from fractions import Fraction as F

import pytest

from liemd.catalog import (
    FAMILY_IDS,
    REJECTED_IDS,
    FamilyParams,
    build,
    default_samples,
    parse_params,
    action_matrix,
    sample_label,
    validate_params,
)
from liemd.exact import MatrixQ, UnitPoint
from conftest import GROUP_OF

A1 = UnitPoint(F(3, 5), F(4, 5))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_accepts_distinct_triple():
    assert validate_params("5.4.1", FamilyParams(lambdas=(2, 3, 5))) is None


def test_validate_reports_first_violated_clause():
    assert validate_params("5.4.1", FamilyParams(lambdas=(2, 2, 3))) == "λ1 ≠ λ2"
    assert validate_params("5.3.2", FamilyParams(lambdas=(0,))) == "λ ≠ 0"
    assert validate_params("5.4.14", FamilyParams(lambdas=(2,), mu=F(-1), angle=A1)) == "μ > 0"


def test_validate_allows_lambda_one_in_rotation_family():
    # the rotation family only excludes lambda = 0
    assert validate_params("5.3.8", FamilyParams(lambdas=(1,), angle=A1)) is None


def test_validate_group31_literal_reading_permits_lambda1_zero():
    # the chained condition constrains lambda2 only
    assert validate_params("5.3.1", FamilyParams(lambdas=(0, 2))) is None
    assert validate_params("5.3.1", FamilyParams(lambdas=(2, 0))) == "λ2 ≠ 0"


def test_validate_arity_and_angle_requirements():
    assert validate_params("5.1", FamilyParams(lambdas=(1,))) is not None
    assert validate_params("5.3.8", FamilyParams(lambdas=(2,))) == "φ ∈ (0, π) required (angle)"
    assert validate_params("5.2.1", FamilyParams(mu=F(1))) == "μ not accepted"
    with pytest.raises(ValueError, match="unknown family"):
        validate_params("9.9", FamilyParams())


def test_build_rejects_invalid_parameters():
    with pytest.raises(ValueError, match="λ ≠ 1"):
        build("5.3.3", FamilyParams(lambdas=(1,)))


# ---------------------------------------------------------------------------
# bracket tables
# ---------------------------------------------------------------------------

def test_build_central_double_extension():
    g = build("5.1")
    assert g.brackets == {(0, 1): (0, 0, 0, 0, F(1)), (2, 3): (0, 0, 0, 0, F(1))}


def test_build_group3_column_action():
    g = build("5.3.5", FamilyParams(lambdas=(2,)))
    assert g.bracket(g.basis_vector(0), g.basis_vector(1)) == (0, 0, 1, 0, 0)   # [X1,X2] = X3
    assert g.bracket(g.basis_vector(1), g.basis_vector(2)) == (0, 0, 2, 0, 0)   # [X2,X3] = 2 X3
    assert g.bracket(g.basis_vector(1), g.basis_vector(3)) == (0, 0, 0, 1, 0)   # [X2,X4] = X4
    assert g.bracket(g.basis_vector(1), g.basis_vector(4)) == (0, 0, 0, 1, 1)   # [X2,X5] = X4 + X5


def test_build_rejected_specimens():
    g = build("rejected.5.2.3")
    assert g.bracket(g.basis_vector(0), g.basis_vector(1)) == (0, 0, 0, 0, 1)
    assert g.bracket(g.basis_vector(2), g.basis_vector(3)) == (0, 0, 0, 1, 0)
    h = build("rejected.3.2a")
    assert h.bracket(h.basis_vector(0), h.basis_vector(1)) == (0, 0, 0, 0, 0)
    assert h.ad_restricted(h.basis_vector(0), h.derived_ideal()).matrix == \
        MatrixQ([[1, 0, 0], [0, 2, 0], [0, 0, 0]])
    assert h.ad_restricted(h.basis_vector(1), h.derived_ideal()).matrix == \
        MatrixQ([[2, 0, 0], [0, 3, 0], [0, 0, 1]])


def test_rotation_family_uses_unit_point():
    g = build("5.3.8", FamilyParams(lambdas=(2,), angle=A1))
    assert g.bracket(g.basis_vector(1), g.basis_vector(2)) == (0, 0, F(3, 5), F(4, 5), 0)
    assert g.bracket(g.basis_vector(1), g.basis_vector(3)) == (0, 0, F(-4, 5), F(3, 5), 0)


# ---------------------------------------------------------------------------
# default samples
# ---------------------------------------------------------------------------

def test_default_samples_cover_all_families_once():
    samples = default_samples()
    ids = [fid for fid, _ in samples]
    assert set(FAMILY_IDS) <= set(ids)
    assert len({fid for fid in ids if not fid.startswith("rejected")}) == 25
    assert set(REJECTED_IDS) <= set(ids)


def test_default_samples_validate_and_are_deterministic():
    samples = default_samples()
    assert samples == default_samples()
    for fid, params in samples:
        assert validate_params(fid, params) is None


def test_every_sample_is_a_lie_algebra(catalog_samples):
    for label, fid, _, g in catalog_samples:
        assert g.jacobi_check() is None, label


def test_derived_ideal_dimension_matches_group(catalog_samples):
    for label, fid, _, g in catalog_samples:
        assert g.derived_ideal().dim == GROUP_OF[fid], label


def test_derived_ideal_commutative_and_second_derived_zero(catalog_samples):
    for label, _, _, g in catalog_samples:
        g1 = g.derived_ideal()
        assert g.is_subspace_commutative(g1), label
        series = g.derived_series()
        assert series[-1].dim == 0
        assert len(series) <= 3


def test_group3_first_generator_acts_trivially(catalog_samples):
    for label, fid, _, g in catalog_samples:
        if fid.startswith("5.3."):
            op = g.ad_restricted(g.basis_vector(0), g.derived_ideal())
            assert op.matrix.is_zero(), label


def test_action_matrices_read_back(catalog_samples):
    for label, fid, params, g in catalog_samples:
        m = action_matrix(fid, params)
        if m is None:
            continue
        probe = 1 if fid.startswith("5.3.") else 0
        op = g.ad_restricted(g.basis_vector(probe), g.derived_ideal())
        assert op.matrix == m, label


# ---------------------------------------------------------------------------
# parameter strings
# ---------------------------------------------------------------------------

def test_parse_params_full_form():
    p = parse_params("l1=2,l2=3,mu=1,angle=3/5:4/5")
    assert p.lambdas == (2, 3)
    assert p.mu == 1
    assert p.angle == A1


def test_parse_params_single_lambda_and_label_round_trip():
    p = parse_params("l=-3")
    assert p.lambdas == (-3,)
    assert parse_params(p.label()).lambdas == (-3,)
    q = FamilyParams(lambdas=(F(2), F(3)), angle=A1)
    assert parse_params(q.label()) == q
    # integer arguments are stored as Fractions
    r = FamilyParams(lambdas=(2,), mu=1)
    assert r == FamilyParams(lambdas=(F(2),), mu=F(1))
    assert all(type(v) is F for v in (*r.lambdas, r.mu))


def test_parse_params_rejects_garbage():
    with pytest.raises(ValueError):
        parse_params("l1=2,l3=5")  # gap in lambda indices
    with pytest.raises(ValueError):
        parse_params("q=1")
    with pytest.raises(ValueError):
        parse_params("l")
    # a repeated parameter, where l and l1 name one parameter
    for text in ("l1=2,l=3", "l=2,l1=3", "l=2,l=3", "l1=2,l2=3,l2=5",
                 "l=2,mu=1,mu=2", "angle=3/5:4/5,angle=-3/5:4/5"):
        with pytest.raises(ValueError, match="repeated parameter"):
            parse_params(text)


def test_sample_label_formats():
    assert sample_label("5.1", FamilyParams()) == "5.1"
    assert sample_label("5.3.2", FamilyParams(lambdas=(F(-3),))) == "5.3.2(l=-3)"
