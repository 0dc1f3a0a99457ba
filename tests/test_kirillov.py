import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from itertools import combinations_with_replacement, islice
from math import prod
from operator import mul
from pathlib import Path

import pytest

from liemd import kirillov
from liemd.catalog import FamilyParams, build, parse_params
from liemd.exact import MatrixQ, UnitPoint, clear_denominators, mat_rank
from liemd.kirillov import (
    GridSpec,
    b_form_at,
    b_form_symbolic,
    md_check,
    nonvanishing_maximality_check,
    orbit_dim,
    pfaffian_system,
    rank_profile,
)
from liemd.lie_core import LieAlgebra
from conftest import random_invertible, random_rational
from oracles import (
    annihilator_indices,
    derived_rows,
    first_nonmaximal_covector,
    grid_covectors,
    grid_ranks,
    is_prime,
    form_value,
    minor_rank,
    strata_of,
    sub_pfaffians_at,
)


def g51():
    return build("5.1")


def g523():
    return build("rejected.5.2.3")


def g538():
    return build("5.3.8", parse_params("l=2,angle=3/5:4/5"))


def huge_constants():
    # structure constants beyond int64, so quadrics beyond it too
    return LieAlgebra.from_brackets(5, [(1, 2, {5: F(2 ** 80)}), (3, 4, {5: 1})])


def basis_changed_538():
    # an IsMD algebra whose cleared derived-ideal basis overflows int64,
    # while its grid points off the maximal rank are only the zero covector
    big = 2 ** 70
    p = [[int(i == j) for j in range(5)] for i in range(5)]
    p[0][1], p[1][4], p[2][3], p[4][2] = big + 1, 5 * big + 7, big - 3, 3
    return g538().change_of_basis(MatrixQ(p))


# coefficient tuples in f1..f5: the linear form f5, and the quadrics f5^2
# and f4*f5 in ``combinations_with_replacement`` order
F5 = (0, 0, 0, 0, 1)
MONOMIALS = list(combinations_with_replacement(range(5), 2))
F5F5 = tuple(int(m == (4, 4)) for m in MONOMIALS)
F4F5 = tuple(int(m == (3, 4)) for m in MONOMIALS)


def negated(coeffs):
    return tuple(-c for c in coeffs)


# ---------------------------------------------------------------------------
# the form and orbit dimensions
# ---------------------------------------------------------------------------

def test_b_form_index_convention():
    b = b_form_at(g51(), [0, 0, 0, 0, 1])
    assert b[1, 0] == 1 and b[3, 2] == 1
    assert b[0, 1] == -1 and b[2, 3] == -1
    assert mat_rank(b) == 4


def test_b_form_zero_covector():
    assert b_form_at(g51(), [0] * 5).is_zero()


def test_b_form_skew():
    rng = random.Random(7)
    g = build("5.4.6", FamilyParams(lambdas=(2, 3)))
    for _ in range(20):
        f = [random_rational(rng) for _ in range(5)]
        b = b_form_at(g, f)
        assert b.transpose() == b.scale(-1)


def test_b_form_requires_jacobi():
    bad = LieAlgebra.from_brackets(5, [(1, 2, {1: 1}), (1, 3, {2: 1})])
    with pytest.raises(ValueError, match="Jacobi"):
        b_form_at(bad, [1, 0, 0, 0, 0])


def test_orbit_dims_match_examples():
    assert orbit_dim(g51(), [0, 0, 0, 0, 1]) == 4
    assert orbit_dim(g51(), [0, 0, 0, 0, 0]) == 0
    assert orbit_dim(build("5.2.1"), [0, 0, 0, 1, 1]) == 2


def test_orbit_dim_is_even(catalog_samples):
    rng = random.Random(9)
    for _, _, _, g in catalog_samples[:10]:
        for _ in range(10):
            f = [random_rational(rng, 9, 9) for _ in range(5)]
            assert orbit_dim(g, f) % 2 == 0


# ---------------------------------------------------------------------------
# symbolic form
# ---------------------------------------------------------------------------

def test_symbolic_form_entries_of_central_extension():
    form = b_form_symbolic(g51())
    for i in range(5):
        for j in range(5):
            e = form.entries[i][j]
            assert len(e) == 5
            assert not any(e) or e == F5 or e == negated(F5)
            assert form.entries[j][i] == negated(e)


def test_symbolic_form_of_abelian_is_zero():
    form = b_form_symbolic(LieAlgebra.abelian(5))
    assert not any(any(e) for row in form.entries for e in row)


def test_symbolic_form_group3_support():
    g = build("5.3.4")
    form = b_form_symbolic(g)
    for i in range(2, 5):
        for j in range(2, 5):
            assert not any(form.entries[i][j])
    assert any(form.entries[0][1])


def test_symbolic_form_is_bordered_for_codim1_families(catalog_samples):
    # when the derived ideal is spanned by X2..X5 and only X1 acts, the
    # form's nonzero entries are confined to the first row and column
    for label, fid, _, g in catalog_samples:
        if not fid.startswith("5.4."):
            continue
        form = b_form_symbolic(g)
        for i in range(1, 5):
            for j in range(1, 5):
                assert not any(form.entries[i][j]), label


def test_symbolic_matches_numeric_everywhere(catalog_samples):
    rng = random.Random(101)
    for _, _, _, g in catalog_samples:
        form = b_form_symbolic(g)
        for _ in range(100):
            f = [random_rational(rng, 9, 9) for _ in range(5)]
            assert MatrixQ([[form_value(e, f, 1) for e in row]
                            for row in form.entries]) == b_form_at(g, f)


# ---------------------------------------------------------------------------
# Pfaffians
# ---------------------------------------------------------------------------

def test_pfaffian_system_central_extension():
    pfs = pfaffian_system(b_form_symbolic(g51()))
    assert all(len(p) == 15 for p in pfs)
    nonzero = [p for p in pfs if any(p)]
    assert len(nonzero) == 1
    assert nonzero[0] in (F5F5, negated(F5F5))


def test_pfaffian_system_group3_all_zero():
    for fid, params in [("5.3.1", FamilyParams(lambdas=(2, 3))),
                        ("5.3.7", FamilyParams()),
                        ("5.3.8", FamilyParams(lambdas=(2,), angle=UnitPoint(F(3, 5), F(4, 5))))]:
        pfs = pfaffian_system(b_form_symbolic(build(fid, params)))
        assert not any(map(any, pfs))


def test_pfaffian_system_rejected_case():
    pfs = pfaffian_system(b_form_symbolic(g523()))
    nonzero = [p for p in pfs if any(p)]
    assert len(nonzero) == 1
    assert nonzero[0] in (F4F5, negated(F4F5))


def test_pfaffian_system_requires_dim5():
    g = LieAlgebra.abelian(4)
    with pytest.raises(ValueError, match="dimension 5"):
        pfaffian_system(b_form_symbolic(g))


def quadric_mismatches(g, quadrics, den, rng, points=3):
    """The random covectors F at which the quadrics at u = V.F are not
    den^2 times the sub-Pfaffians of ``b_form_at(g, F)``."""
    v = g.kirillov.v
    bad = []
    for _ in range(points):
        f = [random_rational(rng, 9, 9) for _ in range(5)]
        u = [sum(a * x for a, x in zip(row, f)) for row in v]
        if [form_value(q, u, 2) for q in quadrics] != [den ** 2 * p for p in sub_pfaffians_at(g, f)]:
            bad.append(f)
    return bad


def test_quadrics_are_the_sub_pfaffians_in_u(catalog_algebras):
    # each integer quadric at u = V.F is D^2 times the sub-Pfaffian of its
    # slice of b_form_at(g, F), which reads the bracket table and not T, and
    # pfaffian_system at F is that sub-Pfaffian: on every sample, a basis
    # change of each, and the 2^80 constants
    rng = random.Random(23)
    algebras = [g for _, g in catalog_algebras]
    algebras += [g.change_of_basis(random_invertible(rng, 5)) for g in algebras]
    for g in algebras + [huge_constants()]:
        kd = g.kirillov
        assert not quadric_mismatches(g, kd.quadrics, kd._den, rng)
        pfs = pfaffian_system(b_form_symbolic(g))
        for _ in range(3):
            f = [random_rational(rng, 9, 9) for _ in range(5)]
            assert [form_value(p, f, 2) for p in pfs] == sub_pfaffians_at(g, f)


def test_quadric_reference_rejects_a_doctored_t():
    # a perturbed last row of T (the pair X4, X5) gives quadrics that the
    # b_form_at reference tells apart, so the comparison above can fail
    for g in (g51(), g523(), build("5.4.6", FamilyParams(lambdas=(F(2), F(3))))):
        kd = g.kirillov
        t = list(kd.t)
        t[-1] = (t[-1][0] + 1,) + t[-1][1:]
        doctored = [kirillov._quadric([t[p] for p in kept]) for kept in kirillov._SLICES]
        assert quadric_mismatches(g, doctored, kd._den, random.Random(5))
        assert not quadric_mismatches(g, kd.quadrics, kd._den, random.Random(5))


def test_pfaffian_vanishing_forbids_rank4(catalog_samples):
    grid = GridSpec(radius=1, extra_random_samples=50, seed=3)
    for _, _, _, g in catalog_samples:
        if not any(map(any, pfaffian_system(b_form_symbolic(g)))):
            profile = rank_profile(g, grid)
            assert 4 not in profile.histogram


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_is_deterministic():
    assert repr(GridSpec()) == "GridSpec(radius=2, extra_random_samples=200, seed=1)"
    spec = GridSpec(radius=1, extra_random_samples=10, seed=2)
    a = list(spec.covectors(3))
    b = list(spec.covectors(3))
    assert a == b
    assert len(a) == spec.count(3) == 27 + 10


def test_grid_enumerates_lexicographically():
    spec = GridSpec(radius=1, extra_random_samples=0)
    pts = grid_covectors(spec, 2)
    assert pts[0] == (-1, -1)
    assert pts[1] == (-1, 0)
    assert pts[-1] == (1, 1)
    assert len(pts) == spec.count(2) == 9
    assert list(spec.covectors(2)) == pts
    assert [spec.covector(2, k) for k in range(spec.count(2))] == pts


def test_grid_random_tail_respects_bounds():
    spec = GridSpec(radius=1, extra_random_samples=200, seed=11)
    box = 3 ** 5
    tail = [spec.covector(5, k) for k in range(box, spec.count(5))]
    assert len(tail) == 200
    for cov in tail:
        for x in cov:
            assert abs(x.numerator) <= 9
            assert 1 <= x.denominator <= 9
    assert tail == grid_covectors(spec, 5)[box:]


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GridSpec(radius=0)
    with pytest.raises(ValueError):
        GridSpec(extra_random_samples=-1)
    # the point limit is checked on the count alone, before anything is drawn
    radius = 19  # the largest radius whose dimension-5 box is under the limit
    assert GridSpec(radius=radius, extra_random_samples=0).count(5) <= kirillov.MAX_GRID_POINTS
    with pytest.raises(ValueError, match=str(41 ** 5 + 200)):
        GridSpec(radius=radius + 1)
    with pytest.raises(ValueError, match="points in dimension 5"):
        GridSpec(radius=1, extra_random_samples=kirillov.MAX_GRID_POINTS)


def test_grid_caps_the_random_tail_before_drawing():
    limit = kirillov.MAX_TAIL_SAMPLES
    assert limit == 10 ** 6
    assert GridSpec(radius=1, extra_random_samples=limit).count(5) == 243 + limit
    for kwargs, message in [
        ({"radius": 1, "extra_random_samples": limit + 1}, f"{limit + 1} extra samples requested"),
        ({"radius": 0, "extra_random_samples": limit}, "radius must be a positive"),
        ({"extra_random_samples": -1}, "must be non-negative"),
        ({"radius": 20, "extra_random_samples": limit}, "points in dimension 5"),
    ]:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                GridSpec(**kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # nothing is drawn: the tail alone would take 10 MB
        assert peak < 64 * 1024, kwargs


def test_tail_columns_enumerate_the_covectors():
    for radius in (1, 2, 3):
        for n in (2, 3, 5):
            for samples in (0, 20):
                grid = GridSpec(radius=radius, extra_random_samples=samples, seed=4)
                exact = grid_covectors(grid, n)
                assert list(grid.covectors(n)) == exact
                assert [grid.covector(n, k) for k in range(grid.count(n))] == exact
                # each tail point times 2520, a multiple of every denominator
                rows = [list(row) for cols in grid.tail_columns(n) for row in zip(*cols)]
                assert rows == [[2520 * x for x in cov] for cov in exact[len(exact) - samples:]]
                for k in (-1, grid.count(n)):
                    with pytest.raises(IndexError):
                        grid.covector(n, k)


def quadric_ranks(g, covectors):
    """Ranks read from u = V.F alone, through the quadrics in dimension 5."""
    kd = g.kirillov
    ranks = []
    for cov in covectors:
        x = clear_denominators(cov)[1]
        ranks.append(kd.rank(tuple(sum(map(mul, row, x)) for row in kd.v)))
    return ranks


def test_fast_rank_path_matches_exact_rank(catalog_samples):
    grid = GridSpec(radius=1, extra_random_samples=30, seed=5)
    covs = list(grid.covectors(5))
    for _, _, _, g in catalog_samples[:8]:
        fast = quadric_ranks(g, covs)
        slow = [mat_rank(b_form_at(g, f)) for f in covs]
        assert fast == slow


def test_fast_rank_path_survives_int64_overflow():
    # covector entries far beyond int64 must agree with exact elimination
    big = 2 ** 40
    g = build("5.2.2", FamilyParams(lambdas=(2,)))
    covs = [
        (big, big + 1, -big, big // 3, 1),
        (0, 0, 0, big, 0),
        (0, 0, 0, 0, big),
        (big, 0, 0, 0, 0),
    ]
    for batch in (covs, covs + [(big ** 2, 1, -big, 3, big + 5)]):
        batch = [tuple(F(x) for x in c) for c in batch]
        fast = quadric_ranks(g, batch)
        slow = [mat_rank(b_form_at(g, f)) for f in batch]
        assert fast == slow


def test_fast_rank_path_huge_structure_constants():
    g = huge_constants()
    covs = [tuple(F(x) for x in c) for c in
            [(0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (1, 1, 1, 1, 1)]]
    fast = quadric_ranks(g, covs)
    slow = [mat_rank(b_form_at(g, f)) for f in covs]
    assert fast == slow
    grid = GridSpec(radius=1, extra_random_samples=20, seed=3)
    assert kirillov._strata(g, grid) == strata_of(grid_ranks(g, grid))


@pytest.mark.parametrize("first, second", [
    # P = q1 q2 q3: every entry and sub-Pfaffian at e5 is a multiple of the
    # same large primes
    (slice(0, 3), slice(0, 3)),
    # the sub-Pfaffian q1 q2 q3 q4 f5^2 of four primes, entries of two
    (slice(0, 2), slice(2, 4)),
], ids=["P_P", "q1q2_q3q4"])
def test_prime_product_constants_match_the_oracle(first, second):
    # [X1,X2] = a X5 and [X3,X4] = b X5 with X5 central and a, b products of
    # the largest primes below 2^30: rank 4 off f5 = 0
    primes = list(islice(filter(is_prime, range(2 ** 30 - 1, 0, -2)), 4))
    g = LieAlgebra.from_brackets(5, [(1, 2, {5: prod(primes[first])}),
                                     (3, 4, {5: prod(primes[second])})])
    assert orbit_dim(g, [0, 0, 0, 0, 1]) == 4
    grid = GridSpec(radius=1)
    assert quadric_ranks(g, grid_covectors(grid, 5)) == grid_ranks(g, grid)
    profile = rank_profile(g, grid)
    assert (profile.histogram, profile.witnesses) == _oracle_profile(g, grid)


def _oracle_profile(g, grid):
    histogram, witnesses = {}, {}
    for cov in grid_covectors(grid, g.dim):
        rank = mat_rank(b_form_at(g, cov))
        histogram[rank] = histogram.get(rank, 0) + 1
        witnesses.setdefault(rank, cov)
    return histogram, witnesses


def aff_r():
    return LieAlgebra.from_brackets(2, [(1, 2, {2: 1})])


@pytest.mark.parametrize("make", [
    lambda: aff_r().direct_sum(aff_r()),
    # beyond int64 and with two denominators: outside dimension 5 each
    # distinct u is ranked by elimination
    lambda: LieAlgebra.from_brackets(4, [(1, 2, {2: 2 ** 80}), (3, 4, {4: F(1, 3)})]),
    lambda: g51().direct_sum(LieAlgebra.abelian(1)),
], ids=["aff_r_squared", "aff_r_squared_huge", "g51_plus_r"])
def test_rank_profile_outside_dimension_5_matches_the_oracle(make):
    g = make()
    grid = GridSpec(radius=1, extra_random_samples=20, seed=3)
    profile = rank_profile(g, grid)
    assert (profile.histogram, profile.witnesses) == _oracle_profile(g, grid)


def central_quadruple():
    # [X1,X2] = X5/2, [X3,X4] = 2X5, [X1,X3] = X5, [X2,X4] = X5 with X5
    # central: B_F = f5 * L where L's 4x4 Pfaffian 1/2*2 - 1*1 vanishes,
    # while clearing each entry's denominator on its own would not
    return LieAlgebra.from_brackets(5, [(1, 2, {5: F(1, 2)}), (3, 4, {5: 2}),
                                        (1, 3, {5: 1}), (2, 4, {5: 1})])


@pytest.mark.parametrize("moved", [False, True])
def test_rank_engine_clears_one_common_denominator(moved):
    g = central_quadruple()
    if moved:
        g = g.change_of_basis(random_invertible(random.Random(11), 5))
    grid = GridSpec()
    profile = rank_profile(g, grid)
    assert set(profile.histogram) <= {0, 2}
    assert (profile.histogram, profile.witnesses) == _oracle_profile(g, grid)


# ---------------------------------------------------------------------------
# the MD verdict
# ---------------------------------------------------------------------------

def test_md_common_factor_rule():
    v = md_check(g51())
    assert (v.kind, v.max_dim, v.proof) == ("IsMD", 4, "common-factor")


def test_md_pfaffian_vanishing_rule():
    v = md_check(build("5.3.7"))
    assert (v.kind, v.max_dim, v.proof) == ("IsMD", 2, "pfaffian-vanishing")


def test_md_zero_form_rule():
    v = md_check(LieAlgebra.abelian(5))
    assert (v.kind, v.max_dim, v.proof) == ("IsMD", 0, "zero-form")


def test_md_rejects_candidate_with_mixed_ranks():
    v = md_check(g523())
    assert v.kind == "NotMD"
    (low_f, low_r), (high_f, high_r) = v.witness_low, v.witness_high
    assert 0 < low_r < high_r
    assert minor_rank(b_form_at(g523(), low_f)) == low_r == 2
    assert minor_rank(b_form_at(g523(), high_f)) == high_r == 4


def test_md_notmd_recheck_survives_optimized_mode():
    # python -O strips assert statements; the re-verification of NotMD
    # witnesses must still raise when the exact rank disagrees with the grid
    code = "\n".join([
        "import sys",
        "from liemd import kirillov",
        "from liemd.catalog import build",
        "kirillov.mat_rank = lambda m: 0",
        "try:",
        "    kirillov.md_check(build('rejected.5.2.3'))",
        "    print(sys.flags.optimize, 'accepted')",
        "except AssertionError as exc:",
        "    print(sys.flags.optimize, 'raised:', exc)",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.startswith("1 raised: fast rank path disagrees"), done.stdout


def test_md_witnesses_are_first_in_enumeration_order():
    # the canonical enumeration is lexicographic from (-r,...,-r); the
    # witness for each rank stratum is its first covector in that order
    v = md_check(g523())
    assert v.witness_high[0] == (-2, -2, -2, -2, -2)
    assert v.witness_low[0] == (-2, -2, -2, -2, 0)


def test_md_rejects_diagonal_pair_specimen():
    v = md_check(build("rejected.3.2a"))
    assert v.kind == "NotMD"
    assert v.witness_low[1] == 2 and v.witness_high[1] == 4


def test_md_requires_solvable():
    sl2ish = LieAlgebra.from_brackets(
        3, [(1, 2, {3: 1}), (1, 3, {1: -2}), (2, 3, {2: 2})])
    padded = sl2ish.direct_sum(LieAlgebra.abelian(2))
    with pytest.raises(ValueError, match="solvable"):
        md_check(padded)


def test_md_requires_dim_5():
    with pytest.raises(ValueError, match="dimension 5"):
        md_check(LieAlgebra.abelian(4))


def test_md_verdict_json_shape():
    v = md_check(g523())
    doc = v.to_dict(histogram={0: 1, 2: 2, 4: 3})
    assert set(doc) == {"verdict", "max_dim", "proof", "witnesses", "histogram"}
    assert doc["verdict"] == "NotMD"
    assert [w["rank"] for w in doc["witnesses"]] == [2, 4]
    assert json.loads(json.dumps(doc)) == doc


def test_md_inconclusive_serialization():
    from liemd.kirillov import MDVerdict
    v = MDVerdict(kind="Inconclusive", max_rank_attained=4,
                  pfaffian_status="nonzero", samples_tested=3325)
    doc = v.to_dict()
    assert doc["verdict"] == "Inconclusive"
    assert doc["evidence"]["max_rank_attained"] == 4
    assert doc["evidence"]["samples_tested"] == 3325


# ---------------------------------------------------------------------------
# covariance under change of basis
# ---------------------------------------------------------------------------

def test_orbit_dim_covariance():
    rng = random.Random(19)
    g = g523()
    for _ in range(10):
        p = random_invertible(rng, 5)
        h = g.change_of_basis(p)
        for _ in range(10):
            f = [random_rational(rng) for _ in range(5)]
            assert orbit_dim(h, p.transpose().apply(f)) == orbit_dim(g, f)


def test_rank_profile_covariance():
    rng = random.Random(21)
    grid = GridSpec(radius=1, extra_random_samples=20, seed=8)
    for g in (g51(), g523(), build("5.3.5", FamilyParams(lambdas=(2,)))):
        for _ in range(5):
            p = random_invertible(rng, 5)
            h = g.change_of_basis(p)
            for r, w in rank_profile(h, grid).witnesses.items():
                assert orbit_dim(h, w) == r


# ---------------------------------------------------------------------------
# rank profiles and maximality
# ---------------------------------------------------------------------------

def test_rank_profile_abelian():
    prof = rank_profile(LieAlgebra.abelian(5), GridSpec(radius=1, extra_random_samples=5))
    assert prof.histogram == {0: 243 + 5}


def test_rank_profile_counts_radius1():
    prof = rank_profile(g51(), GridSpec(radius=1, extra_random_samples=0))
    assert prof.histogram == {0: 81, 4: 162}
    assert prof.witnesses[0] == (-1, -1, -1, -1, 0)
    assert prof.witnesses[4] == (-1, -1, -1, -1, -1)


def test_rank_profile_rejected_has_two_nonzero_strata():
    prof = rank_profile(g523())
    assert prof.histogram.get(2, 0) > 0 and prof.histogram.get(4, 0) > 0


def test_maximality_holds_for_md_instances():
    assert nonvanishing_maximality_check(build("5.2.1")) is None
    assert nonvanishing_maximality_check(build("5.4.5")) is None
    assert nonvanishing_maximality_check(LieAlgebra.abelian(5)) is None


def test_maximality_holds_when_the_derived_basis_exceeds_int64():
    g = basis_changed_538()
    assert max(abs(v) for row in g.derived_ideal().basis()
               for v in clear_denominators(row)[1]) >= 2 ** 63
    assert md_check(g).kind == "IsMD"
    assert nonvanishing_maximality_check(g) is None


def test_maximality_matches_the_fraction_oracle(catalog_algebras):
    # every default sample and one basis change of each, plus the two
    # beyond-int64 algebras, against a covector-by-covector scan
    grid = GridSpec(radius=1, extra_random_samples=20, seed=3)
    rng = random.Random(29)
    algebras = [g for _, g in catalog_algebras]
    algebras += [g.change_of_basis(random_invertible(rng, 5)) for g in algebras]
    algebras += [huge_constants(), basis_changed_538()]
    violated = 0
    for g in algebras:
        for max_dim in (0, 2, 4):
            expected = first_nonmaximal_covector(g, grid, max_dim)
            assert nonvanishing_maximality_check(g, grid, max_dim) == expected
            violated += expected is not None
    assert 0 < violated < 3 * len(algebras)


def derived_line_e1_minus_e2():
    # G^1 = span{e1 - e2} holds grid index 0, (-r, ..., -r), so the first
    # point of the maximal rank comes after a run of points of rank 0
    return LieAlgebra.from_brackets(5, [(3, 4, {1: 1, 2: -1})])


def test_structural_strata_match_the_scan(catalog_algebras):
    # under a structural verdict the rank is 0 on ann(G^1) and max_dim off
    # it; the oracle finds the grid points of ann(G^1) by solving for them
    rng = random.Random(31)
    algebras = [g for _, g in catalog_algebras if kirillov._structural_verdict(g)]
    assert len(algebras) == 38
    # one basis change each: dense G^1 rows, pivots other than 1
    algebras += [g.change_of_basis(random_invertible(rng, 5)) for g in algebras]
    assert any(row[p] > 1 for g in algebras[38:]
               for row, p in zip(g.derived_ideal().int_rows, g.derived_ideal().pivots))
    algebras += [LieAlgebra.abelian(5), derived_line_e1_minus_e2()]
    # the box at each radius; the random tail, which the seed draws, at two
    grids = [GridSpec(radius, 0) for radius in (1, 2, 3, 4)]
    grids += [GridSpec(radius, samples, seed)
              for radius in (1, 2) for samples in (5, 200) for seed in (1, 7)]
    for g in algebras:
        max_dim = kirillov._structural_verdict(g).max_dim
        rows = derived_rows(g)
        for grid in grids:
            zero, total = annihilator_indices(rows, grid, 5), grid.count(5)
            scanned = {0: (zero[0], len(zero))} if zero else {}
            if len(zero) < total:
                off = next(k for k, z in enumerate(zero + [total]) if k != z)
                scanned[max_dim] = (off, total - len(zero))
            assert kirillov._strata(g, grid) == scanned
            # a max_dim that does not match: the first violator is the first
            # point of the true maximal rank
            first = grid.covector(5, scanned[max_dim][0]) if max_dim else None
            for other in {0, 2, 4} - {max_dim}:
                assert nonvanishing_maximality_check(g, grid, other) == first
    assert kirillov._strata(algebras[-1], GridSpec(radius=3))[2][0] == 7 ** 3


# radius 1 to 3, tails of 0, 5 and 200 points, seeds 1 and 7
STRATA_GRIDS = [GridSpec(radius, samples, seed) for radius in (1, 2, 3)
                for samples in (0, 5, 200) for seed in (1, 7)]


def oracle_strata(g, grid, parts):
    """``strata_of(grid_ranks(g, grid))``, with the ranks of each box and of
    each seed's 200-point tail kept in ``parts``: a shorter tail is the
    start of the longer one with the same seed."""
    if not parts:
        parts["memo"] = {}
    for part in (GridSpec(grid.radius, 0), GridSpec(1, 200, grid.seed)):
        if part not in parts:
            parts[part] = grid_ranks(g, part, parts["memo"])
    tail = parts[GridSpec(1, 200, grid.seed)][3 ** 5:]
    return strata_of(parts[GridSpec(grid.radius, 0)] + tail[:grid.extra_random_samples])


def semidirect(rng, d):
    """A seeded algebra with dim G^1 = d and no structural verdict, in a
    dense basis.  d = 2, 3: R^2 acting on R^3 by the commuting A and
    A^2 + cA, with [X1, X2] = w, so G^1 = im A + <w>.  d = 4: R acting on
    h3 + R, where [X2, X3] = X4, by a derivation that is invertible on
    <X2, X3> and nonzero on X5."""
    while True:
        if d < 4:
            a = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            c = rng.randint(-2, 2)
            b = [[sum(a[i][k] * a[k][j] for k in range(3)) + c * a[i][j] for j in range(3)]
                 for i in range(3)]
            table = [(1, 2, {3 + k: rng.randint(-2, 2) for k in range(3)})]
            table += [(x, 3 + j, {3 + i: m[i][j] for i in range(3)})
                      for x, m in ((1, a), (2, b)) for j in range(3)]
        else:
            a, b, c, e, p, q, r, s, t, w = (rng.randint(-2, 2) for _ in range(10))
            table = [(1, 2, {2: a, 3: c, 4: p, 5: q}), (1, 3, {2: b, 3: e, 4: r, 5: s}),
                     (1, 4, {4: a + e}), (1, 5, {4: t, 5: w}), (2, 3, {4: 1})]
        g = LieAlgebra.from_brackets(5, [(i, j, {k: x for k, x in coeffs.items() if x})
                                         for i, j, coeffs in table])
        assert g.jacobi_check() is None
        if g.derived_ideal().dim == d and kirillov._structural_verdict(g) is None:
            return g.change_of_basis(random_invertible(rng, 5))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_nonstructural_strata_match_the_oracle(d):
    g = semidirect(random.Random(d), d)
    parts = {}
    for grid in STRATA_GRIDS:
        assert kirillov._strata(g, grid) == oracle_strata(g, grid, parts), grid


def test_packed_quadrics_do_not_cancel():
    # X1 acts on <X3, X4, X5> by the identity and X2 by diag(1, 2, 3): the
    # live quadrics are u1 u2, 2 u0 u2 and u0 u1, so rank 2 lies on the
    # axes of u, and a packing base too small to keep the quadrics apart
    # would cancel them at radius 3
    g = LieAlgebra.from_brackets(5, [(1, 3, {3: 1}), (1, 4, {4: 1}), (1, 5, {5: 1}),
                                     (2, 3, {3: 1}), (2, 4, {4: 2}), (2, 5, {5: 3})])
    assert len(g.kirillov.v) == 3 and kirillov._structural_verdict(g) is None
    parts = {}
    for grid in STRATA_GRIDS:
        assert kirillov._strata(g, grid) == oracle_strata(g, grid, parts), grid


@pytest.mark.parametrize("quadrics, lines", [
    ([(1, 0, -1)], [(1, -1), (1, 1)]),            # u0^2 - u1^2
    ([(0, 0, 0), (0, 2, 0)], [(0, 1), (1, 0)]),   # u0 u1: c0 = c2 = 0
    ([(0, 3, 6)], [(1, 0), (2, -1)]),             # u1 (3 u0 + 6 u1): c0 = 0
    ([(4, 4, 1)], [(1, -2)]),                     # (2 u0 + u1)^2, a double root
    ([(1, 0, -2)], []),                           # u0^2 - 2 u1^2, an irrational pair
    ([(1, 0, 1)], []),                            # definite
    ([(0, 1, 0), (1, 0, 0)], [(0, 1)]),           # u0 u1 and u0^2 share u0 = 0 only
    ([(0, 1, 0), (0, 0, 3)], [(1, 0)]),           # u0 u1 and u1^2 share u1 = 0 only
])
def test_rational_lines_are_the_shared_rational_roots(quadrics, lines):
    assert kirillov._rational_lines(quadrics) == lines


def aff_pair(m):
    # X1 acts on <X3, X4> by the identity and X2 by [[0, m], [1, 0]]: the one
    # live sub-Pfaffian is f4^2 - m f3^2, and m = -1 gives aff(C) + R
    return LieAlgebra.from_brackets(5, [(1, 3, {3: 1}), (1, 4, {4: 1}),
                                        (2, 3, {4: 1}), (2, 4, {3: m})])


@pytest.mark.parametrize("make, lines", [
    (lambda: aff_pair(1), 2),
    (lambda: build("5.2.2", FamilyParams(lambdas=(2,))), 1),
    (lambda: aff_pair(2), 0),
], ids=["two_rays", "double_root_5.2.2", "irrational_pair"])
def test_rank_two_lines_of_dimension_two_match_the_oracle(make, lines):
    # dim G^1 = 2: rank 2 exactly where u lies on a rational line on which
    # every quadric vanishes; a dense basis moves the lines off the axes
    g = make().change_of_basis(random_invertible(random.Random(lines), 5))
    assert len(g.kirillov.v) == 2 and kirillov._structural_verdict(g) is None
    assert len(kirillov._rational_lines(g.kirillov.quadrics)) == lines
    parts = {}
    for grid in STRATA_GRIDS:
        strata = kirillov._strata(g, grid)
        assert strata == oracle_strata(g, grid, parts), grid
        assert (2 in strata) <= (lines > 0)
    assert (2 in strata) == (lines > 0)


def test_maximality_requires_ismd():
    with pytest.raises(ValueError, match="IsMD"):
        nonvanishing_maximality_check(g523())


def test_md_verdict_consistent_with_grid_oracle(catalog_samples):
    # IsMD -> the exhaustive radius-2 grid sees ranks within {0, max};
    # NotMD -> it sees two distinct nonzero ranks
    for label, _, _, g in catalog_samples:
        verdict = md_check(g)
        observed = set(rank_profile(g).histogram)
        if verdict.kind == "IsMD":
            assert observed <= {0, verdict.max_dim}, label
        elif verdict.kind == "NotMD":
            assert len({r for r in observed if r > 0}) >= 2, label


def test_maximality_skips_the_grid_when_derived_ideal_is_zero(monkeypatch):
    def untouched(*args):
        raise AssertionError("grid scanned")

    monkeypatch.setattr(kirillov.KirillovData, "rank", untouched)
    monkeypatch.setattr(GridSpec, "tail_columns", untouched)
    assert nonvanishing_maximality_check(LieAlgebra.abelian(5), max_dim=0) is None


@pytest.mark.parametrize("make", [g538, g523, huge_constants, basis_changed_538])
def test_grid_results_do_not_depend_on_the_chunk_size(make, monkeypatch):
    grid = GridSpec()

    def results():
        g = make()
        profile = rank_profile(g, grid)
        return (profile, md_check(g, grid),
                nonvanishing_maximality_check(g, grid, max_dim=max(profile.histogram)))

    default = results()
    # 7 does not divide the 200 tail points, so the last chunk is short
    monkeypatch.setattr(kirillov, "TAIL_CHUNK", 7)
    assert len(list(grid.tail_columns(5))) == -(-200 // 7)
    assert results() == default


def dense_32a():
    # rejected.3.2a in a dense basis: dim G^1 = 3, and each row of V reads
    # most coordinates
    return build("rejected.3.2a").change_of_basis(random_invertible(random.Random(2), 5))


def test_strata_peak_memory_is_flat_in_the_radius():
    def peak(radius):
        g = dense_32a()
        assert len(g.kirillov.v) == 3  # built outside the traced region
        tracemalloc.start()
        try:
            kirillov._strata(g, GridSpec(radius=radius))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a first count at each size also fills the interpreter's free lists
    peak(3)
    peak(6)
    # radius 6 has 22x the points of radius 3
    assert peak(6) <= 2 * peak(3)


def test_random_tail_is_held_as_integer_draws():
    grid = GridSpec(radius=1, extra_random_samples=20000)
    tracemalloc.start()
    try:
        for _ in grid.tail_columns(5):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 100,000 tail entries: two bytes each, and one chunk of integer columns
    # at a time; one Fraction per entry takes several times that
    assert peak < 6 * 10 ** 6


@pytest.mark.parametrize("make, max_dim, proof", [
    (lambda: LieAlgebra.abelian(5), 0, "zero-form"),
    (lambda: build("5.2.1"), 2, "pfaffian-vanishing"),
    (g51, 4, "common-factor"),
])
def test_structural_verdicts_read_no_grid(make, max_dim, proof, monkeypatch):
    def untouched(*args):
        raise AssertionError("grid read")

    for name in ("covector", "covectors", "tail_columns", "_tail"):
        monkeypatch.setattr(GridSpec, name, untouched)
    monkeypatch.setattr(kirillov.KirillovData, "rank", untouched)
    verdict = md_check(make())
    assert (verdict.kind, verdict.max_dim, verdict.proof) == ("IsMD", max_dim, proof)


def test_maximality_counterexample_for_discrepancy_family():
    g = build("5.2.2", FamilyParams(lambdas=(2,)))
    violator = nonvanishing_maximality_check(g, max_dim=4)
    assert violator is not None
    assert orbit_dim(g, violator) != 4
    g1 = g.derived_ideal()
    assert any(sum(a * b for a, b in zip(violator, v)) != 0 for v in g1.basis())
