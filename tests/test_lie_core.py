import importlib.util
import json
import random
import sys
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

import oracles
from liemd.catalog import build, parse_params
from liemd.exact import MatrixQ
from liemd.lie_core import LieAlgebra, Subspace
from conftest import random_invertible, random_rational


def g51():
    return LieAlgebra.from_brackets(5, [(1, 2, {5: 1}), (3, 4, {5: 1})])


def g521():
    return LieAlgebra.from_brackets(5, [(1, 2, {4: 1}), (2, 3, {5: 1})])


def g534():
    return LieAlgebra.from_brackets(
        5, [(1, 2, {3: 1}), (2, 3, {3: 1}), (2, 4, {4: 1}), (2, 5, {5: 1})])


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_from_brackets_builds_nilpotent_example():
    g = g51()
    assert g.dim == 5
    assert g.bracket(g.basis_vector(0), g.basis_vector(1)) == (0, 0, 0, 0, 1)
    assert g.is_lie


def test_from_brackets_abelian():
    g = LieAlgebra.abelian(5)
    assert g.brackets == {}
    assert g.is_lie


def test_from_brackets_rejects_duplicates():
    with pytest.raises(ValueError, match=r"duplicate bracket for pair \(1, 2\)"):
        LieAlgebra.from_brackets(5, [(1, 2, {5: 1}), (1, 2, {4: 1})])


def test_from_brackets_rejects_bad_indices():
    with pytest.raises(ValueError, match="out of range"):
        LieAlgebra.from_brackets(3, [(1, 4, {2: 1})])
    with pytest.raises(ValueError, match="not increasing"):
        LieAlgebra.from_brackets(3, [(2, 1, {3: 1})])
    with pytest.raises(ValueError, match="target index"):
        LieAlgebra.from_brackets(3, [(1, 2, {7: 1})])


def test_construction_allows_non_jacobi_algebras():
    bad = LieAlgebra.from_brackets(3, [(1, 2, {1: 1}), (1, 3, {2: 1})])
    assert not bad.is_lie
    with pytest.raises(ValueError, match="Jacobi"):
        bad.require_jacobi()


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------

def test_bracket_matches_structure_constants():
    g = g51()
    assert g.bracket([1, 0, 0, 0, 0], [0, 1, 0, 0, 0]) == (0, 0, 0, 0, 1)


def test_bracket_self_is_zero():
    g = g534()
    rng = random.Random(3)
    for _ in range(20):
        u = [random_rational(rng) for _ in range(5)]
        assert g.bracket(u, u) == (0,) * 5


def test_bracket_antisymmetric_bilinear():
    g = g534()
    rng = random.Random(5)
    for _ in range(50):
        u = [random_rational(rng) for _ in range(5)]
        v = [random_rational(rng) for _ in range(5)]
        w = [random_rational(rng) for _ in range(5)]
        a, b = random_rational(rng), random_rational(rng)
        uv = g.bracket(u, v)
        assert g.bracket(v, u) == tuple(-x for x in uv)
        combo = [a * x + b * y for x, y in zip(u, w)]
        lhs = g.bracket(combo, v)
        rhs = tuple(a * x + b * y for x, y in zip(uv, g.bracket(w, v)))
        assert lhs == rhs


def rational_invertible(rng: random.Random, n: int) -> MatrixQ:
    """A random invertible matrix with entries p/q, |p| <= 2, 1 <= q <= 3."""
    while True:
        rows = [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        if oracles.det_perm(rows) != 0:
            return MatrixQ(rows)


def assert_matches_oracles(g: LieAlgebra, rng: random.Random, changes: int = 3):
    """bracket (of two vectors, and of a vector with each basis vector),
    jacobi_check and change_of_basis of g against the Fraction oracles, on
    seeded rational vectors and basis changes."""
    for _ in range(3):
        u = [random_rational(rng) for _ in range(g.dim)]
        v = [random_rational(rng) for _ in range(g.dim)]
        assert g.bracket(u, v) == oracles.bracket(g, u, v)
        assert [g.bracket(u, g.basis_vector(k)) for k in range(g.dim)] == [
            oracles.bracket_with_basis(g, u, k) for k in range(g.dim)]
    assert g.jacobi_check() == oracles.jacobi_failure(g)
    for _ in range(changes):
        p = rational_invertible(rng, g.dim)
        h = g.change_of_basis(p)
        assert h.brackets == oracles.change_of_basis_table(g, p)
        assert_matches_oracles(h, rng, changes=0)


def test_integer_table_matches_the_fraction_oracles(catalog_algebras):
    rng = random.Random(11)
    for _, g in catalog_algebras:
        assert_matches_oracles(g, rng)


def test_integer_table_of_abelian_and_zero_dimensional_algebras():
    rng = random.Random(12)
    for g in (LieAlgebra.abelian(0), LieAlgebra.abelian(1), LieAlgebra.abelian(5)):
        assert g._int_table == (1, ())
        assert_matches_oracles(g, rng)
    assert LieAlgebra.abelian(0).bracket((), ()) == ()


def test_integer_table_beyond_int64(monkeypatch):
    # the benchmark's large-coefficient input: a dense basis change of
    # rejected.5.2.3 with constants beyond int64
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    base = inputs.table_of(build("rejected.5.2.3").to_dict())
    wide = inputs.wide_presentation(base, random.Random(1))
    g = LieAlgebra.from_dict(inputs.doc_of(wide))
    assert g.brackets == wide and inputs.peak_coefficient(wide) > inputs.INT64_MAX
    assert_matches_oracles(g, random.Random(13))


def test_identity_acts_on_invariant_subspace():
    g = g534()
    assert g.bracket([0, 1, 0, 0, 0], [0, 0, 0, 1, 0]) == (0, 0, 0, 1, 0)


# ---------------------------------------------------------------------------
# Jacobi
# ---------------------------------------------------------------------------

def test_jacobi_failure_reports_triple_and_defect():
    bad = LieAlgebra.from_brackets(3, [(1, 2, {1: 1}), (1, 3, {2: 1})])
    i, j, k, defect = bad.jacobi_check()
    assert (i, j, k) == (0, 1, 2)
    assert defect == (0, 1, 0)


def test_jacobi_defect_of_rational_tables_matches_the_oracle():
    # random sparse tables with constants p/q mostly break Jacobi, at
    # triples early and late in the scan
    rng = random.Random(21)
    failures = set()
    for _ in range(150):
        n = rng.randint(3, 5)
        entries = [(i, j, {k: random_rational(rng, 3, 4) for k in rng.sample(range(1, n + 1), 2)})
                   for i in range(1, n + 1) for j in range(i + 1, n + 1)
                   if rng.random() < 0.3]
        g = LieAlgebra.from_brackets(n, entries)
        expected = oracles.jacobi_failure(g)
        assert g.jacobi_check() == expected
        if expected is not None:
            failures.add(expected[:3])
    assert len(failures) >= 8


def test_jacobi_passes_on_central_extensions():
    assert g51().jacobi_check() is None


# ---------------------------------------------------------------------------
# series / center / centralizer
# ---------------------------------------------------------------------------

def test_derived_series_dims():
    assert g534().derived_dims() == (5, 3, 0)
    assert LieAlgebra.abelian(5).derived_dims() == (5, 0)


def test_lower_central_series_distinguishes_nilpotency():
    assert g521().lower_central_dims() == (5, 2, 0)
    three_step = LieAlgebra.from_brackets(
        5, [(1, 2, {5: 1}), (3, 4, {5: 1}), (2, 3, {4: 2})])
    assert three_step.lower_central_dims() == (5, 2, 1, 0)
    not_nilp = g534()
    assert not_nilp.lower_central_dims()[-1] != 0


def test_center_of_heisenberg_like():
    g = g51()
    z = g.center()
    assert z.dim == 1
    assert z.contains([0, 0, 0, 0, 1])


def test_center_of_abelian_is_everything():
    assert LieAlgebra.abelian(5).center().dim == 5


def test_centralizer_of_derived_ideal():
    g = g534()
    cz = g.centralizer(g.derived_ideal())
    assert cz.dim == 4
    assert cz.contains([1, 0, 0, 0, 0])
    assert not cz.contains([0, 1, 0, 0, 0])


def test_solvability():
    assert g534().is_solvable()
    sl2ish = LieAlgebra.from_brackets(
        3, [(1, 2, {3: 1}), (1, 3, {1: -2}), (2, 3, {2: 2})])
    assert sl2ish.is_lie
    assert not sl2ish.is_solvable()


# ---------------------------------------------------------------------------
# integer-row subspaces against the Fraction oracle
# ---------------------------------------------------------------------------

def beyond_int64_538() -> LieAlgebra:
    """A 5.3.8 sample moved by a basis change with entries near 2^70, so its
    structure constants and the integer rows of its subspaces pass int64."""
    big = 2 ** 70
    p = [[int(i == j) for j in range(5)] for i in range(5)]
    p[0][2], p[1][4], p[3][1], p[4][0] = big - 1, 3 * big + 5, F(big + 7, 3), -2
    return build("5.3.8", parse_params("l=2,angle=3/5:4/5")).change_of_basis(MatrixQ(p))


def assert_structure_matches_oracle(g: LieAlgebra):
    """Series, center, centralizer of G^1, the invariant line
    [C_G(G^1), G] ∩ G^1 and ad on G^1, each against ``oracles``."""
    full = oracles.span([g.basis_vector(i) for i in range(g.dim)], g.dim)
    g1 = oracles.bracket_span(g, full, full)
    assert [s.basis() for s in g.derived_series()] == oracles.series(
        g, lambda s: oracles.bracket_span(g, s, s))
    assert [s.basis() for s in g.lower_central_series()] == oracles.series(
        g, lambda s: oracles.bracket_span(g, full, s))
    assert g.center().basis() == oracles.centralizer(g, full)
    cent = oracles.centralizer(g, g1)
    assert g.derived_centralizer().basis() == cent
    line = g.span_of_brackets(g.derived_centralizer(), Subspace.full(g.dim)).intersection(
        g.derived_ideal())
    assert line.basis() == oracles.intersection(oracles.bracket_span(g, cent, full), g1, g.dim)
    assert [m.data for m in g.ad_on_derived()] == [
        tuple(map(tuple, oracles.ad_matrix(g, e, g1))) for e in full]


def test_subspaces_match_the_fraction_oracle(catalog_algebras):
    rng = random.Random(14)
    for _, g in catalog_algebras:
        assert_structure_matches_oracle(g)
        for _ in range(3):
            assert_structure_matches_oracle(g.change_of_basis(rational_invertible(rng, 5)))
    big = beyond_int64_538()
    assert max(abs(x) for row in big.derived_ideal().int_rows for x in row) >= 2 ** 63
    assert_structure_matches_oracle(big)


def test_subspace_value_does_not_depend_on_the_spanning_set():
    rng = random.Random(15)
    for trial in range(60):
        scale = 2 ** 70 + 1 if trial % 4 == 0 else 1
        rows = [[random_rational(rng) * scale for _ in range(5)]
                for _ in range(rng.randint(0, 4))]
        s = Subspace(5, rows)
        assert s.basis() == oracles.span(rows, 5)
        for row, c in zip(s.int_rows, s.pivots):
            assert gcd(*row) == 1 and row[c] > 0
        scalars = [F(rng.choice([-3, -1, 2, 7]), rng.randint(1, 5)) for _ in rows]
        scaled = [[c * x for x in row] for c, row in zip(scalars, rows)]
        coeffs = [rng.randint(-4, 4) for _ in rows]
        combination = [sum((c * row[k] for c, row in zip(coeffs, rows)), F(0))
                       for k in range(5)]
        for other in (scaled, rng.sample(rows, len(rows)),
                      rows + [combination, [0] * 5] + rows[:1]):
            t = Subspace(5, other)
            assert t == s and hash(t) == hash(s)
        assert s.contains(combination)
        for j in range(5):  # the combination moved along X_{j+1}
            probe = combination[:j] + [combination[j] + 1] + combination[j + 1:]
            inside = oracles.coordinates(s.basis(), probe) is not None
            assert s.contains(probe) == inside
            assert (Subspace(5, rows + [probe]) == s) == inside
    for n in range(7):  # the whole space, built without elimination
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        full = Subspace.full(n)
        assert full == Subspace(n, rows) and full.pivots == tuple(range(n))
        assert full.basis() == oracles.span(rows, n)


def test_structural_path_builds_no_fraction(catalog_algebras, monkeypatch):
    # the series, the center and the centralizer of G^1 of a fresh
    # presentation run on integer rows once the structure constants are cleared
    rng = random.Random(16)
    fresh = [LieAlgebra.from_dict(g.change_of_basis(rational_invertible(rng, 5)).to_dict())
             for _, g in catalog_algebras]
    fresh.append(LieAlgebra.from_dict(beyond_int64_538().to_dict()))
    for g in fresh:
        assert g._int_table
    built = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting_new)
    if hasattr(F, "_from_coprime_ints"):  # from 3.12 arithmetic bypasses __new__
        coprime = F._from_coprime_ints

        def counting_coprime(cls, numerator, denominator):
            built.append((numerator, denominator))
            return coprime(numerator, denominator)

        monkeypatch.setattr(F, "_from_coprime_ints", classmethod(counting_coprime))
    F(1, 3) + F(1, 2)
    assert len(built) >= 3  # two constructions and the sum are counted
    built.clear()
    def dims(g):
        return (g.derived_dims(), g.lower_central_dims(), g.center().dim,
                g.derived_centralizer().dim)

    moved = [dims(g) for g in fresh]
    monkeypatch.undo()
    assert built == []
    originals = [g for _, g in catalog_algebras]
    originals.append(build("5.3.8", parse_params("l=2,angle=3/5:4/5")))
    assert moved == [dims(g) for g in originals]


# ---------------------------------------------------------------------------
# adjoint operators
# ---------------------------------------------------------------------------

def test_ad_restricted_reads_back_diagonal():
    g = LieAlgebra.from_brackets(
        5, [(1, 2, {3: 1}), (2, 3, {3: 1}), (2, 4, {4: 1}), (2, 5, {5: 2})])
    op = g.ad_restricted(g.basis_vector(1), g.derived_ideal())
    assert op.matrix == MatrixQ([[1, 0, 0], [0, 1, 0], [0, 0, 2]])


def test_ad_restricted_center_gives_zero():
    g = g51()
    op = g.ad_restricted([0, 0, 0, 0, 1], g.derived_ideal())
    assert op.matrix.is_zero()


def test_ad_restricted_full_jordan_block():
    entries = [(1, 2, {2: 1}), (1, 3, {2: 1, 3: 1}), (1, 4, {3: 1, 4: 1}),
               (1, 5, {4: 1, 5: 1})]
    g = LieAlgebra.from_brackets(5, entries)
    op = g.ad_restricted(g.basis_vector(0), g.derived_ideal())
    assert op.matrix == MatrixQ([[1, 1, 0, 0], [0, 1, 1, 0],
                                 [0, 0, 1, 1], [0, 0, 0, 1]])


def test_ad_restricted_rejects_non_invariant_subspace():
    g = g51()
    s = Subspace(5, [[1, 0, 0, 0, 0]])  # [X2, X1] lands outside span(X1)
    with pytest.raises(ValueError, match="not invariant"):
        g.ad_restricted(g.basis_vector(1), s)


def test_ad_commute_on_commutative_derived_ideal():
    g = g534()
    rng = random.Random(11)
    for _ in range(50):
        x = [random_rational(rng) for _ in range(5)]
        y = [random_rational(rng) for _ in range(5)]
        assert g.ad_commute_check(x, y)


def test_ad_commute_check_matches_direct_operators():
    # G^1 = <X3, X4> is commutative, but the table fails Jacobi, so ad_X1
    # and ad_X2 need not commute on it
    table = LieAlgebra.from_brackets(4, [(1, 3, {3: 1}), (2, 3, {4: 1})])
    g1 = table.derived_ideal()
    assert not table.ad_commute_check(table.basis_vector(0), table.basis_vector(1))
    rng = random.Random(13)
    for _ in range(30):
        x = [random_rational(rng) for _ in range(4)]
        y = [random_rational(rng) for _ in range(4)]
        ax = table.ad_restricted(x, g1).matrix
        ay = table.ad_restricted(y, g1).matrix
        assert table.ad_commute_check(x, y) == (ax @ ay == ay @ ax)
    # after basis changes the ad_{X_i} on G^1 have non-integer entries, so
    # the check clears them over a common denominator; rejected.3.2a is a
    # Lie algebra with two independent ad operators on G^1 (they commute),
    # the moved table is not (generic pairs do not)
    from liemd.catalog import FamilyParams, build
    moved = [build("rejected.3.2a", FamilyParams()).change_of_basis(random_invertible(rng, 5)),
             table.change_of_basis(random_invertible(rng, 4))]
    for g, lie in zip(moved, (True, False)):
        g1 = g.derived_ideal()
        assert any(q.denominator != 1 for m in g.ad_on_derived() for row in m.data for q in row)
        outcomes = set()
        for trial in range(30):
            x = [random_rational(rng) for _ in range(g.dim)]
            y = [random_rational(rng) for _ in range(g.dim)]
            if trial % 3 == 0:  # ad_x commutes with its multiples
                y = [F(-3, 2) * c for c in x]
            ax = g.ad_restricted(x, g1).matrix
            ay = g.ad_restricted(y, g1).matrix
            direct = ax @ ay == ay @ ax
            assert g.ad_commute_check(x, y) == direct
            outcomes.add(direct)
        assert outcomes == ({True} if lie else {True, False})


def test_frobenius_on_derived_scales_one_decomposition():
    from liemd.catalog import FamilyParams, build
    from liemd.exact import frobenius_form
    # G^1 has codimension 1 and is commutative, so after a basis change
    # every ad_{X_i} on G^1 is a multiple of the first nonzero one
    g = build("5.4.3", FamilyParams(lambdas=(2,))).change_of_basis(
        random_invertible(random.Random(17), 5))
    mats = g.ad_on_derived()
    assert sum(not m.is_zero() for m in mats) >= 2
    for i, m in enumerate(mats):
        if m.is_zero():
            with pytest.raises(ValueError, match="nonzero multiple"):
                g.frobenius_on_derived(i)
        else:
            assert g.frobenius_on_derived(i) == frobenius_form(m)


def test_frobenius_on_derived_refuses_other_operators():
    # ad_X1 and ad_X2 on G^1 = <X3, X4> are independent; ad_X3 is zero
    from liemd.exact import frobenius_form
    table = LieAlgebra.from_brackets(4, [(1, 3, {3: 1}), (2, 3, {4: 1})])
    assert table.frobenius_on_derived(0) == frobenius_form(table.ad_on_derived()[0])
    for i in (1, 2):
        with pytest.raises(ValueError, match="nonzero multiple"):
            table.frobenius_on_derived(i)
    with pytest.raises(ValueError, match="trivially"):
        LieAlgebra.abelian(3).frobenius_on_derived(0)


def test_ad_commute_refuses_noncommutative_derived_ideal():
    sl2ish = LieAlgebra.from_brackets(
        3, [(1, 2, {3: 1}), (1, 3, {1: -2}), (2, 3, {2: 2})])
    with pytest.raises(ValueError, match="not commutative"):
        sl2ish.ad_commute_check([1, 0, 0], [0, 1, 0])


# ---------------------------------------------------------------------------
# change of basis and direct sums
# ---------------------------------------------------------------------------

def test_change_of_basis_identity():
    g = g534()
    assert g.change_of_basis(oracles.identity(5)).brackets == g.brackets


def test_change_of_basis_scaling_central_direction():
    g = g51()
    p = MatrixQ([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                 [0, 0, 0, 1, 0], [0, 0, 0, 0, 2]])
    h = g.change_of_basis(p)
    assert h.brackets[(0, 1)] == (0, 0, 0, 0, F(1, 2))
    assert h.brackets[(2, 3)] == (0, 0, 0, 0, F(1, 2))


def test_change_of_basis_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        g51().change_of_basis(MatrixQ.zero(5))


def test_change_of_basis_preserves_jacobi_and_dims():
    rng = random.Random(13)
    for g in (g51(), g521(), g534()):
        for _ in range(20):
            p = random_invertible(rng, 5)
            h = g.change_of_basis(p)
            assert h.is_lie
            assert h.derived_dims() == g.derived_dims()
            assert h.center().dim == g.center().dim


def test_change_of_basis_transport_commutes_with_bracket():
    # the inverse matrix intertwines old and new brackets
    rng = random.Random(15)
    g = g534()
    for _ in range(10):
        p = random_invertible(rng, 5)
        h = g.change_of_basis(p)
        p_inv = p.inverse()
        u = [random_rational(rng) for _ in range(5)]
        v = [random_rational(rng) for _ in range(5)]
        lhs = p_inv.apply(g.bracket(u, v))
        rhs = h.bracket(p_inv.apply(u), p_inv.apply(v))
        assert lhs == rhs


def test_direct_sum_dims_and_series():
    h = g51().direct_sum(LieAlgebra.abelian(1))
    assert h.dim == 6
    assert h.derived_dims() == (6, 1, 0)
    both = LieAlgebra.abelian(2).direct_sum(LieAlgebra.abelian(3))
    assert both.brackets == {}
    k = g51().direct_sum(g521())
    expect = tuple(a + b for a, b in zip(g51().derived_dims(), g521().derived_dims()))
    assert k.derived_dims() == expect


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_round_trip():
    g = LieAlgebra.from_brackets(
        5, [(1, 2, {3: F(1, 2)}), (2, 3, {3: 1, 5: F(-7, 3)})])
    doc = json.loads(json.dumps(g.to_dict()))
    h = LieAlgebra.from_dict(doc)
    assert h.brackets == g.brackets
    assert h.basis_names == g.basis_names


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown fields"):
        LieAlgebra.from_dict({"dim": 2, "brackets": [], "extra": 1})


def test_from_dict_rejects_bad_bracket_entries():
    with pytest.raises(ValueError, match="i < j"):
        LieAlgebra.from_dict({"dim": 3, "brackets": [{"i": 2, "j": 2, "coeffs": {}}]})
    with pytest.raises(ValueError, match="unknown fields"):
        LieAlgebra.from_dict(
            {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {}, "x": 0}]})
    with pytest.raises(ValueError, match="requires 'dim'"):
        LieAlgebra.from_dict({"brackets": []})


def test_from_dict_caps_the_dimension():
    assert LieAlgebra.from_dict({"dim": 32, "brackets": []}).dim == 32
    for dim in (33, 10 ** 9, -1):
        with pytest.raises(ValueError, match="from 0 to 32"):
            LieAlgebra.from_dict({"dim": dim, "brackets": []})


def test_from_dict_rejects_boolean_integers():
    with pytest.raises(ValueError, match="'dim'"):
        LieAlgebra.from_dict({"dim": True, "brackets": []})
    for i, j in ((True, 2), (1, True), (False, True)):
        with pytest.raises(ValueError, match="integer indices"):
            LieAlgebra.from_dict({"dim": 3, "brackets": [{"i": i, "j": j, "coeffs": {}}]})
