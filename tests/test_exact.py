import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from liemd import exact
from liemd.exact import (
    MatrixQ,
    UnitPoint,
    clear_denominators,
    format_rational,
    format_vector,
    frobenius_form,
    mat_rank,
    nullspace_int,
    parse_rational,
    pfaffian4,
    poly_divides,
    poly_mul,
    rational_kth_roots,
)
from oracles import (
    char_poly,
    companion,
    det_perm,
    frobenius_block_matrix,
    identity,
    matmul as oracle_matmul,
    minor_rank,
    poly_eval_matrix,
    poly_monic,
    rref as oracle_rref,
    similar,
    skew4_from_upper,
    solve_is_zero_vector,
)
from conftest import random_invertible, random_rational


def skew5(entries):
    m = [[F(0)] * 5 for _ in range(5)]
    for i, j, v in entries:
        m[i][j] = F(v)
        m[j][i] = -F(v)
    return MatrixQ(m)


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

def test_parse_rational_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == -7
    assert parse_rational(5) == 5
    assert parse_rational(F(2, 6)) == F(1, 3)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("nope")
    with pytest.raises(ValueError):
        parse_rational(True)


def test_format_rational_bare_int_when_integral():
    assert format_rational(F(4, 2)) == 2
    assert format_rational(F(-3, 4)) == "-3/4"


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_zero_matrix():
    assert mat_rank(MatrixQ.zero(5)) == 0


def test_rank_two_symplectic_blocks():
    assert mat_rank(skew5([(0, 1, 1), (2, 3, 1)])) == 4


def test_rank_single_block():
    assert mat_rank(skew5([(1, 2, 1)])) == 2


def test_rank_agrees_with_minor_enumeration():
    rng = random.Random(17)
    for _ in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = MatrixQ([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
        assert mat_rank(m) == minor_rank(m)


def test_rank_transpose_invariant():
    rng = random.Random(23)
    for _ in range(100):
        cols = rng.randint(1, 5)
        rows = rng.randint(1, 5)
        m = MatrixQ([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
        assert mat_rank(m) == mat_rank(m.transpose())


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_products_match_the_triple_loop_oracle():
    """Every shape with 0 to 4 rows, inner dimension and columns, with small
    integers, large denominators (given with either sign) and entries beyond
    2**80, some rows zeroed."""
    rng = random.Random(67)
    entries = [
        lambda: rng.randint(-3, 3),
        lambda: F(rng.randint(-10 ** 6, 10 ** 6), rng.choice([-1, 1]) * rng.randint(1, 10 ** 6)),
        lambda: F(rng.randint(-2 ** 90, 2 ** 90), rng.randint(1, 2 ** 40)),
    ]
    for trial in range(375):
        n, k, m = trial % 5, (trial // 5) % 5, (trial // 25) % 5
        entry = entries[trial % 3]
        a = [[entry() for _ in range(k)] for _ in range(n)]
        b = [[entry() for _ in range(m)] for _ in range(k)]
        if trial % 4 == 1 and n:
            a[rng.randrange(n)] = [0] * k
        v = [entry() for _ in range(k)]
        product = MatrixQ(a, k) @ MatrixQ(b, m)
        assert (product.rows, product.cols) == (n, m)
        assert product == MatrixQ(oracle_matmul(a, b, m), m)
        image = MatrixQ(a, k).apply(v)
        assert image == tuple(row[0] for row in oracle_matmul(a, [[x] for x in v], 1))
        assert all(type(x) is F for x in image + tuple(x for row in product.data for x in row))


def test_product_with_empty_inner_dimension_is_zero():
    product = MatrixQ.zero(2, 0) @ MatrixQ.zero(0, 3)
    assert (product.rows, product.cols) == (2, 3)
    assert product == MatrixQ.zero(2, 3)


def test_apply_with_no_columns_gives_fraction_zeros():
    image = MatrixQ.zero(3, 0).apply(())
    assert image == (0, 0, 0)
    assert all(type(x) is F for x in image)


def test_matrices_with_no_rows_or_no_columns_keep_their_shape():
    for k in range(1, 4):
        for rows, cols in ((0, k), (k, 0)):
            m = MatrixQ.zero(rows, cols)
            t = m.transpose()
            assert (t.rows, t.cols) == (cols, rows)
            assert t.transpose() == m
            for same in (m.scale(3), m.rref()[0]):
                assert (same.rows, same.cols) == (rows, cols)
                assert same == m and hash(same) == hash(m)
        assert MatrixQ.from_columns([()] * k) == MatrixQ.zero(0, k)
    # equality sees the width of a matrix with no rows
    assert MatrixQ.zero(0, 3) != MatrixQ.zero(0, 0)
    assert len({MatrixQ.zero(0, k) for k in range(4)}) == 4


# ---------------------------------------------------------------------------
# the elimination kernel: rref and everything built on it
# ---------------------------------------------------------------------------

def _kernel_cases():
    """Seeded matrices of every shape from 1x1 to 6x7: small integers with
    either sign, denominators up to 10**6, and entries beyond 2**80, with
    zero rows, zero columns and dependent rows mixed in."""
    rng = random.Random(59)
    entries = [
        lambda: rng.randint(-3, 3),
        lambda: F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)),
        lambda: rng.choice([0, rng.randint(-2 ** 90, 2 ** 90)]),
    ]
    for trial in range(336):
        rows, cols = 1 + trial % 6, 1 + (trial // 6) % 7
        entry = entries[trial % 3]
        m = [[entry() for _ in range(cols)] for _ in range(rows)]
        if trial % 4 == 1:
            m[rng.randrange(rows)] = [0] * cols
        if trial % 5 == 2:
            zero_col = rng.randrange(cols)
            for row in m:
                row[zero_col] = 0
        if trial % 3 == 0 and rows >= 3:
            m[0] = [a - 3 * b for a, b in zip(m[1], m[2])]
        yield MatrixQ(m)


def test_rref_matches_textbook_oracle():
    for m in _kernel_cases():
        red, pivots = m.rref()
        rows, oracle_pivots = oracle_rref(m)
        assert pivots == oracle_pivots, m
        assert red == MatrixQ(rows), m
        assert mat_rank(m) == len(pivots)


def test_nullspace_int_and_inverse_hold_exactly():
    # no solve check: MatrixQ.solve is deleted, and the one system the
    # Frobenius form solves is read off a nullspace_int kernel vector
    for m in _kernel_cases():
        den, basis = nullspace_int([clear_denominators(row)[1] for row in m.data], m.cols)
        assert len(basis) == m.cols - len(oracle_rref(m)[1])
        for v in basis:
            assert solve_is_zero_vector(m, [F(x, den) for x in v])
        if basis:
            assert len(oracle_rref(basis)[1]) == len(basis)
        if m.is_square():
            if len(oracle_rref(m)[1]) == m.rows:
                assert m.inverse() @ m == identity(m.rows)
            else:
                with pytest.raises(ValueError, match="singular"):
                    m.inverse()


@pytest.mark.parametrize("m,v,expected", [
    # zero vector: the empty chain, annihilator 1
    (MatrixQ([[2, 1, 0], [0, 2, 0], [0, 0, 3]]), (0, 0, 0), (1,)),
    # cyclic: e_1 generates under the companion matrix of t^4 - 2t + 3
    (None, (1, 0, 0, 0), (3, -2, 0, 0, 1)),
    # derogatory diag(2, 2, 3): minimal polynomial (t-2)(t-3), and t-2 on
    # the repeated eigenspace
    (MatrixQ([[2, 0, 0], [0, 2, 0], [0, 0, 3]]), (1, 1, 1), (6, -5, 1)),
    (MatrixQ([[2, 0, 0], [0, 2, 0], [0, 0, 3]]), (F(1, 2), -1, 0), (-2, 1)),
    # denominators: m = a/6, so coefficient k is divided by 6^(d-k); the
    # annihilator (t - 1/2)(t - 1/3)(t + 2/3) is t^3 - t^2/6 - 7t/18 + 1/9
    (MatrixQ([[F(1, 2), 1, 0], [0, F(1, 3), F(-1, 2)], [0, 0, F(-2, 3)]]), (0, 0, 1),
     (F(1, 9), F(-7, 18), F(-1, 6), 1)),
])
def test_vector_annihilator_is_the_krylov_dependency(m, v, expected):
    from liemd.exact import _krylov, _krylov_annihilator
    m = companion((3, -2, 0, 0, 1)) if m is None else m
    v = tuple(F(x) for x in v)
    den, flat = clear_denominators([x for row in m.data for x in row])
    a = [flat[i * m.cols:(i + 1) * m.cols] for i in range(m.rows)]
    w = clear_denominators(v)[1]
    rows = _krylov(a, w)
    ann = _krylov_annihilator(rows, den)
    assert ann == tuple(F(c) for c in expected)
    assert ann[-1] == 1
    assert all(x == 0 for x in poly_eval_matrix(ann, m).apply(v))
    powers = [tuple(F(x) for x in w)]
    for _ in range(m.rows):
        powers.append(m.apply(powers[-1]))
    assert len(ann) - 1 == len(oracle_rref(MatrixQ.from_columns(powers))[1])
    # the integer rows are a^j w = den^j m^j w
    assert rows == [[x * den ** j for x in p] for j, p in enumerate(powers)]


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------

def test_char_poly_identity():
    # (t-1)^4 = t^4 - 4t^3 + 6t^2 - 4t + 1, ascending coefficients
    assert char_poly(identity(4)) == (F(1), F(-4), F(6), F(-4), F(1))


def test_char_poly_diagonal():
    m = MatrixQ([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    # (t-2)(t-1)^3
    assert char_poly(m) == (F(2), F(-7), F(9), F(-5), F(1))


def test_char_poly_full_jordan_block():
    m = MatrixQ([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    assert char_poly(m) == (F(1), F(-4), F(6), F(-4), F(1))


def test_char_poly_rejects_non_square():
    with pytest.raises(ValueError):
        char_poly(MatrixQ([[1, 2, 3], [4, 5, 6]]))


def test_cayley_hamilton():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = MatrixQ([[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                     for _ in range(n)])
        assert poly_eval_matrix(char_poly(m), m).is_zero()


# ---------------------------------------------------------------------------
# Frobenius form
# ---------------------------------------------------------------------------

def test_frobenius_identity():
    factors, p = frobenius_form(identity(4))
    assert factors == [(F(-1), F(1))] * 4
    assert p @ identity(4) @ p.inverse() == identity(4)


def test_frobenius_diagonal_vs_companion():
    diag = MatrixQ([[1, 0], [0, 2]])
    comp = companion(poly_mul((F(-1), F(1)), (F(-2), F(1))))
    assert frobenius_form(diag)[0] == frobenius_form(comp)[0]
    assert similar(diag, comp)


def test_frobenius_separates_derogatory_from_cyclic():
    jordan = MatrixQ([[1, 1], [0, 1]])
    assert frobenius_form(jordan)[0] != frobenius_form(identity(2))[0]
    assert not similar(jordan, identity(2))


def test_frobenius_random_transform_and_divisibility():
    rng = random.Random(71)
    for trial in range(100):
        n = rng.randint(1, 5)
        if trial % 3 == 0:
            m = MatrixQ([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                         for _ in range(n)])
        else:
            m = MatrixQ([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        factors, p = frobenius_form(m)
        assert p @ m @ p.inverse() == frobenius_block_matrix(factors)
        for small, large in zip(factors, factors[1:]):
            assert poly_divides(small, large)
        product = (F(1),)
        for f in factors:
            product = poly_mul(product, f)
        assert poly_monic(product) == poly_monic(char_poly(m))


def _random_similarity(rng: random.Random, n: int) -> MatrixQ:
    while True:
        q = MatrixQ([[random_rational(rng) for _ in range(n)] for _ in range(n)])
        if mat_rank(q) == n:
            return q


def _frobenius_golden_cases(catalog_algebras):
    """(label, matrix) pairs: seeded 1x1-5x5 rational matrices; block
    diagonal matrices of Jordan and rotation blocks, most of them
    derogatory, as given and under two random rational similarities; zero and scalar matrices; every nonzero ad on G^1 of the
    samples, in their own basis and in three random ones."""
    rng = random.Random(83)
    for n in range(1, 6):
        for k in range(12):
            rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) if k % 2 else rng.randint(-3, 3)
                     for _ in range(n)] for _ in range(n)]
            yield f"random {n}x{n} #{k}", MatrixQ(rows)
    jordan = {
        "diag(1, 1, 2)": [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
        "diag(2, 2, 3, 3)": [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]],
        "diag(1, 1, 1, -2, -2)": [[int(i == j) * (1 if i < 3 else -2) for j in range(5)]
                                  for i in range(5)],
        "J2(1) + J1(1)": [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
        "J2(0) + J2(0)": [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
        "J3(2) + J1(2)": [[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
        "J2(1) + J2(1) + J1(1)": [[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 1, 0],
                                  [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
        "J3(0) + J2(0)": [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0],
                          [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]],
        "J2(3) + J1(3) + J2(-1)": [[3, 1, 0, 0, 0], [0, 3, 0, 0, 0], [0, 0, 3, 0, 0],
                                   [0, 0, 0, -1, 1], [0, 0, 0, 0, -1]],
        "rot + rot": [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        "rot + J1(1/2)": [[0, -1, 0], [1, 0, 0], [0, 0, F(1, 2)]],
    }
    for name, rows in jordan.items():
        m = MatrixQ(rows)
        yield name, m
        for k in range(2):
            q = _random_similarity(rng, m.rows)
            yield f"{name} similar #{k}", q @ m @ q.inverse()
    for n in range(1, 6):
        yield f"zero {n}x{n}", MatrixQ.zero(n)
        for c in (1, -2, F(3, 4)):
            yield f"scalar {c} {n}x{n}", identity(n).scale(c)
    for label, g in catalog_algebras:
        for b in range(4):
            h = g if b == 0 else g.change_of_basis(random_invertible(rng, 5))
            for i, m in enumerate(h.ad_on_derived()):
                if not m.is_zero():
                    yield f"{label} basis {b} ad {i}", m


def _frobenius_golden_text(cases) -> str:
    lines = []
    for label, m in cases:
        factors, p = frobenius_form(m)
        lines.append(json.dumps({"case": label,
                                 "factors": [format_vector(f) for f in factors],
                                 "p": [format_vector(row) for row in p.data]}))
    return "[\n" + ",\n".join(lines) + "\n]\n"


FROBENIUS_GOLDEN = Path(__file__).parent / "golden" / "frobenius_forms.json"


def test_frobenius_forms_match_golden(catalog_algebras):
    """Factors and P of every case, byte for byte as first recorded."""
    assert (_frobenius_golden_text(_frobenius_golden_cases(catalog_algebras))
            == FROBENIUS_GOLDEN.read_text(encoding="utf-8"))


def test_frobenius_forms_need_no_fraction_products_or_ranks(catalog_algebras, monkeypatch):
    """The decomposition runs on integer rows: with ``MatrixQ.apply`` and
    ``mat_rank`` refusing, every golden case is still reproduced."""
    cases = list(_frobenius_golden_cases(catalog_algebras))

    def untouched(*args):
        raise AssertionError("Fraction product or rank used")

    monkeypatch.setattr(MatrixQ, "apply", untouched)
    monkeypatch.setattr(exact, "mat_rank", untouched)
    assert _frobenius_golden_text(cases) == FROBENIUS_GOLDEN.read_text(encoding="utf-8")


def _derogatory_4x4() -> MatrixQ:
    # invariant factors t - 1/2 | t - 1/2 | (t - 1/2)(t - 1/3): three
    # levels, each complement block cleared over a new denominator
    return MatrixQ([[F(1, 2), 0, 0, 0], [0, F(1, 2), 0, 0],
                    [0, 0, F(1, 2), F(5, 7)], [0, 0, 0, F(1, 3)]])


def _thirty_digit_similar(m: MatrixQ) -> MatrixQ:
    rng = random.Random(89)

    def entry():
        return F(rng.choice([-1, 1]) * rng.randint(10 ** 29, 10 ** 30 - 1),
                 rng.randint(10 ** 29, 10 ** 30 - 1))

    q = MatrixQ([[entry() for _ in range(m.rows)] for _ in range(m.rows)])
    return q @ m @ q.inverse()


@pytest.mark.parametrize("make, expected", [
    (_derogatory_4x4, [(F(-1, 2), 1), (F(-1, 2), 1), (F(1, 6), F(-5, 6), 1)]),
    (lambda: _thirty_digit_similar(_derogatory_4x4()),
     [(F(-1, 2), 1), (F(-1, 2), 1), (F(1, 6), F(-5, 6), 1)]),
    (lambda: MatrixQ.zero(0), []),
], ids=["given", "30-digit similarity", "0x0"])
def test_frobenius_transform_across_complement_levels(make, expected):
    m = make()
    factors, p = frobenius_form(m)
    assert factors == expected
    assert (p.rows, p.cols) == (m.rows, m.cols)
    assert p @ m @ p.inverse() == frobenius_block_matrix(factors)
    for small, large in zip(factors, factors[1:]):
        assert poly_divides(small, large)


def test_broken_factor_chain_raises_in_optimized_mode():
    # python -O strips assert statements; the divisibility check on the
    # invariant factors must still raise
    code = "\n".join([
        "import sys",
        "from liemd import exact",
        "exact.poly_divides = lambda p, q: False",
        "try:",
        "    exact.frobenius_form(exact.MatrixQ([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))",
        "    print(sys.flags.optimize, 'accepted')",
        "except AssertionError as exc:",
        "    print(sys.flags.optimize, 'raised:', exc)",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.startswith("1 raised: invariant factor chain broken"), done.stdout


def test_scaled_invariant_factors_identity():
    from liemd.exact import scaled_frobenius, scaled_invariant_factors
    rng = random.Random(73)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = MatrixQ([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        c = F(rng.choice([1, 2, -1, -2, 3]), rng.choice([1, 2, 3]))
        direct = tuple(tuple(f) for f in frobenius_form(m.scale(c))[0])
        derived = scaled_invariant_factors(
            [tuple(f) for f in frobenius_form(m)[0]], c)
        assert direct == derived
        assert frobenius_form(m.scale(c)) == scaled_frobenius(*frobenius_form(m), c)


def test_scaled_frobenius_matches_direct_decomposition(catalog_algebras):
    from liemd.exact import scaled_frobenius
    mats = [m for _, g in catalog_algebras for m in g.ad_on_derived()
            if not m.is_zero()]
    mats += [
        MatrixQ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]),
        MatrixQ([[3, 1, 0, 0], [0, 3, 1, 0], [0, 0, 3, 1], [0, 0, 0, 3]]),
        identity(3).scale(2),
    ]
    for m in mats:
        form = frobenius_form(m)
        for c in (F(2), F(-3, 7), F(-1)):
            assert frobenius_form(m.scale(c)) == scaled_frobenius(*form, c), (m, c)
    with pytest.raises(ValueError, match="nonzero"):
        scaled_frobenius(*frobenius_form(mats[0]), 0)


# ---------------------------------------------------------------------------
# Pfaffian
# ---------------------------------------------------------------------------

def test_pfaffian_zero():
    assert pfaffian4(0, 0, 0, 0, 0, 0) == 0


def test_pfaffian_symplectic():
    assert pfaffian4(1, 0, 0, 0, 0, 1) == 1
    assert det_perm(skew4_from_upper(F(1), F(0), F(0), F(0), F(0), F(1))) == 1


def test_pfaffian_squared_is_determinant():
    rng = random.Random(41)
    for _ in range(200):
        vals = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)]
        assert pfaffian4(*vals) ** 2 == det_perm(skew4_from_upper(*vals))


def test_pfaffian_vanishes_on_bordered_slices():
    # nonzero entries confined to one row/column pair: every product term
    # in the Pfaffian contains an identically-zero factor
    rng = random.Random(43)
    for _ in range(50):
        b12, b13, b14 = (F(rng.randint(-5, 5)) for _ in range(3))
        assert pfaffian4(b12, b13, b14, F(0), F(0), F(0)) == 0


# ---------------------------------------------------------------------------
# unit circle points
# ---------------------------------------------------------------------------

def test_unit_point_accepts_pythagorean():
    p = UnitPoint(F(3, 5), F(4, 5))
    assert p.c ** 2 + p.s ** 2 == 1
    UnitPoint(F(-3, 5), F(4, 5))
    UnitPoint(F(0), F(1))


@pytest.mark.parametrize("c,s", [
    (F(1, 2), F(1, 2)),
    (F(3, 5), F(-4, 5)),
    (F(1), F(0)),
    (F(2), F(1)),
])
def test_unit_point_rejects_bad_points(c, s):
    with pytest.raises(ValueError):
        UnitPoint(c, s)


# ---------------------------------------------------------------------------
# rational roots
# ---------------------------------------------------------------------------

def test_rational_kth_roots():
    assert rational_kth_roots(F(4), 2) == [F(2), F(-2)]
    assert rational_kth_roots(F(-8, 27), 3) == [F(-2, 3)]
    assert rational_kth_roots(F(2), 2) == []
    assert rational_kth_roots(F(-4), 2) == []
    assert rational_kth_roots(F(1, 4), 2) == [F(1, 2), F(-1, 2)]
    assert rational_kth_roots(F(0), 3) == [F(0)]
