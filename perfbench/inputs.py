"""Seeded inputs and an independent rational toolkit for the benchmark.

Everything here is plain ``fractions.Fraction`` arithmetic that shares no
code with ``liemd``: the benchmark builds its basis changes with it and
re-verifies the program's answers (witness ranks, isomorphism witnesses)
with it, so a defect in ``liemd.exact`` cannot hide itself.

An algebra is a bracket table ``{(i, j): (c_1, ..., c_n)}`` with 0-based
``i < j``, the coefficient vector of ``[X_i, X_j]``; documents use the
``liemd`` file format (1-based indices, exact ``"p/q"`` coefficients).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

DIM = 5
# integers of this size or more do not fit the int64 fast path of the grid
# rank engine; the large-coefficient input must exceed even int64 itself
INT64_MAX = 2 ** 63 - 1

# aff(C) + R: MD with orbit dimensions 0 and 4, undecided by the exact
# rules of the parent program
AFF_C_PLUS_R = {(0, 2): (0, 0, 1, 0, 0), (0, 3): (0, 0, 0, 1, 0),
                (1, 2): (0, 0, 0, -1, 0), (1, 3): (0, 0, 1, 0, 0)}


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

def table_of(doc: dict) -> dict:
    n = doc["dim"]
    table = {}
    for item in doc["brackets"]:
        vec = [Fraction(0)] * n
        for k, c in item["coeffs"].items():
            vec[int(k) - 1] = Fraction(c)
        if any(vec):
            table[(item["i"] - 1, item["j"] - 1)] = tuple(vec)
    return table


def _fmt(q: Fraction):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def doc_of(table: dict, n: int = DIM) -> dict:
    brackets = []
    for (i, j) in sorted(table):
        coeffs = {str(k + 1): _fmt(Fraction(c)) for k, c in enumerate(table[(i, j)]) if c}
        if coeffs:
            brackets.append({"i": i + 1, "j": j + 1, "coeffs": coeffs})
    return {"dim": n, "basis": [f"X{k + 1}" for k in range(n)], "brackets": brackets}


# ---------------------------------------------------------------------------
# linear algebra over Q
# ---------------------------------------------------------------------------

def rank(rows) -> int:
    """Rank by Gaussian elimination with exact division (the rank oracle)."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def inverse(p):
    n = len(p)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(p)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        m[c], m[pivot] = m[pivot], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [row[n:] for row in m]


def bracket(table: dict, u, v, n: int = DIM):
    out = [Fraction(0)] * n
    for (i, j), coeffs in table.items():
        factor = u[i] * v[j] - u[j] * v[i]
        if factor:
            for k, c in enumerate(coeffs):
                out[k] += factor * c
    return out


def change_of_basis(table: dict, p, n: int = DIM) -> dict:
    """Structure constants in the basis given by the columns of ``p``."""
    p_inv = inverse(p)
    cols = [[Fraction(p[r][c]) for r in range(n)] for c in range(n)]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = bracket(table, cols[i], cols[j], n)
            vec = tuple(sum(p_inv[k][r] * w[r] for r in range(n)) for k in range(n))
            if any(vec):
                out[(i, j)] = vec
    return out


def kirillov_matrix(table: dict, f, n: int = DIM):
    """b_ij = <F, [X_j, X_i]>, the convention of the ``liemd`` output."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), coeffs in table.items():
        value = sum(Fraction(c) * Fraction(x) for c, x in zip(coeffs, f))
        m[i][j] = -value
        m[j][i] = value
    return m


def orbit_dim(table: dict, f) -> int:
    return rank(kirillov_matrix(table, f))


def is_codim1_commutative(table: dict, n: int = DIM) -> bool:
    """dim [g, g] = n - 1 and [g, g] is abelian."""
    derived = [v for v in table.values() if any(v)]
    if rank(derived) != n - 1:
        return False
    return all(not any(bracket(table, u, v, n)) for u in derived for v in derived)


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------

def random_invertible(rng: random.Random, n: int = DIM, span: int = 2):
    while True:
        m = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        if rank(m) == n:
            return m


def _small_unimodular(rng: random.Random, n: int = DIM, span: int = 1, bound: int = 3):
    """A dense integer matrix whose inverse is integral with entries <= bound."""
    while True:
        m = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        if rank(m) < n:
            continue
        inv = inverse(m)
        if all(x.denominator == 1 and abs(x) <= bound for row in inv for x in row):
            return m, inv


def wide_presentation(base: dict, rng: random.Random) -> dict:
    """A dense basis change of ``rejected.5.2.3`` with coefficients beyond int64.

    The new basis is Q D: Q a seeded dense unimodular matrix with small
    entries, D scaling two seeded columns by integers of 32 to 33 bits, so
    brackets of the two scaled vectors pick up coefficients above 2^64;
    draws repeat until some coefficient exceeds int64.
    ``base`` must have rank 2 exactly where one of f4, f5 vanishes (as
    rejected.5.2.3 does).  Old coordinates are f_k = F' . (column k of
    (Q D)^-1), so on covectors supported on the unscaled coordinates f4
    and f5 are small integer forms; the radius-4 grid then meets both
    rank strata and the verdict stays a checkable NotMD.
    """
    while True:
        q, q_inv = _small_unimodular(rng)
        scaled = rng.sample(range(DIM), 2)
        free = [j for j in range(DIM) if j not in scaled]
        box = itertools.product(range(-4, 5), repeat=len(free))
        if not any(sum(x * q_inv[j][3] for x, j in zip(point, free)) == 0
                   and sum(x * q_inv[j][4] for x, j in zip(point, free)) != 0
                   for point in box):
            continue
        d = [rng.randrange(2 ** 32, 2 ** 33) if j in scaled else 1 for j in range(DIM)]
        moved = change_of_basis(base, [[q[i][j] * d[j] for j in range(DIM)]
                                       for i in range(DIM)])
        if peak_coefficient(moved) > INT64_MAX:
            return moved


def peak_coefficient(table: dict) -> Fraction:
    return max(abs(c) for vec in table.values() for c in vec)


def presentations(samples: list, seed: int, per_sample: int) -> list:
    """``per_sample`` seeded basis changes of each (label, table) sample.

    Entries of each change are drawn from [-2, 2]; the result lists
    (sample index, document) in sample-major order.
    """
    rng = random.Random(seed)
    out = []
    for index, (_, table) in enumerate(samples):
        for _ in range(per_sample):
            out.append((index, doc_of(change_of_basis(table, random_invertible(rng)))))
    return out
