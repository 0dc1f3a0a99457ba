"""Exact rational linear algebra kernels.

Everything in this module is exact: scalars are arbitrary-precision
rationals (``fractions.Fraction``) or Python integers, and one
fraction-free elimination on integer rows, ``rref_int``, is the only row
reduction.  Ranks, kernels (``nullspace_int``) and inverses go through
it, ``MatrixQ.rref`` by clearing its rows first, and
``lie_core.Subspace`` keeps its primitive integer rows without building a
``Fraction``.  Similarity classes are decided through the rational
(Frobenius) canonical form, whose Krylov rows, annihilators and
invariant complements are integer rows passed straight to ``rref_int``.
No floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence, Union

Scalar = Union[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# rational parsing / formatting ("p/q" strings, bare integers when q == 1)
# ---------------------------------------------------------------------------

def parse_rational(value) -> Fraction:
    """Parse an int, an integer string, or a "p/q" string into a Fraction."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def format_rational(q: Scalar):
    """Render a rational for JSON: a bare int when q == 1, else "p/q"."""
    q = Fraction(q)
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def parse_vector(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(parse_rational(v) for v in values)


def format_vector(vec: Sequence[Scalar]) -> list:
    return [format_rational(x) for x in vec]


# ---------------------------------------------------------------------------
# exact points on the unit circle (rotation parameters)
# ---------------------------------------------------------------------------

class _UnitPoint(NamedTuple):
    c: Fraction
    s: Fraction


class UnitPoint(_UnitPoint):
    """A rational point (c, s) with c**2 + s**2 == 1 and s > 0.

    Encodes an angle in the open interval (0, pi) without leaving exact
    arithmetic; (3/5, 4/5) is the smallest Pythagorean example.
    """

    __slots__ = ()

    def __new__(cls, c, s):
        c, s = Fraction(c), Fraction(s)
        if c * c + s * s != 1:
            raise ValueError(f"({c}, {s}) is not on the unit circle")
        if s <= 0:
            raise ValueError(f"sine component must be positive, got {s}")
        return super().__new__(cls, c, s)


# ---------------------------------------------------------------------------
# dense rational matrices
# ---------------------------------------------------------------------------

def clear_denominators(values: Sequence[Scalar]) -> tuple[int, list[int]]:
    """(d, [d*x for x in values]) for the least d > 0 that makes them integers."""
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


class MatrixQ:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[Scalar]], cols: int = 0):
        rows = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row)
                     for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = cols  # the width of a matrix with no rows
        self.rows = len(rows)
        self.cols = width
        self.data = rows

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int | None = None) -> "MatrixQ":
        cols = rows if cols is None else cols
        return MatrixQ([[ZERO] * cols for _ in range(rows)], cols)

    @staticmethod
    def from_columns(columns: Sequence[Sequence[Scalar]]) -> "MatrixQ":
        if not columns:
            return MatrixQ.zero(0)
        n = len(columns[0])
        return MatrixQ([[columns[j][i] for j in range(len(columns))] for i in range(n)],
                       len(columns))

    # -- basics --------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, MatrixQ) and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"MatrixQ[{body}]"

    def __getitem__(self, pair):
        i, j = pair
        return self.data[i][j]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.data)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "MatrixQ":
        return MatrixQ([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
                       self.rows)

    def scale(self, factor: Scalar) -> "MatrixQ":
        f = Fraction(factor)
        return MatrixQ([[f * x for x in row] for row in self.data], self.cols)

    def __matmul__(self, other: "MatrixQ") -> "MatrixQ":
        """Integer dot products of cleared rows and columns, one Fraction per entry."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = [clear_denominators(other.column(j)) for j in range(other.cols)]
        return MatrixQ([[Fraction(sum(map(mul, row, col)), d_row * d_col) for d_col, col in cols]
                        for d_row, row in map(clear_denominators, self.data)], other.cols)

    def apply(self, vec: Sequence[Scalar]) -> tuple[Fraction, ...]:
        """self @ vec, fraction-free like ``__matmul__``."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        d_vec, v = clear_denominators(vec)
        return tuple(Fraction(sum(map(mul, row, v)), d_row * d_vec)
                     for d_row, row in map(clear_denominators, self.data))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple["MatrixQ", tuple[int, ...]]:
        """Reduced row-echelon form and the pivot column indices: ``rref_int``
        on the rows cleared to integers, each pivot row divided by its pivot.
        Scaling a row never changes the reduced form, so the result is exact.
        """
        rows, pivots = rref_int([clear_denominators(row)[1] for row in self.data], self.cols)
        out = [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)]
        out += [[ZERO] * self.cols for _ in range(self.rows - len(pivots))]
        return MatrixQ(out, self.cols), pivots

    def inverse(self) -> "MatrixQ":
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        aug = MatrixQ([list(row) + [ONE if i == j else ZERO for j in range(n)]
                       for i, row in enumerate(self.data)])
        red, pivots = aug.rref()
        if pivots[:n] != tuple(range(n)):
            raise ValueError("matrix is singular")
        return MatrixQ([row[n:] for row in red.data])


def rref_int(m: list[list[int]], cols: int) -> tuple[list[list[int]], tuple[int, ...]]:
    """Fraction-free Gauss-Jordan on integer rows, which it overwrites.

    A pivot row r eliminates column c from row i by the two-term update
    a*row_i - b*row_r followed by division by the row's content.  Returns
    the pivot rows, each the reduced row-echelon row scaled to coprime
    integers with a positive pivot, and the pivot column indices.
    """
    pivots = []
    r = 0
    for c in range(cols):
        if r == len(m):
            break
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                g = gcd(m[r][c], m[i][c])
                a, b = m[r][c] // g, m[i][c] // g
                row = [a * x - b * y for x, y in zip(m[i], m[r])]
                content = gcd(*row)
                m[i] = [x // content for x in row] if content > 1 else row
        pivots.append(c)
        r += 1
    out = []
    for row, c in zip(m, pivots):
        content = gcd(*row) if row[c] > 0 else -gcd(*row)
        out.append([x // content for x in row] if content != 1 else row)
    return out, tuple(pivots)


def nullspace_int(m: list[list[int]], cols: int) -> tuple[int, list[list[int]]]:
    """(d, vectors): the right kernel of m, one vector per free column,
    d > 0 there, all in integers; the rows of m are overwritten."""
    rows, pivots = rref_int(m, cols)
    den = lcm(*(row[c] for row, c in zip(rows, pivots)))
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [0] * cols
        vec[fc] = den
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc] * (den // row[pc])
        basis.append(vec)
    return den, basis


def mat_rank(m: MatrixQ) -> int:
    """Exact rank: the number of pivots of ``rref_int`` on the cleared rows."""
    return len(rref_int([clear_denominators(row)[1] for row in m.data], m.cols)[1])


# ---------------------------------------------------------------------------
# univariate polynomials over Q (coefficient tuples, ascending degree)
# ---------------------------------------------------------------------------

def poly_trim(p: Sequence[Scalar]) -> tuple[Fraction, ...]:
    coeffs = [Fraction(c) for c in p]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_degree(p: Sequence[Fraction]) -> int:
    return len(poly_trim(p)) - 1


def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> tuple[Fraction, ...]:
    p, q = poly_trim(p), poly_trim(q)
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def poly_divmod(p: Sequence[Fraction], q: Sequence[Fraction]):
    p, q = list(poly_trim(p)), poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [ZERO] * max(0, len(p) - len(q) + 1)
    while len(p) >= len(q):
        factor = p[-1] / q[-1]
        shift = len(p) - len(q)
        quot[shift] = factor
        for i, c in enumerate(q):
            p[shift + i] -= factor * c
        while p and p[-1] == 0:
            p.pop()
    return poly_trim(quot), poly_trim(p)


def poly_divides(p: Sequence[Fraction], q: Sequence[Fraction]) -> bool:
    """True when p divides q exactly."""
    return not poly_divmod(q, p)[1]


def poly_scale_argument(p: Sequence[Fraction], c: Scalar) -> tuple[Fraction, ...]:
    """Monic image of p under t -> t/c, i.e. c**deg(p) * p(t/c).

    If p is an invariant factor of M, this is the matching invariant
    factor of c*M: coefficient k picks up a factor c**(deg - k).
    """
    p = poly_trim(p)
    c = Fraction(c)
    if c == 0:
        raise ValueError("scale factor must be nonzero")
    d = len(p) - 1
    return tuple(a * c ** (d - k) for k, a in enumerate(p))


def scaled_invariant_factors(factors: Sequence[Sequence[Fraction]],
                             c: Scalar) -> tuple[tuple[Fraction, ...], ...]:
    """Invariant factors of c*M from those of M."""
    return tuple(poly_scale_argument(f, c) for f in factors)


# ---------------------------------------------------------------------------
# Frobenius (rational canonical) form
# ---------------------------------------------------------------------------

def _krylov(a: list[list[int]], v: list[int]) -> list[list[int]]:
    """v, av, ..., a^n v for the n x n integer matrix a."""
    krylov = [v]
    for _ in a:
        krylov.append([sum(map(mul, row, krylov[-1])) for row in a])
    return krylov


def _krylov_annihilator(rows: list[list[int]], den: int) -> tuple[Fraction, ...]:
    """Monic minimal polynomial of v under m = a/den, from the rows a^j v.

    One ``rref_int`` of the matrix with columns a^j v: the pivots are the
    first d columns, and pivot row k (p_k at column k, a_k at column d)
    gives a^d v = sum (a_k/p_k) a^k v.  As a^j v = den^j m^j v,
    coefficient k of the annihilator is -a_k / (p_k den^(d-k)).
    """
    red, pivots = rref_int(list(zip(*rows)), len(rows))
    d = len(pivots)
    return tuple(Fraction(-row[d], row[k] * den ** (d - k))
                 for row, k in zip(red, pivots)) + (ONE,)


def _maximal_vector(a: list[list[int]], den: int):
    """Annihilator and integer Krylov chain of a vector whose annihilator
    is the minimal polynomial of m = a/den.

    Greedy combination over the standard basis, starting from v = e_0.
    Every degree is a Krylov rank, the same for a as for m: deg ann(v) is
    the rank of the rows a^j v, and deg lcm(ann v, ann e) that of the rows
    (a^j v | a^j e), j = 0..n, since the polynomials killing both vectors
    form the ideal of the lcm.
    e_i is skipped when it does not raise that degree.  Otherwise
    v + c*e, whose rows a^j v + c*a^j e come from those already computed,
    replaces v at the first c >= 1 that reaches it: the degree drops below
    the lcm only on finitely many c (at most one per maximal divisor), and
    c = 0 never raises it.  A cyclic e_0 costs one Krylov run.
    """
    n = len(a)
    rows = _krylov(a, [int(j == 0) for j in range(n)])
    deg = len(rref_int(list(rows), n)[1])
    for i in range(1, n):
        if deg == n:
            break
        rows_e = _krylov(a, [int(j == i) for j in range(n)])
        joint = len(rref_int([r + e for r, e in zip(rows, rows_e)], 2 * n)[1])
        if joint == deg:
            continue
        for c in range(1, n + 3):
            cand = [[x + c * y for x, y in zip(r, e)] for r, e in zip(rows, rows_e)]
            if len(rref_int(list(cand), n)[1]) == joint:
                rows, deg = cand, joint
                break
        else:
            raise AssertionError("maximal vector mixing scan failed")
    return _krylov_annihilator(rows[:deg + 1], den), rows[:deg]


def _invariant_complement(a: list[list[int]], chain: list[list[int]]):
    """(den, vectors): den times a basis of an a-invariant complement of
    the cyclic subspace spanned by `chain`, in integers.

    Pick a functional f with f(a^j v) = delta(j, d-1); the largest
    a-invariant subspace inside ker f, the kernel of the rows (a^T)^j f,
    intersects the cyclic space trivially and has the complementary
    dimension.  Scaling the rows of a system leaves its reduced form, so
    f and the kernel basis are those of m = a/den up to scale.  f is the
    kernel vector of [chain | -e_(d-1)] free at its last column.
    """
    n, d = len(a), len(chain)
    sols = nullspace_int([w + [-int(j == d - 1)] for j, w in enumerate(chain)], n + 1)[1]
    if not sols or not sols[-1][n]:
        raise AssertionError("Krylov chain is not independent")
    den, basis = nullspace_int(_krylov(list(zip(*a)), sols[-1][:n]), n)
    if len(basis) != n - d:
        raise AssertionError("complement has the wrong dimension")
    return den, basis


def frobenius_form(m: MatrixQ):
    """Invariant factors f1 | f2 | ... | fk and a transform P.

    P is invertible and P @ M @ P^-1 is block diagonal with the companion
    matrices of the invariant factors, in the order of the returned list.
    Two square matrices over Q are similar iff these lists coincide.

    The largest factor comes from one Krylov chain of a maximal vector
    (``_maximal_vector``), the next from the same procedure on an invariant
    complement, and so on; the columns of P^-1 are the chains.  Each level
    runs on its block cleared to a/den, whose Krylov rows are
    a^j v = den^j m^j v; ``Fraction``s are built only for the chains, the
    complement bases and the factors.  Every choice made depends only on
    annihilator degrees, which is why ``scaled_frobenius`` can derive the
    form of c*M from this one.
    """
    if not m.is_square():
        raise ValueError("Frobenius form of non-square matrix")
    n = m.rows
    den, flat = clear_denominators([x for row in m.data for x in row])
    a = [flat[i * n:(i + 1) * n] for i in range(n)]
    factors, chains = [], []
    # rows of `basis`: the current complement in the original coordinates
    # (None for the whole space)
    basis = None
    while a:
        ann, chain = _maximal_vector(a, den)
        factors.append(ann)
        vecs = MatrixQ([[Fraction(x, den ** j) for x in w] for j, w in enumerate(chain)])
        chains.append(vecs if basis is None else vecs @ basis)
        if len(chain) == len(a):
            break
        comp_den, comp = _invariant_complement(a, chain)
        k = len(comp)
        # one rref of [comp | a comp] gives every image's coordinates over
        # comp, den times those of m, and a pivot past column k an image
        # outside its span
        images = [[sum(map(mul, row, w)) for row in a] for w in comp]
        red, pivots = rref_int(list(zip(*comp, *images)), 2 * k)
        if pivots != tuple(range(k)):
            raise AssertionError("complement is not invariant")
        # block row r is red[r][k:] / (p_r * den); clear it over its own lcm
        block = [(row[k:], row[r] * den) for r, row in enumerate(red)]
        den = lcm(*(q // gcd(q, *row) for row, q in block))
        a = [[x * den // q for x in row] for row, q in block]
        vecs = MatrixQ([[Fraction(x, comp_den) for x in w] for w in comp])
        basis = vecs if basis is None else vecs @ basis

    factors.reverse()
    chains.reverse()
    for small, large in zip(factors, factors[1:]):
        if not poly_divides(small, large):
            raise AssertionError("invariant factor chain broken")
    p = MatrixQ([vec for chain in chains for vec in chain.data], n).transpose().inverse()
    return factors, p


def scaled_frobenius(factors: Sequence[Sequence[Fraction]], p: MatrixQ, c: Scalar):
    """``frobenius_form(c * M)`` from ``(factors, p) = frobenius_form(M)``.

    For c != 0, c*M has the same annihilator degrees as M, so the
    decomposition makes the same choices: the j-th vector of each Krylov
    chain is multiplied by c**j and every invariant complement is
    unchanged.  Hence the factors are ``scaled_invariant_factors`` and row
    j of each companion block of P is divided by c**j; the result equals
    a direct decomposition exactly.
    """
    c = Fraction(c)
    if c == 0:
        raise ValueError("scale factor must be nonzero")
    rows = []
    for f in factors:
        for j in range(poly_degree(f)):
            rows.append([x / c ** j for x in p.data[len(rows)]])
    return list(scaled_invariant_factors(factors, c)), MatrixQ(rows)


# ---------------------------------------------------------------------------
# rational k-th roots (exact)
# ---------------------------------------------------------------------------

def _int_kth_root(value: int, k: int) -> int | None:
    """Exact non-negative integer k-th root, or None."""
    if value < 0:
        return None
    if value in (0, 1):
        return value
    lo, hi = 0, 1
    while hi ** k < value:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** k < value:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** k == value else None


def rational_kth_roots(q: Scalar, k: int) -> list[Fraction]:
    """All rational solutions c of c**k == q."""
    q = Fraction(q)
    if k <= 0:
        raise ValueError("root order must be positive")
    if q == 0:
        return [ZERO]
    negative = q < 0
    if negative and k % 2 == 0:
        return []
    num = _int_kth_root(abs(q.numerator), k)
    den = _int_kth_root(q.denominator, k)
    if num is None or den is None:
        return []
    root = Fraction(num, den)
    if negative:
        return [-root]
    return [root, -root] if k % 2 == 0 else [root]


# ---------------------------------------------------------------------------
# Pfaffian of a 4x4 skew matrix
# ---------------------------------------------------------------------------

def pfaffian4(b12, b13, b14, b23, b24, b34):
    """Pfaffian from the strict upper triangle of a 4x4 skew matrix.

    The entries are numbers, integers or ``Fraction``s; its square is the
    determinant of the skew matrix, so a skew 4x4 is singular iff this
    expression vanishes.
    """
    return b12 * b34 - b13 * b24 + b14 * b23
