"""Exact rational linear algebra kernels.

Everything in this module is exact: scalars are arbitrary-precision
rationals (``fractions.Fraction``) or Python integers, and one
fraction-free elimination on integer rows, ``rref_int``, is the only row
reduction.  ``MatrixQ.rref`` clears its rows and runs it, so ranks,
kernels, solves, inverses and Krylov annihilators all go through it, and
``lie_core.Subspace`` keeps its primitive integer rows without building a
``Fraction``.  Similarity classes are decided through the rational
(Frobenius) canonical form.  No floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence, Union

Rational = Fraction
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

    def nullspace(self) -> list[tuple[Fraction, ...]]:
        """Basis of the right kernel, one vector per free column, 1 there."""
        den, basis = nullspace_int([clear_denominators(row)[1] for row in self.data], self.cols)
        return [tuple(Fraction(x, den) for x in vec) for vec in basis]

    def solve(self, rhs: Sequence[Scalar]) -> tuple[Fraction, ...] | None:
        """One exact solution of self @ x = rhs, or None if inconsistent."""
        if len(rhs) != self.rows:
            raise ValueError("rhs length mismatch")
        aug = MatrixQ([list(row) + [Fraction(b)] for row, b in zip(self.data, rhs)])
        red, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [ZERO] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = red.data[r][self.cols]
        return tuple(x)

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
    """(d, vectors): d > 0 times the kernel basis of ``MatrixQ.nullspace``,
    in integers; the rows of m are overwritten."""
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

def _krylov(m: MatrixQ, v: Sequence[Fraction]) -> list[tuple[Fraction, ...]]:
    """v, mv, ..., m^n v for the n x n matrix m."""
    krylov = [tuple(v)]
    for _ in range(m.rows):
        krylov.append(m.apply(krylov[-1]))
    return krylov


def _vector_annihilator(m: MatrixQ, v: Sequence[Fraction]):
    """Monic minimal polynomial of v under m, with the Krylov chain.

    One ``rref`` of the Krylov matrix with columns v, mv, ..., m^n v: once
    m^d v depends on its predecessors so do all later powers, so the pivots
    are the first d columns, and column d expresses m^d v in the chain.
    """
    krylov = _krylov(m, v)
    red, pivots = MatrixQ.from_columns(krylov).rref()
    d = len(pivots)
    return tuple(-red.data[j][d] for j in range(d)) + (ONE,), krylov[:d]


def _maximal_vector(m: MatrixQ):
    """Annihilator and Krylov chain of a vector whose annihilator is the
    minimal polynomial of m.

    Greedy combination over the standard basis, starting from v = e_0.
    Every degree is a Krylov rank: deg ann(v) is the rank of the rows m^j v,
    and deg lcm(ann v, ann e) that of the rows (m^j v | m^j e), j = 0..n,
    since the polynomials killing both vectors form the ideal of the lcm.
    e_i is skipped when it does not raise that degree.  Otherwise
    v + c*e, whose rows m^j v + c*m^j e come from those already computed,
    replaces v at the first c >= 1 that reaches it: the degree drops below
    the lcm only on finitely many c (at most one per maximal divisor), and
    c = 0 never raises it.  A cyclic e_0 costs one Krylov run.
    """
    n = m.rows
    rows = _krylov(m, tuple(ONE if j == 0 else ZERO for j in range(n)))
    deg = mat_rank(MatrixQ(rows))
    for i in range(1, n):
        if deg == n:
            break
        rows_e = _krylov(m, tuple(ONE if j == i else ZERO for j in range(n)))
        joint = mat_rank(MatrixQ([a + b for a, b in zip(rows, rows_e)]))
        if joint == deg:
            continue
        for c in range(1, n + 3):
            cand = [tuple(x + c * y for x, y in zip(a, b)) for a, b in zip(rows, rows_e)]
            if mat_rank(MatrixQ(cand)) == joint:
                rows, deg = cand, joint
                break
        else:
            raise AssertionError("maximal vector mixing scan failed")
    return _vector_annihilator(m, rows[0])


def _invariant_complement(m: MatrixQ, chain: list[tuple[Fraction, ...]]):
    """m-invariant complement of the cyclic subspace spanned by `chain`.

    Pick a functional f with f(m^j v) = delta(j, d-1); the largest
    m-invariant subspace inside ker f, the kernel of the rows (m^T)^j f,
    intersects the cyclic space trivially and has the complementary
    dimension.
    """
    d = len(chain)
    rhs = [ZERO] * d
    rhs[d - 1] = ONE
    f = MatrixQ(chain).solve(rhs)  # rows of MatrixQ(chain) are m^j v
    if f is None:
        raise AssertionError("Krylov chain is not independent")
    basis = MatrixQ(_krylov(m.transpose(), f)).nullspace()
    if len(basis) != m.rows - d:
        raise AssertionError("complement has the wrong dimension")
    return basis


def frobenius_form(m: MatrixQ):
    """Invariant factors f1 | f2 | ... | fk and a transform P.

    P is invertible and P @ M @ P^-1 is block diagonal with the companion
    matrices of the invariant factors, in the order of the returned list.
    Two square matrices over Q are similar iff these lists coincide.

    The largest factor comes from one Krylov chain of a maximal vector
    (``_maximal_vector``), the next from the same procedure on an invariant
    complement, and so on; the columns of P^-1 are the chains.  Every
    choice made depends only on annihilator degrees, which is why
    ``scaled_frobenius`` can derive the form of c*M from this one.
    """
    if not m.is_square():
        raise ValueError("Frobenius form of non-square matrix")
    factors, chains = [], []
    # rows of `basis`: the current complement in the original coordinates
    # (None for the whole space)
    mat, basis = m, None
    while mat.rows:
        ann, chain = _maximal_vector(mat)
        factors.append(ann)
        chains.append(MatrixQ(chain) if basis is None else MatrixQ(chain) @ basis)
        if len(chain) == mat.rows:
            break
        comp = _invariant_complement(mat, chain)
        k = len(comp)
        # one rref of [comp | images] gives every image's coordinates over
        # comp, and a pivot past column k an image outside its span
        red, pivots = MatrixQ.from_columns(comp + [mat.apply(w) for w in comp]).rref()
        if pivots != tuple(range(k)):
            raise AssertionError("complement is not invariant")
        mat = MatrixQ([row[k:] for row in red.data[:k]])
        basis = MatrixQ(comp) if basis is None else MatrixQ(comp) @ basis

    factors.reverse()
    chains.reverse()
    for small, large in zip(factors, factors[1:]):
        if not poly_divides(small, large):
            raise AssertionError("invariant factor chain broken")
    p = MatrixQ.from_columns([vec for chain in chains for vec in chain.data]).inverse()
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
