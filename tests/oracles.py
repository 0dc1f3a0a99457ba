"""Independent oracles for the test suite.

Deliberately naive implementations that share no code with the library:
permutation-expansion determinants, rank by exhaustive minor enumeration,
matrix products by the triple loop, reduced row-echelon form (hence kernel
dimension) by plain Gaussian elimination with division, brackets, the
Jacobi identity and basis changes expanded from ``g.brackets`` over
``Fraction``s, subspaces as ``rref`` rows of ``Fraction``s (spans,
kernels, coordinates by solving, intersections, and from them the series,
centralizers and ad on an invariant subspace), the covector grid
enumerated point by point as ``Fraction``s, polynomial and form values
term by term, Pfaffians by expansion along a row, primality by trial division, and the grid points that vanish on
G^1 by solving for their pivot coordinates.  They exist so that every
certified answer is checked along a second route.  The helpers at the end
are the exception: they are built on the library's ``MatrixQ``,
``frobenius_form`` and ``b_form_at``, and tests use them to state
identities (Cayley-Hamilton, Frobenius blocks, similarity), to take the
sub-Pfaffians of the form at a covector and to rank a grid covector by
covector.
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import gcd, isqrt, lcm

from liemd.exact import MatrixQ, frobenius_form, mat_rank, poly_degree, poly_trim
from liemd.kirillov import b_form_at


def _rows_of(m):
    data = getattr(m, "data", m)
    return [[Fraction(x) for x in row] for row in data]


def det_perm(rows) -> Fraction:
    """Determinant by signed permutation expansion."""
    a = _rows_of(rows)
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= a[i][perm[i]]
            if term == 0:
                break
        total += sign * term
    return total


def minor_rank(rows) -> int:
    """Largest k admitting a nonzero k x k minor."""
    a = _rows_of(rows)
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    rank = 0
    for size in range(1, min(n_rows, n_cols) + 1):
        found = False
        for ri in combinations(range(n_rows), size):
            for ci in combinations(range(n_cols), size):
                sub = [[a[i][j] for j in ci] for i in ri]
                if det_perm(sub) != 0:
                    found = True
                    break
            if found:
                break
        if not found:
            break
        rank = size
    return rank


def rref(rows):
    """Reduced row-echelon rows and pivot columns, by textbook Gauss-Jordan
    with division."""
    a = _rows_of(rows)
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    pivots = []
    for col in range(n_cols):
        pivot_row = len(pivots)
        if pivot_row == n_rows:
            break
        target = None
        for r in range(pivot_row, n_rows):
            if a[r][col] != 0:
                target = r
                break
        if target is None:
            continue
        a[pivot_row], a[target] = a[target], a[pivot_row]
        lead = a[pivot_row][col]
        a[pivot_row] = [x / lead for x in a[pivot_row]]
        for r in range(n_rows):
            if r != pivot_row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[pivot_row])]
        pivots.append(col)
    return a, tuple(pivots)


def kernel_dim(rows) -> int:
    """Dimension of the right kernel: free columns of the ``rref`` oracle."""
    a = _rows_of(rows)
    if not a:
        return 0
    return len(a[0]) - len(rref(a)[1])


def solve_is_zero_vector(rows, vec) -> bool:
    """Whether vec lies in the kernel of the matrix (exact check)."""
    a = _rows_of(rows)
    v = [Fraction(x) for x in vec]
    return all(sum(c * x for c, x in zip(row, v)) == 0 for row in a)


def matmul(a, b, width: int) -> list[list[Fraction]]:
    """a @ b by the textbook triple loop over ``Fraction``s; ``width`` is the
    number of columns of b, which its rows cannot tell when it has none."""
    a, b = _rows_of(a), _rows_of(b)
    out = []
    for row in a:
        out.append([])
        for j in range(width):
            total = Fraction(0)
            for k in range(len(row)):
                total += row[k] * b[k][j]
            out[-1].append(total)
    return out


def bracket(g, u, v) -> tuple[Fraction, ...]:
    """[u, v] by the bilinear expansion of the structure constants of ``g``."""
    uu, vv = [Fraction(x) for x in u], [Fraction(x) for x in v]
    out = [Fraction(0)] * g.dim
    for (i, j), coeffs in g.brackets.items():
        factor = uu[i] * vv[j] - uu[j] * vv[i]
        if factor != 0:
            for k, c in enumerate(coeffs):
                if c != 0:
                    out[k] += factor * c
    return tuple(out)


def bracket_with_basis(g, u, k: int) -> tuple[Fraction, ...]:
    """[u, X_k] from the brackets [X_i, X_k] and [X_k, X_j] alone."""
    uu = [Fraction(x) for x in u]
    out = [Fraction(0)] * g.dim
    for (i, j), coeffs in g.brackets.items():
        if j == k:
            factor = uu[i]
        elif i == k:
            factor = -uu[j]
        else:
            continue
        if factor != 0:
            for idx, c in enumerate(coeffs):
                if c != 0:
                    out[idx] += factor * c
    return tuple(out)


def jacobi_failure(g):
    """The first 0-based triple i < j < k with a nonzero Jacobi sum
    [[Xi,Xj],Xk] + [[Xj,Xk],Xi] + [[Xk,Xi],Xj], and that sum; or None."""
    e = [[Fraction(int(a == b)) for b in range(g.dim)] for a in range(g.dim)]
    for i, j, k in combinations(range(g.dim), 3):
        total = [a + b + c for a, b, c in zip(
            bracket_with_basis(g, bracket(g, e[i], e[j]), k),
            bracket_with_basis(g, bracket(g, e[j], e[k]), i),
            bracket_with_basis(g, bracket(g, e[k], e[i]), j))]
        if any(x != 0 for x in total):
            return (i, j, k, tuple(total))
    return None


def change_of_basis_table(g, p) -> dict:
    """The nonzero brackets P^-1 [P e_i, P e_j] for i < j, with P^-1 read off
    the ``rref`` oracle of [P | I]."""
    n = g.dim
    a = _rows_of(p)
    augmented = [row + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(a)]
    inverse = [row[n:] for row in rref(augmented)[0]]
    cols = [[a[r][c] for r in range(n)] for c in range(n)]
    table = {}
    for i, j in combinations(range(n), 2):
        w = bracket(g, cols[i], cols[j])
        vec = tuple(sum(x * y for x, y in zip(row, w)) for row in inverse)
        if any(x != 0 for x in vec):
            table[(i, j)] = vec
    return table


def span(rows, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """RREF rows of the span of ``rows`` in Q^n: the nonzero rows of ``rref``."""
    if not rows:
        return ()
    red, pivots = rref(rows)
    return tuple(tuple(row) for row in red[:len(pivots)])


def kernel(rows, n: int) -> list[list[Fraction]]:
    """Basis of {x in Q^n : row . x = 0 for every row}, one vector per free
    column of ``rref``, holding 1 there."""
    red, pivots = rref(rows) if rows else ([], ())
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [Fraction(int(c == free)) for c in range(n)]
        for row, pc in zip(red, pivots):
            vec[pc] = -row[free]
        basis.append(vec)
    return basis


def coordinates(basis, vec):
    """The c with sum_r c_r basis_r = vec, solved by ``rref`` of the
    augmented system, or None when vec is outside the span."""
    m = len(basis)
    system = [[row[k] for row in basis] + [Fraction(x)] for k, x in enumerate(vec)]
    red, pivots = rref(system)
    if m in pivots:
        return None
    coords = [Fraction(0)] * m
    for row, pc in zip(red, pivots):
        coords[pc] = row[m]
    return tuple(coords)


def intersection(a, b, n: int):
    """span(a) and span(b) meet in the x A with (x, y) in the kernel of
    [A^T | -B^T]."""
    system = [[row[k] for row in a] + [-row[k] for row in b] for k in range(n)]
    sols = kernel(system, len(a) + len(b))
    return span([[sum(c * row[k] for c, row in zip(sol, a)) for k in range(n)]
                 for sol in sols], n)


def bracket_span(g, left, right):
    """RREF rows of the span of [u, v] over u in ``left``, v in ``right``."""
    return span([bracket(g, u, v) for u in left for v in right], g.dim)


def series(g, step):
    """G, G^1 = [G, G], then step(last term) until the dimension stabilizes."""
    full = span([[int(i == j) for j in range(g.dim)] for i in range(g.dim)], g.dim)
    terms, nxt = [full], bracket_span(g, full, full)
    while len(nxt) != len(terms[-1]):
        terms.append(nxt)
        if not nxt:
            break
        nxt = step(nxt)
    return terms


def centralizer(g, s):
    """RREF rows of {u : [u, v] = 0 for every v in ``s``}: the kernel of
    the rows m of the maps u -> [u, v]."""
    n = g.dim
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    rows = [[bracket(g, e[i], v)[m] for i in range(n)] for v in s for m in range(n)]
    return span(kernel(rows, n), n)


def ad_matrix(g, x, s) -> list[list[Fraction]]:
    """ad_x on the span of the RREF rows ``s``, in that basis: column r holds
    the coordinates of [x, s_r], or None when s is not invariant."""
    cols = [coordinates(s, bracket(g, x, v)) for v in s]
    if any(c is None for c in cols):
        return None
    return [[col[r] for col in cols] for r in range(len(s))]


def is_prime(q: int) -> bool:
    """Primality by trial division by every d with d * d <= q."""
    return q > 1 and all(q % d for d in range(2, isqrt(q) + 1))


def grid_covectors(grid, n: int) -> list[tuple[Fraction, ...]]:
    """Every covector of a ``GridSpec`` in enumeration order, as ``Fraction``s.

    The box {-radius..radius}^n by ``itertools.product`` (first coordinate
    slowest), then the seeded tail: for each coordinate of each sample a
    numerator in -9..9 and a denominator in 1..9, drawn in that order.
    """
    box = product(range(-grid.radius, grid.radius + 1), repeat=n)
    return [tuple(Fraction(x) for x in point) for point in box] + tail_covectors(grid, n)


def tail_covectors(grid, n: int) -> list[tuple[Fraction, ...]]:
    """The seeded tail of ``grid_covectors`` alone."""
    rng = random.Random(grid.seed)
    return [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))
            for _ in range(grid.extra_random_samples)]


def identity(n: int) -> MatrixQ:
    """The n x n identity matrix."""
    return MatrixQ([[int(i == j) for j in range(n)] for i in range(n)])


def char_poly(m: MatrixQ) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial det(tI - M), coefficients ascending.

    Faddeev-LeVerrier recurrence; the divisions by 1..n are exact over Q.
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    aux = identity(n)
    for k in range(1, n + 1):
        mk = m @ aux
        trace = sum(mk.data[i][i] for i in range(n))
        coeffs[n - k] = -trace / k
        if k < n:
            aux = MatrixQ([[x + coeffs[n - k] if i == j else x for j, x in enumerate(row)]
                           for i, row in enumerate(mk.data)])
    return tuple(coeffs)


def form_value(coeffs, point, degree: int) -> Fraction:
    """Value at a point of a form of the given degree stored as its
    coefficients at the monomials of ``combinations_with_replacement`` of
    the coordinates, term by term over ``Fraction``s."""
    monomials = list(combinations_with_replacement(range(len(point)), degree))
    if len(coeffs) != len(monomials):
        raise ValueError("coefficient count does not match the point")
    total = Fraction(0)
    for c, monomial in zip(coeffs, monomials):
        term = Fraction(c)
        for a in monomial:
            term *= Fraction(point[a])
        total += term
    return total


def poly_monic(p) -> tuple[Fraction, ...]:
    """p divided by its leading coefficient, trimmed; () for p = 0."""
    p = poly_trim(p)
    return tuple(c / p[-1] for c in p) if p else p


def poly_eval_matrix(p, m: MatrixQ) -> MatrixQ:
    """p(M) for ascending coefficients p, summing scaled powers of M."""
    result = MatrixQ.zero(m.rows, m.cols)
    power = identity(m.rows)
    for c in poly_trim(p):
        if c != 0:
            result = MatrixQ([[a + c * b for a, b in zip(ra, rb)]
                              for ra, rb in zip(result.data, power.data)], m.cols)
        power = power @ m
    return result


def companion(p) -> MatrixQ:
    """Companion matrix of a monic polynomial (ones on the subdiagonal)."""
    p = poly_trim(p)
    if not p or p[-1] != 1:
        raise ValueError("companion matrix requires a monic polynomial")
    d = len(p) - 1
    m = [[Fraction(0)] * d for _ in range(d)]
    for i in range(1, d):
        m[i][i - 1] = Fraction(1)
    for i in range(d):
        m[i][d - 1] = -p[i]
    return MatrixQ(m)


def similar(a: MatrixQ, b: MatrixQ) -> bool:
    """Similarity over Q by comparing invariant factors."""
    if a.rows != b.rows or not a.is_square() or not b.is_square():
        return False
    return frobenius_form(a)[0] == frobenius_form(b)[0]


def frobenius_block_matrix(factors) -> MatrixQ:
    """Block-diagonal matrix of companion blocks, same order as `factors`."""
    size = sum(poly_degree(f) for f in factors)
    out = [[Fraction(0)] * size for _ in range(size)]
    offset = 0
    for f in factors:
        block = companion(f)
        d = block.rows
        for i in range(d):
            for j in range(d):
                out[offset + i][offset + j] = block.data[i][j]
        offset += d
    return MatrixQ(out)


def skew4_from_upper(b12, b13, b14, b23, b24, b34) -> MatrixQ:
    """The 4x4 skew matrix with the given strict upper triangle."""
    z = Fraction(0)
    return MatrixQ([
        [z, b12, b13, b14],
        [-b12, z, b23, b24],
        [-b13, -b23, z, b34],
        [-b14, -b24, -b34, z],
    ])


def pfaffian(rows) -> Fraction:
    """Pfaffian of an even skew matrix by expansion along its first row."""
    a = _rows_of(rows)
    if not a:
        return Fraction(1)
    total = Fraction(0)
    for j in range(1, len(a)):
        keep = [k for k in range(1, len(a)) if k != j]
        total += (-1) ** (j + 1) * a[0][j] * pfaffian([[a[r][c] for c in keep] for r in keep])
    return total


def sub_pfaffians_at(g, f) -> list[Fraction]:
    """Pfaffians of the five 4x4 principal slices of ``b_form_at(g, f)``,
    the k-th without row and column k."""
    b = b_form_at(g, f)
    return [pfaffian([[b[r, c] for c in range(5) if c != k] for r in range(5) if r != k])
            for k in range(5)]


def grid_ranks(g, grid, memo=None) -> list[int]:
    """Orbit dimensions at every covector of ``grid_covectors``, in order, by
    ``b_form_at`` and ``mat_rank``.  Since rank(cB) = rank B for c != 0, each
    line through 0 is ranked once, at its primitive integer point with a
    positive first nonzero coordinate; ``memo`` (a dict, one per algebra)
    keeps those ranks across calls."""
    memo = {} if memo is None else memo
    ranks = []
    for cov in grid_covectors(grid, g.dim):
        scale = lcm(*(x.denominator for x in cov))
        ints = [x.numerator * (scale // x.denominator) for x in cov]
        lead = next((x for x in ints if x), 1)
        div = (gcd(*ints) or 1) * (1 if lead > 0 else -1)
        line = tuple(x // div for x in ints)
        if line not in memo:
            memo[line] = mat_rank(b_form_at(g, line))
        ranks.append(memo[line])
    return ranks


def strata_of(ranks) -> dict[int, tuple[int, int]]:
    """{rank: (index of its first occurrence, count)} of a list, in rank order."""
    return {r: (ranks.index(r), ranks.count(r)) for r in sorted(set(ranks))}


def first_nonmaximal_covector(g, grid, max_dim: int):
    """The first covector of ``grid_covectors`` that pairs nonzero with some
    basis vector of G^1 and whose Kirillov form does not have rank
    ``max_dim``, or None: the maximality property checked point by point."""
    g1 = g.derived_ideal().basis()
    for cov in grid_covectors(grid, g.dim):
        if (any(sum(f * x for f, x in zip(cov, v)) != 0 for v in g1)
                and mat_rank(b_form_at(g, cov)) != max_dim):
            return cov
    return None


def derived_rows(g):
    """The ``rref`` rows of G^1 = [G, G]."""
    full = span([[int(i == j) for j in range(g.dim)] for i in range(g.dim)], g.dim)
    return bracket_span(g, full, full)


def annihilator_indices(rows, grid, n: int) -> list[int]:
    """Indices of the ``grid_covectors`` in Q^n that vanish on the span of the
    ``rref`` rows ``rows``, in order.

    Box points are not visited: scale each row R to integers, with c = R[p]
    at its pivot p.  A covector F vanishes on the span iff c F_p =
    -sum_j R[j] F_j over the free columns j for every row, so the box points
    are the free assignments whose pivot values come out integral and within
    the radius.  Tail points are tested one by one.
    """
    r = grid.radius
    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in rows]
    free = [j for j in range(n) if j not in pivots]
    scaled = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        scaled.append([int(x * scale) for x in row])
    found = []
    for values in product(range(-r, r + 1), repeat=len(free)):
        point = [0] * n
        for j, x in zip(free, values):
            point[j] = x
        for row, p in zip(scaled, pivots):
            x, rest = divmod(-sum(row[j] * point[j] for j in free), row[p])
            if rest or abs(x) > r:
                break
            point[p] = x
        else:
            found.append(sum((x + r) * (2 * r + 1) ** (n - 1 - j) for j, x in enumerate(point)))
    box = (2 * r + 1) ** n
    return sorted(found) + [box + k for k, cov in enumerate(tail_covectors(grid, n))
                            if all(sum(a * b for a, b in zip(cov, row)) == 0 for row in rows)]
