"""Kirillov form, coadjoint orbit dimensions, and the MD decision procedure.

For a covector F the skew bilinear form B_F(X, Y) = <F, [X, Y]> is stored
with the index convention b_ij = <F, [X_j, X_i]>; the orbit through F has
dimension rank(B_F).  The MD test is a certified tri-state procedure:
``IsMD`` is only ever emitted with a structural proof (the derived ideal
G^1 is zero, all sub-Pfaffians vanish identically, or dim G^1 = 1 so that
every entry is a multiple of one linear form), ``NotMD`` carries two rank
witnesses that are re-verified at emission time, and sampling alone can at
most produce ``Inconclusive`` evidence.

``KirillovData`` holds the per-algebra facts of this module.  It is reached
as ``g.kirillov`` and built once per algebra.  B_F depends on F only
through u = V.F, where V holds the primitive integer rows of G^1 and
d = dim G^1 <= 4: D*b(F) = T.u for an integer matrix T and one common
denominator D.  In dimension 5 the five sub-Pfaffians are integer quadrics
in u, so the rank at F is read from u alone: 0 at u = 0, else 4 where a
quadric is nonzero and 2 where all vanish.

The MD verdict, the rank profile and the maximality check read one cached
dict of rank strata per grid, {rank: (first index, count)}, which
``_count_strata`` counts without ranking the grid point by point (see
there).  ``Fraction`` covectors are built (by ``GridSpec.covector``) only
for reported witnesses.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import chain, combinations, combinations_with_replacement, compress, product, repeat
from math import gcd, isqrt, lcm
from operator import add, mul, ne, not_, or_
from typing import Iterator, NamedTuple, Sequence

from .exact import (
    MatrixQ,
    ZERO,
    clear_denominators,
    format_vector,
    mat_rank,
    parse_vector,
)
from .lie_core import LieAlgebra

Covector = tuple[Fraction, ...]

# per dropped index: where b12..b34 of its 4x4 principal slice sit among i < j
_SLICES = [[p for p, pair in enumerate(combinations(range(5), 2)) if dropped not in pair]
           for dropped in range(5)]

# most points (box plus random tail, in dimension 5) a grid may have.  A
# non-structural algebra with dim G^1 >= 3 still tests every box point, in
# passes of ``map`` at about 0.5 us a point on a 2-vCPU VM: some 45 s at
# this bound.  Every other box is counted in time that grows like its
# radius cubed, not like its points.
MAX_GRID_POINTS = 10 ** 8

# most random tail points: the tail is drawn in Python (about 2 us and
# 10 bytes a point in dimension 5) and then classified TAIL_CHUNK points at
# a time, so 10^6 points take a few seconds and about 10 MB
MAX_TAIL_SAMPLES = 10 ** 6
TAIL_CHUNK = 1 << 12

# lcm(1..9), a multiple of every tail denominator: scaling a tail point by
# it makes the point integral and leaves its rank unchanged
_TAIL_SCALE = 2520

# a top byte t of a generator word as a tail numerator (t >> 3) - 9 or
# denominator (t >> 4) + 1, as a byte
_NUMERATORS = bytes(((t >> 3) - 9) & 0xFF for t in range(256))
_DENOMINATORS = bytes((t >> 4) + 1 for t in range(256))

# a tail (numerator, denominator) pair, read as one native 16-bit word: its
# value times _TAIL_SCALE
_SCALED = {int.from_bytes(bytes((num & 0xFF, den)), sys.byteorder): num * _TAIL_SCALE // den
           for num in range(-9, 10) for den in range(1, 10)}


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

class _GridSpec(NamedTuple):
    radius: int
    extra_random_samples: int
    seed: int


class GridSpec(_GridSpec):
    """Deterministic covector enumeration: an integer box plus random tails.

    The integer stage walks {-radius..radius}^n in lexicographic order with
    the first coordinate slowest; the extra stage draws seeded random
    rationals with |numerator| <= 9 and denominator <= 9.  "First witness"
    always refers to this enumeration order.

    The grid is stored as integers only: box points are the digits of
    their index, and the random tail is drawn once per grid and dimension
    into signed bytes, read in integer columns by ``tail_columns``;
    ``covector`` is the one place that builds exact ``Fraction`` covectors.
    """

    # no __slots__: ``_tails`` keeps its cache in the instance __dict__
    def __new__(cls, radius=2, extra_random_samples=200, seed=1):
        self = super().__new__(cls, radius, extra_random_samples, seed)
        if radius < 1:
            raise ValueError("grid radius must be a positive integer")
        if extra_random_samples < 0:
            raise ValueError("extra sample count must be non-negative")
        if self.count(5) > MAX_GRID_POINTS:
            raise ValueError(f"grid has {self.count(5)} points in dimension 5, "
                             f"more than the limit of {MAX_GRID_POINTS}")
        if extra_random_samples > MAX_TAIL_SAMPLES:
            raise ValueError(f"{extra_random_samples} extra samples requested, "
                             f"more than the limit of {MAX_TAIL_SAMPLES}")
        return self

    def covectors(self, n: int) -> Iterator[Covector]:
        for point in product(range(-self.radius, self.radius + 1), repeat=n):
            yield tuple(map(Fraction, point))
        for k in range(self._box_size(n), self.count(n)):
            yield self.covector(n, k)

    def count(self, n: int) -> int:
        return self._box_size(n) + self.extra_random_samples

    def covector(self, n: int, k: int) -> Covector:
        """The k-th covector of the enumeration, exactly."""
        if not 0 <= k < self.count(n):
            raise IndexError(f"grid index {k} out of range")
        box = self._box_size(n)
        if k >= box:
            at = 2 * n * (k - box)
            draws = self._tail(n)[at:at + 2 * n]
            return tuple(map(Fraction, draws[0::2], draws[1::2]))
        base = 2 * self.radius + 1
        coords = []
        for _ in range(n):
            k, digit = divmod(k, base)
            coords.append(Fraction(digit - self.radius))
        return tuple(reversed(coords))

    def tail_columns(self, n: int) -> Iterator[list[list[int]]]:
        """The random tail, TAIL_CHUNK points at a time, as n integer columns:
        each point times ``_TAIL_SCALE``, which leaves every rank unchanged."""
        pairs = self._tail(n).cast("H")  # one (numerator, denominator) each
        step = TAIL_CHUNK * n
        for start in range(0, len(pairs), step):
            yield [list(map(_SCALED.__getitem__, pairs[start + j:start + step:n]))
                   for j in range(n)]

    def _box_size(self, n: int) -> int:
        return (2 * self.radius + 1) ** n

    @cached_property
    def _tails(self) -> dict[int, memoryview]:
        return {}

    def _tail(self, n: int) -> memoryview:
        """The random tail as signed bytes, per coordinate of each point a
        numerator in -9..9 and a denominator in 1..9: ``rng.randint``'s values,
        drawn as it draws them.  randint(-9, 9) takes the top 5 bits of one
        32-bit word of the generator, again while they are 19 or more, and
        randint(1, 9) the top 4 bits, again while they are 9 or more: a top
        byte below 152, then one below 144.  ``getrandbits(32 * k)`` returns
        the next k words, the first in the lowest bits."""
        tail = self._tails.get(n)
        if tail is None:
            need = self.extra_random_samples * n
            size = min(4 * need + 64, 1 << 16)
            rng = random.Random(self.seed)
            tops = chain.from_iterable(rng.getrandbits(32 * k).to_bytes(4 * k, "little")[3::4]
                                       for k in repeat(size))
            draws = bytearray()
            for num in tops if need else ():
                if num < 152:
                    for den in tops:
                        if den < 144:
                            break
                    draws.append(_NUMERATORS[num])
                    draws.append(_DENOMINATORS[den])
                    if len(draws) == 2 * need:
                        break
            tail = self._tails[n] = memoryview(draws).cast("b")
        return tail


# ---------------------------------------------------------------------------
# the form itself
# ---------------------------------------------------------------------------

def b_form_at(g: LieAlgebra, f: Sequence) -> MatrixQ:
    """Matrix of the Kirillov form at F, entries b_ij = <F, [X_j, X_i]>."""
    g.require_jacobi()
    cov = parse_vector(f)
    if len(cov) != g.dim:
        raise ValueError(f"covector must have {g.dim} coordinates, got {len(cov)}")
    n = g.dim
    den, terms = g._int_table
    scale, x = clear_denominators(cov)
    m = [[ZERO] * n for _ in range(n)]
    for i, j, coeffs in terms:
        value = Fraction(sum(c * x[k] for k, c in coeffs), den * scale)
        # [X_j, X_i] = -[X_i, X_j] for i < j
        m[i][j] = -value
        m[j][i] = value
    return MatrixQ(m)


def orbit_dim(g: LieAlgebra, f: Sequence) -> int:
    """Dimension of the coadjoint orbit through F: rank of B_F (even)."""
    return mat_rank(b_form_at(g, f))


class SymbolicKirillovForm:
    """The Kirillov form with entries as linear forms in dual coordinates.

    entries[i][j] is the tuple of the n ``Fraction`` coefficients of b_ij in
    f1..fn, and entries[j][i] is that tuple negated; evaluating the entries
    at any covector reproduces ``b_form_at`` exactly.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, n: int, upper: Sequence[Sequence]):
        """``upper[p]`` holds the coefficients of b_ij for the p-th pair i < j."""
        grid = [[(ZERO,) * n] * n for _ in range(n)]
        for (i, j), coeffs in zip(combinations(range(n), 2), upper):
            grid[i][j] = tuple(map(Fraction, coeffs))
            grid[j][i] = tuple(-c for c in grid[i][j])
        self.dim = n
        self.entries = tuple(map(tuple, grid))


def b_form_symbolic(g: LieAlgebra) -> SymbolicKirillovForm:
    """The form of ``g`` in f1..fn, from ``KirillovData``: b(F) = T.(V.F) / D."""
    kd = g.kirillov
    cols = list(zip(*kd.v)) or [()] * kd.dim
    return SymbolicKirillovForm(kd.dim, [[Fraction(sum(map(mul, coords, col)), kd._den)
                                          for col in cols] for coords in kd.t])


def pfaffian_system(form: SymbolicKirillovForm) -> list[tuple[Fraction, ...]]:
    """Sub-Pfaffians of the five 4x4 principal slices (dimension 5 only),
    each as its 15 coefficients at f_a*f_b for a <= b in
    ``combinations_with_replacement`` order, as ``KirillovData.quadrics``.

    All five vanish identically iff rank(B_F) <= 2 for every real covector,
    because the rank of a skew matrix is witnessed by a principal submatrix
    and a nonzero polynomial has rational non-roots.
    """
    if form.dim != 5:
        raise ValueError("sub-Pfaffian system is only defined for dimension 5")
    den, flat = clear_denominators([c for i, j in combinations(range(5), 2)
                                    for c in form.entries[i][j]])
    rows = [flat[5 * p:5 * p + 5] for p in range(10)]
    return [tuple(Fraction(c, den * den) for c in _quadric([rows[p] for p in kept]))
            for kept in _SLICES]


# ---------------------------------------------------------------------------
# per-algebra facts: the form in G^1 coordinates
# ---------------------------------------------------------------------------

class KirillovData:
    """Kirillov-form facts of one algebra, each computed at most once.

    Built through ``g.kirillov`` (a cached property), so it lives exactly
    as long as its algebra.  It keeps integer data rather than the algebra,
    which avoids a reference cycle:
      - ``v``: the primitive integer rows of G^1 (``Subspace.int_rows``);
      - ``t``: row p is a d-vector with D*b_ij(F) = t[p].u for the p-th pair
        i < j, u = V.F and one common denominator D;
      - ``quadrics`` (dimension 5 only): D^2 times the sub-Pfaffian of each
        principal 4x4 slice, a quadric in u, as its integer coefficients at
        u_a*u_b for a <= b in ``combinations_with_replacement`` order.
    Zero quadrics mean rule 2 of ``md_check``; ``b_form_symbolic`` pulls
    the form back to F from T.
    """

    def __init__(self, g: LieAlgebra):
        g.require_jacobi()
        g1 = g.derived_ideal()
        n = self.dim = g.dim
        self.v = g1.int_rows
        absent = (ZERO,) * n
        # b_ij = -<F, [X_i, X_j]> for i < j.  Each cleared row lies in G^1,
        # and its coordinate on row a of V is read at that row's pivot,
        # where every other row of V is zero
        den, flat = clear_denominators(
            [-c for pair in combinations(range(n), 2) for c in g.brackets.get(pair, absent)])
        lead = lcm(*(row[c] for row, c in zip(self.v, g1.pivots)))
        self.t = [tuple(flat[p * n + c] * (lead // row[c]) for row, c in zip(self.v, g1.pivots))
                  for p in range(n * (n - 1) // 2)]
        self._den = den * lead
        self.quadrics = [_quadric([self.t[p] for p in kept]) for kept in _SLICES] if n == 5 else []
        self.strata: dict[GridSpec, dict[int, tuple[int, int]]] = {}

    def rank(self, u: Sequence[int]) -> int:
        """rank B_F for every F with V.F = u."""
        if not any(u):
            return 0  # F vanishes on G^1
        if self.dim == 5:
            return 4 if any(_value(q, u) for q in self.quadrics) else 2
        n = self.dim
        m = [[0] * n for _ in range(n)]
        for (i, j), row in zip(combinations(range(n), 2), self.t):
            m[i][j] = sum(map(mul, row, u))
            m[j][i] = -m[i][j]
        return mat_rank(MatrixQ(m))


def _monomials(d: int) -> list[tuple[int, int]]:
    return list(combinations_with_replacement(range(d), 2))


def _quadric(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Coefficients of the Pfaffian b12 b34 - b13 b24 + b14 b23 of six
    linear forms b = row.u: a product x.u y.u has x_a y_a at u_a^2 and
    x_a y_b + x_b y_a at u_a u_b."""
    b12, b13, b14, b23, b24, b34 = rows
    def pf(a, b):
        return b12[a] * b34[b] - b13[a] * b24[b] + b14[a] * b23[b]
    return tuple(pf(a, a) if a == b else pf(a, b) + pf(b, a) for a, b in _monomials(len(b12)))


def _value(q: Sequence[int], u: Sequence[int]) -> int:
    return sum(c * u[a] * u[b] for c, (a, b) in zip(q, _monomials(len(u))) if c)


# ---------------------------------------------------------------------------
# rank strata of a grid
# ---------------------------------------------------------------------------

def _count_strata(kd: KirillovData, grid: GridSpec,
                  top: int | None) -> dict[int, tuple[int, int]]:
    """Each rank on the grid, in rank order: the index of its first point and
    its count.  ``top`` is the rank off ann(G^1) under a structural verdict,
    else None.

    The box is not ranked point by point.  It is walked one prefix of
    coordinates at a time; a point has u = a + key, with a = V.prefix and
    key = V.suffix, and the suffixes are grouped into classes by their key.
    ``_classifier`` counts each rank of one prefix from the classes, and
    ranks the tail a chunk at a time.  The first box point of rank 0 is the
    first suffix of the class -a; that of any other rank is found by
    ranking, in order, the suffixes of the first prefix that holds it.
    """
    n = kd.dim
    if not kd.v:
        return {0: (0, grid.count(n))}
    side = range(-grid.radius, grid.radius + 1)
    # a lookup per prefix costs the same for any number of classes, so
    # those prefixes are short; a pass over the classes keeps them few
    lookups = top is not None or (n == 5 and len(kd.v) == 2)
    split = n // 2 if lookups else max(n - 2, 0)
    heads = [row[:split] for row in kd.v]
    suffixes = list(zip(*product(side, repeat=n - split)))  # as columns
    keys = list(zip(*(_dot(row[split:], suffixes) for row in kd.v)))
    firsts: dict[tuple[int, ...], int] = {}  # each class's first suffix
    for i, key in enumerate(keys):
        firsts.setdefault(key, i)
    prefix_counts, chunk_ranks = _classifier(kd, grid, Counter(keys), top)
    strata: dict[int, list[int]] = {}
    for k, prefix in enumerate(product(side, repeat=split)):
        a = tuple(sum(map(mul, head, prefix)) for head in heads)
        for rank, count in prefix_counts(a):
            if rank in strata:
                strata[rank][1] += count
            elif count:
                first = (firsts[tuple(-x for x in a)] if rank == 0 else
                         next(i for i, key in enumerate(keys)
                              if kd.rank(tuple(map(add, a, key))) == rank))
                strata[rank] = [k * len(keys) + first, count]
    start = grid._box_size(n)
    for cols in grid.tail_columns(n):
        ranks = chunk_ranks(cols)
        for rank in set(ranks):
            if rank in strata:
                strata[rank][1] += ranks.count(rank)
            else:
                strata[rank] = [start + ranks.index(rank), ranks.count(rank)]
        start += len(ranks)
    return {rank: tuple(strata[rank]) for rank in sorted(strata)}


def _classifier(kd: KirillovData, grid: GridSpec, classes: Counter, top: int | None):
    """(prefix_counts, chunk_ranks) for ``_count_strata``: the (rank, count)
    pairs of the box points with u = a + key, key over ``classes``, and the
    list of ranks of a tail chunk given by its integer columns.

    In dimension 5, and in any dimension under a structural verdict, the
    rank is 0 on ann(G^1), where u = 0 (the class -a of a prefix a), 2 on
    the rest of a set Z and ``high`` off both; ``low_box`` counts and
    ``low_tail`` marks the points of ann(G^1) and Z together.  Z is empty
    under a structural verdict.  With d = 2 it is the union of at most two
    rational lines (``_rational_lines``), each met by one lookup of m.a in
    a table of m.key for its normal m.  With d >= 3 it is the zero set of
    one packed quadric W = sum K^k q_k over the live quadrics q_k, with
    K > 2|q_k(u)| on the grid: W(a + key) = W(a) + grad(a).key + W(key),
    tested over all classes at once with ``map``.  Other dimensions rank
    each distinct u once, by elimination.
    """
    n, v = kd.dim, kd.v
    d = len(v)
    if top is None and n != 5:
        memo: dict[tuple[int, ...], int] = {}

        def rank(u):
            if u not in memo:
                memo[u] = kd.rank(u)
            return memo[u]

        def prefix_counts(a):
            counts = Counter()
            for key, count in classes.items():
                counts[rank(tuple(map(add, a, key)))] += count
            return counts.items()

        def chunk_ranks(cols):
            return list(map(rank, zip(*(_dot(row, cols) for row in v))))

        return prefix_counts, chunk_ranks

    size = sum(classes.values())
    high = 4 if top is None else top
    if top is not None:
        def low_box(a, zero):
            return zero

        def low_tail(u, zero):
            return zero
    elif d == 2:
        normals = [(y, -x) for x, y in _rational_lines(kd.quadrics)]
        tables = [Counter() for _ in normals]
        for (p, q), table in zip(normals, tables):
            for key, count in classes.items():
                table[p * key[0] + q * key[1]] += count

        def low_box(a, zero):
            return zero + sum(table.get(-p * a[0] - q * a[1], 0) - zero
                              for (p, q), table in zip(normals, tables))

        def low_tail(u, zero):
            if not normals:
                return zero
            # on one of the lines iff the product over their normals is zero
            return list(map(not_, reduce(partial(map, mul), (_dot(m, u) for m in normals))))
    else:
        live = [q for q in kd.quadrics if any(q)]
        monomials = _monomials(d)
        # |u_a| <= reach at every grid point, the scaled tail included
        reach = max(grid.radius, 9 * _TAIL_SCALE) * max(sum(map(abs, row)) for row in v)
        base = 2 * max(sum(map(abs, q)) for q in live) * reach ** 2 + 1
        w = [sum(q[m] * base ** k for k, q in enumerate(live)) for m in range(len(monomials))]
        keys, counts = list(classes), list(classes.values())
        coords = list(zip(*keys))
        at_keys = [_value(w, key) for key in keys]

        def low_box(a, zero):
            grad = [0] * d
            for c, (i, j) in zip(w, monomials):
                grad[i] += c * a[j]
                grad[j] += c * a[i]
            values = at_keys
            for col, slope in zip(coords, grad):
                if slope:
                    values = map(add, values, map(mul, col, repeat(slope)))
            return size - sum(compress(counts, map(ne, values, repeat(-_value(w, a)))))

        def low_tail(u, zero):
            return list(map(not_, _sum(map(mul, map(mul, u[i], u[j]), repeat(c))
                                       for c, (i, j) in zip(w, monomials) if c)))

    def prefix_counts(a):
        zero = classes.get(tuple(-x for x in a), 0)
        low = low_box(a, zero)
        return (0, zero), (2, low - zero), (high, size - low)

    def chunk_ranks(cols):
        u = [list(_dot(row, cols)) for row in v]
        zero = list(map(not_, reduce(partial(map, or_), u)))
        # zero lies inside low: 2 on ann(G^1), 1 on the rest of Z, else 0
        return list(map((high, 2, 0).__getitem__, map(add, zero, low_tail(u, zero))))

    return prefix_counts, chunk_ranks


def _dot(w: Sequence[int], cols: Sequence[Sequence[int]]) -> Iterator[int]:
    """w.x for each point x given by the coordinate columns ``cols``."""
    terms = [col if c == 1 else map(mul, col, repeat(c)) for c, col in zip(w, cols) if c]
    return _sum(terms) if terms else repeat(0, len(cols[0]))


_sum = partial(reduce, partial(map, add))  # termwise sum of equally long iterables


def _rational_lines(quadrics: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The rational lines through 0 on which every binary quadric
    c0*u0^2 + c1*u0*u1 + c2*u1^2 vanishes, by a primitive point on each:
    the rational roots of the first nonzero quadric, at most two, that
    every other quadric shares."""
    c0, c1, c2 = next(q for q in quadrics if any(q))
    disc = c1 * c1 - 4 * c0 * c2
    root = isqrt(max(disc, 0))
    if root * root != disc:
        return []  # no real root, or two irrational ones
    if c0:
        points = [(-c1 + root, 2 * c0), (-c1 - root, 2 * c0)]
    elif c2:
        points = [(2 * c2, -c1 + root), (2 * c2, -c1 - root)]
    else:
        points = [(1, 0), (0, 1)]
    lines = {(x // g, y // g) for x, y in points
             for g in [gcd(x, y) if (x, y) > (0, 0) else -gcd(x, y)]}
    return sorted(p for p in lines if not any(_value(q, p) for q in quadrics))


# ---------------------------------------------------------------------------
# rank profiles
# ---------------------------------------------------------------------------

class RankProfile(NamedTuple):
    histogram: dict[int, int]
    witnesses: dict[int, Covector]

    def to_dict(self) -> dict:
        return {
            "histogram": {str(r): self.histogram[r] for r in sorted(self.histogram)},
            "witnesses": {str(r): format_vector(self.witnesses[r])
                          for r in sorted(self.witnesses)},
        }


def rank_profile(g: LieAlgebra, grid: GridSpec = GridSpec()) -> RankProfile:
    """Histogram of orbit dimensions over the grid, with first witnesses.

    The histogram counts grid points, so it depends on the basis; it is
    reported for one presentation and never used to compare algebras.
    """
    g.require_jacobi()
    strata = _strata(g, grid)
    histogram = {r: count for r, (_, count) in strata.items()}
    witnesses = {r: grid.covector(g.dim, first) for r, (first, _) in strata.items()}
    return RankProfile(histogram, witnesses)


def _strata(g: LieAlgebra, grid: GridSpec) -> dict[int, tuple[int, int]]:
    """Each rank on the grid: the index of its first point and its count,
    counted once per grid."""
    cache = g.kirillov.strata
    if grid not in cache:
        verdict = _structural_verdict(g)
        cache[grid] = _count_strata(g.kirillov, grid,
                                     None if verdict is None else verdict.max_dim)
    return cache[grid]


# ---------------------------------------------------------------------------
# the MD verdict
# ---------------------------------------------------------------------------

class MDVerdict(NamedTuple):
    """Tri-state certificate for the fixed-orbit-dimension property."""

    kind: str  # "IsMD" | "NotMD" | "Inconclusive"
    max_dim: int | None = None
    proof: str | None = None  # "pfaffian-vanishing" | "zero-form" | "common-factor"
    witness_low: tuple[Covector, int] | None = None
    witness_high: tuple[Covector, int] | None = None
    max_rank_attained: int | None = None
    pfaffian_status: str | None = None
    samples_tested: int | None = None

    def structural_summary(self) -> tuple:
        """Kind, max dimension and proof tag, without the witnesses.

        Not basis-independent in general: NotMD and Inconclusive rest on
        the grid, which may miss the rank-2 locus in one basis and meet it
        in another (``rejected.5.2.3``).  An IsMD summary comes from a proof
        and does not depend on the basis.
        """
        return (self.kind, self.max_dim, self.proof)

    def to_dict(self, histogram: dict[int, int] | None = None) -> dict:
        witnesses = []
        for item in (self.witness_low, self.witness_high):
            if item is not None:
                cov, rank = item
                witnesses.append({"F": format_vector(cov), "rank": rank})
        payload = {
            "verdict": self.kind,
            "max_dim": self.max_dim,
            "proof": self.proof,
            "witnesses": witnesses,
        }
        if self.kind == "Inconclusive":
            payload["evidence"] = {
                "max_rank_attained": self.max_rank_attained,
                "pfaffian_status": self.pfaffian_status,
                "samples_tested": self.samples_tested,
            }
        if histogram is not None:
            payload["histogram"] = {str(r): histogram[r] for r in sorted(histogram)}
        return payload


def md_check(g: LieAlgebra, grid: GridSpec = GridSpec()) -> MDVerdict:
    """Decide the MD property with a certificate.

    Order of rules:
      1. zero form: G^1 = 0  ->  IsMD with maximal dimension 0;
      2. all five sub-Pfaffians identically zero (the quadrics in u have
         no nonzero coefficient)  ->  IsMD with maximum 2 (rank is at most
         2 everywhere and 2 is attained since some entry is a nonzero
         linear form);
      3. common factor: dim G^1 = 1  ->  every entry is a rational multiple
         of one linear form ell, and the rank is constant on {ell != 0}:
         IsMD with that constant;
      4. otherwise count the grid's rank strata; two distinct nonzero
         ranks give NotMD with verified witnesses, anything else is
         Inconclusive.  Sampling never proves IsMD.
    """
    verdict = proved_verdict(g)
    if verdict is not None:
        return verdict
    strata = _strata(g, grid)
    nonzero = sorted(r for r in strata if r > 0)
    if len(nonzero) >= 2:
        low, high = nonzero[0], nonzero[-1]
        f_low, f_high = (grid.covector(g.dim, strata[r][0]) for r in (low, high))
        wl = (f_low, mat_rank(b_form_at(g, f_low)))
        wh = (f_high, mat_rank(b_form_at(g, f_high)))
        if wl[1] != low or wh[1] != high:
            raise AssertionError("fast rank path disagrees with exact elimination")
        return MDVerdict(kind="NotMD", witness_low=wl, witness_high=wh)
    top = nonzero[-1] if nonzero else 0
    return MDVerdict(
        kind="Inconclusive",
        max_rank_attained=top,
        pfaffian_status="nonzero",
        samples_tested=grid.count(g.dim),
    )


def proved_verdict(g: LieAlgebra) -> MDVerdict | None:
    """The IsMD verdict that rules 1-3 of ``md_check`` prove without a grid,
    or None; ``ValueError`` on an algebra ``md_check`` cannot analyse."""
    g.require_jacobi()
    if not g.is_solvable():
        raise ValueError("MD analysis requires a solvable algebra")
    if g.dim != 5:
        raise ValueError("MD analysis is implemented for dimension 5 only")
    return _structural_verdict(g)


def _structural_verdict(g: LieAlgebra) -> MDVerdict | None:
    """Rules 1-3 of ``md_check`` (rule 2 in dimension 5 only), or None: each
    proves rank B_F = ``max_dim`` off ann(G^1), where B_F = 0 always."""
    g1 = g.derived_ideal()
    if g1.dim == 0:
        return MDVerdict(kind="IsMD", max_dim=0, proof="zero-form")
    if g.dim == 5 and not any(map(any, g.kirillov.quadrics)):
        return MDVerdict(kind="IsMD", max_dim=2, proof="pfaffian-vanishing")
    if g1.dim == 1:
        # G^1 = span{z}: B(F) = ell(F) * L with ell(F) = <F, z> and L a
        # constant skew matrix, so the rank is rank L wherever ell != 0,
        # as at e_k for the pivot k of z
        max_dim = mat_rank(b_form_at(g, g.basis_vector(g1.pivots[0])))
        return MDVerdict(kind="IsMD", max_dim=max_dim, proof="common-factor")
    return None


# ---------------------------------------------------------------------------
# maximality of orbits through covectors seen by the derived ideal
# ---------------------------------------------------------------------------

def nonvanishing_maximality_check(g: LieAlgebra, grid: GridSpec = GridSpec(),
                                  max_dim: int | None = None):
    """Verify that covectors not vanishing on the derived ideal reach max rank.

    Returns None when the property holds over the grid, else the first
    violating covector.  Requires an IsMD verdict unless ``max_dim`` is
    supplied explicitly (as done for discrepancy reporting).  B_F = 0
    exactly when F vanishes on G^1 = span{[X_i, X_j]}, so the violators are
    the grid points whose rank is neither 0 nor ``max_dim``: the first is
    read off the strata.
    """
    g.require_jacobi()
    if max_dim is None:
        verdict = md_check(g, grid)
        if verdict.kind != "IsMD":
            raise ValueError("maximality check requires an IsMD verdict")
        max_dim = verdict.max_dim
    firsts = [first for r, (first, _) in _strata(g, grid).items() if r not in (0, max_dim)]
    return grid.covector(g.dim, min(firsts)) if firsts else None
