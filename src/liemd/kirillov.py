"""Kirillov form, coadjoint orbit dimensions, and the MD decision procedure.

For a covector F the skew bilinear form B_F(X, Y) = <F, [X, Y]> is stored
with the index convention b_ij = <F, [X_j, X_i]>; the orbit through F has
dimension rank(B_F).  The MD test is a certified tri-state procedure:
``IsMD`` is only ever emitted with a structural proof (the derived ideal
G^1 is zero, all sub-Pfaffians vanish identically, or dim G^1 = 1 so that
every entry is a multiple of one linear form), ``NotMD`` carries two rank
witnesses that are re-verified at emission time, and sampling alone can at
most produce ``Inconclusive`` evidence.

``KirillovData`` holds the per-algebra facts of this module: the symbolic
form, its sub-Pfaffians, the integer rank engine and the rank strata of
each grid.  It is reached as ``g.kirillov`` and built once per algebra.  The
engine reads the structure constants over one common denominator D, so each
evaluated entry is D*b_ij and each sub-Pfaffian D^2 times its value; no
rank changes.  Past int64, dimension 5 works modulo primes below 2^30 whose
product exceeds a bound on every value: exact by the CRT (see ``ranks_int``).

The MD verdict, the rank profile and the maximality check read one cached
dict of rank strata per grid, {rank: (first index, count)}: counted exactly
from ann(G^1) under a structural verdict, with no scan and no numpy, else by
one scan of the int64 rows of ``GridSpec.integer_chunks``.  ``Fraction``
covectors are built (by ``GridSpec.covector``) only for reported witnesses.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, count, product, repeat
from operator import floordiv, mul, not_
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np

from .exact import (
    MatrixQ,
    PolyQ,
    ZERO,
    clear_denominators,
    format_vector,
    mat_rank,
    parse_vector,
    pfaffian4,
)
from .lie_core import LieAlgebra

Covector = tuple[Fraction, ...]

# ceiling for the numpy int64 fast path (see ``KirillovData.ranks_int``)
_INT64_SAFE = 2 ** 62

_PRIMES: list[int] = []  # primes below 2^30, largest first, found on first use

# per dropped index: where b12..b34 of its 4x4 principal slice sit among i < j
_SLICES = [[p for p, pair in enumerate(combinations(range(5), 2)) if dropped not in pair]
           for dropped in range(5)]

# rows per grid chunk: a grid scan holds one chunk at a time, so its working
# memory does not grow with the radius
GRID_CHUNK = 1 << 14

# most points (box plus random tail, in dimension 5) a grid may have; the
# rank vector holds one byte per point and a scan visits every one
MAX_GRID_POINTS = 10 ** 8


def _primes() -> Iterator[int]:
    """Primes below 2^30, largest first, memoised in ``_PRIMES``: an odd q
    with 2^15 < q < 2^30 is prime iff no odd 3 <= d < 2^15 divides it."""
    import numpy as np
    for k in count():
        if k == len(_PRIMES):
            top = _PRIMES[-1] if _PRIMES else 2 ** 30 + 1
            _PRIMES.append(next(q for q in range(top - 2, 2 ** 15, -2)
                                if (q % np.arange(3, 2 ** 15, 2)).all()))
        yield _PRIMES[k]


def _residues(a: np.ndarray, q: int, rows=slice(None)) -> np.ndarray:
    """a[rows] modulo q as int64; a holds int64 or Python integers."""
    import numpy as np
    if a.dtype == object:
        a = np.fromiter((v % q for v in a.flat), dtype=np.int64, count=a.size).reshape(a.shape)
    return a[rows] % q


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Deterministic covector enumeration: an integer box plus random tails.

    The integer stage walks {-radius..radius}^n in lexicographic order with
    the first coordinate slowest; the extra stage draws seeded random
    rationals with |numerator| <= 9 and denominator <= 9.  "First witness"
    always refers to this enumeration order.

    The grid is stored as integers only: box points are the digits of
    their index, and the random tail is drawn once per grid and dimension
    into signed bytes.  Scans read int64 rows through ``integer_chunks``;
    ``covector`` is the one place that builds exact ``Fraction`` covectors.
    """

    radius: int = 2
    extra_random_samples: int = 200
    seed: int = 1

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("grid radius must be a positive integer")
        if self.extra_random_samples < 0:
            raise ValueError("extra sample count must be non-negative")
        if self.count(5) > MAX_GRID_POINTS:
            raise ValueError(f"grid has {self.count(5)} points in dimension 5, "
                             f"more than the limit of {MAX_GRID_POINTS}")

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

    def integer_chunks(self, n: int) -> Iterator[tuple[int, np.ndarray]]:
        """The grid as (start, rows) pairs of at most GRID_CHUNK int64 rows.

        Row i of a chunk is a positive multiple of ``covector(n, start + i)``
        (box points are already integral, tail points have their
        denominators cleared), which leaves every rank unchanged.  The rank
        engine is the one reader: every other scan reads its cached strata.
        """
        import numpy as np
        box = self._box_size(n)
        total = self.count(n)
        for start in range(0, total, GRID_CHUNK):
            stop = min(start + GRID_CHUNK, total)
            parts = []
            if start < box:
                parts.append(self._box_rows(n, start, min(stop, box)))
            if stop > box:
                parts.append(self._tail_rows(n, max(start, box) - box, stop - box))
            yield start, parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _box_size(self, n: int) -> int:
        return (2 * self.radius + 1) ** n

    def _box_rows(self, n: int, start: int, stop: int) -> np.ndarray:
        """Box points start..stop-1: the base-(2r+1) digits of their index."""
        import numpy as np
        index = np.arange(start, stop, dtype=np.int64)
        rows = np.empty((len(index), n), dtype=np.int64)
        for j in reversed(range(n)):
            index, rows[:, j] = np.divmod(index, 2 * self.radius + 1)
        return rows - self.radius

    def _tail_rows(self, n: int, start: int, stop: int) -> np.ndarray:
        """Tail points start..stop-1 (counted from the tail's first point),
        each scaled by the lcm of its reduced denominators."""
        import numpy as np
        draws = np.frombuffer(self._tail(n), dtype=np.int8)[2 * n * start:2 * n * stop]
        num, den = (draws[i::2].reshape(-1, n).astype(np.int64) for i in (0, 1))
        lowest = den // np.gcd(num, den)
        rows = num * np.lcm.reduce(lowest, axis=1, keepdims=True, initial=1)
        rows //= den  # exact: the lcm is a multiple of each reduced denominator
        return rows

    @cached_property
    def _tails(self) -> dict[int, array]:
        return {}

    def _tail(self, n: int) -> array:
        """The random tail as signed bytes, per coordinate of each point a
        numerator in -9..9 and a denominator in 1..9: ``rng.randint``'s values,
        drawn as it draws them (5 or 4 bits, again while out of range)."""
        tail = self._tails.get(n)
        if tail is None:
            bits = random.Random(self.seed).getrandbits
            tail = self._tails[n] = array("b")
            for _ in range(self.extra_random_samples * n):
                num = bits(5)
                while num >= 19:
                    num = bits(5)
                den = bits(4)
                while den >= 9:
                    den = bits(4)
                tail.extend((num - 9, den + 1))
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
    m = [[ZERO] * n for _ in range(n)]
    for (i, j), coeffs in g.brackets.items():
        value = sum(c * x for c, x in zip(coeffs, cov))
        # [X_j, X_i] = -[X_i, X_j] for i < j
        m[i][j] = -value
        m[j][i] = value
    return MatrixQ(m)


def orbit_dim(g: LieAlgebra, f: Sequence) -> int:
    """Dimension of the coadjoint orbit through F: rank of B_F (even)."""
    return mat_rank(b_form_at(g, f))


class SymbolicKirillovForm:
    """The Kirillov form with entries as linear forms in dual coordinates.

    entries[i][j] is a PolyQ in f1..fn with entries[i][j] == -entries[j][i];
    evaluating the entries at any covector reproduces ``b_form_at`` exactly.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, g: LieAlgebra):
        g.require_jacobi()
        n = g.dim
        zero = PolyQ.zero(n)
        grid = [[zero for _ in range(n)] for _ in range(n)]
        for (i, j), coeffs in g.brackets.items():
            form = PolyQ.linear_form(coeffs)
            grid[i][j] = -form
            grid[j][i] = form
        self.dim = n
        self.entries = tuple(tuple(row) for row in grid)


def b_form_symbolic(g: LieAlgebra) -> SymbolicKirillovForm:
    return g.kirillov.form


def pfaffian_system(form: SymbolicKirillovForm) -> list[PolyQ]:
    """Sub-Pfaffians of the five 4x4 principal slices (dimension 5 only).

    All five vanish identically iff rank(B_F) <= 2 for every real covector,
    because the rank of a skew matrix is witnessed by a principal submatrix
    and a nonzero polynomial has rational non-roots.
    """
    if form.dim != 5:
        raise ValueError("sub-Pfaffian system is only defined for dimension 5")
    upper = [form.entries[i][j] for i, j in combinations(range(5), 2)]
    return [pfaffian4(*(upper[p] for p in kept)) for kept in _SLICES]


# ---------------------------------------------------------------------------
# per-algebra facts and the integer rank engine
# ---------------------------------------------------------------------------

class KirillovData:
    """Kirillov-form facts of one algebra, each computed at most once.

    Built through ``g.kirillov`` (a cached property), so it lives exactly
    as long as its algebra.  It keeps the form and an integer copy of the
    structure constants rather than the algebra, which avoids a reference
    cycle: row p of ``_rows`` (``_linear`` for numpy) holds D*b_ij as a
    linear form in F, for the p-th pair i < j and one common denominator D.
    """

    def __init__(self, g: LieAlgebra):
        self.form = SymbolicKirillovForm(g)  # requires the Jacobi identity
        n = g.dim
        self._pairs = list(combinations(range(n), 2))
        absent = (ZERO,) * n
        # b_ij = <F, [X_j, X_i]> = -<F, [X_i, X_j]> for i < j
        _, flat = clear_denominators(
            [-c for pair in self._pairs for c in g.brackets.get(pair, absent)])
        self._rows = [flat[p * n:(p + 1) * n] for p in range(len(self._pairs))]
        # L: the largest absolute row sum, so |entry| <= L * max|x|
        self._bound = max((sum(map(abs, row)) for row in self._rows), default=0)
        self.strata: dict[GridSpec, dict[int, tuple[int, int]]] = {}

    @cached_property
    def _linear(self) -> np.ndarray:
        import numpy as np
        return np.array(self._rows, dtype=object).reshape(len(self._pairs), self.form.dim)

    @cached_property
    def pfaffians(self) -> list[PolyQ]:
        return pfaffian_system(self.form)

    def ranks_int(self, x: np.ndarray) -> np.ndarray:
        """Exact ranks for integer covector rows (already cleared).

        In dimension 5 a skew matrix has rank 4 iff one of its five
        principal 4x4 sub-Pfaffians is nonzero, and rank >= 2 iff any entry
        is nonzero; other dimensions take the exact rank of each integer
        skew matrix.  With m the largest |x|, |entry| <= L*m and
        |sub-Pfaffian| <= 3(L*m)^2.  int64 is used while these and L stay
        below 2^62; beyond, other dimensions use exact Python integers and
        dimension 5 residues modulo primes q < 2^30, taken until their
        product passes B = max(3(L*m)^2, L*m): by the CRT a value |v| <= B
        that vanishes modulo them is 0, so every rank stays exact.  With x
        and the constants reduced below q, an entry sums five products
        < 5q^2 < 2^63 and a Pfaffian product is < q^2 < 2^60.
        """
        import numpy as np
        peak = self._bound * max(int(x.max(initial=0)), -int(x.min(initial=0)))
        n = self.form.dim
        if x.dtype == object or max(3 * peak * peak, self._bound) >= _INT64_SAFE:
            if n == 5:
                return self._ranks_mod(x, peak)
            x = x.astype(object)
        entries = x @ self._linear.astype(x.dtype).T
        if n != 5:
            return np.array([mat_rank(MatrixQ(self._skew(row, n))) for row in entries.tolist()],
                            dtype=np.int8)
        rank4 = np.zeros(len(x), dtype=bool)
        for kept in _SLICES:
            rank4 |= pfaffian4(*(entries[:, p] for p in kept)) != 0
        ranks = np.zeros(len(x), dtype=np.int8)
        ranks[(entries != 0).any(axis=1)] = 2
        ranks[rank4] = 4
        return ranks

    def _ranks_mod(self, x: np.ndarray, peak: int) -> np.ndarray:
        """``ranks_int`` modulo primes, peak = L*m.  Rows leave at their first
        nonzero residue of a live sub-Pfaffian (one not identically zero;
        rank 4) or, with none live (B = L*m), of an entry (rank 2)."""
        import numpy as np
        live = [k for k, p in enumerate(self.pfaffians) if not p.is_zero()]
        bound = max(3 * peak * peak, peak) if live else peak
        ranks, todo = np.zeros(len(x), dtype=np.int8), np.arange(len(x))
        primes, product = _primes(), 1
        while product <= bound and len(todo):
            q = next(primes)
            product *= q
            entries = _residues(x, q, todo) @ _residues(self._linear, q).T
            entries %= q
            nonzero = (entries != 0).any(axis=1)
            ranks[todo[nonzero]] = 2
            done = np.zeros(len(todo), dtype=bool) if live else nonzero
            for k in live:
                done |= pfaffian4(*(entries[:, p] for p in _SLICES[k])) % q != 0
            ranks[todo[done]] = 4 if live else 2
            todo = todo[~done]
        return ranks

    def _skew(self, upper: Sequence[int], n: int) -> list[list[int]]:
        m = [[0] * n for _ in range(n)]
        for value, (i, j) in zip(upper, self._pairs):
            m[i][j], m[j][i] = value, -value
        return m

    def rank_vector(self, grid: GridSpec) -> np.ndarray:
        """Read-only int8 ranks over the whole grid, in enumeration order.

        The grid is scanned one integer chunk at a time; only the rank
        vector itself grows with the grid, and ``_strata`` keeps its strata.
        """
        import numpy as np
        n = self.form.dim
        ranks = np.empty(grid.count(n), dtype=np.int8)
        for start, rows in grid.integer_chunks(n):
            ranks[start:start + len(rows)] = self.ranks_int(rows)
        ranks.setflags(write=False)
        return ranks


# ---------------------------------------------------------------------------
# rank profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankProfile:
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
    """Each rank on the grid: the index of its first point and its count, found
    once per grid, from ann(G^1) under a structural verdict, else by a scan."""
    cache = g.kirillov.strata
    if grid not in cache:
        verdict = _structural_verdict(g)
        cache[grid] = (_rank_strata(g.kirillov.rank_vector(grid)) if verdict is None else
                       _annihilator_strata(g.derived_ideal().int_rows, grid, g.dim,
                                           verdict.max_dim))
    return cache[grid]


def _annihilator_strata(rows: Sequence[Sequence[int]], grid: GridSpec, n: int,
                        max_dim: int) -> dict[int, tuple[int, int]]:
    """Exact strata, no point ranked, when the rank is 0 on ann(G^1) and
    max_dim off it; the integer ``rows`` span G^1.  With K > 2|v.x| for each
    row v and grid point x (a tail point times 2520 = lcm(1..9); r <= 19),
    w = sum K^i v_i has w.x = 0 iff x is in ann(G^1).  Box: prefixes in order
    meet a table of suffix sums (count, first suffix).  Point 0 is the first
    point off ann(G^1), or else point 0 + e_j is, j the last coordinate w reads.
    """
    r = grid.radius
    side = range(-r, r + 1)
    scale = 2 * 9 * 2520 * max((sum(map(abs, v)) for v in rows), default=0) + 1
    w = [sum(v[j] * scale ** i for i, v in enumerate(rows)) for j in range(n)]
    split = n // 2
    suffixes: dict[int, list] = {}  # w.suffix -> [count, first suffix]
    for point in product(side, repeat=n - split):
        suffixes.setdefault(sum(map(mul, w[split:], point)), [0, point])[0] += 1
    hits = [(prefix, entry) for prefix in product(side, repeat=split)
            if (entry := suffixes.get(-sum(map(mul, w[:split], prefix))))]
    zero, first = sum(entry[0] for _, entry in hits), hits[0][0] + hits[0][1][1]
    draws = grid._tail(n)
    cols = [map(floordiv, map(mul, draws[2 * j::2 * n], repeat(c * 2520)),
                draws[2 * j + 1::2 * n]) for j, c in enumerate(w) if c]
    zero += sum(map(not_, map(sum, zip(*cols)))) if cols else grid.extra_random_samples
    strata = {0: (sum((x + r) * len(side) ** (n - 1 - j) for j, x in enumerate(first)), zero)}
    if zero < grid.count(n):
        last = max(j for j, c in enumerate(w) if c)
        strata[max_dim] = (len(side) ** (n - 1 - last) if sum(w) == 0 else 0,
                           grid.count(n) - zero)
    return strata


def _rank_strata(ranks: np.ndarray) -> dict[int, tuple[int, int]]:
    """``_strata`` of a rank vector, one boolean mask at a time, so the scan
    needs a byte per grid point."""
    import numpy as np
    counts = np.bincount(ranks)
    return {int(value): (int(np.argmax(ranks == value)), int(counts[value]))
            for value in np.flatnonzero(counts)}


# ---------------------------------------------------------------------------
# the MD verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MDVerdict:
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
        """The basis-independent part: kind, max dimension, proof tag."""
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
      2. all five sub-Pfaffians identically zero  ->  IsMD with maximum 2
         (rank is at most 2 everywhere and 2 is attained since some entry
         is a nonzero linear form);
      3. common factor: dim G^1 = 1  ->  every entry is a rational multiple
         of one linear form ell, and the rank is constant on {ell != 0}:
         IsMD with that constant;
      4. otherwise scan the grid; two distinct nonzero ranks give NotMD
         with verified witnesses, anything else is Inconclusive.  Sampling
         never proves IsMD.
    """
    g.require_jacobi()
    if not g.is_solvable():
        raise ValueError("MD analysis requires a solvable algebra")
    if g.dim != 5:
        raise ValueError("MD analysis is implemented for dimension 5 only")

    verdict = _structural_verdict(g)
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


def _structural_verdict(g: LieAlgebra) -> MDVerdict | None:
    """Rules 1-3 of ``md_check`` (rule 2 in dimension 5 only), or None: each
    proves rank B_F = ``max_dim`` off ann(G^1), where B_F = 0 always."""
    g1 = g.derived_ideal()
    if g1.dim == 0:
        return MDVerdict(kind="IsMD", max_dim=0, proof="zero-form")
    if g.dim == 5 and all(p.is_zero() for p in g.kirillov.pfaffians):
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
    read off the strata, which a structural verdict counts without a scan.
    """
    g.require_jacobi()
    if max_dim is None:
        verdict = md_check(g, grid)
        if verdict.kind != "IsMD":
            raise ValueError("maximality check requires an IsMD verdict")
        max_dim = verdict.max_dim
    firsts = [first for r, (first, _) in _strata(g, grid).items() if r not in (0, max_dim)]
    return grid.covector(g.dim, min(firsts)) if firsts else None
