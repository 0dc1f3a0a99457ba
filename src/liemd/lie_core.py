"""Lie algebras as exact structure-constant tensors.

A ``LieAlgebra`` stores the brackets [X_i, X_j] for i < j as coefficient
vectors over Q; skew-symmetry is structural.  Construction never requires
the Jacobi identity (non-examples must be representable), but every
analysis entry point that assumes a Lie algebra checks the cached Jacobi
status first.

An algebra is immutable after construction, so every structural fact
(the structure constants as integers over one denominator, on which
brackets and the Jacobi check run, Jacobi status, derived and lower central
series, center, centralizer of G^1, the action of ad on G^1 and its
Frobenius decomposition, and the Kirillov-form data owned by ``kirillov``)
is a ``functools.cached_property`` computed at most once.

A ``Subspace`` keeps primitive integer rows from ``exact.rref_int``.  The
series, center, centralizers, intersections and ad on G^1 run on them, and
build a ``Fraction`` only for a returned value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .exact import (
    MatrixQ,
    ONE,
    ZERO,
    clear_denominators,
    format_rational,
    frobenius_form,
    nullspace_int,
    parse_rational,
    rref_int,
    scaled_frobenius,
)

Vector = tuple[Fraction, ...]

# largest dimension an algebra document may declare; the tool works in
# dimension 5, and a huge "dim" would build its basis names before any check
MAX_DOCUMENT_DIM = 32


def _q(value) -> Fraction:
    return value if type(value) is Fraction else Fraction(value)


def _as_vector(values: Sequence, dim: int) -> Vector:
    vec = tuple(_q(v) for v in values)
    if len(vec) != dim:
        raise ValueError(f"expected a vector of length {dim}, got {len(vec)}")
    return vec


def _cleared(values: Sequence, dim: int) -> tuple[int, list[int]]:
    """(d, d * values) in integers for the least d > 0; integer input
    passes through without building a Fraction."""
    if len(values) == dim and all(type(v) is int for v in values):
        return 1, list(values)
    return clear_denominators(_as_vector(values, dim))


class Subspace:
    """A subspace of Q^n held as primitive integer rows.

    ``int_rows`` are the reduced row-echelon rows, each scaled to coprime
    integers with a positive pivot.  They are a canonical spanning set, so
    two Subspace values are equal iff they describe the same subspace.
    ``basis()`` gives the RREF rows as Fractions, built on first use.
    """

    __slots__ = ("ambient", "int_rows", "pivots", "_basis")

    def __init__(self, ambient: int, rows: Sequence[Sequence] = ()):
        red, self.pivots = rref_int([_cleared(r, ambient)[1] for r in rows], ambient)
        self.ambient = ambient
        self.int_rows = tuple(map(tuple, red))
        self._basis = None

    @property
    def dim(self) -> int:
        return len(self.int_rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient == other.ambient
                and self.int_rows == other.int_rows)

    def __hash__(self):
        return hash((self.ambient, self.int_rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def _holds(self, v: Sequence[int]) -> bool:
        """Whether the integer vector v lies in the subspace.  Its RREF
        coordinates are its pivot entries v[p_r], so v belongs iff
        L v = sum_r v[p_r] (L / P_r[p_r]) P_r, with L clearing the pivots."""
        den = lcm(*(row[c] for row, c in zip(self.int_rows, self.pivots)))
        rest = [den * x for x in v]
        for row, c in zip(self.int_rows, self.pivots):
            f = v[c] * (den // row[c])
            if f:
                rest = [x - f * y for x, y in zip(rest, row)]
        return not any(rest)

    def contains(self, vec: Sequence) -> bool:
        return self._holds(_cleared(vec, self.ambient)[1])

    def basis(self) -> tuple[Vector, ...]:
        """The RREF rows as Fractions."""
        if self._basis is None:
            self._basis = tuple(tuple(Fraction(x, row[c]) for x in row)
                                for row, c in zip(self.int_rows, self.pivots))
        return self._basis

    def intersection(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        # solve x*A = y*B: kernel of [A^T | -B^T]
        cols = self.int_rows + tuple(tuple(-x for x in row) for row in other.int_rows)
        sols = nullspace_int([list(r) for r in zip(*cols)], len(cols))[1]
        return Subspace(self.ambient, [
            [sum(c * row[k] for c, row in zip(sol, self.int_rows)) for k in range(self.ambient)]
            for sol in sols])

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace(ambient, [[int(i == j) for j in range(ambient)] for i in range(ambient)])


class AdOperator:
    """Matrix of ad_x restricted to an invariant subspace."""

    __slots__ = ("source", "subspace", "matrix")

    def __init__(self, source: Vector, subspace: Subspace, matrix: MatrixQ):
        self.source = source
        self.subspace = subspace
        self.matrix = matrix

    def __repr__(self):
        return f"AdOperator({self.matrix!r} on dim-{self.subspace.dim} subspace)"


class LieAlgebra:
    """Finite-dimensional algebra over Q given by structure constants.

    brackets maps (i, j) with 0 <= i < j < dim to the coefficient vector of
    [X_i, X_j]; missing pairs bracket to zero.  Neither ``dim`` nor
    ``brackets`` may change after construction: the cached facts below
    depend on them.
    """

    def __init__(self, dim: int, brackets: Mapping[tuple[int, int], Sequence],
                 basis_names: Sequence[str] | None = None):
        if dim < 0:
            raise ValueError("dimension must be non-negative")
        names = tuple(basis_names) if basis_names is not None else tuple(
            f"X{i + 1}" for i in range(dim))
        if len(names) != dim:
            raise ValueError("basis name count mismatch")
        table: dict[tuple[int, int], Vector] = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bad bracket pair ({i}, {j}) for dimension {dim}")
            vec = _as_vector(coeffs, dim)
            if any(c != 0 for c in vec):
                table[(i, j)] = vec
        self.dim = dim
        self.basis_names = names
        self.brackets = table

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_brackets(dim: int, entries: Iterable[tuple[int, int, Mapping[int, object]]],
                      basis_names: Sequence[str] | None = None) -> "LieAlgebra":
        """Build from 1-based bracket entries (i, j, {k: coefficient}).

        Requires i < j and at most one entry per pair.  Jacobi validity is
        NOT required here; it is recorded and enforced by analysis code.
        """
        table: dict[tuple[int, int], list[Fraction]] = {}
        for i, j, coeffs in entries:
            if not (1 <= i < j <= dim):
                raise ValueError(
                    f"bracket pair ({i}, {j}) out of range or not increasing for dim {dim}")
            key = (i - 1, j - 1)
            if key in table:
                raise ValueError(f"duplicate bracket for pair ({i}, {j})")
            vec = [ZERO] * dim
            for k, value in coeffs.items():
                k = int(k)
                if not (1 <= k <= dim):
                    raise ValueError(f"bracket target index {k} out of range for dim {dim}")
                vec[k - 1] = parse_rational(value)
            table[key] = vec
        return LieAlgebra(dim, table, basis_names)

    @staticmethod
    def abelian(dim: int) -> "LieAlgebra":
        return LieAlgebra(dim, {})

    def basis_vector(self, index: int) -> Vector:
        return tuple(ONE if k == index else ZERO for k in range(self.dim))

    # -- bracket --------------------------------------------------------------

    @cached_property
    def _int_table(self) -> tuple[int, tuple]:
        """(D, terms): D > 0 the lcm of every denominator of the structure
        constants, and one (i, j, ((k, D c_ij^k), ...)) per bracket, keeping
        only the nonzero terms."""
        n = self.dim
        den, flat = clear_denominators([c for vec in self.brackets.values() for c in vec])
        return den, tuple((i, j, tuple((k, c) for k, c in enumerate(flat[p * n:p * n + n]) if c))
                          for p, (i, j) in enumerate(self.brackets))

    def bracket(self, u: Sequence, v: Sequence) -> Vector:
        """Bilinear antisymmetric extension of the structure constants."""
        du, uu = _cleared(u, self.dim)
        dv, vv = _cleared(v, self.dim)
        return _over(self._int_bracket(uu, vv), self._int_table[0] * du * dv)

    def _int_bracket(self, uu: Sequence[int], vv: Sequence[int]) -> list[int]:
        """D [u, v] for integer coordinates u, v, D the table's denominator."""
        out = [0] * self.dim
        for i, j, coeffs in self._int_table[1]:
            factor = uu[i] * vv[j] - uu[j] * vv[i]
            if factor:
                for k, c in coeffs:
                    out[k] += factor * c
        return out

    def _int_with_basis(self, uu: Sequence[int], k: int) -> list[int]:
        """D [u, X_k] for integer coordinates u, D the table's denominator."""
        out = [0] * self.dim
        for i, j, coeffs in self._int_table[1]:
            if j == k:
                factor = uu[i]
            elif i == k:
                factor = -uu[j]
            else:
                continue
            if factor:
                for m, c in coeffs:
                    out[m] += factor * c
        return out

    # -- Jacobi ---------------------------------------------------------------

    @cached_property
    def _jacobi_failure(self):
        # t[i][j] = D [X_i, X_j], so each integer sum below is D^2 times the defect
        n = self.dim
        e = [[int(a == b) for b in range(n)] for a in range(n)]
        t = [[self._int_with_basis(e[i], j) for j in range(n)] for i in range(n)]
        for i, j, k in combinations(range(n), 3):
            total = [a + b + c for a, b, c in zip(self._int_with_basis(t[i][j], k),
                                                  self._int_with_basis(t[j][k], i),
                                                  self._int_with_basis(t[k][i], j))]
            if any(total):
                return (i, j, k, _over(total, self._int_table[0] ** 2))
        return None

    def jacobi_check(self):
        """None when the Jacobi identity holds; else (i, j, k, defect).

        The returned triple is 0-based and the defect is the exact value of
        [[Xi,Xj],Xk] + [[Xj,Xk],Xi] + [[Xk,Xi],Xj].
        """
        return self._jacobi_failure

    @property
    def is_lie(self) -> bool:
        return self.jacobi_check() is None

    def require_jacobi(self):
        failure = self.jacobi_check()
        if failure is not None:
            i, j, k, _ = failure
            raise ValueError(
                f"Jacobi identity fails at triple ({i + 1}, {j + 1}, {k + 1})")

    # -- series, center, centralizer -------------------------------------------

    def span_of_brackets(self, left: Subspace, right: Subspace) -> Subspace:
        """Span of [u, v] over the integer rows u of left and v of right;
        each image is D times the bracket, which leaves the span unchanged."""
        if left.dim == self.dim:
            # [G, s] = [s, G]: swapping the sides negates every bracket
            left, right = right, left
        if right.dim == self.dim:
            images = (self._int_with_basis(u, k) for u in left.int_rows for k in range(self.dim))
        elif left == right:  # [u, u] = 0 and [v, u] = -[u, v]
            images = (self._int_bracket(u, v) for u, v in combinations(left.int_rows, 2))
        else:
            images = (self._int_bracket(u, v) for u in left.int_rows for v in right.int_rows)
        return Subspace(self.dim, [w for w in images if any(w)])

    def _series(self, step) -> tuple[Subspace, ...]:
        """G, G^1, then step(last term) until the dimension stabilizes."""
        series = [Subspace.full(self.dim)]
        nxt = self._derived_ideal
        while nxt.dim != series[-1].dim:
            series.append(nxt)
            if nxt.dim == 0:
                break
            nxt = step(nxt)
        return tuple(series)

    @cached_property
    def _derived_ideal(self) -> Subspace:
        full = Subspace.full(self.dim)
        return self.span_of_brackets(full, full)

    @cached_property
    def _derived_series(self) -> tuple[Subspace, ...]:
        return self._series(lambda s: self.span_of_brackets(s, s))

    @cached_property
    def _lower_central_series(self) -> tuple[Subspace, ...]:
        full = Subspace.full(self.dim)
        return self._series(lambda s: self.span_of_brackets(full, s))

    def derived_series(self) -> list[Subspace]:
        """G >= G^1 >= G^2 >= ..., stopping at stabilization."""
        return list(self._derived_series)

    def lower_central_series(self) -> list[Subspace]:
        return list(self._lower_central_series)

    def derived_dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self._derived_series)

    def lower_central_dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self._lower_central_series)

    def is_solvable(self) -> bool:
        return self._derived_series[-1].dim == 0

    def derived_ideal(self) -> Subspace:
        return self._derived_ideal

    def centralizer(self, s: Subspace) -> Subspace:
        """{u : [u, v] = 0 for every v in s}, as an integer kernel."""
        if s.ambient != self.dim:
            raise ValueError("subspace has wrong ambient dimension")
        blocks = []
        for v in s.int_rows:
            # row block: u -> D [v, u], whose column i is D [v, X_i]
            cols = [self._int_with_basis(v, i) for i in range(self.dim)]
            blocks.extend(map(list, zip(*cols)))
        return Subspace(self.dim, nullspace_int(blocks, self.dim)[1])

    @cached_property
    def _center(self) -> Subspace:
        return self.centralizer(Subspace.full(self.dim))

    @cached_property
    def _derived_centralizer(self) -> Subspace:
        return self.centralizer(self._derived_ideal)

    def center(self) -> Subspace:
        return self._center

    def derived_centralizer(self) -> Subspace:
        """C_G(G^1), the centralizer of the derived ideal."""
        return self._derived_centralizer

    def is_subspace_commutative(self, s: Subspace) -> bool:
        return self.span_of_brackets(s, s).dim == 0

    # -- adjoint operators ------------------------------------------------------

    def ad_restricted(self, x: Sequence, s: Subspace) -> AdOperator:
        """Matrix of ad_x on an invariant subspace, in its RREF basis.

        With d clearing x, column r is the pivot entries of the integer
        image w = D d [x, P_r] of the row P_r of s, over D d P_r[p_r]."""
        xx = _as_vector(x, self.dim)
        dx, cx = clear_denominators(xx)
        den = self._int_table[0] * dx
        cols = []
        for row, c in zip(s.int_rows, s.pivots):
            w = self._int_bracket(cx, row)
            if not s._holds(w):
                raise ValueError("subspace is not invariant under ad_x")
            cols.append([Fraction(w[p], den * row[c]) for p in s.pivots])
        return AdOperator(xx, s, MatrixQ.from_columns(cols))

    @cached_property
    def _derived_ideal_commutative(self) -> bool:
        return self.is_subspace_commutative(self._derived_ideal)

    @cached_property
    def _ad_on_derived(self) -> tuple[MatrixQ, ...]:
        return tuple(self.ad_restricted(self.basis_vector(i), self._derived_ideal).matrix
                     for i in range(self.dim))

    @cached_property
    def _ad_stack(self) -> list[list[list[int]]]:
        """stack[r][k][i] is entry (r, k) of D L ad_{X_i} on G^1, with L the
        lcm of the pivots of the rows P_k of G^1: as in ``ad_restricted``,
        column k of ad_{X_i} is the pivot entries of D [X_i, P_k] over D P_k[p_k]."""
        s = self._derived_ideal
        den = lcm(*(row[c] for row, c in zip(s.int_rows, s.pivots)))
        images = [[self._int_with_basis(row, i) for i in range(self.dim)] for row in s.int_rows]
        return [[[-w[p] * (den // row[c]) for w in images[k]]  # [X_i, P_k] = -[P_k, X_i]
                 for k, (row, c) in enumerate(zip(s.int_rows, s.pivots))] for p in s.pivots]

    def derived_ideal_commutative(self) -> bool:
        return self._derived_ideal_commutative

    def ad_on_derived(self) -> tuple[MatrixQ, ...]:
        """Matrices of ad_{X_i} on G^1 in its RREF basis, one per basis vector."""
        return self._ad_on_derived

    @cached_property
    def _derived_frobenius(self):
        """(R, frobenius_form(R)) for the first nonzero ad_{X_i} on G^1, or None."""
        rep = next((m for m in self._ad_on_derived if not m.is_zero()), None)
        return None if rep is None else (rep, frobenius_form(rep))

    def frobenius_on_derived(self, i: int):
        """``frobenius_form(ad_on_derived()[i])``, from one decomposition.

        The algebra decomposes R, its first nonzero ad_{X_j} on G^1, once.
        When ad_{X_i} = lam * R with lam != 0 the form follows exactly by
        ``scaled_frobenius``; that holds for every nonzero ad_{X_i} when
        the action span has dimension 1, e.g. for a codimension-1
        commutative derived ideal.  Any other index raises ValueError.
        """
        if self._derived_frobenius is None:
            raise ValueError("ad acts trivially on the derived ideal")
        rep, (factors, p) = self._derived_frobenius
        ad = self._ad_on_derived[i]
        r, s = next((r, s) for r, row in enumerate(rep.data)
                    for s, x in enumerate(row) if x != 0)
        lam = ad[r, s] / rep[r, s]
        if lam == 0 or ad != rep.scale(lam):
            raise ValueError(f"ad_{self.basis_names[i]} on the derived ideal is not "
                             "a nonzero multiple of the first nonzero one")
        return scaled_frobenius(factors, p, lam)

    def ad_commute_check(self, x: Sequence, y: Sequence) -> bool:
        """Whether ad_x and ad_y commute as operators on the derived ideal.

        Refuses to run when the derived ideal is not commutative, since the
        guarantee only holds under that hypothesis.  Works on integers: with
        E = D L clearing every ad_{X_i} on G^1 and d_x clearing x, the matrix
        sum_i (d_x x_i) (E ad_{X_i}) is E d_x ad_x, and positive multiples
        commute exactly when ad_x and ad_y do.
        """
        if not self._derived_ideal_commutative:
            raise ValueError("derived ideal is not commutative")
        stack = self._ad_stack
        cx, cy = (_cleared(v, self.dim)[1] for v in (x, y))
        ax = [[sum(map(mul, cx, entry)) for entry in row] for row in stack]
        ay = [[sum(map(mul, cy, entry)) for entry in row] for row in stack]
        return _int_product(ax, ay) == _int_product(ay, ax)

    @cached_property
    def kirillov(self):
        """The Kirillov-form facts of this algebra (``kirillov.KirillovData``).

        Building them requires the Jacobi identity.
        """
        from .kirillov import KirillovData  # kirillov imports this module
        return KirillovData(self)

    # -- transport and sums ------------------------------------------------------

    def change_of_basis(self, p: MatrixQ) -> "LieAlgebra":
        """Re-express the algebra in the basis given by the columns of p.

        Column j of p lists the new basis vector X'_j in old coordinates;
        the new structure constants are P^-1 [P e_i, P e_j].
        """
        if p.rows != self.dim or p.cols != self.dim:
            raise ValueError("basis-change matrix has wrong shape")
        p_inv = p.inverse()  # raises on singular input
        table = {}
        cols = [p.column(j) for j in range(self.dim)]
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                w = self.bracket(cols[i], cols[j])
                table[(i, j)] = p_inv.apply(w)
        return LieAlgebra(self.dim, table, self.basis_names)

    def direct_sum(self, other: "LieAlgebra") -> "LieAlgebra":
        """Block direct sum; cross brackets vanish."""
        n, m = self.dim, other.dim
        table = {}
        for (i, j), coeffs in self.brackets.items():
            table[(i, j)] = tuple(coeffs) + (ZERO,) * m
        for (i, j), coeffs in other.brackets.items():
            table[(n + i, n + j)] = (ZERO,) * n + tuple(coeffs)
        names = tuple(self.basis_names) + tuple(f"Y{k + 1}" for k in range(m))
        return LieAlgebra(n + m, table, names)

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        entries = []
        for (i, j) in sorted(self.brackets):
            coeffs = self.brackets[(i, j)]
            packed = {str(k + 1): format_rational(c)
                      for k, c in enumerate(coeffs) if c != 0}
            entries.append({"i": i + 1, "j": j + 1, "coeffs": packed})
        return {"dim": self.dim, "basis": list(self.basis_names), "brackets": entries}

    @staticmethod
    def from_dict(payload: Mapping) -> "LieAlgebra":
        if not isinstance(payload, Mapping):
            raise ValueError("algebra document must be a JSON object")
        allowed = {"dim", "basis", "brackets"}
        unknown = set(payload) - allowed
        if unknown:
            raise ValueError(f"unknown fields: {sorted(unknown)}")
        if "dim" not in payload or "brackets" not in payload:
            raise ValueError("algebra document requires 'dim' and 'brackets'")
        dim = payload["dim"]
        if type(dim) is not int or not 0 <= dim <= MAX_DOCUMENT_DIM:
            raise ValueError(f"'dim' must be an integer from 0 to {MAX_DOCUMENT_DIM}")
        names = payload.get("basis")
        if names is not None:
            if (not isinstance(names, list)
                    or not all(isinstance(x, str) for x in names)):
                raise ValueError("'basis' must be a list of strings")
        entries = []
        raw = payload["brackets"]
        if not isinstance(raw, list):
            raise ValueError("'brackets' must be a list")
        for pos, item in enumerate(raw):
            if not isinstance(item, Mapping):
                raise ValueError(f"bracket #{pos} is not an object")
            extra = set(item) - {"i", "j", "coeffs"}
            if extra:
                raise ValueError(f"bracket #{pos} has unknown fields: {sorted(extra)}")
            try:
                i, j = item["i"], item["j"]
                coeffs = item["coeffs"]
            except KeyError as exc:
                raise ValueError(f"bracket #{pos} is missing field {exc}") from exc
            if type(i) is not int or type(j) is not int or not i < j:
                raise ValueError(f"bracket #{pos} requires integer indices with i < j")
            if not isinstance(coeffs, Mapping):
                raise ValueError(f"bracket #{pos} coeffs must be an object")
            entries.append((i, j, coeffs))
        return LieAlgebra.from_brackets(dim, entries, names)


def _over(values: Sequence[int], den: int) -> Vector:
    return tuple(Fraction(x, den) for x in values)


def _int_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]
