"""Basis-invariant fingerprints and an exact isomorphism test.

Every fingerprint field is a function of the isomorphism class over Q and
none reads a covector grid: dimension data of characteristic subspaces,
the MD verdict a structural rule proves (else ``unproved``) with whether
every sub-Pfaffian vanishes, and spectral data of the adjoint action on
the derived ideal recorded up to the scaling that a choice of complement
vector leaves free.  Where the algebra is an abelian codim-1 ideal plus a
one-dimensional complement, isomorphism is decided exactly: the two
algebras are isomorphic iff the complement's adjoint matrices are similar
up to a nonzero rational factor, and a witness basis change is assembled
from the two Frobenius transforms.  Pairs that neither mechanism settles
are reported unresolved, never silently passed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact import (
    MatrixQ,
    ONE,
    ZERO,
    format_rational,
    mat_rank,
    poly_degree,
    poly_mul,
    rational_kth_roots,
    scaled_frobenius,
    scaled_invariant_factors,
)
from .kirillov import proved_verdict
from .lie_core import LieAlgebra, Subspace

Factors = tuple[tuple[Fraction, ...], ...]


def _factors_json(factors: Factors) -> list:
    return [[format_rational(c) for c in f] for f in factors]


# ---------------------------------------------------------------------------
# spectral data of the adjoint action on the derived ideal
# ---------------------------------------------------------------------------

def _operator_span_dim(mats: Sequence[MatrixQ]) -> int:
    rows = [[x for row in m.data for x in row] for m in mats]
    rows = [r for r in rows if any(x != 0 for x in r)]
    if not rows:
        return 0
    return mat_rank(MatrixQ(rows))


def _lower_char_coeffs(factors: Factors) -> list[Fraction]:
    """Coefficients of t^(m-1), ..., t^0 in the characteristic polynomial.

    The characteristic polynomial is the product of the invariant factors.
    """
    coeffs = (ONE,)
    for f in factors:
        coeffs = poly_mul(coeffs, f)
    m = len(coeffs) - 1  # ascending; coeff of t^(m-j) is coeffs[m-j]
    return [coeffs[m - j] for j in range(1, m + 1)]


def _ray_record(factors: Factors):
    """Similarity data of the ray {c * a : c != 0}, recorded scale-free.

    ``factors`` are the invariant factors of a.  The characteristic
    coefficient of degree m-k scales by c^k, so the ratios a_j^k0 / a_k0^j
    are scale-invariant, as are the invariant factor degrees.  The
    candidate scalars normalising the first nonzero coefficient to +-1 pin
    down at most four exact representatives whose Frobenius data is
    recorded as a set.
    """
    lower = _lower_char_coeffs(factors)
    m = len(lower)
    if all(c == 0 for c in lower):
        return ("nilpotent", factors)
    k0 = next(j for j in range(1, m + 1) if lower[j - 1] != 0)
    anchor = lower[k0 - 1]
    ratios = tuple(lower[j - 1] ** k0 / anchor ** j for j in range(1, m + 1))
    shape = tuple(poly_degree(f) for f in factors)
    normalized = set()
    for target in (ONE, -ONE):
        for c in rational_kth_roots(target / anchor, k0):
            normalized.add(scaled_invariant_factors(factors, c))
    return ("scaled", k0, ratios, shape, tuple(sorted(normalized)))


def _invariant_line_record(g: LieAlgebra):
    """Summary of L = [C_G(G^1), G] ∩ G^1 when it is an invariant line."""
    line = g.span_of_brackets(g.derived_centralizer(), Subspace.full(g.dim)).intersection(
        g.derived_ideal())
    if line.dim != 1:
        return None
    return (1, g.center().contains(line.basis()[0]))


# ---------------------------------------------------------------------------
# the fingerprint
# ---------------------------------------------------------------------------

class Fingerprint(NamedTuple):
    dims: tuple
    kirillov: tuple
    spectral: tuple

    def first_difference(self, other: "Fingerprint") -> str | None:
        for name in ("dims", "kirillov", "spectral"):
            if getattr(self, name) != getattr(other, name):
                return name
        return None

    def to_dict(self) -> dict:
        n, derived, lcs, center, cent = self.dims
        kind, max_dim, pf_zero = self.kirillov
        d_act, ray, line = self.spectral
        if ray is None:
            ray_doc = None
        elif ray[0] == "nilpotent":
            ray_doc = {"kind": "nilpotent", "invariant_factors": _factors_json(ray[1])}
        else:
            _, k0, ratios, shape, normalized = ray
            ray_doc = {
                "kind": "scaled",
                "anchor_index": k0,
                "char_ratio_invariants": [format_rational(r) for r in ratios],
                "factor_degrees": list(shape),
                "normalized_factors": [_factors_json(f) for f in normalized],
            }
        return {
            "dims": {
                "dim": n,
                "derived": list(derived),
                "lower_central": list(lcs),
                "center": center,
                "centralizer_of_derived": cent,
            },
            "kirillov": {
                "verdict": kind,
                "max_dim": max_dim,
                "pfaffians_all_zero": pf_zero,
            },
            "spectral": {
                "action_span_dim": d_act,
                "ray": ray_doc,
                "invariant_line": None if line is None else
                {"dim": line[0], "action_trivial": line[1]},
            },
        }


def fingerprint(g: LieAlgebra, grid=None) -> Fingerprint:
    """Invariant separation record of a 5-dimensional solvable algebra.

    Two presentations of one algebra have equal fingerprints.  A verdict
    that rules 1-3 of ``md_check`` do not prove is ``unproved``: whether a
    grid meets a NotMD witness depends on the basis.  ``grid`` is not read;
    ``perfbench/worker.py`` still passes it.
    """
    proved = proved_verdict(g)
    dims = (
        g.dim,
        g.derived_dims(),
        g.lower_central_dims(),
        g.center().dim,
        g.derived_centralizer().dim,
    )
    pf_zero = not any(map(any, g.kirillov.quadrics))
    kirillov = (("unproved", None, pf_zero) if proved is None
                else (proved.kind, proved.max_dim, pf_zero))

    mats = g.ad_on_derived()
    d_act = _operator_span_dim(mats)
    ray = None
    if d_act == 1:
        index = next(i for i, m in enumerate(mats) if not m.is_zero())
        ray = _ray_record(tuple(g.frobenius_on_derived(index)[0]))
    spectral = (d_act, ray, _invariant_line_record(g))
    return Fingerprint(dims, kirillov, spectral)


# ---------------------------------------------------------------------------
# exact isomorphism for codimension-1 commutative derived ideals
# ---------------------------------------------------------------------------

class IsoResult(NamedTuple):
    kind: str  # "Iso" | "NotIso"
    witness: MatrixQ | None = None
    field: str | None = None

    def to_dict(self) -> dict:
        doc = {"result": self.kind}
        if self.witness is not None:
            doc["witness"] = [[format_rational(x) for x in row]
                              for row in self.witness.data]
        if self.field is not None:
            doc["field"] = self.field
        return doc


def _codim1_probe(g: LieAlgebra):
    """(probe index, derived ideal) for an algebra with dim G^1 = dim - 1."""
    g1 = g.derived_ideal()
    if g1.dim != g.dim - 1:
        raise ValueError("algebra does not have a codimension-1 derived ideal")
    if not g.derived_ideal_commutative():
        raise ValueError("derived ideal is not commutative")
    pivots = set(g1.pivots)
    probe = next(i for i in range(g.dim) if i not in pivots)
    return probe, g1


def _assemble_witness(a: LieAlgebra, b: LieAlgebra, c: Fraction,
                      probe_a: int, g1a: Subspace, probe_b: int,
                      g1b: Subspace) -> MatrixQ:
    """Basis-change P with change_of_basis(a, P) == b, from Frobenius data."""
    facs_a, p1 = scaled_frobenius(*a.frobenius_on_derived(probe_a), c)
    facs_b, p2 = b.frobenius_on_derived(probe_b)
    if facs_a != facs_b:
        raise AssertionError("scaled operators lost similarity during assembly")
    # t = p1^-1 p2 satisfies t^-1 (c ad_a) t == ad_b; in the adapted bases
    # ua, ub (probe vector, then G^1) the witness is ua diag(c, t) ub^-1
    t = p1.inverse() @ p2
    n = a.dim
    ua = MatrixQ.from_columns(
        [a.basis_vector(probe_a)] + [list(v) for v in g1a.basis()])
    ub = MatrixQ.from_columns(
        [b.basis_vector(probe_b)] + [list(v) for v in g1b.basis()])
    d = [[ZERO] * n for _ in range(n)]
    d[0][0] = c
    for i in range(n - 1):
        for j in range(n - 1):
            d[i + 1][j + 1] = t.data[i][j]
    witness = ua @ MatrixQ(d) @ ub.inverse()
    if a.change_of_basis(witness).brackets != b.brackets:
        raise AssertionError("isomorphism witness failed verification")
    return witness


def iso_test_codim1(a: LieAlgebra, b: LieAlgebra) -> IsoResult:
    """Exact isomorphism decision over Q for codim-1 commutative ideals.

    Such an algebra is determined by the adjoint matrix of any complement
    vector acting on the derived ideal, up to similarity and a nonzero
    scalar (rescaling the complement vector).  Candidate scalars come from
    ratios of characteristic coefficients: the degree n-k coefficient
    scales by c^k, so the first nonzero pair admits finitely many rational
    candidates via exact k-th root extraction.  A nonzero pair exists:
    G^1 = [X, G^1] for the probe X, so ad_X is invertible on G^1 and its
    constant characteristic coefficient is nonzero.
    """
    a.require_jacobi()
    b.require_jacobi()
    if a.dim != b.dim:
        return IsoResult(kind="NotIso", field="dim")
    probe_a, g1a = _codim1_probe(a)
    probe_b, g1b = _codim1_probe(b)
    factors_a = tuple(a.frobenius_on_derived(probe_a)[0])
    factors_b = tuple(b.frobenius_on_derived(probe_b)[0])
    lower_a = _lower_char_coeffs(factors_a)
    lower_b = _lower_char_coeffs(factors_b)
    m = len(lower_a)
    support_a = [j for j, x in enumerate(lower_a, start=1) if x != 0]
    support_b = [j for j, x in enumerate(lower_b, start=1) if x != 0]
    if support_a != support_b:
        return IsoResult(kind="NotIso", field="char-poly support")
    k0 = support_a[0]
    candidates = rational_kth_roots(lower_b[k0 - 1] / lower_a[k0 - 1], k0)
    if not candidates:
        return IsoResult(kind="NotIso", field="no rational scaling factor")
    for c in candidates:
        if any(lower_a[j - 1] * c ** j != lower_b[j - 1] for j in range(1, m + 1)):
            continue
        if scaled_invariant_factors(factors_a, c) != factors_b:
            continue
        witness = _assemble_witness(a, b, c, probe_a, g1a, probe_b, g1b)
        return IsoResult(kind="Iso", witness=witness)
    return IsoResult(kind="NotIso", field="ad-scaled-similarity")


# ---------------------------------------------------------------------------
# pairwise separation
# ---------------------------------------------------------------------------

class PairOutcome(NamedTuple):
    a: str
    b: str
    outcome: str  # "separated" | "iso-witnessed" | "unresolved"
    field: str | None = None

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "outcome": self.outcome, "field": self.field}


def _is_codim1_commutative(g: LieAlgebra) -> bool:
    return (g.derived_ideal().dim == g.dim - 1
            and g.derived_ideal_commutative())


def separation_matrix(instances: Sequence[tuple[str, LieAlgebra]],
                      grid=None) -> list[PairOutcome]:
    """Deterministic pairwise separation report.

    Fingerprints are compared first; equal fingerprints on a pair of
    codim-1 algebras fall through to the exact scaled-similarity test.
    Anything left is reported unresolved.  A ``ValueError`` from a
    fingerprint names the label of its instance.  ``grid`` is not read.
    """
    prints = []
    for label, g in instances:
        try:
            prints.append(fingerprint(g))
        except ValueError as exc:
            raise ValueError(f"{label}: {exc}") from exc
    out = []
    for i in range(len(instances)):
        for j in range(i + 1, len(instances)):
            label_a, ga = instances[i]
            label_b, gb = instances[j]
            diff = prints[i].first_difference(prints[j])
            if diff is not None:
                out.append(PairOutcome(label_a, label_b, "separated", diff))
                continue
            if _is_codim1_commutative(ga) and _is_codim1_commutative(gb):
                result = iso_test_codim1(ga, gb)
                if result.kind == "Iso":
                    out.append(PairOutcome(label_a, label_b, "iso-witnessed", None))
                else:
                    out.append(PairOutcome(label_a, label_b, "separated",
                                           f"iso-test: {result.field}"))
                continue
            out.append(PairOutcome(label_a, label_b, "unresolved",
                                   "equal fingerprints, no exact test applies"))
    return out
