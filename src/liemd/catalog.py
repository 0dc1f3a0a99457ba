"""Constructors for the bundled catalog of 5-dimensional algebras.

The catalog covers 25 families of solvable algebras with a commutative
derived ideal, grouped by dim G^1 = 1, 2, 3, 4, plus two "rejected"
specimens that are genuine Lie algebras but fail the MD property; they
serve as executable counterexamples for the checker.

Conventions fixed here once and used uniformly:
  * group 3 sets [X1, X2] = X3 and lets the action matrix act on
    coordinate columns over the ordered basis (X3, X4, X5) as ad_X2,
    with ad_X1 vanishing on the derived ideal;
  * group 4 lets the action matrix act on (X2, X3, X4, X5) as ad_X1;
  * rotation blocks take an exact unit-circle point (c, s), s > 0.

See the README's "Known findings" for verified facts about this catalog
that the checker surfaces (a non-MD family and four overlapping pairs).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .exact import MatrixQ, UnitPoint, parse_rational
from .lie_core import LieAlgebra

F = Fraction

FAMILY_IDS = (
    "5.1",
    "5.2.1", "5.2.2",
    "5.3.1", "5.3.2", "5.3.3", "5.3.4", "5.3.5", "5.3.6", "5.3.7", "5.3.8",
    "5.4.1", "5.4.2", "5.4.3", "5.4.4", "5.4.5", "5.4.6", "5.4.7", "5.4.8",
    "5.4.9", "5.4.10", "5.4.11", "5.4.12", "5.4.13", "5.4.14",
)
REJECTED_IDS = ("rejected.5.2.3", "rejected.3.2a")


class _FamilyParams(NamedTuple):
    lambdas: tuple[Fraction, ...]
    mu: Fraction | None
    angle: UnitPoint | None


class FamilyParams(_FamilyParams):
    """Parameter bundle: up to three lambdas, an optional mu and angle."""

    __slots__ = ()

    def __new__(cls, lambdas=(), mu=None, angle=None):
        return super().__new__(cls, tuple(map(Fraction, lambdas)),
                               None if mu is None else Fraction(mu), angle)

    def label(self) -> str:
        parts = []
        if len(self.lambdas) == 1:
            parts.append(f"l={self.lambdas[0]}")
        else:
            parts.extend(f"l{k + 1}={v}" for k, v in enumerate(self.lambdas))
        if self.mu is not None:
            parts.append(f"mu={self.mu}")
        if self.angle is not None:
            parts.append(f"angle={self.angle.c}:{self.angle.s}")
        return ",".join(parts)


def parse_params(text: str) -> FamilyParams:
    """Parse "l1=2,l2=3,mu=1,angle=3/5:4/5" (also "l=2" for one lambda), each
    parameter at most once."""
    given: dict[str, Fraction | UnitPoint] = {}
    text = text.strip()
    for chunk in text.split(",") if text else ():
        if "=" not in chunk:
            raise ValueError(f"bad parameter chunk {chunk!r}")
        key, _, value = chunk.partition("=")
        key = "l1" if key.strip() == "l" else key.strip()
        if key in given:
            raise ValueError(f"repeated parameter {chunk.strip()!r}")
        if key in ("l1", "l2", "l3", "mu"):
            given[key] = parse_rational(value.strip())
        elif key == "angle":
            c, _, s = value.strip().partition(":")
            given[key] = UnitPoint(parse_rational(c), parse_rational(s))
        else:
            raise ValueError(f"unknown parameter {key!r}")
    lambdas = tuple(given[f"l{k}"] for k in (1, 2, 3) if f"l{k}" in given)
    if any(f"l{k}" not in given for k in range(1, len(lambdas) + 1)):
        raise ValueError("lambda parameters must be l (or l1), l2, l3 without gaps")
    return FamilyParams(lambdas=lambdas, mu=given.get("mu"), angle=given.get("angle"))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

# (number of lambdas, needs mu, needs angle)
_ARITY = {
    "5.1": (0, False, False),
    "5.2.1": (0, False, False),
    "5.2.2": (1, False, False),
    "5.3.1": (2, False, False),
    "5.3.2": (1, False, False),
    "5.3.3": (1, False, False),
    "5.3.4": (0, False, False),
    "5.3.5": (1, False, False),
    "5.3.6": (1, False, False),
    "5.3.7": (0, False, False),
    "5.3.8": (1, False, True),
    "5.4.1": (3, False, False),
    "5.4.2": (2, False, False),
    "5.4.3": (1, False, False),
    "5.4.4": (1, False, False),
    "5.4.5": (0, False, False),
    "5.4.6": (2, False, False),
    "5.4.7": (1, False, False),
    "5.4.8": (1, False, False),
    "5.4.9": (1, False, False),
    "5.4.10": (0, False, False),
    "5.4.11": (2, False, True),
    "5.4.12": (1, False, True),
    "5.4.13": (1, False, True),
    "5.4.14": (1, True, True),
    "rejected.5.2.3": (0, False, False),
    "rejected.3.2a": (0, False, False),
}

# literal side conditions; each returns None when satisfied
_Clause = tuple[str, Callable[[FamilyParams], bool]]

_CONSTRAINTS: dict[str, list[_Clause]] = {
    "5.2.2": [("λ ≠ 0", lambda p: p.lambdas[0] != 0)],
    "5.3.1": [
        ("λ1 ≠ 1", lambda p: p.lambdas[0] != 1),
        ("λ2 ≠ 1", lambda p: p.lambdas[1] != 1),
        ("λ1 ≠ λ2", lambda p: p.lambdas[0] != p.lambdas[1]),
        ("λ2 ≠ 0", lambda p: p.lambdas[1] != 0),
    ],
    "5.3.2": [
        ("λ ≠ 0", lambda p: p.lambdas[0] != 0),
        ("λ ≠ 1", lambda p: p.lambdas[0] != 1),
    ],
    "5.3.3": [("λ ≠ 1", lambda p: p.lambdas[0] != 1)],
    "5.3.5": [("λ ≠ 1", lambda p: p.lambdas[0] != 1)],
    "5.3.6": [
        ("λ ≠ 0", lambda p: p.lambdas[0] != 0),
        ("λ ≠ 1", lambda p: p.lambdas[0] != 1),
    ],
    "5.3.8": [("λ ≠ 0", lambda p: p.lambdas[0] != 0)],
    "5.4.1": [
        ("λ1 ∉ {0, 1}", lambda p: p.lambdas[0] not in (0, 1)),
        ("λ2 ∉ {0, 1}", lambda p: p.lambdas[1] not in (0, 1)),
        ("λ3 ∉ {0, 1}", lambda p: p.lambdas[2] not in (0, 1)),
        ("λ1 ≠ λ2", lambda p: p.lambdas[0] != p.lambdas[1]),
        ("λ2 ≠ λ3", lambda p: p.lambdas[1] != p.lambdas[2]),
        ("λ3 ≠ λ1", lambda p: p.lambdas[2] != p.lambdas[0]),
    ],
    "5.4.2": [
        ("λ1 ∉ {0, 1}", lambda p: p.lambdas[0] not in (0, 1)),
        ("λ2 ∉ {0, 1}", lambda p: p.lambdas[1] not in (0, 1)),
        ("λ1 ≠ λ2", lambda p: p.lambdas[0] != p.lambdas[1]),
    ],
    "5.4.3": [("λ ∉ {0, 1}", lambda p: p.lambdas[0] not in (0, 1))],
    "5.4.4": [("λ ∉ {0, 1}", lambda p: p.lambdas[0] not in (0, 1))],
    "5.4.6": [
        ("λ1 ∉ {0, 1}", lambda p: p.lambdas[0] not in (0, 1)),
        ("λ2 ∉ {0, 1}", lambda p: p.lambdas[1] not in (0, 1)),
        ("λ1 ≠ λ2", lambda p: p.lambdas[0] != p.lambdas[1]),
    ],
    "5.4.7": [("λ ∉ {0, 1}", lambda p: p.lambdas[0] not in (0, 1))],
    "5.4.8": [("λ ∉ {0, 1}", lambda p: p.lambdas[0] not in (0, 1))],
    "5.4.9": [("λ ∉ {0, 1}", lambda p: p.lambdas[0] not in (0, 1))],
    "5.4.11": [
        ("λ1 ≠ 0", lambda p: p.lambdas[0] != 0),
        ("λ2 ≠ 0", lambda p: p.lambdas[1] != 0),
        ("λ1 ≠ λ2", lambda p: p.lambdas[0] != p.lambdas[1]),
    ],
    "5.4.12": [("λ ≠ 0", lambda p: p.lambdas[0] != 0)],
    "5.4.13": [("λ ≠ 0", lambda p: p.lambdas[0] != 0)],
    "5.4.14": [("μ > 0", lambda p: p.mu > 0)],
}


def validate_params(family_id: str, params: FamilyParams) -> str | None:
    """None when valid, else the first violated clause, verbatim."""
    if family_id not in _ARITY:
        raise ValueError(f"unknown family id {family_id!r}")
    n_lambda, needs_mu, needs_angle = _ARITY[family_id]
    if len(params.lambdas) != n_lambda:
        return f"expected {n_lambda} λ parameter(s), got {len(params.lambdas)}"
    if needs_mu and params.mu is None:
        return "μ required"
    if not needs_mu and params.mu is not None:
        return "μ not accepted"
    if needs_angle and params.angle is None:
        return "φ ∈ (0, π) required (angle)"
    if not needs_angle and params.angle is not None:
        return "angle not accepted"
    for clause, ok in _CONSTRAINTS.get(family_id, []):
        if not ok(params):
            return clause
    return None


# ---------------------------------------------------------------------------
# bracket tables
# ---------------------------------------------------------------------------

def _rotation(angle: UnitPoint) -> list[list[Fraction]]:
    return [[angle.c, -angle.s], [angle.s, angle.c]]


def action_matrix(family_id: str, params: FamilyParams) -> MatrixQ | None:
    """The defining ad matrix of a group-3 / group-4 family, or None."""
    L = params.lambdas
    A = params.angle
    z, o = F(0), F(1)
    tables = {
        "5.3.1": lambda: [[L[0], z, z], [z, L[1], z], [z, z, o]],
        "5.3.2": lambda: [[o, z, z], [z, o, z], [z, z, L[0]]],
        "5.3.3": lambda: [[L[0], z, z], [z, o, z], [z, z, o]],
        "5.3.4": lambda: [[o, z, z], [z, o, z], [z, z, o]],
        "5.3.5": lambda: [[L[0], z, z], [z, o, o], [z, z, o]],
        "5.3.6": lambda: [[o, o, z], [z, o, z], [z, z, L[0]]],
        "5.3.7": lambda: [[o, o, z], [z, o, o], [z, z, o]],
        "5.3.8": lambda: [row + [z] for row in _rotation(A)] + [[z, z, L[0]]],
        "5.4.1": lambda: [[L[0], z, z, z], [z, L[1], z, z], [z, z, L[2], z], [z, z, z, o]],
        "5.4.2": lambda: [[L[0], z, z, z], [z, L[1], z, z], [z, z, o, z], [z, z, z, o]],
        "5.4.3": lambda: [[L[0], z, z, z], [z, L[0], z, z], [z, z, o, z], [z, z, z, o]],
        "5.4.4": lambda: [[L[0], z, z, z], [z, o, z, z], [z, z, o, z], [z, z, z, o]],
        "5.4.5": lambda: [[o, z, z, z], [z, o, z, z], [z, z, o, z], [z, z, z, o]],
        "5.4.6": lambda: [[L[0], z, z, z], [z, L[1], z, z], [z, z, o, o], [z, z, z, o]],
        "5.4.7": lambda: [[L[0], z, z, z], [z, L[0], z, z], [z, z, o, o], [z, z, z, o]],
        "5.4.8": lambda: [[L[0], o, z, z], [z, L[0], z, z], [z, z, o, o], [z, z, z, o]],
        "5.4.9": lambda: [[L[0], z, z, z], [z, o, o, z], [z, z, o, o], [z, z, z, o]],
        "5.4.10": lambda: [[o, o, z, z], [z, o, o, z], [z, z, o, o], [z, z, z, o]],
        "5.4.11": lambda: [row + [z, z] for row in _rotation(A)]
        + [[z, z, L[0], z], [z, z, z, L[1]]],
        "5.4.12": lambda: [row + [z, z] for row in _rotation(A)]
        + [[z, z, L[0], z], [z, z, z, L[0]]],
        "5.4.13": lambda: [row + [z, z] for row in _rotation(A)]
        + [[z, z, L[0], o], [z, z, z, L[0]]],
        "5.4.14": lambda: [row + [z, z] for row in _rotation(A)]
        + [[z, z, L[0], -params.mu], [z, z, params.mu, L[0]]],
    }
    maker = tables.get(family_id)
    return MatrixQ(maker()) if maker else None


def _group3_brackets(matrix: MatrixQ):
    # [X1, X2] = X3; columns of the matrix give [X2, X_{3+c}] over (X3, X4, X5)
    entries = [(1, 2, {3: F(1)})]
    for c in range(3):
        coeffs = {3 + r: matrix.data[r][c] for r in range(3) if matrix.data[r][c] != 0}
        if coeffs:
            entries.append((2, 3 + c, coeffs))
    return entries


def _group4_brackets(matrix: MatrixQ):
    # columns give [X1, X_{2+c}] over (X2, X3, X4, X5)
    entries = []
    for c in range(4):
        coeffs = {2 + r: matrix.data[r][c] for r in range(4) if matrix.data[r][c] != 0}
        if coeffs:
            entries.append((1, 2 + c, coeffs))
    return entries


def build(family_id: str, params: FamilyParams = FamilyParams()) -> LieAlgebra:
    """Construct a catalog instance; parameters are validated first."""
    violation = validate_params(family_id, params)
    if violation is not None:
        raise ValueError(f"invalid parameters for {family_id}: {violation}")
    if family_id == "5.1":
        entries = [(1, 2, {5: F(1)}), (3, 4, {5: F(1)})]
    elif family_id == "5.2.1":
        entries = [(1, 2, {4: F(1)}), (2, 3, {5: F(1)})]
    elif family_id == "5.2.2":
        entries = [(1, 2, {5: F(1)}), (3, 4, {5: F(1)}),
                   (2, 3, {4: params.lambdas[0]})]
    elif family_id == "rejected.5.2.3":
        entries = [(1, 2, {5: F(1)}), (3, 4, {4: F(1)})]
    elif family_id == "rejected.3.2a":
        # ad_X1 = diag(1, 2, 0) and ad_X2 = diag(2, 3, 1) on (X3, X4, X5),
        # with [X1, X2] = 0: one concrete witness of the rejected shape
        entries = [(1, 3, {3: F(1)}), (1, 4, {4: F(2)}),
                   (2, 3, {3: F(2)}), (2, 4, {4: F(3)}), (2, 5, {5: F(1)})]
    elif family_id.startswith("5.3."):
        entries = _group3_brackets(action_matrix(family_id, params))
    elif family_id.startswith("5.4."):
        entries = _group4_brackets(action_matrix(family_id, params))
    else:
        raise ValueError(f"unknown family id {family_id!r}")
    return LieAlgebra.from_brackets(5, entries)


# ---------------------------------------------------------------------------
# deterministic default samples
# ---------------------------------------------------------------------------

_L_SAMPLES = (F(2), F(-3))
_ANGLE_SAMPLES = (UnitPoint(F(3, 5), F(4, 5)), UnitPoint(F(-3, 5), F(4, 5)))


def default_samples() -> list[tuple[str, FamilyParams]]:
    """Deterministic parameter samples covering every family.

    Parameter-free families appear once; one-lambda families at 2 and -3;
    two-lambda families at (2, 3); the three-lambda family at (2, 3, 5);
    angles at (3/5, 4/5) and (-3/5, 4/5); mu at 1.  The two rejected
    specimens are appended at the end.
    """
    out: list[tuple[str, FamilyParams]] = []
    for fid in FAMILY_IDS:
        n_lambda, needs_mu, needs_angle = _ARITY[fid]
        mu = F(1) if needs_mu else None
        if n_lambda == 0 and not needs_angle:
            out.append((fid, FamilyParams()))
        elif n_lambda == 1:
            for lam, angle in zip(_L_SAMPLES, _ANGLE_SAMPLES):
                out.append((fid, FamilyParams(
                    lambdas=(lam,), mu=mu,
                    angle=angle if needs_angle else None)))
        elif n_lambda == 2 and needs_angle:
            for angle in _ANGLE_SAMPLES:
                out.append((fid, FamilyParams(lambdas=(F(2), F(3)), angle=angle)))
        elif n_lambda == 2:
            out.append((fid, FamilyParams(lambdas=(F(2), F(3)))))
        elif n_lambda == 3:
            out.append((fid, FamilyParams(lambdas=(F(2), F(3), F(5)))))
        else:
            raise AssertionError(f"unhandled arity for {fid}")
    for fid in REJECTED_IDS:
        out.append((fid, FamilyParams()))
    return out


def sample_label(family_id: str, params: FamilyParams) -> str:
    text = params.label()
    return f"{family_id}({text})" if text else family_id
