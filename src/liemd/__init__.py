"""Exact-arithmetic analysis of low-dimensional solvable Lie algebras.

The package represents real Lie algebras by rational structure constants,
computes coadjoint orbit dimensions as ranks of the Kirillov form, decides
the MD property (all orbits of dimension zero or one fixed even maximum)
with machine-checkable certificates, and ships a catalog of 5-dimensional
algebras with commutative derived ideals together with separation and
isomorphism tooling.
"""

from .exact import (
    MatrixQ,
    UnitPoint,
    frobenius_form,
    mat_rank,
    pfaffian4,
)
from .lie_core import LieAlgebra, Subspace
from .kirillov import (
    GridSpec,
    MDVerdict,
    b_form_at,
    b_form_symbolic,
    md_check,
    nonvanishing_maximality_check,
    orbit_dim,
    pfaffian_system,
    rank_profile,
)
from .catalog import FamilyParams, build, default_samples, validate_params
from .invariants import Fingerprint, fingerprint, iso_test_codim1, separation_matrix

__version__ = "0.1.0"

__all__ = [
    "FamilyParams",
    "Fingerprint",
    "GridSpec",
    "LieAlgebra",
    "MDVerdict",
    "MatrixQ",
    "Subspace",
    "UnitPoint",
    "b_form_at",
    "b_form_symbolic",
    "build",
    "default_samples",
    "fingerprint",
    "frobenius_form",
    "iso_test_codim1",
    "mat_rank",
    "md_check",
    "nonvanishing_maximality_check",
    "orbit_dim",
    "pfaffian4",
    "pfaffian_system",
    "rank_profile",
    "separation_matrix",
    "validate_params",
]
