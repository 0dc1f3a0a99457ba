import random
from fractions import Fraction

import pytest

from liemd.catalog import build, default_samples, sample_label
from liemd.exact import MatrixQ


@pytest.fixture(scope="session")
def catalog_samples():
    """Every default sample as (label, family id, params, built algebra)."""
    return [(sample_label(fid, p), fid, p, build(fid, p))
            for fid, p in default_samples()]


@pytest.fixture(scope="session")
def catalog_algebras(catalog_samples):
    return [(label, g) for label, _, _, g in catalog_samples]


def random_invertible(rng: random.Random, n: int, span: int = 2) -> MatrixQ:
    while True:
        m = MatrixQ([[rng.randint(-span, span) for _ in range(n)] for _ in range(n)])
        try:
            m.inverse()
            return m
        except ValueError:
            continue


def random_rational(rng: random.Random, num: int = 5, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def hidden_523():
    """rejected.5.2.3 in the basis P = Q^-T, where the rows of Q are e1, e2,
    e3, (1, 10, 100, 1000, 10000) and (1, -10, 100, -1000, 10000).

    Its rank-2 covectors are those with f4 = 0 or f5 = 0 off ann(G^1).  In
    this basis f4 and f5 are the last two rows of Q against F', and no
    nonzero box point of radius at most 9 zeroes either, so a grid sees
    rank 4 only and ``md_check`` says Inconclusive where the catalog
    presentation gives NotMD.
    """
    q = MatrixQ([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                 [1, 10, 100, 1000, 10000], [1, -10, 100, -1000, 10000]])
    return build("rejected.5.2.3").change_of_basis(q.inverse().transpose())
