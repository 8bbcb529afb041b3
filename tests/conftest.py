import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from gavindex.gav_core import make_data
from gavindex.polyhedra import cone_from_generators, intersect, relative_interior_point


@pytest.fixture
def worked():
    """Running example: two blocks of size 2 and 1, one extra row.

    P has columns (-2,-2,-1), (-1,-1,-2), (2,0,1), (0,3,2).
    """
    return make_data(
        r=2,
        c=1,
        n=(2, 1, 1),
        m=0,
        l=((2, 1), (2,), (3,)),
        A=((-1, 1, 0), (-1, 0, 1)),
        D=((-1, -2, 1, 2),),
    )


@dataclass(frozen=True)
class LinealityReport:
    meets_relint: bool
    slice_dim: int
    expected_dim: int

    @property
    def full(self) -> bool:
        return self.slice_dim == self.expected_dim


def _lineality_cone(trop):
    """The common lineality space of the leaves: the last s coordinates."""
    lin = [tuple(int(k == trop.r + j) for k in range(trop.ambient)) for j in range(trop.s)]
    return cone_from_generators((), lineality=lin, ambient=trop.ambient)


@pytest.fixture
def lineality_cone():
    return _lineality_cone


def _check_big_cone_lineality(trop, cone) -> LinealityReport:
    """How a big cone intersects the common lineality space of the leaves."""
    common = intersect(cone, _lineality_cone(trop))
    return LinealityReport(
        meets_relint=cone.relint_contains(relative_interior_point(common)),
        slice_dim=common.dim,
        expected_dim=trop.s,
    )


@pytest.fixture
def check_big_cone_lineality():
    return _check_big_cone_lineality


# Entry pools of bench/gen.py's random documents: parameters t for the
# Vandermonde matrix A, exponents l and free rows D.
_T_POOL = tuple(Fraction(t) for t in (0, 1, -1, 2, -2, "1/2", "-1/2", 3))


def _random_document(rng: random.Random, r: int, c: int, s: int, n, m: int) -> dict:
    """A random document of one shape (r, c, s, n, m), drawn as bench/gen.py draws it."""
    l = [[rng.choice((1, 1, 2, 2, 3, 4)) for _ in range(ni)] for ni in n]
    ts = rng.sample(_T_POOL, r + 1)
    A = [[str(t**k) for t in ts] for k in range(c + 1)]
    D = [
        [rng.choice((-2, -1, -1, 0, 0, 1, 1, 2)) for _ in range(sum(n) + m)]
        for _ in range(s)
    ]
    return {"r": r, "c": c, "n": list(n), "m": m, "l": l, "A": A, "D": D}


@pytest.fixture
def random_document():
    return _random_document
