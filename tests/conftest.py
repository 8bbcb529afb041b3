from dataclasses import dataclass

import pytest

from gavindex.gav_core import make_data
from gavindex.polyhedra import intersect, relative_interior_point


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


def _check_big_cone_lineality(trop, cone) -> LinealityReport:
    """How a big cone intersects the common lineality space of the leaves."""
    common = intersect(cone, trop.lineality_cone)
    return LinealityReport(
        meets_relint=cone.relint_contains(relative_interior_point(common)),
        slice_dim=common.dim,
        expected_dim=trop.s,
    )


@pytest.fixture
def check_big_cone_lineality():
    return _check_big_cone_lineality
