"""Tests for the exact cone and fan layer.

Fixtures involving the 3-dimensional cones below were worked out by hand:
sigma1 = cone(v01, v11, v21), sigma2 = cone(v02, v11, v21) and
sigma3 = cone(v01, v02) for the columns of

    P = [[-2, -1, 2, 0],
         [-2, -1, 0, 3],
         [-1, -2, 1, 2]]
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from gavindex.errors import NotQGorenstein
from gavindex.polyhedra import (
    Cell,
    cone_from_generators,
    cone_from_inequalities,
    contains_cone,
    facets,
    intersect,
    is_complete,
    is_face,
    level_cut,
    make_fan,
    refine_fan,
    relative_interior_point,
    toric_gorenstein_index,
    truncate,
    zero_cone,
)

V01 = (-2, -2, -1)
V02 = (-1, -1, -2)
V11 = (2, 0, 1)
V21 = (0, 3, 2)

SIGMA1 = cone_from_generators([V01, V11, V21])
SIGMA2 = cone_from_generators([V02, V11, V21])
SIGMA3 = cone_from_generators([V01, V02])
TAU_A = cone_from_generators([V01, V02, V21])
TAU_B = cone_from_generators([V01, V02, V11])

# arrangement leaves in dimension 3 with a one-dimensional lineality part
LAMBDA0 = cone_from_generators([(-1, -1, 0)], lineality=[(0, 0, 1)])
LAMBDA1 = cone_from_generators([(1, 0, 0)], lineality=[(0, 0, 1)])
LAMBDA2 = cone_from_generators([(0, 1, 0)], lineality=[(0, 0, 1)])


def test_orthant_normals():
    c = cone_from_generators([(1, 0), (0, 1)])
    assert c.normals == ((0, 1), (1, 0))
    assert c.equations == ()
    assert c.rays == ((0, 1), (1, 0))
    assert c.is_pointed


def test_skew_cone_normals():
    c = cone_from_generators([(1, 0), (1, 2)])
    assert set(c.normals) == {(0, 1), (2, -1)}


def test_full_space_has_no_constraints():
    c = cone_from_generators([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert c.normals == ()
    assert c.equations == ()
    assert c.lineality == ((1, 0), (0, 1))
    assert c.rays == ()


def test_zero_cone():
    c = zero_cone(3)
    assert c.dim == 0
    assert c.rays == ()
    assert len(c.equations) == 3


def test_redundant_generator_dropped():
    c = cone_from_generators([(1, 0), (1, 1), (0, 1)])
    assert c.rays == ((0, 1), (1, 0))


def test_generator_order_and_scaling_invariance():
    a = cone_from_generators([(2, 0), (1, 3)])
    b = cone_from_generators([(1, 3), (4, 0)])
    assert a == b
    assert hash(a) == hash(b)


def test_hrep_vrep_round_trip():
    c = cone_from_inequalities([(1, 0), (0, 1)])
    assert c == cone_from_generators([(1, 0), (0, 1)])
    d = cone_from_inequalities([], [(0, 0, 1)], ambient=3)
    assert d.lineality == ((1, 0, 0), (0, 1, 0))
    assert d.equations == ((0, 0, 1),)


def test_halfplane_canonical_between_reps():
    a = cone_from_generators([(1, 0)], lineality=[(0, 1)])
    b = cone_from_generators([(1, 5)], lineality=[(0, 1)])
    c = cone_from_inequalities([(1, 0)])
    assert a == b == c
    assert a.rays == ((1, 0),)


def test_lower_dimensional_cone():
    c = cone_from_generators([V01, V02])
    assert c.dim == 2
    assert c.equations == ((1, -1, 0),)
    assert set(c.rays) == {V01, V02}


def test_contains_and_relint():
    assert SIGMA1.contains(V01)
    assert SIGMA1.contains((0, 0, 0))
    p = relative_interior_point(SIGMA1)
    assert SIGMA1.relint_contains(p)
    assert not SIGMA1.relint_contains(V01)
    q = relative_interior_point(SIGMA3)
    assert SIGMA3.relint_contains(q)
    assert not SIGMA1.contains((0, 0, -1))


def test_intersection_sigma1_leaf2():
    got = intersect(SIGMA1, LAMBDA2)
    expected = cone_from_generators([V21, (0, 0, 1)])
    assert got == expected


def test_intersection_sigma1_leaf1():
    got = intersect(SIGMA1, LAMBDA1)
    assert got == cone_from_generators([V11, (0, 0, 1)])


def test_intersection_sigma2_leaf0():
    got = intersect(SIGMA2, LAMBDA0)
    assert got == cone_from_generators([V02, (0, 0, -1)])


def test_intersection_by_membership_sampling():
    rng = random.Random(7)
    got = intersect(SIGMA1, LAMBDA2)
    for _ in range(100):
        coeffs = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(2)]
        pt = tuple(
            coeffs[0] * a + coeffs[1] * b for a, b in zip(V21, (0, 0, 1))
        )
        assert got.contains(pt)
        assert SIGMA1.contains(pt) and LAMBDA2.contains(pt)
    for _ in range(100):
        coeffs = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(3)]
        pt = tuple(
            coeffs[0] * a + coeffs[1] * b + coeffs[2] * c
            for a, b, c in zip(V01, V11, V21)
        )
        assert got.contains(pt) == (SIGMA1.contains(pt) and LAMBDA2.contains(pt))


def test_face_recognition():
    orthant = cone_from_generators([(1, 0), (0, 1)])
    edge = cone_from_generators([(1, 0)])
    diag = cone_from_generators([(1, 1)])
    assert is_face(edge, orthant)
    assert is_face(zero_cone(2), orthant)
    assert is_face(orthant, orthant)
    assert not is_face(diag, orthant)
    assert contains_cone(orthant, diag)


def test_facets_of_simplicial_cone():
    fs = facets(SIGMA1)
    assert len(fs) == 3
    for f in fs:
        assert f.dim == 2
        assert is_face(f, SIGMA1)


def test_fan_validation_rejects_overlap():
    a = cone_from_generators([(1, 0), (0, 1)])
    b = cone_from_generators([(1, 1), (-1, 1)])
    with pytest.raises(ValueError):
        make_fan([a, b])


def test_raw_ample_fan_is_complete():
    fan = make_fan([SIGMA1, SIGMA2, TAU_A, TAU_B])
    assert is_complete(fan)


def test_pruned_fan_is_not_complete():
    fan = make_fan([SIGMA1, SIGMA2, SIGMA3])
    assert not is_complete(fan)


def test_one_dimensional_complete_fan():
    pos = cone_from_generators([(1,)])
    neg = cone_from_generators([(-1,)])
    assert is_complete(make_fan([pos, neg]))
    assert not is_complete(make_fan([pos]))


def test_halfspace_is_not_complete():
    half = cone_from_generators([(1, 0)], lineality=[(0, 1)])
    assert not is_complete(make_fan([half]))


def test_refine_fan_splits_along_leaves():
    fan = make_fan([SIGMA1, SIGMA2, SIGMA3])
    refined = refine_fan(fan, [LAMBDA0, LAMBDA1, LAMBDA2])
    assert len(refined.maximal) == 7
    for c in refined.maximal:
        assert any(
            contains_cone(parent, c) for parent in (SIGMA1, SIGMA2, SIGMA3)
        )
        assert any(
            contains_cone(leaf, c) for leaf in (LAMBDA0, LAMBDA1, LAMBDA2)
        )


def test_truncate_single_ray():
    c = cone_from_generators([V21])
    u = (Fraction(0), Fraction(0), Fraction(-1, 2))
    cell = truncate(c, u)
    zero = (Fraction(0), Fraction(0), Fraction(0))
    assert set(cell.vertices) == {zero, (Fraction(0), Fraction(3), Fraction(2))}
    assert cell.rays == ()


def test_truncate_keeps_zero_level_rays():
    c = cone_from_generators([(1, 0), (0, -1)])
    cell = truncate(c, (0, 1))
    assert cell.rays == ((1, 0),)
    assert set(cell.vertices) == {
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(-1)),
    }


def test_truncate_keeps_positive_directions_as_rays():
    # the form is positive along (1, 0), so nothing clips that side and
    # the result is an unbounded wedge with a single vertex on the cut
    c = cone_from_generators([(1, 0), (0, -1)])
    cell = truncate(c, (1, 1))
    assert set(cell.vertices) == {
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(-1)),
    }
    assert set(cell.rays) == {(1, 0), (1, -1)}
    assert cell.lineality == ()


def test_truncate_cuts_across_lineality():
    c = cone_from_generators([(1, 0)], lineality=[(0, 1)])
    cell = truncate(c, (0, -1))
    assert cell.vertices == ((Fraction(0), Fraction(1)),)
    assert set(cell.rays) == {(0, -1), (1, 0)}
    assert cell.lineality == ()


def test_level_cut_matches_truncate_roof():
    c = cone_from_generators([V21])
    u = (Fraction(0), Fraction(0), Fraction(-1, 2))
    roof = level_cut(c, u)
    assert roof is not None
    assert roof.vertices == ((Fraction(0), Fraction(3), Fraction(2)),)
    assert roof.rays == () and roof.lineality == ()


def test_level_cut_empty_when_form_nonnegative():
    c = cone_from_generators([(1, 0), (0, 1)])
    assert level_cut(c, (1, 0)) is None


def _projective_plane_fan():
    e1, e2, anti = (1, 0), (0, 1), (-1, -1)
    return make_fan(
        [
            cone_from_generators([e1, e2]),
            cone_from_generators([e1, anti]),
            cone_from_generators([e2, anti]),
        ]
    )


def _weighted_fan(w: int):
    e1, e2, anti = (1, 0), (0, 1), (-1, -w)
    return make_fan(
        [
            cone_from_generators([e1, e2]),
            cone_from_generators([e1, anti]),
            cone_from_generators([e2, anti]),
        ]
    )


def test_toric_index_projective_plane():
    assert toric_gorenstein_index(_projective_plane_fan()) == 1


def test_toric_index_product_of_lines():
    cones = [
        cone_from_generators([(a, 0), (0, b)])
        for a in (1, -1)
        for b in (1, -1)
    ]
    fan = make_fan(cones)
    assert is_complete(fan)
    assert toric_gorenstein_index(fan) == 1


def test_toric_index_weighted_fan_against_scan():
    from gavindex.exactla import min_integral_multiplier

    for w in (2, 3, 4, 5, 6):
        fan = _weighted_fan(w)
        got = toric_gorenstein_index(fan)
        per_cone = []
        for c in fan.maximal:
            target = tuple(-1 for _ in c.rays)
            first = next(
                (
                    t
                    for t in range(1, 100)
                    if min_integral_multiplier(c.rays, tuple(t * x for x in target))
                    == 1
                ),
                None,
            )
            per_cone.append(first)
        import math

        assert got == math.lcm(*per_cone)


def test_toric_index_weighted_values():
    assert toric_gorenstein_index(_weighted_fan(3)) == 3
    assert toric_gorenstein_index(_weighted_fan(4)) == 2
    assert toric_gorenstein_index(_weighted_fan(2)) == 1


def test_cell_key_is_order_insensitive():
    a = Cell(2, ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))))
    b = Cell(2, ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))))
    assert a.key() == b.key()


# ---------------------------------------------------------------------------
# facet enumeration against a reference with its own Fraction elimination


def _nullspace(rows, d):
    """Basis of {x : <r, x> = 0 for all rows}, by reduced row echelon form over Fraction."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for col in range(d):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [a / m[r][col] for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    basis = []
    for free in (j for j in range(d) if j not in pivots):
        x = [Fraction(0)] * d
        x[free] = Fraction(1)
        for i, col in enumerate(pivots):
            x[col] = -m[i][free]
        basis.append(x)
    return basis


def _ref_rank(rows, d) -> int:
    return d - len(_nullspace(rows, d))


def _pairing(u, g):
    return sum(Fraction(a) * b for a, b in zip(u, g))


def _reference_facets(pool, d):
    """Tight-set signatures of all facets of cone(pool), by trying every (dim-1)-subset."""
    complement = _nullspace(pool, d)
    dim = d - len(complement)
    found = set()
    for subset in itertools.combinations(pool, dim - 1):
        # forms inside the span that vanish on the subset
        space = _nullspace(list(subset) + complement, d)
        if len(space) != 1:
            continue
        u = space[0]
        values = [_pairing(u, g) for g in pool]
        if all(v >= 0 for v in values) or all(v <= 0 for v in values):
            found.add(frozenset(i for i, v in enumerate(values) if v == 0))
    return dim, found


def _random_pool(rng, d):
    """Generators and lineality lines of a random cone, often lower dimensional."""
    k = rng.randint(1, d)
    frame = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]

    def vector():
        return tuple(
            sum(rng.randint(-2, 2) * f[j] for f in frame) for j in range(d)
        )

    gens = [vector() for _ in range(rng.randint(1, d + 2))]
    lines = [vector() for _ in range(rng.choice((0, 0, 1, 2)))]
    return [g for g in gens if any(g)], [v for v in lines if any(v)]


def test_facet_enumeration_against_reference():
    rng = random.Random(48)
    checked = {"lower_dim": 0, "lineality": 0, "facets": 0}
    for _ in range(120):
        d = rng.randint(2, 5)
        gens, lines = _random_pool(rng, d)
        if not gens and not lines:
            continue
        c = cone_from_generators(gens, lineality=lines, ambient=d)
        pool = gens + lines + [tuple(-x for x in v) for v in lines]
        dim, expected = _reference_facets(pool, d)
        assert c.dim == dim
        got = set()
        for nu in c.normals:
            values = [_pairing(nu, g) for g in pool]
            # each normal is nonnegative on every generator
            assert all(v >= 0 for v in values)
            tight = [g for g, v in zip(pool, values) if v == 0]
            # its tight generators span a face of dimension dim - 1
            assert _ref_rank(tight, d) == dim - 1
            got.add(frozenset(i for i, v in enumerate(values) if v == 0))
        # no facet is missing and none is counted twice
        assert got == expected
        assert len(c.normals) == len(expected)
        checked["lower_dim"] += dim < d
        checked["lineality"] += bool(c.lineality)
        checked["facets"] += len(expected)
    assert min(checked.values()) > 10, checked
