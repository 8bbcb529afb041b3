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
import math
import random
from fractions import Fraction

import pytest

from gavindex.acomplex import lattice_distance
from gavindex.errors import DegenerateCell, NotLatticeMeasurable, NotQGorenstein
from gavindex.exactla import (
    clear_denominators,
    complement_projector,
    dot,
    identity,
    integer_kernel,
    lattice_key,
    primitive,
    rank,
    solve_rational,
)
from gavindex.gav_core import degree_map, make_data, moving_cone, validate
from gavindex.polyhedra import (
    Cell,
    _canonical_ray,
    _direct_cut,
    _lifted_cut,
    check_fan,
    cone_from_generators,
    cone_from_inequalities,
    contains_cone,
    facets,
    intersect,
    is_complete,
    is_face,
    level_cut,
    make_fan,
    maximal_cones,
    relative_interior_point,
    toric_gorenstein_index,
    truncate,
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
    c = cone_from_generators((), ambient=3)
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
    assert is_face(cone_from_generators((), ambient=2), orthant)
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
    # make_fan only builds; the face condition is check_fan's
    fan = make_fan([a, b])
    with pytest.raises(ValueError, match="common faces"):
        check_fan(fan)


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


def test_truncate_single_ray():
    c = cone_from_generators([V21])
    cell = truncate(c, (0, 0, -1), 2)
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
    roof = level_cut(truncate(c, (0, 0, -1), 2), (0, 0, -1))
    assert roof is not None
    assert roof.vertices == ((Fraction(0), Fraction(3), Fraction(2)),)
    assert roof.rays == () and roof.lineality == ()


def test_level_cut_empty_when_form_nonnegative():
    c = cone_from_generators([(1, 0), (0, 1)])
    assert level_cut(truncate(c, (1, 0)), (1, 0)) is None


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
    """Facets of cone(pool), by trying every (dim-1)-subset.

    Returns the dimension, a basis of the orthogonal complement of the
    span, and for each facet its tight-set signature (indices into the
    pool) mapped to a form that is nonnegative on the pool.
    """
    complement = _nullspace(pool, d)
    dim = d - len(complement)
    found = {}
    for subset in itertools.combinations(pool, dim - 1):
        # forms inside the span that vanish on the subset
        space = _nullspace(list(subset) + complement, d)
        if len(space) != 1:
            continue
        u = space[0]
        values = [_pairing(u, g) for g in pool]
        if all(v <= 0 for v in values):
            u = [-x for x in u]
        elif not all(v >= 0 for v in values):
            continue
        found.setdefault(frozenset(i for i, v in enumerate(values) if v == 0), u)
    return dim, complement, found


def _det(m):
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def _is_saturated(basis, d) -> bool:
    """Whether the integer basis spans every integer point of its span: its maximal minors have gcd 1."""
    k = len(basis)
    g = 0
    for cols in itertools.combinations(range(d), k):
        g = math.gcd(g, _det([[row[j] for j in cols] for row in basis]))
    return g == 1


def _reference_contains(x, complement, forms) -> bool:
    return all(_pairing(e, x) == 0 for e in complement) and all(
        _pairing(u, x) >= 0 for u in forms
    )


def _random_pool(rng, d):
    """Generators and lineality lines of a random cone, often lower dimensional."""
    k = rng.randint(1, d)
    frame = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]

    def vector():
        return tuple(
            sum(rng.randint(-2, 2) * f[j] for f in frame) for j in range(d)
        )

    gens = [vector() for _ in range(rng.randint(1, d + 4))]
    lines = [vector() for _ in range(rng.choice((0, 0, 1, 2)))]
    return [g for g in gens if any(g)], [v for v in lines if any(v)]


def _random_cones(seed, count):
    """Seeded random cones of dimension 1-6 with their generators, lines and pool."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, 6)
        gens, lines = _random_pool(rng, d)
        if not gens and not lines:
            continue
        c = cone_from_generators(gens, lineality=lines, ambient=d)
        pool = gens + lines + [tuple(-x for x in v) for v in lines]
        out.append((d, c, pool))
    return out


def test_facet_enumeration_against_reference():
    checked = {"lower_dim": 0, "lineality": 0, "facets": 0, "rays": 0}
    for d, c, pool in _random_cones(48, 120):
        dim, complement, expected = _reference_facets(pool, d)
        forms = list(expected.values())
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
        assert got == set(expected)
        assert len(c.normals) == len(expected)

        lin = d - _ref_rank(complement + forms, d)
        assert len(c.lineality) == lin
        # lineality and equations are bases of saturated lattices
        assert _is_saturated(c.lineality, d) and _is_saturated(c.equations, d)
        for line in c.lineality:
            assert _reference_contains(line, complement, forms)
            assert all(_pairing(u, line) == 0 for u in forms)

        def on_face(x):
            """Pool indices on the smallest face containing x."""
            zero = [u for u in forms if _pairing(u, x) == 0]
            return frozenset(
                i for i, g in enumerate(pool) if all(_pairing(u, g) == 0 for u in zero)
            )

        got_rays = set()
        for ray in c.rays:
            assert _reference_contains(ray, complement, forms)
            face = on_face(ray)
            # its tight generators span a face of dimension lin + 1
            assert _ref_rank([pool[i] for i in face], d) == lin + 1
            got_rays.add(face)
        # every extreme ray is spanned by a generator modulo the lineality
        expected_rays = {
            face
            for face in map(on_face, pool)
            if _ref_rank([pool[i] for i in face], d) == lin + 1
        }
        assert got_rays == expected_rays
        assert len(c.rays) == len(expected_rays)
        checked["lower_dim"] += dim < d
        checked["lineality"] += bool(c.lineality)
        checked["facets"] += len(expected)
        checked["rays"] += len(expected_rays)
    assert min(checked.values()) > 10, checked


def test_round_trips_through_both_descriptions():
    for d, c, _ in _random_cones(51, 150):
        assert cone_from_inequalities(c.normals, c.equations, ambient=d) == c
        assert cone_from_generators(c.generators(), ambient=d) == c


def test_intersect_membership_against_reference():
    rng = random.Random(52)
    cones = _random_cones(53, 160)
    inside = outside = 0
    for (d, a, pool_a), (e, b, pool_b) in zip(cones[::2], cones[1::2]):
        if d != e:
            continue
        got = intersect(a, b)
        refs = []
        for pool in (pool_a, pool_b):
            _, complement, facets_ref = _reference_facets(pool, d)
            refs.append((complement, list(facets_ref.values())))
        points = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(20)]
        for pool in (pool_a, pool_b):
            for _ in range(10):
                picked = rng.sample(pool, rng.randint(1, len(pool)))
                points.append(tuple(sum(col) for col in zip(*picked)))
        points.extend(got.generators())
        for x in points:
            expected = all(_reference_contains(x, *ref) for ref in refs)
            assert got.contains(x) == expected
            inside += expected
            outside += not expected
    assert inside > 100 and outside > 100, (inside, outside)


def test_moving_cone_of_nine_columns_against_reference():
    # r = 2 with nine columns: free rank 6, the intersection of nine cones
    # on eight degree vectors each
    data = make_data(
        r=2,
        c=1,
        n=(3, 3, 3),
        m=0,
        l=((1, 3, 1), (1, 1, 3), (2, 2, 1)),
        A=((-1, 1, 0), (-1, 0, 1)),
        D=((0, 2, 2, -3, 2, 1, -3, -1, -2),),
    )
    assert validate(data) == []
    mov = moving_cone(data)
    degrees = [w.free for w in degree_map(data).degrees]
    d = len(degrees[0])
    assert d == 6 and mov.is_full_dim and mov.is_pointed
    forms = []
    for drop in range(len(degrees)):
        pool = [w for j, w in enumerate(degrees) if j != drop]
        _, complement, facets_ref = _reference_facets(pool, d)
        assert complement == []
        forms.extend(facets_ref.values())
    for ray in mov.rays:
        # every ray lies in each cone and is extreme in their intersection
        assert all(_pairing(u, ray) >= 0 for u in forms)
        assert _ref_rank([u for u in forms if _pairing(u, ray) == 0], d) == d - 1
    for nu in mov.normals:
        # every facet lies on a facet of one of the cones, so the
        # intersection satisfies it too
        tight = [ray for ray in mov.rays if _pairing(nu, ray) == 0]
        assert _ref_rank(tight, d) == d - 1
        assert any(all(_pairing(u, ray) == 0 for ray in tight) for u in forms)


# Rational reference for the integer cut and distance paths: the
# Fraction versions of truncate, the level cut and lattice_distance that
# the integer ones replaced, kept here as the oracle.  The direct cut
# keeps the zero vertex on cones with lineality too, as the lifted cut
# does: the origin is a point of every truncation.


def _ref_direct_cut(c, u, equality):
    if any(dot(u, line) != 0 for line in c.lineality):
        return None
    vertices, rays = [], []
    for g in c.rays:
        val = dot(u, g)
        if val > 0:
            return None
        if val == 0:
            rays.append(g)
        else:
            scale = Fraction(-1, 1) / Fraction(val)
            vertices.append(tuple(scale * x for x in g))
    if equality:
        if not vertices:
            return Cell(c.ambient, (), (), ())
    else:
        vertices.append(tuple(Fraction(0) for _ in range(c.ambient)))
    return Cell(c.ambient, tuple(sorted(vertices)), tuple(sorted(rays)), c.lineality)


def _ref_homogeneous_cut(c, u, equality):
    direct = _ref_direct_cut(c, u, equality)
    if direct is not None:
        return direct
    den = math.lcm(*(Fraction(x).denominator for x in u)) if u else 1
    w = tuple(int(Fraction(x) * den) for x in u)
    zero = tuple(0 for _ in range(c.ambient))
    normals = [nu + (0,) for nu in c.normals]
    normals.append(zero + (1,))
    equations = [e + (0,) for e in c.equations]
    if equality:
        equations.append(w + (den,))
    else:
        normals.append(w + (den,))
    lifted = cone_from_inequalities(normals, equations, ambient=c.ambient + 1)
    vertices, rays = [], []
    for g in lifted.rays:
        if g[-1] > 0:
            vertices.append(tuple(Fraction(x) / Fraction(g[-1]) for x in g[:-1]))
        else:
            rays.append(g[:-1])
    if not vertices:
        return Cell(c.ambient, (), (), ())
    lineality = lattice_key(tuple(line[:-1] for line in lifted.lineality))
    return Cell(c.ambient, tuple(sorted(vertices)), tuple(sorted(rays)), lineality)


def _ref_lattice_distance(x, points, directions=()):
    pts = [tuple(Fraction(v) for v in p) for p in points]
    if not pts:
        raise DegenerateCell("no points given")
    base = tuple(Fraction(v) for v in x)
    ambient = len(base)
    if any(len(p) != ambient for p in pts):
        raise ValueError("point dimensions disagree")
    rows = [clear_denominators(tuple(a - b for a, b in zip(p, pts[0]))) for p in pts[1:]]
    rows += [clear_denominators(tuple(Fraction(v) for v in w)) for w in directions]
    rows = [r for r in rows if any(r)]
    forms = integer_kernel(tuple(rows)) if rows else identity(ambient)
    if not forms:
        raise DegenerateCell("affine hull spans the whole space")
    gap = tuple(a - b for a, b in zip(pts[0], base))
    nonzero = [abs(v) for v in (dot(phi, gap) for phi in forms) if v != 0]
    if not nonzero:
        raise DegenerateCell("base point lies in the affine hull of the cell")
    delta = Fraction(
        math.gcd(*(v.numerator for v in nonzero)),
        math.lcm(*(v.denominator for v in nonzero)),
    )
    if delta.denominator != 1:
        raise NotLatticeMeasurable(f"value group generator {delta} is not an integer")
    return int(delta)


def _outcome(fn, *args):
    """A function's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (DegenerateCell, NotLatticeMeasurable, ValueError) as exc:
        return type(exc), str(exc)


def _seeded_cuts(seed, count):
    """Seeded cones of dimension 1-5, with and without lineality, and forms w / q on them.

    The forms mix negative combinations of the facet normals (nonpositive
    on the cone: the direct path), their negatives (nonnegative: an
    empty level cut), zero, and random forms positive on some rays (the
    lifted path).
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, 5)
        gens, lines = _random_pool(rng, d)
        if rng.random() < 0.3:
            lines.append(tuple(rng.randint(-1, 1) for _ in range(d)))
        lines = [v for v in lines if any(v)]
        if not gens and not lines:
            continue
        c = cone_from_generators(gens, lineality=lines, ambient=d)
        kind = rng.choice(("inside", "inside", "outside", "zero", "random", "random"))
        if kind == "random":
            w = tuple(rng.randint(-3, 3) for _ in range(d))
        else:
            sign = -1 if kind == "inside" else 1 if kind == "outside" else 0
            w = tuple(0 for _ in range(d))
            for nu in c.normals + c.equations + tuple(tuple(-x for x in e) for e in c.equations):
                k = sign * rng.randint(0, 2)
                w = tuple(a + k * b for a, b in zip(w, nu))
        out.append((c, w, rng.randint(1, 4)))
    return out


def test_integer_cuts_match_the_rational_reference():
    seen = {}
    for c, w, q in _seeded_cuts(61, 500):
        u = tuple(Fraction(x, q) for x in w)
        cell = truncate(c, w, q)
        assert cell.key() == _ref_homogeneous_cut(c, u, False).key()
        ref_roof = _ref_homogeneous_cut(c, u, True)
        roof = level_cut(cell, w)
        if not ref_roof.vertices:
            assert roof is None
        else:
            assert roof is not None and roof.key() == ref_roof.key()
            # the roofs' distances agree as well
            origin = tuple(0 for _ in range(c.ambient))
            dirs = roof.rays + roof.lineality
            assert _outcome(lattice_distance, origin, roof.vertices, dirs) == _outcome(
                _ref_lattice_distance, origin, ref_roof.vertices, dirs
            )
        path = "direct" if _ref_direct_cut(c, u, False) else "lifted"
        case = (path, roof is not None, bool(c.lineality))
        seen[case] = seen.get(case, 0) + 1
    # every path, with and without a roof, on cones with and without lineality
    assert len(seen) == 8 and min(seen.values()) >= 8, seen


def test_integer_lattice_distance_matches_the_rational_reference():
    rng = random.Random(62)
    seen = {int: 0, DegenerateCell: 0, NotLatticeMeasurable: 0, ValueError: 0}

    def coordinate():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3, 4)))

    for _ in range(600):
        d = rng.randint(1, 5)
        x = tuple(coordinate() if rng.random() < 0.3 else rng.randint(-2, 2) for _ in range(d))
        points = [tuple(coordinate() for _ in range(d)) for _ in range(rng.randint(0, d))]
        if points and rng.random() < 0.05:
            points.append(tuple(coordinate() for _ in range(d + 1)))
        directions = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(0, 2))]
        got = _outcome(lattice_distance, x, points, directions)
        assert got == _outcome(_ref_lattice_distance, x, points, directions)
        seen[got[0] if isinstance(got, tuple) else int] += 1
    assert min(seen.values()) >= 10, seen


def test_direct_and_lifted_cuts_agree_on_cones_with_lineality():
    # cone((1, 0)) + lin((0, 1)) cut by w = (-1, 0) is the strip 0 <= x1 <= 1
    strip = cone_from_generators([(1, 0)], lineality=[(0, 1)])
    assert _direct_cut(strip, (-1, 0), 1).vertices == ((0, 0), (1, 0))
    compared = 0
    for c, w, q in _seeded_cuts(63, 600):
        direct = _direct_cut(c, w, q)
        if c.lineality and direct is not None:
            assert direct.key() == _lifted_cut(c, w, q).key()
            compared += 1
    assert compared >= 40, compared


def _ref_canonical_ray(g, lineality):
    """The Gram-solve reduction modulo the lineality space, one solve per vector."""
    if not lineality:
        return primitive(g)
    gram = tuple(tuple(dot(a, b) for b in lineality) for a in lineality)
    y = solve_rational(gram, tuple(dot(a, g) for a in lineality))
    den = math.lcm(*(yi.denominator for yi in y))
    coeffs = tuple(int(yi * den) for yi in y)
    proj = tuple(sum(c * b[j] for c, b in zip(coeffs, lineality)) for j in range(len(g)))
    return primitive(tuple(den * a - b for a, b in zip(g, proj)))


def test_projector_matches_the_gram_solve_reference():
    rng = random.Random(64)
    kinds = {"hermite": 0, "other": 0, "in_span": 0}
    for _ in range(300):
        d = rng.randint(2, 6)
        k = rng.randint(1, d - 1)
        basis = tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k))
        if rank(basis) < k:
            continue
        if rng.random() < 0.3:
            # a non-saturated basis: scale one row
            i = rng.randrange(k)
            basis = basis[:i] + (tuple(3 * x for x in basis[i]),) + basis[i + 1 :]
        elif rng.random() < 0.3:
            basis = lattice_key(basis)
        kinds["hermite" if basis == lattice_key(basis) else "other"] += 1
        for _ in range(6):
            if rng.random() < 0.3:
                g = tuple(sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(d))
                kinds["in_span"] += 1
            else:
                g = tuple(rng.randint(-5, 5) for _ in range(d))
            assert _canonical_ray(g, basis) == _ref_canonical_ray(g, basis)
    assert min(kinds.values()) >= 50, kinds
    with pytest.raises(ValueError):
        complement_projector(((1, 2, 0), (2, 4, 0)))


def test_maximal_cones_drop_cones_inside_others_of_any_dimension():
    quadrant = cone_from_generators([(1, 0), (0, 1)])
    wedge = cone_from_generators([(1, 0), (1, 1)])
    other = cone_from_generators([(-1, 0), (0, -1)])
    ray = cone_from_generators([(0, 1)])
    cones = [wedge, ray, quadrant, other, wedge, cone_from_generators([(-1, -1)])]
    assert maximal_cones(cones) == [quadrant, other]


def _ref_maximal_cones(cones):
    """The distinct cones not inside another one, by the full pairwise generator test."""
    unique = list(dict.fromkeys(cones))
    return [c for c in unique if not any(d != c and contains_cone(d, c) for d in unique)]


def test_maximal_cones_against_pairwise_containment():
    rng = random.Random(17)
    kinds = {"nested_equal_dim": 0, "face": 0, "lineality": 0, "dropped": 0}
    for _ in range(150):
        d = rng.randint(2, 4)
        cones = []
        for _ in range(rng.randint(1, 5)):
            gens = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(0, d + 1))]
            lines = [tuple(rng.randint(-1, 1) for _ in range(d)) for _ in range(rng.choice((0, 0, 1)))]
            cone = cone_from_generators(gens, lineality=lines, ambient=d)
            cones.append(cone)
            kinds["lineality"] += bool(cone.lineality)
            roll = rng.random()
            if roll < 0.3:
                # a cone of the same dimension inside it: not a fan
                p = relative_interior_point(cone)
                inner = cone_from_generators(
                    [tuple(x + y for x, y in zip(g, p)) for g in cone.rays],
                    lineality=cone.lineality,
                    ambient=d,
                )
                kinds["nested_equal_dim"] += inner != cone and inner.dim == cone.dim
                cones.append(inner)
            elif roll < 0.6 and cone.normals:
                cones.append(rng.choice(facets(cone)))
                kinds["face"] += 1
        rng.shuffle(cones)
        want = _ref_maximal_cones(cones)
        kinds["dropped"] += len(want) < len(set(cones))
        assert maximal_cones(cones) == want
    assert min(kinds.values()) >= 20, kinds
