"""Arrangement data, grading and ample fan tests.

The running example (fixture `worked`) has free grading group Z with
generator degrees 5, 8, 9, 6 and relation degree 18; its anticanonical
fan has two full dimensional cones plus one two dimensional cone.
"""

import collections
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from gavindex.errors import NotAmple, NotQuasiprojectiveSetup
from gavindex.exactla import lattice_key, mat_vec
from gavindex.gav_core import (
    _ample_fan,
    _sigma_u,
    DegreeData,
    KElement,
    anticanonical_class,
    degree_map,
    fan_from_index_sets,
    is_fano,
    make_data,
    moving_cone,
    relations,
    validate,
)
from gavindex.polyhedra import (
    check_fan,
    cone_from_generators,
    intersect,
    make_fan,
    maximal_cones,
)


def test_assembled_matrix(worked):
    assert worked.p[: worked.r] == ((-2, -1, 2, 0), (-2, -1, 0, 3))
    assert worked.p == ((-2, -1, 2, 0), (-2, -1, 0, 3), (-1, -2, 1, 2))
    assert worked.columns == ((-2, -2, -1), (-1, -1, -2), (2, 0, 1), (0, 3, 2))
    assert worked.column_labels() == ("v01", "v02", "v11", "v21")
    assert worked.num_cols == 4
    assert worked.ambient_dim == 3


def test_column_lookups(worked):
    assert worked.column_blocks == (0, 0, 1, 2)
    assert worked.column_exponents == (2, 1, 2, 3)


def test_extra_columns_have_no_block():
    data = make_data(
        r=1,
        c=1,
        n=(1, 1),
        m=2,
        l=((1,), (1,)),
        A=((1, 0), (0, 1)),
        D=((2, 0, 1, -1),),
    )
    assert data.column_blocks == (0, 1, None, None)
    assert data.column_exponents == (1, 1, None, None)
    assert data.columns == ((-1, 2), (1, 0), (0, 1), (0, -1))
    assert data.column_labels() == ("v01", "v11", "v1", "v2")


@pytest.mark.parametrize(
    "n, m, expected",
    [
        ((1, 1), 10, ("v01", "v11") + tuple(f"v{k}" for k in range(1, 11))),
        ((1, 1), 11, ("v0_1", "v1_1") + tuple(f"s{k}" for k in range(1, 12))),
        ((10, 1), 0, tuple(f"v0_{j}" for j in range(1, 11)) + ("v1_1",)),
    ],
)
def test_column_labels_are_distinct(n, m, expected):
    # v{i}{j} and v{k} are kept while they cannot collide
    data = make_data(
        r=1, c=1, n=n, m=m, l=[[1] * size for size in n], A=((1, 0), (0, 1)),
        D=((1,) * (sum(n) + m),),
    )
    assert data.column_labels() == expected


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=(2, 1)),
        dict(l=((2, 1), (2,), (3,), (1,))),
        dict(l=((2,), (2,), (3,))),
        dict(A=((-1, 1), (-1, 0))),
        dict(D=((-1, -2, 1),)),
        dict(D=((-1, -2, 1, 2, 0),)),
    ],
)
def test_make_data_rejects_bad_shapes(kwargs):
    base = dict(
        r=2,
        c=1,
        n=(2, 1, 1),
        m=0,
        l=((2, 1), (2,), (3,)),
        A=((-1, 1, 0), (-1, 0, 1)),
        D=((-1, -2, 1, 2),),
    )
    with pytest.raises(ValueError) as built:
        make_data(**dict(base, **kwargs))
    # the data refuses the same shape with the same message on replace
    with pytest.raises(ValueError) as replaced:
        replace(make_data(**base), **kwargs)
    assert str(replaced.value) == str(built.value)


def test_replace_rejects_a_row_count_other_than_s(worked):
    with pytest.raises(ValueError, match="D must have s = 1 rows"):
        replace(worked, D=((-1, -2, 1, 2), (0, 0, 0, 1)))


def test_validate_accepts_worked(worked):
    assert validate(worked) == []


def test_validate_flags_duplicate_and_degenerate_columns():
    data = make_data(
        r=2,
        c=1,
        n=(2, 1, 1),
        m=0,
        l=((1, 1), (1,), (1,)),
        A=((-1, 1, 0), (-1, 0, 1)),
        D=((0, 0, 0, 0),),
    )
    problems = validate(data)
    assert any("pairwise different" in p for p in problems)
    assert any("span" in p for p in problems)


def test_validate_flags_imprimitive_column():
    data = make_data(
        r=1, c=1, n=(1, 1), m=0, l=((2,), (1,)), A=((1, 0), (0, 1)), D=((0, 1),)
    )
    assert any("primitive" in p for p in validate(data))


def test_validate_flags_dependent_a_columns():
    data = make_data(
        r=1, c=1, n=(1, 1), m=0, l=((1,), (1,)), A=((1, 1), (1, 1)), D=((1, 2),)
    )
    assert any("dependent" in p for p in validate(data))


def test_relation_of_worked_example(worked):
    rels = relations(worked)
    assert len(rels) == 1
    assert rels[0].terms == (
        (Fraction(1), 0, (2, 1)),
        (Fraction(1), 1, (2,)),
        (Fraction(1), 2, (3,)),
    )


def test_relations_empty_in_square_case():
    data = make_data(
        r=1, c=1, n=(1, 1), m=0, l=((1,), (1,)), A=((1, 0), (0, 1)), D=((1, 2),)
    )
    assert relations(data) == ()


def test_two_relations_share_leading_block():
    data = make_data(
        r=3,
        c=1,
        n=(1, 1, 1, 1),
        m=0,
        l=((1,), (1,), (1,), (1,)),
        A=((-1, 1, 0, 1), (-1, 0, 1, 2)),
        D=((1, 2, 3, 4),),
    )
    g1, g2 = relations(data)
    assert g1.terms == (
        (Fraction(1), 0, (1,)),
        (Fraction(1), 1, (1,)),
        (Fraction(1), 2, (1,)),
    )
    assert g2.terms == (
        (Fraction(2), 0, (1,)),
        (Fraction(1), 1, (1,)),
        (Fraction(1), 3, (1,)),
    )


def test_degree_map_of_worked_example(worked):
    dd = degree_map(worked)
    assert dd.free_rank == 1
    assert dd.torsion == ()
    assert dd.q_free == ((5, 8, 9, 6),)
    assert [w.free for w in dd.degrees] == [(5,), (8,), (9,), (6,)]
    assert dd.relation_degree == KElement((18,), ())


def test_degree_map_kills_rows_of_p(worked):
    dd = degree_map(worked)
    for row in worked.p:
        assert mat_vec(dd.q_free, row) == (0,)


def test_degree_map_depends_on_the_row_lattice_only():
    # D replaced by U.D + B.P0 with U unimodular: another P with the same row lattice
    shape = dict(r=1, c=1, n=(2, 2), m=1, l=((1, 3), (1, 1)), A=((1, 1), (-2, 1)))
    base = make_data(D=((1, 1, 1, -1, 0), (1, 1, -1, 1, -1)), **shape)
    twin = make_data(D=((2, 2, 0, 0, -1), (-3, -3, -1, 1, 1)), **shape)
    assert base.p != twin.p
    assert lattice_key(base.p) == lattice_key(twin.p)
    a, b = degree_map(base), degree_map(twin)
    assert (a.free_rank, a.torsion) == (2, (2,))
    assert a.q_free == lattice_key(a.q_free)
    assert all(0 <= x < 2 for row in a.q_tors for x in row)
    assert (a.q_free, a.q_tors, a.degrees) == (b.q_free, b.q_tors, b.degrees)


def test_degree_map_with_torsion():
    data = make_data(
        r=1, c=1, n=(1, 1), m=0, l=((2,), (2,)), A=((1, 0), (0, 1)), D=((1, 1),)
    )
    assert validate(data) == []
    dd = degree_map(data)
    assert dd.free_rank == 0
    assert dd.torsion == (4,)
    assert sorted(w.tors for w in dd.degrees) == [(1,), (3,)]
    assert dd.relation_degree.tors == (2,)


def test_kelement_arithmetic_wraps_torsion():
    dd = DegreeData(
        free_rank=1,
        torsion=(4,),
        q_free=((1, 0),),
        q_tors=((0, 1),),
        degrees=(),
        relation_degree=KElement((0,), (0,)),
    )
    assert dd.element_of((5, 7)) == KElement((5,), (3,))
    assert dd.element_of((-2, -1)) == KElement((-2,), (3,))


def test_anticanonical_class_of_worked_example(worked):
    assert anticanonical_class(worked) == KElement((10,), ())


def test_moving_cone_of_worked_example(worked):
    mov = moving_cone(worked)
    assert mov.ambient == 1
    assert mov.rays == ((1,),)
    assert mov.relint_contains((10,))


def test_moving_cone_requires_spanning_cone():
    data = make_data(
        r=1, c=1, n=(1, 1), m=0, l=((2,), (2,)), A=((1, 0), (0, 1)), D=((1, 1),)
    )
    with pytest.raises(NotQuasiprojectiveSetup):
        moving_cone(data)


def test_moving_cone_requires_full_row_rank():
    # P = ((-1, 1, 0), (1, -1, 0)) has rank one; its three degrees are
    # nonzero and span a pointed cone
    data = make_data(
        r=1, c=1, n=(1, 1), m=1, l=((1,), (1,)), A=((1, 0), (0, 1)), D=((1, -1, 0),)
    )
    assert [w.free for w in degree_map(data).degrees] == [(1, 0), (1, 0), (0, 1)]
    with pytest.raises(NotQuasiprojectiveSetup):
        moving_cone(data)


EXPECTED_INDEX_SETS = ((0, 1), (0, 2, 3), (1, 2, 3))


def test_fan_from_ample_matches_expected_cones(worked):
    fan = _ample_fan(worked, (10,))
    assert len(fan.maximal) == 3
    assert tuple(sorted(fan.index_sets)) == EXPECTED_INDEX_SETS
    expected = fan_from_index_sets(worked, EXPECTED_INDEX_SETS)
    assert set(fan.maximal) == set(expected.maximal)


def test_fan_from_ample_accepts_kelement(worked):
    fan = _ample_fan(worked, anticanonical_class(worked).free)
    assert len(fan.maximal) == 3


def test_fan_depends_only_on_chamber(worked):
    fans = {_ample_fan(worked, (t,)) for t in (1, 7, 10, 23)}
    assert len(fans) == 1


def test_fan_from_ample_rejects_boundary_classes(worked):
    with pytest.raises(NotAmple):
        _ample_fan(worked, (0,))
    with pytest.raises(NotAmple):
        _ample_fan(worked, (-3,))


def test_is_fano_on_worked_example(worked):
    ok, fan = is_fano(worked)
    assert ok
    assert fan == _ample_fan(worked, (10,))


def test_is_fano_false_without_free_part():
    data = make_data(
        r=1, c=1, n=(1, 1), m=0, l=((2,), (2,)), A=((1, 0), (0, 1)), D=((1, 1),)
    )
    ok, fan = is_fano(data)
    assert not ok and fan is None


def test_is_fano_false_on_boundary_class():
    # toric surface with the anticanonical class on the moving cone boundary
    data = make_data(
        r=1,
        c=1,
        n=(1, 1),
        m=2,
        l=((1,), (1,)),
        A=((1, 0), (0, 1)),
        D=((2, 0, 1, -1),),
    )
    assert validate(data) == []
    ok, fan = is_fano(data)
    assert not ok and fan is None


def test_fan_from_index_sets_rejects_bad_index(worked):
    with pytest.raises(ValueError):
        fan_from_index_sets(worked, [(0, 4)])


def test_check_fan_rejects_overlapping_column_cones(worked):
    # all four columns span the whole space, which strictly contains the
    # second cone without having it as a face
    fan = fan_from_index_sets(worked, [(0, 1, 2, 3), (0, 2, 3)])
    with pytest.raises(ValueError, match="common faces"):
        check_fan(fan)


# ---------------------------------------------------------------------------
# references for the ample fan and the generation test
#
# _sigma_u tests only the sets of at most k = free rank columns with
# independent degrees, and moving_cone decides generation in the grading
# group.  The references follow the definitions: the scan over all 2^n
# faces of the orthant with its maximality filter, and the cone of the
# columns in the ambient dimension.


def _reference_sigma_u(data, u):
    dd = degree_map(data)
    cols = data.columns
    qualifying = []
    for bits in itertools.product((0, 1), repeat=data.num_cols):
        gamma0 = [dd.degrees[j].free for j, b in enumerate(bits) if b]
        if gamma0 and cone_from_generators(gamma0, ambient=dd.free_rank).relint_contains(u):
            qualifying.append(frozenset(j for j, b in enumerate(bits) if not b))
    maximal = [g for g in qualifying if not any(g < h for h in qualifying)]
    cones = [
        cone_from_generators([cols[j] for j in sorted(g)], ambient=data.ambient_dim)
        for g in maximal
    ]
    return make_fan(maximal_cones(cones))


def _reference_generates(data):
    hull = cone_from_generators(data.columns)
    return not hull.normals and not hull.equations


# (r, c, s, n, m) with 3-9 columns and free ranks 1-5
REFERENCE_SHAPES = (
    (1, 1, 1, (2, 1), 0),
    (1, 1, 1, (2, 2), 0),
    (2, 1, 1, (2, 2, 1), 0),
    (1, 1, 1, (3, 2), 0),
    (2, 1, 1, (2, 2, 2), 0),
    (1, 1, 2, (2, 2), 1),
    (1, 1, 1, (3, 3), 0),
    (2, 1, 1, (2, 2, 2), 1),
    (2, 1, 2, (3, 3, 2), 0),
    (1, 1, 1, (3, 3), 1),
    (2, 1, 2, (3, 3, 3), 0),
)


def test_ample_fan_and_generation_against_references(random_document):
    rng = random.Random(20261021)
    verdicts = collections.Counter()
    fans = collections.Counter()
    while min(verdicts[k, g] for k in range(1, 6) for g in (True, False)) < 3:
        doc = random_document(rng, *rng.choice(REFERENCE_SHAPES))
        data = make_data(**{key: doc[key] for key in ("r", "c", "n", "m", "l", "A", "D")})
        if validate(data):
            continue
        generates = _reference_generates(data)
        try:
            mov = moving_cone(data)
        except NotQuasiprojectiveSetup:
            mov = None
        assert (mov is not None) == generates, doc
        k = degree_map(data).free_rank
        verdicts[k, generates] += 1
        # the 2^n scan is slow at nine columns: compare the fans of the
        # first three documents of each free rank whose columns generate
        if mov is None or verdicts[k, True] > 3:
            continue
        # the anticanonical class, the degrees and the sum of the moving
        # cone's rays: generic classes and classes on chamber walls
        degrees = [w.free for w in degree_map(data).degrees]
        points = {anticanonical_class(data).free, *degrees}
        points.add(tuple(map(sum, zip(*mov.rays))))
        for u in sorted(p for p in points if mov.relint_contains(p)):
            assert _sigma_u(data, u) == _reference_sigma_u(data, u), (doc, u)
            fans[k] += 1
    assert all(fans[k] >= 3 for k in range(1, 6)), fans


# ---------------------------------------------------------------------------
# the derived fields of ArrangementData and the one-call moving cone


def _reference_p(data):
    """P from its definition: row i puts -l_0j on block 0 and l_ij on block i."""
    rows = []
    for i in range(1, data.r + 1):
        row = []
        for block, exps in enumerate(data.l):
            row.extend(-x if block == 0 else x if block == i else 0 for x in exps)
        rows.append(tuple(row) + (0,) * data.m)
    return tuple(rows) + data.D


def test_derived_fields_follow_replace_and_stay_out_of_equality(random_document):
    rng = random.Random(20261023)
    for _ in range(80):
        doc = random_document(rng, *rng.choice(REFERENCE_SHAPES))
        fields = {key: doc[key] for key in ("r", "c", "n", "m", "l", "A", "D")}
        data, again = make_data(**fields), make_data(**fields)
        assert data == again and hash(data) == hash(again)
        assert data.p == _reference_p(data)
        assert data.columns == tuple(zip(*data.p))
        blocks = [i for i, size in enumerate(data.n) for _ in range(size)]
        assert data.column_blocks == tuple(blocks) + (None,) * data.m
        exponents = [x for exps in data.l for x in exps]
        assert data.column_exponents == tuple(exponents) + (None,) * data.m
        # a new D: replace recomputes P and its columns
        other_doc = random_document(rng, data.r, data.c, data.s, data.n, data.m)
        other_d = tuple(tuple(row) for row in other_doc["D"])
        moved = replace(data, D=other_d)
        built = make_data(**dict(fields, D=other_d))
        assert moved == built and hash(moved) == hash(built)
        assert moved.p == _reference_p(moved) == built.p
        assert moved.columns == built.columns
        assert moved.column_blocks == data.column_blocks
        assert moved.column_exponents == data.column_exponents
        assert (moved == data) == (other_d == data.D)


def _reference_moving_cone(data):
    """The moving cone by chained intersections of the drop-one degree cones."""
    dd = degree_map(data)
    degrees = [w.free for w in dd.degrees]
    result = None
    for drop in range(data.num_cols):
        image = cone_from_generators(degrees[:drop] + degrees[drop + 1 :], ambient=dd.free_rank)
        result = image if result is None else intersect(result, image)
    return result


def test_moving_cone_in_one_call_matches_chained_intersections(random_document):
    rng = random.Random(20261024)
    compared = collections.Counter()
    while min(compared[k] for k in range(1, 6)) < 4:
        doc = random_document(rng, *rng.choice(REFERENCE_SHAPES))
        data = make_data(**{key: doc[key] for key in ("r", "c", "n", "m", "l", "A", "D")})
        if validate(data):
            continue
        try:
            mov = moving_cone(data)
        except NotQuasiprojectiveSetup:
            continue
        assert mov == _reference_moving_cone(data), doc
        compared[degree_map(data).free_rank] += 1


# ---------------------------------------------------------------------------
# the anticanonical class as one value of the degree map


def _reference_anticanonical_class(dd, data):
    """Sum of the degrees minus (r-c) times the relation degree, by group operations."""

    def add(a, b):
        return KElement(
            tuple(x + y for x, y in zip(a.free, b.free)),
            tuple((x + y) % d for x, y, d in zip(a.tors, b.tors, dd.torsion)),
        )

    def scale(k, a):
        return KElement(
            tuple(k * x for x in a.free),
            tuple((k * x) % d for x, d in zip(a.tors, dd.torsion)),
        )

    total = KElement((0,) * dd.free_rank, (0,) * len(dd.torsion))
    for w in dd.degrees:
        total = add(total, w)
    return add(total, scale(-(data.r - data.c), dd.relation_degree))


# (r, c, s, n, m) of free rank 1-3; torsion comes from the exponents
FREE_RANK_1_TO_3_SHAPES = (
    (1, 1, 1, (2, 1), 0),
    (1, 1, 1, (2, 2), 0),
    (1, 1, 2, (2, 2), 1),
    (1, 1, 1, (3, 2), 0),
    (2, 1, 1, (2, 2, 2), 0),
)


def test_anticanonical_class_matches_group_operations_and_twins(random_document, twin):
    rng = random.Random(20261025)
    seen = collections.Counter()
    while min(seen[k, t] for k in (1, 2, 3) for t in (True, False)) < 3:
        doc = random_document(rng, *rng.choice(FREE_RANK_1_TO_3_SHAPES))
        data = make_data(**{key: doc[key] for key in ("r", "c", "n", "m", "l", "A", "D")})
        if validate(data):
            continue
        dd = degree_map(data)
        if seen[dd.free_rank, bool(dd.torsion)] >= 8:
            continue
        ak = anticanonical_class(data)
        assert ak == _reference_anticanonical_class(dd, data), doc
        moved = twin(rng, data)
        assert lattice_key(moved.p) == lattice_key(data.p)
        assert degree_map(moved) == dd, (doc, moved.D)
        assert anticanonical_class(moved) == ak, (doc, moved.D)
        seen[dd.free_rank, bool(dd.torsion)] += 1
