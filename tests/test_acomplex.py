"""Anticanonical complex and distance tests.

Frozen values for the running example: seven pieces, seven boundary
cells with lattice distances {1, 1, 1, 2, 3, 4, 4} and index 12, equal
to the least common multiple of the per-cone multipliers 4, 1, 3.
"""

import random
import sys
from fractions import Fraction

import pytest

from gavindex import classify
from gavindex.acomplex import (
    _support_for_index,
    build_complex,
    cone_multiplier,
    distance_report,
    gorenstein_index_via_cones,
    gorenstein_index_via_complex,
    lattice_distance,
)
from gavindex.errors import (
    DegenerateCell,
    GavError,
    InvalidCandidate,
    MalformedFanCone,
    NotLatticeMeasurable,
    NotQGorensteinOnCone,
)
from gavindex.gav_core import fan_from_index_sets, is_fano, make_data, validate
from gavindex.polyhedra import columns_in, cone_from_generators, make_fan

V01 = (-2, -2, -1)
V02 = (-1, -1, -2)
V11 = (2, 0, 1)
V21 = (0, 3, 2)

SIGMA1 = cone_from_generators([V01, V11, V21])
SIGMA2 = cone_from_generators([V02, V11, V21])
SIGMA3 = cone_from_generators([V01, V02])


def test_lattice_distance_to_single_point():
    assert lattice_distance((0, 0, 0), [(0, 0, 2)]) == 2
    assert lattice_distance((1, 1), [(1, 3)]) == 2


def test_lattice_distance_to_segments():
    assert lattice_distance((0, 0, 0), [V01, V02]) == 3
    assert lattice_distance((0, 0, 0), [V01, (0, 0, 2)]) == 4
    assert lattice_distance((0, 0, 0), [V21, (0, 0, 2)]) == 2
    # one integral hyperplane (x + y = 1) separates strictly; distance 2
    assert lattice_distance((0, 0), [(2, 0), (0, 2)]) == 2


def test_lattice_distance_with_recession_directions():
    assert lattice_distance((0, 0), [(0, 2)], directions=[(1, 0)]) == 2
    assert lattice_distance((0, 0), [(3, 0), (3, 1)], directions=[(0, 1)]) == 3


def test_lattice_distance_accepts_fractional_points():
    p = (Fraction(3, 2), Fraction(1, 2))
    q = (Fraction(1, 2), Fraction(3, 2))
    assert lattice_distance((0, 0), [p, q]) == 2


def test_lattice_distance_degenerate_inputs():
    with pytest.raises(DegenerateCell):
        lattice_distance((0, 0), [])
    with pytest.raises(DegenerateCell):
        lattice_distance((0, 0), [(1, 0), (-1, 0)])
    with pytest.raises(DegenerateCell):
        lattice_distance((0, 0), [(1, 0), (0, 1), (-1, -1)])


def test_lattice_distance_rejects_fractional_value_group():
    with pytest.raises(NotLatticeMeasurable):
        lattice_distance((0, 0), [(Fraction(1, 2), 0)])


def test_support_function_on_worked_pieces(worked):
    # each case takes the smallest block index with no column of its
    # block in the piece: the pieces spanned by V01 and (0, 0, 1) and by
    # V01 and V02 (SIGMA3) hold a block-0 column, the piece spanned by
    # V11 and (0, 0, -1) only a block-1 column
    # a form u = w / q is held as the integers (w, q)
    def support(parent, i):
        return _support_for_index(worked, parent, i, columns_in(worked.columns, parent))

    assert support(SIGMA1, 1) == ((3, 0, -2), 4)
    assert support(SIGMA2, 0) == ((-1, -1, 1), 1)
    assert support(SIGMA3, 1) == ((1, 0, 1), 3)


def test_support_function_detects_inconsistency():
    data = make_data(
        r=1, c=1, n=(1, 1), m=0, l=((1,), (1,)), A=((1, 0), (0, 1)), D=((-1, 1),)
    )
    assert data.columns == ((-1, -1), (1, 1))
    line = cone_from_generators([(-1, -1), (1, 1)])
    with pytest.raises(NotQGorensteinOnCone) as info:
        _support_for_index(data, line, 0, (0, 1))
    assert info.value.cone == line


EXPECTED_ROOFS = {
    ((-2, -2, -1), (0, 0, 2)),
    ((-1, -1, -2), (0, 0, -1)),
    ((0, 0, 2), (2, 0, 1)),
    ((0, 0, -1), (2, 0, 1)),
    ((0, 0, 2), (0, 3, 2)),
    ((0, 0, -1), (0, 3, 2)),
    ((-2, -2, -1), (-1, -1, -2)),
}


def test_build_complex_on_worked_example(worked):
    cx = build_complex(worked)
    assert len(cx.pieces) == 7
    leaf_count = {0: 0, 1: 0, 2: 0}
    for info in cx.pieces:
        assert len(info.leaf_indices) == 1
        leaf_count[min(info.leaf_indices)] += 1
    assert leaf_count == {0: 3, 1: 2, 2: 2}
    assert {tuple(map(tuple, r.vertices)) for r in cx.boundary} == EXPECTED_ROOFS
    assert cx.boundary_vertices() == {
        V01,
        V02,
        V11,
        V21,
        (0, 0, 2),
        (0, 0, -1),
    }
    origin = (0, 0, 0)
    assert all(origin in p.cell.vertices for p in cx.pieces)
    sigma3_info = [p for p in cx.pieces if p.piece == SIGMA3]
    assert len(sigma3_info) == 1
    assert sigma3_info[0].support == (Fraction(1, 3), 0, Fraction(1, 3))


def test_distance_report_on_worked_example(worked):
    report = distance_report(build_complex(worked))
    assert sorted(report.distances) == [1, 1, 1, 2, 3, 4, 4]
    assert report.index == 12


def test_cone_multipliers_on_worked_example(worked):
    assert cone_multiplier(worked, SIGMA1) == 4
    assert cone_multiplier(worked, SIGMA2) == 1
    assert cone_multiplier(worked, SIGMA3) == 3


def test_both_routes_agree(worked):
    assert gorenstein_index_via_complex(worked) == 12
    assert gorenstein_index_via_cones(worked) == 12


def test_single_cone_fan_is_accepted(worked):
    fan = fan_from_index_sets(worked, [(0, 2, 3)])
    cx = build_complex(worked, fan)
    assert len(cx.boundary) == 3
    assert distance_report(cx).index == 4
    assert gorenstein_index_via_cones(worked, fan) == 4


def test_noncovering_fan_gets_index_four_by_both_routes(worked):
    # the two cones leave the leaf of block 0 uncovered
    fan = fan_from_index_sets(worked, [(0, 2, 3), (1, 2, 3)])
    assert gorenstein_index_via_complex(worked, fan) == 4
    assert gorenstein_index_via_cones(worked, fan) == 4


def test_malformed_cone_is_rejected(worked):
    fan = fan_from_index_sets(worked, [(0, 1, 3)])
    with pytest.raises(MalformedFanCone):
        build_complex(worked, fan)


def test_fan_cone_must_be_column_generated(worked):
    fan = make_fan([cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])])
    with pytest.raises(ValueError, match="columns"):
        build_complex(worked, fan)


def _seeded_listed_documents(seed, count):
    """Seeded setting tuples at index 1 and 2 that instantiate, with their listed fans."""
    rng = random.Random(seed)
    pool = [
        (sid, params)
        for index in (1, 2)
        for sid in (1, 2, 3, 4, 5)
        for params in classify.enumerate_setting(sid, index)
    ]
    rng.shuffle(pool)
    out = []
    for sid, params in pool:
        try:
            out.append(classify.instantiate(sid, params))
        except InvalidCandidate:
            continue
        if len(out) == count:
            break
    return out


def _raiser(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"the complex route called {name}")

    return refuse


def test_complex_route_uses_no_smith_form(monkeypatch):
    docs = []
    for data, fan in _seeded_listed_documents(63, 30):
        try:
            docs.append((data, fan, gorenstein_index_via_complex(data, fan)))
        except (NotQGorensteinOnCone, ValueError):
            continue
    assert len(docs) >= 15
    # cold caches: nothing the complex route needs was computed with a Smith form
    for name, mod in list(sys.modules.items()):
        if not name.startswith("gavindex"):
            continue
        for value in vars(mod).values():
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                value.cache_clear()
        for fn in ("snf", "min_integral_multiplier", "min_integral_multipliers"):
            if hasattr(mod, fn):
                monkeypatch.setattr(mod, fn, _raiser(fn))
    for data, fan, index in docs:
        assert gorenstein_index_via_complex(data, fan) == index
    with pytest.raises(AssertionError, match="called"):
        gorenstein_index_via_cones(*docs[0][:2])


# Shapes (r, c, s, n, m) of random documents whose ample fans are cut
# into subfans; one request of these shapes takes milliseconds.
SUBFAN_SHAPES = (
    (1, 1, 1, (2, 1), 0),
    (1, 1, 1, (2, 2), 0),
    (1, 1, 2, (2, 2), 0),
    (2, 1, 1, (1, 1, 1), 1),
    (2, 2, 1, (1, 1, 1), 1),
)


def _route_outcome(route, data, fan):
    """The index a route returns, or the type of what it raises."""
    try:
        return route(data, fan)
    except (GavError, ValueError) as exc:
        return type(exc)


def _seeded_fano_documents(rng, random_document, count):
    """Random documents of SUBFAN_SHAPES with their ample fans of -K."""
    out = []
    while len(out) < count:
        doc = random_document(rng, *rng.choice(SUBFAN_SHAPES))
        data = make_data(**{k: doc[k] for k in ("r", "c", "n", "m", "l", "A", "D")})
        if validate(data):
            continue
        try:
            fano, fan = is_fano(data)
        except GavError:
            continue
        if fano:
            out.append((data, fan))
    return out


def test_routes_agree_on_subfans(random_document):
    # Proper subsets of the maximal cones of listed and ample fans; most
    # of them leave part of a top leaf uncovered.
    rng = random.Random(515)
    fans = _seeded_listed_documents(517, 12)
    fans += _seeded_fano_documents(rng, random_document, 12)
    indices = 0
    for data, fan in fans:
        sets = fan.index_sets
        if len(sets) < 2:
            continue
        for _ in range(6):
            subset = sorted(rng.sample(sets, rng.randrange(1, len(sets))))
            sub = fan_from_index_sets(data, subset)
            via_complex = _route_outcome(gorenstein_index_via_complex, data, sub)
            assert via_complex == _route_outcome(gorenstein_index_via_cones, data, sub)
            indices += isinstance(via_complex, int)
    assert indices >= 100
