"""Leaf structure and cone classification tests.

Column vectors below are the running example's P columns; the tropical
structure for r = 2, c = 1, s = 1 has three leaves, each a half-plane
with lineality along the third coordinate.
"""

import itertools
import random
from fractions import Fraction

import pytest

from gavindex.errors import MalformedFanCone
from gavindex.polyhedra import (
    cone_from_generators,
    intersect,
    make_fan,
    relative_interior_point,
)
from gavindex.tropical import (
    classify_cone,
    indices_of_cone,
    minimal_indices,
    prune_to_minimal,
    relint_meets_trop,
    trop_structure,
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


@pytest.fixture
def trop():
    return trop_structure(2, 1, 1)


def test_leaf_inventory(trop):
    assert len(trop.leaves) == 3
    lam1 = trop.leaf([1])
    assert lam1.rays == ((1, 0, 0),)
    assert lam1.lineality == ((0, 0, 1),)
    lam0 = trop.leaf([0])
    assert lam0.contains((-5, -5, 7))
    with pytest.raises(KeyError):
        trop.leaf([0, 1])


def test_leaf_counts_follow_binomials(lineality_cone):
    t = trop_structure(3, 2, 2)
    assert len(t.leaves) == 4 + 6
    assert lineality_cone(t).dim == 2


def test_structure_rejects_bad_parameters():
    with pytest.raises(ValueError):
        trop_structure(1, 2, 1)
    with pytest.raises(ValueError):
        trop_structure(2, 0, 1)


def test_minimal_indices_examples(trop):
    assert minimal_indices(trop, (0, 1, 2)) == {2}
    assert minimal_indices(trop, (-3, -3, -3)) == {0}
    assert minimal_indices(trop, (5, 0, 7)) == {1}
    assert minimal_indices(trop, (0, 0, 9)) == frozenset()
    assert minimal_indices(trop, (-1, 2, 0)) == {0, 2}
    assert minimal_indices(trop, (Fraction(1, 2), Fraction(-1, 2), 0)) == {0, 1}


def test_minimal_indices_characterize_leaf_membership():
    rng = random.Random(3)
    for r, c, s in [(2, 1, 1), (3, 2, 1)]:
        t = trop_structure(r, c, s)
        for _ in range(120):
            x = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(r + s))
            found = minimal_indices(t, x)
            for indices, leaf in t.leaves:
                assert leaf.contains(x) == (found <= indices)


def _ref_minimal_indices(trop, x):
    """minimal_indices with every coordinate turned into a Fraction first."""
    head = [Fraction(v) for v in x[: trop.r]]
    t_star = max(Fraction(0), -min(head)) if head else Fraction(0)
    out = {i + 1 for i, v in enumerate(head) if v + t_star > 0}
    if t_star > 0:
        out.add(0)
    return frozenset(out)


def test_minimal_indices_on_integers_and_fractions_agree():
    rng = random.Random(4)
    for r, c, s in [(1, 1, 0), (2, 1, 1), (3, 2, 2), (4, 3, 0)]:
        t = trop_structure(r, c, s)
        for _ in range(150):
            x = tuple(rng.randint(-4, 4) for _ in range(r + s))
            found = minimal_indices(t, x)
            assert found == minimal_indices(t, tuple(Fraction(v) for v in x))
            assert found == _ref_minimal_indices(t, x)
            y = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(r + s))
            assert minimal_indices(t, y) == _ref_minimal_indices(t, y)


def test_indices_of_cones(trop, lineality_cone):
    assert indices_of_cone(trop, SIGMA1) == {0, 1, 2}
    assert indices_of_cone(trop, SIGMA3) == {0}
    assert indices_of_cone(trop, trop.leaf([2])) == {2}
    assert indices_of_cone(trop, lineality_cone(trop)) == frozenset()


def test_classify_leaf_cones(trop):
    kind = classify_cone(trop, SIGMA3)
    assert kind.kind == "leaf"
    assert kind.leaf_indices == {0}
    assert classify_cone(trop, cone_from_generators((), ambient=3)).kind == "leaf"
    assert classify_cone(trop, trop.leaf([1])).leaf_indices == {1}


def test_classify_big_cones(trop):
    for sigma in (SIGMA1, SIGMA2):
        kind = classify_cone(trop, sigma)
        assert kind.kind == "big"
        assert kind.elementary is True


def test_classify_big_but_not_elementary(trop):
    whole = cone_from_generators([V01, V02, V11, V21])
    assert whole.dim == 3 and not whole.normals
    kind = classify_cone(trop, whole)
    assert kind.kind == "big"
    assert kind.elementary is False


def test_classify_rejects_in_between_cones(trop):
    with pytest.raises(MalformedFanCone) as info:
        classify_cone(trop, TAU_A)
    assert info.value.cone == TAU_A
    with pytest.raises(MalformedFanCone):
        classify_cone(trop, cone_from_generators([V11, V21]))


def test_relint_meets_trop(trop):
    assert relint_meets_trop(trop, SIGMA1)
    assert relint_meets_trop(trop, SIGMA3)
    assert not relint_meets_trop(trop, TAU_A)
    assert not relint_meets_trop(trop, TAU_B)


def test_prune_worked_example(trop):
    raw = make_fan([SIGMA1, SIGMA2, TAU_A, TAU_B])
    pruned = prune_to_minimal(trop, raw)
    assert pruned.key() == make_fan([SIGMA1, SIGMA2, SIGMA3]).key()


def test_prune_keeps_fan_that_already_fits(trop):
    fan = make_fan([SIGMA1, SIGMA2, SIGMA3])
    assert prune_to_minimal(trop, fan).key() == fan.key()


def test_lineality_reports(trop, check_big_cone_lineality):
    for sigma in (SIGMA1, SIGMA2):
        report = check_big_cone_lineality(trop, sigma)
        assert report.meets_relint
        assert report.slice_dim == 1
        assert report.expected_dim == 1
        assert report.full


def _ref_meets_relint(cone, other):
    """Whether other meets relint cone, by one double description in Q^(r+s)."""
    return cone.relint_contains(relative_interior_point(intersect(cone, other)))


def _ref_kind(trop, cone):
    """classify_cone's verdict by intersecting the cone with every leaf of size one."""
    if len(indices_of_cone(trop, cone)) <= trop.c:
        return "leaf"
    if all(_ref_meets_relint(cone, trop.leaf([i])) for i in range(trop.r + 1)):
        return "big"
    return "malformed"


def _random_cone(rng, r, s, kinds):
    """A random cone in Q^(r+s), often of lower dimension or with lineality."""
    ambient = r + s
    e = [tuple(-1 for _ in range(r)) + (0,) * s] + [
        tuple(int(k == i) for k in range(ambient)) for i in range(r)
    ]

    def vector():
        if rng.random() < 0.4:
            # a leaf direction plus a tail in the lineality space
            return rng.choice(e)[:r] + tuple(rng.randint(-2, 2) for _ in range(s))
        return tuple(rng.randint(-2, 2) for _ in range(ambient))

    gens = [vector() for _ in range(rng.randint(0, ambient + 1))]
    lines = [vector() for _ in range(rng.choice((0, 0, 0, 1, 2)))]
    if r > 1 and rng.random() < 0.2:
        # heads g and -g with independent tails: the projection holds a line
        g = vector()
        gens += [g, tuple(-x for x in g[:r]) + tuple(rng.randint(-2, 2) for _ in range(s))]
    cone = cone_from_generators(gens, lineality=lines, ambient=ambient)
    head = cone_from_generators(
        [g[:r] for g in cone.rays], lineality=[v[:r] for v in cone.lineality], ambient=r
    )
    kinds["lower_dim"] += cone.dim < ambient
    kinds["lineality"] += bool(cone.lineality)
    kinds["head_subspace"] += not head.normals
    return cone


def test_projection_verdicts_match_leaf_intersections():
    rng = random.Random(16)
    kinds = dict.fromkeys(
        ("lower_dim", "lineality", "head_subspace", "leaf", "big", "malformed", "meets", "misses"),
        0,
    )
    for r in (1, 2, 3):
        for c in range(1, r + 1):
            for s in (0, 1, 2):
                trop = trop_structure(r, c, s)
                for _ in range(30):
                    cone = _random_cone(rng, r, s, kinds)
                    want = _ref_kind(trop, cone)
                    kinds[want] += 1
                    if want == "malformed":
                        with pytest.raises(MalformedFanCone):
                            classify_cone(trop, cone)
                    else:
                        assert classify_cone(trop, cone).kind == want
                    meets = any(
                        _ref_meets_relint(cone, trop.leaf(combo))
                        for combo in itertools.combinations(range(r + 1), c)
                    )
                    kinds["meets" if meets else "misses"] += 1
                    assert relint_meets_trop(trop, cone) == meets
    assert min(kinds.values()) >= 40, kinds
