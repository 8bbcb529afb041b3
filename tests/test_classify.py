"""Classification pipeline tests.

Frozen ground truths: the index-one searches of the five families, the
matrix of setting 5 at (3, -2), and the boundary vertex set of setting
1 at (2, 3, -3).  The multiplier formulas used by the box scan are
checked against the generic linear-system solver on random input, since
box completeness rests on them.  The divisor-driven box filters are
checked against window scans that walk every value the multiplier
bounds allow, and setting 2 also against a column scan at larger bounds.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from gavindex import tropical
from gavindex.classify import (
    SETTINGS,
    Params,
    _box_s1,
    _box_s2,
    _box_s5,
    _box_s34,
    _divisors,
    _ineq_s1,
    _ineq_s2,
    _ineq_s5,
    _lcm_hits,
    _mult_leading,
    _mult_ratio,
    _signed_divisors,
    brute_force_box,
    classify_index,
    dedupe,
    enumerate_setting,
    fingerprint,
    instantiate,
    verify,
    verify_data,
)
from gavindex.errors import InvalidCandidate
from gavindex.exactla import mat_mul, min_integral_multiplier
from gavindex.gav_core import KElement, fan_from_index_sets, make_data
from gavindex.polyhedra import intersect

S5_INDEX_ONE = ((3, -2), (4, -3), (6, -5))


def test_enumerate_setting_five_index_one():
    assert enumerate_setting(5, 1) == S5_INDEX_ONE


def test_enumerate_setting_five_against_direct_scan():
    # Independent oracle: at index one the integrality and range
    # conditions force k = -1, so d21 = 1 - l21 and 2 - l21 must divide
    # 4; scan a generous box for exactly that.
    found = []
    for l21 in range(2, 51):
        for d21 in range(-50, 0):
            if not 1 < l21 < -2 * d21 < 2 * l21:
                continue
            if d21 != 1 - l21:
                continue
            if 4 % (2 - l21):
                continue
            found.append((l21, d21))
    assert tuple(found) == S5_INDEX_ONE


def test_enumerate_setting_one_index_one():
    assert enumerate_setting(1, 1) == ((2, 3, -3),)


def test_enumerate_setting_three_index_one_is_empty():
    assert enumerate_setting(3, 1) == ()


def test_enumerate_setting_two_parity():
    # The two even-index branches switch off for odd targets, leaving
    # only tuples from the substitution branch, which fixes d01 = -1.
    for iota in (1, 3):
        tuples = enumerate_setting(2, iota)
        assert all(v[2] == -1 for v in tuples)
    # Both branch kinds are present for an even target.
    d01s = {v[2] for v in enumerate_setting(2, 2)}
    assert d01s == {0, -1}


def test_enumerate_setting_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_setting(5, 0)
    with pytest.raises(ValueError):
        enumerate_setting(9, 1)


def test_instantiate_setting_five_matrix():
    data, fan = instantiate(5, (3, -2))
    assert data.columns == (
        (-2, -2, -1, 1),
        (1, 0, 0, 0),
        (1, 0, 1, 0),
        (0, 3, 0, -2),
        (0, 0, 0, 1),
    )
    assert len(fan.maximal) == 4
    trop = tropical.trop_structure(2, 1, 2)
    kinds = sorted(tropical.classify_cone(trop, c).kind for c in fan.maximal)
    assert kinds == ["big", "big", "big", "leaf"]


def test_instantiate_rejects_bad_tuples():
    with pytest.raises(InvalidCandidate):
        instantiate(5, (2, -1))  # violates -2*d21 > l21
    with pytest.raises(InvalidCandidate):
        instantiate(5, (2, -1, 7))  # wrong arity
    with pytest.raises(ValueError):
        instantiate(0, ())


def test_setting_four_fourth_cone_is_conditional():
    with_extra = SETTINGS[4].index_sets((3, -1, 0, 2))
    assert (0, 1, 2, 3) in with_extra
    degenerate = SETTINGS[4].index_sets((3, 0, 0, 2))
    assert (0, 1, 2, 3) not in degenerate and len(degenerate) == 3


def test_setting_one_elementary_big_faces():
    data, fan = instantiate(1, (2, 3, -3))
    cones = {tuple(sorted(s)): c for s, c in zip(fan.index_sets, fan.maximal)}
    trop = tropical.trop_structure(2, 1, 2)
    elementary_pairs = [
        ((0, 1, 2, 4), (0, 2, 3, 4)),
        ((0, 1, 2, 4), (1, 2, 3, 4)),
        ((0, 1, 3, 4), (0, 2, 3, 4)),
        ((0, 1, 3, 4), (1, 2, 3, 4)),
    ]
    for a, b in elementary_pairs:
        face = intersect(cones[a], cones[b])
        info = tropical.classify_cone(trop, face)
        assert info.kind == "big" and info.elementary


def test_setting_one_boundary_vertices():
    from gavindex.acomplex import build_complex

    data, fan = instantiate(1, (2, 3, -3))
    got = {tuple(Fraction(x) for x in v) for v in build_complex(data, fan).boundary_vertices()}
    third = Fraction(2, 3)
    expected = {
        (-1, -1, -1, 0),
        (-1, -1, 0, 0),
        (1, 0, 0, 0),
        (1, 0, 1, 3),
        (0, 2, 0, -3),
        (0, 0, -third, -1),
        (0, 0, 0, -1),
        (0, 0, 0, 1),
        (0, 0, third, 1),
    }
    assert got == {tuple(Fraction(x) for x in v) for v in expected}


def test_verify_worked_example_both_targets(worked):
    fan = fan_from_index_sets(worked, ((0, 2, 3), (1, 2, 3), (0, 1)))
    assert verify_data(worked, fan, 12).accepted
    miss = verify_data(worked, fan, 6)
    assert (miss.reason, miss.detail) == ("index_mismatch", 12)
    # without a reference fan the ample-class fan is checked against itself
    assert verify_data(worked, None, 12).accepted


def test_verify_fan_mismatch(worked):
    partial = fan_from_index_sets(worked, ((0, 2, 3), (1, 2, 3)))
    assert verify_data(worked, partial, 12).reason == "fan_mismatch"


def test_verify_data_rejects_unchecked_non_fan(worked):
    # fan_from_index_sets does not check faces; the whole space and one of
    # its cones are no fan, and only the ample-fan comparison rejects them
    overlapping = fan_from_index_sets(worked, [(0, 1, 2, 3), (0, 2, 3)])
    assert verify_data(worked, overlapping, 12).reason == "fan_mismatch"


def test_verify_rank_mismatch():
    # a product of two lines carries a rank-two grading
    prod = make_data(
        r=1, c=1, n=(1, 1), m=2, l=((1,), (1,)),
        A=((1, 0), (0, 1)), D=((0, 0, 1, -1),),
    )
    v = verify_data(prod, None, 1)
    assert (v.reason, v.detail) == ("rank_mismatch", 2)


def test_verify_rejection_reasons():
    assert verify(5, (2, -1), 1).reason == "invalid"
    assert verify(4, (2, 0, 0, 1), 1).reason == "not_fano"
    v = verify(5, (6, -5), 1)
    assert (v.reason, v.detail) == ("index_mismatch", 2)


def test_verify_accepts_the_known_small_candidates():
    for sid, params in [(5, (3, -2)), (5, (4, -3)), (1, (2, 3, -3))]:
        v = verify(sid, params, 1)
        assert v.accepted, (sid, params, v.reason, v.detail)
        assert v.candidate.index == 1


def test_twin_tuple_verifies_with_equal_fingerprint():
    # Adding the second template row of P to the free row maps
    # (l22, d01, d21, d22) to (l22, d01 - 2b, d21 + b, d22 + b*l22)
    # without changing the variety, so the box scan sees relatives of
    # the normalized tuple that the enumeration never emits.
    base = verify(4, (3, -1, 0, 2), 1)
    twin = verify(4, (3, -3, 1, 5), 1)
    assert base.accepted and twin.accepted
    assert fingerprint(base.candidate) == fingerprint(twin.candidate)
    assert (3, -3, 1, 5) not in enumerate_setting(4, 1)


def test_fingerprint_block_swap_invariance(worked):
    swapped = make_data(
        r=2, c=1, n=(2, 1, 1), m=0,
        l=((2, 1), (3,), (2,)),
        A=((-1, 0, 1), (-1, 1, 0)),
        D=((-1, -2, 2, 1),),
    )
    a = verify_data(worked, None, 12)
    b = verify_data(swapped, None, 12)
    assert a.accepted and b.accepted
    assert fingerprint(a.candidate) == fingerprint(b.candidate)


def test_dedupe_groups_keep_members():
    pool = [
        verify(5, (3, -2), 1).candidate,
        verify(5, (4, -3), 1).candidate,
        verify(4, (3, -1, 0, 2), 1).candidate,
        verify(4, (3, -3, 1, 5), 1).candidate,
    ]
    groups = dedupe(pool)
    assert sorted(len(g) for g in groups) == [1, 1, 2]
    # every candidate stays in exactly one group
    assert sorted(c.params for g in groups for c in g) == sorted(c.params for c in pool)


def test_classify_index_setting_five():
    report = classify_index(1, settings=(5,))
    (s5,) = report.settings
    assert s5.enumerated == S5_INDEX_ONE
    assert tuple(c.params for c in s5.accepted) == ((3, -2), (4, -3))
    assert [v.params for v in s5.rejected] == [(6, -5)]
    assert len(report.groups) == 2


def test_box_setting_five_subset_of_enumeration():
    box = brute_force_box(5, 1, 60)
    assert box == ((3, -2), (4, -3))
    verified = tuple(
        p for p in enumerate_setting(5, 1) if verify(5, p, 1).accepted
    )
    assert set(box) <= set(verified)


def test_box_setting_three_small_equality():
    assert brute_force_box(3, 1, 40) == ()
    assert [p for p in enumerate_setting(3, 1) if verify(3, p, 1).accepted] == []


def test_box_setting_one():
    assert brute_force_box(1, 1, 60) == ((2, 3, -3),)


def test_repeated_box_scan_reuses_verdicts(monkeypatch):
    from gavindex import classify

    calls = []

    def counting(setting_id, params):
        calls.append((setting_id, tuple(params)))
        return instantiate(setting_id, params)

    classify._box_survivor_accepted.cache_clear()
    monkeypatch.setattr(classify, "instantiate", counting)
    first = brute_force_box(5, 1, 60)
    made = len(calls)
    assert made > 0
    assert len(set(calls)) == made
    # a smaller box filters down to a subset of the same survivors
    assert brute_force_box(5, 1, 60) == first
    assert brute_force_box(5, 1, 40) == tuple(v for v in first if max(map(abs, v)) <= 40)
    assert len(calls) == made


def test_box_rejects_bad_input():
    with pytest.raises(ValueError):
        brute_force_box(5, 1, 0)
    with pytest.raises(ValueError):
        brute_force_box(5, 0, 10)


def _solver(rows, rhs):
    return min_integral_multiplier(rows, rhs)


def test_leading_multiplier_formula_matches_solver():
    rng = random.Random(20260819)
    for _ in range(250):
        d01 = rng.randint(-6, 6)
        el = rng.randint(1, 8)
        d = rng.randint(-9, 9)
        rows = ((-2, -2, -1, d01), (1, 0, 0, 0), (1, 0, 1, 0), (0, el, 0, d))
        assert _mult_leading(d01, el, d) == _solver(rows, (1, -1, -1, -1))


def test_paired_multiplier_formula_matches_solver():
    rng = random.Random(20260820)
    for _ in range(250):
        d01 = rng.randint(-6, 6)
        l1, l2 = rng.randint(1, 8), rng.randint(1, 8)
        d1, d2 = rng.randint(-9, 9), rng.randint(-9, 9)
        if (l1, d1) == (l2, d2):
            continue
        expected = _mult_ratio(l1 * d2 - l2 * d1, l1 - l2, d2 - d1)
        for middle in ((1, 0, 0, 0), (1, 0, 1, 0)):
            rows = ((-2, -2, -1, d01), middle, (0, l1, 0, d1), (0, l2, 0, d2))
            assert expected == _solver(rows, (1, -1, -1, -1))


def test_first_family_multiplier_formulas_match_solver():
    rng = random.Random(20260821)
    v01, v02 = (-1, -1, -1, 0), (-1, -1, 0, 0)
    for _ in range(250):
        el = rng.randint(1, 8)
        d = rng.randint(-9, 9)
        d12 = rng.randint(-6, 6)
        tail = (0, el, 0, d)
        m_a = _mult_ratio(d, el + 1)
        assert m_a == _solver((v01, v02, (1, 0, 0, 0), tail), (0, 0, -1, -1))
        assert m_a == _solver(
            (v02, (1, 0, 0, 0), (1, 0, 1, d12), tail), (0, -1, -1, -1)
        )
        m_b = _mult_ratio(el * d12 + d, el + 1)
        assert m_b == _solver((v01, v02, (1, 0, 1, d12), tail), (0, 0, -1, -1))
        assert m_b == _solver(
            (v01, (1, 0, 0, 0), (1, 0, 1, d12), tail), (0, -1, -1, -1)
        )


def test_marked_column_multiplier_formulas_match_solver():
    rng = random.Random(20260822)
    v01, mark = (-2, -2, -1, 1), (0, 0, 0, 1)
    for _ in range(250):
        el = rng.randint(1, 8)
        d = rng.randint(-9, 9)
        tail = (0, el, 0, d)
        m_a = _mult_ratio(el, d - 1)
        assert m_a == _solver((v01, (1, 0, 0, 0), tail, mark), (1, -1, -1, -1))
        assert m_a == _solver((v01, (1, 0, 1, 0), tail, mark), (1, -1, -1, -1))
    # the three-column cone solves integrally at the first multiple
    assert _solver(((1, 0, 0, 0), (1, 0, 1, 0), mark), (-1, -1, -1)) == 1


def test_fingerprint_invariant_under_grading_automorphisms():
    # (f, t) -> (e*f, u*t + s*f mod o) is an automorphism of Z + Z/o, so
    # rewriting every degree with it presents the same grading.
    rng = random.Random(20261020)
    pool = [
        verify(1, (2, 3, -3), 1),
        verify(5, (4, -3), 1),
        verify(1, (3, 4, -8), 2),
        verify(3, (7, -3, 0, 12), 2),
    ]
    for ver in pool:
        cand = ver.candidate
        dd = cand.degrees
        (o,) = dd.torsion
        units = [u for u in range(1, o) if math.gcd(u, o) == 1]
        for _ in range(20):
            e, u, s = rng.choice((1, -1)), rng.choice(units), rng.randrange(o)
            degrees = tuple(
                KElement((e * k.free[0],), ((u * k.tors[0] + s * k.free[0]) % o,))
                for k in dd.degrees
            )
            moved = replace(cand, degrees=replace(dd, degrees=degrees))
            assert fingerprint(moved) == fingerprint(cand), (cand.params, e, u, s)


def _random_unimodular(rng: random.Random, s: int) -> list[list[int]]:
    """Sign flips and row additions applied to the s x s identity."""
    u = [[int(i == j) for j in range(s)] for i in range(s)]
    for i in range(s):
        if rng.random() < 0.5:
            u[i] = [-x for x in u[i]]
    for _ in range(2 * s if s > 1 else 0):
        i, j = rng.sample(range(s), 2)
        k = rng.choice((-2, -1, 1, 2))
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]
    return u


def _twin(rng: random.Random, data):
    """The data with D replaced by U D + B P0, U unimodular and B integral.

    The rows of P change by a unimodular map that fixes the tropical
    leaves, so the variety and the column index sets of its cones stay.
    """
    s, r = len(data.D), data.r
    u = _random_unimodular(rng, s)
    b = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(s)]
    twin_d = [
        [x + y for x, y in zip(ud, bp)]
        for ud, bp in zip(mat_mul(u, data.D), mat_mul(b, data.p[: data.r]))
    ]
    return replace(data, D=tuple(tuple(row) for row in twin_d))


def _swap_blocks_one_two(data, index_sets):
    """The data and index sets with blocks 1 and 2 exchanged.

    Columns, the P0 rows of the two blocks and the matching columns of A
    move together, which swaps e_1 and e_2 of the ambient lattice.
    """
    start = [sum(data.n[:i]) for i in range(data.r + 2)]
    blocks = [list(range(start[i], start[i + 1])) for i in range(data.r + 1)]
    blocks[1], blocks[2] = blocks[2], blocks[1]
    order = [j for block in blocks for j in block]
    order += list(range(data.n_total, data.num_cols))
    new_of = {old: new for new, old in enumerate(order)}

    def swapped(seq):
        seq = list(seq)
        seq[1], seq[2] = seq[2], seq[1]
        return tuple(seq)

    moved = make_data(
        r=data.r, c=data.c, n=swapped(data.n), m=data.m, l=swapped(data.l),
        A=tuple(swapped(row) for row in data.A),
        D=tuple(tuple(row[j] for j in order) for row in data.D),
    )
    return moved, tuple(tuple(sorted(new_of[j] for j in iset)) for iset in index_sets)


def test_twins_and_block_swaps_keep_verdict_and_fingerprint():
    # Lattice automorphisms that fix the tropical structure present the
    # same variety, so every accepted candidate stays accepted with the
    # same fingerprint.
    rng = random.Random(20261021)
    checked = 0
    for index in (1, 2):
        report = classify_index(index)
        for setting in report.settings:
            for cand in setting.accepted:
                expected = fingerprint(cand)
                cases = [
                    (twin, cand.fan.index_sets)
                    for twin in (_twin(rng, cand.data) for _ in range(3))
                ]
                cases.append(_swap_blocks_one_two(cand.data, cand.fan.index_sets))
                for data, index_sets in cases:
                    fan = fan_from_index_sets(data, index_sets)
                    ver = verify_data(data, fan, index)
                    assert ver.accepted, (cand.setting, cand.params, data.D, ver.reason)
                    assert fingerprint(ver.candidate) == expected, (cand.params, data.D)
                    checked += 1
    assert checked == 4 * 25


# ---------------------------------------------------------------------------
# box filters against window scans
#
# The window scans below walk every value of each unknown inside the
# window that its multiplier bounds allow and apply the same final
# tests; they are the reference the divisor-driven filters must match.


def _window_s1(iota: int, bound: int) -> list[Params]:
    hits = []
    for l21 in range(2, bound + 1):
        for d21 in range(-bound, -l21):
            # Cones avoiding the second first-block column reduce to
            # w4 * d21 = -t * (l21 + 1).
            m_a = _mult_ratio(d21, l21 + 1)
            if m_a is None or iota % m_a:
                continue
            for d12 in range(3, bound + 1):
                values = (l21, d12, d21)
                m_b = _mult_ratio(l21 * d12 + d21, l21 + 1)
                if _lcm_hits(iota, m_a, m_b) and _ineq_s1(values):
                    hits.append(values)
    return hits


def _window_s2(iota: int, bound: int) -> list[Params]:
    # The two cones containing both third-block columns share one
    # multiplier: |D| / gcd(D, l21 - l22, d22 - d21) for the minor
    # D = l21*d22 - l22*d21.  Since that multiplier must divide the
    # index, D is confined to a short window once l21, d21, l22 are
    # fixed, which keeps the pair scan small.
    pairs = []
    for l21 in range(2, bound + 1):
        for d21 in range(-bound, bound + 1):
            for l22 in range(2, bound + 1):
                if l21 == l22:
                    if iota % l21:
                        continue
                    window = range(-bound, bound + 1)
                else:
                    reach = iota * abs(l21 - l22)
                    lo = -(-(l22 * d21 - reach) // l21)
                    hi = (l22 * d21 + reach) // l21
                    window = range(max(lo, -bound), min(hi, bound) + 1)
                for d22 in window:
                    minor = l21 * d22 - l22 * d21
                    m34 = _mult_ratio(minor, l21 - l22, d22 - d21)
                    if m34 is not None and iota % m34 == 0:
                        pairs.append((l21, d21, l22, d22, m34))
    hits = []
    for l21, d21, l22, d22, m34 in pairs:
        # The other two multipliers divide the index only when
        # |l * d01 + 2d| <= iota * (l + 2), which confines d01 to a
        # short window around -2d/l on both sides.
        a1 = -iota * (l21 + 2) - 2 * d21
        b1 = iota * (l21 + 2) - 2 * d21
        a2 = -iota * (l22 + 2) - 2 * d22
        b2 = iota * (l22 + 2) - 2 * d22
        lo = max(-(-a1 // l21), -(-a2 // l22), -bound)
        hi = min(b1 // l21, b2 // l22, bound)
        for d01 in range(lo, hi + 1):
            values = (l21, l22, d01, d21, d22)
            if not _ineq_s2(values):
                continue
            m1 = _mult_leading(d01, l21, d21)
            m2 = _mult_leading(d01, l22, d22)
            if _lcm_hits(iota, m1, m2, m34):
                hits.append(values)
    return hits


def _column_s2(iota: int, bound: int) -> list[Params]:
    # Walks the columns (d21, d22) whose minor D divides
    # iota*(l21 - l22), one residue class of d21 per divisor, and then
    # the window of d01 that the inequalities and the two leading
    # multipliers leave; no pair or minor is cut beforehand.  It reaches
    # bounds where the window scan above is too slow.
    hits = []
    for l21 in range(2, bound + 1):
        for l22 in range(2, bound + 1):
            if l21 == l22:
                if iota % l21:
                    continue
                span = range(-bound, bound + 1)
                columns = [(d21, d22) for d21 in span for d22 in span if d22 > d21]
            else:
                g = math.gcd(l21, l22)
                step = l21 // g
                inverse = pow(l22 // g, -1, step)
                columns = []
                for minor in _divisors(iota * (l21 - l22)):
                    if minor % g:
                        continue
                    residue = -(minor // g) * inverse % step
                    lo = max(-bound, -((bound * l21 + minor) // l22))
                    hi = min(bound, (bound * l21 - minor) // l22)
                    for d21 in range(lo + (residue - lo) % step, hi + 1, step):
                        columns.append((d21, (minor + l22 * d21) // l21))
            for d21, d22 in columns:
                lo = max(
                    -((iota * (l21 + 2) + 2 * d21) // l21),
                    -((iota * (l22 + 2) + 2 * d22) // l22),
                    -2 * d22 // l22 + 1,
                    -bound,
                )
                hi = min(
                    (iota * (l21 + 2) - 2 * d21) // l21,
                    (iota * (l22 + 2) - 2 * d22) // l22,
                    -(2 * d21 // l21) - 1,
                    bound,
                )
                if lo > hi:
                    continue
                m34 = _mult_ratio(l21 * d22 - l22 * d21, l21 - l22, d22 - d21)
                if m34 is None or iota % m34:
                    continue
                for d01 in range(lo, hi + 1):
                    values = (l21, l22, d01, d21, d22)
                    if not _ineq_s2(values):
                        continue
                    m1 = _mult_leading(d01, l21, d21)
                    m2 = _mult_leading(d01, l22, d22)
                    if _lcm_hits(iota, m1, m2, m34):
                        hits.append(values)
    return hits


def _window_s34(setting_id: int, iota: int, bound: int) -> list[Params]:
    spec = SETTINGS[setting_id]
    conditional = setting_id == 4
    heads = []
    for d01 in range(-bound, bound + 1):
        # |d01 + 2*d21| <= 3*iota is forced whenever the cone on the
        # first four columns is listed, and covers the degenerate case
        # 2*d21 + d01 = 0 where setting 4 omits that cone.
        lo = -(-(-3 * iota - d01) // 2)
        hi = (3 * iota - d01) // 2
        for d21 in range(max(lo, -bound), min(hi, bound) + 1):
            if conditional and 2 * d21 + d01 == 0:
                heads.append((d01, d21, None))
                continue
            m1 = _mult_leading(d01, 1, d21)
            if m1 is not None and iota % m1 == 0:
                heads.append((d01, d21, m1))
    hits = []
    for d01, d21, m1 in heads:
        for l22 in range(2, bound + 1):
            # d22 windows from the two remaining multipliers: one cone
            # needs |l22*d01 + 2*d22| <= iota*(l22+2), the paired cones
            # need |d22 - l22*d21| <= iota*(l22-1).
            a2 = -iota * (l22 + 2) - l22 * d01
            b2 = iota * (l22 + 2) - l22 * d01
            lo = max(-(-a2 // 2), l22 * d21 - iota * (l22 - 1), -bound)
            hi = min(b2 // 2, l22 * d21 + iota * (l22 - 1), bound)
            for d22 in range(lo, hi + 1):
                values = (l22, d01, d21, d22)
                if not spec.satisfied(values):
                    continue
                m2 = _mult_leading(d01, l22, d22)
                m34 = _mult_ratio(d22 - l22 * d21, 1 - l22, d22 - d21)
                mults = (m2, m34) if m1 is None else (m1, m2, m34)
                if _lcm_hits(iota, *mults):
                    hits.append(values)
    return hits


def _window_s5(iota: int, bound: int) -> list[Params]:
    hits = []
    for l21 in range(2, bound + 1):
        for d21 in range(-bound, 0):
            values = (l21, d21)
            if not _ineq_s5(values):
                continue
            m_a = _mult_ratio(l21, d21 - 1)
            m_b = _mult_ratio(l21 + 2 * d21, l21 + 2, d21 - 1)
            # The three-column cone is always integrally solvable and
            # contributes a factor of one.
            if _lcm_hits(iota, m_a, m_b):
                hits.append(values)
    return hits


_WINDOW_BOUNDS = {
    1: range(1, 41),
    2: range(1, 13),
    3: [*range(1, 25), 32, 40],
    4: [*range(1, 25), 32, 40],
    5: range(1, 41),
}


@pytest.mark.parametrize("setting", [1, 2, 3, 4, 5])
def test_box_filter_matches_window_scan(setting):
    # The cuts that settings 2-4 take from their inequalities depend on
    # the index (a head of setting 3 or 4 needs -(d01 + 2*d21) < 2*index),
    # so those settings are compared at more indices.
    for iota in range(1, 7 if setting in (2, 3, 4) else 5):
        for bound in _WINDOW_BOUNDS[setting]:
            if setting == 1:
                got, want = _box_s1(iota, bound), _window_s1(iota, bound)
            elif setting == 2:
                got, want = _box_s2(iota, bound), _window_s2(iota, bound)
            elif setting == 5:
                got, want = _box_s5(iota, bound), _window_s5(iota, bound)
            else:
                got = _box_s34(setting, iota, bound)
                want = _window_s34(setting, iota, bound)
            assert sorted(got) == sorted(want), (setting, iota, bound)
            assert len(set(got)) == len(got)


def test_box_setting_two_matches_column_scan():
    for iota in range(1, 5):
        for bound in range(13, 41):
            got = _box_s2(iota, bound)
            assert sorted(got) == sorted(_column_s2(iota, bound)), (iota, bound)
            assert len(set(got)) == len(got)


def test_box_setting_two_survivors_obey_the_minor_identity():
    # _box_s2 enumerates a and b through divisors and cuts pairs and
    # minors by 2*D = l21*b - l22*a >= l21 + l22; every survivor of
    # the window scan must satisfy what those cuts assume.
    seen = 0
    for iota in range(1, 7):
        for l21, l22, d01, d21, d22 in _window_s2(iota, 12):
            a = l21 * d01 + 2 * d21
            b = l22 * d01 + 2 * d22
            minor = l21 * d22 - l22 * d21
            assert a <= -1 and b >= 1
            assert 2 * minor == l21 * b - l22 * a >= l21 + l22
            assert iota * (l21 + 2) % a == 0 and iota * (l22 + 2) % b == 0
            if l21 == l22:
                assert iota % l21 == 0
            else:
                assert iota * (l21 - l22) % minor == 0
                assert 2 * iota * abs(l21 - l22) >= l21 + l22
                seen += 1
    assert seen > 100


def test_box_setting_three_index_one_is_empty(monkeypatch):
    from gavindex import classify

    assert _window_s34(3, 1, 60) == []

    # x = d22 - l22*d21 would need l22 < x <= l22 - 1, so the scan
    # returns before it tests any head's multiplier.
    def no_head(*args):
        raise AssertionError("a head was built")

    monkeypatch.setattr(classify, "_mult_leading", no_head)
    assert _box_s34(3, 1, 200) == []


def test_divisor_lemma():
    # |x| / gcd(x, g) divides iota exactly when x divides iota * g.
    rng = random.Random(20261021)
    cases = [(x, g, iota) for x in (-6, -1, 1, 6) for g in (0, 1) for iota in (1, 2, 3, 4)]
    for _ in range(3000):
        x = rng.choice((-1, 1)) * rng.randint(1, 60)
        cases.append((x, rng.randint(-60, 60), rng.randint(1, 12)))
    for x, g, iota in cases:
        assert (iota % _mult_ratio(x, g) == 0) == ((iota * g) % x == 0), (x, g, iota)


def test_divisors_against_trial_division():
    for n in [*range(-200, 201), 3600, -4096, 10007, 2 * 3 * 5 * 7 * 11 * 13]:
        expected = [d for d in range(1, abs(n) + 1) if n % d == 0]
        assert _divisors(n) == expected
        assert _signed_divisors(n) == [-d for d in reversed(expected)] + expected
