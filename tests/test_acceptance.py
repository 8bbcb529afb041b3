"""End-to-end acceptance checks.

Each test prints one verdict line of the form ``ACCEPTANCE <n>: PASS/FAIL``
followed by a short summary of the evidence, then asserts.  Run with
``pytest tests/test_acceptance.py -s`` to see every line; without ``-s``
the lines still appear for failing criteria.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from gavindex.acomplex import (
    build_complex,
    cone_multiplier,
    distance_report,
    gorenstein_index_via_complex,
    gorenstein_index_via_cones,
    lattice_distance,
)
from gavindex.classify import (
    brute_force_box,
    classify_index,
    fingerprint,
    verify,
)
from gavindex.errors import DegenerateCell, GavError, NotQGorensteinOnCone
from gavindex.exactla import dot, integer_kernel, min_integral_multiplier, primitive
from gavindex.gav_core import (
    degree_map,
    fan_from_index_sets,
    is_fano,
    make_data,
    validate,
)
from gavindex.polyhedra import cone_from_generators, make_fan, toric_gorenstein_index
from gavindex.tropical import classify_cone, trop_structure

WORKED_FAN = ((0, 2, 3), (1, 2, 3), (0, 1))

# shape pool for the randomized dual-route comparison; entries of the
# stacked matrix stay within [-4, 4] by construction
_RAT_POOL = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3),
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_data(rng: random.Random):
    r = rng.choice((1, 1, 2, 2, 2, 3, 3))
    c = rng.choice((r, r, max(1, r - 1), rng.randint(1, r)))
    s = rng.choice((1, 1, 2))
    n = tuple(rng.choice((1, 1, 1, 2)) for _ in range(r + 1))
    m = rng.choice((0, 0, 0, 1))
    exps = tuple(
        tuple(rng.choice((1, 1, 2, 2, 3, 4)) for _ in range(ni)) for ni in n
    )
    ts = rng.sample(_RAT_POOL, r + 1)
    coeffs = tuple(tuple(t**k for t in ts) for k in range(c + 1))
    free_rows = tuple(
        tuple(
            rng.choice((-2, -1, -1, 0, 0, 1, 1, 2, rng.randint(-4, 4)))
            for _ in range(sum(n) + m)
        )
        for _ in range(s)
    )
    return make_data(r=r, c=c, n=n, m=m, l=exps, A=coeffs, D=free_rows)


@pytest.fixture(scope="module")
def oracle_instances():
    """At least 100 random complete Fano instances with both route indices.

    Entries are (data, fan, index_via_complex, index_via_cones) where a
    route that proves the instance not Q-Gorenstein records None; both
    routes must then agree on that verdict for the instance to be skipped.
    """
    rng = random.Random(20260819)
    t0 = time.perf_counter()
    rows = []
    tried = 0
    while len(rows) < 100:
        tried += 1
        if tried > 20000:
            raise RuntimeError("instance generator stalled")
        data = _random_data(rng)
        if validate(data):
            continue
        try:
            fano, fan = is_fano(data)
        except GavError:
            continue
        if not fano:
            continue
        try:
            via_complex = gorenstein_index_via_complex(data, fan)
        except NotQGorensteinOnCone:
            via_complex = None
        try:
            via_cones = gorenstein_index_via_cones(data, fan)
        except NotQGorensteinOnCone:
            via_cones = None
        if via_complex is None and via_cones is None:
            continue
        rows.append((data, fan, via_complex, via_cones))
    elapsed = time.perf_counter() - t0
    return rows, elapsed


@pytest.fixture(scope="module")
def classification():
    """Full classification sweeps for the two smallest index targets."""
    t0 = time.perf_counter()
    reports = {1: classify_index(1), 2: classify_index(2)}
    return reports, time.perf_counter() - t0


def test_acceptance_1_worked_example(worked):
    t0 = time.perf_counter()
    fan = fan_from_index_sets(worked, WORKED_FAN)
    dd = degree_map(worked)
    degrees = [kel.free for kel in dd.degrees]
    cx = build_complex(worked, fan)
    rep = distance_report(cx)
    both = (
        gorenstein_index_via_complex(worked, fan),
        gorenstein_index_via_cones(worked, fan),
    )
    elapsed = time.perf_counter() - t0

    columns = {tuple(Fraction(x) for x in col) for col in worked.columns}
    extra = {
        (Fraction(0), Fraction(0), Fraction(2)),
        (Fraction(0), Fraction(0), Fraction(-1)),
    }
    checks = {
        "degrees": degrees == [(5,), (8,), (9,), (6,)],
        "vertices": set(cx.boundary_vertices()) == columns | extra,
        "distances": sorted(rep.distances) == [1, 1, 1, 2, 3, 4, 4],
        "index": both == (12, 12),
        "time": elapsed < 1.0,
    }
    bad = [k for k, ok in checks.items() if not ok]
    _verdict(
        1,
        not bad,
        f"degrees [5,8,9,6], 6 vertex classes, index 12 twice, {elapsed:.3f}s"
        if not bad
        else f"failed: {bad}",
    )


def test_acceptance_2_dual_route_agreement(oracle_instances):
    rows, elapsed = oracle_instances
    mismatches = [
        (data.r, data.c, data.s, a, b) for data, _, a, b in rows if a != b
    ]
    shapes = {(data.r, data.c, data.s) for data, *_ in rows}
    ok = len(rows) >= 100 and not mismatches and elapsed < 60.0
    _verdict(
        2,
        ok,
        f"{len(rows)} instances over shapes {sorted(shapes)} agree in {elapsed:.1f}s"
        if ok
        else f"n={len(rows)}, {len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_acceptance_3_block_choice_independence(oracle_instances):
    rows, _ = oracle_instances
    cones_checked = 0
    violations = []
    for data, fan, via_complex, _ in rows:
        if via_complex is None:
            continue
        cols = data.columns
        for cone in fan.maximal:
            inside = [j for j, col in enumerate(cols) if cone.contains(col)]
            mat = tuple(cols[j] for j in inside)
            per_index = []
            for i in range(data.r + 1):
                rhs = tuple(
                    (data.r - data.c) * data.column_exponents[j] - 1
                    if data.column_blocks[j] == i
                    else -1
                    for j in inside
                )
                per_index.append(min_integral_multiplier(mat, rhs))
            cones_checked += 1
            if len(set(per_index)) != 1:
                violations.append((data, cone, per_index))
            elif per_index[0] != cone_multiplier(data, cone):
                violations.append((data, cone, per_index))
    _verdict(
        3,
        cones_checked > 0 and not violations,
        f"multiplier equal across all block choices on {cones_checked} maximal cones"
        if not violations
        else f"{len(violations)} cones with block-dependent multipliers",
    )


def _leaf_direction(r: int, s: int, i: int) -> tuple[int, ...]:
    if i == 0:
        return tuple(-1 for _ in range(r)) + (0,) * s
    return tuple(1 if k == i - 1 else 0 for k in range(r)) + (0,) * s


def test_acceptance_4_hyperplane_distance_lcm():
    """Distance to a sliced hyperplane is the lcm of its slab distances.

    The slabs are the hyperplane's intersections with the leaf-direction
    cones.  Expected distances come from an elementary value-group
    computation, so the check also pins lattice_distance itself.
    """
    rng = random.Random(20260821)
    done = 0
    violations = []
    while done < 200:
        r = rng.choice((1, 2, 3))
        s = rng.choice((1, 2))
        ambient = r + s
        u = tuple(rng.randint(-6, 6) for _ in range(ambient))
        if not any(u[r:]):
            continue
        u = primitive(u)
        tail_gcd = math.gcd(*(abs(x) for x in u[r:]))
        head_vals = [-sum(u[:r])] + [u[i] for i in range(r)]
        slab_gcds = [math.gcd(abs(a), tail_gcd) for a in head_vals]
        beta = math.lcm(*slab_gcds) * rng.randint(1, 4) * rng.choice((1, -1))

        origin = (0,) * ambient
        norm = sum(x * x for x in u)
        point = tuple(Fraction(beta * x, norm) for x in u)
        whole = lattice_distance(origin, [point], integer_kernel((u,)))
        if whole != abs(beta):
            violations.append(("whole", u, beta, whole))

        slab_dist = []
        for i in range(r + 1):
            g = _leaf_direction(r, s, i)
            a = dot(u, g)
            restricted = (a,) + tuple(u[r:])
            rnorm = sum(x * x for x in restricted)
            t0 = Fraction(beta * a, rnorm)
            tail = [Fraction(beta * x, rnorm) for x in u[r:]]
            p_i = tuple(t0 * g[k] for k in range(r)) + tuple(tail)
            dirs = tuple(
                tuple(row[0] * g[k] for k in range(r)) + tuple(row[1:])
                for row in integer_kernel((restricted,))
            )
            d_i = lattice_distance(origin, [p_i], dirs)
            slab_dist.append(d_i)
            if d_i != abs(beta) // slab_gcds[i]:
                violations.append(("slab", u, beta, i, d_i))
        for subset in itertools.combinations(range(r + 1), r):
            got = math.lcm(*(slab_dist[i] for i in subset))
            if got != whole:
                violations.append(("lcm", u, beta, subset, got, whole))
        done += 1
    _verdict(
        4,
        not violations,
        f"{done} hyperplanes, every size-r subset of slabs recovers the distance"
        if not violations
        else f"{len(violations)} failures, first: {violations[0]}",
    )


def test_acceptance_5_nested_subspace_divisibility():
    rng = random.Random(20260822)
    done = 0
    violations = []
    while done < 200:
        ambient = rng.choice((3, 4))
        small = rng.randint(0, ambient - 2)
        big = rng.randint(small + 1, ambient - 1)
        dirs = [
            tuple(rng.randint(-3, 3) for _ in range(ambient)) for _ in range(big)
        ]
        point = [tuple(rng.randint(-5, 5) for _ in range(ambient))]
        origin = (0,) * ambient
        try:
            d_small = lattice_distance(origin, point, dirs[:small])
            d_big = lattice_distance(origin, point, dirs)
        except DegenerateCell:
            continue
        if d_big % d_small != 0:
            violations.append((point, dirs, small, d_small, d_big))
        done += 1

    # brute-force cross-check: enumerate every integral form in a box that
    # vanishes on the spanning directions and collect its value at the
    # target point.  The values land on a grid of parallel integral
    # hyperplane levels; the count of levels strictly between the origin
    # and the hull, plus one, is the distance.  The box covers a lattice
    # basis of the orthogonal forms (entries stay below the box radius
    # for normals this small), so the level spacing is exact.
    counted = {2: 0, 3: 0}
    while min(counted.values()) < 60:
        ambient = rng.choice((2, 3))
        k = rng.randint(0, ambient - 1)
        dirs = [tuple(rng.randint(-2, 2) for _ in range(ambient)) for _ in range(k)]
        p = tuple(rng.randint(-6, 6) for _ in range(ambient))
        origin = (0,) * ambient
        try:
            d = lattice_distance(origin, [p], dirs)
        except DegenerateCell:
            continue
        if d > 10:
            continue
        box = range(-15, 16)
        values = set()
        for form in itertools.product(box, repeat=ambient):
            if any(dot(form, w) != 0 for w in dirs):
                continue
            val = abs(dot(form, p))
            if val:
                values.add(val)
        spacing = math.gcd(*values)
        between = spacing - 1
        if between + 1 != d:
            violations.append(("brute", p, dirs, d, spacing))
        counted[ambient] += 1
        done += 1
    _verdict(
        5,
        not violations,
        f"200 nested flags divide, {counted[2]}+{counted[3]} brute-force counts agree"
        if not violations
        else f"{len(violations)} failures, first: {violations[0]}",
    )


def _lineality_violations(check_big_cone_lineality, data, fan):
    trop = trop_structure(data.r, data.c, data.s)
    bad = []
    seen = 0
    for cone in fan.maximal:
        kind = classify_cone(trop, cone)
        if kind.kind != "big":
            continue
        seen += 1
        report = check_big_cone_lineality(trop, cone)
        if not report.meets_relint:
            bad.append(("interior", data, cone))
        if not report.full:
            bad.append(("slice", data, cone, report.slice_dim))
    return seen, bad


def test_acceptance_6_big_cones_meet_lineality(
    oracle_instances, classification, check_big_cone_lineality
):
    rows, _ = oracle_instances
    reports, _ = classification
    seen = 0
    violations = []
    for data, fan, *_ in rows:
        n, bad = _lineality_violations(check_big_cone_lineality, data, fan)
        seen += n
        violations.extend(bad)
    for report in reports.values():
        for setting_report in report.settings:
            for cand in setting_report.accepted:
                n, bad = _lineality_violations(check_big_cone_lineality, cand.data, cand.fan)
                seen += n
                violations.extend(bad)
    _verdict(
        6,
        seen > 0 and not violations,
        f"{seen} maximal big cones meet the lineality space openly and fully"
        if not violations
        else f"{len(violations)} violations, first: {violations[0][:2]}",
    )


def _setting_one_bounds(params, index) -> bool:
    _, d12, _ = params
    return 2 < d12 <= 3 * index


def _setting_five_bounds(params, index) -> bool:
    l21, d21 = params
    k = Fraction(index * (d21 - 1), l21)
    return -index <= k < Fraction(-index, 2)


def test_acceptance_7_classification_box_completeness(classification):
    reports, elapsed_sweeps = classification
    t0 = time.perf_counter()
    violations = []
    raw_equal = []
    class_equal = []
    for index in (1, 2):
        report = reports[index]
        for setting_report in report.settings:
            sid = setting_report.setting
            accepted = {c.params for c in setting_report.accepted}
            box = set(brute_force_box(sid, index, 60))
            if sid in (1, 5):
                raw_equal.append(box == accepted)
                if box != accepted:
                    violations.append(("raw", sid, index, box ^ accepted))
            enum_prints = {fingerprint(c) for c in setting_report.accepted}
            box_prints = set()
            for params in box:
                ver = verify(sid, params, index)
                assert ver.accepted and ver.candidate is not None
                box_prints.add(fingerprint(ver.candidate))
            class_equal.append(box_prints == enum_prints)
            if box_prints != enum_prints:
                violations.append(("classes", sid, index))

    # the box can hold re-presentations of one variety outside the
    # enumeration's normal form; exhibit one such twin pair explicitly
    twin = verify(4, (3, -3, 1, 5), 1)
    base = next(
        c
        for c in reports[1].settings[3].accepted
        if c.params == (3, -1, 0, 2)
    )
    twin_ok = (
        twin.accepted
        and twin.candidate is not None
        and twin.params not in {c.params for c in reports[1].settings[3].accepted}
        and fingerprint(twin.candidate) == fingerprint(base)
    )
    if not twin_ok:
        violations.append(("twin",))

    for index in (1, 2):
        for c in reports[index].settings[0].accepted:
            if not _setting_one_bounds(c.params, index):
                violations.append(("bounds-1", c.params, index))
        for c in reports[index].settings[4].accepted:
            if not _setting_five_bounds(c.params, index):
                violations.append(("bounds-5", c.params, index))
        for setting_report in reports[index].settings:
            for c in setting_report.accepted:
                if c.params not in setting_report.enumerated:
                    violations.append(("window", c.setting, c.params))

    serial = classify_index(3, jobs=1)
    parallel = classify_index(3, jobs=8)
    if serial != parallel:
        violations.append(("determinism",))
    reverified = 0
    for setting_report in serial.settings:
        for cand in setting_report.accepted:
            reverified += 1
            if gorenstein_index_via_cones(cand.data, cand.fan) != 3:
                violations.append(("index-3-cones", cand.setting, cand.params))
            if gorenstein_index_via_complex(cand.data, cand.fan) != 3:
                violations.append(("index-3-complex", cand.setting, cand.params))

    elapsed = elapsed_sweeps + (time.perf_counter() - t0)
    if elapsed >= 600.0:
        violations.append(("runtime", elapsed))
    _verdict(
        7,
        not violations,
        "box B=60 equals enumeration "
        f"(raw for settings 1 and 5, {sum(class_equal)}/{len(class_equal)} "
        "fingerprint classes overall, one twin exhibited), bounds hold, "
        f"{reverified} index-3 candidates reverify on both routes, "
        f"deterministic across jobs, {elapsed:.0f}s"
        if not violations
        else f"{len(violations)} failures, first: {violations[0]}",
    )


def _scan_toric_index(cones: list[list[tuple[int, int]]]) -> int:
    """Dumb search for the smallest integral multiple, two dimensions only."""
    total = 1
    for rays in cones:
        found = None
        for t in range(1, 64):
            for u1 in range(-64, 65):
                for u2 in range(-64, 65):
                    if all(u1 * a + u2 * b == -t for a, b in rays):
                        found = t
                        break
                if found:
                    break
            if found:
                break
        assert found is not None
        total = math.lcm(total, found)
    return total


def test_acceptance_8_toric_index_oracle():
    violations = []

    def fan_of(ray_sets):
        return make_fan([cone_from_generators(rs) for rs in ray_sets])

    plane = [[(1, 0), (0, 1)], [(1, 0), (-1, -1)], [(0, 1), (-1, -1)]]
    squares = [
        [(1, 0), (0, 1)],
        [(0, 1), (-1, 0)],
        [(-1, 0), (0, -1)],
        [(0, -1), (1, 0)],
    ]
    if toric_gorenstein_index(fan_of(plane)) != 1:
        violations.append("plane")
    if toric_gorenstein_index(fan_of(squares)) != 1:
        violations.append("product")

    weighted_expect = {2: 1, 3: 3, 4: 2}
    got = {}
    for w, expect in weighted_expect.items():
        cones = [
            [(1, 0), (0, 1)],
            [(0, 1), (-1, -w)],
            [(1, 0), (-1, -w)],
        ]
        lib = toric_gorenstein_index(fan_of(cones))
        scan = _scan_toric_index(cones)
        got[w] = (lib, scan)
        if not lib == scan == expect:
            violations.append(("weighted", w, lib, scan))
    _verdict(
        8,
        not violations,
        f"plane 1, product 1, weighted {dict((w, v[0]) for w, v in got.items())} "
        "match the scan oracle"
        if not violations
        else f"failures: {violations}",
    )
