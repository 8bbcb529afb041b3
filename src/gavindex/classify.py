"""Bounded search for Fano threefold candidates of prescribed Gorenstein index.

Five families of defining matrices ("settings") are searched.  Each
setting fixes the shape of the matrix ``P`` up to a few integer
parameters together with a list of maximal fan cones.  Finiteness
results bound some parameters directly in terms of the target index;
the remaining freedom is resolved by divisor enumeration.  Every tuple
produced this way is pushed through full verification, so the
number-theoretic shortcuts act as filters only and can never admit a
wrong candidate.  An independent brute-force box scan serves as a
completeness check on the enumeration.
"""

from __future__ import annotations

import logging
import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from . import tropical
from .acomplex import gorenstein_index_via_complex, gorenstein_index_via_cones
from .errors import (
    InvalidCandidate,
    MalformedFanCone,
    NotQGorensteinOnCone,
    NotQuasiprojectiveSetup,
)
from .gav_core import (
    ArrangementData,
    DegreeData,
    KElement,
    anticanonical_class,
    degree_map,
    fan_from_index_sets,
    is_fano,
    make_data,
    relations,
    validate,
)
from .polyhedra import Fan

log = logging.getLogger(__name__)

_A = ((-1, 1, 0), (-1, 0, 1))

Params = tuple[int, ...]


# ---------------------------------------------------------------------------
# setting templates


@dataclass(frozen=True)
class SettingSpec:
    """Matrix template with free integer parameters and its listed fan.

    enumerate lists the tuples of an index that pass the finiteness
    bounds, and box(index, bound) the tuples of the box scan that pass
    its multiplier filter; neither is verified yet.
    """

    id: int
    param_names: tuple[str, ...]
    build: Callable[[Params], ArrangementData]
    satisfied: Callable[[Params], bool]
    index_sets: Callable[[Params], tuple[tuple[int, ...], ...]]
    leaf_cones: int
    enumerate: Callable[[int], set[Params]]
    box: Callable[[int, int], list[Params]]


def _data_s1(v: Params) -> ArrangementData:
    l21, d12, d21 = v
    return make_data(
        r=2, c=1, n=(2, 2, 1), m=0,
        l=((1, 1), (1, 1), (l21,)),
        A=_A,
        D=((-1, 0, 0, 1, 0), (0, 0, 0, d12, d21)),
    )


def _data_s2(v: Params) -> ArrangementData:
    l21, l22, d01, d21, d22 = v
    return make_data(
        r=2, c=1, n=(1, 2, 2), m=0,
        l=((2,), (1, 1), (l21, l22)),
        A=_A,
        D=((-1, 0, 1, 0, 0), (d01, 0, 0, d21, d22)),
    )


def _data_s5(v: Params) -> ArrangementData:
    l21, d21 = v
    return make_data(
        r=2, c=1, n=(1, 2, 1), m=1,
        l=((2,), (1, 1), (l21,)),
        A=_A,
        D=((-1, 0, 1, 0, 0), (1, 0, 0, d21, 1)),
    )


def _ineq_s1(v: Params) -> bool:
    l21, d12, d21 = v
    return l21 > 1 and d12 > 2 and l21 * (d12 - 1) > -d21 and l21 < -d21


def _ineq_s2(v: Params) -> bool:
    l21, l22, d01, d21, d22 = v
    return (
        l21 > 1 and l22 > 1 and 2 * d22 > -d01 * l22 and -2 * d21 > d01 * l21
    )


def _ineq_s3(v: Params) -> bool:
    l22, d01, d21, d22 = v
    return (
        l22 > 1
        and d22 > d21 * l22 + l22
        and 2 * d22 > -d01 * l22
        and -2 * d21 > d01
    )


def _ineq_s4(v: Params) -> bool:
    l22, d01, d21, d22 = v
    return l22 > 1 and 2 * d22 > -d01 * l22 and 1 - 2 * d21 > d01


def _ineq_s5(v: Params) -> bool:
    l21, d21 = v
    return 1 < l21 < -2 * d21 < 2 * l21


def _cones_s4(v: Params) -> tuple[tuple[int, ...], ...]:
    # The cone on columns 0,1,2,3 degenerates to a face of the others
    # exactly when 2*d21 + d01 vanishes.
    l22, d01, d21, d22 = v
    base = ((0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4))
    if 2 * d21 + d01 != 0:
        return base + ((0, 1, 2, 3),)
    return base


def _setting(setting_id: int) -> SettingSpec:
    try:
        return SETTINGS[setting_id]
    except KeyError:
        raise ValueError(f"unknown setting {setting_id}") from None


# ---------------------------------------------------------------------------
# instantiation and verification


def instantiate(setting_id: int, params: Sequence[int]) -> tuple[ArrangementData, Fan]:
    """Build the matrix data and the listed fan for a parameter tuple.

    Raises InvalidCandidate (and logs the tuple) when the parameters
    violate the setting's inequalities, when the assembled matrix fails
    validation, or when the listed cones do not classify as the setting
    states.  Whether the listed cones form a fan is left to verify_data,
    which accepts them only as the ample fan of -K.
    """
    spec = _setting(setting_id)
    values = tuple(int(x) for x in params)
    if len(values) != len(spec.param_names):
        raise InvalidCandidate(
            f"setting {setting_id} expects parameters {spec.param_names}"
        )

    def reject(why: str) -> InvalidCandidate:
        log.info("setting %d tuple %s rejected: %s", setting_id, values, why)
        return InvalidCandidate(why)

    if not spec.satisfied(values):
        raise reject("parameters violate the setting inequalities")
    data = spec.build(values)
    violations = validate(data)
    if violations:
        raise reject("; ".join(violations))
    fan = fan_from_index_sets(data, spec.index_sets(values))
    trop = tropical.trop_structure(data.r, data.c, data.s)
    try:
        kinds = [tropical.classify_cone(trop, cone).kind for cone in fan.maximal]
    except MalformedFanCone as exc:
        raise reject(str(exc)) from exc
    expected = len(fan.maximal) - spec.leaf_cones
    if kinds.count("big") != expected or kinds.count("leaf") != spec.leaf_cones:
        raise reject("fan cones do not classify as the setting states")
    return data, fan


@dataclass(frozen=True)
class Candidate:
    """A verified variety candidate: matrix data plus its grading facts."""

    setting: int
    params: Params
    data: ArrangementData
    fan: Fan
    degrees: DegreeData
    anticanonical: KElement
    index: int


@dataclass(frozen=True)
class Verification:
    setting: int
    params: Params
    accepted: bool
    candidate: Candidate | None = None
    reason: str | None = None
    detail: object = None


def verify_data(
    data: ArrangementData,
    fan: Fan | None,
    index: int,
    *,
    setting: int = 0,
    params: Params = (),
) -> Verification:
    """Verify prepared matrix data against a target index.

    Accepted means: the anticanonical class is ample, the grading group
    has free rank one, the ample-class fan coincides with the supplied
    fan, and both Gorenstein index routes return exactly the requested
    index.  Everything else is a rejection carrying a machine-readable
    reason.  A missing fan defers to the ample-class fan itself, making
    the agreement clause vacuous.  The supplied cones need not have
    been checked to form a fan: the ample-class fan is one by
    construction, so cones that are not a fan end in fan_mismatch.
    """

    def rejected(reason: str, detail: object = None) -> Verification:
        return Verification(setting, params, False, reason=reason, detail=detail)

    try:
        fano, ample_fan = is_fano(data)
    except NotQuasiprojectiveSetup as exc:
        return rejected("not_fano", str(exc))
    if not fano:
        return rejected("not_fano")
    dd = degree_map(data)
    if dd.free_rank != 1:
        return rejected("rank_mismatch", dd.free_rank)
    assert ample_fan is not None
    if fan is None:
        fan = ample_fan
    elif ample_fan.key() != fan.key():
        return rejected("fan_mismatch")
    try:
        via_complex = gorenstein_index_via_complex(data, fan)
        via_cones = gorenstein_index_via_cones(data, fan)
    except NotQGorensteinOnCone as exc:
        return rejected("not_q_gorenstein", str(exc))
    if via_complex != via_cones:
        raise AssertionError(
            f"gorenstein index routes disagree: {via_complex} vs {via_cones}"
        )
    if via_complex != index:
        return rejected("index_mismatch", via_complex)
    candidate = Candidate(
        setting=setting,
        params=params,
        data=data,
        fan=fan,
        degrees=dd,
        anticanonical=anticanonical_class(data),
        index=via_complex,
    )
    return Verification(setting, params, True, candidate=candidate)


def verify(setting_id: int, params: Sequence[int], index: int) -> Verification:
    """Full check of one setting parameter tuple against a target index."""
    values = tuple(int(x) for x in params)
    try:
        data, fan = instantiate(setting_id, values)
    except InvalidCandidate as exc:
        return Verification(
            setting_id, values, False, reason="invalid", detail=str(exc)
        )
    return verify_data(data, fan, index, setting=setting_id, params=values)


# ---------------------------------------------------------------------------
# enumeration driven by the finiteness bounds


def _divisors(n: int) -> list[int]:
    """Positive divisors of abs(n), ascending; empty for n = 0."""
    n = abs(n)
    if n == 0:
        return []
    small, large = [], []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def _signed_divisors(n: int) -> list[int]:
    pos = _divisors(n)
    return [-d for d in reversed(pos)] + pos


def _enumerate_s1(iota: int) -> set[Params]:
    out: set[Params] = set()
    for d12 in range(3, 3 * iota + 1):
        for k in range(-iota, 0):
            den = k * d12 + iota
            if den == 0:
                log.info(
                    "setting 1: skipped d12=%d k=%d (degenerate factor, "
                    "proved impossible for candidates)", d12, k,
                )
                continue
            for b in _signed_divisors(iota * k * k * d12):
                if (b - iota) % den:
                    continue
                l21 = (b - iota) // den
                if l21 <= 1:
                    continue
                if (iota * (l21 + 1)) % k:
                    continue
                d21 = iota * (l21 + 1) // k
                out.add((l21, d12, d21))
    return out


def _enumerate_s2(iota: int) -> set[Params]:
    out: set[Params] = set()

    # Case: d01 = 0 with equal exponents on the third block.
    if iota % 2 == 0:
        half = iota // 2
        for el in _divisors(iota):
            if el <= 1:
                continue
            bound = (2 + el) * half
            for d22 in _divisors(bound):
                for d21 in _divisors(bound):
                    out.add((el, el, 0, -d21, d22))

        # Case: d01 = 0 with distinct exponents.
        for l22 in range(2, iota):
            for d22 in range(1, iota):
                for k in range(1, iota):
                    for t in _divisors(half + k):
                        for g in _divisors(d22):
                            d21 = -t * g
                            if math.gcd(d21, d22) != g:
                                continue
                            num = iota * (d22 - d21) + k * d21 * l22
                            den = k * d22
                            if num % den:
                                continue
                            l21 = num // den
                            if l21 > l22:
                                out.add((l21, l22, 0, d21, d22))

    # Case: d01 = -1, resolved through the substitution parameters
    # sp = l21 - 2*d21 and tp = -l22 + 2*d22 (both positive here), in
    # the two symmetric branches.
    for swap in (False, True):
        for lx in range(2, 4 * iota):
            for sx in _divisors(iota * (lx + 2)):
                if (sx - lx) % 2:
                    continue
                for k in range(1, iota + 1):
                    for tx in _divisors(2 * iota * sx * (iota + k)):
                        num = 2 * iota * (tx + sx) - k * tx * lx
                        den = k * sx
                        if num % den:
                            continue
                        ly = num // den
                        if ly <= 1 or (tx - ly) % 2:
                            continue
                        if swap:
                            l21, sp, l22, tp = ly, tx, lx, sx
                        else:
                            l21, sp, l22, tp = lx, sx, ly, tx
                        assert (l21 - sp) % 2 == 0 and (l22 + tp) % 2 == 0
                        out.add((l21, l22, -1, (l21 - sp) // 2, (l22 + tp) // 2))
    return out


def _enumerate_s3(iota: int) -> set[Params]:
    out: set[Params] = set()
    for d01 in (-d for d in _divisors(3 * iota)):
        k01 = 3 * iota // d01
        for k22 in range(1, iota):
            if k22 == -k01:
                log.info(
                    "setting 3: skipped d01=%d k22=%d (zero dividend, "
                    "proved impossible for candidates)", d01, k22,
                )
                continue
            den = d01 * k22 + 2 * iota
            if den == 0:
                log.info(
                    "setting 3: skipped d01=%d k22=%d (degenerate factor, "
                    "proved impossible for candidates)", d01, k22,
                )
                continue
            for b in _signed_divisors(6 * iota * (k22 + k01)):
                if (b * k22 + 2 * iota) % den:
                    continue
                l22 = (b * k22 + 2 * iota) // den
                if l22 <= 1:
                    continue
                if (iota * (l22 - 1)) % k22:
                    continue
                d22 = iota * (l22 - 1) // k22
                if d01 * l22 + 2 * d22 != b:
                    continue
                out.add((l22, d01, 0, d22))
    return out


def _enumerate_s4(iota: int) -> set[Params]:
    out: set[Params] = set()
    for d01 in range(-2 * iota, 1):
        for k in range(1, 2 * iota):
            den = d01 * k + 2 * iota
            if den == 0:
                log.info(
                    "setting 4: skipped d01=%d k=%d (degenerate factor, "
                    "proved impossible for candidates)", d01, k,
                )
                continue
            dividend = 2 * iota * (d01 * k + 3 * iota)
            if dividend == 0:
                log.info(
                    "setting 4: skipped d01=%d k=%d (zero dividend, "
                    "proved impossible for candidates)", d01, k,
                )
                continue
            for b in _signed_divisors(dividend):
                if (b * k + 2 * iota) % den:
                    continue
                l22 = (b * k + 2 * iota) // den
                if l22 <= 1:
                    continue
                if (iota * (l22 - 1)) % k:
                    continue
                d22 = iota * (l22 - 1) // k
                if d01 * l22 + 2 * d22 != b:
                    continue
                out.add((l22, d01, 0, d22))
    return out


def _enumerate_s5(iota: int) -> set[Params]:
    out: set[Params] = set()
    for k in range(-iota, 0):
        cc = 2 * k + iota
        if cc >= 0:
            continue
        for b in _signed_divisors(4 * k * iota):
            if (iota * (b - 2)) % cc:
                continue
            l21 = iota * (b - 2) // cc
            if l21 <= 1:
                continue
            if (k * l21) % iota:
                continue
            out.add((l21, 1 + k * l21 // iota))
    return out


def enumerate_setting(setting_id: int, index: int) -> tuple[Params, ...]:
    """All parameter tuples passing the setting's necessary conditions.

    The output is the full solution set of the finiteness bounds and
    divisibility constraints for the requested index, intersected with
    the setting's inequalities; it has not been verified yet.  Tuples
    are returned sorted, so the order is deterministic.
    """
    if index < 1:
        raise ValueError("index must be a positive integer")
    spec = _setting(setting_id)
    raw = spec.enumerate(index)
    return tuple(sorted(t for t in raw if spec.satisfied(t)))


# ---------------------------------------------------------------------------
# duplicate grouping


def _relation_shape(rel) -> tuple:
    # A relation is only defined up to a scalar; normalizing the sign
    # keeps block permutations (which may negate every minor at once)
    # from splitting a fingerprint group.
    plus = tuple(sorted((tuple(sorted(exps)), coeff) for coeff, _, exps in rel.terms))
    minus = tuple(sorted((tuple(sorted(exps)), -coeff) for coeff, _, exps in rel.terms))
    return min(plus, minus)


def _canonical_degrees(dd: DegreeData) -> tuple:
    if dd.free_rank == 1 and len(dd.torsion) == 1:
        # Every automorphism of Z + Z/o maps (f, t) to (e*f, u*t + s*f)
        # with e = +-1, u a unit mod o and s any residue.
        (o,) = dd.torsion
        pairs = [(kel.free[0], kel.tors[0]) for kel in dd.degrees]
        return min(
            tuple(sorted(((e * f,), ((u * t + s * f) % o,)) for f, t in pairs))
            for e in (1, -1)
            for u in range(1, o)
            if math.gcd(u, o) == 1
            for s in range(o)
        )
    plus = sorted((kel.free, kel.tors) for kel in dd.degrees)
    minus = sorted(
        (
            tuple(-x for x in kel.free),
            tuple((o - t) % o for t, o in zip(kel.tors, dd.torsion)),
        )
        for kel in dd.degrees
    )
    return tuple(min(plus, minus))


def fingerprint(candidate: Candidate) -> tuple:
    """Invariant grouping key: graded degrees, index, relation shape, blocks.

    The degrees are taken up to automorphisms of the grading group.  For
    free rank one with cyclic torsion Z/o (the shape of every candidate
    found at index 1-3) the key is the smallest image under all of them:
    the sign of the free part, the units mod o and the shears
    t -> t + s*f.  For any other shape only the global sign flip of both
    parts is factored out, so two presentations of such a group may
    still get different keys.
    """
    data = candidate.data
    degs = _canonical_degrees(candidate.degrees)
    rels = tuple(sorted(_relation_shape(rel) for rel in relations(data)))
    blocks = tuple(
        sorted((data.n[i], tuple(sorted(data.l[i]))) for i in range(data.r + 1))
    )
    return (degs, candidate.index, rels, blocks, data.m)


def dedupe(candidates: Sequence[Candidate]) -> tuple[tuple[Candidate, ...], ...]:
    """Group verified candidates by fingerprint, keeping every member.

    Grouping is a conservative stand-in for isomorphy testing: members
    of one group are potential duplicates of its first member, and
    they stay attached to the group rather than being dropped.
    """
    by_fp: dict[tuple, list[Candidate]] = {}
    for cand in sorted(candidates, key=lambda c: (c.setting, c.params)):
        by_fp.setdefault(fingerprint(cand), []).append(cand)
    return tuple(tuple(g) for g in by_fp.values())


# ---------------------------------------------------------------------------
# brute-force completeness oracle
#
# The box scans below share no derivation with the enumeration above.
# They consider every tuple of the box whose cone multipliers all
# divide the index.  The multipliers are formulas solved in closed form
# from the defining linear systems; min_integral_multiplier reproduces
# each formula, and the test suite pins that equivalence.  The scans
# find those tuples through one lemma: for x != 0 and any g,
#
#     |x| / gcd(x, g) divides iota  exactly when  x divides iota * g,
#
# since with h = gcd(x, g) the quotients x/h and g/h are coprime, so x/h
# divides iota exactly when it divides iota * g/h.  A multiplier that
# divides the index thus ties an unknown to the divisors of a fixed
# number, and the scans list those divisors instead of walking windows
# of values; the paper's bounds are never used.  Every multiplier is
# still computed and tested at the end, so the divisor lists only decide
# which tuples are looked at.  The inequalities each setting states
# shrink the loops in the same way: settings 3 and 4 drop the heads
# (d01, d21) and the divisors that no tuple can complete, and setting 2
# writes its minor as 2*D = l21*b - l22*a for the leading forms
# a <= -1 < 1 <= b, so D >= (l21 + l22) / 2; with D dividing
# iota*|l21 - l22| this drops most pairs (l21, l22) and caps a and b,
# before any multiplier is computed.  Survivors go through full
# verification.


def _mult_ratio(numer: int, *congruent: int) -> int | None:
    """Smallest positive t with numer | t*g for every g, as abs ratio."""
    if numer == 0:
        return None
    return abs(numer) // math.gcd(numer, *congruent)


def _lcm_hits(iota: int, *mults: int | None) -> bool:
    whole = 1
    for m in mults:
        if m is None or iota % m:
            return False
        whole = math.lcm(whole, m)
    return whole == iota


def _box_s1(iota: int, bound: int) -> list[Params]:
    hits = []
    for l21 in range(2, bound + 1):
        # Cones avoiding the second first-block column reduce to
        # w4 * d21 = -t * (l21 + 1): m_a = |d21| / gcd(d21, l21 + 1),
        # which by the lemma divides iota exactly when d21 divides
        # iota*(l21 + 1).  The other cones give m_b = |y| / gcd(y, l21 + 1)
        # with y = l21*d12 + d21, so y divides iota*(l21 + 1) as well and
        # d12 = (y - d21) / l21.
        divisors = _signed_divisors(iota * (l21 + 1))
        for d21 in divisors:
            if not -bound <= d21 < -l21:
                continue
            m_a = _mult_ratio(d21, l21 + 1)
            for y in divisors:
                d12, rest = divmod(y - d21, l21)
                if rest or not 3 <= d12 <= bound:
                    continue
                values = (l21, d12, d21)
                m_b = _mult_ratio(y, l21 + 1)
                if _lcm_hits(iota, m_a, m_b) and _ineq_s1(values):
                    hits.append(values)
    return hits


def _mult_leading(d01: int, el: int, d: int) -> int | None:
    # Cone on the leading column, both second-block columns and one
    # third-block column (0, el, 0, d).
    return _mult_ratio(el * d01 + 2 * d, el + 2, d - d01)


def _box_s2(iota: int, bound: int) -> list[Params]:
    # With a = l21*d01 + 2*d21 and b = l22*d01 + 2*d22 the two cones on
    # the leading column give m1 = |a| / gcd(a, l21 + 2, d21 - d01) and
    # m2 = |b| / gcd(b, l22 + 2, d22 - d01), so by the lemma a divides
    # iota*(l21 + 2) and b divides iota*(l22 + 2); the inequalities read
    # a <= -1 and b >= 1.  The two cones containing both third-block
    # columns share m34 = |D| / gcd(D, l21 - l22, d22 - d21) for the
    # minor D = l21*d22 - l22*d21 = (l21*b - l22*a) / 2, which is at
    # least (l21 + l22) / 2.  When l21 == l22, m34 = l21 for every
    # D > 0.  Otherwise D = l21*(d22 - d21) + d21*(l21 - l22) makes the
    # gcd in m34 a divisor of l21 - l22, so D divides
    # reach = iota*|l21 - l22|: a pair with 2*reach < l21 + l22 keeps no
    # tuple, and with D <= reach, b >= 1 and a <= -1 give
    # -a <= (2*reach - l21) / l22 and b <= (2*reach - l22) / l21.
    # Each (a, b) then leaves d01 alone, with d21 = (a - l21*d01) / 2 and
    # d22 = (b - l22*d01) / 2 in the box.
    divisors = {el: _divisors(iota * (el + 2)) for el in range(2, bound + 1)}
    hits = []
    for l21 in range(2, bound + 1):
        for l22 in range(2, bound + 1):
            lows, highs = divisors[l21], divisors[l22]
            reach = iota * abs(l21 - l22)
            if l21 == l22:
                if iota % l21:
                    continue
            elif 2 * reach < l21 + l22:
                continue
            else:
                lows = lows[: bisect_right(lows, (2 * reach - l21) // l22)]
                highs = highs[: bisect_right(highs, (2 * reach - l22) // l21)]
            for minus_a in lows:
                a = -minus_a
                for b in highs:
                    twice = l21 * b - l22 * a
                    if twice % 2 or (reach and reach % (twice // 2)):
                        continue
                    lo = max(-((2 * bound - a) // l21), -((2 * bound - b) // l22))
                    hi = min((2 * bound + a) // l21, (2 * bound + b) // l22)
                    for d01 in range(max(lo, -bound), min(hi, bound) + 1):
                        d21, odd1 = divmod(a - l21 * d01, 2)
                        d22, odd2 = divmod(b - l22 * d01, 2)
                        if odd1 or odd2:
                            continue
                        values = (l21, l22, d01, d21, d22)
                        if not _ineq_s2(values):
                            continue
                        m1 = _mult_leading(d01, l21, d21)
                        m2 = _mult_leading(d01, l22, d22)
                        minor = l21 * d22 - l22 * d21
                        m34 = _mult_ratio(minor, l21 - l22, d22 - d21)
                        if _lcm_hits(iota, m1, m2, m34):
                            hits.append(values)
    return hits


def _box_s34(setting_id: int, iota: int, bound: int) -> list[Params]:
    spec = SETTINGS[setting_id]
    conditional = setting_id == 4
    # The paired cones share m34 = |x| / gcd(x, l22 - 1, d22 - d21) with
    # x = d22 - l22*d21.  Since d22 - d21 = x + (l22 - 1)*d21, the gcd
    # is gcd(x, l22 - 1), so by the lemma m34 | iota exactly when
    # x | iota*(l22 - 1): d22 runs over l22*d21 plus those divisors.
    # With k = -(d01 + 2*d21), both settings' 2*d22 > -d01*l22 reads
    # 2*x > k*l22.  Setting 3 states -2*d21 > d01, that is k >= 1, and
    # setting 4 states 1 - 2*d21 > d01, that is k >= 0, so x > 0 in both.
    # Since x <= iota*(l22 - 1) < iota*l22, no x is left once
    # k >= 2*iota.  None of this involves l22 or d22, so the heads
    # (d01, d21) are cut to kmin <= k <= 2*iota - 1 before the l22 loop.
    # That range includes k = 0, the degenerate case 2*d21 + d01 = 0
    # where setting 4 omits the cone on the first four columns.
    kmin = 0 if conditional else 1
    # Setting 3 also states d22 > l22*d21 + l22, that is x > l22, and
    # with x <= iota*(l22 - 1) that needs (iota - 1)*l22 > iota: l22
    # starts past iota/(iota - 1), and at iota = 1 no l22 is left.
    first = 2
    if not conditional:
        first = iota // (iota - 1) + 1 if iota > 1 else bound + 1
    if first > bound:
        return []
    heads = []
    for d01 in range(-bound, bound + 1):
        # 2*d21 = -d01 - k, so k <= 2*iota - 1 sets the lowest d21 and
        # k >= kmin the highest.
        lo = -((d01 + 2 * iota - 1) // 2)
        hi = (-d01 - kmin) // 2
        for d21 in range(max(lo, -bound), min(hi, bound) + 1):
            if conditional and 2 * d21 + d01 == 0:
                heads.append((d01, d21, None))
                continue
            m1 = _mult_leading(d01, 1, d21)
            if m1 is not None and iota % m1 == 0:
                heads.append((d01, d21, m1))
    offsets = {l22: _divisors(iota * (l22 - 1)) for l22 in range(first, bound + 1)}
    hits = []
    for d01, d21, m1 in heads:
        k = -(d01 + 2 * d21)
        # |d22| <= bound and |x| <= iota*(l22 - 1) give
        # l22*|d21| <= bound + iota*(l22 - 1), that is
        # l22*(|d21| - iota) <= bound - iota, which ends the l22 loop
        # early once |d21| > iota.
        top = bound
        if abs(d21) > iota:
            top = min(bound, (bound - iota) // (abs(d21) - iota))
        for l22 in range(first, top + 1):
            # The ascending divisor list is entered just past the floor
            # that 2*x > k*l22 (and x > l22 in setting 3) sets, and left
            # where |d22| <= bound ends.
            floor = max(k * l22 // 2, -bound - l22 * d21 - 1, 0 if conditional else l22)
            divisors = offsets[l22]
            start = bisect_right(divisors, floor)
            stop = bisect_right(divisors, bound - l22 * d21)
            for x in divisors[start:stop]:
                d22 = l22 * d21 + x
                values = (l22, d01, d21, d22)
                if not spec.satisfied(values):
                    continue
                m2 = _mult_leading(d01, l22, d22)
                m34 = _mult_ratio(x, 1 - l22, d22 - d21)
                mults = (m2, m34) if m1 is None else (m1, m2, m34)
                if _lcm_hits(iota, *mults):
                    hits.append(values)
    return hits


def _box_s5(iota: int, bound: int) -> list[Params]:
    hits = []
    for l21 in range(2, bound + 1):
        # m_a = l21 / gcd(l21, d21 - 1) divides iota exactly when
        # l21 | iota*(d21 - 1) (the lemma with x = l21), that is when
        # q = l21 / gcd(l21, iota) divides d21 - 1.
        q = l21 // math.gcd(l21, iota)
        for d21 in range(-bound + (bound + 1) % q, 0, q):
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


@lru_cache(maxsize=4096)
def _box_survivor_accepted(setting_id: int, values: Params, index: int) -> bool:
    """Verification verdict of one tuple left by a box scan's filter.

    Scans of nested or overlapping boxes keep the same few tuples, so
    the verdicts are kept between scans.
    """
    return verify(setting_id, values, index).accepted


def brute_force_box(setting_id: int, index: int, bound: int) -> tuple[Params, ...]:
    """Scan of the parameter box, independent of the paper's bounds.

    Considers every parameter tuple with entries of absolute value at
    most ``bound`` that satisfies the setting's own inequalities and
    whose cone multipliers all divide ``index``, and fully verifies
    those.  They are found through divisor lists taken from the
    multiplier formulas, never from the finiteness bounds, and no
    divisor-enumeration shortcut of enumerate_setting is reused, so
    agreement between the two routes is meaningful evidence for the
    completeness of the stated parameter bounds.  The setting's own
    inequalities cut the loops before any multiplier is tested.  The
    cost grows with the bound about linearly in settings 1 and 5, about
    as bound * log(bound) in settings 3 and 4, and about quadratically
    in setting 2, whose loop over (l21, l22) does a few integer tests
    per pair: its minor D = l21*d22 - l22*d21 satisfies
    2*D = l21*b - l22*a >= l21 + l22 for a = l21*d01 + 2*d21 <= -1 and
    b = l22*d01 + 2*d22 >= 1, and D divides index*|l21 - l22| when
    l21 != l22, which leaves few pairs and few divisors a and b.
    Setting 3 at index 1 returns at once, since no tuple satisfies it.
    """
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    if index < 1:
        raise ValueError("index must be a positive integer")
    spec = _setting(setting_id)
    raw = spec.box(index, bound)
    return tuple(
        sorted(v for v in raw if _box_survivor_accepted(spec.id, v, index))
    )


# ---------------------------------------------------------------------------
# the setting table


SETTINGS: dict[int, SettingSpec] = {
    1: SettingSpec(
        id=1,
        param_names=("l21", "d12", "d21"),
        build=_data_s1,
        satisfied=_ineq_s1,
        index_sets=lambda v: ((0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4)),
        leaf_cones=0,
        enumerate=_enumerate_s1,
        box=_box_s1,
    ),
    2: SettingSpec(
        id=2,
        param_names=("l21", "l22", "d01", "d21", "d22"),
        build=_data_s2,
        satisfied=_ineq_s2,
        index_sets=lambda v: ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4)),
        leaf_cones=0,
        enumerate=_enumerate_s2,
        box=_box_s2,
    ),
    # settings 3 and 4 take setting 2's matrix with l21 = 1
    3: SettingSpec(
        id=3,
        param_names=("l22", "d01", "d21", "d22"),
        build=lambda v: _data_s2((1, *v)),
        satisfied=_ineq_s3,
        index_sets=lambda v: ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4)),
        leaf_cones=0,
        enumerate=_enumerate_s3,
        box=lambda iota, bound: _box_s34(3, iota, bound),
    ),
    4: SettingSpec(
        id=4,
        param_names=("l22", "d01", "d21", "d22"),
        build=lambda v: _data_s2((1, *v)),
        satisfied=_ineq_s4,
        index_sets=_cones_s4,
        leaf_cones=0,
        enumerate=_enumerate_s4,
        box=lambda iota, bound: _box_s34(4, iota, bound),
    ),
    5: SettingSpec(
        id=5,
        param_names=("l21", "d21"),
        build=_data_s5,
        satisfied=_ineq_s5,
        index_sets=lambda v: ((0, 1, 3, 4), (0, 2, 3, 4), (0, 1, 2, 3), (1, 2, 4)),
        leaf_cones=1,
        enumerate=_enumerate_s5,
        box=_box_s5,
    ),
}


# ---------------------------------------------------------------------------
# full sweep


@dataclass(frozen=True)
class SettingReport:
    setting: int
    enumerated: tuple[Params, ...]
    accepted: tuple[Candidate, ...]
    rejected: tuple[Verification, ...]


@dataclass(frozen=True)
class ClassificationReport:
    index: int
    settings: tuple[SettingReport, ...]
    groups: tuple[tuple[Candidate, ...], ...]


def _verify_task(task: tuple[int, Params, int]) -> Verification:
    setting_id, values, index = task
    return verify(setting_id, values, index)


def classify_index(
    index: int,
    settings: Sequence[int] = (1, 2, 3, 4, 5),
    jobs: int = 1,
) -> ClassificationReport:
    """Enumerate, verify and group candidates for one Gorenstein index.

    Verification of individual tuples is embarrassingly parallel; with
    jobs > 1 the tuples are farmed out to worker processes, at most one
    per tuple and per CPU, since a pool may start all its workers at
    once.  Results are reassembled in canonical tuple order, so the
    report does not depend on scheduling.
    """
    tasks: list[tuple[int, Params, int]] = []
    enumerated: dict[int, tuple[Params, ...]] = {}
    for sid in settings:
        tuples = enumerate_setting(sid, index)
        enumerated[sid] = tuples
        tasks.extend((sid, v, index) for v in tuples)

    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # Imported here, since a serial run needs none of its modules.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_task, tasks, chunksize=8))
    else:
        results = [_verify_task(t) for t in tasks]
    results.sort(key=lambda v: (v.setting, v.params))

    reports = []
    all_accepted: list[Candidate] = []
    for sid in settings:
        mine = [v for v in results if v.setting == sid]
        accepted = tuple(v.candidate for v in mine if v.accepted)
        reports.append(
            SettingReport(
                setting=sid,
                enumerated=enumerated[sid],
                accepted=accepted,
                rejected=tuple(v for v in mine if not v.accepted),
            )
        )
        all_accepted.extend(accepted)
    groups = dedupe(all_accepted)
    return ClassificationReport(index=index, settings=tuple(reports), groups=groups)
