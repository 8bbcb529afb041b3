"""Leaf decomposition of the tropicalized arrangement variety.

The tropical support in Q^(r+s) is a union of leaves: cones spanned by
up to c of the vectors e_0, .., e_r (with e_0 = -e_1 - .. - e_r)
together with a common lineality space spanned by the last s
coordinates. Fan cones are classified by how they sit relative to the
leaves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from .errors import MalformedFanCone
from .polyhedra import (
    Cone,
    Fan,
    cone_from_generators,
    facets,
    intersect,
    make_fan,
    maximal_cones,
    relative_interior_point,
)


@dataclass(frozen=True)
class TropStructure:
    """The leaves in Q^(r+s), and the heads cone(e_I), |I| = c, of the top leaves in Q^r."""

    r: int
    c: int
    s: int
    # determined by r, c and s, so left out of equality and hashing
    leaves: tuple[tuple[frozenset, Cone], ...] = field(compare=False)
    heads: tuple[Cone, ...] = field(compare=False)

    @property
    def ambient(self) -> int:
        return self.r + self.s

    def leaf(self, indices: Sequence[int]) -> Cone:
        want = frozenset(indices)
        for key, cone in self.leaves:
            if key == want:
                return cone
        raise KeyError(f"no leaf with index set {sorted(want)}")


def _direction(r: int, s: int, i: int) -> tuple[int, ...]:
    if i == 0:
        return tuple(-1 for _ in range(r)) + tuple(0 for _ in range(s))
    return tuple(1 if k == i - 1 else 0 for k in range(r)) + tuple(
        0 for _ in range(s)
    )


@lru_cache(maxsize=64)
def trop_structure(r: int, c: int, s: int) -> TropStructure:
    if not r >= c > 0 or s < 0:
        raise ValueError("require r >= c > 0 and s >= 0")
    ambient = r + s
    lin = tuple(
        tuple(1 if k == r + j else 0 for k in range(ambient)) for j in range(s)
    )
    leaves = []
    for size in range(1, c + 1):
        for combo in itertools.combinations(range(r + 1), size):
            gens = [_direction(r, s, i) for i in combo]
            leaves.append(
                (
                    frozenset(combo),
                    cone_from_generators(gens, lineality=lin, ambient=ambient),
                )
            )
    heads = tuple(
        cone_from_generators([_direction(r, 0, i) for i in combo], ambient=r)
        for combo in itertools.combinations(range(r + 1), c)
    )
    return TropStructure(r=r, c=c, s=s, leaves=tuple(leaves), heads=heads)


def minimal_indices(trop: TropStructure, x: Sequence) -> frozenset:
    """Smallest index set I with x inside the leaf of I.

    Writing x (ignoring the lineality coordinates) as a non-negative
    combination of e_0, .., e_r with minimal e_0 coefficient, the set
    collects the indices with positive coefficient. Membership in the
    leaf of I is equivalent to this set being contained in I.  The
    entries of x may be integers or Fractions.
    """
    head = x[: trop.r]
    t_star = max(0, -min(head)) if head else 0
    out = {i + 1 for i, v in enumerate(head) if v + t_star > 0}
    if t_star > 0:
        out.add(0)
    return frozenset(out)


def indices_of_cone(trop: TropStructure, cone: Cone) -> frozenset:
    """Union of the minimal index sets over generators; minimal I with cone in leaf(I)."""
    out: frozenset = frozenset()
    for g in cone.generators():
        out = out | minimal_indices(trop, g)
    return out


@dataclass(frozen=True)
class ConeKind:
    kind: str
    leaf_indices: frozenset | None
    elementary: bool | None


def _head(trop: TropStructure, cone: Cone) -> Cone:
    """The image of the cone under the projection that drops the last s coordinates."""
    r = trop.r
    return cone_from_generators(
        [g[:r] for g in cone.rays], lineality=[v[:r] for v in cone.lineality], ambient=r
    )


@lru_cache(maxsize=1 << 15)
def classify_cone(trop: TropStructure, cone: Cone) -> ConeKind:
    """Classify a fan cone as a leaf cone or a big cone.

    Leaf: contained in a single leaf. Big: its relative interior meets
    every ray direction's leaf. Elementary big cones in addition have
    exactly one extreme ray inside the leaf of {i} for every i.

    The big test runs in Q^r.  Every leaf contains the lineality space
    L of the last s coordinates, so with pi the projection that drops
    them, the leaf of {i} is the preimage of the ray of e_i.  A linear
    image of a relative interior is the relative interior of the image
    (Rockafellar, Convex Analysis, 1970, Theorem 6.6), so relint cone
    meets that leaf exactly when relint pi(cone) meets the ray.  Since a
    relative interior is closed under positive scaling, this holds
    exactly when pi(cone) holds e_i or the origin in its relative
    interior, the latter when pi(cone) is a linear subspace.
    """
    if cone.ambient != trop.ambient:
        raise ValueError("cone lives in the wrong ambient space")
    indices = indices_of_cone(trop, cone)
    if len(indices) <= trop.c:
        return ConeKind(kind="leaf", leaf_indices=indices, elementary=None)
    head = _head(trop, cone)
    if not head.normals or all(
        head.relint_contains(_direction(trop.r, 0, i)) for i in range(trop.r + 1)
    ):
        elementary = all(
            sum(
                1
                for ray in cone.rays
                if minimal_indices(trop, ray) <= {i}
            )
            == 1
            for i in range(trop.r + 1)
        )
        return ConeKind(kind="big", leaf_indices=None, elementary=elementary)
    raise MalformedFanCone(
        "cone is neither inside a leaf nor big", cone=cone
    )


def relint_meets_trop(trop: TropStructure, cone: Cone) -> bool:
    """Whether the relative interior of the cone meets the tropical support.

    By the projection argument of classify_cone (Rockafellar, Convex
    Analysis, 1970, Theorem 6.6), relint cone meets the top leaf
    cone(e_I) + L exactly when relint pi(cone) meets cone(e_I), a
    question in Q^r.  One relative interior point of the intersection
    decides it: a convex subset meeting a relative interior has its
    own relative interior inside it.
    """
    head = _head(trop, cone)
    return any(
        head.relint_contains(relative_interior_point(intersect(head, leaf_head)))
        for leaf_head in trop.heads
    )


def prune_to_minimal(trop: TropStructure, fan: Fan) -> Fan:
    """Drop cones whose relative interior misses the tropical support.

    Removed cones are replaced by their facets; the loop runs until all
    surviving inclusion-maximal cones meet the support openly.
    """
    work: list[Cone] = list(dict.fromkeys(fan.maximal))
    while True:
        keep, dropped = [], []
        for c in work:
            (keep if relint_meets_trop(trop, c) else dropped).append(c)
        if not dropped:
            break
        candidates = list(keep)
        for c in dropped:
            candidates.extend(facets(c))
        work = maximal_cones(candidates)
    return make_fan(work)
