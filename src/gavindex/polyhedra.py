"""Exact polyhedral geometry over the rationals.

Cones are stored in a doubly canonical form: extreme rays (primitive,
reduced modulo lineality, lexicographically sorted) together with facet
normals and span equations. Two cones are equal as Python objects exactly
when they are equal as subsets of the ambient space, which makes cones
usable as dictionary keys throughout the fan machinery.  Dataclass
equality is the only identity: cells compare by their vertex
description, and make_fan lists a fan's cones in one canonical order.

One engine computes every cone: integer double description, which adds
constraints one at a time to a set of extreme rays and lineality lines,
keeping for each ray the bitmask of the constraints tight on it.  Each
cone takes one run.  A cone given by inequalities runs it from nothing.
A cone given by generators runs it on the dual cone, whose extreme rays
are the facet normals, and reads its own rays and lineality off the
bitmasks of that run.  An intersection continues the run of its first
cone from that cone's rays and facets, and a face takes no run: it is
spanned by the rays of its cone tight on it.  Rays are reduced modulo
the lineality space and normals modulo the span of the equations, each
by one integer projector per subspace, built once and reused for every
vector.

A cell is cut from a cone by a form u = w / q given as integers w and
q > 0.  The cut computes on integers; Fractions appear only at the
edge, as the vertices of the resulting Cell.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import NotQGorenstein
from .exactla import (
    IntMat,
    IntVec,
    Rat,
    RatVec,
    clear_denominators,
    complement_projector,
    dot,
    identity,
    integer_kernel,
    lattice_key,
    mat_vec,
    min_integral_multiplier,
    primitive,
)


@dataclass(frozen=True)
class Cone:
    ambient: int
    rays: IntMat
    lineality: IntMat
    normals: IntMat
    equations: IntMat

    @property
    def dim(self) -> int:
        return self.ambient - len(self.equations)

    @property
    def is_pointed(self) -> bool:
        return not self.lineality

    @property
    def is_full_dim(self) -> bool:
        return not self.equations

    def generators(self) -> IntMat:
        """Rays plus a lineality basis in both signs; generate the cone."""
        neg = tuple(tuple(-x for x in row) for row in self.lineality)
        return self.rays + self.lineality + neg

    def contains(self, x: Sequence[int | Rat]) -> bool:
        return all(dot(e, x) == 0 for e in self.equations) and all(
            dot(nu, x) >= 0 for nu in self.normals
        )

    def relint_contains(self, x: Sequence[int | Rat]) -> bool:
        return all(dot(e, x) == 0 for e in self.equations) and all(
            dot(nu, x) > 0 for nu in self.normals
        )


def _canonical_ray(g: Sequence[int], lineality: IntMat) -> IntVec:
    """Primitive representative of the ray of g modulo the lineality space.

    Rays are reduced modulo the lineality space and normals modulo the
    span of the equations by one integer projector per subspace: built
    once per basis and memoised, it maps g to a positive multiple of its
    orthogonal projection onto the complement of the subspace.
    """
    if not lineality:
        return primitive(g)
    return primitive(mat_vec(complement_projector(lineality), g))


@lru_cache(maxsize=1 << 12)
def _orthogonal_key(rows: IntMat, ambient: int) -> IntMat:
    """Hermite basis of the integer vectors orthogonal to every row."""
    return lattice_key(integer_kernel(rows)) if rows else identity(ambient)


def _double_description(
    constraints: IntMat, equations: IntMat, ambient: int
) -> tuple[list[IntVec], list[int], list[IntVec]]:
    """Extreme rays of {x : <a,x> >= 0 for a in constraints, <e,x> = 0 for e in equations}.

    Returns (rays, tight, lines): one integer vector on each extreme ray
    modulo the lineality space, for each ray the bitmask of the
    constraints vanishing on it (bit j for constraints[j]), and a basis
    of the lineality space (not saturated).  The run starts from the
    lines of ker(equations), with no ray, and adds every constraint by
    _extend; this is the only double description that starts from
    nothing.
    """
    lines = list(integer_kernel(equations)) if equations else list(identity(ambient))
    return _extend([], [], lines, constraints, 0)


def _extend(
    rays: list[IntVec],
    tight: list[int],
    lines: list[IntVec],
    constraints: IntMat,
    first_bit: int,
) -> tuple[list[IntVec], list[int], list[IntVec]]:
    """Add constraints to a double description state; constraints[j] gets bit first_bit + j.

    The state is a cone's rays modulo its lineality space, their tight
    bitmasks over the first_bit constraints added so far and a basis of
    that space; those constraints must include every facet of the cone.
    Any cone's rays, lineality and facet normals make such a state, so a
    cone built from another continues its run.

    Incremental double description (Motzkin, Raiffa, Thompson and Thrall
    1953; Fukuda and Prodon 1996) on integers, one constraint at a time.
    A constraint that is nonzero on the lineality turns one line into a
    ray and moves the rest of the cone onto its hyperplane along that
    line.  Otherwise the rays on its negative side are dropped and every
    adjacent pair of a positive and a negative ray is combined into a
    ray on the hyperplane.  Two rays are adjacent when no third ray is
    tight on every constraint they share: the smallest face containing
    both has exactly the rays tight on those constraints, and it is
    two-dimensional exactly when they are its only rays.
    """
    done = (1 << first_bit) - 1
    for j, a in enumerate(constraints):
        bit = 1 << (first_bit + j)
        on_lines = [dot(a, v) for v in lines]
        moving = [i for i, v in enumerate(on_lines) if v]
        if moving:
            k = min(moving, key=lambda i: abs(on_lines[i]))
            pivot, vk = lines.pop(k), on_lines.pop(k)
            if vk < 0:
                pivot, vk = tuple(-x for x in pivot), -vk
            lines = [
                primitive(tuple(vk * x - v * y for x, y in zip(line, pivot))) if v else line
                for line, v in zip(lines, on_lines)
            ]
            rays = [
                primitive(tuple(vk * x - dot(a, r) * y for x, y in zip(r, pivot)))
                for r in rays
            ]
            tight = [t | bit for t in tight]
            rays.append(pivot)
            tight.append(done)
        else:
            values = [dot(a, r) for r in rays]
            if any(v < 0 for v in values):
                kept = [i for i, v in enumerate(values) if v >= 0]
                new_rays = [rays[i] for i in kept]
                new_tight = [tight[i] | bit if values[i] == 0 else tight[i] for i in kept]
                for p, vp in enumerate(values):
                    if vp <= 0:
                        continue
                    for n, vn in enumerate(values):
                        if vn >= 0:
                            continue
                        common = tight[p] & tight[n]
                        if any(
                            t & common == common and i != p and i != n
                            for i, t in enumerate(tight)
                        ):
                            continue
                        new_rays.append(
                            primitive(tuple(vp * x - vn * y for x, y in zip(rays[n], rays[p])))
                        )
                        new_tight.append(common | bit)
                rays, tight = new_rays, new_tight
            else:
                tight = [t | bit if v == 0 else t for t, v in zip(tight, values)]
        done |= bit
    return rays, tight, lines


def cone_from_generators(
    generators: Iterable[Sequence[int | Rat]],
    lineality: Iterable[Sequence[int | Rat]] = (),
    ambient: int | None = None,
) -> Cone:
    """Cone spanned by the generators plus the lineality lines."""
    gens = [clear_denominators(g) for g in generators]
    gens = [g for g in gens if any(g)]
    lines = [clear_denominators(v) for v in lineality]
    lines = [v for v in lines if any(v)]
    if ambient is None:
        probe = gens or lines
        if not probe:
            raise ValueError("ambient dimension needed for the zero cone")
        ambient = len(probe[0])
    for v in gens + lines:
        if len(v) != ambient:
            raise ValueError("generator dimension mismatch")
    return _cone_from_pool(tuple(gens), tuple(lines), ambient)


@lru_cache(maxsize=1 << 17)
def _cone_from_pool(gens: IntMat, lines: IntMat, ambient: int) -> Cone:
    """The cone of a pool, read off the double description of its dual.

    The pool spans the dual cone {y : <y,g> >= 0 for g in the pool},
    whose extreme rays are the facet normals and whose lineality space
    is orthogonal to the span of the pool.  Let Z(g) be the set of
    facets tight on a pool vector g; g lies in the smallest face of the
    cone that Z(g) cuts out, and a face is spanned by the pool vectors
    in it.  So the lineality space, the face on every facet, is spanned
    by the pool vectors with Z(g) all facets, and each extreme ray holds
    a pool vector whose Z(g) is maximal among the proper sets.
    """
    pool = tuple(
        dict.fromkeys(gens + lines + tuple(tuple(-x for x in v) for v in lines))
    )
    dual_rays, dual_tight, dual_lines = _double_description(pool, (), ambient)
    equations = _orthogonal_key(pool, ambient) if dual_lines else ()
    facets_of = sorted(zip((_canonical_ray(y, equations) for y in dual_rays), dual_tight))
    every = (1 << len(facets_of)) - 1
    zs = [
        sum(1 << i for i, (_, t) in enumerate(facets_of) if t >> j & 1)
        for j in range(len(pool))
    ]
    # one pool vector per proper face it spans
    faces = {z: g for g, z in zip(pool, zs) if z != every}
    rays = {z: g for z, g in faces.items() if not any(z != o and z & o == z for o in faces)}
    return _assemble(
        tuple(nu for nu, _ in facets_of),
        equations,
        ambient,
        list(rays.values()),
        list(rays),
        [g for g, z in zip(pool, zs) if z == every],
    )


def cone_from_inequalities(
    normals: Iterable[Sequence[int]],
    equations: Iterable[Sequence[int]] = (),
    ambient: int | None = None,
) -> Cone:
    """Cone {x : <nu,x> >= 0, <e,x> = 0}."""
    nus = [primitive(tuple(int(x) for x in nu)) for nu in normals]
    nus = [nu for nu in nus if any(nu)]
    eqs = [primitive(tuple(int(x) for x in e)) for e in equations]
    eqs = [e for e in eqs if any(e)]
    if ambient is None:
        probe = nus or eqs
        if not probe:
            raise ValueError("ambient dimension needed for the full space")
        ambient = len(probe[0])
    return _cone_from_constraints(tuple(nus), tuple(eqs), ambient)


@lru_cache(maxsize=1 << 17)
def _cone_from_constraints(nus: IntMat, eqs: IntMat, ambient: int) -> Cone:
    """The cone of the constraints, by a double description from nothing."""
    return _assemble(nus, eqs, ambient, *_double_description(nus, eqs, ambient))


def _assemble(
    nus: IntMat,
    eqs: IntMat,
    ambient: int,
    rays: Sequence[IntVec],
    tight: Sequence[int],
    lines: Sequence[IntVec],
) -> Cone:
    """The canonical Cone {x : <nu,x> >= 0, <e,x> = 0}; every Cone is built here.

    rays holds one vector on each extreme ray modulo the lineality
    space, tight for each ray its bitmask of the nus vanishing on it
    (bit j for nus[j]; higher bits are ignored), and lines spans the
    lineality space.  A constraint defines a facet when the set of
    extreme rays it is tight on is proper and inclusion-maximal among
    those sets.  A constraint tight on every ray is an implicit
    equation; without one, and without eqs, the cone is full
    dimensional.
    """
    every = (1 << len(rays)) - 1
    on_ray = [sum(1 << i for i, t in enumerate(tight) if t >> j & 1) for j in range(len(nus))]
    proper = {s for s in on_ray if s != every}
    if eqs or every in on_ray:
        equations = _orthogonal_key(tuple(rays) + tuple(lines), ambient)
    else:
        equations = ()
    lineality = _orthogonal_key(nus + eqs, ambient) if lines else ()
    normals = {
        _canonical_ray(nu, equations)
        for nu, s in zip(nus, on_ray)
        if s in proper and not any(s != o and s & o == s for o in proper)
    }
    return Cone(
        ambient,
        tuple(sorted({_canonical_ray(r, lineality) for r in rays})),
        lineality,
        tuple(sorted(normals)),
        equations,
    )


def _tight_masks(c: Cone, rays: Iterable[IntVec]) -> list[int]:
    """For each ray, the bitmask of the normals of c vanishing on it."""
    return [sum(1 << j for j, nu in enumerate(c.normals) if dot(nu, g) == 0) for g in rays]


@lru_cache(maxsize=1 << 17)
def intersect(c1: Cone, c2: Cone) -> Cone:
    """The cone c1 ∩ c2, continuing the double description of c1.

    The run starts from the rays and lineality of c1, with bitmasks
    against its normals, which are exactly its facets; it adds the
    normals of c2 and each equation e of c2 as the pair e, -e.
    """
    if c1.ambient != c2.ambient:
        raise ValueError("ambient dimension mismatch")
    nus = c1.normals + c2.normals
    pairs = tuple(v for e in c2.equations for v in (e, tuple(-x for x in e)))
    state = _extend(
        list(c1.rays),
        _tight_masks(c1, c1.rays),
        list(c1.lineality),
        c2.normals + pairs,
        len(c1.normals),
    )
    return _assemble(nus, c1.equations + c2.equations, c1.ambient, *state)


def relative_interior_point(c: Cone) -> IntVec:
    """A point in the relative interior; the zero vector when the cone is a subspace."""
    if not c.rays:
        return tuple(0 for _ in range(c.ambient))
    total = [0] * c.ambient
    for g in c.rays:
        total = [a + b for a, b in zip(total, g)]
    return tuple(total)


def contains_cone(outer: Cone, inner: Cone) -> bool:
    return all(outer.contains(g) for g in inner.generators())


def maximal_cones(cones: Iterable[Cone]) -> list[Cone]:
    """The distinct cones not inside another one, in order of first appearance.

    A cone d that holds c holds its relative interior point, so that one
    point is tested first; it only prefilters the full generator test,
    and the result is exact for any cones, fan or not.
    """
    unique = list(dict.fromkeys(cones))
    return [
        c
        for c, p in zip(unique, map(relative_interior_point, unique))
        if not any(
            d.dim >= c.dim and d != c and d.contains(p) and contains_cone(d, c)
            for d in unique
        )
    ]


def columns_in(cols: Sequence[Sequence[int]], cone: Cone) -> tuple[int, ...]:
    """Indices of the columns that lie in the cone."""
    return tuple(j for j, col in enumerate(cols) if cone.contains(col))


def face_spanned_by(c: Cone, vanishing: Sequence[Sequence[int]]) -> Cone:
    """The face of c cut out by the given normals of c.

    Each vanishing form is nonnegative on c, so the face is spanned by
    the rays of c tight on all of them plus the lineality space of c;
    it is assembled from them with no double description.
    """
    rays = [g for g in c.rays if all(dot(v, g) == 0 for v in vanishing)]
    return _assemble(
        c.normals,
        c.equations + tuple(tuple(v) for v in vanishing),
        c.ambient,
        rays,
        _tight_masks(c, rays),
        c.lineality,
    )


def facets(c: Cone) -> tuple[Cone, ...]:
    return tuple(face_spanned_by(c, (nu,)) for nu in c.normals)


@dataclass(frozen=True)
class Fan:
    """A fan given by its maximal cones.

    A fan built from matrix columns also lists, for each maximal cone in
    order, the indices of the columns inside it, for reporting.
    """

    ambient: int
    maximal: tuple[Cone, ...]
    index_sets: tuple[tuple[int, ...], ...] | None = None


def make_fan(cones: Sequence[Cone]) -> Fan:
    """Fan of the distinct cones in canonical order.

    Whether the cones meet in common faces is not checked here; cones
    from outside the program go through check_fan.
    """
    if not cones:
        raise ValueError("a fan needs at least one cone")
    ambient = cones[0].ambient
    ordered = tuple(sorted(dict.fromkeys(cones), key=lambda c: (c.equations, c.normals)))
    return Fan(ambient, ordered)


def check_fan(fan: Fan) -> Fan:
    """The fan itself, or ValueError when two of its cones do not meet in a common face.

    The intersection lies in both cones, so it is a face of one exactly
    when the normals of that cone vanishing on it cut out the intersection.
    """
    for a, b in itertools.combinations(fan.maximal, 2):
        common = intersect(a, b)
        gens = common.rays + common.lineality
        for c in (a, b):
            vanishing = [nu for nu in c.normals if all(dot(nu, g) == 0 for g in gens)]
            if face_spanned_by(c, vanishing) != common:
                raise ValueError("cones do not intersect in common faces")
    return fan


def facet_key(c: Cone, nu: Sequence[int]) -> tuple:
    """Identifier of the facet of c tight on one of its facet normals.

    A face is spanned by the extreme rays lying on it plus the whole
    lineality space, so this key avoids rebuilding the face as a cone.
    """
    tight = tuple(sorted(g for g in c.rays if dot(nu, g) == 0))
    return (tight, c.lineality)


def is_complete(fan: Fan) -> bool:
    """Completeness via facet pairing.

    A fan covers the whole space exactly when all maximal cones are
    full dimensional and every facet of a maximal cone is shared by
    precisely one other maximal cone.
    """
    if not fan.maximal:
        return False
    if any(not c.is_full_dim for c in fan.maximal):
        return False
    counts: dict[tuple, int] = {}
    for c in fan.maximal:
        for nu in c.normals:
            k = facet_key(c, nu)
            counts[k] = counts.get(k, 0) + 1
    return all(v == 2 for v in counts.values())


@dataclass(frozen=True)
class Cell:
    """A rational polyhedron in vertex description."""

    ambient: int
    vertices: tuple[RatVec, ...]
    rays: IntMat = ()
    lineality: IntMat = ()


def _direct_cut(c: Cone, w: Sequence[int], q: int) -> Cell | None:
    """Cheap cut path for forms that are nonpositive on the whole cone.

    Each ray g with <w,g> < 0 gives the vertex q g / -<w,g>.  Returns
    None when the sign pattern needs the lifted computation.
    """
    if any(dot(w, line) != 0 for line in c.lineality):
        return None
    vertices: list[RatVec] = []
    rays: list[IntVec] = []
    for g in c.rays:
        val = dot(w, g)
        if val > 0:
            return None
        if val == 0:
            rays.append(g)
        else:
            vertices.append(tuple(Fraction(q * x, -val) for x in g))
    vertices.append(tuple(Fraction(0) for _ in range(c.ambient)))
    return Cell(c.ambient, tuple(sorted(vertices)), tuple(rays), c.lineality)


def _lifted_cut(c: Cone, w: Sequence[int], q: int) -> Cell:
    """The truncation on one extra slack coordinate t.

    Rays of the lifted cone {(x, t) : x in c, t >= 0, <w,x> + q t >= 0}
    with t > 0 rescale to vertices, rays with t = 0 are recession
    directions.  This stays exact for forms that are positive on part
    of the cone, where the result is an unbounded polyhedron.
    """
    zero = tuple(0 for _ in range(c.ambient))
    normals = [nu + (0,) for nu in c.normals]
    normals += [zero + (1,), tuple(w) + (q,)]
    equations = [e + (0,) for e in c.equations]
    lifted = cone_from_inequalities(normals, equations, ambient=c.ambient + 1)
    vertices = [tuple(Fraction(x, g[-1]) for x in g[:-1]) for g in lifted.rays if g[-1]]
    rays = [g[:-1] for g in lifted.rays if not g[-1]]
    lineality = lattice_key(tuple(line[:-1] for line in lifted.lineality))
    return Cell(c.ambient, tuple(sorted(vertices)), tuple(rays), lineality)


def truncate(c: Cone, w: Sequence[int], q: int = 1) -> Cell:
    """The polyhedron {x in c : <u,x> >= -1} in vertex description, u = w / q.

    The form is given by integers w and q > 0.
    """
    direct = _direct_cut(c, w, q)
    return direct if direct is not None else _lifted_cut(c, w, q)


def level_cut(cell: Cell, w: Sequence[int]) -> Cell | None:
    """The face {<u,x> = -1} of cell = truncate(c, w, q), or None when it is empty.

    Every vertex of a truncation other than the zero vector lies at
    level -1: a vertex above it would be a vertex of the cone itself,
    and the only one is the origin (modulo the lineality space, on
    which u vanishes).  The face keeps those vertices, the recession
    directions on which u vanishes and the lineality space.
    """
    vertices = tuple(v for v in cell.vertices if any(v))
    if not vertices:
        return None
    rays = tuple(g for g in cell.rays if dot(w, g) == 0)
    return Cell(cell.ambient, vertices, rays, cell.lineality)


def toric_gorenstein_index(fan: Fan) -> int:
    """Smallest positive integer t such that every maximal cone admits an
    integral form evaluating to -t on all its primitive ray generators."""
    total = 1
    for c in fan.maximal:
        target = tuple(-1 for _ in c.rays)
        t = min_integral_multiplier(c.rays, target)
        if t is None:
            raise NotQGorenstein("no multiple of the canonical form is integral")
        total = math.lcm(total, t)
    return total
