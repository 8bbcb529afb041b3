"""Exact polyhedral geometry over the rationals.

Cones are stored in a doubly canonical form: extreme rays (primitive,
reduced modulo lineality, lexicographically sorted) together with facet
normals and span equations. Two cones are equal as Python objects exactly
when they are equal as subsets of the ambient space, which makes cones
usable as dictionary keys throughout the fan machinery.
"""

from __future__ import annotations

import itertools
import math
import operator
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
    dot,
    identity,
    integer_kernel,
    lattice_key,
    min_integral_multiplier,
    primitive,
    rank,
    saturate,
    solve_rational,
    subset_kernel_lines,
    transpose,
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

    def key(self) -> tuple:
        return (self.ambient, self.equations, self.normals)


def _gram_solution(basis: IntMat, rhs: Sequence[int]) -> tuple[int, IntVec]:
    """(den, Y) with Y / den the solution y of (basis @ basis^T) y = rhs, den > 0."""
    gram = tuple(tuple(dot(a, b) for b in basis) for a in basis)
    y = solve_rational(gram, rhs)
    if y is None:
        raise AssertionError("gram system must be solvable")
    den = math.lcm(*(yi.denominator for yi in y))
    return den, tuple(int(yi * den) for yi in y)


def _combine(coeffs: Sequence[int], basis: IntMat) -> IntVec:
    return tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(len(basis[0])))


def _canonical_ray(g: Sequence[int], lineality: IntMat) -> IntVec:
    """Primitive representative of the ray of g modulo the lineality space.

    Subtracts the orthogonal projection of g onto the lineality space,
    scaled by the positive common denominator of its coefficients.
    """
    if not lineality:
        return primitive(g)
    den, coeffs = _gram_solution(lineality, tuple(dot(a, g) for a in lineality))
    proj = _combine(coeffs, lineality)
    return primitive(tuple(den * a - b for a, b in zip(g, proj)))


@lru_cache(maxsize=1 << 17)
def _facet_normals(pool: IntMat, equations: IntMat, ambient: int) -> IntMat:
    """Facet normals of cone(pool), canonicalized inside the span.

    Works on integer coordinates of the pool with respect to a saturated
    basis of its span, cleared of denominators once; a positive rescaling
    keeps every sign.  Every facet is spanned by pool vectors lying on
    it, so candidates are the kernel lines of the rank-(d-1) subsets of
    d-1 pool vectors, d the span dimension.  A candidate survives when
    it does not change sign across the pool.  Many subsets span the same
    facet, so each candidate line is tested and lifted once.
    """
    span_dim = ambient - len(equations)
    if span_dim <= 0:
        return ()
    basis = saturate(pool)
    if len(basis) == ambient:
        # a full-dimensional pool saturates to the standard basis
        coords = pool
    else:
        coords = []
        basis_t = transpose(basis)
        for g in pool:
            # coordinates with respect to the saturated basis are integral
            sol = solve_rational(basis_t, g)
            if sol is None:
                raise AssertionError("generator outside its own span")
            coords.append(clear_denominators(sol))
    seen: set[IntVec] = set()
    found: set[IntVec] = set()
    for nu_coord in subset_kernel_lines(coords):
        if nu_coord in seen:
            continue
        seen.add(nu_coord)
        has_pos = has_neg = False
        for c in coords:
            v = sum(map(operator.mul, nu_coord, c))
            if v > 0:
                has_pos = True
            elif v < 0:
                has_neg = True
            if has_pos and has_neg:
                break
        if has_pos and has_neg:
            continue
        if has_neg:
            nu_coord = tuple(-x for x in nu_coord)
        found.add(_lift_form(nu_coord, basis, ambient))
    return tuple(sorted(found))


def _lift_form(nu_coord: Sequence[int], basis: IntMat, ambient: int) -> IntVec:
    """Ambient vector in the span of the basis whose pairings with the basis rows match nu_coord.

    This is the canonical representative of the linear form nu_coord
    (orthogonal to the span's complement), so equal facets of different
    cones produce identical normal vectors.
    """
    if len(basis) == ambient:
        return primitive(nu_coord)
    # the positive denominator only rescales the lifted vector
    _, coeffs = _gram_solution(basis, nu_coord)
    return primitive(_combine(coeffs, basis))


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
    pool = tuple(
        dict.fromkeys(gens + lines + tuple(tuple(-x for x in v) for v in lines))
    )
    if not pool:
        return Cone(ambient, (), (), (), lattice_key(identity(ambient)))
    equations = lattice_key(integer_kernel(pool))
    normals = _facet_normals(pool, equations, ambient)
    constraints = normals + equations
    if constraints:
        lin_basis = lattice_key(integer_kernel(constraints))
    else:
        lin_basis = lattice_key(identity(ambient))
    rays = _extreme_rays(pool, normals, equations, lin_basis, ambient)
    return Cone(ambient, rays, lin_basis, normals, equations)


def _extreme_rays(
    pool: IntMat,
    normals: IntMat,
    equations: IntMat,
    lin_basis: IntMat,
    ambient: int,
) -> IntMat:
    dim_lin = len(lin_basis)
    rays: set[IntVec] = set()
    for g in pool:
        tight = tuple(nu for nu in normals if dot(nu, g) == 0)
        face_dim = ambient - rank(equations + tight)
        if face_dim == dim_lin + 1:
            rays.add(_canonical_ray(g, lin_basis))
    return tuple(sorted(rays))


def cone_from_inequalities(
    normals: Iterable[Sequence[int]],
    equations: Iterable[Sequence[int]] = (),
    ambient: int | None = None,
) -> Cone:
    """Cone {x : <nu,x> >= 0, <e,x> = 0} via duality.

    The dual cone is generated by the normals and both signs of the
    equations; its facet normals generate the original cone and its span
    equations give the lineality lines.
    """
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
    dual_pool = tuple(
        dict.fromkeys(nus + eqs + tuple(tuple(-x for x in e) for e in eqs))
    )
    if not dual_pool:
        # no constraints at all: the full space
        return Cone(ambient, (), lattice_key(identity(ambient)), (), ())
    dual_equations = lattice_key(integer_kernel(dual_pool))
    dual_normals = _facet_normals(dual_pool, dual_equations, ambient)
    return cone_from_generators(dual_normals, lineality=dual_equations, ambient=ambient)


def zero_cone(ambient: int) -> Cone:
    return cone_from_generators((), ambient=ambient)


def intersect(c1: Cone, c2: Cone) -> Cone:
    if c1.ambient != c2.ambient:
        raise ValueError("ambient dimension mismatch")
    return cone_from_inequalities(
        c1.normals + c2.normals,
        c1.equations + c2.equations,
        ambient=c1.ambient,
    )


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


def face_spanned_by(c: Cone, vanishing: Sequence[Sequence[int]]) -> Cone:
    """The face of c cut out by the given normals of c."""
    return cone_from_inequalities(
        c.normals, c.equations + tuple(tuple(v) for v in vanishing), ambient=c.ambient
    )


def is_face(t: Cone, c: Cone) -> bool:
    """Whether t is a face of c."""
    if t.ambient != c.ambient:
        return False
    if not contains_cone(c, t):
        return False
    tight = tuple(
        nu for nu in c.normals if all(dot(nu, g) == 0 for g in t.generators())
    )
    return t == face_spanned_by(c, tight)


def facets(c: Cone) -> tuple[Cone, ...]:
    return tuple(face_spanned_by(c, (nu,)) for nu in c.normals)


@dataclass(frozen=True)
class Fan:
    """A fan given by its maximal cones.

    Optionally remembers the generating matrix whose columns produced the
    cones and the corresponding column index sets, for reporting.
    """

    ambient: int
    maximal: tuple[Cone, ...]
    ray_columns: IntMat | None = None
    index_sets: tuple[tuple[int, ...], ...] | None = None

    def key(self) -> frozenset:
        return frozenset(c.key() for c in self.maximal)


def make_fan(
    cones: Sequence[Cone],
    validate: bool = True,
    ray_columns: IntMat | None = None,
    index_sets: tuple[tuple[int, ...], ...] | None = None,
) -> Fan:
    if not cones:
        raise ValueError("a fan needs at least one cone")
    ambient = cones[0].ambient
    ordered = tuple(sorted(dict.fromkeys(cones), key=lambda c: c.key()[1:]))
    if validate:
        for a, b in itertools.combinations(ordered, 2):
            common = intersect(a, b)
            if not (is_face(common, a) and is_face(common, b)):
                raise ValueError("cones do not intersect in common faces")
    return Fan(ambient, ordered, ray_columns, index_sets)


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


def refine_fan(fan: Fan, pieces: Sequence[Cone]) -> Fan:
    """Common refinement of the fan with a covering family of cones.

    Maximal cones of the result are the inclusion-maximal pairwise
    intersections of fan cones with pieces.
    """
    candidates: list[Cone] = []
    for c in fan.maximal:
        for p in pieces:
            candidates.append(intersect(c, p))
    unique = list(dict.fromkeys(candidates))
    maximal = [
        c for c in unique if not any(d != c and contains_cone(d, c) for d in unique)
    ]
    return make_fan(maximal, validate=False, ray_columns=fan.ray_columns)


@dataclass(frozen=True)
class Cell:
    """A rational polyhedron in vertex description."""

    ambient: int
    vertices: tuple[RatVec, ...]
    rays: IntMat = ()
    lineality: IntMat = ()

    def key(self) -> tuple:
        return (self.ambient, self.vertices, self.rays, self.lineality)


def _direct_cut(c: Cone, u: Sequence[Rat | int], equality: bool) -> Cell | None:
    """Cheap cut path for forms that are nonpositive on the whole cone.

    Returns None when the sign pattern needs the lifted computation.
    """
    if any(dot(u, line) != 0 for line in c.lineality):
        return None
    vertices: list[RatVec] = []
    rays: list[IntVec] = []
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
    elif c.is_pointed:
        vertices.append(tuple(Fraction(0) for _ in range(c.ambient)))
    return Cell(
        c.ambient,
        tuple(sorted(vertices)),
        tuple(sorted(rays)),
        c.lineality,
    )


def _homogeneous_cut(c: Cone, u: Sequence[Rat | int], equality: bool) -> Cell:
    """Vertex description of {x in c : <u,x> >= -1} (or = -1).

    Works on one extra slack coordinate t: rays of the lifted cone with
    t > 0 rescale to vertices, rays with t = 0 are recession directions.
    This stays exact for forms that are positive on part of the cone,
    where the result is an unbounded polyhedron.
    """
    direct = _direct_cut(c, u, equality)
    if direct is not None:
        return direct
    den = math.lcm(*(Fraction(x).denominator for x in u)) if u else 1
    w = tuple(int(Fraction(x) * den) for x in u)
    zero = tuple(0 for _ in range(c.ambient))
    normals = [nu + (0,) for nu in c.normals]
    normals.append(zero + (1,))
    equations = [e + (0,) for e in c.equations]
    cut = w + (den,)
    if equality:
        equations.append(cut)
    else:
        normals.append(cut)
    lifted = cone_from_inequalities(normals, equations, ambient=c.ambient + 1)
    vertices: list[RatVec] = []
    rays: list[IntVec] = []
    for g in lifted.rays:
        if g[-1] > 0:
            t = Fraction(g[-1])
            vertices.append(tuple(Fraction(x) / t for x in g[:-1]))
        else:
            rays.append(g[:-1])
    if not vertices:
        # no point satisfies the constraint at level -1
        return Cell(c.ambient, (), (), ())
    lineality = lattice_key(tuple(line[:-1] for line in lifted.lineality))
    return Cell(
        c.ambient,
        tuple(sorted(vertices)),
        tuple(sorted(rays)),
        lineality,
    )


def truncate(c: Cone, u: Sequence[Rat | int]) -> Cell:
    """The polyhedron {x in c : <u,x> >= -1} in vertex description."""
    return _homogeneous_cut(c, u, equality=False)


def level_cut(c: Cone, u: Sequence[Rat | int]) -> Cell | None:
    """The polyhedron {x in c : <u,x> = -1}, or None when it is empty."""
    cell = _homogeneous_cut(c, u, equality=True)
    if not cell.vertices:
        return None
    return cell


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
