"""The anticanonical complex and its lattice distances.

Here the fan is cut into pieces along the tropical leaves, each piece
is truncated at level -1 of a per-cone support function, and the
outward faces of the truncations (the roofs) form the boundary. The
Gorenstein index is the least common multiple of the lattice distances
from the origin to the boundary cells; a second, independent route
computes per-cone minimal integral multipliers instead.

Both routes compute on integers.  A support form u is held as (w, q),
integers with u = w / q and q > 0; one build_complex call solves it
once per parent cone and block index, cuts each piece once, and reads
the roof off that cut.  lattice_distance scales its points by one
common denominator, and the cones route takes one Smith form per cone
for all block indices.  Fractions appear only at the edges: the
vertices of cells and PieceInfo.support, which reports print as exact
fraction strings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import gav_core, tropical
from .errors import (
    DegenerateCell,
    NotAmple,
    NotLatticeMeasurable,
    NotQGorensteinOnCone,
)
from .exactla import (
    IntVec,
    RatVec,
    clear_denominators,
    dot,
    identity,
    integer_kernel,
    min_integral_multipliers,
    primitive,
    solve_rational,
)
from .gav_core import ArrangementData
from .polyhedra import (
    Cell,
    Cone,
    Fan,
    columns_in,
    cone_from_generators,
    facet_key,
    intersect,
    level_cut,
    maximal_cones,
    truncate,
)


def default_fan(data: ArrangementData) -> Fan:
    """The ample fan of the anticanonical class; NotAmple when there is none."""
    ok, fan = gav_core.is_fano(data)
    if not ok:
        raise NotAmple(
            "the anticanonical class is not ample and no fan was supplied"
        )
    return fan


def _admissible_block_indices(data: ArrangementData, cone: Cone) -> list[int]:
    """Block indices without a column of their block inside the cone."""
    blocked = set()
    for j in columns_in(data.columns(), cone):
        block = data.block_of_column(j)
        if block is not None:
            blocked.add(block)
    return [i for i in range(data.r + 1) if i not in blocked]


def _support_for_index(data: ArrangementData, parent: Cone, i: int) -> tuple[IntVec, int]:
    """Form u = w / q, q > 0, that is -1 on the truncation level for block index i.

    The linear system runs over all matrix columns inside the parent.
    """
    cols = data.columns()
    inside = columns_in(cols, parent)
    rows = [cols[j] for j in inside]
    rhs = []
    for j in inside:
        if data.block_of_column(j) == i:
            rhs.append((data.r - data.c) * data.l_of_column(j) - 1)
        else:
            rhs.append(-1)
    u = solve_rational(rows, rhs)
    if u is None:
        raise NotQGorensteinOnCone(
            "support system on the cone has no rational solution", cone=parent
        )
    q = math.lcm(*(x.denominator for x in u))
    return tuple(x.numerator * (q // x.denominator) for x in u), q


@dataclass(frozen=True)
class PieceInfo:
    parent: Cone
    piece: Cone
    leaf_indices: frozenset
    support: RatVec
    cell: Cell
    roof: Cell | None


@dataclass(frozen=True)
class AnticanonicalComplex:
    fan: Fan
    pieces: tuple[PieceInfo, ...]
    boundary: tuple[Cell, ...]

    def cells(self) -> tuple[Cell, ...]:
        return tuple(p.cell for p in self.pieces)

    def boundary_vertices(self) -> frozenset:
        return frozenset(v for b in self.boundary for v in b.vertices)


def _check_leaf_covering(trop: tropical.TropStructure, fan: Fan) -> None:
    """Full dimensional pieces must tile every leaf of top size.

    Inside a leaf, each facet of a piece either lies on the leaf's own
    boundary or is shared by exactly two pieces.
    """
    for combo in itertools.combinations(range(trop.r + 1), trop.c):
        leaf = trop.leaf(combo)
        pieces = list(dict.fromkeys(intersect(c, leaf) for c in fan.maximal))
        full = [p for p in pieces if p.dim == leaf.dim]
        if not full:
            raise ValueError(
                f"fan does not cover the tropical leaf {sorted(combo)}"
            )
        boundary_cones = []
        for i in combo:
            rest = frozenset(combo) - {i}
            boundary_cones.append(
                trop.leaf(rest) if rest else trop.lineality_cone
            )
        counts: dict[tuple, int] = {}
        for p in full:
            for nu in p.normals:
                tight, lin = facet_key(p, nu)
                spans = tight + lin + tuple(tuple(-x for x in v) for v in lin)
                if any(all(b.contains(g) for g in spans) for b in boundary_cones):
                    continue
                counts[(tight, lin)] = counts.get((tight, lin), 0) + 1
        if any(v != 2 for v in counts.values()):
            raise ValueError(
                f"fan does not cover the tropical leaf {sorted(combo)}"
            )


def build_complex(data: ArrangementData, fan: Fan | None = None) -> AnticanonicalComplex:
    """Assemble pieces, truncated cells and boundary roofs over the fan.

    Requires the fan to either consist of a single maximal cone or to
    cover the tropical support. The truncated cell of a piece must not
    depend on the chosen block index or on which parent cone produced
    it; both are asserted.
    """
    if fan is None:
        fan = default_fan(data)
    trop = tropical.trop_structure(data.r, data.c, data.s)
    cols = data.columns()
    for sigma in fan.maximal:
        generated = cone_from_generators(
            [cols[j] for j in columns_in(cols, sigma)], ambient=data.ambient_dim
        )
        if generated != sigma:
            raise ValueError(
                "fan cone is not generated by the matrix columns inside it"
            )
        tropical.classify_cone(trop, sigma)
    if len(fan.maximal) > 1:
        _check_leaf_covering(trop, fan)

    parents_of: dict[Cone, list[Cone]] = {}
    for sigma in fan.maximal:
        for combo in itertools.combinations(range(trop.r + 1), trop.c):
            parents = parents_of.setdefault(intersect(sigma, trop.leaf(combo)), [])
            if sigma not in parents:
                parents.append(sigma)
    maximal = maximal_cones(parents_of)

    infos = []
    boundary: dict[tuple, Cell] = {}
    forms: dict[tuple[Cone, int], tuple[IntVec, int]] = {}
    for piece in maximal:
        kind = tropical.classify_cone(trop, piece)
        if kind.kind != "leaf":
            raise AssertionError("piece of the subdivision is not a leaf cone")
        admissible = _admissible_block_indices(data, piece)
        # forms with equal values on these generators agree on the piece
        gens = piece.rays + piece.lineality
        cell: Cell | None = None
        for parent in parents_of[piece]:
            for i in admissible:
                form = forms.get((parent, i))
                if form is None:
                    form = forms[parent, i] = _support_for_index(data, parent, i)
                w, q = form
                if cell is None:
                    w0, q0 = w, q
                    values = [dot(w0, g) for g in gens]
                    cell = truncate(piece, w0, q0)
                elif any(dot(w, g) * q0 != v * q for g, v in zip(gens, values)):
                    if truncate(piece, w, q).key() != cell.key():
                        raise AssertionError(
                            "truncated cell depends on the block index or parent"
                        )
        assert cell is not None
        roof = level_cut(cell, w0)
        infos.append(
            PieceInfo(
                parent=parents_of[piece][0],
                piece=piece,
                leaf_indices=kind.leaf_indices,
                support=tuple(Fraction(x, q0) for x in w0),
                cell=cell,
                roof=roof,
            )
        )
        if roof is not None:
            boundary.setdefault(roof.key(), roof)
    return AnticanonicalComplex(
        fan=fan, pieces=tuple(infos), boundary=tuple(boundary.values())
    )


def lattice_distance(
    x: Sequence[int | Fraction],
    points: Sequence[Sequence[int | Fraction]],
    directions: Sequence[Sequence[int | Fraction]] = (),
) -> int:
    """Lattice distance from x to the affine hull of a cell.

    The cell is the convex hull of the points, swept along the optional
    recession directions. The distance is the generator of the value
    group of integral forms vanishing on the hull's direction space,
    evaluated across the gap; it is the number of parallel integral
    hyperplanes strictly between x and the far side, plus one.
    """
    if not points:
        raise DegenerateCell("no points given")
    ambient = len(x)
    if any(len(p) != ambient for p in points):
        raise ValueError("point dimensions disagree")
    # scale every point by one common denominator to integers
    den = math.lcm(*(v.denominator for p in (x, *points) for v in p))
    base, *pts = (tuple(v.numerator * (den // v.denominator) for v in p) for p in (x, *points))
    rows = [primitive(tuple(a - b for a, b in zip(p, pts[0]))) for p in pts[1:]]
    rows += [clear_denominators(w) for w in directions]
    rows = [r for r in rows if any(r)]
    forms = integer_kernel(tuple(rows)) if rows else identity(ambient)
    if not forms:
        raise DegenerateCell("affine hull spans the whole space")
    gap = tuple(a - b for a, b in zip(pts[0], base))
    # the values are dot(phi, gap) / den; their group is generated by gcd / den
    spacing = math.gcd(*(dot(phi, gap) for phi in forms))
    if spacing == 0:
        raise DegenerateCell("base point lies in the affine hull of the cell")
    if spacing % den:
        raise NotLatticeMeasurable(
            f"value group generator {Fraction(spacing, den)} is not an integer"
        )
    return spacing // den


@dataclass(frozen=True)
class DistanceReport:
    index: int
    distances: tuple[int, ...]


def distance_report(cx: AnticanonicalComplex) -> DistanceReport:
    """Lattice distance from the origin to every boundary cell, and their lcm."""
    origin = tuple(0 for _ in range(cx.fan.ambient))
    distances = tuple(
        lattice_distance(origin, roof.vertices, roof.rays + roof.lineality)
        for roof in cx.boundary
    )
    return DistanceReport(index=math.lcm(*distances) if distances else 1, distances=distances)


def gorenstein_index_via_complex(data: ArrangementData, fan: Fan | None = None) -> int:
    return distance_report(build_complex(data, fan)).index


def cone_multiplier(data: ArrangementData, cone: Cone) -> int:
    """Smallest positive multiple of the support values that lifts integrally.

    Computed for every block index; the results must agree.
    """
    cols = data.columns()
    inside = columns_in(cols, cone)
    rhs = [
        tuple(
            (data.r - data.c) * data.l_of_column(j) - 1
            if data.block_of_column(j) == i
            else -1
            for j in inside
        )
        for i in range(data.r + 1)
    ]
    found = min_integral_multipliers(tuple(cols[j] for j in inside), rhs)
    if None in found:
        raise NotQGorensteinOnCone(
            "no integral multiple of the support values exists", cone=cone
        )
    if any(t != found[0] for t in found):
        raise AssertionError("cone multiplier depends on the block index")
    return found[0]


def gorenstein_index_via_cones(data: ArrangementData, fan: Fan | None = None) -> int:
    if fan is None:
        fan = default_fan(data)
    return math.lcm(*(cone_multiplier(data, c) for c in fan.maximal))
