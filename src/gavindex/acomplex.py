"""The anticanonical complex and its lattice distances.

Here the fan is cut into pieces along the tropical leaves, each piece
is truncated at level -1 of a per-cone support function, and the
outward faces of the truncations (the roofs) form the boundary. The
Gorenstein index is the least common multiple of the lattice distances
from the origin to the boundary cells; a second, independent route
computes per-cone minimal integral multipliers instead.
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
    RatVec,
    clear_denominators,
    dot,
    identity,
    integer_kernel,
    min_integral_multiplier,
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


def _support_for_index(data: ArrangementData, parent: Cone, i: int) -> RatVec:
    """Rational form that is -1 on the truncation level for block index i.

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
    return u


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
    for piece in maximal:
        kind = tropical.classify_cone(trop, piece)
        if kind.kind != "leaf":
            raise AssertionError("piece of the subdivision is not a leaf cone")
        admissible = _admissible_block_indices(data, piece)
        first_support: RatVec | None = None
        first_cell: Cell | None = None
        for parent in parents_of[piece]:
            for i in admissible:
                u = _support_for_index(data, parent, i)
                cell = truncate(piece, u)
                if first_cell is None:
                    first_support, first_cell = u, cell
                elif cell.key() != first_cell.key():
                    raise AssertionError(
                        "truncated cell depends on the block index or parent"
                    )
        assert first_cell is not None and first_support is not None
        roof = level_cut(piece, first_support)
        infos.append(
            PieceInfo(
                parent=parents_of[piece][0],
                piece=piece,
                leaf_indices=kind.leaf_indices,
                support=first_support,
                cell=first_cell,
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
    pts = [tuple(Fraction(v) for v in p) for p in points]
    if not pts:
        raise DegenerateCell("no points given")
    base = tuple(Fraction(v) for v in x)
    ambient = len(base)
    if any(len(p) != ambient for p in pts):
        raise ValueError("point dimensions disagree")
    rows = []
    for p in pts[1:]:
        rows.append(clear_denominators(tuple(a - b for a, b in zip(p, pts[0]))))
    for w in directions:
        rows.append(clear_denominators(tuple(Fraction(v) for v in w)))
    rows = [r for r in rows if any(r)]
    forms = integer_kernel(tuple(rows)) if rows else identity(ambient)
    if not forms:
        raise DegenerateCell("affine hull spans the whole space")
    gap = tuple(a - b for a, b in zip(pts[0], base))
    values = [dot(phi, gap) for phi in forms]
    nonzero = [abs(v) for v in values if v != 0]
    if not nonzero:
        raise DegenerateCell("base point lies in the affine hull of the cell")
    delta = Fraction(
        math.gcd(*(v.numerator for v in nonzero)),
        math.lcm(*(v.denominator for v in nonzero)),
    )
    if delta.denominator != 1:
        raise NotLatticeMeasurable(
            f"value group generator {delta} is not an integer"
        )
    return int(delta)


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
    rows = tuple(cols[j] for j in inside)
    found = []
    for i in range(data.r + 1):
        rhs = []
        for j in inside:
            if data.block_of_column(j) == i:
                rhs.append((data.r - data.c) * data.l_of_column(j) - 1)
            else:
                rhs.append(-1)
        t = min_integral_multiplier(rows, tuple(rhs))
        if t is None:
            raise NotQGorensteinOnCone(
                "no integral multiple of the support values exists", cone=cone
            )
        found.append(t)
    if any(t != found[0] for t in found):
        raise AssertionError("cone multiplier depends on the block index")
    return found[0]


def gorenstein_index_via_cones(data: ArrangementData, fan: Fan | None = None) -> int:
    if fan is None:
        fan = default_fan(data)
    return math.lcm(*(cone_multiplier(data, c) for c in fan.maximal))
