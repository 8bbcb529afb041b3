"""Arrangement data, grading, moving cone and the ample fan.

The central object is a pair of matrices (A, P). A is a rational
(c+1) x (r+1) matrix in general position; P stacks a block matrix P0
built from the exponent data l over a free integer part D. Columns of P
are indexed by blocks 0..r (sizes n_0..n_r) followed by m extra columns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import NotAmple, NotQuasiprojectiveSetup
from .exactla import (
    IntMat,
    IntVec,
    Rat,
    det,
    lattice_key,
    mat_vec,
    primitive,
    rank,
    snf,
    transpose,
)
from .polyhedra import (
    Cone,
    Fan,
    columns_in,
    cone_from_generators,
    cone_from_inequalities,
    is_complete,
    make_fan,
    maximal_cones,
)
from . import tropical


@dataclass(frozen=True)
class ArrangementData:
    r: int
    c: int
    s: int
    n: tuple[int, ...]
    m: int
    l: tuple[tuple[int, ...], ...]
    A: tuple[tuple[Rat, ...], ...]
    D: IntMat
    # derived from n, m, l and D in __post_init__, so left out of
    # equality, hashing and repr
    p: IntMat = field(init=False, repr=False, compare=False)
    columns: IntMat = field(init=False, repr=False, compare=False)
    # per column: its block index and exponent, None for the m extra columns
    column_blocks: tuple[int | None, ...] = field(init=False, repr=False, compare=False)
    column_exponents: tuple[int | None, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        blocks = tuple([i for i, size in enumerate(self.n) for _ in range(size)] + [None] * self.m)
        exponents = tuple([x for li in self.l for x in li] + [None] * self.m)
        p0 = tuple([
            tuple([-e if b == 0 else e if b == i else 0 for b, e in zip(blocks, exponents)])
            for i in range(1, self.r + 1)
        ])
        p = p0 + self.D
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "columns", transpose(p))
        object.__setattr__(self, "column_blocks", blocks)
        object.__setattr__(self, "column_exponents", exponents)

    @property
    def n_total(self) -> int:
        return sum(self.n)

    @property
    def num_cols(self) -> int:
        return self.n_total + self.m

    @property
    def ambient_dim(self) -> int:
        return self.r + self.s

    def column_labels(self) -> tuple[str, ...]:
        labels = []
        for i, size in enumerate(self.n):
            labels.extend(f"v{i}{j}" for j in range(1, size + 1))
        labels.extend(f"v{k}" for k in range(1, self.m + 1))
        return tuple(labels)


def make_data(
    r: int,
    c: int,
    n: Sequence[int],
    m: int,
    l: Sequence[Sequence[int]],
    A: Sequence[Sequence[Rat | int | str]],
    D: Sequence[Sequence[int]],
) -> ArrangementData:
    """Assemble arrangement data, checking shapes only.

    Semantic conditions (primitivity, general position of A and so on)
    are reported by validate rather than raised here.
    """
    n_t = tuple(int(x) for x in n)
    if len(n_t) != r + 1:
        raise ValueError(f"n must list r+1 = {r + 1} block sizes, got {len(n_t)}")
    l_t = tuple(tuple(int(x) for x in li) for li in l)
    if len(l_t) != r + 1:
        raise ValueError("l must provide one exponent tuple per block")
    for li, ni in zip(l_t, n_t):
        if len(li) != ni:
            raise ValueError("exponent tuple length must match its block size")
    a_t = tuple(tuple(Fraction(x) for x in row) for row in A)
    if len(a_t) != c + 1 or any(len(row) != r + 1 for row in a_t):
        raise ValueError(f"A must have shape ({c + 1})x({r + 1})")
    d_t = tuple(tuple(int(x) for x in row) for row in D)
    total = sum(n_t) + m
    for row in d_t:
        if len(row) != total:
            raise ValueError(f"D rows must have n+m = {total} entries")
    return ArrangementData(
        r=int(r), c=int(c), s=len(d_t), n=n_t, m=int(m), l=l_t, A=a_t, D=d_t
    )


def validate(data: ArrangementData) -> list[str]:
    """Semantic checks; an empty list means the data is admissible."""
    violations: list[str] = []
    if not data.r >= data.c > 0:
        violations.append("require r >= c > 0")
    if any(ni < 1 for ni in data.n):
        violations.append("block sizes must be positive")
    if data.m < 0:
        violations.append("m must be non-negative")
    if any(x < 1 for li in data.l for x in li):
        violations.append("exponents l_ij must be positive integers")
    a_cols = transpose(data.A)
    for combo in itertools.combinations(range(data.r + 1), min(data.c + 1, data.r + 1)):
        sub = tuple(a_cols[j] for j in combo)
        if rank(sub) != data.c + 1:
            violations.append(
                f"columns {list(combo)} of A are linearly dependent"
            )
            break
    cols = data.columns
    if len(set(cols)) != len(cols):
        violations.append("columns of P must be pairwise different")
    for idx, col in enumerate(cols):
        if not any(col):
            violations.append(f"column {idx} of P is zero")
        elif primitive(col) != col:
            violations.append(f"column {idx} of P is not primitive")
    if rank(cols) != data.ambient_dim:
        violations.append("columns of P must span the ambient space")
    return violations


@dataclass(frozen=True)
class Relation:
    """A homogeneous trinomial-style relation, stored symbolically.

    Terms pair a rational coefficient with the block index whose monomial
    T_i^{l_i} it multiplies.
    """

    terms: tuple[tuple[Rat, int, tuple[int, ...]], ...]


def relations(data: ArrangementData) -> tuple[Relation, ...]:
    """The r - c defining relations, by cofactor expansion along the monomial row."""
    a_cols = transpose(data.A)
    out = []
    for t in range(1, data.r - data.c + 1):
        sel = list(range(data.c + 1)) + [data.c + t]
        terms = []
        for pos, j in enumerate(sel):
            rest = tuple(a_cols[k] for k in sel if k != j)
            minor = det(transpose(rest))
            sign = (-1) ** (data.c + 1 + pos)
            terms.append((sign * minor, j, data.l[j]))
        out.append(Relation(terms=tuple(terms)))
    return tuple(out)


@dataclass(frozen=True)
class KElement:
    free: IntVec
    tors: IntVec


@dataclass(frozen=True)
class DegreeData:
    free_rank: int
    torsion: tuple[int, ...]
    q_free: IntMat
    q_tors: IntMat
    degrees: tuple[KElement, ...]
    relation_degree: KElement

    def element_of(self, x: Sequence[int]) -> KElement:
        free = mat_vec(self.q_free, x)
        tors = tuple(
            v % d for v, d in zip(mat_vec(self.q_tors, x), self.torsion)
        )
        return KElement(free, tors)

    def add(self, a: KElement, b: KElement) -> KElement:
        return KElement(
            tuple(x + y for x, y in zip(a.free, b.free)),
            tuple((x + y) % d for x, y, d in zip(a.tors, b.tors, self.torsion)),
        )

    def scale(self, k: int, a: KElement) -> KElement:
        return KElement(
            tuple(k * x for x in a.free),
            tuple((k * x) % d for x, d in zip(a.tors, self.torsion)),
        )

    def zero(self) -> KElement:
        return KElement(
            tuple(0 for _ in range(self.free_rank)),
            tuple(0 for _ in self.torsion),
        )


@lru_cache(maxsize=256)
def degree_map(data: ArrangementData) -> DegreeData:
    """Presentation of the grading group as cokernel of the transpose of P.

    The Smith form is taken of the Hermite basis of the row lattice of
    P, so the result depends on that lattice only, not on how P is
    written.  Free coordinates are the Hermite basis of the integral
    kernel of P, spanned by the rows of the Smith transformation beyond
    the rank; it does not depend on the Smith form's pivot order.
    Torsion coordinates come from the rows with elementary divisor
    greater than one, reduced modulo that divisor.
    """
    h = lattice_key(data.p)
    s_mat, u, _ = snf(transpose(h))
    nrows = data.num_cols
    diag = [s_mat[i][i] for i in range(min(nrows, len(h)))]
    rho = sum(1 for d in diag if d != 0)
    q_free = lattice_key(u[rho:])
    torsion = tuple(diag[i] for i in range(rho) if diag[i] > 1)
    q_tors = tuple(
        tuple(x % diag[i] for x in u[i]) for i in range(rho) if diag[i] > 1
    )
    for prow in data.p:
        if any(v != 0 for v in mat_vec(q_free, prow)):
            raise AssertionError("free part of the grading does not kill P")
        for v, d in zip(mat_vec(q_tors, prow), torsion):
            if v % d != 0:
                raise AssertionError("torsion part of the grading does not kill P")
    dd = DegreeData(
        free_rank=nrows - rho,
        torsion=torsion,
        q_free=q_free,
        q_tors=q_tors,
        degrees=(),
        relation_degree=KElement((), ()),
    )
    basis = tuple(
        tuple(1 if k == j else 0 for k in range(nrows)) for j in range(nrows)
    )
    degrees = tuple(dd.element_of(e) for e in basis)
    facts = tuple(zip(data.column_blocks, data.column_exponents))
    mus = [
        dd.element_of(tuple(e if b == i else 0 for b, e in facts))
        for i in range(data.r + 1)
    ]
    if any(mu != mus[0] for mu in mus):
        raise AssertionError("monomial degrees differ across blocks")
    return DegreeData(
        free_rank=dd.free_rank,
        torsion=torsion,
        q_free=q_free,
        q_tors=q_tors,
        degrees=degrees,
        relation_degree=mus[0],
    )


def anticanonical_class(data: ArrangementData) -> KElement:
    """Sum of all generator degrees minus (r-c) times the relation degree."""
    dd = degree_map(data)
    total = dd.zero()
    for w in dd.degrees:
        total = dd.add(total, w)
    correction = dd.scale(-(data.r - data.c), dd.relation_degree)
    return dd.add(total, correction)


def moving_cone(data: ArrangementData) -> Cone:
    """Intersection over the orthant's facets of the degree images.

    Lives in the free part of the grading group, and is built in one
    call from the normals and equations of all the images.  The columns
    of P must generate the ambient space as a cone, which is decided
    there too: they do exactly when P has full row rank and some
    strictly positive vector lies in its kernel, and by Gordan's
    alternative such a vector exists exactly when the free degrees are
    nonzero and span a pointed cone.
    """
    dd = degree_map(data)
    degrees = [w.free for w in dd.degrees]
    if (
        data.num_cols - dd.free_rank != data.ambient_dim
        or not all(any(w) for w in degrees)
        or not cone_from_generators(degrees, ambient=dd.free_rank).is_pointed
    ):
        raise NotQuasiprojectiveSetup(
            "columns of P must generate the ambient space as a cone"
        )
    images = [
        cone_from_generators(degrees[:drop] + degrees[drop + 1 :], ambient=dd.free_rank)
        for drop in range(data.num_cols)
    ]
    return cone_from_inequalities(
        [nu for image in images for nu in image.normals],
        [e for image in images for e in image.equations],
        ambient=dd.free_rank,
    )


def _free_part(u: KElement | Sequence[int]) -> tuple[int, ...]:
    if isinstance(u, KElement):
        return tuple(u.free)
    if any(type(x) is not int for x in u):
        raise ValueError("class coordinates must be integers")
    return tuple(u)


# Most subsets of the columns the ample-fan search may test.
FACE_BUDGET = 1 << 20


def _sigma_u(data: ArrangementData, u_free: tuple[int, ...]) -> Fan:
    """The raw ample-class fan: images of complementary orthant faces.

    A face gamma0 of the orthant qualifies when u lies in the relative
    interior of the image of its span, and the cones come from the
    minimal qualifying faces.  By Carathéodory's theorem these are
    exactly the sets of at most k = free rank columns whose degrees are
    linearly independent (their cone's dimension is their number) and
    have u in their open positive span, so sum_{i <= k} C(n, i) subsets
    are tested instead of all 2^n faces.
    """
    n, k = data.num_cols, len(u_free)
    tested = sum(math.comb(n, size) for size in range(1, k + 1))
    if tested > FACE_BUDGET:
        raise ValueError(f"face enumeration over {tested} subsets refused (budget {FACE_BUDGET})")
    dd = degree_map(data)
    cols = data.columns
    cones = []
    for size in range(1, k + 1):
        for gamma0 in itertools.combinations(range(n), size):
            image = cone_from_generators([dd.degrees[j].free for j in gamma0], ambient=k)
            if image.dim == size and image.relint_contains(u_free):
                complement = [cols[j] for j in range(n) if j not in gamma0]
                cones.append(cone_from_generators(complement, ambient=data.ambient_dim))
    return make_fan(maximal_cones(cones))


def _with_column_info(fan: Fan, cols: IntMat) -> Fan:
    """Attach to each maximal cone the indices of the columns inside it."""
    return Fan(fan.ambient, fan.maximal, tuple(columns_in(cols, c) for c in fan.maximal))


def _ample_fan(data: ArrangementData, u_free: tuple[int, ...]) -> Fan | None:
    """Minimal projective fan of a class, or None when its raw fan is not complete.

    Raises NotAmple when the class is not in the interior of the moving
    cone.  Cones whose relative interior misses the tropical support are
    pruned from the raw face-image fan.
    """
    mov = moving_cone(data)
    if not mov.relint_contains(u_free):
        raise NotAmple("class is not in the interior of the moving cone")
    raw = _sigma_u(data, u_free)
    if not is_complete(raw):
        return None
    trop = tropical.trop_structure(data.r, data.c, data.s)
    pruned = tropical.prune_to_minimal(trop, raw)
    return _with_column_info(pruned, data.columns)


def fan_from_ample(data: ArrangementData, u: KElement | Sequence[int]) -> Fan:
    """Minimal projective fan attached to an ample class; its raw fan must be complete."""
    u_free = _free_part(u)
    if len(u_free) != degree_map(data).free_rank:
        raise ValueError("class has wrong free rank")
    fan = _ample_fan(data, u_free)
    if fan is None:
        raise ValueError("ample-class fan failed the completeness check")
    return fan


def is_fano(data: ArrangementData) -> tuple[bool, Fan | None]:
    """Whether the anticanonical class is ample with a complete raw fan."""
    if degree_map(data).free_rank == 0:
        return False, None
    try:
        fan = _ample_fan(data, anticanonical_class(data).free)
    except NotAmple:
        return False, None
    return fan is not None, fan


def fan_from_index_sets(
    data: ArrangementData, index_sets: Sequence[Sequence[int]]
) -> Fan:
    """Fan whose maximal cones are spanned by the given column subsets.

    Checks that every index names a column, but not that the cones meet
    in common faces: that is check_fan's job.
    """
    cols = data.columns
    cones = []
    for idx_set in index_sets:
        for j in idx_set:
            if not 0 <= j < len(cols):
                raise ValueError(f"column index {j} out of range")
        cones.append(
            cone_from_generators([cols[j] for j in idx_set], ambient=data.ambient_dim)
        )
    return _with_column_info(make_fan(cones), cols)
