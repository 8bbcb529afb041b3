"""Exact integer and rational linear algebra.

The routines compute on plain Python integers: Hermite and Smith forms
by Euclidean row and column reduction, integer kernels from the Hermite
form, and ranks, rational solves, determinants and orthogonal
projectors by fraction-free elimination.  :class:`fractions.Fraction`
appears only where a rational value enters (rows are first scaled to
integers) or leaves (the entries of a rational solution, a
determinant); a rational right hand side of min_integral_multipliers is
written as integers over one common denominator, and one Smith form
serves all its right hand sides.  No floating point is used anywhere.
Matrices are immutable tuples of row tuples, vectors are plain tuples.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

Rat = Fraction

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]
RatVec = tuple[Rat, ...]


def as_matrix(rows: Iterable[Sequence[int]]) -> IntMat:
    return tuple(tuple(int(x) for x in row) for row in rows)


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(operator.mul, u, v))


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    cols = tuple(zip(*b)) if b else ()
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def primitive(v: Sequence[int]) -> IntVec:
    """Scale an integer vector by 1/gcd of its entries.

    The zero vector is returned unchanged.
    """
    g = math.gcd(*v) if v else 0
    if g in (0, 1):
        return tuple(int(x) for x in v)
    return tuple(int(x) // g for x in v)


def clear_denominators(v: Sequence[Rat | int]) -> IntVec:
    """Scale a rational vector by a positive integer to the primitive integer vector on the same ray."""
    if all(type(x) is int for x in v):
        return primitive(v)
    den = math.lcm(*(Fraction(x).denominator for x in v)) if v else 1
    return primitive(tuple(int(Fraction(x) * den) for x in v))


@lru_cache(maxsize=64)
def identity(k: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def _swap(rows: list[list[int]], i: int, j: int) -> None:
    rows[i], rows[j] = rows[j], rows[i]


def _reduce_column(rows: list[list[int]], u: list[list[int]], top: int, col: int) -> bool:
    """Euclidean row reduction of one column below row ``top``.

    Leaves the gcd of rows[top:][col] (up to sign) in rows[top][col] and
    zeros below it, applying every row operation to ``u`` as well.
    Returns False when the column is already zero from ``top`` down.
    """
    nrows = len(rows)
    while True:
        nonzero = [i for i in range(top, nrows) if rows[i][col] != 0]
        if not nonzero:
            return False
        best = min(nonzero, key=lambda i: abs(rows[i][col]))
        if best != top:
            _swap(rows, top, best)
            _swap(u, top, best)
        if len(nonzero) == 1:
            # after the swap the single nonzero entry sits in the top row
            return True
        p = rows[top][col]
        done = True
        for i in range(top + 1, nrows):
            if rows[i][col] != 0:
                q = rows[i][col] // p
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[top])]
                u[i] = [a - q * b for a, b in zip(u[i], u[top])]
                if rows[i][col] != 0:
                    done = False
        if done:
            return True


def _negate_row(rows: list[list[int]], u: list[list[int]], i: int) -> None:
    rows[i] = [-a for a in rows[i]]
    u[i] = [-a for a in u[i]]


def hnf(m: Sequence[Sequence[int]]) -> tuple[IntMat, IntMat]:
    """Row Hermite normal form with transformation.

    Returns (H, U) with U unimodular, H = U @ m, H upper triangular in
    echelon shape, pivots positive and entries above each pivot reduced
    into [0, pivot).
    """
    rows = [list(int(x) for x in row) for row in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    u = [list(row) for row in identity(nrows)]
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        if not _reduce_column(rows, u, pivot_row, col):
            continue
        if rows[pivot_row][col] < 0:
            _negate_row(rows, u, pivot_row)
        p = rows[pivot_row][col]
        for i in range(pivot_row):
            q = rows[i][col] // p
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[pivot_row])]
                u[i] = [a - q * b for a, b in zip(u[i], u[pivot_row])]
        pivot_row += 1
    h = tuple(tuple(row) for row in rows)
    return h, tuple(tuple(row) for row in u)


def _transposed(rows: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*rows)]


def snf(m: Sequence[Sequence[int]]) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form with transformations.

    Returns (S, U, V) with U, V unimodular and S = U @ m @ V diagonal,
    diagonal entries nonnegative and each dividing the next.

    Position t of the diagonal is cleared with the row reduction of
    ``hnf`` on the matrix (recorded in U) and the same reduction on its
    transpose, which is a column reduction (recorded in the transpose of
    V), alternating until row t and column t are zero off the diagonal.
    When the pivot does not divide the rest of the matrix, a row that it
    does not divide is added to row t and the pivot shrinks on the next
    pass.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if nrows == 0 or ncols == 0:
        return tuple(tuple(row) for row in m), identity(nrows), identity(ncols)
    a = [[int(x) for x in row] for row in m]
    u = [list(row) for row in identity(nrows)]
    vt = [list(row) for row in identity(ncols)]
    for t in range(min(nrows, ncols)):
        while True:
            if not any(a[i][t] for i in range(t, nrows)) and not any(a[t][t + 1 :]):
                # row t and column t are zero from the diagonal on: bring in a nonzero column
                col = next(
                    (j for j in range(t + 1, ncols) if any(a[i][j] for i in range(t, nrows))),
                    None,
                )
                if col is None:
                    break
                for row in a:
                    row[t], row[col] = row[col], row[t]
                _swap(vt, t, col)
            _reduce_column(a, u, t, t)
            at = _transposed(a)
            _reduce_column(at, vt, t, t)
            a = _transposed(at)
            if any(a[i][t] for i in range(t + 1, nrows)):
                continue
            p = a[t][t]
            bad = next(
                (
                    i
                    for i in range(t + 1, nrows)
                    if any(a[i][j] % p for j in range(t + 1, ncols))
                ),
                None,
            )
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
        if a[t][t] < 0:
            _negate_row(a, u, t)
    st = tuple(tuple(row) for row in a)
    ut = tuple(tuple(row) for row in u)
    v = transpose(vt)
    if mat_mul(mat_mul(ut, as_matrix(m)), v) != st:
        raise AssertionError("smith decomposition certificate failed")
    if any(st[i][j] for i in range(nrows) for j in range(ncols) if i != j):
        raise AssertionError("smith form is not diagonal")
    diag = [st[i][i] for i in range(min(nrows, ncols))]
    if any(d < 0 for d in diag):
        raise AssertionError("smith diagonal has a negative entry")
    for x, y in zip(diag, diag[1:]):
        if x != 0 and y % x != 0:
            raise AssertionError("smith diagonal divisibility failed")
        if x == 0 and y != 0:
            raise AssertionError("smith diagonal ordering failed")
    return st, ut, v


def _bareiss(
    a: list[list[int]], reduce_above: bool = False, limit: int | None = None
) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of an integer matrix in place.

    Returns the pivot columns and the sign of the row permutation made;
    the first len(pivots) rows are the pivot rows.  Each step replaces a
    row by (p * row - f * pivot_row) / prev, with p the new pivot and
    prev the one before it; the division is exact because every entry
    stays a minor of the input.  With
    ``reduce_above`` rows above the pivot are cleared too (Gauss-Jordan),
    and every pivot ends equal to the last one.  Pivots are sought in
    the first ``limit`` columns only, when given.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if limit is not None:
        ncols = min(ncols, limit)
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        prow = a[r]
        p = prow[col]
        for i in range(0 if reduce_above else r + 1, nrows):
            if i != r:
                f = a[i][col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], prow)]
        prev = p
        pivots.append(col)
        r += 1
    return pivots, sign


def _integer_rows(m: Sequence[Sequence[int | Rat]]) -> list[list[int]]:
    """Each row scaled by a positive integer to integer entries (row spaces and kernels are kept)."""
    return [list(clear_denominators(row)) for row in m]


def rank(m: Sequence[Sequence[int | Rat]]) -> int:
    """Rank of a rational matrix, by fraction-free elimination of its rows cleared of denominators."""
    return len(_bareiss(_integer_rows(m))[0])


def transpose(m: Sequence[Sequence]) -> tuple:
    return tuple(zip(*m)) if m else ()


def integer_kernel(m: Sequence[Sequence[int]]) -> IntMat:
    """Basis of the saturated lattice {x integral : m @ x = 0}.

    The basis spans the full rational kernel intersected with the integer
    lattice, so any integral kernel element is an integer combination of
    it. Computed from a Hermite form of the transpose: rows of the
    transformation matrix opposite the zero rows of H form such a basis.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if nrows == 0:
        return identity(ncols)
    h, u = hnf(transpose(m))
    return tuple(u[i] for i in range(ncols) if not any(h[i]))


def solve_rational(m: Sequence[Sequence[int | Rat]], b: Sequence[int | Rat]) -> RatVec | None:
    """One rational solution of m @ x = b, or None when the system is inconsistent.

    Free variables are set to zero.  The augmented rows are cleared of
    denominators and reduced by fraction-free Gauss-Jordan elimination,
    so the only fractions made are the entries of the answer.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if len(b) != nrows:
        raise ValueError("right hand side length does not match row count")
    a = _integer_rows([tuple(row) + (bv,) for row, bv in zip(m, b)])
    pivots, _ = _bareiss(a, reduce_above=True, limit=ncols)
    r = len(pivots)
    if any(a[i][ncols] for i in range(r, nrows)):
        return None
    x = [Fraction(0)] * ncols
    if pivots:
        d = a[r - 1][pivots[-1]]
        for i, col in enumerate(pivots):
            x[col] = Fraction(a[i][ncols], d)
    return tuple(x)


@lru_cache(maxsize=1 << 12)
def complement_projector(basis: IntMat) -> IntMat:
    """Integer matrix M = den (I - B^T (B B^T)^-1 B), den > 0, for independent rows B.

    M x is a positive multiple of the orthogonal projection of x onto
    the complement of the row space of B.  Fraction-free Gauss-Jordan
    elimination of [B B^T | B] leaves den (B B^T)^-1 B beside the
    pivots, den the common pivot; a Gram matrix is positive definite,
    so no row is swapped and den = det(B B^T) > 0.
    """
    k, n = len(basis), len(basis[0])
    a = [[dot(u, v) for v in basis] + list(u) for u in basis]
    if len(_bareiss(a, reduce_above=True, limit=k)[0]) < k:
        raise ValueError("basis rows are linearly dependent")
    den = a[k - 1][k - 1]
    m = [
        [den * (i == j) - sum(b[i] * row[k + j] for b, row in zip(basis, a)) for j in range(n)]
        for i in range(n)
    ]
    g = math.gcd(*(x for row in m for x in row)) or 1
    return tuple(tuple(x // g for x in row) for row in m)


def min_integral_multiplier(m: Sequence[Sequence[int]], b: Sequence[int | Rat]) -> int | None:
    """Smallest t > 0 such that m @ x = t * b has an integral solution x.

    The right hand side may be rational. Returns None when no positive
    multiple of b lies in the column lattice of m.
    """
    return min_integral_multipliers(m, (b,))[0]


def min_integral_multipliers(
    m: Sequence[Sequence[int]], rhs: Sequence[Sequence[int | Rat]]
) -> list[int | None]:
    """min_integral_multiplier of m for each right hand side, from one Smith form.

    Solvability for a given t is governed by the Smith form: with
    S = U m V and c = U b, an integral solution exists iff s_i divides
    t * c_i on the diagonal part and t * c_i = 0 beyond it.  A rational
    b is written as B / e with B integral and e > 0, so c = (U B) / e is
    computed on integers.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if any(len(b) != nrows for b in rhs):
        raise ValueError("right hand side length does not match row count")
    if nrows == 0:
        return [1 for _ in rhs]
    if ncols == 0:
        return [1 if all(x == 0 for x in b) else None for b in rhs]
    s, u, _ = snf(m)
    rho = sum(1 for i in range(min(nrows, ncols)) if s[i][i] != 0)
    found: list[int | None] = []
    for b in rhs:
        e = math.lcm(*(x.denominator for x in b))
        c = mat_vec(u, tuple(x.numerator * (e // x.denominator) for x in b))
        t: int | None = 1
        for i, ci in enumerate(c):
            if i >= rho:
                if ci != 0:
                    t = None
                    break
                continue
            if ci == 0:
                continue
            # need s_i | t * ci / e, i.e. t divisible by s_i e / gcd(ci, s_i e)
            den = s[i][i] * e
            t = math.lcm(t, den // math.gcd(ci, den))
        found.append(t)
    return found


def det(m: Sequence[Sequence[int | Rat]]) -> Rat:
    """Determinant of a square rational matrix.

    Each row is scaled by the least common denominator of its entries,
    and the integer matrix is reduced by fraction-free (Bareiss)
    elimination, whose last pivot is its determinant up to the sign of
    the row permutation.
    """
    k = len(m)
    if any(len(row) != k for row in m):
        raise ValueError("matrix is not square")
    a = []
    scale = 1
    for row in m:
        den = math.lcm(*(Fraction(x).denominator for x in row))
        a.append([int(Fraction(x) * den) for x in row])
        scale *= den
    pivots, sign = _bareiss(a)
    if len(pivots) < k:
        return Fraction(0)
    return Fraction(sign * a[k - 1][k - 1] if k else 1, scale)


def lattice_key(vectors: Sequence[Sequence[int]]) -> IntMat:
    """Canonical form for the lattice generated by the vectors (HNF with zero rows dropped)."""
    if not vectors:
        return ()
    h, _ = hnf(vectors)
    return tuple(row for row in h if any(row))
