"""Output checks that share no code with the program.

Each function returns a list of error strings; an empty list means the
check passed.  The linear algebra here is plain Gaussian elimination
over ``fractions.Fraction``, written apart from ``gavindex.exactla`` so
that a fault there cannot hide itself.  The matrix P is built here as
well, apart from both the program and bench/gen.py.

A document is a dict with the fields of the ``gavindex`` input format
(``r``, ``c``, ``n``, ``m``, ``l``, ``D``); a cone is a list of column
indices into the columns of ``P``.
"""

from __future__ import annotations

import math
from fractions import Fraction


def p_columns(doc: dict) -> list[tuple[int, ...]]:
    """Columns of P = [P0; D], built from the exponent blocks and D."""
    r, l, m = doc["r"], doc["l"], doc["m"]
    rows = []
    for i in range(1, r + 1):
        row: list[int] = []
        for block, li in enumerate(l):
            if block == 0:
                row.extend(-x for x in li)
            elif block == i:
                row.extend(li)
            else:
                row.extend([0] * len(li))
        row.extend([0] * m)
        rows.append(row)
    rows.extend(list(row) for row in doc["D"])
    return [tuple(col) for col in zip(*rows)]


def column_blocks(doc: dict) -> list[tuple[int | None, int]]:
    """(block, exponent) of every column; extra columns have block None and exponent 0."""
    out = [(i, x) for i, li in enumerate(doc["l"]) for x in li]
    return out + [(None, 0)] * doc["m"]


def _echelon(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Row echelon form of an augmented or plain matrix (rows are copied)."""
    work = [list(r) for r in rows]
    out = []
    width = len(work[0]) if work else 0
    for col in range(width):
        pivot = next((r for r in work if r[col] != 0), None)
        if pivot is None:
            continue
        work.remove(pivot)
        for r in work:
            if r[col] != 0:
                f = r[col] / pivot[col]
                for k in range(col, width):
                    r[k] -= f * pivot[k]
        out.append(pivot)
    return out


def rank(vectors) -> int:
    return len(_echelon([[Fraction(x) for x in v] for v in vectors]))


def det(square) -> Fraction:
    """Determinant by elimination with partial pivoting on nonzero entries."""
    a = [[Fraction(x) for x in row] for row in square]
    n = len(a)
    sign = 1
    total = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        total *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            for k in range(col, n):
                a[i][k] -= f * a[col][k]
    return sign * total


def solve_form(vectors, rhs) -> list[Fraction] | None:
    """The unique u with <u, v> = b for every (v, b), or None if inconsistent.

    The vectors must span the space, which makes a solution unique.
    """
    dim = len(vectors[0])
    aug = [[Fraction(x) for x in v] + [Fraction(b)] for v, b in zip(vectors, rhs)]
    ech = _echelon(aug)
    if any(all(x == 0 for x in row[:dim]) for row in ech):
        return None
    u = [Fraction(0)] * dim
    for row in reversed(ech):
        lead = next(k for k in range(dim) if row[k] != 0)
        acc = row[dim] - sum(row[k] * u[k] for k in range(lead + 1, dim))
        u[lead] = acc / row[lead]
    return u


def support_form_errors(doc: dict, cones, index: int) -> list[str]:
    """The reported index against the support forms of the spanning cones.

    On a maximal cone whose columns span the space, the form u with
    <u, v_j> = (r - c) * l_j - 1 on the columns of block i and -1 on
    the others is unique for each block i, and the smallest multiple
    of u that is integral is the lcm of its denominators.  That lcm
    divides the Gorenstein index, and the index is the lcm over all
    cones when every maximal cone spans.
    """
    cols = p_columns(doc)
    blocks = column_blocks(doc)
    weight = doc["r"] - doc["c"]
    dim = len(cols[0])
    errors = []
    whole = 1
    all_span = True
    for cone in cones:
        vectors = [cols[j] for j in cone]
        if rank(vectors) < dim:
            all_span = False
            continue
        per_block = set()
        for i in range(doc["r"] + 1):
            rhs = [
                weight * blocks[j][1] - 1 if blocks[j][0] == i else -1 for j in cone
            ]
            u = solve_form(vectors, rhs)
            if u is None:
                errors.append(f"cone {list(cone)}: support system for block {i} is inconsistent")
                continue
            per_block.add(math.lcm(*(x.denominator for x in u)))
        if len(per_block) > 1:
            errors.append(f"cone {list(cone)}: denominators depend on the block: {sorted(per_block)}")
        for t in per_block:
            if index % t:
                errors.append(f"cone {list(cone)}: {t} does not divide the index {index}")
            whole = math.lcm(whole, t)
    if all_span and whole != index:
        errors.append(f"every cone spans, lcm is {whole} but the index is {index}")
    return errors


def paper_bound_errors(setting: int, params, index: int) -> list[str]:
    """The parameter bounds of the paper for settings 1 and 5."""
    if setting == 1:
        _, d12, _ = params
        if not 2 < d12 <= 3 * index:
            return [f"setting 1 {tuple(params)}: d12 outside (2, {3 * index}]"]
    elif setting == 5:
        l21, d21 = params
        k = Fraction(index * (d21 - 1), l21)
        if not -index <= k < Fraction(-index, 2):
            return [f"setting 5 {tuple(params)}: index*(d21-1)/l21 = {k} outside [{-index}, {-index}/2)"]
    return []


def twin_errors(base: dict, twin: dict, U, B, base_index: int, twin_index: int) -> list[str]:
    """The twin is base with D replaced by U.D + B.P0, U unimodular, same index."""
    errors = []
    s, r = len(base["D"]), base["r"]
    if len(U) != s or any(len(row) != s for row in U):
        return [f"U is not {s}x{s}"]
    if len(B) != s or any(len(row) != r for row in B):
        return [f"B is not {s}x{r}"]
    if any(not isinstance(x, int) for row in U + B for x in row):
        errors.append("U or B has a non-integral entry")
    if abs(det(U)) != 1:
        errors.append(f"U has determinant {det(U)}, not +-1")
    for key in ("r", "c", "n", "m", "l", "A"):
        if base[key] != twin[key]:
            errors.append(f"twin differs from its base in {key}")
    p0 = [list(col) for col in zip(*p_columns(base))][:r]
    expect = [
        [
            sum(U[a][k] * base["D"][k][j] for k in range(s))
            + sum(B[a][k] * p0[k][j] for k in range(r))
            for j in range(len(base["D"][0]))
        ]
        for a in range(s)
    ]
    if [list(row) for row in twin["D"]] != expect:
        errors.append("twin D is not U.D + B.P0")
    if twin_index != base_index:
        errors.append(f"twin index {twin_index} differs from base index {base_index}")
    return errors


def box_errors(setting: int, index: int, bound: int, accepted, reference) -> list[str]:
    """A scan's result equals the reference tuples that lie inside its box."""
    expect = sorted(
        tuple(v) for v in reference if max(abs(x) for x in v) <= bound
    )
    got = sorted(tuple(v) for v in accepted)
    if got != expect:
        return [
            f"box setting {setting} index {index} bound {bound}: "
            f"got {got}, expected {expect}"
        ]
    return []
