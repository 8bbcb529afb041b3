"""Tests for the exact linear algebra kernel.

The expected values here were computed by hand or by independent
brute force before the implementation was written.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from gavindex.exactla import (
    clear_denominators,
    det,
    dot,
    hnf,
    integer_kernel,
    lattice_key,
    mat_mul,
    mat_vec,
    min_integral_multiplier,
    min_integral_multipliers,
    primitive,
    rank,
    snf,
    solve_rational,
)


def random_matrix(rng: random.Random, nrows: int, ncols: int, bound: int = 6):
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(ncols)) for _ in range(nrows)
    )


def is_echelon(h) -> bool:
    """Pivot columns strictly increase and entries above each pivot are reduced."""
    last = -1
    seen_zero_row = False
    for row in h:
        piv = next((j for j, x in enumerate(row) if x != 0), None)
        if piv is None:
            seen_zero_row = True
            continue
        if seen_zero_row or piv <= last:
            return False
        if row[piv] <= 0:
            return False
        last = piv
    for i, row in enumerate(h):
        piv = next((j for j, x in enumerate(row) if x != 0), None)
        if piv is None:
            continue
        for k in range(i):
            if not 0 <= h[k][piv] < row[piv]:
                return False
    return True


def test_hnf_small_fixture():
    h, u = hnf(((2, 4), (1, 1)))
    assert h == ((1, 1), (0, 2))
    assert mat_mul(u, ((2, 4), (1, 1))) == h
    assert abs(det(u)) == 1


def test_hnf_empty():
    assert hnf(()) == ((), ())


def test_hnf_random_properties():
    rng = random.Random(41)
    for _ in range(80):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        h, u = hnf(m)
        assert mat_mul(u, m) == h
        assert abs(det(u)) == 1
        assert is_echelon(h)


def test_snf_diagonal_fixture():
    s, u, v = snf(((2, 0), (0, 3)))
    assert s == ((1, 0), (0, 6))


def test_snf_three_by_three():
    m = ((2, 4, 4), (-6, 6, 12), (10, 4, 16))
    s, u, v = snf(m)
    assert s == ((2, 0, 0), (0, 2, 0), (0, 0, 156))
    assert mat_mul(mat_mul(u, m), v) == s


def test_snf_zero_matrix():
    s, u, v = snf(((0, 0), (0, 0)))
    assert s == ((0, 0), (0, 0))


def test_snf_random_divisibility():
    rng = random.Random(42)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        s, u, v = snf(m)
        assert mat_mul(mat_mul(u, m), v) == s
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)


def test_integer_kernel_fixture():
    kern = integer_kernel(((1, 1, 0), (0, 0, 2)))
    assert lattice_key(kern) == lattice_key(((1, -1, 0),))


def test_integer_kernel_no_rows():
    assert integer_kernel(()) == ()


def test_integer_kernel_is_saturated():
    """Any integral point of the rational kernel must be an integer combination."""
    rng = random.Random(43)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
        kern = integer_kernel(m)
        for row in kern:
            assert all(x == 0 for x in mat_vec(m, row))
        if kern:
            # a primitive multiple of a random kernel combination stays inside
            combo = [0] * len(kern[0])
            for row in kern:
                c = rng.randint(-3, 3)
                combo = [a + c * b for a, b in zip(combo, row)]
            if any(combo):
                assert _in_row_lattice(kern, primitive(combo))


def _in_row_lattice(basis, x) -> bool:
    """Membership of x in the lattice spanned by the rows of basis, via HNF reduction."""
    h, _ = hnf(basis)
    rows = [row for row in h if any(row)]
    rem = list(x)
    for row in rows:
        piv = next(j for j, val in enumerate(row) if val != 0)
        if rem[piv] % row[piv] != 0:
            return False
        q = rem[piv] // row[piv]
        rem = [a - q * b for a, b in zip(rem, row)]
    return not any(rem)


def test_solve_rational_unique():
    m = ((-2, -2, -1), (2, 0, 1), (0, 3, 2))
    b = (1, -1, -1)
    x = solve_rational(m, b)
    assert x == (Fraction(-1, 4), Fraction(0), Fraction(-1, 2))
    assert mat_vec(m, x) == tuple(Fraction(v) for v in b)


def test_solve_rational_underdetermined_sets_free_vars_to_zero():
    m = ((-2, -2, -1), (-1, -1, -2))
    x = solve_rational(m, (-1, -1))
    assert x == (Fraction(1, 3), Fraction(0), Fraction(1, 3))


def test_solve_rational_inconsistent():
    assert solve_rational(((1, 0), (1, 0)), (1, 2)) is None


def test_min_integral_multiplier_identity():
    b = (Fraction(1, 4), Fraction(0), Fraction(-1, 2))
    assert min_integral_multiplier(((1, 0, 0), (0, 1, 0), (0, 0, 1)), b) == 4


def test_min_integral_multiplier_two_row_fixture():
    # the unique rational solution has third coordinate 1/3
    assert min_integral_multiplier(((-2, -2, -1), (-1, -1, -2)), (-1, -1)) == 3


def test_min_integral_multiplier_full_cone_fixture():
    m = ((-2, -2, -1), (2, 0, 1), (0, 3, 2))
    assert min_integral_multiplier(m, (1, -1, -1)) == 4


def test_min_integral_multiplier_unsolvable():
    # b is outside the column span, so no multiple works
    assert min_integral_multiplier(((1, 0), (0, 0)), (0, 1)) is None


def test_min_integral_multiplier_degenerate_shapes():
    assert min_integral_multiplier((), ()) == 1
    assert min_integral_multiplier(((),), (0,)) == 1
    assert min_integral_multiplier(((),), (5,)) is None


def _feasible(m, b, t) -> bool:
    """Brute-force check: does m @ x = t b admit an integral solution x?"""
    tb = [t * Fraction(x) for x in b]
    if any(v.denominator != 1 for v in tb):
        return False
    target = tuple(int(v) for v in tb)
    cols = tuple(zip(*m)) if m and m[0] else ()
    if not cols:
        return not any(target)
    if solve_rational(m, target) is None:
        return False
    return _in_row_lattice(cols, target)


def test_min_integral_multiplier_against_brute_force():
    rng = random.Random(44)
    checked_positive = 0
    for _ in range(120):
        nrows = rng.randint(1, 3)
        ncols = rng.randint(1, 3)
        m = random_matrix(rng, nrows, ncols, bound=4)
        b = tuple(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nrows)
        )
        got = min_integral_multiplier(m, b)
        first = next((t for t in range(1, 51) if _feasible(m, b, t)), None)
        if first is not None:
            assert got == first
            checked_positive += 1
        else:
            assert got is None or got > 50
    assert checked_positive > 30


def test_min_integral_multipliers_per_right_hand_side_against_brute_force():
    # one Smith form serves every right hand side; each answer is checked alone
    rng = random.Random(45)
    seen = {"positive": 0, "none": 0, "rational": 0}
    for _ in range(60):
        nrows = rng.randint(1, 3)
        ncols = rng.randint(1, 3)
        m = random_matrix(rng, nrows, ncols, bound=4)
        rhs = [
            tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(nrows))
            for _ in range(rng.randint(1, 4))
        ]
        got = min_integral_multipliers(m, rhs)
        assert len(got) == len(rhs)
        for b, t in zip(rhs, got):
            first = next((k for k in range(1, 51) if _feasible(m, b, k)), None)
            if first is not None:
                assert t == first
                seen["positive"] += 1
                seen["rational"] += any(x.denominator != 1 for x in b)
            else:
                # no positive multiple lies in the column lattice
                assert t is None or t > 50
                seen["none"] += t is None
    assert min(seen.values()) >= 20, seen


def test_det_int_values():
    assert det(((-2, 2, 0), (-2, 0, 3), (-1, 1, 2))) == 8
    assert det(((2, 4), (1, 1))) == -2
    assert det(((1, 2), (2, 4))) == 0
    assert det(()) == 1


def _cofactor(m):
    """Determinant by cofactor expansion along the first row."""
    k = len(m)
    if k == 0:
        return 1
    if k == 1:
        return m[0][0]
    total = 0
    for j in range(k):
        minor = tuple(row[:j] + row[j + 1 :] for row in m[1:])
        total += (-1) ** j * m[0][j] * _cofactor(minor)
    return total


def test_det_int_random_against_expansion():
    rng = random.Random(45)
    for _ in range(60):
        k = rng.randint(1, 4)
        m = random_matrix(rng, k, k)
        assert det(m) == _cofactor(m)


def test_det_rational_random_against_expansion():
    rng = random.Random(46)
    for _ in range(60):
        k = rng.randint(1, 4)
        m = tuple(
            tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4))) for _ in range(k))
            for _ in range(k)
        )
        got = det(m)
        assert isinstance(got, Fraction)
        assert got == _cofactor(m)
    with pytest.raises(ValueError):
        det(((1, 2),))


def test_rank_and_primitive_helpers():
    assert rank(((1, 2), (2, 4), (0, 1))) == 2
    assert rank(()) == 0
    assert primitive((4, -6, 2)) == (2, -3, 1)
    assert primitive((0, 0)) == (0, 0)
    assert clear_denominators((Fraction(3, 4), Fraction(-1, 2))) == (3, -2)


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))


def test_lattice_key_mod_out_basis_choice():
    a = ((2, 1, 0), (0, 3, 1))
    b = ((2, 1, 0), (2, 4, 1), (-2, 2, 1))
    assert lattice_key(a) == lattice_key(b)


def test_lcm_behavior_reference():
    # kept as a guard: the library relies on math.lcm accepting multiple args
    assert math.lcm(4, 1, 3) == 12


# ---------------------------------------------------------------------------
# Smith form against determinantal divisors, with the test's own elimination


def _frac_det(m) -> int:
    """Determinant of a square integer matrix by Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in row] for row in m]
    k = len(rows)
    det = Fraction(1)
    for col in range(k):
        piv = next((i for i in range(col, k) if rows[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for i in range(col + 1, k):
            f = rows[i][col] / rows[col][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    assert det.denominator == 1
    return int(det)


def _determinantal_divisors(m) -> list[int]:
    """gcd of all k x k minors for k = 1 .. min(shape)."""
    nrows, ncols = len(m), len(m[0])
    out = []
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rows in itertools.combinations(range(nrows), k):
            for cols in itertools.combinations(range(ncols), k):
                g = math.gcd(g, _frac_det([[m[i][j] for j in cols] for i in rows]))
        out.append(g)
    return out


def _check_smith(m) -> None:
    s, u, v = snf(m)
    nrows, ncols = len(m), len(m[0])
    assert mat_mul(mat_mul(u, m), v) == s
    assert len(u) == nrows and len(v) == ncols
    assert abs(_frac_det(u)) == 1
    assert abs(_frac_det(v)) == 1
    for i in range(nrows):
        for j in range(ncols):
            if i != j:
                assert s[i][j] == 0
    diag = [s[i][i] for i in range(min(nrows, ncols))]
    assert all(d >= 0 for d in diag)
    # d_k = D_k / D_(k-1), with D_0 = 1 and D_k the determinantal divisors
    prev = 1
    for d, big_d in zip(diag, _determinantal_divisors(m)):
        if prev == 0:
            assert d == 0 and big_d == 0
        else:
            assert big_d % prev == 0
            assert d == big_d // prev
        prev = big_d


def test_snf_edge_shapes():
    for m in (
        ((3, -6, 9),),
        ((0, 0, -4),),
        ((4,), (-6,), (10,)),
        ((0,), (0,), (-7,)),
        ((0, 0, 0), (0, 0, 0)),
        ((0,),),
        ((-5,),),
        ((2, 4, -6), (1, 2, -3), (-3, -6, 9)),
        ((0, 2, 0), (0, 0, 0), (0, 0, 3)),
        ((-2, 0), (0, -3)),
        ((6, 4), (-9, -6)),
    ):
        _check_smith(m)


def test_snf_random_against_determinantal_divisors():
    rng = random.Random(46)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, nrows, ncols, bound=rng.choice((2, 6, 30)))
        if rng.random() < 0.3 and nrows > 1:
            # make a row dependent on the others
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            m = m[:-1] + (tuple(a * x + b * y for x, y in zip(m[0], m[-2])),)
        _check_smith(m)


def test_import_leaves_sympy_out():
    import gavindex

    src = os.path.dirname(os.path.dirname(os.path.abspath(gavindex.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, gavindex; print('sympy' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def _frac_rref(rows, ncols):
    """Reduced row echelon form over Fraction, with its pivot columns; pivots only in the first ncols."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [a / m[r][col] for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def test_solve_rational_and_rank_against_fraction_elimination():
    rng = random.Random(49)
    inconsistent = 0
    for _ in range(200):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = [
            [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if rng.random() < 0.4 and nrows > 1:
            m[-1] = [a + 2 * b for a, b in zip(m[0], m[-2])]
        b = [Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(nrows)]
        reduced, pivots = _frac_rref([row + [bv] for row, bv in zip(m, b)], ncols)
        assert rank(m) == len(_frac_rref(m, ncols)[1])
        got = solve_rational(m, b)
        if any(row[ncols] != 0 for row in reduced[len(pivots):]):
            assert got is None
            inconsistent += 1
            continue
        expected = [Fraction(0)] * ncols
        for i, col in enumerate(pivots):
            expected[col] = reduced[i][ncols]
        assert got == tuple(expected)
    assert inconsistent > 10
