"""Dense exact linear algebra kernels.

Determinants carry the whole computation: every projective invariant in
this package is an alternating product of n-by-n determinants.  Entries
are ints or Fractions.  The determinant clears each row's denominators,
runs fraction-free Bareiss elimination over Python ints (every
intermediate entry is a minor of the scaled matrix, so each division is
exact) and divides by the row scales once at the end.  Matrices are
lists of row lists and sizes stay at desk scale.
"""

from __future__ import annotations

import math
from fractions import Fraction


def det(rows) -> Fraction:
    """Determinant of a square matrix given as a list of rows."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError(f"matrix is not square: {n} rows, row of length {len(row)}")
    if n == 0:
        return Fraction(1)
    scale = 1
    m = []
    for row in rows:
        # a list, not a generator: unpacking a generator builds its tuple
        # by resizing, which moves memory into CPython's tuple free lists
        # on every call until they fill (about 1.7 MB at n = 10)
        d = math.lcm(*[x.denominator for x in row])
        scale *= d
        m.append([x.numerator * (d // x.denominator) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        row_k = m[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], scale)


def rank(rows) -> int:
    """Exact rank of a (possibly rectangular) matrix of rows."""
    if not rows:
        return 0
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0])
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        for piv in range(r, nrows):
            if m[piv][col] != 0:
                break
        else:
            continue
        m[r], m[piv] = m[piv], m[r]
        pivot = m[r][col]
        for i in range(r + 1, nrows):
            f = m[i][col] / pivot
            if f == 0:
                continue
            for j in range(col, ncols):
                m[i][j] -= f * m[r][j]
        r += 1
    return r


def mat_mul(a, b):
    """Product of two matrices (lists of rows)."""
    inner = len(b)
    if any(len(row) != inner for row in a):
        raise ValueError("incompatible shapes")
    ncols = len(b[0])
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(ncols)]
        for row in a
    ]


def mat_vec(a, v):
    """Matrix times column vector."""
    if any(len(row) != len(v) for row in a):
        raise ValueError("incompatible shapes")
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]
