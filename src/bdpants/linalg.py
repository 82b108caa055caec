"""Dense exact linear algebra: one integer elimination behind det and rank.

Determinants carry the generic path: there every projective invariant
is an alternating product of n-by-n wedge determinants of flag
prefixes (the closed form of `bdpants.coords` takes none).  Entries are
ints or Fractions.  Both `det` and `rank` clear each row's
denominators and run the same fraction-free Bareiss elimination over
Python ints (every intermediate entry is a minor of the scaled matrix,
so each division is exact), skipping columns that have no pivot.  The
determinant divides by the row scales once at the end.  Matrices are
lists of row lists and sizes stay at desk scale.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _integer_rows(rows):
    """Each row times the LCM of its denominators, as ints, and the
    product of those LCMs."""
    scale = 1
    m = []
    for row in rows:
        # a list, not a generator: unpacking a generator builds its tuple
        # by resizing, which moves memory into CPython's tuple free lists
        # on every call until they fill (about 1.7 MB at n = 10)
        d = math.lcm(*[x.denominator for x in row])
        scale *= d
        m.append([x.numerator * (d // x.denominator) for x in row])
    return m, scale


def _eliminate(m, ncols: int):
    """Bareiss elimination of the integer rows m in place, skipping
    columns with no pivot at or below the current row.

    Returns the rank and the last pivot times the sign of the row
    swaps, which for a nonsingular square matrix is its determinant.
    """
    nrows = len(m)
    sign = 1
    prev = 1
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        if m[r][col] == 0:
            for i in range(r + 1, nrows):
                if m[i][col] != 0:
                    m[r], m[i] = m[i], m[r]
                    sign = -sign
                    break
            else:
                continue
        row_r = m[r]
        pivot = row_r[col]
        for i in range(r + 1, nrows):
            row_i = m[i]
            mic = row_i[col]
            for j in range(col + 1, ncols):
                row_i[j] = (row_i[j] * pivot - mic * row_r[j]) // prev
        prev = pivot
        r += 1
    return r, sign * prev


def det(rows) -> Fraction:
    """Determinant of a square matrix given as a list of rows."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError(f"matrix is not square: {n} rows, row of length {len(row)}")
    m, scale = _integer_rows(rows)
    r, minor = _eliminate(m, n)
    return Fraction(minor if r == n else 0, scale)


def rank(rows) -> int:
    """Exact rank of a (possibly rectangular) matrix of rows."""
    if not rows:
        return 0
    m, _ = _integer_rows(rows)
    return _eliminate(m, len(m[0]))[0]


def mat_vec(a, v):
    """Matrix times column vector."""
    if any(len(row) != len(v) for row in a):
        raise ValueError("incompatible shapes")
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]
