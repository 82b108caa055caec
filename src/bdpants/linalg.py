"""Dense exact linear algebra over the integers: one elimination behind
det and rank.

Determinants carry the generic path: there every projective invariant
is an alternating product of n-by-n wedge determinants of flag
prefixes (the closed form of `bdpants.coords` takes none).  Entries
must be ints; `bdpants.flags.Flag` clears the denominators of its basis
vectors once, where a flag is built.  Both `det` and `rank` run the same
fraction-free Bareiss elimination on a copy of the rows (every
intermediate entry is a minor of the matrix, so each division is
exact), skipping columns that have no pivot.  A non-integer entry
raises TypeError: the exact divisions would silently go wrong on it.
Matrices are lists of row lists and sizes stay at desk scale.
"""

from __future__ import annotations

import operator


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


def det(rows) -> int:
    """Determinant of a square integer matrix given as a list of rows."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError(f"matrix is not square: {n} rows, row of length {len(row)}")
    # a copy, as _eliminate works in place; operator.index refuses a
    # non-integer entry, on which Bareiss's exact divisions go wrong
    r, minor = _eliminate([list(map(operator.index, row)) for row in rows], n)
    return minor if r == n else 0


def rank(rows) -> int:
    """Exact rank of a (possibly rectangular) integer matrix of rows."""
    if not rows:
        return 0
    m = [list(map(operator.index, row)) for row in rows]
    return _eliminate(m, len(m[0]))[0]


def mat_vec(a, v):
    """Matrix times column vector."""
    if any(len(row) != len(v) for row in a):
        raise ValueError("incompatible shapes")
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]
