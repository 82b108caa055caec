"""Dense exact linear algebra over the integers: one row-incremental
elimination step behind det and the flag checks.

Determinants carry the generic path: there every projective invariant
is an alternating product of n-by-n wedge determinants of flag
prefixes (the closed form of `bdpants.coords` takes none).  Entries
must be ints; `bdpants.flags.Flag` clears the denominators of its basis
vectors once, where a flag is built.  `_push` takes one row through the
fraction-free Bareiss steps of the pivot rows taken before it; every
entry it makes is a minor of the stacked rows (Sylvester's identity),
so each division is exact.  `det` pushes every row, and
`bdpants.flags` grows and truncates one pivot list along flag prefixes.
`det` refuses a non-integer entry of every row it reduces with
TypeError, as the exact divisions would silently go wrong on it; it
stops at the first dependent row, whose determinant is 0.
"""

from __future__ import annotations

import operator


def _push(pivots: list, row) -> bool:
    """Reduce the int row against the pivots and append it as the next
    pivot; return False, appending nothing, if it is in their span.

    A pivot is (pos, d, rest): its row on the columns no earlier pivot
    took, split into its first nonzero entry d, the place pos of d, and
    the rest.  After k steps entry j of the row is the minor of the first
    k pivot rows and itself on the first k pivot columns and column j.
    """
    row = list(row)
    prev = 1
    for pos, d, rest in pivots:
        x = row.pop(pos)
        # in place: a comprehension costs more than the loop at these widths
        if x:
            for j, b in enumerate(rest):
                row[j] = (row[j] * d - x * b) // prev
        elif d != prev:
            for j, a in enumerate(row):
                row[j] = a * d // prev
        prev = d
    for pos, x in enumerate(row):
        if x:
            del row[pos]
            pivots.append((pos, x, row))
            return True
    return False


def det(rows) -> int:
    """Determinant of a square integer matrix given as a list of rows."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError(f"matrix is not square: {n} rows, row of length {len(row)}")
    # the last pivot is the minor on the pivot columns in the order they
    # were taken; the places of the pivots among the columns left are the
    # Lehmer code of that order, so their sum has its parity
    pivots = []
    minor, places = 1, 0
    for row in rows:
        # operator.index refuses a non-integer entry
        if not _push(pivots, map(operator.index, row)):
            return 0
        pos, minor, _ = pivots[-1]
        places += pos
    return -minor if places % 2 else minor


def mat_vec(a, v):
    """Matrix times column vector."""
    if any(len(row) != len(v) for row in a):
        raise ValueError("incompatible shapes")
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]
