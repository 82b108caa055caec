"""The irreducible SL_2 -> SL_n representation and the boundary flag map.

Identify R^n with the degree-(n-1) homogeneous polynomials in X, Y via
the monomial basis b_1 = X^{n-1}, ..., b_n = Y^{n-1}.  A matrix
[[a, b], [c, d]] acts by substituting X -> aX + cY and Y -> bX + dY into
each linear factor, so column j of the image matrix expands
(aX + cY)^{n-j} (bX + dY)^{j-1}.  With this convention:

  * a right eigenvector (u, v) of the 2x2 matrix makes the linear form
    uX + vY an eigenvector of the action, and
  * the action intertwines with the boundary-to-flag map below on the
    nose, not just up to conjugacy.

A boundary point [u : v] maps to the flag whose i-dimensional piece is
the polynomials divisible by (uX + vY)^{n-i} (by X^{n-i} at infinity).
The flag basis fixed here takes (uX + vY)^{n-i} X^{i-1} as the i-th
vector, which spans correctly for every point with v != 0 and
degenerates only at infinity, where the monomials X^{n-i} Y^{i-1}
take over.  A `ProjPoint` is a coprime integer pair, so these flags
are integer from the start; `sym_power` of a rational matrix is not.
"""

from __future__ import annotations

import math

from .flags import Flag
from .pants import ProjPoint, SL2Mat, fixed_points


def _lin_power(s, t, m: int):
    """Coefficients of (sX + tY)^m on X^m, X^{m-1}Y, ..., Y^m."""
    return [math.comb(m, k) * s ** (m - k) * t ** k for k in range(m + 1)]


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] = out[i + j] + pi * qj
    return out


def sym_power(m: SL2Mat, n: int):
    """Matrix of the degree-(n-1) symmetric power action, as rows.

    The result is a homomorphic image of SL_2 with determinant one; for
    n = 2 it is the input matrix itself.
    """
    if n < 2:
        raise ValueError(f"symmetric power needs n >= 2, got {n}")
    cols = []
    for j in range(1, n + 1):
        cols.append(_poly_mul(_lin_power(m.a, m.c, n - j), _lin_power(m.b, m.d, j - 1)))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def flag_curve(x: ProjPoint, n: int) -> Flag:
    """The flag of a boundary point; see the module docstring."""
    if n < 2:
        raise ValueError(f"flag curve needs n >= 2, got {n}")
    if not isinstance(x, ProjPoint):
        raise ValueError(f"not a projective point: {x!r}")
    basis = []
    if x.v == 0:
        # divisibility by X^{n-i}: the monomial ladder itself
        for i in range(1, n + 1):
            basis.append([1 if k == i - 1 else 0 for k in range(n)])
    else:
        for i in range(1, n + 1):
            basis.append(_lin_power(x.u, x.v, n - i) + [0] * (i - 1))
    return Flag(basis)


def stable_flag(m: SL2Mat, n: int) -> Flag:
    """Eigenbasis flag of the symmetric power of a hyperbolic element,
    ordered by decreasing eigenvalue modulus.

    With attracting/repelling eigendirections (u+, v+) and (u-, v-), the
    i-th vector is (u+ X + v+ Y)^{n-i} (u- X + v- Y)^{i-1}, whose
    eigenvalue has the (n+1-2i)-th power of the leading one.
    """
    att, rep = fixed_points(m)
    basis = [
        _poly_mul(_lin_power(att.u, att.v, n - i), _lin_power(rep.u, rep.v, i - 1))
        for i in range(1, n + 1)
    ]
    return Flag(basis)
