"""Coordinates of Fuchsian pair-of-pants representations, two ways.

For each rank n >= 2 the coordinate vector has n^2 - 1 entries: one
shearing invariant per biinfinite leaf and index p = 1, ..., n-1 (the
log of a double ratio of boundary flags) and one triangle invariant per
ideal triangle and index triple p, q, r >= 1 with p + q + r = n (the log
of a triple ratio).  Everything here is kept exponentiated; logs appear
only in output layers.

Two independent evaluation paths feed the same triple- and double-ratio
formulas of `bdpants.flags` and differ only in their factors:

  * the generic path builds the boundary flags of the representation
    and takes the factors as wedge determinants of flag prefixes;
  * the closed-form path takes them from explicit formulas in the
    parameters (alpha, beta, gamma): bordered and Toeplitz matrices of
    binomial coefficients, fed to the same determinant kernel without
    any hand simplification.

The formulas evaluate each factor once per call: per leaf for the
shearing invariants, per triangle for the triangle invariants.

All arithmetic is over the rationals, so the two paths must agree to
the last bit; the verification suite and the tests enforce exactly
that.  The closed forms make the structure of the locus plain: every
triangle invariant is 0 (exponentiated: 1) and the shearing invariants
do not depend on p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import linalg
from .flags import _double_ratios, _triple_ratios, double_ratios_exp, triple_ratios_exp
from .pants import (
    BOUNDARY_LEAVES,
    LEAVES,
    TRIANGLES,
    PantsParams,
    leaf_quadruple,
    triangle_vertices,
    validate_params,
)
from .veronese import flag_curve


class PositivityViolationError(ArithmeticError):
    """An assembled invariant came out non-positive; for in-domain
    parameters this indicates an implementation fault, not bad input."""


def binom_ext(m: int, p: int) -> int:
    """Binomial coefficient extended by 0 outside 0 <= p <= m."""
    if m < 0:
        raise ValueError(f"binom_ext needs m >= 0, got {m}")
    if p < 0 or p > m:
        return 0
    return math.comb(m, p)


def tau_index_tuples(n: int):
    """Valid (p, q, r) triples for rank n, in lexicographic order."""
    return [(p, q, n - p - q) for p in range(1, n - 1) for q in range(1, n - p)]


# ---------------------------------------------------------------------------
# closed-form factors: binomial determinants in (alpha, beta, gamma).
# Single factors may be negative (they carry explicit signs); every
# assembled ratio must come out positive, which assemble_phi checks.

def _y_hab(n: int, params: PantsParams, i: int) -> Fraction:
    bg = params.beta * params.gamma
    return binom_ext(n - 1, i) * bg ** (n - i - 1)


def _yprime_hab(n: int, params: PantsParams, i: int) -> Fraction:
    return (-1) ** (n - i - 1) * binom_ext(n - 1, i)


def _y_hbc(n: int, params: PantsParams, i: int) -> Fraction:
    x = params.beta / (params.beta + params.gamma)
    if i == n - 1:
        return (-1) ** (n - 1) * x ** (n - 1)
    size = n - i
    rows = []
    for r in range(1, size + 1):
        row = [binom_ext(i + 1, r - j) for j in range(1, size)]
        row.append(binom_ext(n - 1, r - 1) * x ** (n - r))
        rows.append(row)
    return (-1) ** ((n - i) * i) * linalg.det(rows)


def _yprime_hbc(n: int, params: PantsParams, i: int) -> Fraction:
    if i == n - 1:
        return (-1) ** (n - 1)
    size = n - i - 1
    rows = [
        [binom_ext(i + 1, 1 + r - j) for j in range(1, size + 1)]
        for r in range(1, size + 1)
    ]
    return (-1) ** (n * i + n + 1) * linalg.det(rows)


def _y_hca(n: int, params: PantsParams, i: int) -> Fraction:
    if i == 0:
        return 1
    w = params.alpha * params.alpha * params.beta * params.gamma + 1
    rows = []
    for r in range(1, i + 2):
        row = [binom_ext(n - i, n - i - 1 + r - k) for k in range(1, i + 1)]
        row.append(binom_ext(n - 1, n - i - 2 + r) * w ** (i + 1 - r))
        rows.append(row)
    return (-1) ** (n * i) * linalg.det(rows)


def _yprime_hca(n: int, params: PantsParams, i: int) -> Fraction:
    if i == 0:
        return 1
    rows = [
        [binom_ext(n - i, n - i - 1 + r - k) for k in range(1, i + 1)]
        for r in range(1, i + 1)
    ]
    return (-1) ** (n * i) * linalg.det(rows)


_CLOSED_Y = {
    "h_AB": (_y_hab, _yprime_hab),
    "h_BC": (_y_hbc, _yprime_hbc),
    "h_CA": (_y_hca, _yprime_hca),
}


def _x_t0(n: int, params: PantsParams, a: int, b: int, c: int) -> Fraction:
    """Toeplitz binomial determinant for the triangle with vertices
    (inf, 1, 0); independent of the parameters."""
    if b == 0:
        return 1
    rows = [
        [binom_ext(a + c, a + i - j) for j in range(b)]
        for i in range(b)
    ]
    return linalg.det(rows)


def _x_t1(n: int, params: PantsParams, a: int, b: int, c: int) -> Fraction:
    """Signed Toeplitz determinant in powers of (-beta*gamma) for the
    triangle with vertices (inf, 0, -beta*gamma)."""
    if c == 0:
        return (-1) ** b
    mbg = -params.beta * params.gamma
    rows = [
        [binom_ext(a + b, a + i - j) * mbg ** (b - i + j) for j in range(c)]
        for i in range(c)
    ]
    return (-1) ** (b * (c + 1)) * linalg.det(rows)


_CLOSED_X = {"T0": _x_t0, "T1": _x_t1}


# ---------------------------------------------------------------------------
# assembly

@dataclass(frozen=True)
class CoordinateVector:
    """The full exponentiated coordinate vector of one representation.

    sigma maps each leaf to its values for p = 1, ..., n-1; tau maps
    each triangle to a dict over (p, q, r) triples.
    """

    n: int
    sigma: dict
    tau: dict

    def count(self) -> int:
        return sum(len(v) for v in self.sigma.values()) + sum(
            len(v) for v in self.tau.values()
        )

    def labeled_entries(self):
        """(label, value) pairs in the canonical order: shearing
        h_AB, h_BC, h_CA with p ascending, then triangles T0, T1 with
        (p, q, r) lexicographic."""
        for leaf in LEAVES:
            for p, value in enumerate(self.sigma.get(leaf, ()), start=1):
                yield f"sigma_{leaf.replace('_', '')}_p{p}", value
        for tri in TRIANGLES:
            entries = self.tau.get(tri, {})
            for (p, q, r) in sorted(entries):
                yield f"tau_{tri}_p{p}q{q}r{r}", entries[(p, q, r)]


def assemble_phi(n: int, params: PantsParams, method: str = "closed_form") -> CoordinateVector:
    """Compute all n^2 - 1 coordinates by the chosen path."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    validate_params(params)
    tuples = tau_index_tuples(n)
    sigma = {}
    tau = {}
    if method == "generic":
        for leaf in LEAVES:
            flags = [flag_curve(x, n) for x in leaf_quadruple(params, leaf)]
            sigma[leaf] = tuple(double_ratios_exp(*flags, range(1, n)))
        for tri in TRIANGLES:
            flags = [flag_curve(x, n) for x in triangle_vertices(params, tri)]
            tau[tri] = triple_ratios_exp(*flags, tuples)
    elif method == "closed_form":
        for leaf in LEAVES:
            y, yprime = _CLOSED_Y[leaf]
            sigma[leaf] = tuple(
                _double_ratios(partial(y, n, params), partial(yprime, n, params), n, range(1, n))
            )
        for tri in TRIANGLES:
            tau[tri] = _triple_ratios(partial(_CLOSED_X[tri], n, params), n, tuples)
    else:
        raise ValueError(f"unknown method {method!r}")
    coords = CoordinateVector(n=n, sigma=sigma, tau=tau)
    for label, value in coords.labeled_entries():
        if not value > 0:
            raise PositivityViolationError(f"positivity violation: {label} = {value}")
    return coords


# ---------------------------------------------------------------------------
# boundary length sums and polytope membership

def boundary_sum_R(coords: CoordinateVector, boundary: str, p: int) -> Fraction:
    """Exponentiated boundary length sum R_p: the product of the p-th
    shearing values of the two leaves spiraling into the boundary and of
    the tau values with first index p and q + r = n - p over both
    triangles.

    For these Fuchsian coordinates every tau factor is 1 and the
    shearing values are p-independent, so R_p is the exponentiated p-th
    eigenvalue-ratio length of the boundary generator; the verification
    suite checks that identity exactly.
    """
    n = coords.n
    if not 1 <= p <= n - 1:
        raise ValueError(f"p out of range: p={p}, n={n}")
    try:
        leaves = BOUNDARY_LEAVES[boundary]
    except KeyError:
        raise ValueError(f"unknown boundary {boundary!r}") from None
    value = coords.sigma[leaves[0]][p - 1] * coords.sigma[leaves[1]][p - 1]
    for tri in TRIANGLES:
        for q in range(1, n - p):
            value = value * coords.tau[tri][(p, q, n - p - q)]
    return value


def polytope_check(coords: CoordinateVector) -> dict:
    """Membership report for the coordinate polytope: positivity of all
    entries, positivity of every boundary length sum, and the entry
    count n^2 - 1.  Report-only."""
    n = coords.n
    positive = all(value > 0 for _, value in coords.labeled_entries())
    try:
        lengths_positive = all(
            boundary_sum_R(coords, boundary, p) > 1
            for boundary in BOUNDARY_LEAVES
            for p in range(1, n)
        )
    except (KeyError, IndexError):
        lengths_positive = False
    return {
        "positive_entries": positive,
        "length_positivity": lengths_positive,
        "entry_count": coords.count() == n * n - 1,
    }
