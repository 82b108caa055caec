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
    parameters (alpha, beta, gamma), one monomial per factor over the
    integers, with no determinant.  Each factor is defined only up to
    what cancels in its ratio.  A leaf's Y(i) and Y'(i) are one
    monomial of degree n-1 in a point [u : v], taken at the leaf's
    third and fourth vertex, each passed as the integer pair of its
    value's numerator and denominator:

        h_AB:  C(n-1, i) u^(n-1-i) v^i
        h_BC:  C(n-1, i) u^i (v-u)^(n-1-i)
        h_CA:  (-1)^i C(n-1, i) v^(n-1-i) (v-u)^i

    each the one term left of the bordered binomial determinant behind
    the generic factor, up to a factor of (leaf, n, i) that Y(i) and
    Y'(i) share.  In every double ratio the binomials and signs cancel,
    leaving the paper's parametrization 1/(beta gamma), beta/gamma and
    alpha^2 beta gamma.  Up to a sign and a power of beta*gamma, the
    triangle factor is MacMahon's count of plane partitions in an
    a x b x c box, which once a + b + c = n is G(n) h(a) h(b) h(c) with
    h(k) = G(k) / G(n-k) and G(k) = 0! 1! ... (k-1)!.  A factor of the
    form f(a) g(b) h(c) cancels in every triple ratio, so the triangle
    factor is the constant 1 and serves both triangles.

All arithmetic is over the rationals, so the two paths must agree to
the last bit; the verification suite and the tests enforce exactly
that.  The closed forms make the structure of the locus plain: every
triangle invariant is 0 (exponentiated: 1) and the shearing invariants
do not depend on p.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import partial

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

# the largest rank accepted: the output grows as n^2 (313 kB of JSON at
# this cap), while the closed form itself is small integer work
MAX_N = 64


class PositivityViolationError(ArithmeticError):
    """An assembled invariant came out non-positive; for in-domain
    parameters this indicates an implementation fault, not bad input."""


def tau_index_tuples(n: int):
    """Valid (p, q, r) triples for rank n, in lexicographic order."""
    return [(p, q, n - p - q) for p in range(1, n - 1) for q in range(1, n - p)]


# ---------------------------------------------------------------------------
# closed-form factors: one monomial per shearing factor, each defined
# only up to what cancels in its ratio, so a single factor may be
# negative; every assembled ratio must come out positive, which
# assemble_phi checks.

def _leaf_points(params: PantsParams) -> dict:
    """The third and fourth vertex of each leaf's quadruple, as integer
    pairs (u, v) for [u : v]: Y is taken at the third, Y' at the fourth."""
    bg = params.beta * params.gamma
    return {
        "h_AB": ((-bg).as_integer_ratio(), (1, 1)),
        "h_BC": ((params.beta / (params.beta + params.gamma)).as_integer_ratio(), (1, 0)),
        "h_CA": ((params.alpha * params.alpha * bg + 1).as_integer_ratio(), (0, 1)),
    }


def _y(leaf: str, n: int, point, i: int) -> int:
    """Y(i) of a leaf at the point [u : v], up to a factor of (leaf, n, i)
    shared with Y'(i): one term of degree n-1 in u and v."""
    u, v = point
    if leaf == "h_AB":
        return math.comb(n - 1, i) * u ** (n - 1 - i) * v ** i
    if leaf == "h_BC":
        return math.comb(n - 1, i) * u ** i * (v - u) ** (n - 1 - i)
    return (-1) ** i * math.comb(n - 1, i) * v ** (n - 1 - i) * (v - u) ** i


# ---------------------------------------------------------------------------
# assembly

class CoordinateVector(namedtuple("CoordinateVector", "n sigma tau")):
    """The full exponentiated coordinate vector of one representation.

    sigma maps each leaf to its values for p = 1, ..., n-1; tau maps
    each triangle to a dict over (p, q, r) triples.
    """

    __slots__ = ()

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
    if n > MAX_N:
        raise ValueError(f"need n <= {MAX_N}, got {n}")
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
        points = _leaf_points(params)
        for leaf in LEAVES:
            y, yprime = (partial(_y, leaf, n, point) for point in points[leaf])
            sigma[leaf] = tuple(_double_ratios(y, yprime, n, range(1, n)))
        # the triangle factor is f(a) g(b) h(c) up to a sign and a power
        # of beta*gamma, and all of that cancels in every triple ratio
        ratios = _triple_ratios(lambda a, b, c: 1, n, tuples)
        tau = {tri: dict(ratios) for tri in TRIANGLES}
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
    factors = [coords.sigma[leaf][p - 1] for leaf in leaves]
    for tri in TRIANGLES:
        factors.extend(coords.tau[tri][(p, q, n - p - q)] for q in range(1, n - p))
    # one normalisation of the product, not one per factor
    return Fraction(math.prod(x.numerator for x in factors),
                    math.prod(x.denominator for x in factors))


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
