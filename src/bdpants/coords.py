"""Coordinates of Fuchsian pair-of-pants representations, two ways.

For each rank n >= 2 the coordinate vector has n^2 - 1 entries: one
shearing invariant per biinfinite leaf and index p = 1, ..., n-1 (the
log of a double ratio of boundary flags) and one triangle invariant per
ideal triangle and index triple p, q, r >= 1 with p + q + r = n (the log
of a triple ratio).  Everything here is kept exponentiated; logs appear
only in output layers.

Two independent evaluation paths share no ratio code:

  * the generic path builds the boundary flags of the representation
    and takes their triple and double ratios, alternating products of
    wedge determinants of flag prefixes (`bdpants.flags`);
  * the closed-form path states the paper's parametrization in the
    parameters (alpha, beta, gamma): for every p the shearing
    invariants of h_AB, h_BC and h_CA are 1/(beta gamma), beta/gamma
    and alpha^2 beta gamma, and every triangle invariant is 1.

The tests prove the chain from wedge determinants to these values.
Each factor of a generic double ratio is a bordered binomial
determinant; up to what cancels in its ratio it is one monomial in a
leaf vertex, and the double ratios of these monomials are the three
rationals at every rank up to MAX_N.  Each factor of a generic triple
ratio is, up to what cancels, MacMahon's count of plane partitions in a
box, and its triple ratios are all 1.

All arithmetic is over the rationals, so the two paths must agree to
the last bit; the verification suite and the tests enforce exactly
that.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cache, partial

from .flags import double_ratios_exp, triple_ratios_exp
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

# the largest rank accepted: it bounds the output, which grows as n^2
# (313 kB of JSON at this cap)
MAX_N = 64


class PositivityViolationError(ArithmeticError):
    """An assembled invariant came out non-positive; for in-domain
    parameters this indicates an implementation fault, not bad input."""


def tau_index_tuples(n: int):
    """Valid (p, q, r) triples for rank n, in lexicographic order."""
    return [(p, q, n - p - q) for p in range(1, n - 1) for q in range(1, n - p)]


# ---------------------------------------------------------------------------
# assembly

class CoordinateVector(namedtuple("CoordinateVector", "n sigma tau")):
    """The full exponentiated coordinate vector of one representation.

    sigma maps each leaf to its values for p = 1, ..., n-1; tau maps
    each triangle to a dict over (p, q, r) triples.
    """

    __slots__ = ()

    def labeled_entries(self):
        """(label, value) pairs in the canonical order: shearing
        h_AB, h_BC, h_CA with p ascending, then triangles T0, T1 with
        (p, q, r) lexicographic."""
        for leaf in LEAVES:
            for p, value in enumerate(self.sigma[leaf], start=1):
                yield f"sigma_{leaf.replace('_', '')}_p{p}", value
        for tri in TRIANGLES:
            entries = self.tau[tri]
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
        # a boundary point is a vertex of several leaves and triangles
        curve = cache(partial(flag_curve, n=n))
        for leaf in LEAVES:
            flags = [curve(x) for x in leaf_quadruple(params, leaf)]
            sigma[leaf] = tuple(double_ratios_exp(*flags, range(1, n)))
        for tri in TRIANGLES:
            flags = [curve(x) for x in triangle_vertices(params, tri)]
            tau[tri] = triple_ratios_exp(*flags, tuples)
    elif method == "closed_form":
        al, be, ga = params.alpha, params.beta, params.gamma
        shears = {"h_AB": 1 / (be * ga), "h_BC": be / ga, "h_CA": al * al * be * ga}
        sigma = {leaf: (shears[leaf],) * (n - 1) for leaf in LEAVES}
        tau = {tri: dict.fromkeys(tuples, Fraction(1)) for tri in TRIANGLES}
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
    """Membership report for the coordinate polytope: every boundary
    length sum exceeds 1.  Entry positivity needs no report, as
    `assemble_phi` refuses a non-positive entry.  Report-only."""
    return {
        "length_positivity": all(
            boundary_sum_R(coords, boundary, p) > 1
            for boundary in BOUNDARY_LEAVES
            for p in range(1, coords.n)
        )
    }
