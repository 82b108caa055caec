"""The hyperbolic pair of pants: boundary lengths, a normalized
holonomy representation, and the ideal boundary data its coordinates
are computed from.

A hyperbolic structure with geodesic boundary on the pants P is
determined by the boundary lengths (l_A, l_B, l_C).  Writing

    alpha = e^{l_A / 2},  beta = e^{(l_C - l_A) / 2},  gamma = e^{-l_B / 2}

(so alpha > 1, beta > 0, 0 < gamma < 1 and alpha*beta > 1), a
normalized representative of the holonomy representation of
pi_1(P) = <a, b, c | abc = 1> is

    rho(a) = [ alpha   alpha*beta*gamma + 1/alpha ]
             [   0              1/alpha           ]

    rho(b) = [      gamma           0     ]
             [ -1/beta - 1/gamma  1/gamma ]

    rho(c) = rho(b)^{-1} rho(a)^{-1}.

With this normalization: a is attracted to infinity, b to 0, c fixes 1,
and the standard maximal lamination of P (three boundary curves plus
three biinfinite leaves spiraling between them) lifts so that the three
biinfinite leaves have the ideal vertices recorded in
`leaf_quadruple` / `triangle_vertices` below.  Those six boundary
points, as explicit functions of (alpha, beta, gamma), are all the
coordinate computation needs.

Every computation runs over the rationals.  The parameters are either
rationals supplied directly (the lengths are then transcendental and
reported as floats only) or derived from float lengths, each
exponential rounded once to a float and taken as the exact dyadic
rational it is.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .scalars import exact_sqrt, log_to_float


class DomainError(ValueError):
    """Input outside the admissible parameter or length domain."""


# ---------------------------------------------------------------------------
# parameters and lengths

class PantsLengths(namedtuple("PantsLengths", "lA lB lC")):
    """Hyperbolic lengths of the three boundary geodesics."""

    __slots__ = ()

    def __new__(cls, lA: float, lB: float, lC: float):
        for name, value in (("lA", lA), ("lB", lB), ("lC", lC)):
            if not 0 < value < math.inf:
                raise DomainError(
                    f"boundary length {name} must be positive and finite, got {value}"
                )
        return super().__new__(cls, lA, lB, lC)


class PantsParams(namedtuple("PantsParams", "alpha beta gamma")):
    """The (alpha, beta, gamma) triple; see the module docstring.

    Every field is stored as `Fraction(x)` (exact for ints, Fractions
    and finite floats).  Construction does not validate; everything
    that builds geometry from a triple calls `validate_params` first.
    """

    __slots__ = ()

    def __new__(cls, alpha, beta, gamma):
        return super().__new__(cls, Fraction(alpha), Fraction(beta), Fraction(gamma))


def validate_params(params: PantsParams) -> None:
    """Raise DomainError unless alpha > 1, beta > 0, 0 < gamma < 1 and
    alpha*beta > 1."""
    a, b, g = params.alpha, params.beta, params.gamma
    if not a > 1:
        raise DomainError(f"alpha must exceed 1, got {a}")
    if not b > 0:
        raise DomainError(f"beta must be positive, got {b}")
    if not 0 < g < 1:
        raise DomainError(f"gamma must lie in (0, 1), got {g}")
    if not a * b > 1:
        raise DomainError("alpha*beta must exceed 1 for a positive third boundary length")


def _exp(x: float, message: str) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise DomainError(message) from None


def params_from_lengths(lengths: PantsLengths) -> PantsParams:
    """Exact parameters from boundary lengths: each exponential is
    rounded once to a float, then taken as the dyadic rational it is.

    Lengths whose exponentials leave the float range, or round onto the
    boundary of the parameter domain, are refused by name.
    """
    lA, lB, lC = lengths.lA, lengths.lB, lengths.lC
    alpha = _exp(lA / 2, f"boundary length lA = {lA} is too large: "
                 "e^(lA/2) overflows a float")
    beta = _exp((lC - lA) / 2, f"boundary lengths lC = {lC} and lA = {lA} are "
                "too far apart: e^((lC - lA)/2) overflows a float")
    gamma = math.exp(-lB / 2)
    if alpha == 1:
        raise DomainError(f"boundary length lA = {lA} is too small: e^(lA/2) rounds to 1")
    if gamma == 1:
        raise DomainError(f"boundary length lB = {lB} is too small: e^(-lB/2) rounds to 1")
    if gamma == 0:
        raise DomainError(f"boundary length lB = {lB} is too large: e^(-lB/2) rounds to 0")
    params = PantsParams(alpha, beta, gamma)
    if not params.alpha * params.beta > 1:
        raise DomainError(
            f"boundary length lC = {lC} is too small: alpha*beta = e^(lC/2) rounds to at most 1"
        )
    validate_params(params)
    return params


def lengths_from_params(params: PantsParams) -> PantsLengths:
    """Boundary lengths l_A = 2 log alpha, l_B = -2 log gamma,
    l_C = 2 log(alpha beta)."""
    validate_params(params)
    return PantsLengths(
        lA=2 * log_to_float(params.alpha),
        lB=-2 * log_to_float(params.gamma),
        lC=2 * log_to_float(params.alpha * params.beta),
    )


# ---------------------------------------------------------------------------
# 2x2 matrices and projective points

class SL2Mat:
    """A 2x2 determinant-one matrix (a chosen lift of a PSL_2 element)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def trace(self) -> Fraction:
        return self.a + self.d

    def mul(self, other: "SL2Mat") -> "SL2Mat":
        return SL2Mat(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "SL2Mat":
        # determinant one, so the adjugate is the inverse
        return SL2Mat(self.d, -self.b, -self.c, self.a)

    def __eq__(self, other):
        if not isinstance(other, SL2Mat):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __repr__(self):
        return f"SL2Mat({self.a}, {self.b}, {self.c}, {self.d})"


class ProjPoint:
    """A point [u : v] of the projective boundary line; [1 : 0] is the
    point at infinity and a finite r is [r : 1].  The pair is stored as
    coprime ints with v > 0, or (1, 0), so equal points have equal pairs."""

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        if u == 0 and v == 0:
            raise ValueError("projective point needs a nonzero coordinate")
        self.u, self.v = (1, 0) if v == 0 else Fraction(u, v).as_integer_ratio()

    @classmethod
    def of(cls, value: Fraction) -> "ProjPoint":
        return cls(value, 1)

    @classmethod
    def infinity(cls) -> "ProjPoint":
        return cls(1, 0)

    @property
    def is_infinity(self) -> bool:
        return self.v == 0

    def value(self) -> Fraction:
        if self.v == 0:
            raise ZeroDivisionError("point at infinity has no finite value")
        return Fraction(self.u, self.v)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return (self.u, self.v) == (other.u, other.v)

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        if self.is_infinity:
            return "ProjPoint(inf)"
        return f"ProjPoint({self.u} : {self.v})"


def mobius_apply(m: SL2Mat, x: ProjPoint) -> ProjPoint:
    """Projective action [u : v] -> [a u + b v : c u + d v]."""
    return ProjPoint(m.a * x.u + m.b * x.v, m.c * x.u + m.d * x.v)


def _eigenvector(m: SL2Mat, lam: Fraction) -> ProjPoint:
    # kernel of the rank-one matrix (m - lam*I), solved from a nonzero
    # row: the first row vanishes for lower-triangular m and lam = m.a
    if m.b != 0 or m.a != lam:
        return ProjPoint(m.b, lam - m.a)
    return ProjPoint(lam - m.d, m.c)


def eigenvalues(m: SL2Mat):
    """(larger-modulus, smaller-modulus) eigenvalues of a hyperbolic
    element, the roots of t^2 - tr(m) t + 1 = 0.  The trace
    discriminant must be a perfect rational square."""
    t = m.trace()
    if not abs(t) > 2:
        raise ValueError(f"matrix is not hyperbolic (|trace| = {abs(t)})")
    s = exact_sqrt(t * t - 4)
    if t > 0:
        return (t + s) / 2, (t - s) / 2
    return (t - s) / 2, (t + s) / 2


def fixed_points(m: SL2Mat):
    """(attracting, repelling) fixed points of a hyperbolic element.

    The attracting point is the eigendirection of the larger-modulus
    eigenvalue (the derivative of the projective action there has
    modulus below one).
    """
    lam_big, lam_small = eigenvalues(m)
    return _eigenvector(m, lam_big), _eigenvector(m, lam_small)


# ---------------------------------------------------------------------------
# the representation

class PantsRep(namedtuple("PantsRep", "a b c")):
    """Images of the generators a, b, c with rho(a) rho(b) rho(c) = 1."""

    __slots__ = ()


def build_rep(params: PantsParams) -> PantsRep:
    """The normalized representation of the module docstring."""
    validate_params(params)
    al, be, ga = params.alpha, params.beta, params.gamma
    a = SL2Mat(al, al * be * ga + 1 / al, Fraction(0), 1 / al)
    b = SL2Mat(ga, Fraction(0), -1 / be - 1 / ga, 1 / ga)
    # |tr(c)| = alpha*beta + 1/(alpha*beta) > 2, as alpha*beta > 1
    return PantsRep(a=a, b=b, c=b.inv().mul(a.inv()))


def boundary_matrix(rep: PantsRep, boundary: str) -> SL2Mat:
    """Generator image covering the named boundary curve."""
    try:
        return {"A": rep.a, "B": rep.b, "C": rep.c}[boundary]
    except KeyError:
        raise ValueError(f"unknown boundary {boundary!r}") from None


# ---------------------------------------------------------------------------
# the lamination: leaves, triangles, incidences

LEAVES = ("h_AB", "h_BC", "h_CA")
TRIANGLES = ("T0", "T1")
BOUNDARIES = ("A", "B", "C")

#: biinfinite leaves spiraling into each boundary curve
BOUNDARY_LEAVES = {
    "A": ("h_AB", "h_CA"),
    "B": ("h_AB", "h_BC"),
    "C": ("h_BC", "h_CA"),
}


def triangle_vertices(params: PantsParams, triangle: str):
    """Clockwise ideal vertex triple of a lifted triangle.

    The lamination cuts P into two ideal triangles; convenient lifts
    have vertices (inf, 1, 0) and (inf, 0, -beta*gamma).
    """
    inf = ProjPoint.infinity()
    zero = ProjPoint.of(0)
    if triangle == "T0":
        return (inf, ProjPoint.of(1), zero)
    if triangle == "T1":
        return (inf, zero, ProjPoint.of(-params.beta * params.gamma))
    raise ValueError(f"unknown triangle {triangle!r}")


def leaf_quadruple(params: PantsParams, leaf: str):
    """Invariant quadruple (x, y, z, z') of a lifted biinfinite leaf:
    terminal point, starting point, then the far vertices of the two
    adjacent lifted triangles (left of the leaf, then right).

    The values are images of the triangle vertices under the generators:
    a^{-1}(1) = -beta*gamma, b^{-1}(inf) = beta/(beta+gamma) and
    a(0) = alpha^2*beta*gamma + 1.
    """
    al, be, ga = params.alpha, params.beta, params.gamma
    inf = ProjPoint.infinity()
    zero = ProjPoint.of(0)
    one = ProjPoint.of(1)
    if leaf == "h_AB":
        return (inf, zero, ProjPoint.of(-be * ga), one)
    if leaf == "h_BC":
        return (zero, one, ProjPoint.of(be / (be + ga)), inf)
    if leaf == "h_CA":
        return (one, inf, ProjPoint.of(al * al * be * ga + 1), zero)
    raise ValueError(f"unknown leaf {leaf!r}")
