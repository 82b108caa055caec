"""Scalars: exact rationals, with floats only at input and output.

Every invariant computed by this package is a ratio of determinants and
is stored *exponentiated* as a `fractions.Fraction`, so two
independently computed values can be compared for equality with no
tolerance.  A float input (a boundary length, or the exponential of
one) is itself an exact dyadic rational and enters the computation
through `Fraction(x)` without rounding.  Floats come back out only for
presentation: `as_float` and `log_to_float` each round once.  Natural
logarithms (the conventional form of the coordinates) are irrational
for rational inputs, so they are taken only at that point.
"""

from __future__ import annotations

import math
from fractions import Fraction

Scalar = Fraction


def parse_scalar(text: str, exact: bool = True):
    """Parse "p/q" as a Fraction (exact) or a decimal literal as a float.

    The unicode minus sign is accepted alongside the ASCII one.
    """
    text = text.strip().replace("−", "-")
    if exact:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid exact scalar {text!r}") from exc
    try:
        return float(text)
    except ValueError as exc:
        raise ValueError(f"invalid float scalar {text!r}") from exc


def scalar_str(x: Scalar) -> str:
    """Canonical text form: "p/q" with "/q" omitted when q = 1."""
    return str(Fraction(x))


def as_float(x: Scalar) -> float:
    """The nearest float64; raises OverflowError beyond its range."""
    x = Fraction(x)
    return x.numerator / x.denominator


def log_to_float(x: Scalar) -> float:
    """Natural log of a positive rational, as float64.

    The value is split as log(num) - log(den) so arbitrarily large
    rationals do not overflow on conversion.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log of non-positive value")
    return math.log(x.numerator) - math.log(x.denominator)


def exact_sqrt(x: Fraction) -> Fraction:
    """Square root of a nonnegative rational that is a perfect square."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of a negative value")
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        raise ValueError(f"{x} is not a perfect rational square")
    return Fraction(rn, rd)
