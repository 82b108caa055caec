"""Logs and exact square roots of rationals.

Every invariant computed by this package is a ratio of determinants and
is stored *exponentiated* as a `fractions.Fraction`, so two
independently computed values can be compared for equality with no
tolerance.  Natural logarithms (the conventional form of the
coordinates) are irrational for rational inputs, so they are taken only
for presentation, by `log_to_float`, which rounds once and does not
overflow on huge rationals.  Square roots stay exact: `exact_sqrt`
accepts only perfect rational squares.
"""

from __future__ import annotations

import math
from fractions import Fraction


def log_to_float(x: Fraction) -> float:
    """Natural log of a positive rational, as float64.

    The value is split as log(num) - log(den) so arbitrarily large
    rationals do not overflow on conversion.
    """
    if x <= 0:
        raise ValueError("log of non-positive value")
    return math.log(x.numerator) - math.log(x.denominator)


def exact_sqrt(x: Fraction) -> Fraction:
    """Square root of a nonnegative rational that is a perfect square."""
    if x < 0:
        raise ValueError("square root of a negative value")
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        raise ValueError(f"{x} is not a perfect rational square")
    return Fraction(rn, rd)
