"""Logs and exact square roots of rationals.

Every invariant computed by this package is a ratio of determinants and
is stored *exponentiated* as a `fractions.Fraction`, so two
independently computed values can be compared for equality with no
tolerance.  Natural logarithms (the conventional form of the
coordinates) are irrational for rational inputs, so they are taken only
for presentation, by `log_to_float`, which is good to a few ulps and
does not overflow on huge rationals.  Square roots stay exact: `exact_sqrt`
accepts only perfect rational squares.
"""

from __future__ import annotations

import math
from fractions import Fraction

# fdlibm's split of log 2; LN2_HI ends in 21 zero bits, so k * LN2_HI is exact
LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")


def log_to_float(x: Fraction) -> float:
    """Natural log of a positive rational, as float64, within a few ulps.

    Int true division rounds num / den once.  Near 1 the log is log1p of
    (num - den) / den, so no digit cancels.  Beyond the float range
    num / den is first scaled by 2^-k into (1/2, 2), and k log 2 is
    added back as the exact k * LN2_HI plus a small rest, so arbitrarily
    large rationals do not overflow.
    """
    n, d = x.numerator, x.denominator
    if n <= 0:
        raise ValueError("log of non-positive value")
    if d < 2 * n < 4 * d:
        return math.log1p((n - d) / d)
    k = n.bit_length() - d.bit_length()
    if abs(k) < 1000:
        return math.log(n / d)
    y = n / (d << k) if k > 0 else (n << -k) / d
    return k * LN2_HI + (math.log(y) + k * LN2_LO)


def exact_sqrt(x: Fraction) -> Fraction:
    """Square root of a nonnegative rational that is a perfect square."""
    if x < 0:
        raise ValueError("square root of a negative value")
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        raise ValueError(f"{x} is not a perfect rational square")
    return Fraction(rn, rd)
