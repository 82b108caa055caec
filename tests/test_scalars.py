import math
from fractions import Fraction

import pytest

from bdpants import scalars


def test_parse_normalizes():
    x = scalars.parse_scalar("2/4")
    assert x == Fraction(1, 2)
    assert x.numerator == 1 and x.denominator == 2
    assert scalars.scalar_str(x) == "1/2"


def test_denominator_one_omitted():
    assert scalars.scalar_str(Fraction(7)) == "7"
    assert scalars.scalar_str(Fraction(-3, 2)) == "-3/2"


def test_unicode_minus_accepted():
    assert scalars.parse_scalar("−3/2") == Fraction(-3, 2)


def test_roundtrip_bit_identical(rng):
    for _ in range(200):
        x = Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 9))
        again = scalars.parse_scalar(scalars.scalar_str(x))
        assert again == x
        assert (again.numerator, again.denominator) == (x.numerator, x.denominator)


def test_float_format_round_trips(rng):
    # a float enters as the exact rational it is and comes back unchanged
    for _ in range(100):
        x = rng.uniform(-1e6, 1e6) * 2.0 ** rng.randint(-900, 900)
        parsed = scalars.parse_scalar(repr(x), exact=False)
        assert parsed == x
        assert scalars.as_float(Fraction(parsed)) == x
    with pytest.raises(OverflowError):
        scalars.as_float(Fraction(10) ** 400)


def test_log_values():
    assert scalars.log_to_float(Fraction(1)) == 0.0
    assert abs(scalars.log_to_float(Fraction(2)) - 0.6931471805599453) <= 1e-15


def test_log_of_nonpositive():
    with pytest.raises(ValueError, match="log of non-positive value"):
        scalars.log_to_float(Fraction(-1))
    with pytest.raises(ValueError):
        scalars.log_to_float(Fraction(0))


def test_log_of_huge_rational():
    # too large for float(Fraction), must still produce a finite log
    x = Fraction(17 ** 400, 5 ** 100)
    assert scalars.log_to_float(x) == pytest.approx(
        400 * math.log(17) - 100 * math.log(5), rel=1e-12
    )


def test_exact_sqrt():
    assert scalars.exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert scalars.exact_sqrt(Fraction(0)) == 0
    with pytest.raises(ValueError):
        scalars.exact_sqrt(Fraction(2))
    with pytest.raises(ValueError):
        scalars.exact_sqrt(Fraction(-4))
