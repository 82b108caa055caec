"""Scalars: their text forms at the command line (exact "p/q" and float
in, canonical text and once-rounded floats out), logs and exact square
roots."""

import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from bdpants import scalars

from conftest import run_cli


def params_echo(capsys, abc):
    code, out, err = run_cli(capsys, ["coords", "--n", "2", "--abc", abc])
    assert code == 0, err
    return json.loads(out)["params"]


def test_parse_normalizes(capsys):
    # --abc values are read as exact rationals and echoed in lowest terms
    assert params_echo(capsys, "6/4,4/2,2/4") == {"alpha": "3/2", "beta": "2", "gamma": "1/2"}


def test_denominator_one_omitted(capsys):
    assert params_echo(capsys, "7,3/1,1/2") == {"alpha": "7", "beta": "3", "gamma": "1/2"}
    code, _, err = run_cli(capsys, ["coords", "--n", "2", "--abc", "2,-3/2,1/2"])
    assert code == 2 and err == "error: beta must be positive, got -3/2\n"
    code, _, err = run_cli(capsys, ["coords", "--n", "2", "--abc", "2,-3,1/2"])
    assert code == 2 and err == "error: beta must be positive, got -3\n"


def test_unicode_minus_accepted(capsys):
    code, _, err = run_cli(capsys, ["coords", "--n", "2", "--abc", "2,−3/2,1/2"])
    assert code == 2 and err == "error: beta must be positive, got -3/2\n"
    code, _, err = run_cli(capsys, ["coords", "--n", "2", "--lengths", "1,−2.5,1"])
    assert code == 2
    assert err == "error: boundary length lB must be positive and finite, got -2.5\n"


def test_roundtrip_bit_identical(capsys, rng):
    # the exact text of each parameter comes back unchanged
    for _ in range(30):
        alpha = 1 + Fraction(rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 9))
        beta = Fraction(rng.randint(10 ** 9, 10 ** 10), rng.randint(1, 10 ** 9))
        gamma = Fraction(rng.randint(1, 10 ** 9 - 1), 10 ** 9)
        texts = [str(alpha), str(beta), str(gamma)]
        echo = params_echo(capsys, ",".join(texts))
        assert [echo["alpha"], echo["beta"], echo["gamma"]] == texts


def test_float_format_round_trips(capsys, rng):
    # a float length enters as the exact rational it is and comes back
    # unchanged; each parameter is its exponential, rounded once
    for _ in range(30):
        lengths = [rng.uniform(0.01, 1.0) * 2.0 ** rng.randint(-20, 9) for _ in range(3)]
        lA, lB, lC = lengths
        code, out, err = run_cli(
            capsys, ["coords", "--n", "2", "--lengths", ",".join(map(repr, lengths))]
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["lengths"] == {"lA": lA, "lB": lB, "lC": lC}
        assert doc["params"] == {
            "alpha": math.exp(lA / 2),
            "beta": math.exp((lC - lA) / 2),
            "gamma": math.exp(-lB / 2),
        }
    # an exact value beyond the float range is refused by name
    code, _, err = run_cli(
        capsys, ["coords", "--n", "2", "--abc", "1e400,1,1/2", "--mode", "float",
                 "--format", "csv"]
    )
    assert code == 2
    assert err.startswith("error: alpha = e^921") and "does not fit in a float" in err


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


def _log_samples():
    """Positive rationals where a log is easy to get wrong: parameters of
    float lengths and their products, random rationals, terms of 3000
    digits, values beyond the float range and values within 10^-24 of 1."""
    rng = random.Random(11)
    for _ in range(300):
        a = Fraction(math.exp(rng.uniform(-40, 40) * 10.0 ** rng.randint(-14, 0)))
        yield a
        yield a * Fraction(math.exp(rng.uniform(-3, 3)))
        yield Fraction(rng.randint(1, 10 ** rng.randint(1, 40)),
                       rng.randint(1, 10 ** rng.randint(1, 40)))
    for _ in range(20):
        yield Fraction(rng.randint(10 ** 2999, 10 ** 3000), rng.randint(10 ** 2999, 10 ** 3000))
        yield Fraction(rng.randint(1, 10 ** 3000), rng.randint(1, 10 ** 300))
        yield Fraction(rng.randint(1, 10 ** 300), rng.randint(1, 10 ** 3000))
    for e in range(1, 30):
        yield 1 + Fraction(1, 10 ** e)
        yield 1 - Fraction(1, 10 ** e)
        yield Fraction(3) ** e
        yield Fraction(2) ** (50 * e)


def test_log_within_four_ulps_of_a_decimal_reference():
    with localcontext() as ctx:
        ctx.prec = 60
        for x in _log_samples():
            if x == 1:
                continue
            exact = (Decimal(x.numerator) / Decimal(x.denominator)).ln()
            error = abs(Decimal(scalars.log_to_float(x)) - exact)
            assert error <= 4 * Decimal(math.ulp(float(exact))), x


def test_log_beyond_float_range_within_half_an_ulp():
    # k log 2 added as one rounded product was up to 1.24 ulps off here
    rng = random.Random(1)
    with localcontext() as ctx:
        ctx.prec = 60
        for _ in range(300):
            small = rng.randint(1, 200)
            big = small + rng.randint(1000, 6000)
            num, den = (rng.getrandbits(b) | 1 << (b - 1) for b in (big, small))
            x = Fraction(num, den) if rng.random() < 0.5 else Fraction(den, num)
            exact = (Decimal(x.numerator) / Decimal(x.denominator)).ln()
            error = abs(Decimal(scalars.log_to_float(x)) - exact)
            assert error <= Decimal("0.51") * Decimal(math.ulp(float(exact))), x


def test_length_near_one_keeps_its_digits(capsys):
    # log(num) - log(den) read alpha = 1 + 10^-24 as lA = 0.0 and
    # refused the input as a zero boundary length
    alpha = Fraction(10 ** 24 + 1, 10 ** 24)
    code, out, err = run_cli(capsys, ["coords", "--n", "3", "--abc", f"{alpha},1,1/2"])
    assert code == 0, err
    assert json.loads(out)["lengths"]["lA"] == 2e-24


def test_exact_sqrt():
    assert scalars.exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert scalars.exact_sqrt(Fraction(0)) == 0
    with pytest.raises(ValueError):
        scalars.exact_sqrt(Fraction(2))
    with pytest.raises(ValueError):
        scalars.exact_sqrt(Fraction(-4))
