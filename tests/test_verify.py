import math
import random
from fractions import Fraction

import pytest

from bdpants.verify import (
    CHECK_NAMES,
    CheckResult,
    VerifyConfig,
    all_passed,
    random_params,
    run_verification,
)


def test_run_verification_exact_passes():
    results = run_verification(VerifyConfig(samples=2, seed=6, max_n=3, exact=True))
    assert set(results) == set(CHECK_NAMES)
    assert all_passed(results)
    assert all(r.passed > 0 for r in results.values())


def test_run_verification_float_passes():
    results = run_verification(VerifyConfig(samples=2, seed=6, max_n=3, exact=False))
    assert all_passed(results)


def test_run_verification_deterministic():
    config = VerifyConfig(samples=2, seed=11, max_n=3)
    first = run_verification(config)
    second = run_verification(config)
    assert {k: (r.passed, r.failed) for k, r in first.items()} == {
        k: (r.passed, r.failed) for k, r in second.items()
    }


def test_config_validation():
    with pytest.raises(ValueError):
        VerifyConfig(samples=0)
    with pytest.raises(ValueError):
        VerifyConfig(max_n=1)
    with pytest.raises(ValueError, match="seed >= 0"):
        VerifyConfig(seed=-1)


def test_check_result_keeps_first_failure():
    result = CheckResult("demo")
    result.record(True)
    result.record(False, "first")
    result.record(False, "second")
    assert (result.passed, result.failed) == (1, 2)
    assert result.first_failure == "first"


def test_random_params_stay_in_domain(rng):
    for _ in range(50):
        params = random_params(rng)
        assert params.alpha > 1
        assert params.beta > 0
        assert 0 < params.gamma < 1
        assert params.alpha * params.beta > 1
    for _ in range(10):
        # float mode: the exact parameters of three random lengths
        twin = random.Random()
        twin.setstate(rng.getstate())
        lA, lB, lC = (twin.uniform(0.4, 3.2) for _ in range(3))
        params = random_params(rng, exact=False)
        assert params.alpha == Fraction(math.exp(lA / 2))
        assert params.beta == Fraction(math.exp((lC - lA) / 2))
        assert params.gamma == Fraction(math.exp(-lB / 2))
        assert params.alpha > 1 and 0 < params.gamma < 1 and params.beta > 0
