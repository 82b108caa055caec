import math
import random
import sys
from fractions import Fraction

import pytest

from bdpants import TRIANGLES, PantsParams, flags, linalg, verify
from bdpants.coords import assemble_phi
from bdpants.veronese import flag_curve, sym_power
from bdpants.verify import (
    CHECK_NAMES,
    VERIFY_MAX_N,
    CheckResult,
    VerifyConfig,
    all_passed,
    random_params,
    run_verification,
)

from conftest import run_cli


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
    assert VerifyConfig(max_n=VERIFY_MAX_N).max_n == VERIFY_MAX_N
    with pytest.raises(ValueError, match=f"max_n <= {VERIFY_MAX_N}, got {VERIFY_MAX_N + 1}"):
        VerifyConfig(max_n=VERIFY_MAX_N + 1)
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


def test_kernel_sees_only_integer_matrices(monkeypatch):
    # every row that det, is_generic and flags_equal push into the
    # elimination, for the generic path and the verify sweep, is all-int:
    # denominators are cleared where a flag is built
    seen = []
    push = linalg._push

    def recording(pivots, row):
        row = list(row)
        seen.append(row)
        return push(pivots, row)

    monkeypatch.setattr(linalg, "_push", recording)
    for exact in (True, False):
        run_verification(VerifyConfig(samples=2, seed=3, max_n=5, exact=exact))
    for n in range(2, 8):
        assemble_phi(n, PantsParams(Fraction(5, 2), 2, Fraction(1, 3)), "generic")
    assert len(seen) > 1000
    assert all(type(x) is int for row in seen for x in row)


def test_equivariance_moves_flags_by_integer_matrices(monkeypatch):
    seen = []

    def recording(m, flag):
        seen.append(m)
        return flags.apply_matrix(m, flag)

    monkeypatch.setattr(verify, "apply_matrix", recording)
    for exact in (True, False):
        assert all_passed(run_verification(VerifyConfig(samples=2, seed=3, max_n=4, exact=exact)))
    # modes, samples, ranks, generators, points
    assert len(seen) == 2 * 2 * 3 * 3 * 2
    assert all(type(x) is int for m in seen for row in m for x in row)


def test_planted_sym_power_fault_fails_equivariance(monkeypatch, capsys):
    def faulty(m, n):
        power = sym_power(m, n)
        power[n - 1][0] += 1
        return power

    monkeypatch.setattr(verify, "sym_power", faulty)
    code, out, _ = run_cli(capsys, ["verify", "--samples", "2", "--max-n", "4"])
    assert code == 1
    failing = [line.split()[0] for line in out.splitlines() if "FIRST FAILURE" in line]
    assert failing == ["equivariance"]


def test_flag_curve_built_once_per_point_and_rank(monkeypatch):
    # one entry per flag_curve call, and None where a sample starts
    calls = []

    def recording(x, n):
        calls.append((x.u, x.v, n))
        return flag_curve(x, n)

    def marking(rng, exact=True):
        calls.append(None)
        return random_params(rng, exact)

    monkeypatch.setattr(verify, "flag_curve", recording)
    monkeypatch.setattr(verify, "random_params", marking)
    for exact in (True, False):
        assert all_passed(run_verification(VerifyConfig(samples=2, seed=5, max_n=4, exact=exact)))
    samples = []
    for call in calls:
        if call is None:
            samples.append([])
        else:
            samples[-1].append(call)
    assert len(samples) == 4
    for sample in samples:
        assert sample and len(sample) == len(set(sample))


def test_out_of_domain_sample_is_refused(monkeypatch, capsys):
    # alpha*beta = 1/2: build_rep refuses the triple before any check runs
    def outside(rng, exact=True):
        return PantsParams(2, Fraction(1, 4), Fraction(1, 2))

    monkeypatch.setattr(verify, "random_params", outside)
    code, _, err = run_cli(capsys, ["verify", "--samples", "1", "--max-n", "3"])
    assert code == 2
    assert "alpha*beta must exceed 1" in err


def test_planted_tau_fault_fails_rotation_and_oracle(monkeypatch, capsys):
    # triangle_rotation reads the generic triple ratios, so a wrong one
    # fails it along with the closed-form comparison
    def planted(n, params, method="closed_form"):
        coords = assemble_phi(n, params, method)
        if method == "generic" and n >= 3:
            for tri in TRIANGLES:
                coords.tau[tri][(1, 1, n - 2)] *= 2
        return coords

    monkeypatch.setattr(verify, "assemble_phi", planted)
    code, out, _ = run_cli(capsys, ["verify", "--samples", "2", "--max-n", "4"])
    assert code == 1
    failing = [line.split()[0] for line in out.splitlines() if "FIRST FAILURE" in line]
    assert failing == ["triangle_rotation", "oracle_equivalence", "length_identity"]


def _squared(ratios):
    return [d * d for d in ratios]


def _doubled(ratios):
    return {pqr: 2 * t for pqr, t in ratios.items()}


@pytest.mark.parametrize("name, fault", [("_double_ratios", _squared), ("_triple_ratios", _doubled)])
def test_planted_ratio_formula_fault_fails_oracle_equivalence(monkeypatch, name, fault):
    # the closed form shares no ratio code with the generic path, so a
    # fault in a ratio formula reaches only one oracle; the formula is
    # patched in every bdpants module that binds it, as editing its
    # source would
    formula = getattr(flags, name)

    def faulty(*args):
        return fault(formula(*args))

    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] == "bdpants" and getattr(module, name, None) is formula:
            monkeypatch.setattr(module, name, faulty)
    results = run_verification(VerifyConfig(samples=2, seed=1, max_n=4))
    assert results["oracle_equivalence"].failed > 0
