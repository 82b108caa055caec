import math
from fractions import Fraction

import pytest

from bdpants import linalg
from bdpants.flags import apply_matrix, flags_equal
from bdpants.pants import ProjPoint, SL2Mat, build_rep, eigenvalues, fixed_points, mobius_apply
from bdpants.veronese import flag_curve, stable_flag, sym_power
from bdpants.verify import _integer_multiple, random_flag, random_params

from conftest import leibniz_det, mat_mul, sym_eigenvalues

F = Fraction


def _random_sl2(rng):
    # an upper times a lower unipotent: determinant one by construction
    x = F(rng.randint(-4, 4), rng.randint(1, 3))
    y = F(rng.randint(-4, 4), rng.randint(1, 3))
    return SL2Mat(F(1), x, F(0), F(1)).mul(SL2Mat(F(1), F(0), y, F(1)))


def test_sym_power_n2_is_identity_map():
    m = SL2Mat(F(3, 2), F(1, 3), F(-2), F(2, 5))
    assert sym_power(m, 2) == [[m.a, m.b], [m.c, m.d]]


def test_sym_power_diagonal_weights():
    m = SL2Mat(F(3), F(0), F(0), F(1, 3))
    assert sym_power(m, 3) == [
        [F(9), F(0), F(0)],
        [F(0), F(1), F(0)],
        [F(0), F(0), F(1, 9)],
    ]


def test_sym_power_unipotent():
    m = SL2Mat(F(1), F(1), F(0), F(1))
    assert sym_power(m, 3) == [
        [F(1), F(1), F(1)],
        [F(0), F(1), F(2)],
        [F(0), F(0), F(1)],
    ]


def test_sym_power_rejects_small_n():
    with pytest.raises(ValueError):
        sym_power(SL2Mat(F(1), F(0), F(0), F(1)), 1)


def test_homomorphism_property(rng):
    for _ in range(15):
        m = _random_sl2(rng)
        k = _random_sl2(rng)
        for n in (2, 3, 4, 5):
            assert sym_power(m.mul(k), n) == mat_mul(
                sym_power(m, n), sym_power(k, n)
            )


def test_sym_power_of_integer_multiple(rng):
    # verify moves flags by sym_power(D m), with D the LCM of m's
    # denominators: D^(n-1) sym_power(m), all-int, same action on flags
    for _ in range(8):
        m = _random_sl2(rng)
        entries = (m.a, m.b, m.c, m.d)
        d = math.lcm(*[x.denominator for x in entries])
        scaled = _integer_multiple(m)
        assert (scaled.a, scaled.b, scaled.c, scaled.d) == tuple(d * x for x in entries)
        for n in range(2, 9):
            power = sym_power(scaled, n)
            exact = sym_power(m, n)
            assert all(type(x) is int for row in power for x in row)
            assert power == [[d ** (n - 1) * x for x in row] for row in exact]
            flag = random_flag(rng, n)
            assert flags_equal(apply_matrix(power, flag), apply_matrix(exact, flag))


def test_determinant_one(rng):
    # sym_power of a rational matrix is rational, so the integer kernel
    # does not apply; the permutation sum does
    for _ in range(10):
        m = _random_sl2(rng)
        for n in (2, 3, 4, 5, 6):
            assert leibniz_det(sym_power(m, n)) == 1


def test_flag_curve_at_infinity():
    flag = flag_curve(ProjPoint.infinity(), 3)
    assert list(flag.basis) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_flag_curve_at_zero():
    flag = flag_curve(ProjPoint.of(F(0)), 3)
    assert flag.basis[0] == (F(0), F(0), F(1))


def test_flag_curve_at_one_n2():
    flag = flag_curve(ProjPoint.of(F(1)), 2)
    assert flag.basis[0] == (F(1), F(1))


def test_flag_curve_scaling_of_projective_pair():
    a = flag_curve(ProjPoint(F(3), F(2)), 4)
    b = flag_curve(ProjPoint(F(3, 2), F(1)), 4)
    assert flags_equal(a, b)


def test_equivariance_on_generators(rng):
    params = random_params(rng)
    rep = build_rep(params)
    points = [ProjPoint.infinity(), ProjPoint.of(F(0)), ProjPoint.of(F(5, 3)),
              ProjPoint.of(F(-7, 2))]
    for n in (2, 3, 4, 5):
        for mat in (rep.a, rep.b, rep.c, rep.a.inv(), rep.b.inv()):
            power = sym_power(mat, n)
            for x in points:
                lhs = apply_matrix(power, flag_curve(x, n))
                rhs = flag_curve(mobius_apply(mat, x), n)
                assert flags_equal(lhs, rhs)


def test_stable_flag_matches_curve(rng):
    params = random_params(rng)
    rep = build_rep(params)
    for n in (2, 3, 4, 5):
        for mat in (rep.a, rep.b, rep.c):
            att, _ = fixed_points(mat)
            assert flags_equal(flag_curve(att, n), stable_flag(mat, n))


def test_stable_flag_is_eigenbasis(sample_params):
    # each basis vector is an eigenvector with the expected weight
    rep = build_rep(sample_params)
    for n in (2, 3, 4):
        for mat in (rep.a, rep.b, rep.c):
            power = sym_power(mat, n)
            flag = stable_flag(mat, n)
            eigs = sym_eigenvalues(mat, n)
            lift_sign = 1 if mat.trace() > 0 else -1
            for i, vector in enumerate(flag.basis):
                image = linalg.mat_vec(power, list(vector))
                expected = [lift_sign ** (n - 1) * eigs[i] * x for x in vector]
                assert image == expected


def test_eigen_lengths_sample(sample_params):
    rep = build_rep(sample_params)
    # rho(c) has trace -5/2, so its leading eigenvalue is negative
    assert eigenvalues(rep.a) == (2, F(1, 2))
    assert eigenvalues(rep.b) == (2, F(1, 2))
    assert eigenvalues(rep.c) == (-2, F(-1, 2))

