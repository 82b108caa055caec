import math
import random
from fractions import Fraction

import pytest

from bdpants.coords import assemble_phi
from bdpants.pants import (
    BOUNDARY_LEAVES,
    DomainError,
    PantsLengths,
    PantsParams,
    ProjPoint,
    SL2Mat,
    build_rep,
    eigenvalues,
    fixed_points,
    leaf_quadruple,
    lengths_from_params,
    mobius_apply,
    params_from_lengths,
    triangle_vertices,
    validate_params,
)
from bdpants.verify import random_params

F = Fraction
TWO_LN_2 = 2 * math.log(2)


def test_params_from_lengths_sample():
    params = params_from_lengths(PantsLengths(TWO_LN_2, TWO_LN_2, TWO_LN_2))
    assert params.alpha == pytest.approx(2.0, abs=1e-12)
    assert params.beta == pytest.approx(1.0, abs=1e-12)
    assert params.gamma == pytest.approx(0.5, abs=1e-12)


def test_beta_matches_trace_formula():
    # beta = (cosh(l_C/2) + sinh(l_C/2)) / alpha
    lengths = PantsLengths(TWO_LN_2, TWO_LN_2, TWO_LN_2)
    params = params_from_lengths(lengths)
    expected = (math.cosh(lengths.lC / 2) + math.sinh(lengths.lC / 2)) / params.alpha
    assert params.beta == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1.0, abs=1e-12)


def test_nonpositive_length_rejected():
    with pytest.raises(DomainError):
        PantsLengths(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        PantsLengths(1.0, -2.0, 1.0)


def test_lengths_from_params_sample(sample_params):
    lengths = lengths_from_params(sample_params)
    assert lengths.lA == pytest.approx(TWO_LN_2, abs=1e-12)
    assert lengths.lB == pytest.approx(TWO_LN_2, abs=1e-12)
    assert lengths.lC == pytest.approx(TWO_LN_2, abs=1e-12)


def test_length_param_roundtrip(rng):
    for _ in range(25):
        lengths = PantsLengths(
            rng.uniform(0.3, 3.5), rng.uniform(0.3, 3.5), rng.uniform(0.3, 3.5)
        )
        back = lengths_from_params(params_from_lengths(lengths))
        assert back.lA == pytest.approx(lengths.lA, abs=1e-12)
        assert back.lB == pytest.approx(lengths.lB, abs=1e-12)
        assert back.lC == pytest.approx(lengths.lC, abs=1e-12)


def test_invalid_params_rejected():
    with pytest.raises(DomainError):
        validate_params(PantsParams(F(1), F(1), F(1, 2)))
    with pytest.raises(DomainError):
        lengths_from_params(PantsParams(F(1), F(1), F(1, 2)))
    with pytest.raises(DomainError):
        validate_params(PantsParams(F(2), F(-1), F(1, 2)))
    with pytest.raises(DomainError):
        validate_params(PantsParams(F(2), F(1), F(3, 2)))


def test_alpha_beta_at_most_one_refused_everywhere():
    # alpha, beta, gamma each in range, but alpha*beta = 1/2
    params = PantsParams(F(2), F(1, 4), F(1, 2))
    message = "alpha\\*beta must exceed 1 for a positive third boundary length"
    with pytest.raises(DomainError, match=message):
        validate_params(params)
    with pytest.raises(DomainError, match=message):
        assemble_phi(3, params)
    with pytest.raises(DomainError, match=message):
        lengths_from_params(params)


def test_build_rep_rejects_parabolic_third_boundary():
    with pytest.raises(DomainError, match="alpha\\*beta"):
        build_rep(PantsParams(F(2), F(1, 2), F(1, 3)))


def test_build_rep_sample_matrices(sample_params):
    rep = build_rep(sample_params)
    assert rep.a == SL2Mat(F(2), F(3, 2), F(0), F(1, 2))
    assert rep.b == SL2Mat(F(1, 2), F(0), F(-3), F(2))
    assert rep.c == SL2Mat(F(1), F(-3), F(3, 2), F(-7, 2))
    for m in (rep.a, rep.b, rep.c):
        assert m.a * m.d - m.b * m.c == 1


def test_group_relation_random():
    rng = random.Random(5)
    for _ in range(20):
        rep = build_rep(random_params(rng))
        prod = rep.a.mul(rep.b).mul(rep.c)
        assert prod == SL2Mat(F(1), F(0), F(0), F(1))


def test_proj_point_hash_matches_equality():
    assert hash(ProjPoint(2, 4)) == hash(ProjPoint.of(F(1, 2)))
    assert hash(ProjPoint(-3, 0)) == hash(ProjPoint.infinity())
    assert len({ProjPoint(1, 3), ProjPoint(-2, -6), ProjPoint.of(F(1, 3))}) == 1


def test_c_fixes_one(sample_params):
    rep = build_rep(sample_params)
    one = ProjPoint.of(F(1))
    assert mobius_apply(rep.c, one) == one


def test_trace_length_relation(sample_params):
    rep = build_rep(sample_params)
    # |tr(c)| = 2 cosh(l_C / 2) with l_C = 2 ln 2, so 5/2
    assert abs(rep.c.trace()) == F(5, 2)
    assert 2 * math.cosh(TWO_LN_2 / 2) == pytest.approx(2.5, abs=1e-12)


def test_trace_length_over_grid():
    values = [0.5 + 2.5 * i / 4 for i in range(5)]
    for la in values:
        for lb in values:
            for lc in values:
                lengths = PantsLengths(la, lb, lc)
                rep = build_rep(params_from_lengths(lengths))
                for mat, length in ((rep.a, la), (rep.b, lb), (rep.c, lc)):
                    assert abs(mat.trace()) == pytest.approx(
                        2 * math.cosh(length / 2), abs=1e-10
                    )


def test_mobius_special_values(sample_params):
    rep = build_rep(sample_params)
    be, ga = sample_params.beta, sample_params.gamma
    al = sample_params.alpha
    assert mobius_apply(rep.a.inv(), ProjPoint.of(F(1))) == ProjPoint.of(-be * ga)
    assert mobius_apply(rep.b.inv(), ProjPoint.infinity()) == ProjPoint.of(be / (be + ga))
    assert mobius_apply(rep.a, ProjPoint.of(F(0))) == ProjPoint.of(al * al * be * ga + 1)
    assert mobius_apply(rep.a.inv(), ProjPoint.of(F(1))) == ProjPoint.of(F(-1, 2))
    assert mobius_apply(rep.b.inv(), ProjPoint.infinity()) == ProjPoint.of(F(2, 3))
    assert mobius_apply(rep.a, ProjPoint.of(F(0))) == ProjPoint.of(F(3))


def test_fixed_points_sample(sample_params):
    rep = build_rep(sample_params)
    att_a, rep_a = fixed_points(rep.a)
    assert att_a.is_infinity
    assert rep_a == ProjPoint.of(F(-1))
    att_b, rep_b = fixed_points(rep.b)
    assert att_b == ProjPoint.of(F(0))
    assert rep_b == ProjPoint.of(F(1, 2))
    att_c, rep_c = fixed_points(rep.c)
    assert {att_c.value(), rep_c.value()} == {F(1), F(2)}
    assert att_c == ProjPoint.of(F(1))


def test_fixed_point_formulas_random():
    rng = random.Random(9)
    for _ in range(20):
        params = random_params(rng)
        al, be, ga = params.alpha, params.beta, params.gamma
        rep = build_rep(params)
        _, rep_a = fixed_points(rep.a)
        _, rep_b = fixed_points(rep.b)
        _, rep_c = fixed_points(rep.c)
        assert rep_a == ProjPoint(al * al * be * ga + 1, 1 - al * al)
        assert rep_b == ProjPoint(ga - 1 / ga, -1 / be - 1 / ga)
        assert rep_c == ProjPoint(al * be + 1 / (al * ga), 1 / (al * ga) + 1 / (al * be))
        # circular ordering forced by the domain inequalities
        assert rep_a.value() < 0 < rep_b.value() < 1 < rep_c.value()


def test_fixed_points_rejects_non_hyperbolic():
    rotation = SL2Mat(F(0), F(-1), F(1), F(0))
    with pytest.raises(ValueError, match="not hyperbolic"):
        fixed_points(rotation)


def test_eigenvalues_rejects_parabolic():
    with pytest.raises(ValueError, match="not hyperbolic"):
        eigenvalues(SL2Mat(F(1), F(1), F(0), F(1)))


def test_lamination_data(sample_params):
    inf = ProjPoint.infinity()
    zero = ProjPoint.of(F(0))
    one = ProjPoint.of(F(1))
    assert triangle_vertices(sample_params, "T0") == (inf, one, zero)
    assert triangle_vertices(sample_params, "T1") == (inf, zero, ProjPoint.of(F(-1, 2)))
    assert leaf_quadruple(sample_params, "h_AB") == (inf, zero, ProjPoint.of(F(-1, 2)), one)
    assert leaf_quadruple(sample_params, "h_BC") == (zero, one, ProjPoint.of(F(2, 3)), inf)
    assert leaf_quadruple(sample_params, "h_CA") == (one, inf, ProjPoint.of(F(3)), zero)
    assert BOUNDARY_LEAVES == {
        "A": ("h_AB", "h_CA"),
        "B": ("h_AB", "h_BC"),
        "C": ("h_BC", "h_CA"),
    }


def test_projpoint_equality_cross_multiplication():
    assert ProjPoint(F(2), F(4)) == ProjPoint(F(1), F(2))
    assert ProjPoint(F(1), F(0)) == ProjPoint(F(5), F(0))
    assert ProjPoint(F(1), F(0)) != ProjPoint(F(1), F(1))
    with pytest.raises(ValueError):
        ProjPoint(F(0), F(0))


def test_projpoint_pairs_are_canonical():
    # coprime ints with v > 0, or (1, 0) at infinity, whatever the input
    for point, pair in (
        (ProjPoint(F(3), F(2)), (3, 2)),
        (ProjPoint(F(-1, 2), F(-1)), (1, 2)),
        (ProjPoint(6, -4), (-3, 2)),
        (ProjPoint(-5, 0), (1, 0)),
        (ProjPoint.of(F(-7, 3)), (-7, 3)),
    ):
        assert (point.u, point.v) == pair
        assert type(point.u) is int and type(point.v) is int
    assert ProjPoint(-5, 0) == ProjPoint.infinity()
    value = ProjPoint(F(-1, 2), F(-1)).value()
    assert type(value) is Fraction and value == F(1, 2)
