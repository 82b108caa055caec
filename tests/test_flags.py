import math
from fractions import Fraction

import pytest

from bdpants import linalg
from bdpants.flags import (
    DegenerateFlagsError,
    Flag,
    apply_matrix,
    double_ratio_exp,
    flags_equal,
    is_generic,
    triple_ratio_exp,
    wedge_det,
)
from bdpants.pants import ProjPoint
from bdpants.veronese import flag_curve

from conftest import leibniz_det

F = Fraction


def test_wedge_identity_basis():
    assert wedge_det([(F(1), F(0)), (F(0), F(1))]) == 1


def test_wedge_two_by_two():
    # X+Y and 3X+Y in the (X, Y) basis
    assert wedge_det([(F(1), F(1)), (F(3), F(1))]) == -2


def test_wedge_dependent_columns():
    assert wedge_det([(F(1), F(0), F(0))] * 2 + [(F(0), F(0), F(1))]) == 0


def test_wedge_rejects_wrong_shape():
    with pytest.raises(ValueError):
        wedge_det([(F(1), F(0))])
    with pytest.raises(ValueError):
        wedge_det([(F(1), F(0), F(0)), (F(0), F(1), F(0))])


def test_wedge_alternating(rng):
    for _ in range(30):
        n = rng.randint(2, 5)
        vectors = [[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        swapped = list(vectors)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert wedge_det(swapped) == -wedge_det(vectors)


def test_determinant_against_leibniz(rng):
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        assert linalg.det(rows) == leibniz_det(rows)


def test_float_determinant_against_leibniz(rng):
    # float-derived entries: dyadic rationals with denominators up to
    # about 2^60, as Fraction(math.exp(x)) produces from a length
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [
            [rng.choice((-1, 1)) * F(math.exp(rng.uniform(-6.0, 2.0))) for _ in range(n)]
            for _ in range(n)
        ]
        assert linalg.det(rows) == leibniz_det(rows)


def test_integer_determinant_against_leibniz(rng):
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        value = linalg.det(rows)
        assert isinstance(value, Fraction)
        assert value == leibniz_det(rows)


def test_determinant_zero_pivot_swaps_rows():
    # a zero leading pivot, and one that appears after the first step
    for rows in (
        [[0, 1, 2], [3, 4, 5], [6, 7, 9]],
        [[F(1), F(2), F(3)], [F(2), F(4), F(7)], [F(1), F(5), F(2)]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    ):
        assert linalg.det(rows) == leibniz_det(rows) != 0


def test_determinant_singular():
    assert linalg.det([[F(1, 3), F(2, 5)], [F(2, 3), F(4, 5)]]) == 0
    assert linalg.det([[0, 1, 2], [0, 3, 4], [0, 5, 7]]) == 0
    assert linalg.det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


def test_determinant_sizes_zero_and_one():
    assert linalg.det([]) == 1
    assert linalg.det([[F(-3, 7)]]) == F(-3, 7)
    assert linalg.det([[5]]) == 5
    with pytest.raises(ValueError):
        linalg.det([[1, 2]])


def test_flag_requires_independent_basis():
    with pytest.raises(ValueError):
        Flag([(F(1), F(2)), (F(2), F(4))])


def test_single_full_rank_flag_is_generic():
    flag = Flag([(F(1), F(0), F(0)), (F(1), F(1), F(0)), (F(0), F(2), F(1))])
    assert is_generic([flag])


def test_repeated_flag_not_generic():
    flag = Flag([(F(1), F(0)), (F(0), F(1))])
    assert not is_generic([flag, flag])


def test_curve_triple_is_generic():
    flags = [flag_curve(x, 3) for x in (ProjPoint.infinity(), ProjPoint.of(F(1)), ProjPoint.of(F(0)))]
    assert is_generic(flags)


def test_triple_ratio_of_curve_triple_is_one():
    e, f, g = (
        flag_curve(x, 3)
        for x in (ProjPoint.infinity(), ProjPoint.of(F(1)), ProjPoint.of(F(0)))
    )
    assert triple_ratio_exp(e, f, g, 1, 1, 1) == 1


def test_triple_ratio_symmetries(rng):
    for _ in range(15):
        n = rng.randint(3, 5)
        e, f, g = _random_generic_triple(rng, n)
        for p in range(1, n - 1):
            for q in range(1, n - p):
                r = n - p - q
                t = triple_ratio_exp(e, f, g, p, q, r)
                assert t == triple_ratio_exp(f, g, e, q, r, p)
                assert t * triple_ratio_exp(f, e, g, q, p, r) == 1


def test_triple_ratio_degenerate_inputs():
    e = flag_curve(ProjPoint.infinity(), 3)
    g = flag_curve(ProjPoint.of(F(0)), 3)
    with pytest.raises(DegenerateFlagsError, match="degenerate flags"):
        triple_ratio_exp(e, e, g, 1, 1, 1)


def test_triple_ratio_invalid_indices():
    e, f, g = (
        flag_curve(x, 3)
        for x in (ProjPoint.infinity(), ProjPoint.of(F(1)), ProjPoint.of(F(0)))
    )
    with pytest.raises(ValueError):
        triple_ratio_exp(e, f, g, 0, 1, 2)
    with pytest.raises(ValueError):
        triple_ratio_exp(e, f, g, 1, 1, 2)


def test_double_ratio_example_hca():
    # quadruple (1, inf, 3, 0) at the sample parameters, n = 2
    e = flag_curve(ProjPoint.of(F(1)), 2)
    f = flag_curve(ProjPoint.infinity(), 2)
    g = flag_curve(ProjPoint.of(F(3)), 2)
    g2 = flag_curve(ProjPoint.of(F(0)), 2)
    assert double_ratio_exp(e, f, g, g2, 1) == 2


def test_double_ratio_example_hab():
    # quadruple (inf, 0, -1/2, 1) at the sample parameters, n = 2
    e = flag_curve(ProjPoint.infinity(), 2)
    f = flag_curve(ProjPoint.of(F(0)), 2)
    g = flag_curve(ProjPoint.of(F(-1, 2)), 2)
    g2 = flag_curve(ProjPoint.of(F(1)), 2)
    assert double_ratio_exp(e, f, g, g2, 1) == 2


def test_double_ratio_p_out_of_range():
    e, f, g, g2 = (
        flag_curve(ProjPoint.of(F(x)), 2) for x in (2, 3, 5, 7)
    )
    with pytest.raises(ValueError, match="p out of range"):
        double_ratio_exp(e, f, g, g2, 0)
    with pytest.raises(ValueError):
        double_ratio_exp(e, f, g, g2, 2)


def _random_flag(rng, n):
    while True:
        basis = [[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        try:
            return Flag(basis)
        except ValueError:
            continue


def _random_generic_triple(rng, n):
    while True:
        triple = tuple(_random_flag(rng, n) for _ in range(3))
        if is_generic(triple):
            return triple


def _random_generic_quadruple(rng, n):
    while True:
        quad = tuple(_random_flag(rng, n) for _ in range(4))
        if is_generic(quad):
            return quad


def test_scaling_invariance(rng):
    for _ in range(10):
        n = rng.randint(3, 5)
        e, f, g = _random_generic_triple(rng, n)
        quad = _random_generic_quadruple(rng, n)
        base = triple_ratio_exp(e, f, g, 1, 1, n - 2)
        dbase = double_ratio_exp(*quad, 1)
        for i in range(1, n + 1):
            s = F(rng.randint(1, 9), rng.randint(1, 9))
            assert triple_ratio_exp(e.scaled(i, s), f, g, 1, 1, n - 2) == base
            assert triple_ratio_exp(e, f.scaled(i, -s), g, 1, 1, n - 2) == base
        scaled = tuple(q.scaled(rng.randint(1, n), F(3, 7)) for q in quad)
        assert double_ratio_exp(*scaled, 1) == dbase


def test_projective_invariance(rng):
    for _ in range(10):
        n = rng.randint(2, 4)
        while True:
            m = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            if linalg.det(m) != 0:
                break
        e, f, g = _random_generic_triple(rng, n)
        if n >= 3:
            assert triple_ratio_exp(
                apply_matrix(m, e), apply_matrix(m, f), apply_matrix(m, g), 1, 1, n - 2
            ) == triple_ratio_exp(e, f, g, 1, 1, n - 2)
        quad = _random_generic_quadruple(rng, n)
        moved = tuple(apply_matrix(m, q) for q in quad)
        assert double_ratio_exp(*moved, 1) == double_ratio_exp(*quad, 1)


def test_flags_equal_subspacewise():
    f = Flag([(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))])
    # same subspaces, different bases
    g = Flag([(F(2), F(0), F(0)), (F(3), F(5), F(0)), (F(1), F(1), F(1))])
    h = Flag([(F(0), F(1), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(1))])
    assert flags_equal(f, g)
    assert not flags_equal(f, h)
