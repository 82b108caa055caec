import math
from fractions import Fraction
from itertools import combinations

import pytest

from bdpants import linalg
from bdpants.coords import tau_index_tuples
from bdpants.flags import (
    DegenerateFlagsError,
    Flag,
    apply_matrix,
    double_ratios_exp,
    flags_equal,
    is_generic,
    triple_ratios_exp,
)
from bdpants.pants import ProjPoint
from bdpants.veronese import flag_curve

from conftest import brute_is_generic, leibniz_det

F = Fraction


def test_wedge_identity_basis():
    assert linalg.det([(1, 0), (0, 1)]) == 1


def test_wedge_two_by_two():
    # X+Y and 3X+Y in the (X, Y) basis
    assert linalg.det([(1, 1), (3, 1)]) == -2


def test_wedge_dependent_columns():
    assert linalg.det([(1, 0, 0)] * 2 + [(0, 0, 1)]) == 0


def test_wedge_rejects_wrong_shape():
    with pytest.raises(ValueError):
        linalg.det([(1, 0)])
    with pytest.raises(ValueError):
        linalg.det([(1, 0, 0), (0, 1, 0)])


def test_wedge_alternating(rng):
    for _ in range(30):
        n = rng.randint(2, 5)
        vectors = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        swapped = list(vectors)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert linalg.det(swapped) == -linalg.det(vectors)


def test_determinant_against_leibniz(rng):
    # entries of up to 64 bits, the size a cleared dyadic flag vector has
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-2 ** 64, 2 ** 64) for _ in range(n)] for _ in range(n)]
        assert linalg.det(rows) == leibniz_det(rows)


def _dyadic(rng):
    """A float-derived entry: a dyadic rational with a denominator up to
    about 2^60, as Fraction(math.exp(x)) produces from a length."""
    return rng.choice((-1, 1)) * F(math.exp(rng.uniform(-6.0, 2.0)))


def test_float_determinant_against_leibniz(rng):
    # a flag of float-derived vectors: its integer wedge is the rational
    # one times the scale of each cleared vector
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[_dyadic(rng) for _ in range(n)] for _ in range(n)]
        basis = Flag(rows).basis
        scales = [cleared[0] / row[0] for cleared, row in zip(basis, rows)]
        assert linalg.det(basis) == leibniz_det(rows) * math.prod(scales)


def test_integer_determinant_against_leibniz(rng):
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        value = linalg.det(rows)
        assert type(value) is int
        assert value == leibniz_det(rows)


def test_kernel_refuses_non_integer_entries():
    # Bareiss's exact divisions would give a wrong number with no error
    for rows in ([[F(1, 2), 1], [1, 3]], [[1, 2], [3, F(4)]], [[1.0, 2], [3, 4]]):
        with pytest.raises(TypeError):
            linalg.det(rows)


def test_flag_clears_denominators_per_vector(rng):
    # small fractions and float-derived dyadic rationals: each stored
    # vector is all-int and a positive multiple of its input vector
    entries = (lambda: F(rng.randint(-6, 6), rng.randint(1, 3)), lambda: _dyadic(rng))
    for entry in entries:
        for _ in range(40):
            n = rng.randint(1, 5)
            rows = [[entry() for _ in range(n)] for _ in range(n)]
            try:
                flag = Flag(rows)
            except ValueError:
                continue
            for cleared, row in zip(flag.basis, rows):
                assert all(type(x) is int for x in cleared)
                scale = next(c / x for c, x in zip(cleared, row) if x != 0)
                assert scale > 0
                assert list(cleared) == [scale * x for x in row]


def test_determinant_zero_pivot_swaps_rows():
    # a zero leading pivot, and one that appears after the first step
    for rows in (
        [[0, 1, 2], [3, 4, 5], [6, 7, 9]],
        [[1, 2, 3], [2, 4, 7], [1, 5, 2]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    ):
        assert linalg.det(rows) == leibniz_det(rows) != 0


def test_determinant_singular():
    assert linalg.det([[5, 6], [10, 12]]) == 0
    assert linalg.det([[0, 1, 2], [0, 3, 4], [0, 5, 7]]) == 0
    assert linalg.det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


def test_determinant_sizes_zero_and_one():
    assert linalg.det([]) == 1
    assert linalg.det([[-3]]) == -3
    assert linalg.det([[5]]) == 5
    with pytest.raises(ValueError):
        linalg.det([[1, 2]])


def _rank_by_minors(rows):
    """The largest k with a nonzero k-by-k minor, by Leibniz determinants."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    for k in range(min(nrows, ncols), 0, -1):
        for rs in combinations(range(nrows), k):
            for cs in combinations(range(ncols), k):
                if leibniz_det([[rows[i][j] for j in cs] for i in rs]) != 0:
                    return k
    return 0


def _triangular(rng, n):
    """Rows of a random lower-triangular matrix with nonzero diagonal:
    row i mixes the first i + 1 basis vectors of a flag."""
    return [[rng.choice((-3, -2, -1, 1, 2, 3)) if j == i
             else rng.randint(-3, 3) if j < i else 0
             for j in range(n)] for i in range(n)]


def _kept(rows):
    """The number of rows the elimination step keeps as pivots."""
    pivots = []
    for row in rows:
        linalg._push(pivots, row)
    return len(pivots)


def _remixed(rng, flag):
    """The same flag in another basis: row i mixes the first i + 1
    basis vectors."""
    return Flag([[sum(c * x for c, x in zip(coeffs, col)) for col in zip(*flag.basis)]
                 for coeffs in _triangular(rng, flag.dim)])


def test_rank_of_stacked_flag_prefixes(rng):
    # the 2i-by-n matrices of flags_equal, for equal and unequal flags
    for _ in range(10):
        n = rng.randint(2, 4)
        f = _random_flag(rng, n)
        same = _remixed(rng, f)
        for g in (f, same, _random_flag(rng, n)):
            for i in range(1, n):
                rows = list(f.prefix(i)) + list(g.prefix(i))
                assert _kept(rows) == _rank_by_minors(rows)
        assert all(_kept(list(f.prefix(i)) + list(same.prefix(i))) == i
                   for i in range(1, n))


def _sharing(rng, flag, j):
    """A flag whose first j subspaces are those of the given flag and
    whose other basis vectors are random."""
    n = flag.dim
    while True:
        rows = list(_remixed(rng, flag).basis[:j]) + [
            [rng.randint(-3, 3) for _ in range(n)] for _ in range(n - j)]
        try:
            return Flag(rows)
        except ValueError:
            continue


def test_flags_equal_against_minors(rng):
    # equal, triangularly remixed, partly shared and random flags
    for _ in range(25):
        n = rng.randint(1, 4)
        f = _random_flag(rng, n)
        for g in (f, _remixed(rng, f), _sharing(rng, f, rng.randrange(n)), _random_flag(rng, n)):
            expected = all(_rank_by_minors(list(f.prefix(i)) + list(g.prefix(i))) == i
                           for i in range(1, n))
            assert flags_equal(f, g) == flags_equal(g, f) == expected


def test_rank_skips_zero_columns_and_empty():
    # column 0 has no pivot; the elimination must move on to column 1
    rows = [[0, 1, 2, 3], [0, 2, 4, 7], [0, 3, 6, 10]]
    assert _kept(rows) == _rank_by_minors(rows) == 2
    rows = [[0, 1, 2], [0, 2, 4], [0, 0, 3]]
    assert _kept(rows) == _rank_by_minors(rows) == 2
    assert _kept([[0, 0], [0, 0]]) == 0
    assert _kept([]) == 0


def test_rank_against_minors(rng):
    # wide and tall products of nrows-by-k and k-by-ncols factors, so
    # every rank up to min(nrows, ncols) occurs; entries are small ints
    # or of up to 64 bits, the size of a cleared dyadic flag vector
    entries = (
        lambda: rng.randint(-2 ** 64, 2 ** 64),
        lambda: rng.randint(-2, 2),
    )
    for entry in entries:
        for _ in range(30):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            k = rng.randint(0, min(nrows, ncols))
            left = [[entry() for _ in range(k)] for _ in range(nrows)]
            right = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(k)]
            rows = [[sum(row[i] * right[i][j] for i in range(k)) for j in range(ncols)]
                    for row in left]
            assert _kept(rows) == _rank_by_minors(rows)


def test_determinant_of_dependent_and_unit_rows(rng):
    # unit rows take pivot columns out of order, so the sign is the
    # parity of the pivot columns; a dependent row makes it vanish
    for _ in range(40):
        n = rng.randint(2, 5)
        bits = rng.choice((3, 64))
        rows = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(n)] for _ in range(n)]
        for i in rng.sample(range(n), rng.randint(1, n - 1)):
            t = rng.randrange(n)
            rows[i] = [int(j == t) for j in range(n)]
        rng.shuffle(rows)
        assert linalg.det(rows) == leibniz_det(rows)
        i = rng.randrange(n)
        others = rows[:i] + rows[i + 1:]
        a, b, c = rng.choice(others), rng.choice(others), rng.randint(-3, 3)
        rows[i] = [c * x + y for x, y in zip(a, b)]
        assert linalg.det(rows) == leibniz_det(rows) == 0


def test_flag_requires_independent_basis():
    with pytest.raises(ValueError):
        Flag([(F(1), F(2)), (F(2), F(4))])


def test_single_full_rank_flag_is_generic():
    flag = Flag([(F(1), F(0), F(0)), (F(1), F(1), F(0)), (F(0), F(2), F(1))])
    assert is_generic([flag])


def test_repeated_flag_not_generic():
    flag = Flag([(F(1), F(0)), (F(0), F(1))])
    assert not is_generic([flag, flag])


def _planted(rng, n, k):
    """k random flags, some of which share leading subspaces with an
    earlier one, so that a walk meets its first dependent choice below
    the first flag."""
    bits = rng.choice((2, 64))
    flags = []
    while len(flags) < k:
        if flags and rng.random() < 0.4:
            flags.append(_sharing(rng, rng.choice(flags), rng.randint(1, n)))
            continue
        rows = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(n)] for _ in range(n)]
        try:
            flags.append(Flag(rows))
        except ValueError:
            continue
    return flags


def test_is_generic_against_compositions(rng):
    # every composition against a Leibniz determinant: k = 1..4 flags,
    # n <= 5, small and 64-bit entries, some repeated subspaces
    verdicts = set()
    for _ in range(120):
        n, k = rng.randint(1, 5), rng.randint(1, 4)
        flags = _planted(rng, n, k)
        verdict = brute_is_generic(flags)
        assert is_generic(flags) == verdict
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_curve_triple_is_generic():
    flags = [flag_curve(x, 3) for x in (ProjPoint.infinity(), ProjPoint.of(F(1)), ProjPoint.of(F(0)))]
    assert is_generic(flags)


def test_triple_ratio_of_curve_triple_is_one():
    e, f, g = (
        flag_curve(x, 3)
        for x in (ProjPoint.infinity(), ProjPoint.of(F(1)), ProjPoint.of(F(0)))
    )
    assert triple_ratios_exp(e, f, g, tau_index_tuples(3)) == {(1, 1, 1): 1}


def test_triple_ratio_symmetries(rng):
    for _ in range(15):
        n = rng.randint(3, 5)
        e, f, g = _random_generic_triple(rng, n)
        tuples = tau_index_tuples(n)
        t = triple_ratios_exp(e, f, g, tuples)
        cyclic = triple_ratios_exp(f, g, e, tuples)
        swapped = triple_ratios_exp(f, e, g, tuples)
        for (p, q, r) in tuples:
            assert t[(p, q, r)] == cyclic[(q, r, p)]
            assert t[(p, q, r)] * swapped[(q, p, r)] == 1


def test_triple_ratio_degenerate_inputs():
    e = flag_curve(ProjPoint.infinity(), 3)
    g = flag_curve(ProjPoint.of(F(0)), 3)
    with pytest.raises(DegenerateFlagsError, match="degenerate flags"):
        triple_ratios_exp(e, e, g, tau_index_tuples(3))


def test_triple_ratio_invalid_indices():
    e, f, g = (
        flag_curve(x, 3)
        for x in (ProjPoint.infinity(), ProjPoint.of(F(1)), ProjPoint.of(F(0)))
    )
    with pytest.raises(ValueError):
        triple_ratios_exp(e, f, g, [(0, 1, 2)])
    with pytest.raises(ValueError):
        triple_ratios_exp(e, f, g, [(1, 1, 2)])


def test_double_ratio_example_hca():
    # quadruple (1, inf, 3, 0) at the sample parameters, n = 2
    e = flag_curve(ProjPoint.of(F(1)), 2)
    f = flag_curve(ProjPoint.infinity(), 2)
    g = flag_curve(ProjPoint.of(F(3)), 2)
    g2 = flag_curve(ProjPoint.of(F(0)), 2)
    assert double_ratios_exp(e, f, g, g2, range(1, 2)) == [2]


def test_double_ratio_example_hab():
    # quadruple (inf, 0, -1/2, 1) at the sample parameters, n = 2
    e = flag_curve(ProjPoint.infinity(), 2)
    f = flag_curve(ProjPoint.of(F(0)), 2)
    g = flag_curve(ProjPoint.of(F(-1, 2)), 2)
    g2 = flag_curve(ProjPoint.of(F(1)), 2)
    assert double_ratios_exp(e, f, g, g2, range(1, 2)) == [2]


def test_double_ratio_p_out_of_range():
    e, f, g, g2 = (
        flag_curve(ProjPoint.of(F(x)), 2) for x in (2, 3, 5, 7)
    )
    with pytest.raises(ValueError, match="p out of range"):
        double_ratios_exp(e, f, g, g2, [0])
    with pytest.raises(ValueError):
        double_ratios_exp(e, f, g, g2, [2])


def _random_flag(rng, n):
    while True:
        basis = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        try:
            return Flag(basis)
        except ValueError:
            continue


def _scaled(flag, i, factor):
    """Copy of the flag with basis vector i (1-based) rescaled by a
    nonzero integer; Flag would clear a 1/k scaling back out."""
    basis = list(flag.basis)
    basis[i - 1] = tuple(factor * x for x in basis[i - 1])
    return Flag(basis)


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
        tuples = tau_index_tuples(n)
        base = triple_ratios_exp(e, f, g, tuples)
        dbase = double_ratios_exp(*quad, range(1, n))
        for i in range(1, n + 1):
            s = rng.randint(2, 9)
            assert triple_ratios_exp(_scaled(e, i, s), f, g, tuples) == base
            assert triple_ratios_exp(e, _scaled(f, i, -s), g, tuples) == base
        scaled = tuple(_scaled(q, rng.randint(1, n), -7) for q in quad)
        assert double_ratios_exp(*scaled, range(1, n)) == dbase


def test_projective_invariance(rng):
    for _ in range(10):
        n = rng.randint(2, 4)
        while True:
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if linalg.det(m) != 0:
                break
        e, f, g = _random_generic_triple(rng, n)
        tuples = tau_index_tuples(n)
        assert triple_ratios_exp(
            apply_matrix(m, e), apply_matrix(m, f), apply_matrix(m, g), tuples
        ) == triple_ratios_exp(e, f, g, tuples)
        quad = _random_generic_quadruple(rng, n)
        moved = tuple(apply_matrix(m, q) for q in quad)
        assert double_ratios_exp(*moved, range(1, n)) == double_ratios_exp(*quad, range(1, n))


def test_flags_equal_subspacewise():
    f = Flag([(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))])
    # same subspaces, different bases
    g = Flag([(F(2), F(0), F(0)), (F(3), F(5), F(0)), (F(1), F(1), F(1))])
    h = Flag([(F(0), F(1), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(1))])
    assert flags_equal(f, g)
    assert not flags_equal(f, h)


def _wedge(*prefixes):
    """Leibniz determinant of the stacked prefix bases."""
    return leibniz_det([list(v) for prefix in prefixes for v in prefix])


def test_ratios_match_definition(rng):
    # one triple ratio and one double ratio at n = 4, straight from the
    # wedge definitions with the permutation-sum determinant
    n = 4
    e, f, g = _random_generic_triple(rng, n)
    p, q, r = 1, 2, 1

    def x(a, b, c):
        return _wedge(e.prefix(a), f.prefix(b), g.prefix(c))

    expected = F(x(p + 1, q, r - 1) * x(p, q - 1, r + 1) * x(p - 1, q + 1, r),
                 x(p - 1, q, r + 1) * x(p, q + 1, r - 1) * x(p + 1, q - 1, r))
    assert triple_ratios_exp(e, f, g, tau_index_tuples(n))[(p, q, r)] == expected

    a, b, c, d = _random_generic_quadruple(rng, n)
    p = 2

    def y(i, line):
        return _wedge(a.prefix(i), b.prefix(n - i - 1), line.prefix(1))

    expected = -F(y(p, c), y(p, d)) * F(y(p - 1, d), y(p - 1, c))
    assert double_ratios_exp(a, b, c, d, range(1, n))[p - 1] == expected
