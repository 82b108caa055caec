import math
import random
from fractions import Fraction
from functools import partial
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdpants import linalg
from bdpants.coords import (
    CoordinateVector,
    PositivityViolationError,
    assemble_phi,
    boundary_sum_R,
    polytope_check,
    tau_index_tuples,
)
from bdpants.coords import MAX_N
from bdpants.flags import _double_ratios, _triple_ratios, double_ratios_exp, triple_ratios_exp
from bdpants.pants import (
    BOUNDARIES,
    LEAVES,
    TRIANGLES,
    PantsLengths,
    PantsParams,
    ProjPoint,
    boundary_matrix,
    build_rep,
    eigenvalues,
    leaf_quadruple,
    params_from_lengths,
    triangle_vertices,
)
from bdpants.veronese import flag_curve
from bdpants.verify import random_params
from conftest import (
    binomials,
    det_x,
    det_y,
    leaf_points,
    line_coefficients,
    macmahon_x,
    monomial_y,
    sum_y,
    superfactorials,
)

F = Fraction


def _shears(params):
    """The paper's shearing invariant of each leaf, the same for every p."""
    al, be, ga = params.alpha, params.beta, params.gamma
    return {"h_AB": 1 / (be * ga), "h_BC": be / ga, "h_CA": al * al * be * ga}


def test_tau_index_tuples():
    assert tau_index_tuples(2) == []
    assert tau_index_tuples(3) == [(1, 1, 1)]
    assert tau_index_tuples(4) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    for n in range(2, 11):
        assert len(tau_index_tuples(n)) == (n - 1) * (n - 2) // 2


def test_triangle_invariants_trivial_at_sample(sample_params):
    for method in ("generic", "closed_form"):
        for n in (3, 4):
            tau = assemble_phi(n, sample_params, method).tau
            for tri in TRIANGLES:
                assert tau[tri] == {pqr: 1 for pqr in tau_index_tuples(n)}


def test_triangle_invariants_trivial_randomized():
    rng = random.Random(77)
    for _ in range(5):
        params = random_params(rng)
        for n in range(3, 7):
            tau = assemble_phi(n, params, "generic").tau
            for tri in TRIANGLES:
                assert tau[tri] == {pqr: 1 for pqr in tau_index_tuples(n)}


def test_shearing_invariants_at_sample(sample_params):
    # 1/(beta gamma) = beta/gamma = alpha^2 beta gamma = 2 at the sample
    for method in ("generic", "closed_form"):
        sigma = assemble_phi(2, sample_params, method).sigma
        for leaf in LEAVES:
            assert sigma[leaf] == (2,)


def test_shearing_closed_p_independent(sample_params):
    for n in (3, 5, 7):
        sigma = assemble_phi(n, sample_params, "closed_form").sigma
        assert sigma["h_AB"] == (2,) * (n - 1)


def test_shearing_values_randomized():
    rng = random.Random(3)
    for _ in range(5):
        params = random_params(rng)
        al, be, ga = params.alpha, params.beta, params.gamma
        for n in (2, 3, 4):
            sigma = assemble_phi(n, params, "generic").sigma
            assert sigma["h_AB"] == (1 / (be * ga),) * (n - 1)
            assert sigma["h_BC"] == (be / ga,) * (n - 1)
            assert sigma["h_CA"] == (al * al * be * ga,) * (n - 1)


def test_hbc_closed_form_pieces_n2(sample_params):
    # n = 2: Y(1) = beta/(beta+gamma), Y'(1) = 1, Y(0) = gamma/(beta+gamma),
    # Y'(0) = -1, each up to the sign Y(i) and Y'(i) share; Y is scaled
    # by v^(n-1) = v for its point [u : v]
    be, ga = sample_params.beta, sample_params.gamma
    point, fourth = leaf_points(sample_params)["h_BC"]
    v = point[1]
    y = partial(monomial_y, "h_BC", 2, point)
    yprime = partial(monomial_y, "h_BC", 2, fourth)
    assert y(1) == be / (be + ga) * v
    assert yprime(1) == 1
    assert y(0) == ga / (be + ga) * v
    assert yprime(0) == -1


def _form_coefficients(value, bits, degree):
    """The coefficients c_0, ..., c_degree of a binary form
    F(u, v) = sum c_k u^(degree-k) v^k from the integer F(1, 2^bits),
    given every |c_k| < 2^(bits-1): balanced digits in base 2^bits
    (Kronecker substitution)."""
    base = 1 << bits
    coeffs = []
    for _ in range(degree + 1):
        digit = value & (base - 1)
        if digit >= base >> 1:
            digit -= base
        coeffs.append(digit)
        value = (value - digit) >> bits
    assert value == 0
    return coeffs


def test_shearing_monomial_is_the_reference_sum():
    # both sides are binary forms of degree n-1 in (u, v) with integer
    # coefficients of size at most 4^(n-1): C(n-1, i) times a binomial
    # of at most n-1 for the monomial, C(n-1, k) times C(m+k-1, k) with
    # m+k-1 <= n-1 for the sum; so their values at (1, 2^(2n)) are their
    # coefficient vectors, and equal vectors make the identity hold at
    # every point
    for n in range(2, MAX_N + 1):
        bits = 2 * n
        point = (1, 1 << bits)
        reference_line = line_coefficients(n, point)
        for leaf in LEAVES:
            for i in range(n):
                monomial = _form_coefficients(monomial_y(leaf, n, point, i), bits, n - 1)
                reference = _form_coefficients(sum_y(leaf, n, reference_line, i), bits, n - 1)
                assert monomial == reference


def test_monomial_double_ratios_are_the_closed_form():
    # the chain from the monomials to the shears `coords` states, at
    # every rank: the binomials and signs cancel in each double ratio
    for params in (PantsParams(F(5, 2), 2, F(1, 3)),
                   params_from_lengths(PantsLengths(0.5, 3.0, 2.375))):
        shears = _shears(params)
        points = leaf_points(params)
        for n in range(2, MAX_N + 1):
            for leaf in LEAVES:
                y, yprime = (partial(monomial_y, leaf, n, point) for point in points[leaf])
                assert _double_ratios(y, yprime, n, range(1, n)) == [shears[leaf]] * (n - 1)


def test_reference_triangle_factor_ratios_are_one():
    # MacMahon's count is f(a) g(b) h(c) once a + b + c = n, so its
    # triple ratios are the closed form's tau = 1
    for n in (*range(3, 25), MAX_N):
        x = partial(macmahon_x, superfactorials(n))
        tuples = tau_index_tuples(n)
        assert _triple_ratios(x, n, tuples) == dict.fromkeys(tuples, 1)


def test_t1_factor_single_entry():
    # the (1,1,1) factor for n = 3 is a single entry: the two plane
    # partitions in a 1 x 1 x 1 box
    assert macmahon_x(superfactorials(3), 1, 1, 1) == 2
    assert det_x(1, 1, 1) == 2


def test_triangle_factor_is_symmetric():
    # MacMahon's box formula: prod over the box of (i+j+k-1)/(i+j+k-2),
    # against the T0 and T1 Toeplitz determinants
    g = superfactorials(12)
    for total in range(13):
        for a in range(total + 1):
            for b in range(total - a + 1):
                c = total - a - b
                boxes = math.prod(F(i + j + k - 1, i + j + k - 2)
                                  for i in range(1, a + 1)
                                  for j in range(1, b + 1)
                                  for k in range(1, c + 1))
                assert macmahon_x(g, a, b, c) == boxes
                assert det_x(a, b, c) == boxes
                assert linalg.det(binomials(a + b, a, c, c)) == boxes
                assert all(macmahon_x(g, *perm) == boxes for perm in permutations((a, b, c)))


def _sample_triples():
    rng = random.Random(41)
    yield from (random_params(rng) for _ in range(3))
    for lengths in ((1.3, 0.9, 2.1), (0.5, 3.0, 2.375), (3.0, 0.5, 0.5)):
        yield params_from_lengths(PantsLengths(*lengths))


def test_shearing_factors_match_bordered_determinants():
    # each monomial Y and Y' is its bordered determinant times one
    # nonzero factor of (leaf, n, i), shared by Y(i) and Y'(i)
    for params in _sample_triples():
        points = leaf_points(params)
        for n in range(2, 13):
            for leaf in LEAVES:
                third, fourth = points[leaf]
                lines = line_coefficients(n, third), line_coefficients(n, fourth)
                for i in range(n):
                    y, yprime = monomial_y(leaf, n, third, i), monomial_y(leaf, n, fourth, i)
                    ydet, yprime_det = (det_y(leaf, n, w, i) for w in lines)
                    assert 0 not in (y, yprime, ydet, yprime_det)
                    assert y * yprime_det == ydet * yprime


def test_closed_form_takes_no_determinants(monkeypatch, sample_params):
    # every determinant, wedge and flag check runs through the one
    # elimination step, so the closed form must take none of it
    def no_step(pivots, row):
        raise AssertionError("an elimination step was taken")

    monkeypatch.setattr(linalg, "_push", no_step)
    for params in _sample_triples():
        for n in range(2, 11):
            assemble_phi(n, params, "closed_form")
    # the patch is live: the generic path does take elimination steps
    with pytest.raises(AssertionError, match="an elimination step was taken"):
        assemble_phi(2, sample_params, "generic")


def test_closed_form_at_the_cap():
    for params in (PantsParams(F(5, 2), 2, F(1, 3)),
                   params_from_lengths(PantsLengths(0.5, 3.0, 2.375))):
        shears = _shears(params)
        for n in (16, 32, 64):
            coords = assemble_phi(n, params, "closed_form")
            assert coords.sigma == {leaf: (shears[leaf],) * (n - 1) for leaf in LEAVES}
            assert coords.tau == {tri: dict.fromkeys(tau_index_tuples(n), 1)
                                  for tri in TRIANGLES}


def test_leaf_points_match_quadruple():
    for params in _sample_triples():
        points = leaf_points(params)
        for leaf in LEAVES:
            quadruple = leaf_quadruple(params, leaf)
            for point, vertex in zip(points[leaf], quadruple[2:]):
                assert all(type(x) is int for x in point)
                assert ProjPoint(*point) == vertex


def _unit():
    """A rational in (0, 1) with numerator and denominator up to 10^50."""
    return st.builds(lambda a, b: F(min(a, b), max(a, b) + 1),
                     st.integers(1, 10**50), st.integers(1, 10**50))


@settings(deadline=None, max_examples=100)
@given(st.integers(2, 8), _unit(), _unit(), _unit(), st.integers(0, 10**50))
def test_paths_agree_near_domain_edges(n, da, dg, dab, whole):
    # alpha -> 1+, gamma -> 1-, alpha*beta -> 1+ as the unit draws shrink;
    # `whole` moves alpha and alpha*beta away from the edges
    alpha = 1 + whole + da
    gamma = 1 - dg
    beta = (1 + whole + dab) / alpha
    params = PantsParams(alpha, beta, gamma)
    closed = assemble_phi(n, params, "closed_form")
    assert closed == assemble_phi(n, params, "generic")
    shears = _shears(params)
    assert closed.sigma == {leaf: (shears[leaf],) * (n - 1) for leaf in LEAVES}
    assert closed.tau == {tri: dict.fromkeys(tau_index_tuples(n), 1) for tri in TRIANGLES}


def _leaf_flags(n, params, leaf):
    return [flag_curve(x, n) for x in leaf_quadruple(params, leaf)]


def test_index_validation(sample_params):
    e, f, g = [flag_curve(x, 3) for x in triangle_vertices(sample_params, "T0")]
    with pytest.raises(ValueError):
        double_ratios_exp(*_leaf_flags(3, sample_params, "h_BC"), [3])
    with pytest.raises(ValueError):
        double_ratios_exp(*_leaf_flags(3, sample_params, "h_CA"), [0])
    with pytest.raises(ValueError):
        triple_ratios_exp(e, f, g, [(0, 1, 2)])
    with pytest.raises(ValueError):
        double_ratios_exp(*_leaf_flags(4, sample_params, "h_AB"), [4])
    with pytest.raises(ValueError):
        assemble_phi(1, sample_params)


def test_oracle_equivalence_small():
    rng = random.Random(101)
    for _ in range(4):
        params = random_params(rng)
        for n in range(2, 6):
            generic = assemble_phi(n, params, "generic")
            closed = assemble_phi(n, params, "closed_form")
            assert list(generic.labeled_entries()) == list(closed.labeled_entries())


def test_assemble_phi_sample_n2(sample_params):
    coords = assemble_phi(2, sample_params)
    assert len(list(coords.labeled_entries())) == 3
    assert [v for _, v in coords.labeled_entries()] == [F(2), F(2), F(2)]


def test_assemble_phi_sample_n3(sample_params):
    coords = assemble_phi(3, sample_params)
    assert len(list(coords.labeled_entries())) == 8
    values = dict(coords.labeled_entries())
    for leaf in ("hAB", "hBC", "hCA"):
        assert values[f"sigma_{leaf}_p1"] == 2
        assert values[f"sigma_{leaf}_p2"] == 2
    assert values["tau_T0_p1q1r1"] == 1
    assert values["tau_T1_p1q1r1"] == 1


def test_assemble_phi_entry_counts(sample_params):
    for n in range(2, 11):
        assert len(list(assemble_phi(n, sample_params).labeled_entries())) == n * n - 1


def test_assemble_rejects_unknown_method(sample_params):
    with pytest.raises(ValueError):
        assemble_phi(3, sample_params, method="fast")


def test_boundary_sums_at_sample(sample_params):
    coords = assemble_phi(2, sample_params)
    assert boundary_sum_R(coords, "A", 1) == 4  # e^{l_A} with l_A = 2 ln 2
    coords3 = assemble_phi(3, sample_params)
    for p in (1, 2):
        assert boundary_sum_R(coords3, "B", p) == 4


def test_boundary_sums_match_eigen_ratios():
    rng = random.Random(17)
    for _ in range(5):
        params = random_params(rng)
        rep = build_rep(params)
        for n in (2, 3, 4, 5):
            coords = assemble_phi(n, params, "generic")
            for boundary in BOUNDARIES:
                lam = eigenvalues(boundary_matrix(rep, boundary))[0]
                for p in range(1, n):
                    assert boundary_sum_R(coords, boundary, p) == lam ** 2


def test_rotation_relation(sample_params):
    # tau_pqr at a vertex equals tau_qrp at the next clockwise vertex
    rng = random.Random(23)
    for params in (sample_params, random_params(rng)):
        for n in (3, 4, 5):
            tuples = tau_index_tuples(n)
            for tri in TRIANGLES:
                e, f, g = [flag_curve(x, n) for x in triangle_vertices(params, tri)]
                t = triple_ratios_exp(e, f, g, tuples)
                rot1 = triple_ratios_exp(f, g, e, tuples)
                rot2 = triple_ratios_exp(g, e, f, tuples)
                for (p, q, r) in tuples:
                    assert t[(p, q, r)] == rot1[(q, r, p)] == rot2[(r, p, q)]


def test_triangle_constancy():
    rng = random.Random(29)
    for _ in range(4):
        params = random_params(rng)
        for n in (3, 4, 5):
            tau = assemble_phi(n, params, "generic").tau
            assert tau["T0"] == tau["T1"]


def test_polytope_check_passes(sample_params):
    coords = assemble_phi(3, sample_params)
    assert polytope_check(coords) == {"length_positivity": True}


def test_polytope_check_flags_flat_sigma(sample_params):
    coords = assemble_phi(3, sample_params)
    flat = CoordinateVector(
        n=3,
        sigma={leaf: (F(1), F(1)) for leaf in LEAVES},
        tau=coords.tau,
    )
    assert polytope_check(flat)["length_positivity"] is False


def test_positivity_guard_trips_on_bad_factor(sample_params, monkeypatch):
    import bdpants.coords as coords_mod

    # a sign slip in a double ratio must be caught at assembly: the
    # closed form has no factor left to slip, so slip a generic one
    def slipped(*args):
        ratios = double_ratios_exp(*args)
        ratios[0] = -ratios[0]
        return ratios

    monkeypatch.setattr(coords_mod, "double_ratios_exp", slipped)
    with pytest.raises(PositivityViolationError, match="positivity violation"):
        assemble_phi(3, sample_params, "generic")


def test_generic_path_builds_each_flag_once(sample_params, monkeypatch):
    import bdpants.coords as coords_mod

    # the 18 vertices of the three leaf quadruples and two triangles are
    # six boundary points
    calls = []

    def recording(x, n):
        calls.append((x, n))
        return flag_curve(x, n)

    monkeypatch.setattr(coords_mod, "flag_curve", recording)
    assemble_phi(5, sample_params, "generic")
    assert len(calls) == len(set(calls)) == 6


def test_float_backend_matches_logs():
    lengths_log = (2 * math.log(2), 2 * math.log(2), 2 * math.log(2))
    params = PantsParams(
        math.exp(lengths_log[0] / 2),
        math.exp((lengths_log[2] - lengths_log[0]) / 2),
        math.exp(-lengths_log[1] / 2),
    )
    coords = assemble_phi(3, params)
    for label, value in coords.labeled_entries():
        if label.startswith("sigma"):
            assert math.log(value) == pytest.approx(math.log(2), abs=1e-12)
        else:
            assert math.log(value) == pytest.approx(0.0, abs=1e-12)
