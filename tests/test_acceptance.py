"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Exact-backend criteria compare rationals with no tolerance; the
float-grid criteria pin their stated tolerances."""

import math
import random
import time
from fractions import Fraction

from bdpants.coords import (
    assemble_phi,
    boundary_sum_R,
    tau_index_tuples,
)
from bdpants.flags import (
    apply_matrix,
    flags_equal,
    triple_ratios_exp,
)
from bdpants.pants import (
    BOUNDARIES,
    TRIANGLES,
    PantsLengths,
    PantsParams,
    ProjPoint,
    SL2Mat,
    boundary_matrix,
    build_rep,
    eigenvalues,
    fixed_points,
    mobius_apply,
    params_from_lengths,
    triangle_vertices,
)
from bdpants.veronese import flag_curve, stable_flag, sym_power
from bdpants.verify import random_generic_triple, random_params

F = Fraction
SAMPLE = (F(2), F(1), F(1, 2))
GRID = [0.5 + 2.5 * i / 4 for i in range(5)]  # 5 points spanning [0.5, 3.0]


def _report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_oracle_equivalence():
    """Closed forms equal wedge-determinant values exactly, n = 2..7."""
    rng = random.Random(42)
    start = time.time()
    failures = []
    checked = 0
    for _ in range(25):
        params = random_params(rng)
        for n in range(2, 8):
            generic = assemble_phi(n, params, "generic")
            closed = assemble_phi(n, params, "closed_form")
            for (lg, vg), (lc, vc) in zip(
                generic.labeled_entries(), closed.labeled_entries()
            ):
                checked += 1
                if lg != lc or vg != vc:
                    failures.append((n, params, lg, vg, vc))
    elapsed = time.time() - start
    ok = not failures and elapsed < 60.0
    _report(
        1,
        ok,
        f"{checked} exact comparisons over 25 samples, n=2..7, in {elapsed:.1f}s"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_2_classical_shear():
    """n = 2 shearing logs equal the half length sums within 1e-10."""
    worst = 0.0
    for la in GRID:
        for lb in GRID:
            for lc in GRID:
                params = params_from_lengths(PantsLengths(la, lb, lc))
                coords = assemble_phi(2, params)
                expected = {
                    "h_AB": (la + lb - lc) / 2,
                    "h_BC": (lb + lc - la) / 2,
                    "h_CA": (lc + la - lb) / 2,
                }
                for leaf, target in expected.items():
                    got = math.log(coords.sigma[leaf][0])
                    worst = max(worst, abs(got - target))
    center = params_from_lengths(
        PantsLengths(2 * math.log(2), 2 * math.log(2), 2 * math.log(2))
    )
    coords = assemble_phi(2, center)
    center_dev = max(
        abs(math.log(coords.sigma[leaf][0]) - math.log(2))
        for leaf in ("h_AB", "h_BC", "h_CA")
    )
    ok = worst <= 1e-10 and center_dev <= 1e-10
    _report(
        2,
        ok,
        f"5x5x5 grid in [0.5, 3.0]: worst deviation {worst:.2e}; "
        f"symmetric point deviation {center_dev:.2e} (tolerance 1e-10)",
    )


def test_criterion_3_triangle_invariants_vanish():
    """Both triangles carry exponentiated invariant exactly 1, n = 3..7."""
    rng = random.Random(1042)
    failures = []
    checked = 0
    for _ in range(10):
        params = random_params(rng)
        for n in range(3, 8):
            coords = assemble_phi(n, params, "generic")
            for tri in TRIANGLES:
                for pqr, value in coords.tau[tri].items():
                    checked += 1
                    if value != 1:
                        failures.append((n, params, tri, pqr, value))
    _report(
        3,
        not failures,
        f"{checked} triangle invariants exactly 1 over 10 samples, n=3..7"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_4_length_identity():
    """Exponentiated R_p equals the eigenvalue ratio exactly, n = 2..7."""
    rng = random.Random(2042)
    failures = []
    checked = 0
    sample = None
    for index in range(10):
        params = random_params(rng) if index else PantsParams(*SAMPLE)
        rep = build_rep(params)
        for n in range(2, 8):
            coords = assemble_phi(n, params, "generic")
            for boundary in BOUNDARIES:
                ratio = eigenvalues(boundary_matrix(rep, boundary))[0] ** 2
                for p in range(1, n):
                    checked += 1
                    got = boundary_sum_R(coords, boundary, p)
                    if got != ratio:
                        failures.append((n, params, boundary, p, got, ratio))
                    if index == 0 and got != 4:
                        failures.append(("sample", n, boundary, p, got))
    _report(
        4,
        not failures,
        f"{checked} exact length identities over 10 samples, n=2..7 "
        f"(sample point value 4 everywhere)"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_5_positivity():
    """All entries and boundary sums clear their bounds, 100 samples, n <= 6."""
    rng = random.Random(3042)
    failures = []
    checked = 0
    for _ in range(100):
        params = random_params(rng)
        for n in range(2, 7):
            coords = assemble_phi(n, params, "closed_form")
            for label, value in coords.labeled_entries():
                checked += 1
                if not value > 0:
                    failures.append((n, params, label, value))
            for boundary in BOUNDARIES:
                for p in range(1, n):
                    checked += 1
                    if not boundary_sum_R(coords, boundary, p) > 1:
                        failures.append((n, params, boundary, p))
    _report(
        5,
        not failures,
        f"{checked} positivity bounds over 100 seeded samples, n=2..6"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_6_structural_relations():
    """Triple-ratio symmetries, rotation, equivariance, stable flags: exact."""
    rng = random.Random(4042)
    failures = []
    checked = 0
    # symmetry and inversion on 50 random generic flag triples
    for _ in range(50):
        n = rng.randint(3, 6)
        e, f, g = random_generic_triple(rng, n)
        tuples = tau_index_tuples(n)
        t = triple_ratios_exp(e, f, g, tuples)
        cyclic = triple_ratios_exp(f, g, e, tuples)
        swapped = triple_ratios_exp(f, e, g, tuples)
        for (p, q, r) in tuples:
            checked += 2
            if t[(p, q, r)] != cyclic[(q, r, p)]:
                failures.append(("cyclic", n, (p, q, r)))
            if t[(p, q, r)] * swapped[(q, p, r)] != 1:
                failures.append(("inverse", n, (p, q, r)))
    # rotation, equivariance and stable flags on the pants generators
    for _ in range(5):
        params = random_params(rng)
        rep = build_rep(params)
        for n in range(2, 7):
            tuples = tau_index_tuples(n)
            for tri in TRIANGLES:
                e, f, g = [flag_curve(x, n) for x in triangle_vertices(params, tri)]
                t = triple_ratios_exp(e, f, g, tuples)
                rotated = triple_ratios_exp(f, g, e, tuples)
                for (p, q, r) in tuples:
                    checked += 1
                    if t[(p, q, r)] != rotated[(q, r, p)]:
                        failures.append(("rotation", n, tri, (p, q, r)))
            points = [
                ProjPoint.infinity(),
                ProjPoint.of(F(0)),
                ProjPoint.of(F(rng.randint(2, 9), rng.randint(1, 4))),
            ]
            for mat in (rep.a, rep.b, rep.c):
                power = sym_power(mat, n)
                for x in points:
                    checked += 1
                    if not flags_equal(
                        apply_matrix(power, flag_curve(x, n)),
                        flag_curve(mobius_apply(mat, x), n),
                    ):
                        failures.append(("equivariance", n, params))
                att, _ = fixed_points(mat)
                checked += 1
                if not flags_equal(flag_curve(att, n), stable_flag(mat, n)):
                    failures.append(("stable_flag", n, params))
    _report(
        6,
        not failures,
        f"{checked} structural checks (50 random generic triples + 5 parameter "
        f"samples, n<=6)" + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_7_dimension():
    """The coordinate vector has exactly n^2 - 1 entries, n = 2..10."""
    params = PantsParams(*SAMPLE)
    counts = {n: len(list(assemble_phi(n, params).labeled_entries())) for n in range(2, 11)}
    ok = all(count == n * n - 1 for n, count in counts.items())
    _report(7, ok, f"entry counts {counts}")


def test_criterion_8_representation_consistency():
    """Group relation, fixed-point formulas, trace-length relation."""
    rng = random.Random(5042)
    failures = []
    identity = SL2Mat(F(1), F(0), F(0), F(1))
    for index in range(20):
        params = PantsParams(*SAMPLE) if index == 0 else random_params(rng)
        rep = build_rep(params)
        if rep.a.mul(rep.b).mul(rep.c) != identity:
            failures.append(("abc", params))
        al, be, ga = params.alpha, params.beta, params.gamma
        att_a, rep_a = fixed_points(rep.a)
        att_b, rep_b = fixed_points(rep.b)
        att_c, rep_c = fixed_points(rep.c)
        if not (
            att_a.is_infinity
            and rep_a == ProjPoint(al * al * be * ga + 1, 1 - al * al)
            and att_b == ProjPoint.of(0 * al)
            and rep_b == ProjPoint(ga - 1 / ga, -1 / be - 1 / ga)
            and att_c == ProjPoint.of(F(1))
            and rep_c == ProjPoint(al * be + 1 / (al * ga), 1 / (al * ga) + 1 / (al * be))
        ):
            failures.append(("fixed_points", params))
    worst = 0.0
    for la in GRID:
        for lb in GRID:
            for lc in GRID:
                rep = build_rep(params_from_lengths(PantsLengths(la, lb, lc)))
                worst = max(
                    worst, abs(abs(rep.c.trace()) - 2 * math.cosh(lc / 2))
                )
    if worst > 1e-10:
        failures.append(("trace_length", worst))
    _report(
        8,
        not failures,
        f"20 exact representation checks + trace-length over the 5x5x5 grid "
        f"(worst deviation {worst:.2e}, tolerance 1e-10)"
        + (f"; first failure {failures[0]}" if failures else ""),
    )
