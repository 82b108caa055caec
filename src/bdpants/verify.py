"""Randomized verification sweep over the whole coordinate pipeline.

Runs, per seeded random parameter triple and per rank n, every
structural identity the computation relies on: the parameter-domain
inequalities, the group relation, the fixed-point formulas, the
equivariance and stable-flag properties of the boundary flag map,
genericity of the boundary flags, the symmetry relations of triple
ratios, rotation and constancy of the triangle invariants, exact
agreement of the generic and closed-form paths, the boundary length
identity against the eigenvalue ratios, and positivity.

Every comparison is exact equality of rationals.  Exact mode draws
rational parameter triples; float mode draws random boundary lengths
and checks the parameters derived from them (exact dyadic rationals,
see `bdpants.pants.params_from_lengths`) in exactly the same way.
Results are grouped into named categories with the first
counterexample retained verbatim.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import cache, partial

from .coords import assemble_phi, boundary_sum_R, tau_index_tuples
from .flags import Flag, _cleared, apply_matrix, flags_equal, is_generic, triple_ratios_exp
from .pants import (
    BOUNDARIES,
    LEAVES,
    TRIANGLES,
    DomainError,
    PantsLengths,
    PantsParams,
    ProjPoint,
    SL2Mat,
    boundary_matrix,
    build_rep,
    eigenvalues,
    fixed_points,
    leaf_quadruple,
    mobius_apply,
    params_from_lengths,
    triangle_vertices,
    validate_params,
)
from .veronese import flag_curve, stable_flag, sym_power

CHECK_NAMES = (
    "domain_inequalities",
    "group_relation",
    "fixed_point_formulas",
    "equivariance",
    "stable_flag",
    "genericity",
    "triple_ratio_symmetry",
    "triangle_rotation",
    "triangle_constancy",
    "oracle_equivalence",
    "length_identity",
    "positivity",
)


# the largest max_n accepted: verify runs the generic path and the flag
# checks at every rank up to it; at 12, about 19 s for 25 exact samples
# and 15 s per float sample (2-core machine, Python 3.11.7)
VERIFY_MAX_N = 12


class VerifyConfig(namedtuple("VerifyConfig", "samples seed max_n exact")):
    __slots__ = ()

    def __new__(cls, samples: int = 25, seed: int = 42, max_n: int = 5, exact: bool = True):
        if samples < 1:
            raise ValueError(f"need at least one sample, got {samples}")
        if not 2 <= max_n <= VERIFY_MAX_N:
            raise ValueError(f"need 2 <= max_n <= {VERIFY_MAX_N}, got {max_n}")
        if seed < 0:
            raise ValueError(f"need seed >= 0, got {seed}")
        return super().__new__(cls, samples, seed, max_n, exact)


class CheckResult:
    def __init__(self, name: str):
        self.name = name
        self.passed = 0
        self.failed = 0
        self.first_failure = None

    def record(self, ok: bool, message: str = ""):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = message


# ---------------------------------------------------------------------------
# random sources (all driven by one seeded Random, so runs are reproducible)

def random_params(rng: random.Random, exact: bool = True) -> PantsParams:
    """A parameter triple in the full admissible domain.

    Exact: alpha > 1, 0 < gamma < 1, beta > 0 with small numerators and
    denominators, resampling beta until alpha*beta > 1 (the remaining
    domain inequality; it always holds for length-derived parameters and
    the boundary length identity needs it).  Otherwise: the parameters
    of random boundary lengths in [0.4, 3.2].
    """
    if not exact:
        lengths = PantsLengths(
            lA=rng.uniform(0.4, 3.2),
            lB=rng.uniform(0.4, 3.2),
            lC=rng.uniform(0.4, 3.2),
        )
        return params_from_lengths(lengths)
    alpha = 1 + Fraction(rng.randint(1, 12), rng.randint(1, 12))
    den = rng.randint(2, 12)
    gamma = Fraction(rng.randint(1, den - 1), den)
    while True:
        beta = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        if alpha * beta > 1:
            break
    params = PantsParams(alpha, beta, gamma)
    validate_params(params)
    return params


def random_point(rng: random.Random) -> ProjPoint:
    if rng.random() < 0.1:
        return ProjPoint.infinity()
    return ProjPoint(rng.randint(-24, 24), rng.randint(1, 8))


def random_flag(rng: random.Random, n: int) -> Flag:
    while True:
        basis = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        try:
            return Flag(basis)
        except ValueError:
            continue


def random_generic_triple(rng: random.Random, n: int):
    while True:
        triple = tuple(random_flag(rng, n) for _ in range(3))
        if is_generic(triple):
            return triple


# ---------------------------------------------------------------------------
# the sweep

def _fmt_params(params: PantsParams) -> str:
    return f"(alpha={params.alpha}, beta={params.beta}, gamma={params.gamma})"


def run_verification(config: VerifyConfig) -> dict:
    """Run all categories; returns {name: CheckResult} in report order."""
    rng = random.Random(config.seed)
    results = {name: CheckResult(name) for name in CHECK_NAMES}
    ns = range(2, config.max_n + 1)

    for _ in range(config.samples):
        params = random_params(rng, exact=config.exact)
        ctx = _fmt_params(params)
        rep = build_rep(params)

        _check_in_domain(results["domain_inequalities"], params, ctx)
        _check_group_relation(results["group_relation"], rep, ctx)
        _check_fixed_points(results["fixed_point_formulas"], params, rep, ctx)
        # every consecutive eigenvalue ratio of the symmetric power of an
        # element with leading eigenvalue lam is lam^2, at every rank
        ratios = {b: eigenvalues(boundary_matrix(rep, b))[0] ** 2 for b in BOUNDARIES}

        for n in ns:
            nctx = f"n={n} params={ctx}"
            # each boundary point's flag is built once per sample and rank;
            # no check compares two flags of the same point
            curve = cache(partial(flag_curve, n=n))
            _check_equivariance(results["equivariance"], rep, n, curve, rng, nctx)
            _check_stable_flag(results["stable_flag"], rep, n, curve, nctx)
            _check_genericity(results["genericity"], params, curve, nctx)
            _check_triple_symmetry(results["triple_ratio_symmetry"], rng, n, nctx)

            generic = assemble_phi(n, params, "generic")
            closed = assemble_phi(n, params, "closed_form")
            _check_rotation(results["triangle_rotation"], params, n, curve, generic, nctx)
            _check_constancy(results["triangle_constancy"], generic, nctx)
            _check_oracle(results["oracle_equivalence"], generic, closed, nctx)
            _check_lengths(results["length_identity"], generic, ratios, n, nctx)
            _check_positivity(results["positivity"], generic, nctx)

    return results


def all_passed(results: dict) -> bool:
    return all(r.failed == 0 for r in results.values())


def _check_in_domain(result, params, ctx):
    try:
        validate_params(params)
    except DomainError as exc:
        result.record(False, f"params={ctx}: {exc}")
    else:
        result.record(True)


def _check_group_relation(result, rep, ctx):
    prod = rep.a.mul(rep.b).mul(rep.c)
    ok = prod.a == 1 and prod.d == 1 and prod.b == 0 and prod.c == 0
    result.record(ok, f"params={ctx}: a*b*c = {prod}")


def _check_fixed_points(result, params, rep, ctx):
    al, be, ga = params.alpha, params.beta, params.gamma
    att_a, rep_a = fixed_points(rep.a)
    att_b, rep_b = fixed_points(rep.b)
    att_c, rep_c = fixed_points(rep.c)
    formula_a = ProjPoint(al * al * be * ga + 1, 1 - al * al)
    formula_b = ProjPoint(ga - 1 / ga, -1 / be - 1 / ga)
    formula_c = ProjPoint(al * be + 1 / (al * ga), 1 / (al * ga) + 1 / (al * be))
    checks = [
        att_a == ProjPoint.infinity(),
        rep_a == formula_a,
        att_b == ProjPoint.of(0),
        rep_b == formula_b,
        att_c == ProjPoint.of(1),
        rep_c == formula_c,
        # circular ordering of the repelling points
        rep_a.value() < 0,
        0 < rep_b.value() < 1,
        rep_c.value() > 1,
    ]
    result.record(
        all(checks),
        f"params={ctx}: fixed-point checks {checks}",
    )


def _integer_multiple(m: SL2Mat) -> SL2Mat:
    """D m as ints, with D the LCM of the entries' denominators.  Not in
    SL_2, but its symmetric power D^(n-1) sym_power(m) moves every flag
    exactly as sym_power(m) does, and has int entries."""
    return SL2Mat(*_cleared((m.a, m.b, m.c, m.d)))


def _check_equivariance(result, rep, n, curve, rng, ctx):
    points = [random_point(rng) for _ in range(2)]
    for mat in (rep.a, rep.b, rep.c):
        power = sym_power(_integer_multiple(mat), n)
        for x in points:
            lhs = apply_matrix(power, curve(x))
            rhs = curve(mobius_apply(mat, x))
            ok = flags_equal(lhs, rhs)
            result.record(ok, f"{ctx} point={x}: equivariance fails")
            if not ok:
                return


def _check_stable_flag(result, rep, n, curve, ctx):
    for name, mat in (("a", rep.a), ("b", rep.b), ("c", rep.c)):
        att, _ = fixed_points(mat)
        ok = flags_equal(curve(att), stable_flag(mat, n))
        result.record(ok, f"{ctx} generator {name}: stable flag mismatch")


def _check_genericity(result, params, curve, ctx):
    for leaf in LEAVES:
        flags = [curve(x) for x in leaf_quadruple(params, leaf)]
        result.record(is_generic(flags), f"{ctx} leaf {leaf}: quadruple not generic")
    for tri in TRIANGLES:
        flags = [curve(x) for x in triangle_vertices(params, tri)]
        result.record(is_generic(flags), f"{ctx} triangle {tri}: triple not generic")


def _check_triple_symmetry(result, rng, n, ctx):
    e, f, g = random_generic_triple(rng, n)
    tuples = tau_index_tuples(n)
    if not tuples:
        result.record(True)
        return
    # the tuple list is closed under permuting (p, q, r)
    t_efg = triple_ratios_exp(e, f, g, tuples)
    t_fge = triple_ratios_exp(f, g, e, tuples)
    t_feg = triple_ratios_exp(f, e, g, tuples)
    for (p, q, r) in tuples:
        cyclic = t_efg[(p, q, r)] == t_fge[(q, r, p)]
        inverse = t_efg[(p, q, r)] * t_feg[(q, p, r)] == 1
        result.record(
            cyclic and inverse,
            f"{ctx} (p,q,r)=({p},{q},{r}): triple-ratio symmetry fails",
        )


def _check_rotation(result, params, n, curve, generic, ctx):
    tuples = tau_index_tuples(n)
    if not tuples:
        result.record(True)
        return
    for tri in TRIANGLES:
        e, f, g = [curve(x) for x in triangle_vertices(params, tri)]
        base = generic.tau[tri]
        rot1 = triple_ratios_exp(f, g, e, [(q, r, p) for (p, q, r) in tuples])
        rot2 = triple_ratios_exp(g, e, f, [(r, p, q) for (p, q, r) in tuples])
        for (p, q, r) in tuples:
            ok = base[(p, q, r)] == rot1[(q, r, p)] == rot2[(r, p, q)]
            result.record(
                ok, f"{ctx} {tri} (p,q,r)=({p},{q},{r}): rotation relation fails"
            )


def _check_constancy(result, coords, ctx):
    for pqr, value in coords.tau["T0"].items():
        ok = value == coords.tau["T1"][pqr]
        result.record(
            ok,
            f"{ctx} (p,q,r)={pqr}: tau T0 = {value} differs from T1 = {coords.tau['T1'][pqr]}",
        )


def _check_oracle(result, generic, closed, ctx):
    for (label_g, value_g), (label_c, value_c) in zip(
        generic.labeled_entries(), closed.labeled_entries()
    ):
        ok = label_g == label_c and value_g == value_c
        result.record(
            ok, f"{ctx} {label_g}: generic {value_g} != closed-form {value_c}"
        )


def _check_lengths(result, coords, ratios, n, ctx):
    for boundary in BOUNDARIES:
        ratio = ratios[boundary]
        for p in range(1, n):
            lhs = boundary_sum_R(coords, boundary, p)
            result.record(
                lhs == ratio,
                f"{ctx} boundary {boundary} p={p}: R_p = {lhs} != {ratio}",
            )


def _check_positivity(result, coords, ctx):
    for label, value in coords.labeled_entries():
        result.record(value > 0, f"{ctx} {label} = {value} not positive")
    for boundary in BOUNDARIES:
        for p in range(1, coords.n):
            value = boundary_sum_R(coords, boundary, p)
            result.record(
                value > 1,
                f"{ctx} boundary {boundary} p={p}: R_p = {value} not above 1",
            )
