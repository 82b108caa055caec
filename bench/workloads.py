"""The three benchmark workloads: seeded inputs, the bdpants argument list
for one operation, and an output check computed apart from bdpants.

Every check uses only the standard library.  On the Fuchsian locus every
shearing invariant equals the classical n = 2 shear and every triangle
invariant is 0 (exponentiated: 1), so the expected coordinates follow
from the parameters in a line each:

    sigma(h_AB) = 1/(beta*gamma),  log = (lA + lB - lC)/2
    sigma(h_BC) = beta/gamma,      log = (lB + lC - lA)/2
    sigma(h_CA) = alpha^2*beta*gamma, log = (lC + lA - lB)/2
    tau = 1,                        log = 0

A check returns None when the output is right and a one-line reason
when it is not.
"""

import csv
import json
import math
import random
from fractions import Fraction

LEAVES = ("h_AB", "h_BC", "h_CA")
TRIANGLES = ("T0", "T1")
# Tolerance for float logs that the bdpants README states.
FLOAT_TOL = 1e-6


def _pqr(n):
    """Index triples p, q, r >= 1 with p + q + r = n, lexicographic."""
    return [(p, q, n - p - q) for p in range(1, n - 1) for q in range(1, n - p)]


# ---------------------------------------------------------------------------
# coords-exact: one exact coordinate query at n = 10

COORDS_N = 10
COORDS_ROUND = 50


def _ratio(rng, low, high):
    """A fraction a/b with 1 <= a, b <= 12 and low < a/b < high."""
    while True:
        value = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        if low < value < high:
            return value


def coords_round(seed):
    """Rational triples alpha > 1, beta > 0, 0 < gamma < 1 with
    alpha*beta > 1, numerators and denominators at most 12."""
    rng = random.Random(f"coords-exact/{seed}")
    triples = []
    for _ in range(COORDS_ROUND):
        alpha = _ratio(rng, 1, math.inf)
        gamma = _ratio(rng, 0, 1)
        beta = _ratio(rng, 1 / alpha, math.inf)
        triples.append((alpha, beta, gamma))
    return triples


def coords_argv(triple):
    abc = ",".join(str(x) for x in triple)
    return ["coords", "--n", str(COORDS_N), "--abc", abc, "--mode", "exact",
            "--format", "json"]


def classical_shears_exact(alpha, beta, gamma):
    return {
        "h_AB": 1 / (beta * gamma),
        "h_BC": beta / gamma,
        "h_CA": alpha * alpha * beta * gamma,
    }


def check_coords(triple, code, out, err):
    if code != 0:
        return f"exit {code}: {err.strip()}"
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    n = COORDS_N
    alpha, beta, gamma = triple
    if doc.get("n") != n or doc.get("mode") != "exact":
        return "wrong n or mode"
    if doc.get("params") != {"alpha": str(alpha), "beta": str(beta), "gamma": str(gamma)}:
        return f"params echo {doc.get('params')}"
    coordinates = doc.get("coordinates", {})
    sigma = coordinates.get("sigma", {})
    tau = coordinates.get("tau", {})
    if sorted(sigma) != sorted(LEAVES) or sorted(tau) != sorted(TRIANGLES):
        return "wrong leaves or triangles"
    count = 0
    for leaf, expected in classical_shears_exact(alpha, beta, gamma).items():
        entries = sigma[leaf]
        if [e.get("p") for e in entries] != list(range(1, n)):
            return f"sigma {leaf}: wrong p list"
        for e in entries:
            if Fraction(e["exp"]) != expected:
                return f"sigma {leaf} p={e['p']}: exp {e['exp']} != {expected}"
            if abs(e["log"] - math.log(expected)) > 1e-9:
                return f"sigma {leaf} p={e['p']}: log {e['log']}"
            count += 1
    keys = [f"{p},{q},{r}" for p, q, r in _pqr(n)]
    for tri in TRIANGLES:
        if sorted(tau[tri]) != sorted(keys):
            return f"tau {tri}: wrong index triples"
        for key, e in tau[tri].items():
            if Fraction(e["exp"]) != 1 or e["log"] != 0:
                return f"tau {tri} {key}: exp {e['exp']} log {e['log']}"
            count += 1
    if count != n * n - 1:
        return f"{count} entries, expected {n * n - 1}"
    checks = doc.get("checks")
    if not checks or not all(v is True for v in checks.values()):
        return f"checks {checks}"
    return None


# ---------------------------------------------------------------------------
# sweep-float: one grid point of the README sweep at n = 10

SWEEP_N = 10
# The README grid lA, lB, lC in 0.5:3.0:5; every value is a binary float.
SWEEP_AXIS = (0.5, 1.125, 1.75, 2.375, 3.0)
# Points whose float determinants lose digits at n = 10: the row exits 0
# with every `checks` field true but a log off by 5.3e-6 to 1.9e-3.
# They fail on every run and are counted as failed operations.
FLOAT_FAULT_POINTS = frozenset({
    (0.5, 2.375, 3.0),
    (0.5, 3.0, 2.375),
    (0.5, 3.0, 3.0),
    (1.125, 3.0, 3.0),
})


def sweep_round(seed):
    """The 125 points of the README grid, in a seeded order."""
    points = [(a, b, c) for a in SWEEP_AXIS for b in SWEEP_AXIS for c in SWEEP_AXIS]
    random.Random(f"sweep-float/{seed}").shuffle(points)
    return points


def sweep_argv(point):
    grid = ",".join(f"{axis}:{v!r}:{v!r}:1" for axis, v in zip(("lA", "lB", "lC"), point))
    return ["sweep", "--n", str(SWEEP_N), "--grid", grid]


def sweep_header(n):
    header = ["lA", "lB", "lC", "alpha", "beta", "gamma"]
    header += [f"sigma_{leaf.replace('_', '')}_p{p}" for leaf in LEAVES for p in range(1, n)]
    header += [f"tau_{tri}_p{p}q{q}r{r}" for tri in TRIANGLES for p, q, r in _pqr(n)]
    return header


def check_sweep(point, code, out, err):
    if code != 0:
        return f"exit {code}: {err.strip()}"
    rows = list(csv.reader(out.splitlines()))
    if len(rows) != 2 or rows[0] != sweep_header(SWEEP_N):
        return "wrong header or row count"
    try:
        row = dict(zip(rows[0], (float(x) for x in rows[1])))
    except ValueError as exc:
        return f"non-numeric cell: {exc}"
    la, lb, lc = point
    if (row["lA"], row["lB"], row["lC"]) != point:
        return "lengths echo"
    for name, value in (("alpha", math.exp(la / 2)), ("beta", math.exp((lc - la) / 2)),
                        ("gamma", math.exp(-lb / 2))):
        if abs(row[name] - value) > 1e-12 * value:
            return f"{name} {row[name]} != {value}"
    shear = {"hAB": (la + lb - lc) / 2, "hBC": (lb + lc - la) / 2, "hCA": (lc + la - lb) / 2}
    worst, where = 0.0, None
    for name, value in row.items():
        if name.startswith("sigma_"):
            error = abs(value - shear[name.split("_")[1]])
        elif name.startswith("tau_"):
            error = abs(value)
        else:
            continue
        if not error <= worst:
            worst, where = error, name
    if worst > FLOAT_TOL:
        return f"coordinate off: {where} by {worst:.3g} in log"
    return None


def sweep_known_fault(point, reason):
    return point in FLOAT_FAULT_POINTS and reason.startswith("coordinate off")


# ---------------------------------------------------------------------------
# verify-exact: one randomized identity sweep, exact, max n 5

VERIFY_MAX_N = 5
VERIFY_SAMPLES = 1
VERIFY_ROUND = 60


def verify_round(seed):
    """Seeds for `bdpants verify --seed`."""
    rng = random.Random(f"verify-exact/{seed}")
    return [rng.randrange(1_000_000) for _ in range(VERIFY_ROUND)]


def verify_argv(verify_seed):
    return ["verify", "--mode", "exact", "--max-n", str(VERIFY_MAX_N),
            "--samples", str(VERIFY_SAMPLES), "--seed", str(verify_seed)]


def verify_expected_counts(samples, max_n):
    """Checks each category must run, from the sweep's definition:
    per sample, per n in 2..max_n, with T(n) = (n-1)(n-2)/2 triangle
    index triples (a category with none records one trivial pass)."""
    per_n = {
        "equivariance": lambda n: 3 * 2,  # three generators, two points
        "stable_flag": lambda n: 3,
        "genericity": lambda n: 3 + 2,  # three leaves, two triangles
        "triple_ratio_symmetry": lambda n: max(1, (n - 1) * (n - 2) // 2),
        "triangle_rotation": lambda n: max(1, (n - 1) * (n - 2)),
        "triangle_constancy": lambda n: (n - 1) * (n - 2) // 2,
        "oracle_equivalence": lambda n: n * n - 1,
        "length_identity": lambda n: 3 * (n - 1),
        "positivity": lambda n: n * n - 1 + 3 * (n - 1),
    }
    counts = {"domain_inequalities": samples, "group_relation": samples,
              "fixed_point_formulas": samples}
    for name, f in per_n.items():
        counts[name] = samples * sum(f(n) for n in range(2, max_n + 1))
    return counts


VERIFY_CATEGORIES = (
    "domain_inequalities", "group_relation", "fixed_point_formulas", "equivariance",
    "stable_flag", "genericity", "triple_ratio_symmetry", "triangle_rotation",
    "triangle_constancy", "oracle_equivalence", "length_identity", "positivity",
)


def check_verify(verify_seed, code, out, err):
    if code != 0:
        return f"exit {code}: {err.strip()} {out.strip()[-200:]}"
    lines = out.splitlines()
    expected = verify_expected_counts(VERIFY_SAMPLES, VERIFY_MAX_N)
    if len(lines) != len(VERIFY_CATEGORIES) + 1:
        return f"{len(lines)} lines"
    for name, line in zip(VERIFY_CATEGORIES, lines):
        want = expected[name]
        if line.split() != [name, f"{want}/{want}"]:
            return f"category line {line!r}, expected {want}/{want}"
    if not lines[-1].startswith("VERIFY PASS "):
        return f"summary {lines[-1]!r}"
    return None


# ---------------------------------------------------------------------------

class Workload:
    def __init__(self, name, make_round, argv, check, known_fault=None):
        self.name = name
        self.make_round = make_round
        self.argv = argv
        self.check = check
        self.known_fault = known_fault or (lambda item, reason: False)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("coords-exact", coords_round, coords_argv, check_coords),
        Workload("sweep-float", sweep_round, sweep_argv, check_sweep, sweep_known_fault),
        Workload("verify-exact", verify_round, verify_argv, check_verify),
    )
}
