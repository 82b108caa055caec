"""Benchmark of bdpants: end-to-end metrics of one workload, or, with
--trace 1, per-layer metrics from a traced run.

    python3 bench/run.py --workload coords-exact --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from anywhere; it imports bdpants from the `src` directory next
to this one and nothing else.  Every operation is one in-process call of
`bdpants.cli.main(argv)` with its output captured in memory and checked
by `workloads` against values computed apart from bdpants.  The run
repeats whole rounds of the workload's seeded inputs until it has spent
--seconds of operation time at the reference loop's nominal speed (the
round boundary nearest to that); a round holds at least 40 operations.
Between operations it runs the reference loop (see `refloop`), and
reports each time scaled to the loop's nominal speed; raw wall-clock
values are printed on the line before the result for reference.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  An operation fails when its
output is wrong or it exits non-zero; `correct` is false when an
operation fails other than by a fault the workload names as known.
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import refloop  # first, so that the reference loop owns its imports
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 7
# Each operation is scaled by the median reference measurement of the
# operations within WINDOW of it: single slow measurements are ignored,
# drift over seconds is followed.
WINDOW = 10
TAIL_BEYOND = 10
# The tail is taken in blocks of at least this many operations, so that
# it lies at or above the 75th percentile of its block; every round holds
# at least this many.
MIN_BLOCK = 4 * TAIL_BEYOND
# Stop starting operations after this much wall time, even mid-round.
WALL_LIMIT_S = 140

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

SETUP_CODE = """
import sys
from time import perf_counter_ns
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import statistics, refloop, workloads
before = statistics.median(refloop.measure() for _ in range(3))
start = perf_counter_ns()
import bdpants.cli
workloads.WORKLOADS[sys.argv[3]].make_round(int(sys.argv[4]))
elapsed = perf_counter_ns() - start
print(elapsed, before, statistics.median(refloop.measure() for _ in range(3)))
"""


def measure_setup(workload, seed):
    """Normalised and raw seconds to import bdpants.cli and generate the
    inputs, each the median of SETUP_REPEATS fresh interpreters.  Each
    interpreter measures the reference loop three times just before and
    three times just after."""
    norm, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload, str(seed)],
            capture_output=True, text=True, timeout=60, check=True)
        ns, before, after = (float(x) for x in done.stdout.split()[-3:])
        raw.append(ns / 1e9)
        norm.append(ns / 1e9 * refloop.NOMINAL_REP_NS * 2 / (before + after))
    return statistics.median(norm), statistics.median(raw)


def run_op(main, argv):
    """(ns, exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter_ns()
        try:
            code = main(argv)
        except Exception as exc:  # a crash is a failed operation, not a failed run
            code = f"exception {type(exc).__name__}: {exc}"
        elapsed = perf_counter_ns() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def scale_factors(refs):
    """Per-operation factor to nominal speed; refs[i] was measured just
    before operation i and refs[i + 1] just after it."""
    return [refloop.NOMINAL_REP_NS / statistics.median(refs[max(0, i - WINDOW): i + WINDOW + 2])
            for i in range(len(refs) - 1)]


class Pass:
    """Timings and outcomes of a sequence of operations."""

    def __init__(self):
        self.refs = [refloop.measure()]
        self.raw_ns = []
        self.failures = []
        self.unexpected = []

    def run(self, workload, main, item, tracer=None):
        if tracer is not None:
            tracer.start_op(len(self.raw_ns))
        ns, code, out, err = run_op(main, workload.argv(item))
        self.refs.append(refloop.measure())
        self.raw_ns.append(ns)
        reason = workload.check(item, code, out, err)
        if reason is not None:
            self.failures.append((item, reason))
            if not workload.known_fault(item, reason):
                self.unexpected.append((item, reason))

    def normalised_ns(self):
        return [ns * f for ns, f in zip(self.raw_ns, scale_factors(self.refs))]


def run_rounds(workload, main, items, seconds, start_ns, passes):
    """Run whole rounds; each round runs `items` once through every
    (pass, tracer) in `passes`.  Stops at the round boundary nearest to
    `seconds` of normalised operation time."""
    budget = seconds * 1e9
    while True:
        before = sum(sum(p.normalised_ns()) for p, _ in passes)
        for p, tracer in passes:
            if tracer is not None:
                tracer.install()
            try:
                for item in items:
                    p.run(workload, main, item, tracer)
                    if perf_counter_ns() - start_ns > WALL_LIMIT_S * 1e9:
                        return
            finally:
                if tracer is not None:
                    tracer.uninstall()
        spent = sum(sum(p.normalised_ns()) for p, _ in passes)
        if spent + (spent - before) / 2 >= budget:
            return


def tail(values):
    """The highest value with at least TAIL_BEYOND values above it."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def block_tail(values):
    """The median, over consecutive blocks of at least MIN_BLOCK values,
    of each block's tail.  Steadier than one tail of the whole run, whose
    slowest operations are mostly ones another process interrupted."""
    n = len(values)
    k = max(1, n // MIN_BLOCK)
    return statistics.median(tail(values[i * n // k:(i + 1) * n // k]) for i in range(k))


def op_metrics(ns):
    ms = [x / 1e6 for x in ns]
    return {
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": block_tail(ms),
    }


def _spans(*entries):
    """(metric, unit) pairs for span statistics: `<span>.calls`,
    `<span>.self_ms` (self time) and `<span>.ms` (total time)."""
    units = {"calls": "calls/op", "self_ms": "ms/op", "ms": "ms/op"}
    return [(f"{span}.{stat}", units[stat]) for span, *stats in entries for stat in stats]


# Per-layer metrics of the traced run, grouped by bdpants module.  All
# are better lower.  Span statistics are per operation; the others are
# read by `TraceReport.value`.
PER_LAYER = (
    _spans(("linalg.det.int", "calls", "self_ms"), ("linalg.det.rational", "calls", "self_ms"),
           ("linalg.det.float", "calls", "self_ms"))
    + [("linalg.det.distinct_int", "count"), ("linalg.det.max_size", "rows"),
       ("linalg.det.max_bits", "bits")]
    + _spans(("linalg.rank", "calls", "self_ms"),
             ("coords.assemble_phi.closed_form", "calls", "ms"),
             ("coords.assemble_phi.generic", "calls", "ms"),
             ("coords.shearing_invariant_closed", "self_ms"),
             ("coords.triangle_invariant_closed", "self_ms"))
    + [("coords.assemble_phi.closed_form.dets_per_call", "dets/call")]
    + _spans(("coords.polytope_check", "ms"),
             ("flags.is_generic", "calls", "self_ms"), ("flags.triple_ratios_exp", "calls", "self_ms"),
             ("flags.double_ratios_exp", "calls", "self_ms"), ("flags.flags_equal", "calls", "self_ms"),
             ("flags.wedge_det", "calls"),
             ("veronese.flag_curve", "calls", "self_ms"), ("veronese.sym_power", "calls", "self_ms"),
             ("veronese.stable_flag", "calls", "self_ms"),
             ("pants.params_from_lengths", "calls", "self_ms"), ("pants.build_rep", "calls", "self_ms"),
             ("pants.fixed_points", "calls", "self_ms"),
             ("scalars.log_to_float", "calls", "self_ms"), ("scalars.scalar_str", "calls", "self_ms"))
    + _spans(("verify.run_verification", "self_ms"))
    # each module's self time, summed over all its spans; for cli that is
    # parsing and emission
    + [(f"{module}.self_ms", "ms/op")
       for module in ("linalg", "coords", "flags", "veronese", "pants", "scalars", "cli", "verify")]
    + [("trace.overhead_pct", "%")]
)


class TraceReport:
    """Per-layer metrics of a traced pass."""

    def __init__(self, tracer, factors, overhead_pct):
        self.tracer = tracer
        self.ops = len(factors)
        self.totals = tracer.totals(factors)
        self.overhead_pct = overhead_pct

    def value(self, metric):
        t = self.tracer
        special = {
            "linalg.det.distinct_int": lambda: len(t.distinct_int),
            "linalg.det.max_size": lambda: t.max_size,
            "linalg.det.max_bits": lambda: t.max_bits,
            "coords.assemble_phi.closed_form.dets_per_call": lambda: t.closed_form_dets / max(
                1, self.totals.get("coords.assemble_phi.closed_form", [0])[0]),
            "trace.overhead_pct": lambda: self.overhead_pct,
        }
        if metric in special:
            return special[metric]()
        span, _, stat = metric.rpartition(".")
        if "." not in span:  # a whole module
            return sum(v[1] for k, v in self.totals.items()
                       if k.startswith(span + ".")) / 1e6 / self.ops
        calls, own_ns, total_ns = self.totals.get(span, (0, 0, 0))
        return {"calls": calls, "self_ms": own_ns / 1e6, "ms": total_ns / 1e6}[stat] / self.ops


def run_workload(args):
    if not (SRC / "bdpants" / "cli.py").is_file():
        print(f"error: no bdpants sources at {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if not args.trace:
        setup_s, setup_raw_s = measure_setup(args.workload, args.seed)
    start_ns = perf_counter_ns()
    sys.path.insert(0, str(SRC))
    from bdpants.cli import main

    items = workload.make_round(args.seed)
    timed = Pass()
    if args.trace:
        tracer = Tracer()
        traced = Pass()
        run_rounds(workload, main, items, args.seconds, start_ns,
                   [(timed, None), (traced, tracer)])
        passes = (timed, traced)
    else:
        run_rounds(workload, main, items, args.seconds, start_ns, [(timed, None)])
        passes = (timed,)
    attempted = sum(len(p.raw_ns) for p in passes)
    failures = [f for p in passes for f in p.failures]
    unexpected = [f for p in passes for f in p.unexpected]

    for item, reason in unexpected[:5]:
        print(f"FAILED {workload.argv(item)}: {reason}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(timed.raw_ns)} ops per pass, "
          f"{attempted} attempted, {len(failures)} failed "
          f"({len(unexpected)} not from a known fault)")

    if args.trace:
        overhead = sum(traced.normalised_ns()) / sum(timed.normalised_ns()) - 1
        report = TraceReport(tracer, scale_factors(traced.refs), 100 * overhead)
        metrics = {name: {"value": report.value(name), "unit": unit}
                   for name, unit in PER_LAYER}
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.dump(dump)
        print(f"spans of the first {tracer.keep_ops} traced operations written to {dump}")
    else:
        values = op_metrics(timed.normalised_ns())
        raw = op_metrics(timed.raw_ns)
        values["setup_s"], raw["setup_s"] = setup_s, setup_raw_s
        values["peak_rss_mb"] = raw["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"  {name:12s} {values[name]:12.6g} {unit:4s} (raw {raw[name]:.6g})")
        print("raw " + json.dumps(raw))
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not unexpected else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
