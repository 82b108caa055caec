"""Self-tests of the benchmark: the output checks, the tracer and the
result contract.  Run with

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import run
import workloads
from tracer import Tracer, package_modules

sys.path.insert(0, str(run.SRC))
from bdpants.cli import main  # noqa: E402

ROOT = run.BENCH.parent


def call(workload, item):
    _, code, out, err = run.run_op(main, workload.argv(item))
    return code, out, err


# -- output checks -----------------------------------------------------------

def test_coords_check_rejects_one_perturbed_entry():
    wl = workloads.WORKLOADS["coords-exact"]
    triple = wl.make_round(1)[0]
    code, out, err = call(wl, triple)
    assert wl.check(triple, code, out, err) is None
    for path in (("sigma", "h_BC", 3), ("tau", "T1", "2,3,5")):
        doc = json.loads(out)
        entry = doc["coordinates"][path[0]][path[1]][path[2]]
        entry["exp"] = str(Fraction(entry["exp"]) * Fraction(1001, 1000))
        assert wl.check(triple, code, json.dumps(doc), err) is not None
    assert wl.check(triple, 3, out, err) is not None


def test_sweep_check_rejects_one_perturbed_log():
    wl = workloads.WORKLOADS["sweep-float"]
    point = (1.75, 1.125, 2.375)
    code, out, err = call(wl, point)
    assert wl.check(point, code, out, err) is None
    header, row = out.splitlines()
    for column in (8, len(row.split(",")) - 1):  # one sigma, one tau
        cells = row.split(",")
        cells[column] = repr(float(cells[column]) + 2e-6)
        assert wl.check(point, code, header + "\n" + ",".join(cells) + "\n", err) is not None


def test_sweep_known_fault_fails_every_time_and_only_there():
    wl = workloads.WORKLOADS["sweep-float"]
    for point in sorted(workloads.FLOAT_FAULT_POINTS):
        code, out, err = call(wl, point)
        reason = wl.check(point, code, out, err)
        assert code == 0 and reason is not None and wl.known_fault(point, reason)
    assert not wl.known_fault((1.75, 1.75, 1.75), "coordinate off: sigma_hAB_p1")


def test_verify_check_rejects_one_count_off_by_one():
    wl = workloads.WORKLOADS["verify-exact"]
    seed = wl.make_round(1)[0]
    code, out, err = call(wl, seed)
    assert wl.check(seed, code, out, err) is None
    lines = out.splitlines()
    name, count = lines[9].split()
    passed = int(count.split("/")[0])
    for bad in (f"{passed - 1}/{passed - 1}", f"{passed}/{passed + 1}"):
        lines[9] = f"{name:24s} {bad}"
        assert wl.check(seed, code, "\n".join(lines) + "\n", err) is not None


def test_verify_expected_counts_match_the_documented_formulas():
    counts = workloads.verify_expected_counts(samples=2, max_n=5)
    assert counts["oracle_equivalence"] == 2 * (3 + 8 + 15 + 24)
    assert counts["length_identity"] == 2 * 3 * (1 + 2 + 3 + 4)
    assert list(counts) != [] and set(counts) == set(workloads.VERIFY_CATEGORIES)


# -- tracer ------------------------------------------------------------------

def bindings():
    return {(m.__name__, name): obj for m in package_modules() for name, obj in vars(m).items()}


def test_no_module_binds_an_unwrapped_original():
    tracer = Tracer()
    tracer.install()
    try:
        originals = set(tracer.wrappers)
        for (module, name), obj in bindings().items():
            assert not (callable(obj) and obj in originals), f"{module}.{name} not wrapped"
        coords = sys.modules["bdpants.coords"]
        verify = sys.modules["bdpants.verify"]
        for fn in (coords.flag_curve, verify.is_generic, coords.assemble_phi):
            assert fn.__wrapped__ in originals
    finally:
        tracer.uninstall()


def test_originals_are_restored():
    before = bindings()
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    after = bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def traced_calls():
    tracer = Tracer()
    tracer.install()
    try:
        op = 0
        for name, count in (("coords-exact", 1), ("sweep-float", 2), ("verify-exact", 1)):
            wl = workloads.WORKLOADS[name]
            for item in wl.make_round(7)[:count]:
                tracer.start_op(op)
                code, out, err = call(wl, item)
                assert wl.check(item, code, out, err) is None
                op += 1
    finally:
        tracer.uninstall()
    totals = tracer.totals([1.0] * op)
    return {name: v[0] for name, v in totals.items()}, tracer


def test_two_traced_runs_give_identical_calls():
    first, tracer = traced_calls()
    second, _ = traced_calls()
    assert first == second
    assert first["linalg.det.int"] > 0 and first["flags.is_generic"] > 0
    assert tracer.max_size == 10 and len(tracer.distinct_int) > 0


# -- result contract ---------------------------------------------------------

def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["better"] == "lower" for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "coords-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def test_tail_has_ten_values_above_it():
    values = list(range(50))
    assert run.tail(values) == 39
    assert run.block_tail(values + values[::-1] + values) == 39
    assert run.block_tail(list(range(79))) == 68


def test_every_round_holds_a_block():
    for wl in workloads.WORKLOADS.values():
        assert len(wl.make_round(1)) >= run.MIN_BLOCK
