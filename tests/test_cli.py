import csv
import gc
import io
import json
import math

import pytest

from bdpants.cli import main
from bdpants.coords import MAX_N
from bdpants.verify import VERIFY_MAX_N

from conftest import run_cli


def test_coords_json_exact(capsys):
    code, out, _ = run_cli(
        capsys, ["--n", "2", "--abc", "2,1,1/2", "--mode", "exact", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert doc["mode"] == "exact"
    assert doc["params"] == {"alpha": "2", "beta": "1", "gamma": "1/2"}
    for leaf in ("h_AB", "h_BC", "h_CA"):
        (entry,) = doc["coordinates"]["sigma"][leaf]
        assert entry["exp"] == "2"
        assert entry["log"] == pytest.approx(0.693147, abs=1e-6)
    assert doc["lengths"]["lA"] == pytest.approx(2 * math.log(2), abs=1e-12)
    assert all(doc["checks"].values())


def test_coords_float_lengths(capsys):
    code, out, _ = run_cli(
        capsys,
        ["--n", "3", "--lengths", "1.386294,1.386294,1.386294", "--mode", "float"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "float"
    for tri in ("T0", "T1"):
        for entry in doc["coordinates"]["tau"][tri].values():
            assert abs(entry["log"]) <= 1e-9
    for leaf in ("h_AB", "h_BC", "h_CA"):
        for entry in doc["coordinates"]["sigma"][leaf]:
            assert entry["log"] == pytest.approx(0.693147, abs=1e-5)


def test_coords_json_round_trip_idempotent(capsys):
    # the output is byte-equal to the standard library's indented JSON
    for n in (2, 3, 10, 64):
        for mode in ("exact", "float"):
            code, out, _ = run_cli(capsys, ["--n", str(n), "--abc", "5/2,2,1/3", "--mode", mode])
            assert code == 0
            reserialized = json.dumps(json.loads(out), indent=2) + "\n"
            assert reserialized == out


def test_coords_rejects_small_n(capsys):
    code, _, err = run_cli(capsys, ["--n", "1", "--abc", "2,1,1/2"])
    assert code == 2
    assert "n >= 2" in err


def test_coords_rejects_invalid_domain(capsys):
    code, _, err = run_cli(capsys, ["--n", "3", "--abc", "1/2,1,1/2"])
    assert code == 2
    assert "alpha" in err


def test_coords_rejects_exact_mode_with_lengths(capsys):
    code, _, err = run_cli(
        capsys, ["--n", "2", "--lengths", "1.0,1.0,1.0", "--mode", "exact"]
    )
    assert code == 2


def test_coords_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, ["--n", "2", "--abc", "2,1,1/2", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:6] == ["lA", "lB", "lC", "alpha", "beta", "gamma"]
    assert rows[0][6:] == ["sigma_hAB_p1", "sigma_hBC_p1", "sigma_hCA_p1"]
    assert float(rows[1][6]) == pytest.approx(math.log(2), abs=1e-12)


def test_verify_small_run(capsys):
    argv = ["verify", "--max-n", "3", "--samples", "2", "--seed", "1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert "VERIFY PASS" in out
    categories = [line.split()[0] for line in out.splitlines() if "/" in line]
    assert len(categories) >= 8
    # seeded runs are byte-identical
    code2, out2, _ = run_cli(capsys, argv)
    assert code2 == 0 and out2 == out


def test_verify_reports_all_categories(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--max-n", "2", "--samples", "1", "--seed", "1"]
    )
    assert code == 0
    for name in (
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
    ):
        assert name in out


@pytest.mark.parametrize(
    "flag, value", [("--samples", "0"), ("--max-n", "1"), ("--seed", "-1")]
)
def test_verify_rejects_out_of_range_arguments(capsys, flag, value):
    code, out, err = run_cli(capsys, ["verify", flag, value])
    assert code == 2 and out == ""
    assert err.startswith("error: need ")


def test_verify_float_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--max-n", "3", "--samples", "2", "--seed", "3", "--mode", "float"],
    )
    assert code == 0
    assert "float mode" in out


def test_sweep_shape(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        capsys,
        [
            "sweep",
            "--n",
            "3",
            "--grid",
            "lA:0.5:3.0:3,lB:0.5:3.0:3,lC:0.5:3.0:3",
            "--out",
            str(out_path),
        ],
    )
    assert code == 0
    with out_path.open(newline="") as f:
        rows = list(csv.reader(f))
    header, data = rows[0], rows[1:]
    assert len(data) == 27
    coordinate_columns = [h for h in header if h.startswith(("sigma", "tau"))]
    assert len(coordinate_columns) == 8  # n^2 - 1
    assert header[:6] == ["lA", "lB", "lC", "alpha", "beta", "gamma"]
    # shearing columns first (p ascending per leaf), then taus T0 before T1
    assert coordinate_columns == [
        "sigma_hAB_p1",
        "sigma_hAB_p2",
        "sigma_hBC_p1",
        "sigma_hBC_p2",
        "sigma_hCA_p1",
        "sigma_hCA_p2",
        "tau_T0_p1q1r1",
        "tau_T1_p1q1r1",
    ]


def test_sweep_symmetric_point_has_equal_shears(capsys):
    code, out, _ = run_cli(
        capsys, ["sweep", "--n", "2", "--grid", "lA:2.0:2.0:1,lB:2.0:2.0:1,lC:2.0:2.0:1"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header, row = rows
    values = dict(zip(header, row))
    shears = {float(values[k]) for k in header if k.startswith("sigma")}
    assert max(shears) - min(shears) <= 1e-12
    assert float(values["sigma_hAB_p1"]) == pytest.approx(1.0, abs=1e-12)


def test_sweep_coordinate_column_count_n4(capsys):
    code, out, _ = run_cli(
        capsys, ["sweep", "--n", "4", "--grid", "lA:1.0:1.0:1,lB:1.0:1.0:1,lC:1.0:1.0:1"]
    )
    assert code == 0
    header = next(csv.reader(io.StringIO(out)))
    assert sum(1 for h in header if h.startswith(("sigma", "tau"))) == 15


def test_sweep_rejects_bad_grid(capsys):
    code, _, err = run_cli(capsys, ["sweep", "--n", "3", "--grid", "lA:1:2:3"])
    assert code == 2
    code, _, err = run_cli(
        capsys, ["sweep", "--n", "3", "--grid", "lA:1:2:0,lB:1:2:1,lC:1:2:1"]
    )
    assert code == 2


def test_sweep_rejects_repeated_axis(capsys):
    code, out, err = run_cli(
        capsys, ["sweep", "--n", "2", "--grid", "lA:1:1:1,lA:2:2:1,lB:1:1:1,lC:1:1:1"]
    )
    assert code == 2 and out == ""
    assert err == "error: grid axis 'lA' is given twice\n"


def test_refused_sweep_writes_nothing(capsys, tmp_path):
    # the second grid point's lC is refused; no file, not a partial table
    out_path = tmp_path / "x.csv"
    code, out, err = run_cli(
        capsys,
        ["sweep", "--n", "3", "--grid", "lA:1:2:2,lB:1:1:1,lC:1e-16:1e-16:1",
         "--out", str(out_path)],
    )
    assert code == 2 and out == ""
    assert "lC = 1e-16" in err
    assert not out_path.exists()


def test_sweep_rejects_small_n_with_coords_message(capsys):
    code, out, err = run_cli(
        capsys, ["sweep", "--n", "1", "--grid", "lA:1:1:1,lB:1:1:1,lC:1:1:1"]
    )
    assert code == 2 and out == ""
    assert err == "error: need n >= 2, got 1\n"


@pytest.mark.parametrize("argv", [
    ["coords", "--n", "65", "--abc", "2,1,1/2"],
    ["coords", "--n", "1000000000", "--abc", "2,1,1/2"],
    ["sweep", "--n", "65", "--grid", "lA:1:1:1,lB:1:1:1,lC:1:1:1"],
    ["sweep", "--n", "1000000000", "--grid", "lA:1:1:1,lB:1:1:1,lC:1:1:1"],
    ["verify", "--max-n", "13"],
])
def test_rank_above_cap_is_refused(capsys, argv):
    # the validators refuse before any work; no large rank is ever run
    cap = VERIFY_MAX_N if argv[0] == "verify" else MAX_N
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert f"<= {cap}, got {argv[2]}" in err


def test_sweep_grid_ends_at_stop(capsys):
    # 3 + (0.1 - 3) is 0.10000000000000009 in floats
    code, out, _ = run_cli(
        capsys, ["sweep", "--n", "2", "--grid", "lA:1:1:1,lB:1:1:1,lC:3:0.1:2"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [row[2] for row in rows] == ["lC", "3.0", "0.1"]


def test_unwritable_output(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        ["--n", "2", "--abc", "2,1,1/2", "--out", str(tmp_path / "no" / "dir" / "f.json")],
    )
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert main(["coords", "--n", "2"]) == 2  # missing input triple
    capsys.readouterr()


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, ["--version"])
    assert code == 0
    assert "bdpants" in out


def _classical_errors(header, row, lengths):
    """Worst deviation of the coordinate logs from the classical shears
    (lA+lB-lC)/2, (lB+lC-lA)/2, (lC+lA-lB)/2 and from tau = 0."""
    la, lb, lc = lengths
    shear = {"hAB": (la + lb - lc) / 2, "hBC": (lb + lc - la) / 2, "hCA": (lc + la - lb) / 2}
    worst = 0.0
    for name, cell in zip(header, row):
        if name.startswith("sigma_"):
            worst = max(worst, abs(float(cell) - shear[name.split("_")[1]]))
        elif name.startswith("tau_"):
            worst = max(worst, abs(float(cell)))
    return worst


@pytest.mark.parametrize(
    "n, point",
    [
        (10, (0.5, 2.375, 3.0)),
        (10, (0.5, 3.0, 2.375)),
        (10, (0.5, 3.0, 3.0)),
        (10, (1.125, 3.0, 3.0)),
        (15, (0.5, 1.75, 3.0)),
    ],
)
def test_sweep_matches_classical_shears(capsys, n, point):
    # README-grid points whose logs a float determinant got wrong
    grid = ",".join(f"{axis}:{v!r}:{v!r}:1" for axis, v in zip(("lA", "lB", "lC"), point))
    code, out, err = run_cli(capsys, ["sweep", "--n", str(n), "--grid", grid])
    assert code == 0, err
    header, row = list(csv.reader(io.StringIO(out)))
    assert _classical_errors(header, row, point) <= 1e-12


def test_coords_float_mode_rounds_exact_values_once(capsys):
    code, out, _ = run_cli(
        capsys, ["--n", "10", "--abc", "5/2,2,1/3", "--mode", "float"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"alpha": 2.5, "beta": 2.0, "gamma": 1 / 3}
    expected = {"h_AB": 1.5, "h_BC": 6.0, "h_CA": 25 / 6}
    for leaf, value in expected.items():
        assert [e["exp"] for e in doc["coordinates"]["sigma"][leaf]] == [value] * 9
    for tri in ("T0", "T1"):
        for entry in doc["coordinates"]["tau"][tri].values():
            assert entry == {"exp": 1.0, "log": 0.0}


def test_coords_overflowing_length_is_a_domain_error(capsys):
    code, _, err = run_cli(capsys, ["coords", "--n", "3", "--lengths", "1500,1,1500"])
    assert code == 2
    assert "lA = 1500.0" in err


def test_coords_tiny_length_named(capsys):
    code, _, err = run_cli(capsys, ["--n", "3", "--lengths", "1e-300,1,1"])
    assert code == 2
    assert "lA = 1e-300" in err and "alpha" not in err


def test_coords_huge_exp_csv_logs(capsys):
    code, out, err = run_cli(
        capsys, ["--n", "3", "--lengths", "800,1,800", "--format", "csv"]
    )
    assert code == 0, err
    header, row = list(csv.reader(io.StringIO(out)))
    assert _classical_errors(header, row, (800.0, 1.0, 800.0)) <= 1e-12


def test_coords_huge_exp_json_names_entry(capsys):
    code, _, err = run_cli(
        capsys, ["--n", "3", "--lengths", "800,1,800", "--format", "json"]
    )
    assert code == 2
    assert "sigma h_CA p=1" in err and "does not fit in a float" in err


def test_coords_lengths_with_alpha_beta_at_most_one_named(capsys):
    # e^(lA/2) * e^((lC - lA)/2) rounds to just below 1 for a tiny lC
    code, _, err = run_cli(capsys, ["--n", "3", "--lengths", "2,1,1e-16"])
    assert code == 2
    assert "lC = 1e-16" in err


@pytest.mark.parametrize("argv", [
    ["coords", "--n", "3", "--lengths", "1_0,1,1"],
    ["coords", "--n", "3", "--abc", "1_0,1,1/2"],
    ["sweep", "--n", "3", "--grid", "lA:1_0:1_0:1,lB:1:1:1,lC:1:1:1"],
    ["sweep", "--n", "3", "--grid", "lA:1:2:1_0,lB:1:1:1,lC:1:1:1"],
])
def test_digit_separators_are_refused(capsys, argv):
    # float(), int() and Fraction() read 1_0 as 10
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert "1_0" in err


@pytest.mark.parametrize("argv", [
    ["coords", "--n", "3", "--lengths", "1e400,1,1"],
    ["sweep", "--n", "3", "--grid", "lA:1:1e400:2,lB:1:1:1,lC:1:1:1"],
])
def test_overflowing_float_is_named_by_its_text(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: float scalar '1e400' overflows\n"


def test_calls_leave_no_garbage_cycles(capsys):
    gc.collect()
    gc.disable()
    try:
        assert main(["--n", "3", "--abc", "5/2,2,1/3"]) == 0
        assert main(["--n", "3", "--abc", "5/2,2,1/3", "--format", "csv"]) == 0
        assert main(["sweep", "--n", "3", "--grid", "lA:1:2:2,lB:1:1:1,lC:1:1:1"]) == 0
        assert main(["verify", "--samples", "1", "--max-n", "3"]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
