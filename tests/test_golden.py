"""Byte-level pins of the command-line output.

Each case runs `bdpants.cli.main` in-process and compares its exit code,
stdout and stderr with the files under `tests/golden/`.  After an
intended change of output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from bdpants.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "coords_abc_exact": ["coords", "--n", "4", "--abc", "5/2,2,1/3", "--mode", "exact"],
    "coords_abc_float": ["coords", "--n", "4", "--abc", "5/2,2,1/3", "--mode", "float"],
    "coords_lengths": ["coords", "--n", "3", "--lengths", "1.3,0.9,2.1"],
    "coords_csv": ["coords", "--n", "5", "--abc", "7/3,3/4,2/5", "--format", "csv"],
    "sweep": ["sweep", "--n", "3", "--grid", "lA:0.5:3.0:3,lB:0.5:3.0:3,lC:0.5:3.0:3"],
    "verify_exact": ["verify", "--max-n", "4", "--samples", "2", "--seed", "7"],
    "verify_float": ["verify", "--max-n", "4", "--samples", "2", "--seed", "7",
                     "--mode", "float"],
    "refuse_zero_denominator": ["coords", "--n", "3", "--abc", "2,1,1/0"],
    "refuse_negative_beta": ["coords", "--n", "3", "--abc", "2,−1,1/2"],
    "refuse_overflowing_length": ["coords", "--n", "3", "--lengths", "1500,1,1500"],
    "refuse_huge_exp_json": ["coords", "--n", "3", "--lengths", "800,1,800",
                             "--format", "json"],
    "refuse_tiny_lc": ["coords", "--n", "3", "--lengths", "2,1,1e-16"],
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name):
    code, out, err = run(CASES[name])
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[name]
    # bytes, not text: CSV rows end in \r\n, which reading text would change
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    assert err.encode() == (GOLDEN / f"{name}.err").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in CASES.items():
        codes[name], out, err = run(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
        (GOLDEN / f"{name}.err").write_bytes(err.encode())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    sys.exit(0)
