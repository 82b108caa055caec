"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --seeds 1-10 --seconds 20 [--workload sweep-float ...]

Runs `run.py` once per seed and workload, one process at a time, and
prints for each metric the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the distance between
the quartiles as a share of the median, for the normalised values the
benchmark reports and for the raw wall-clock values beside them.  It
also prints each workload's share of failed operations, which must be
the same on every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    ok = True
    for name in args.workload or list(workloads.WORKLOADS):
        norm, raw, shares = {}, {}, set()
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=900)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            shares.add((result["failed"] / result["attempted"], result["correct"]))
            for metric, entry in result["metrics"].items():
                norm.setdefault(metric, []).append(entry["value"])
            for metric, value in json.loads(lines[-2][len("raw "):]).items():
                raw.setdefault(metric, []).append(value)
        print(f"{name}: {len(args.seeds)} seeds, failed share and correct {sorted(shares)}")
        for metric in norm:
            n = summary(norm[metric])
            r = summary(raw[metric])
            print(f"  {metric:12s} median {n[0]:10.5g} quartiles {n[1]:10.5g} {n[2]:10.5g}"
                  f" iqr/median {n[3]:.3f}   raw median {r[0]:10.5g} iqr/median {r[3]:.3f}")
        ok &= len(shares) == 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
