"""Command-line front end.

Three commands:

  * ``coords`` (implied when the first argument is a flag): coordinates
    of one representation, as JSON (values as "p/q" strings in exact
    mode or floats in float mode, plus float logs) or CSV (logs only);
  * ``verify``: the randomized identity sweep of `bdpants.verify`;
  * ``sweep``: a CSV table of coordinate logs over a boundary-length
    grid.

Every value is computed exactly; ``--mode`` picks only whether exact
values are printed as rationals or rounded once to floats.  Float
lengths enter as the exact dyadic rationals they are.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 internal degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__
from .coords import CoordinateVector, assemble_phi, polytope_check, tau_index_tuples
from .pants import (
    DomainError,
    LEAVES,
    PantsLengths,
    PantsParams,
    TRIANGLES,
    lengths_from_params,
    params_from_lengths,
)
from .scalars import as_float, log_to_float, parse_scalar, scalar_str
from .verify import CHECK_NAMES, VerifyConfig, all_passed, run_verification


def _parse_triple(text: str, what: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise DomainError(f"{what} needs three comma-separated values, got {text!r}")
    return parts


def _resolve_input(args):
    """(params, lengths, mode) from --abc/--lengths and --mode."""
    if args.abc is not None:
        mode = args.mode or "exact"
        triple = [parse_scalar(t, exact=True) for t in _parse_triple(args.abc, "--abc")]
        params = PantsParams(*triple)
        lengths = lengths_from_params(params)
    else:
        mode = args.mode or "float"
        if mode == "exact":
            raise DomainError("lengths input forces float mode (use --abc for exact)")
        values = [
            parse_scalar(t, exact=False) for t in _parse_triple(args.lengths, "--lengths")
        ]
        lengths = PantsLengths(*values)
        params = params_from_lengths(lengths)
    return params, lengths, mode


def _exact_out(name: str, value) -> str:
    return scalar_str(value)


def _float_out(name: str, value) -> float:
    """A computed value rounded to a float, refused by name when it
    does not fit in one."""
    try:
        return as_float(value)
    except OverflowError:
        raise DomainError(
            f"{name} = e^{log_to_float(value):.6g} does not fit in a float"
        ) from None


def _coords_document(params: PantsParams, lengths: PantsLengths, mode: str,
                     coords: CoordinateVector):
    """The JSON document for one representation."""
    n = coords.n
    value_out = _exact_out if mode == "exact" else _float_out
    sigma = {}
    for leaf in LEAVES:
        sigma[leaf] = [
            {"p": p, "exp": value_out(f"sigma {leaf} p={p}", v), "log": log_to_float(v)}
            for p, v in enumerate(coords.sigma[leaf], start=1)
        ]
    tau = {}
    for tri in TRIANGLES:
        tau[tri] = {
            f"{p},{q},{r}": {
                "exp": value_out(f"tau {tri} ({p},{q},{r})", coords.tau[tri][(p, q, r)]),
                "log": log_to_float(coords.tau[tri][(p, q, r)]),
            }
            for (p, q, r) in tau_index_tuples(n)
        }
    return {
        "n": n,
        "mode": mode,
        "params": {
            "alpha": value_out("alpha", params.alpha),
            "beta": value_out("beta", params.beta),
            "gamma": value_out("gamma", params.gamma),
        },
        "lengths": {"lA": lengths.lA, "lB": lengths.lB, "lC": lengths.lC},
        "coordinates": {"sigma": sigma, "tau": tau},
        "checks": polytope_check(coords),
    }


def _csv_row(lengths: PantsLengths, params: PantsParams, coords: CoordinateVector):
    header = ["lA", "lB", "lC", "alpha", "beta", "gamma"]
    row = [
        lengths.lA,
        lengths.lB,
        lengths.lC,
        _float_out("alpha", params.alpha),
        _float_out("beta", params.beta),
        _float_out("gamma", params.gamma),
    ]
    for label, value in coords.labeled_entries():
        header.append(label)
        row.append(log_to_float(value))
    return header, row


def _open_out(path):
    if path is None:
        return sys.stdout, False
    return open(path, "w", newline=""), True


def cmd_coords(args) -> int:
    if args.n < 2:
        raise DomainError(f"need n >= 2, got {args.n}")
    params, lengths, mode = _resolve_input(args)
    coords = assemble_phi(args.n, params, method="closed_form")
    if args.format == "json":
        document = _coords_document(params, lengths, mode, coords)
    else:
        header, row = _csv_row(lengths, params, coords)
    out, close = _open_out(args.out)
    try:
        if args.format == "json":
            json.dump(document, out, indent=2)
            out.write("\n")
        else:
            writer = csv.writer(out)
            writer.writerow(header)
            writer.writerow(row)
    finally:
        if close:
            out.close()
    return 0


def cmd_verify(args) -> int:
    if args.samples < 1 or args.max_n < 2 or args.n_seed < 0:
        raise DomainError("verify needs --samples >= 1, --max-n >= 2, --seed >= 0")
    config = VerifyConfig(
        samples=args.samples,
        seed=args.n_seed,
        max_n=args.max_n,
        exact=(args.mode or "exact") == "exact",
    )
    results = run_verification(config)
    out, close = _open_out(args.out)
    try:
        for name in CHECK_NAMES:
            r = results[name]
            total = r.passed + r.failed
            line = f"{name:24s} {r.passed}/{total}"
            if r.failed:
                line += f"   FIRST FAILURE: {r.first_failure}"
            out.write(line + "\n")
        ok = all_passed(results)
        mode = "exact" if config.exact else "float"
        out.write(
            f"VERIFY {'PASS' if ok else 'FAIL'} "
            f"({len(CHECK_NAMES)} categories, {config.samples} samples, "
            f"seed {config.seed}, max n {config.max_n}, {mode} mode)\n"
        )
    finally:
        if close:
            out.close()
    return 0 if ok else 1


def _parse_grid(text: str):
    axes = {}
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 4:
            raise DomainError(f"grid axis must be name:start:stop:steps, got {part!r}")
        name, start, stop, steps = pieces
        if name not in ("lA", "lB", "lC"):
            raise DomainError(f"unknown grid axis {name!r}")
        start, stop = float(start), float(stop)
        steps = int(steps)
        if steps < 1:
            raise DomainError("grid needs at least one point per axis")
        if steps == 1:
            axes[name] = [start]
        else:
            axes[name] = [start + i * (stop - start) / (steps - 1) for i in range(steps)]
    missing = [name for name in ("lA", "lB", "lC") if name not in axes]
    if missing:
        raise DomainError(f"grid is missing axes {missing}")
    return axes


def cmd_sweep(args) -> int:
    if args.n < 2:
        raise DomainError(f"need n >= 2, got {args.n}")
    axes = _parse_grid(args.grid)
    out, close = _open_out(args.out)
    try:
        writer = csv.writer(out)
        header = None
        for la in axes["lA"]:
            for lb in axes["lB"]:
                for lc in axes["lC"]:
                    lengths = PantsLengths(la, lb, lc)
                    params = params_from_lengths(lengths)
                    coords = assemble_phi(args.n, params, method="closed_form")
                    row_header, row = _csv_row(lengths, params, coords)
                    if header is None:
                        header = row_header
                        writer.writerow(header)
                    writer.writerow(row)
    finally:
        if close:
            out.close()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdpants",
        description="Coordinates of Fuchsian pair-of-pants representations "
        "in the Hitchin component, with built-in cross-verification.",
    )
    parser.add_argument("--version", action="version", version=f"bdpants {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_coords = sub.add_parser("coords", help="coordinates of one representation")
    p_coords.add_argument("--n", type=int, required=True, help="rank parameter, n >= 2")
    group = p_coords.add_mutually_exclusive_group(required=True)
    group.add_argument("--abc", help="alpha,beta,gamma as rationals, e.g. 2,1,1/2")
    group.add_argument("--lengths", help="boundary lengths lA,lB,lC (floats)")
    p_coords.add_argument(
        "--mode",
        choices=("exact", "float"),
        help="print values as rationals or as floats (default: exact for "
        "--abc, float for --lengths); computation is exact either way",
    )
    p_coords.add_argument("--format", choices=("json", "csv"), default="json")
    p_coords.add_argument("--out", help="output file (default stdout)")

    p_verify = sub.add_parser("verify", help="run the randomized identity sweep")
    p_verify.add_argument("--samples", type=int, default=25)
    p_verify.add_argument("--seed", dest="n_seed", type=int, default=42)
    p_verify.add_argument("--max-n", dest="max_n", type=int, default=5)
    p_verify.add_argument(
        "--mode",
        choices=("exact", "float"),
        default="exact",
        help="sample rational parameters or random float lengths; "
        "every check is exact either way",
    )
    p_verify.add_argument("--out", help="output file (default stdout)")

    p_sweep = sub.add_parser("sweep", help="CSV of coordinate logs over a length grid")
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument(
        "--grid",
        required=True,
        help="axis specs name:start:stop:steps for lA, lB, lC, comma-separated",
    )
    p_sweep.add_argument("--out", help="output file (default stdout)")
    return parser


# built once: a parser is a web of reference cycles that only the cyclic
# collector frees, and parsing leaves it unchanged.  It records only the
# command's name; `main` picks the handler by that name at call time, so a
# handler rebound in this module (by a tracer or a test) is the one run.
_PARSER = _build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help", "--version"):
        argv = ["coords"] + argv
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        command = {"coords": cmd_coords, "verify": cmd_verify, "sweep": cmd_sweep}
        return command[args.command](args)
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
