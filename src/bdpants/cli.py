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
import contextlib
import csv
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import __version__
from .coords import MAX_N, CoordinateVector, assemble_phi, polytope_check, tau_index_tuples
from .pants import (
    DomainError,
    LEAVES,
    PantsLengths,
    PantsParams,
    TRIANGLES,
    lengths_from_params,
    params_from_lengths,
)
from .scalars import log_to_float
from .verify import CHECK_NAMES, VERIFY_MAX_N, VerifyConfig, all_passed, run_verification


def _parse_scalar(text: str, exact: bool):
    """An exact rational or a float from its text.  A digit separator
    (Python reads 1_0 as 10) is refused, and so is a float that
    overflows to inf, by its text."""
    try:
        if "_" in text:
            raise ValueError(text)
        value = Fraction(text) if exact else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid {'exact' if exact else 'float'} scalar {text!r}") from exc
    if not exact and math.isinf(value) and "inf" not in text.lower():
        raise ValueError(f"float scalar {text!r} overflows")
    return value


def _parse_triple(text: str, what: str):
    """The three comma-separated values of --abc as exact rationals, or
    of --lengths as floats; the unicode minus sign is accepted."""
    parts = text.split(",")
    if len(parts) != 3:
        raise DomainError(f"{what} needs three comma-separated values, got {text!r}")
    return [_parse_scalar(part.strip().replace("−", "-"), what == "--abc") for part in parts]


def _resolve_input(args):
    """(params, lengths, mode) from --abc/--lengths and --mode."""
    if args.abc is not None:
        mode = args.mode or "exact"
        params = PantsParams(*_parse_triple(args.abc, "--abc"))
        lengths = lengths_from_params(params)
    else:
        mode = args.mode or "float"
        if mode == "exact":
            raise DomainError("lengths input forces float mode (use --abc for exact)")
        lengths = PantsLengths(*_parse_triple(args.lengths, "--lengths"))
        params = params_from_lengths(lengths)
    return params, lengths, mode


def _exact_out(name: str, value) -> str:
    return str(value)


def _float_out(name: str, value) -> float:
    """A computed value rounded to a float, refused by name when it
    does not fit in one."""
    try:
        return float(value)
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


def _json_scalar(value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    raise TypeError(f"not JSON serializable: {value!r}")


def _json_parts(value, parts: list, pad: str = "\n") -> None:
    """Append the text of `json.dumps(value, indent=2)` to parts, with
    pad (a line break and the indent) opening each nested line.  The
    standard library's indented encoder is pure Python and leaves its
    closures in reference cycles on every call; this one leaves none."""
    if isinstance(value, dict):
        opening, closing = "{}"
        items = [(encode_basestring_ascii(k) + ": ", v) for k, v in value.items()]
    elif isinstance(value, list):
        opening, closing = "[]"
        items = [("", v) for v in value]
    else:
        parts.append(_json_scalar(value))
        return
    if not items:
        parts.append(opening + closing)
        return
    inner = pad + "  "
    sep = opening + inner
    for prefix, item in items:
        parts.append(sep + prefix)
        _json_parts(item, parts, inner)
        sep = "," + inner
    parts.append(pad + closing)


@contextlib.contextmanager
def _output(path):
    """Standard output, or the file at path, closed on leaving."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as out:
            yield out


def _write_csv(path, rows) -> None:
    """The header of the first (header, row) pair, then every row."""
    with _output(path) as out:
        writer = csv.writer(out)
        writer.writerow(rows[0][0])
        writer.writerows(row for _, row in rows)


def cmd_coords(args) -> int:
    params, lengths, mode = _resolve_input(args)
    coords = assemble_phi(args.n, params, method="closed_form")
    if args.format == "csv":
        _write_csv(args.out, [_csv_row(lengths, params, coords)])
        return 0
    parts = []
    _json_parts(_coords_document(params, lengths, mode, coords), parts)
    with _output(args.out) as out:
        out.write("".join(parts) + "\n")
    return 0


def cmd_verify(args) -> int:
    config = VerifyConfig(
        samples=args.samples,
        seed=args.n_seed,
        max_n=args.max_n,
        exact=args.mode == "exact",
    )
    results = run_verification(config)
    ok = all_passed(results)
    with _output(args.out) as out:
        for name in CHECK_NAMES:
            r = results[name]
            total = r.passed + r.failed
            line = f"{name:24s} {r.passed}/{total}"
            if r.failed:
                line += f"   FIRST FAILURE: {r.first_failure}"
            out.write(line + "\n")
        out.write(
            f"VERIFY {'PASS' if ok else 'FAIL'} "
            f"({len(CHECK_NAMES)} categories, {config.samples} samples, "
            f"seed {config.seed}, max n {config.max_n}, {args.mode} mode)\n"
        )
    return 0 if ok else 1


def _parse_grid(text: str):
    axes = {}
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 4 or "_" in part:
            raise DomainError(f"grid axis must be name:start:stop:steps, got {part!r}")
        name, start, stop, steps = pieces
        if name not in ("lA", "lB", "lC"):
            raise DomainError(f"unknown grid axis {name!r}")
        if name in axes:
            raise DomainError(f"grid axis {name!r} is given twice")
        start, stop = _parse_scalar(start, False), _parse_scalar(stop, False)
        steps = int(steps)
        if steps < 1:
            raise DomainError("grid needs at least one point per axis")
        if steps == 1:
            axes[name] = [start]
        else:
            axes[name] = [start + i * (stop - start) / (steps - 1) for i in range(steps - 1)]
            axes[name].append(stop)
    missing = [name for name in ("lA", "lB", "lC") if name not in axes]
    if missing:
        raise DomainError(f"grid is missing axes {missing}")
    return axes


def cmd_sweep(args) -> int:
    """Every row is computed before the output opens, so a refused grid
    point leaves no partial table."""
    axes = _parse_grid(args.grid)
    rows = []
    for la in axes["lA"]:
        for lb in axes["lB"]:
            for lc in axes["lC"]:
                lengths = PantsLengths(la, lb, lc)
                params = params_from_lengths(lengths)
                coords = assemble_phi(args.n, params, method="closed_form")
                rows.append(_csv_row(lengths, params, coords))
    _write_csv(args.out, rows)
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
    p_coords.add_argument("--n", type=int, required=True,
                          help=f"rank parameter, 2 <= n <= {MAX_N}")
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
    p_verify.add_argument("--max-n", dest="max_n", type=int, default=5,
                          help=f"largest rank checked, 2 <= n <= {VERIFY_MAX_N}")
    p_verify.add_argument(
        "--mode",
        choices=("exact", "float"),
        default="exact",
        help="sample rational parameters or random float lengths; "
        "every check is exact either way",
    )
    p_verify.add_argument("--out", help="output file (default stdout)")

    p_sweep = sub.add_parser("sweep", help="CSV of coordinate logs over a length grid")
    p_sweep.add_argument("--n", type=int, required=True,
                         help=f"rank parameter, 2 <= n <= {MAX_N}")
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
