"""Command-line surface for the toolkit.

Six subcommands, one entry each in _COMMANDS; `critline --help` lists
them.

JSON is the default machine format (every record echoes its parsed
flags under "params"); `table` defaults to aligned text and `mollify` to
CSV.  Each handler reads the parsed argparse namespace and passes the
values, --prime-cutoff included, to the library as ordinary arguments.
Identical invocations produce byte-identical output.  Exit codes:
0 success, 2 usage or an unwritable --output path, 3 domain/range/
consistency error, 4 infeasible optimization.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import List, Optional

from . import bound as bnd
from . import constants as cst
from . import mollifier as mo
from .errors import CritlineError, DomainError, OptimizerError

# ----------------------------------------------------------------- emitters

def _json_record(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _text_record(payload: dict) -> str:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            for sub in sorted(value):
                lines.append(f"{key}.{sub} = {value[sub]!r}")
        else:
            lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


def _emit(payload: dict, fmt: str) -> str:
    return _text_record(payload) if fmt == "text" else _json_record(payload)


def _echo(args: argparse.Namespace) -> dict:
    """The parsed flags echoed under "params"; prime_cutoff only if given."""
    return {key: value for key, value in vars(args).items()
            if key not in ("output_format", "output_path")
            and not (key == "prime_cutoff" and value is None)}


def _cutoff(args: argparse.Namespace) -> int:
    # An explicit 0 or 1 must reach the library and fail there, so no `or`.
    return cst.PRIME_CUTOFF if args.prime_cutoff is None else args.prime_cutoff


# ----------------------------------------------------------------- handlers

def _run_constants(args: argparse.Namespace) -> str:
    if args.A is not None:
        cst._check_A(args.A)
    ks = cst.k_constants(args.theta, args.kappa, n_rect=args.n_rect,
                         prime_cutoff=_cutoff(args))
    result = dataclasses.asdict(ks)
    if args.A is not None:
        result["c1"] = float(cst.c1_from_set(args.A, ks))
        result["c1_prime"] = float(cst.c1_prime_from_set(args.A, ks))
        bad = [key for key in ("c1", "c1_prime")
               if not math.isfinite(result[key])]
        if bad:
            raise DomainError(f"{', '.join(bad)} at A = {args.A!r} "
                              "is not finite")
    return _emit({"params": _echo(args), "constants": result},
                 args.output_format)


def _optimize(args: argparse.Namespace, Ns) -> List[bnd.BoundReport]:
    return bnd.optimize_many(Ns, kappa=args.kappa, theta_grid_size=args.theta_grid,
                             n_rect=args.n_rect, prime_cutoff=_cutoff(args))


def _run_optimize(args: argparse.Namespace) -> str:
    report, = _optimize(args, (args.N,))
    return _emit({"params": _echo(args),
                  "result": dataclasses.asdict(report)}, args.output_format)


_TABLE_HEADER = f"{'N':>6}  {'A':>14}  {'theta':>10}  {'bound':>12}"


def _table_row(r: bnd.BoundReport) -> str:
    return (f"{r.N:>6d}  {r.A_star:>14.6e}  {r.theta_star:>10.6f}  "
            f"{r.bound:>12.4e}")


def _run_table(args: argparse.Namespace) -> str:
    reports = _optimize(args, bnd.DEFAULT_TABLE_N)
    if args.output_format == "json":
        return _json_record({
            "params": _echo(args),
            "rows": [dataclasses.asdict(r) for r in reports],
        })
    if args.output_format == "csv":
        lines = ["N,A,theta,bound"]
        lines += [f"{r.N:d},{r.A_star:.10g},{r.theta_star:.10g},"
                  f"{r.bound:.10g}" for r in reports]
        return "\n".join(lines) + "\n"
    lines = [_TABLE_HEADER] + [_table_row(r) for r in reports]
    return "\n".join(lines) + "\n"


def _run_asymptotic(args: argparse.Namespace) -> str:
    cutoff = _cutoff(args)
    aset = bnd.asymptotic_constants(args.eps, args.kappa, cutoff)
    value = bnd.asymptotic_bound(args.N, args.eps, args.kappa, cutoff)
    return _emit({
        "params": _echo(args),
        "constants": dataclasses.asdict(aset),
        "bound": value,
    }, args.output_format)


def _mollifier_config(args: argparse.Namespace) -> mo.MollifierConfig:
    return mo.MollifierConfig(xi=args.xi, theta=args.theta,
                              variant=args.variant, H=args.H,
                              quad_step=args.quad_step)


def _run_mollify(args: argparse.Namespace) -> str:
    rows = mo.figure_data(args.t_lo, args.t_hi, args.step,
                          _mollifier_config(args))
    if args.output_format == "json":
        return _json_record({
            "params": _echo(args),
            "columns": ["t", "x", "x_mollified", "x_mollified_selberg"],
            "rows": [[float(v) for v in row] for row in rows],
        })
    lines = ["t,x,x_mollified,x_mollified_selberg"]
    lines += [f"{r[0]:.10g},{r[1]:.10g},{r[2]:.10g},{r[3]:.10g}"
              for r in rows]
    return "\n".join(lines) + "\n"


def _run_detect(args: argparse.Namespace) -> str:
    found = mo.mollified_scan(args.t_lo, args.t_hi, _mollifier_config(args))
    windows = [{
        "t": stats.t,
        "H": stats.H,
        "I": stats.I,
        "J": stats.J,
        "m_re": stats.M_val.real,
        "m_im": stats.M_val.imag,
        "sign_changes": stats.sign_changes,
    } for stats in found.windows]
    return _json_record({
        "params": _echo(args),
        "count": found.count,
        "ordinates": found.ordinates,
        "windows": windows,
    })


# name: (handler, formats with the default first, flag group, help).  The
# flag groups nest: chain < rect < grid; scan is the mollifier's.
_COMMANDS = {
    "constants": (_run_constants, ("json", "text"), "rect",
                  "constant set at one (theta, kappa); add --A for c1, c1'"),
    "optimize": (_run_optimize, ("json", "text"), "grid",
                 "best (A, theta) and bound for one N"),
    "table": (_run_table, ("text", "json", "csv"), "grid",
              "the reference rows N = "
              + ",".join(map(str, bnd.DEFAULT_TABLE_N))),
    "asymptotic": (_run_asymptotic, ("json", "text"), "chain",
                   "large-N constants and explicit bound at (N, eps)"),
    "mollify": (_run_mollify, ("csv", "json"), "scan",
                "critical-line figure data: t, X and two mollified traces"),
    "detect": (_run_detect, ("json",), "scan",
               "mollified sign-change zero scan with window statistics"),
}


# ------------------------------------------------------------------ parsing

def _build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", dest="output_path", default=None,
                        help="write to this path instead of stdout")
    chain = argparse.ArgumentParser(add_help=False, parents=[output])
    chain.add_argument("--prime-cutoff", type=int, default=None,
                       help="Euler-product prime cutoff "
                            f"(default {cst.PRIME_CUTOFF})")
    chain.add_argument("--kappa", type=float, default=0.125)
    rect = argparse.ArgumentParser(add_help=False, parents=[chain])
    rect.add_argument("--n-rect", type=int, default=100)
    grid = argparse.ArgumentParser(add_help=False, parents=[rect])
    grid.add_argument("--theta-grid", type=int, default=10000)
    scan = argparse.ArgumentParser(add_help=False, parents=[output])
    cfg = mo.MollifierConfig
    scan.add_argument("--t-lo", type=float, default=0.0)
    scan.add_argument("--t-hi", type=float, default=100.0)
    scan.add_argument("--xi", type=float, default=cfg.xi)
    scan.add_argument("--theta", type=float, default=cfg.theta)
    scan.add_argument("--variant", default=cfg.variant, choices=mo._VARIANTS)
    scan.add_argument("--H", type=float, default=cfg.H)
    scan.add_argument("--quad-step", type=float, default=cfg.quad_step,
                      help="scan/quadrature spacing (default H/64)")
    groups = {"chain": chain, "rect": rect, "grid": grid, "scan": scan}

    parser = argparse.ArgumentParser(
        prog="critline",
        description="Critical-line zero-proportion bounds and a mollified "
                    "zero-detection demonstrator.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, formats, flags, text) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[groups[flags]], help=text)
        p.add_argument("--format", dest="output_format", choices=formats,
                       default=formats[0],
                       help=f"output format (default {formats[0]})")

    cmd = sub.choices
    cmd["constants"].add_argument("--theta", type=float, required=True)
    cmd["constants"].add_argument("--A", type=float, default=None,
                                  help="also report c1 and c1' at this A")
    cmd["optimize"].add_argument("--N", type=int, required=True)
    cmd["asymptotic"].add_argument("--N", type=float, required=True)
    cmd["asymptotic"].add_argument("--eps", type=float, required=True)
    cmd["mollify"].add_argument("--step", type=float, default=0.05,
                                help="output grid spacing")
    return parser


# ----------------------------------------------------------------- dispatch

def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; returns the process exit code."""
    try:
        artifact = _COMMANDS[args.command][0](args)
    except OptimizerError as exc:
        _diagnostic(exc)
        return 4
    except CritlineError as exc:
        _diagnostic(exc)
        return 3
    if not args.output_path:
        sys.stdout.write(artifact)
        return 0
    try:
        with open(args.output_path, "w", encoding="utf-8") as fh:
            fh.write(artifact)
    except OSError as exc:    # the --output argument is unusable
        _diagnostic(exc)
        return 2
    return 0


def _diagnostic(exc: Exception) -> None:
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc)},
        sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
