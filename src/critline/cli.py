"""Command-line surface for the toolkit.

Six subcommands:

  constants   constant set at one (theta, kappa); add --A for c1, c1'
  optimize    best (A, theta) and bound for one N
  table       the eight reference rows N = 1,2,3,4,5,10,100,1000
  asymptotic  large-N constants and explicit bound at (N, eps)
  mollify     critical-line figure data as CSV
  detect      mollified sign-change zero scan with window statistics

JSON is the default machine format (every record echoes its parsed
flags under "params"); `table` defaults to aligned text and `mollify` to
CSV.  Each handler reads the parsed argparse namespace and passes the
values, --prime-cutoff included, to the library as ordinary arguments.
Identical invocations produce byte-identical output.  Exit codes:
0 success, 2 usage, 3 domain/range/consistency error, 4 infeasible
optimization.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Dict, List, Optional

from . import bound as bnd
from . import constants as cst
from . import mollifier as mo
from .errors import CritlineError, OptimizerError

_FORMATS: Dict[str, tuple] = {
    "constants": ("json", "text"),
    "optimize": ("json", "text"),
    "table": ("text", "json", "csv"),
    "asymptotic": ("json", "text"),
    "mollify": ("csv", "json"),
    "detect": ("json",),
}


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
    record = {key: value for key, value in vars(args).items()
              if key not in ("output_format", "output_path")}
    if args.prime_cutoff is None:
        del record["prime_cutoff"]
    return record


def _cutoff(args: argparse.Namespace) -> int:
    # An explicit 0 or 1 must reach the library and fail there, so no `or`.
    return cst.PRIME_CUTOFF if args.prime_cutoff is None else args.prime_cutoff


# ----------------------------------------------------------------- handlers

def _run_constants(args: argparse.Namespace) -> str:
    ks = cst.k_constants(args.theta, args.kappa, n_rect=args.n_rect,
                         prime_cutoff=_cutoff(args))
    result = dataclasses.asdict(ks)
    if args.A is not None:
        result["c1"] = cst.c1_from_set(args.A, ks)
        result["c1_prime"] = cst.c1_prime_from_set(args.A, ks)
    return _emit({"params": _echo(args), "constants": result},
                 args.output_format)


def _optimize(args: argparse.Namespace, N: int) -> bnd.BoundReport:
    return bnd.optimize(N, kappa=args.kappa, theta_grid_size=args.theta_grid,
                        n_rect=args.n_rect, prime_cutoff=_cutoff(args))


def _run_optimize(args: argparse.Namespace) -> str:
    report = _optimize(args, args.N)
    return _emit({"params": _echo(args),
                  "result": dataclasses.asdict(report)}, args.output_format)


_TABLE_HEADER = f"{'N':>6}  {'A':>14}  {'theta':>10}  {'bound':>12}"


def _table_row(r: bnd.BoundReport) -> str:
    return (f"{r.N:>6d}  {r.A_star:>14.6e}  {r.theta_star:>10.6f}  "
            f"{r.bound:>12.4e}")


def _run_table(args: argparse.Namespace) -> str:
    reports = [_optimize(args, n) for n in bnd.DEFAULT_TABLE_N]
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


_HANDLERS = {
    "constants": _run_constants,
    "optimize": _run_optimize,
    "table": _run_table,
    "asymptotic": _run_asymptotic,
    "mollify": _run_mollify,
    "detect": _run_detect,
}


# ------------------------------------------------------------------ parsing

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime-cutoff", type=int, default=None,
                        help="Euler-product prime cutoff (default 10^6)")
    common.add_argument("--output", dest="output_path", default=None,
                        help="write to this path instead of stdout")

    parser = argparse.ArgumentParser(
        prog="critline",
        description="Critical-line zero-proportion bounds and a mollified "
                    "zero-detection demonstrator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(command: str, text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(command, parents=[common], help=text)
        p.add_argument("--format", dest="output_format",
                       choices=_FORMATS[command],
                       default=_FORMATS[command][0],
                       help=f"output format (default {_FORMATS[command][0]})")
        return p

    p_const = add_command("constants", "constant set at one (theta, kappa)")
    p_const.add_argument("--theta", type=float, required=True)
    p_const.add_argument("--kappa", type=float, default=0.125)
    p_const.add_argument("--A", type=float, default=None,
                         help="also report c1 and c1' at this A")
    p_const.add_argument("--n-rect", type=int, default=100)

    p_opt = add_command("optimize", "best (A, theta) and bound for one N")
    p_opt.add_argument("--N", type=int, required=True)
    p_opt.add_argument("--kappa", type=float, default=0.125)
    p_opt.add_argument("--n-rect", type=int, default=100)
    p_opt.add_argument("--theta-grid", type=int, default=10000)

    p_tab = add_command("table", "the eight reference rows")
    p_tab.add_argument("--kappa", type=float, default=0.125)
    p_tab.add_argument("--n-rect", type=int, default=100)
    p_tab.add_argument("--theta-grid", type=int, default=10000)

    p_asy = add_command("asymptotic", "large-N constants and bound at (N, eps)")
    p_asy.add_argument("--N", type=float, required=True)
    p_asy.add_argument("--eps", type=float, required=True)
    p_asy.add_argument("--kappa", type=float, default=0.125)

    def add_mollifier_flags(p: argparse.ArgumentParser,
                            default_t_hi: float) -> None:
        p.add_argument("--t-lo", type=float, default=0.0)
        p.add_argument("--t-hi", type=float, default=default_t_hi)
        p.add_argument("--xi", type=float, default=50.0)
        p.add_argument("--theta", type=float, default=0.5)
        p.add_argument("--variant", default="piecewise",
                       choices=("piecewise", "selberg"))
        p.add_argument("--H", type=float, default=1.0)
        p.add_argument("--quad-step", type=float, default=None,
                       help="scan/quadrature spacing (default H/64)")

    p_mol = add_command("mollify", "figure data: t, X, mollified traces")
    add_mollifier_flags(p_mol, 100.0)
    p_mol.add_argument("--step", type=float, default=0.05,
                       help="output grid spacing")

    p_det = add_command("detect", "mollified zero scan with window statistics")
    add_mollifier_flags(p_det, 100.0)

    return parser


# ----------------------------------------------------------------- dispatch

def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; returns the process exit code."""
    try:
        artifact = _HANDLERS[args.command](args)
    except OptimizerError as exc:
        _diagnostic(exc)
        return 4
    except CritlineError as exc:
        _diagnostic(exc)
        return 3
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8") as fh:
            fh.write(artifact)
    else:
        sys.stdout.write(artifact)
    return 0


def _diagnostic(exc: Exception) -> None:
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc)},
        sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
