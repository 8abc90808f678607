"""Command-line surface for the toolkit.

Six subcommands:

  constants   constant set at one (theta, kappa); add --A for c1, c1'
  optimize    best (A, theta) and bound for one N
  table       the eight reference rows N = 1,2,3,4,5,10,100,1000
  asymptotic  large-N constants and explicit bound at (N, eps)
  mollify     critical-line figure data as CSV
  detect      mollified sign-change zero scan with window statistics

JSON is the default machine format (every record echoes its inputs);
`table` defaults to aligned text and `mollify` to CSV.  Identical
invocations produce byte-identical output.  Exit codes: 0 success,
2 usage, 3 domain/range/consistency error, 4 infeasible optimization.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from . import bound as bnd
from . import constants as cst
from . import mollifier as mo
from .errors import CritlineError, OptimizerError

_COMMANDS = ("constants", "optimize", "table", "asymptotic", "mollify",
             "detect")

_FORMATS: Dict[str, tuple] = {
    "constants": ("json", "text"),
    "optimize": ("json", "text"),
    "table": ("text", "json", "csv"),
    "asymptotic": ("json", "text"),
    "mollify": ("csv", "json"),
    "detect": ("json",),
}


@dataclass(frozen=True)
class RunConfig:
    """One fully parsed invocation; run(cfg) dispatches on command."""
    command: str
    params: Dict[str, object]
    n_rect: int = 100
    theta_grid: int = 10000
    prime_cutoff: Optional[int] = None
    output_format: str = "json"
    output_path: Optional[str] = None


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


def _echo(cfg: RunConfig, **extra) -> dict:
    record = {"command": cfg.command}
    record.update(cfg.params)
    record.update(extra)
    if cfg.prime_cutoff is not None:
        record["prime_cutoff"] = cfg.prime_cutoff
    return record


# ----------------------------------------------------------------- handlers

def _run_constants(cfg: RunConfig) -> str:
    theta = float(cfg.params["theta"])
    kappa = float(cfg.params["kappa"])
    ks = cst.k_constants(theta, kappa, n_rect=cfg.n_rect)
    result = dataclasses.asdict(ks)
    a_val = cfg.params.get("A")
    if a_val is not None:
        result["c1"] = cst.c1_from_set(float(a_val), ks)
        result["c1_prime"] = cst.c1_prime_from_set(float(a_val), ks)
    payload = {"params": _echo(cfg, n_rect=cfg.n_rect), "constants": result}
    if cfg.output_format == "text":
        return _text_record(payload)
    return _json_record(payload)


def _report_dict(report: bnd.BoundReport) -> dict:
    return dataclasses.asdict(report)


def _run_optimize(cfg: RunConfig) -> str:
    report = bnd.optimize(
        int(cfg.params["N"]),
        kappa=float(cfg.params["kappa"]),
        theta_grid_size=cfg.theta_grid,
        n_rect=cfg.n_rect,
    )
    payload = {
        "params": _echo(cfg, n_rect=cfg.n_rect, theta_grid=cfg.theta_grid),
        "result": _report_dict(report),
    }
    if cfg.output_format == "text":
        return _text_record(payload)
    return _json_record(payload)


_TABLE_HEADER = f"{'N':>6}  {'A':>14}  {'theta':>10}  {'bound':>12}"


def _table_row(r: bnd.BoundReport) -> str:
    return (f"{r.N:>6d}  {r.A_star:>14.6e}  {r.theta_star:>10.6f}  "
            f"{r.bound:>12.4e}")


def _run_table(cfg: RunConfig) -> str:
    reports = [
        bnd.optimize(n, kappa=float(cfg.params["kappa"]),
                     theta_grid_size=cfg.theta_grid, n_rect=cfg.n_rect)
        for n in bnd.DEFAULT_TABLE_N
    ]
    if cfg.output_format == "json":
        payload = {
            "params": _echo(cfg, n_rect=cfg.n_rect,
                            theta_grid=cfg.theta_grid),
            "rows": [_report_dict(r) for r in reports],
        }
        return _json_record(payload)
    if cfg.output_format == "csv":
        lines = ["N,A,theta,bound"]
        lines += [f"{r.N:d},{r.A_star:.10g},{r.theta_star:.10g},"
                  f"{r.bound:.10g}" for r in reports]
        return "\n".join(lines) + "\n"
    lines = [_TABLE_HEADER] + [_table_row(r) for r in reports]
    return "\n".join(lines) + "\n"


def _run_asymptotic(cfg: RunConfig) -> str:
    n_val = float(cfg.params["N"])
    eps = float(cfg.params["eps"])
    kappa = float(cfg.params["kappa"])
    aset = bnd.asymptotic_constants(eps, kappa)
    value = bnd.asymptotic_bound(n_val, eps, kappa)
    payload = {
        "params": _echo(cfg),
        "constants": dataclasses.asdict(aset),
        "bound": value,
    }
    if cfg.output_format == "text":
        return _text_record(payload)
    return _json_record(payload)


def _mollifier_config(params: Dict[str, object]) -> mo.MollifierConfig:
    return mo.MollifierConfig(
        xi=float(params["xi"]),
        theta=float(params["theta"]),
        variant=str(params["variant"]),
        t_lo=float(params["t_lo"]),
        t_hi=float(params["t_hi"]),
        H=float(params["H"]),
        quad_step=params["quad_step"],
    )


def _run_mollify(cfg: RunConfig) -> str:
    mcfg = _mollifier_config(cfg.params)
    step = float(cfg.params["step"])
    rows = mo.figure_data(mcfg.t_lo, mcfg.t_hi, step, mcfg)
    if cfg.output_format == "json":
        payload = {
            "params": _echo(cfg),
            "columns": ["t", "x", "x_mollified", "x_mollified_selberg"],
            "rows": [[float(v) for v in row] for row in rows],
        }
        return _json_record(payload)
    lines = ["t,x,x_mollified,x_mollified_selberg"]
    lines += [f"{r[0]:.10g},{r[1]:.10g},{r[2]:.10g},{r[3]:.10g}"
              for r in rows]
    return "\n".join(lines) + "\n"


def _run_detect(cfg: RunConfig) -> str:
    mcfg = _mollifier_config(cfg.params)
    found = mo.mollified_scan(mcfg.t_lo, mcfg.t_hi, mcfg)
    windows = [{
        "t": stats.t,
        "H": stats.H,
        "I": stats.I,
        "J": stats.J,
        "m_re": stats.M_val.real,
        "m_im": stats.M_val.imag,
        "sign_changes": stats.sign_changes,
    } for stats in found.windows]
    payload = {
        "params": _echo(cfg),
        "count": found.count,
        "ordinates": found.ordinates,
        "windows": windows,
    }
    return _json_record(payload)


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
    common.add_argument("--format", dest="output_format", default=None,
                        choices=("json", "csv", "text"),
                        help="output format (per-command default)")
    common.add_argument("--output", dest="output_path", default=None,
                        help="write to this path instead of stdout")

    parser = argparse.ArgumentParser(
        prog="critline",
        description="Critical-line zero-proportion bounds and a mollified "
                    "zero-detection demonstrator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser(
        "constants", parents=[common],
        help="constant set at one (theta, kappa)")
    p_const.add_argument("--theta", type=float, required=True)
    p_const.add_argument("--kappa", type=float, default=0.125)
    p_const.add_argument("--A", type=float, default=None,
                         help="also report c1 and c1' at this A")
    p_const.add_argument("--n-rect", type=int, default=100)

    p_opt = sub.add_parser(
        "optimize", parents=[common],
        help="best (A, theta) and bound for one N")
    p_opt.add_argument("--N", type=int, required=True)
    p_opt.add_argument("--kappa", type=float, default=0.125)
    p_opt.add_argument("--n-rect", type=int, default=100)
    p_opt.add_argument("--theta-grid", type=int, default=10000)

    p_tab = sub.add_parser(
        "table", parents=[common],
        help="the eight reference rows")
    p_tab.add_argument("--kappa", type=float, default=0.125)
    p_tab.add_argument("--n-rect", type=int, default=100)
    p_tab.add_argument("--theta-grid", type=int, default=10000)

    p_asy = sub.add_parser(
        "asymptotic", parents=[common],
        help="large-N constants and bound at (N, eps)")
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

    p_mol = sub.add_parser(
        "mollify", parents=[common],
        help="figure data: t, X, mollified traces")
    add_mollifier_flags(p_mol, 100.0)
    p_mol.add_argument("--step", type=float, default=0.05,
                       help="output grid spacing")

    p_det = sub.add_parser(
        "detect", parents=[common],
        help="mollified zero scan with window statistics")
    add_mollifier_flags(p_det, 100.0)

    return parser


_PARAM_KEYS = {
    "constants": ("theta", "kappa", "A"),
    "optimize": ("N", "kappa"),
    "table": ("kappa",),
    "asymptotic": ("N", "eps", "kappa"),
    "mollify": ("t_lo", "t_hi", "step", "xi", "theta", "variant", "H",
                "quad_step"),
    "detect": ("t_lo", "t_hi", "xi", "theta", "variant", "H", "quad_step"),
}


def _config_from_args(parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> RunConfig:
    command = args.command
    fmt = args.output_format or _FORMATS[command][0]
    if fmt not in _FORMATS[command]:
        parser.error(f"format {fmt!r} not supported by {command!r} "
                     f"(choose from {_FORMATS[command]})")
    params = {key: getattr(args, key) for key in _PARAM_KEYS[command]}
    return RunConfig(
        command=command,
        params=params,
        n_rect=getattr(args, "n_rect", 100),
        theta_grid=getattr(args, "theta_grid", 10000),
        prime_cutoff=args.prime_cutoff,
        output_format=fmt,
        output_path=args.output_path,
    )


# ----------------------------------------------------------------- dispatch

def run(cfg: RunConfig) -> int:
    """Execute one parsed invocation; returns the process exit code.

    A --prime-cutoff value is set in CRITLINE_PRIME_CUTOFF only for the
    duration of the handler; the previous value is restored afterwards.
    """
    previous = os.environ.get("CRITLINE_PRIME_CUTOFF")
    if cfg.prime_cutoff is not None:
        os.environ["CRITLINE_PRIME_CUTOFF"] = str(cfg.prime_cutoff)
    try:
        artifact = _HANDLERS[cfg.command](cfg)
    except OptimizerError as exc:
        _diagnostic(exc)
        return 4
    except CritlineError as exc:
        _diagnostic(exc)
        return 3
    finally:
        if previous is None:
            os.environ.pop("CRITLINE_PRIME_CUTOFF", None)
        else:
            os.environ["CRITLINE_PRIME_CUTOFF"] = previous
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(artifact)
    else:
        sys.stdout.write(artifact)
    return 0


def _diagnostic(exc: Exception) -> None:
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc)},
        sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return run(_config_from_args(parser, args))


if __name__ == "__main__":
    sys.exit(main())
