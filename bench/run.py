"""critline benchmark: timed CLI invocations with checked outputs.

    python3 bench/run.py --workload table --seed 0 --seconds 36 --trace 0

One client drives the critline CLI in a closed loop: every invocation is a
fresh interpreter, started only after the previous one has exited.  The
seed chooses the workload's inputs; the program only sees the generated
arguments.  Outputs are checked after timing.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 every round runs untraced
and traced, and the run reports the per-layer metrics of the traced
half.  The last line of standard output is one JSON object: correct,
attempted, failed and metrics.  See bench/README.md for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("table", "detect_high", "quick")
END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}

CHILD_TIMEOUT_S = 150
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# The chain anchor of tests/reference_values.py (CHAIN_THETA, CHAIN_A).
CONSTANTS_ARGV = ["constants", "--theta", "0.011", "--A", "29056699.107509706"]
ASYMPTOTIC_ARGV = ["asymptotic", "--N", "1e20", "--eps", "0.01"]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "coverage")):
        return "ratio"
    return "count"


PER_LAYER_EXTRA = ("cli.import_s", "trace.solve_s", "trace.overhead_s",
                   "trace.coverage")
PER_LAYER = {name: _unit(name) for name in
             (*PER_LAYER_EXTRA, *spans.layer_metrics(Counter()))}


def _detect_argv(t_lo: float) -> list[str]:
    t_lo = round(t_lo, 3)
    return ["detect", "--t-lo", f"{t_lo:.3f}", "--t-hi", f"{t_lo + 100.0:.3f}"]


def workload_argvs(name: str, seed: int) -> list[list[str]]:
    """The CLI argument lists of one round of a workload."""
    rng = random.Random(seed)
    if name == "table":
        return [["table"]]
    if name == "detect_high":
        return [_detect_argv(9800.0 + 100.0 * rng.random())]
    if name == "quick":
        # A narrow T range: over [0, 100) the detect cost moves by +-13 %
        # between seeds, more than run-to-run noise.
        return [CONSTANTS_ARGV, ASYMPTOTIC_ARGV,
                _detect_argv(10.0 * rng.random())]
    raise ValueError(f"unknown workload {name!r}")


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_VARS:
        env[var] = str(threads)
    return env


def invoke(argv: list[str] | None, env: dict, trace: bool = False) -> dict:
    """Run one fresh interpreter; wall_s is measured here, start to exit."""
    spec = json.dumps({"argv": argv, "trace": trace})
    record = {"argv": argv, "trace": trace}
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), spec], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record.update(wall_s=time.perf_counter() - start,
                      error=f"timed out after {CHILD_TIMEOUT_S} s")
        return record
    record["wall_s"] = time.perf_counter() - start
    try:
        record.update(json.loads(proc.stdout.splitlines()[-1]))
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:]
        record["error"] = f"child exited {proc.returncode}: {tail}"
        return record
    if SRC.resolve() not in Path(record["origin"]).resolve().parents:
        record["error"] = f"critline imported from {record['origin']}"
    return record


def closed_loop(argvs, seconds: float, env: dict, modes=(False,)) -> list:
    """Rounds of invocations, one after another, while another round fits.

    A round runs every argv once per entry of modes (False untraced, True
    traced); the order of the modes alternates from round to round.  At
    least one round runs.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        order = modes if len(rounds) % 2 == 0 else modes[::-1]
        rounds.append([invoke(argv, env, trace)
                       for trace in order for argv in argvs])
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return rounds


def check_outputs(invocations: list[dict], checker: checks.Checker) -> list[str]:
    """One line per failed invocation; identical outputs are checked once."""
    verdicts: dict[tuple, list[str]] = {}
    failures = []
    for inv in invocations:
        if "error" in inv:
            problems = [inv["error"]]
        elif inv["exit_code"] != 0:
            problems = [f"exit code {inv['exit_code']}"]
        else:
            key = (tuple(inv["argv"]), inv["stdout"])
            if key not in verdicts:
                verdicts[key] = checker.check(inv["argv"], inv["stdout"])
            problems = verdicts[key]
        if problems:
            failures.append(f"critline {' '.join(inv['argv'])}: "
                            + "; ".join(problems))
    return failures


def _complete(rounds: list) -> list:
    """The rounds in which every invocation ran to its end."""
    return [r for r in rounds if all("error" not in i for i in r)]


def end_to_end(rounds: list) -> tuple[dict, dict]:
    """Metric values and their sample counts from an untraced run."""
    procs = [i for r in rounds for i in r if "error" not in i]
    ok_rounds = _complete(rounds)
    raw = {
        "wall_s": [sum(i["wall_s"] for i in r) for r in ok_rounds],
        "setup_s": [p["import_s"] for p in procs],
        "solve_s": [sum(i["solve_s"] for i in r) for r in ok_rounds],
    }
    values = {name: statistics.median(v) for name, v in raw.items()}
    values["peak_rss_mb"] = max(p["maxrss_kb"] for p in procs) / 1024.0
    samples = {"wall_s": f"median of {len(ok_rounds)} rounds",
               "setup_s": f"median of {len(procs)} processes",
               "solve_s": f"median of {len(ok_rounds)} rounds",
               "peak_rss_mb": f"max of {len(procs)} processes",
               "raw": raw}
    return values, samples


def per_layer(rounds: list) -> tuple[dict, dict]:
    """Per-layer values (medians over traced rounds) and the overhead."""
    ok_rounds = _complete(rounds)
    per_round = []
    for r in ok_rounds:
        traced = [i for i in r if i["trace"]]
        totals = Counter()
        for inv in traced:
            totals.update(spans.layer_totals(inv["spans"]))
        solve = sum(i["solve_s"] for i in traced)
        row = spans.layer_metrics(totals)
        row["trace.solve_s"] = solve
        row["trace.coverage"] = totals["trace.covered_s"] / solve
        row["untraced_solve_s"] = sum(i["solve_s"] for i in r if not i["trace"])
        per_round.append(row)
    values = {name: statistics.median(row[name] for row in per_round)
              for name in per_round[0]}
    values["trace.overhead_s"] = (values["trace.solve_s"]
                                  - values.pop("untraced_solve_s"))
    values["cli.import_s"] = statistics.median(
        i["import_s"] for r in ok_rounds for i in r if i["trace"])
    samples = {"rounds": len(ok_rounds)}
    return {name: values[name] for name in PER_LAYER}, samples


def environment(invocations: list[dict], threads: int) -> dict:
    versions = next((i["versions"] for i in invocations if "versions" in i), {})
    return {"nproc": os.cpu_count(), "blas_threads": threads,
            "blas_vars": list(BLAS_VARS), **versions}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 checker: checks.Checker) -> dict:
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    argvs = workload_argvs(name, seed)
    # Untimed: fills the bytecode and file caches before the first round.
    invoke(None, env)
    rounds = closed_loop(argvs, seconds, env,
                         modes=(False, True) if trace else (False,))
    invocations = [inv for r in rounds for inv in r]
    failures = check_outputs(invocations, checker)
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "argv": [["critline", *argv] for argv in argvs],
              "environment": environment(invocations, threads)}
    if not _complete(rounds):
        raise RuntimeError(f"{name}: no round completed; {failures[:3]}")
    if trace:
        values, samples = per_layer(rounds)
        units = PER_LAYER
        missing = sorted({m for i in invocations for m in i.get("missing", [])})
        record["unwrapped"] = missing
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{name}-seed{seed}.json"
        path.write_text(json.dumps({**record, "rounds": [
            [{"argv": i["argv"], "spans": i["spans"]} for i in r if i["trace"]]
            for r in rounds]}))
    else:
        values, samples = end_to_end(rounds)
        units = END_TO_END
    record["samples"] = samples
    print("record " + json.dumps(record, sort_keys=True))
    for metric, unit in units.items():
        note = samples.get(metric, "")
        print(f"  {metric:<36} {values[metric]:>14.6g} {unit:<6} {note}")
    print(f"  {'error_rate':<36} {len(failures) / len(invocations):>14.6g} "
          f"{'ratio':<6} {len(failures)} of {len(invocations)} invocations failed")
    for line in failures[:10]:
        print("  FAILED " + line)
    return {"correct": not failures, "attempted": len(invocations),
            "failed": len(failures),
            "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "critline" / "cli.py").is_file():
        print(f"error: no critline sources at {SRC}", file=sys.stderr)
        return 2
    checker = checks.Checker(checks.load_reference(ROOT))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), checker) for name in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
