"""Correctness checks on the output of each benchmarked CLI invocation.

Each check returns a list of problems; an empty list means the output is
correct.  The checks run after timing and count towards the failed
invocations.  The tolerances leave room for a directed (pessimistic)
evaluation of the bound, which moves values by about 5e-6 relative.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

# Relative tolerance on c1 against the frozen anchor; 20 times the
# expected directed shift, far below any real change of the chain.
C1_REL_TOL = 1.0e-4
# Relative tolerance on 2 pi / (4 lambda+) against its target.
ASYMPTOTIC_REL_TOL = 0.01
# Relative tolerance on A* against the reference table.
TABLE_A_REL_TOL = 0.01


def load_reference(root: Path):
    """The frozen anchors in tests/reference_values.py of the checkout."""
    path = root / "tests" / "reference_values.py"
    spec = importlib.util.spec_from_file_location("reference_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_table(text: str, reference) -> list[str]:
    """Criterion 1's rule: A* within 1 %, bound not below the quoted value
    minus half a unit in its last quoted digit."""
    lines = text.splitlines()
    if not lines or lines[0].split() != ["N", "A", "theta", "bound"]:
        return ["table header missing"]
    rows = [line.split() for line in lines[1:] if line.strip()]
    if len(rows) != len(reference):
        return [f"{len(rows)} table rows, expected {len(reference)}"]
    problems = []
    for (n, a_ref, _theta, b_ref), row in zip(reference, rows):
        try:
            n_out, a_out, b_out = int(row[0]), float(row[1]), float(row[3])
        except (IndexError, ValueError):
            problems.append(f"unreadable row {row!r}")
            continue
        if n_out != n:
            problems.append(f"row N={n_out}, expected N={n}")
        if not abs(a_out - a_ref) <= TABLE_A_REL_TOL * a_ref:
            problems.append(f"N={n}: A* {a_out:.6e} not within 1% of {a_ref:.6e}")
        exp10 = math.floor(math.log10(b_ref))
        if not b_out >= b_ref - 0.5 * 10.0 ** (exp10 - 2):
            problems.append(f"N={n}: bound {b_out:.4e} below quoted {b_ref:.2e}")
    return problems


def check_detect(text: str, t_lo: float, t_hi: float, expected: int) -> list[str]:
    """The zero count must equal the independent count on [t_lo, t_hi]."""
    try:
        out = json.loads(text)
        count, ordinates = int(out["count"]), [float(t) for t in out["ordinates"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable detect output: {exc}"]
    problems = []
    if count != expected:
        problems.append(f"count {count} on [{t_lo}, {t_hi}], expected {expected}")
    if len(ordinates) != count:
        problems.append(f"{len(ordinates)} ordinates for count {count}")
    if any(not t_lo <= t <= t_hi for t in ordinates):
        problems.append("an ordinate lies outside the window")
    return problems


def check_constants(text: str, c1_ref: float) -> list[str]:
    """c1 at the chain anchor must match the frozen value."""
    try:
        c1 = float(json.loads(text)["constants"]["c1"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable constants output: {exc}"]
    if not abs(c1 - c1_ref) <= C1_REL_TOL * abs(c1_ref):
        return [f"c1 {c1!r} differs from anchor {c1_ref!r}"]
    return []


def check_asymptotic(text: str, coef_target: float) -> list[str]:
    """2 pi / (4 lambda+) must be within 1 % of its target."""
    try:
        lam = float(json.loads(text)["constants"]["lambda_plus"])
        coef = 2.0 * math.pi / (4.0 * lam)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable asymptotic output: {exc}"]
    if not abs(coef - coef_target) <= ASYMPTOTIC_REL_TOL * coef_target:
        return [f"2pi/(4 lambda+) = {coef:.4e}, target {coef_target:.3e}"]
    return []


class Checker:
    """Checks one invocation's output by its subcommand.

    The constants and asymptotic checks hold at the arguments the
    benchmark's workloads pass; the detect oracle is mpmath.nzeros.
    """

    def __init__(self, reference):
        self.reference = reference
        self._nzeros: dict[float, int] = {}

    def zeros_up_to(self, t: float) -> int:
        if t not in self._nzeros:
            import mpmath
            self._nzeros[t] = int(mpmath.nzeros(t))
        return self._nzeros[t]

    def check(self, argv: list[str], text: str) -> list[str]:
        command = argv[0]
        ref = self.reference
        if command == "table":
            return check_table(text, ref.REFERENCE_TABLE)
        if command == "detect":
            t_lo = float(argv[argv.index("--t-lo") + 1])
            t_hi = float(argv[argv.index("--t-hi") + 1])
            expected = self.zeros_up_to(t_hi) - self.zeros_up_to(t_lo)
            return check_detect(text, t_lo, t_hi, expected)
        if command == "constants":
            return check_constants(text, ref.CHAIN_C1)
        if command == "asymptotic":
            return check_asymptotic(text, ref.ASYMPTOTIC_COEF_TARGET)
        return [f"no check for {command!r}"]
