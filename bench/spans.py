"""Layer spans for the traced benchmark run, and the arithmetic on them.

The traced run wraps the module attributes through which one layer of
critline calls the next, so no code inside the program changes.  A name
bound with ``from ... import`` is wrapped in the importing module, because
that is the dictionary the call looks it up in.

Spans stay in memory as plain dicts (name, parent index, start, end,
counts) and are written out by the caller when the run ends.  A span's
self time is its duration minus the part of its interval that its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter

# (module, attribute, span name) for every layer boundary the traced run
# wraps.  The attribute is the name the calling module looks up.
LAYERS = (
    ("critline.specfun", "_zeta_critical_vec", "specfun.zeta"),
    ("critline.constants", "euler_product", "specfun.euler_product"),
    ("critline.roots", "_bisect_vec", "roots.bisect_vec"),
    ("critline.roots", "solve_bracketed", "roots.solve_bracketed"),
    ("critline.constants", "_k_table", "constants.k_table"),
    ("critline.constants", "k_constants", "constants.k_constants"),
    ("critline.bound", "optimize", "bound.optimize"),
    ("critline.bound", "_theta_grid_table", "bound.grid_cache"),
    ("critline.bound", "_optimize_A_vec", "bound.optimize_A_vec"),
    ("critline.bound", "optimize_A", "bound.optimize_A"),
    ("critline.bound", "asymptotic_constants", "bound.asymptotic_constants"),
    ("critline.mollifier", "detect_zeros", "mollifier.detect_zeros"),
    ("critline.mollifier", "_refine_crossings", "mollifier.refine"),
    ("critline.mollifier", "window_integrals", "mollifier.window_integrals"),
    ("critline.mollifier", "_eta_vec", "mollifier.eta"),
)

# Points of the ln A scan per theta row in the optimizer.
LN_A_SCAN_POINTS = 600

# Ordinates are rounded to this many decimals before they are compared,
# so the same node computed along two code paths counts once.
ORDINATE_DECIMALS = 9


class Tracer:
    """Records nested spans of wrapped calls in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def wrap(self, fn, name, hook=None):
        """Return fn wrapped in a span named name.

        hook(span, fn, args, kwargs) makes the call and may add to
        span["counts"]; by default the call is made unchanged.
        """
        call = hook or (lambda span, f, args, kwargs: f(*args, **kwargs))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name,
                    "parent": self._stack[-1]["index"] if self._stack else None,
                    "index": len(self.spans), "start": self.clock(),
                    "end": None, "counts": Counter()}
            self.spans.append(span)
            self._stack.append(span)
            try:
                return call(span, fn, args, kwargs)
            finally:
                span["end"] = self.clock()
                self._stack.pop()

        return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap every boundary in LAYERS; return the targets that were missing."""
    import numpy as np

    seen: set[float] = set()

    def zeta(span, fn, args, kwargs):
        t = np.asarray(args[0], dtype=float).ravel()
        tmax = float(np.max(np.abs(t))) if t.size else 0.0
        span["counts"]["points"] += t.size
        span["counts"]["terms"] += t.size * (int(3.0 * tmax / (2.0 * math.pi)) + 12)
        fresh = set(np.round(t, ORDINATE_DECIMALS).tolist()) - seen
        seen.update(fresh)
        span["counts"]["distinct"] += len(fresh)
        return fn(*args, **kwargs)

    def bisect(span, fn, args, kwargs):
        f, lo, hi, *rest = args

        def counted(x):
            y = f(x)
            span["counts"]["fevals"] += int(np.size(y))
            return y

        span["counts"]["elements"] += int(np.broadcast(lo, hi).size)
        return fn(counted, lo, hi, *rest, **kwargs)

    def solve(span, fn, args, kwargs):
        sol = fn(*args, **kwargs)
        span["counts"]["iterations"] += sol.iterations
        return sol

    def k_table(span, fn, args, kwargs):
        span["counts"]["rows"] += int(np.size(args[0]))
        return fn(*args, **kwargs)

    def optimize_a_vec(span, fn, args, kwargs):
        table = args[2] if len(args) > 2 else kwargs["table"]
        span["counts"]["scan_points"] += table["theta"].size * LN_A_SCAN_POINTS
        return fn(*args, **kwargs)

    def points(span, fn, args, kwargs):
        span["counts"]["points"] += int(np.size(args[0]))
        return fn(*args, **kwargs)

    hooks = {
        "specfun.zeta": zeta,
        "roots.bisect_vec": bisect,
        "roots.solve_bracketed": solve,
        "constants.k_table": k_table,
        "bound.optimize_A_vec": optimize_a_vec,
        "mollifier.refine": points,
        "mollifier.eta": points,
    }
    missing = []
    for module_name, attr, name in LAYERS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(fn, name, hooks.get(name)))
    return missing


# ------------------------------------------------------------- arithmetic

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return [span["end"] - span["start"]
            - covered(kids, span["start"], span["end"])
            for span, kids in zip(spans, children)]


def top_level_time(spans: list[dict]) -> float:
    """Time covered by spans that have no parent span."""
    tops = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    if not tops:
        return 0.0
    return covered(tops, min(a for a, _ in tops), max(b for _, b in tops))


def layer_totals(spans: list[dict]) -> Counter:
    """Summable totals per layer: calls, self_s and every recorded count.

    Totals of several processes add up; layer_metrics turns the sum into
    the reported figures.
    """
    totals: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        name = span["name"]
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += own
        for key, value in span["counts"].items():
            totals[f"{name}.{key}"] += value
    built = {s["parent"] for s in spans if s["name"] == "constants.k_table"}
    totals["bound.grid_cache.hits"] += sum(
        1 for s in spans
        if s["name"] == "bound.grid_cache" and s["index"] not in built)
    totals["trace.covered_s"] += top_level_time(spans)
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0 when the layer did no work."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: Counter) -> dict[str, float]:
    """The per-layer figures reported by the traced run, from layer_totals."""
    names = (
        "specfun.zeta.calls", "specfun.zeta.points", "specfun.zeta.terms",
        "specfun.zeta.self_s",
        "specfun.euler_product.calls", "specfun.euler_product.self_s",
        "roots.bisect_vec.calls", "roots.bisect_vec.elements",
        "roots.bisect_vec.fevals", "roots.bisect_vec.self_s",
        "roots.solve_bracketed.calls", "roots.solve_bracketed.iterations",
        "roots.solve_bracketed.self_s",
        "constants.k_table.calls", "constants.k_table.rows",
        "constants.k_table.self_s",
        "constants.k_constants.calls", "constants.k_constants.self_s",
        "bound.optimize.calls", "bound.optimize_A_vec.self_s",
        "bound.optimize_A_vec.scan_points",
        "bound.optimize_A.calls", "bound.optimize_A.self_s",
        "bound.asymptotic_constants.self_s",
        "mollifier.detect_zeros.self_s",
        "mollifier.refine.points", "mollifier.refine.self_s",
        "mollifier.window_integrals.calls", "mollifier.window_integrals.self_s",
        "mollifier.eta.points", "mollifier.eta.self_s",
    )
    metrics = {name: totals[name] for name in names}
    metrics["bound.grid_cache.hit_ratio"] = _ratio(
        totals["bound.grid_cache.hits"], totals["bound.optimize.calls"])
    metrics["mollifier.zeta_reuse_ratio"] = _ratio(
        totals["specfun.zeta.distinct"], totals["specfun.zeta.points"])
    return metrics
