"""Self-tests of the benchmark: span arithmetic, output checks, inputs.

    python3 -m pytest bench -q
"""

import json
import math
from collections import Counter
from pathlib import Path

import pytest

import checks
import run
import spans

REFERENCE = checks.load_reference(run.ROOT)


def _span(index, name, parent, start, end, **counts):
    return {"index": index, "name": name, "parent": parent, "start": start,
            "end": end, "counts": Counter(counts)}


# ------------------------------------------------------------ span arithmetic

def test_covered_merges_overlaps_and_clips():
    assert spans.covered([(1, 3), (2, 5), (9, 12)], 0, 10) == 5
    assert spans.covered([], 0, 10) == 0
    assert spans.covered([(4, 6), (1, 2)], 0, 10) == 3


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span(0, "bound.optimize", None, 0.0, 10.0),
        _span(1, "constants.k_table", 0, 1.0, 6.0),
        _span(2, "roots.bisect_vec", 1, 2.0, 5.0),
        _span(3, "roots.bisect_vec", 0, 7.0, 8.0),
    ]
    assert spans.self_times(tree) == [4.0, 2.0, 3.0, 1.0]
    assert spans.top_level_time(tree) == 10.0


def test_layer_totals_add_up_and_count_cache_hits():
    tree = [
        _span(0, "bound.optimize", None, 0.0, 4.0),
        _span(1, "bound.grid_cache", 0, 0.0, 3.0),
        _span(2, "constants.k_table", 1, 0.0, 3.0, rows=10),
        _span(3, "bound.optimize", None, 5.0, 6.0),
        _span(4, "bound.grid_cache", 3, 5.0, 5.5),
        _span(5, "specfun.zeta", None, 7.0, 8.0, points=4, distinct=3),
    ]
    totals = spans.layer_totals(tree)
    assert totals["bound.optimize.calls"] == 2
    assert totals["bound.optimize.self_s"] == pytest.approx(1.5)
    assert totals["constants.k_table.rows"] == 10
    assert totals["bound.grid_cache.hits"] == 1
    assert totals["trace.covered_s"] == pytest.approx(6.0)
    metrics = spans.layer_metrics(totals)
    assert metrics["bound.grid_cache.hit_ratio"] == 0.5
    assert metrics["mollifier.zeta_reuse_ratio"] == 0.75
    assert spans.layer_metrics(Counter())["bound.grid_cache.hit_ratio"] == 0.0


def test_tracer_records_nesting_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda x: x + 1, "inner")

    def count_arg(span, fn, args, kwargs):
        span["counts"]["seen"] += args[0]
        return fn(*args, **kwargs)

    outer = tracer.wrap(lambda x: inner(x) * 2, "outer", count_arg)
    assert outer(3) == 8
    first, second = tracer.spans
    assert (first["name"], first["parent"], first["counts"]["seen"]) == ("outer", None, 3)
    assert (second["name"], second["parent"]) == ("inner", 0)
    assert spans.self_times(tracer.spans) == [2.0, 1.0]


# ------------------------------------------------------------ output checks

def _table_text(rows):
    lines = [f"{'N':>6}  {'A':>14}  {'theta':>10}  {'bound':>12}"]
    lines += [f"{n:>6d}  {a:>14.6e}  {t:>10.6f}  {b:>12.4e}" for n, a, t, b in rows]
    return "\n".join(lines) + "\n"


def test_table_check_accepts_reference_and_directed_shift():
    rows = REFERENCE.REFERENCE_TABLE
    assert checks.check_table(_table_text(rows), rows) == []
    shifted = [(n, a, t, b * (1.0 - 5e-6)) for n, a, t, b in rows]
    assert checks.check_table(_table_text(shifted), rows) == []


@pytest.mark.parametrize("corrupt", [
    lambda rows: [(n, a * 1.02, t, b) for n, a, t, b in rows],
    lambda rows: [(n, a, t, b * 0.99) for n, a, t, b in rows],
    lambda rows: rows[:-1],
    lambda rows: [(n + 1, a, t, b) for n, a, t, b in rows],
])
def test_table_check_rejects_corruption(corrupt):
    rows = REFERENCE.REFERENCE_TABLE
    assert checks.check_table(_table_text(corrupt(rows)), rows)
    assert checks.check_table("garbage\n", rows)


def _detect_text(count, ordinates):
    return json.dumps({"count": count, "ordinates": ordinates, "windows": []})


def test_detect_check_against_mpmath():
    checker = checks.Checker(REFERENCE)
    argv = ["detect", "--t-lo", "0.000", "--t-hi", "100.000"]
    good = [float(10 + 3 * k) for k in range(29)]   # 29 zeros on [0, 100]
    assert checker.check(argv, _detect_text(29, good)) == []
    assert checker.check(argv, _detect_text(30, good + [99.0]))
    assert checker.check(argv, _detect_text(28, good[:-1]))
    assert checker.check(argv, _detect_text(29, good[:-1] + [100.5]))
    assert checker.check(argv, _detect_text(29, good[:-1]))
    assert checker.check(argv, "not json")


def test_constants_check():
    c1 = REFERENCE.CHAIN_C1
    text = lambda v: json.dumps({"constants": {"c1": v}})
    assert checks.check_constants(text(c1 * (1.0 - 5e-6)), c1) == []
    assert checks.check_constants(text(c1 * (1.0 + 1e-3)), c1)
    assert checks.check_constants("{}", c1)


def test_asymptotic_check():
    target = REFERENCE.ASYMPTOTIC_COEF_TARGET
    lam = 2.0 * math.pi / (4.0 * target)
    text = lambda v: json.dumps({"constants": {"lambda_plus": v}})
    assert checks.check_asymptotic(text(lam * (1.0 + 5e-6)), target) == []
    assert checks.check_asymptotic(text(lam * 1.02), target)
    assert checks.check_asymptotic(text(0.0), target)


# ------------------------------------------------------------ inputs, file

def test_seeded_inputs_repeat_and_stay_in_range():
    for seed in range(6):
        assert run.workload_argvs("quick", seed) == run.workload_argvs("quick", seed)
        (high,) = run.workload_argvs("detect_high", seed)
        quick = run.workload_argvs("quick", seed)[2]
        assert 9800.0 <= float(high[2]) <= 9900.0
        assert 0.0 <= float(quick[2]) < 10.0
        assert float(high[4]) - float(high[2]) == pytest.approx(100.0)
    assert run.workload_argvs("detect_high", 0) != run.workload_argvs("detect_high", 1)
    assert run.workload_argvs("table", 3) == [["table"]]


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
