"""Acceptance criteria, one test and one printed verdict line per criterion.

Each criterion is exercised at its stated tolerance; a test prints
"CRITERION n PASS: ..." (or FAIL with details) and asserts the verdict.
Run with `pytest -v` for the per-criterion pass/fail lines, or add `-s`
to see the printed verdicts inline.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from critline import bound as bnd
from critline import constants as cst
from critline import mollifier as mo
from critline import roots, specfun

from reference_values import (
    ASYMPTOTIC_COEF_TARGET,
    ASYMPTOTIC_N0_KAPPA,
    ASYMPTOTIC_N0_TARGET,
    REFERENCE_TABLE,
)


def _verdict(num: int, name: str, failures: list, detail: str = "") -> None:
    ok = not failures
    line = f"CRITERION {num} {'PASS' if ok else 'FAIL'}: {name}"
    extra = "; ".join(failures) if failures else detail
    if extra:
        line += f" [{extra}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def warm_euler():
    """Euler-product warm-up; table timing is measured after this."""
    specfun.euler_product("P1", cst.PRIME_CUTOFF)
    specfun.euler_product("P2", cst.PRIME_CUTOFF)


# --------------------------------------------------------------- criterion 1

def test_criterion_1_table_reproduction(warm_euler):
    failures = []
    for n, a_ref, theta_ref, b_ref in REFERENCE_TABLE:
        p = cst.Params(N=n, theta=theta_ref, A=a_ref)
        at_ref = (bnd.lower_bound_single(p) if n == 1
                  else bnd.lower_bound_general(p))
        exp10 = math.floor(math.log10(b_ref))
        # rounding-compatible with the quoted significant figures
        if abs(at_ref - b_ref) > 0.5 * 10.0 ** (exp10 - 1):
            failures.append(f"N={n}: bound at reference point {at_ref:.4e} "
                            f"not rounding-compatible with {b_ref:.2e}")
        start = time.perf_counter()
        rep = bnd.optimize(n)
        elapsed = time.perf_counter() - start
        if elapsed >= 60.0:
            failures.append(f"N={n}: optimize took {elapsed:.1f}s")
        if abs(rep.A_star - a_ref) > 0.01 * a_ref:
            failures.append(f"N={n}: A* {rep.A_star:.6e} deviates "
                            f"more than 1% from {a_ref:.6e}")
        # >= the quoted bound, allowing its own last-digit rounding
        if rep.bound < b_ref - 0.5 * 10.0 ** (exp10 - 2):
            failures.append(f"N={n}: optimized bound {rep.bound:.4e} "
                            f"below quoted {b_ref:.2e}")
        if rep.bound < at_ref * (1.0 - 1e-6):
            failures.append(f"N={n}: optimizer worse than reference point")
    _verdict(1, "table rows reproduce and re-optimize", failures,
             f"{len(REFERENCE_TABLE)} rows")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_large_n_constants():
    failures = []
    aset = bnd.asymptotic_constants(1e-3, 0.125)
    coef = 2.0 * math.pi / (4.0 * aset.lambda_plus)
    if abs(coef - ASYMPTOTIC_COEF_TARGET) > 0.01 * ASYMPTOTIC_COEF_TARGET:
        failures.append(f"2pi/(4 lambda+) = {coef:.4e} off "
                        f"{ASYMPTOTIC_COEF_TARGET:.3e} by more than 1%")
    n0 = bnd.asymptotic_constants(1e-3, ASYMPTOTIC_N0_KAPPA).n0
    if abs(n0 - ASYMPTOTIC_N0_TARGET) > 0.10 * ASYMPTOTIC_N0_TARGET:
        failures.append(f"N0 = {n0:.4e} off {ASYMPTOTIC_N0_TARGET:.2e} "
                        f"by more than 10%")
    _verdict(2, "large-N constants", failures,
             f"coef {coef:.4e}, N0 {n0:.3e}")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_root_solvers():
    failures = []
    for theta in np.linspace(0.0, 0.99, 100):
        sol = roots.rho_theta(float(theta))
        if not 0.5 < sol.value < 1.0:
            failures.append(f"rho({theta:.3f}) = {sol.value} outside (1/2,1)")
        if abs(sol.residual) >= 1e-12:
            failures.append(f"rho({theta:.3f}) residual {sol.residual:.2e}")
        reduced = roots.rho_lemma_a(0.0, float(theta)).value
        if abs(reduced - sol.value) > 1e-10:
            failures.append(f"rho_lemma_a(0,{theta:.3f}) != rho_theta")
    _verdict(3, "root solvers", failures, "100 grid points")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_euler_products():
    failures = []
    for kind in ("P1", "P2"):
        lo = specfun.euler_product(kind, 10 ** 5)
        hi = specfun.euler_product(kind, 10 ** 7)
        gap = abs(math.log(hi.value) - math.log(lo.value))
        if gap > lo.tail_bound:
            failures.append(f"{kind}: cutoff gap {gap:.2e} exceeds "
                            f"tail bound {lo.tail_bound:.2e}")
        vals = [specfun.euler_product(kind, c).value
                for c in (10, 10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)]
        if not all(a < b for a, b in zip(vals, vals[1:])):
            failures.append(f"{kind}: partial products not monotone")
    _verdict(4, "euler products", failures, "tail bounds and monotonicity")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_constant_identities():
    failures = []
    rng = np.random.default_rng(20260819)
    p1 = specfun.euler_product("P1", cst.PRIME_CUTOFF).value
    for _ in range(50):
        theta = float(rng.uniform(0.001, 0.9))
        kappa = float(rng.uniform(0.01, 0.125))
        v5 = cst.c5(theta, kappa)
        want = (1.0 / (8.0 * kappa) + 1.5) * 16.0 * kappa ** 2 * v5 ** 4 * p1
        got = cst.c3(theta, kappa)
        if abs(got - want) > 1e-9 * abs(want):
            failures.append(f"c3 identity fails at ({theta:.3f},{kappa:.3f})")
        if abs(cst.c6(0.0, theta, kappa) - v5) > 1e-9 * v5:
            failures.append(f"c6(0) != c5 at ({theta:.3f},{kappa:.3f})")
    _verdict(5, "constant identities", failures, "50 random domain points")


# --------------------------------------------------------------- criterion 6

def test_criterion_6_delta_bounds():
    failures = []
    worst = 0.0
    for x in np.linspace(0.0, 50.0, 200):
        ref = 2.0 * math.sqrt(math.pi) * np.exp(-0.75j * math.pi) * (x - 1.0) \
            - 4.0
        err = abs(specfun.delta_r(float(x), 2) - ref)
        worst = max(worst, err)
        if err > 16.0 / 3.0:
            failures.append(f"global Delta_2 bound fails at X={x:.2f}")
    # small-X branch bounds, 1e-8 slack for the quadrature itself
    for x in np.linspace(0.01, 1.0, 34):
        d2 = specfun.delta_r(float(x), 2)
        if abs(d2 + 4.0 * math.sqrt(x)) > (4.0 / 3.0) * x ** 1.5 + 1e-8:
            failures.append(f"small-X Delta_2 bound fails at X={x:.3f}")
        d3 = specfun.delta_r(float(x), 3)
        if abs(d3 + (8.0 / 3.0) * x ** 1.5) > (8.0 / 15.0) * x ** 2.5 + 1e-8:
            failures.append(f"small-X Delta_3 bound fails at X={x:.3f}")
    _verdict(6, "oscillatory integral bounds", failures,
             f"max global residual {worst:.3f} <= 16/3")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_quadrature_bracketing():
    failures = []
    theta, kappa, n_rect = 0.011, 0.125, 100
    hi = 1.0 / kappa
    h = hi / n_rect
    us = np.linspace(0.0, hi, n_rect + 1)
    vals = np.array([cst.c7(float(u), theta, kappa) for u in us])
    for weight, label in ((np.ones_like(us), "c7"), (us, "v*c7")):
        right = h * float(np.sum((weight * vals)[1:]))
        left = h * float(np.sum((weight * vals)[:-1]))
        if right < left:
            failures.append(f"right rectangle below left for {label}")
    right_ref, _, gap_100 = cst.integrate_c7(theta, kappa, n_rect=100)
    if abs(right_ref - h * float(np.sum(vals[1:]))) > 1e-9 * right_ref:
        failures.append("integrate_c7 disagrees with pointwise c7 sums")
    _, _, gap_200 = cst.integrate_c7(theta, kappa, n_rect=200)
    if not 0.45 * gap_100 <= gap_200 <= 0.55 * gap_100:
        failures.append(f"gap {gap_100:.3f} -> {gap_200:.3f} not halving")
    if not all(a <= b + 1e-12 for a, b in zip(vals, vals[1:])):
        failures.append("c7 not monotone on [0, 1/kappa]")
    _verdict(7, "quadrature bracketing", failures,
             f"gap {gap_100:.3f} -> {gap_200:.3f}")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_mollifier_demo():
    failures = []
    cfg = mo.MollifierConfig(xi=50.0, theta=0.5, quad_step=0.01)

    # raw sign changes on (0, 100) against a five-times-finer oracle scan
    def raw_count(step):
        t = np.arange(0.0, 100.0 + 1e-9, step)
        s = np.sign(mo._hardy_x_vec(t))
        s = s[s != 0]
        return int(np.count_nonzero(s[1:] != s[:-1]))

    n_coarse = raw_count(0.01)
    n_fine = raw_count(0.002)
    if n_coarse != 29:
        failures.append(f"raw scan found {n_coarse} sign changes, not 29")
    if n_fine != n_coarse:
        failures.append(f"fine oracle scan disagrees: {n_fine}")

    start = time.perf_counter()
    for xi in (10.0, 50.0, 100.0):
        count, _ = mo.detect_zeros(0.0, 100.0, replace(cfg, xi=xi))
        if count != 29:
            failures.append(f"detector found {count} zeros at xi={xi:g}")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"scan took {elapsed:.1f}s")

    for k in range(100):
        ws = mo.window_integrals(float(k), cfg)
        if ws.J < abs(ws.I) - 1e-9:
            failures.append(f"window {k}: J < |I|")
        if ws.J < ws.H - abs(ws.M_val) - 1e-9:
            failures.append(f"window {k}: J < H - |M|")

    # piecewise weight is the normalized difference of two selberg weights
    sel = replace(cfg, variant="selberg")
    sel_cut = mo.MollifierConfig(xi=50.0 ** 0.5, theta=0.5, variant="selberg")
    for x in np.exp(np.linspace(0.0, math.log(60.0), 1000)):
        lhs = mo.mollifier_weight(float(x), cfg)
        rhs = (mo.mollifier_weight(float(x), sel)
               - 0.5 * mo.mollifier_weight(float(x), sel_cut)) / 0.5
        if abs(lhs - rhs) > 1e-12:
            failures.append(f"weight identity fails at x={x:.3f}")
            break

    rows = mo.figure_data(100.0, 160.0, 0.05, cfg)

    def flips(col):
        s = np.sign(col)
        return set(np.nonzero(s[1:] != s[:-1])[0].tolist())

    raw = flips(rows[:, 1])
    for col in (2, 3):
        moll = flips(rows[:, col])
        if not all(any(abs(i - j) <= 1 for j in moll) for i in raw):
            failures.append(f"trace {col} misses a zero crossing")

    _verdict(8, "mollified zero detection", failures,
             f"29 zeros, 3 xi values, scan {elapsed:.1f}s")
