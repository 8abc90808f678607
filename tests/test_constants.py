"""Constant chain c2..c7, K1..K4, quadrature bracketing, c1 assembly."""

import math
import mmap
import tracemalloc

import mpmath
import numpy as np
import pytest

from critline import constants as cst
from critline import roots
from critline import specfun
from critline.errors import DomainError

from reference_values import (
    CHAIN,
    CHAIN_A,
    CHAIN_C1,
    CHAIN_KAPPA,
    CHAIN_THETA,
)


# -------------------------------------------------------------- Params type

def test_params_validation():
    p = cst.Params(N=3, theta=0.01)
    assert p.kappa == 0.125
    with pytest.raises(DomainError):
        cst.Params(N=0, theta=0.01)
    with pytest.raises(DomainError):
        cst.Params(N=2, theta=1.2)
    with pytest.raises(DomainError):
        cst.Params(N=2, theta=0.01, kappa=0.2)
    with pytest.raises(DomainError):
        cst.Params(N=2, theta=0.01, kappa=0.0)


@pytest.mark.parametrize("A", [math.inf, -math.inf, 0.0, -1.0])
def test_params_refuses_non_positive_or_infinite_A(A):
    # lower_bound_general at A = inf used to return NaN silently
    with pytest.raises(DomainError, match="positive and finite"):
        cst.Params(N=2, theta=0.011, A=A)
    assert math.isnan(cst.Params(N=2, theta=0.011).A)    # NaN means unset


# ----------------------------------------------------------- frozen chain

def test_chain_frozen_values():
    ks = cst.k_constants(CHAIN_THETA, CHAIN_KAPPA, n_rect=100)
    for name, want in CHAIN.items():
        assert getattr(ks, name) == pytest.approx(want, rel=1e-12), name


def test_scalar_ops_match_set():
    ks = cst.k_constants(CHAIN_THETA, CHAIN_KAPPA)
    assert cst.c2(CHAIN_THETA, CHAIN_KAPPA) == ks.c2
    assert cst.c3(CHAIN_THETA, CHAIN_KAPPA) == ks.c3
    assert cst.c4(CHAIN_THETA) == ks.c4
    assert cst.c5(CHAIN_THETA, CHAIN_KAPPA) == ks.c5


# ------------------------------------------------------------- identities

def test_c3_identity_deterministic():
    p1 = specfun.euler_product("P1", cst.PRIME_CUTOFF).value
    for theta, kappa in ((0.011, 0.125), (0.2, 0.06), (0.5, 0.1)):
        lhs = cst.c3(theta, kappa)
        rhs = (1.0 / (8.0 * kappa) + 1.5) * 16.0 * kappa ** 2 \
            * cst.c5(theta, kappa) ** 4 * p1
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_c6_at_zero_equals_c5():
    for theta, kappa in ((0.011, 0.125), (0.35, 0.08)):
        assert cst.c6(0.0, theta, kappa) == pytest.approx(
            cst.c5(theta, kappa), rel=1e-12)


def test_c6_increasing_in_u():
    vals = [cst.c6(u, 0.011, 0.125) for u in (0.0, 1.0, 3.0, 8.0)]
    assert vals == sorted(vals)


def test_c4_positive_and_frozen():
    assert cst.c4(0.011) == pytest.approx(CHAIN["c4"], rel=1e-12)
    assert cst.c4(0.9) > 0.0


# ------------------------------------------------------------- quadrature

def test_integrate_c7_bracketing():
    right, right_v, gap = cst.integrate_c7(0.011, 0.125, n_rect=100)
    assert right == pytest.approx(CHAIN["int_c7"], rel=1e-12)
    assert right_v == pytest.approx(CHAIN["int_vc7"], rel=1e-12)
    assert gap > 0.0


def test_integrate_c7_gap_halves():
    _, _, gap_100 = cst.integrate_c7(0.011, 0.125, n_rect=100)
    _, _, gap_200 = cst.integrate_c7(0.011, 0.125, n_rect=200)
    assert gap_200 == pytest.approx(gap_100 / 2.0, rel=0.1)


def test_integrate_c7_n_rect_domain():
    with pytest.raises(DomainError):
        cst.integrate_c7(0.011, 0.125, n_rect=0)
    with pytest.raises(DomainError):       # 10^6 rectangles at most
        cst.integrate_c7(0.011, 0.125, n_rect=10 ** 6 + 1)


# ------------------------------------------------------------------ c1

def test_c1_frozen_and_consistent():
    assert cst.c1(CHAIN_A, CHAIN_THETA, CHAIN_KAPPA) == pytest.approx(
        CHAIN_C1, rel=1e-12)
    ks = cst.k_constants(CHAIN_THETA, CHAIN_KAPPA)
    assert cst.c1_from_set(CHAIN_A, ks) == pytest.approx(CHAIN_C1, rel=1e-12)


def test_c1_domain():
    with pytest.raises(DomainError):
        cst.c1(0.5, 0.011)


@pytest.mark.parametrize("A", [1.0, -1.0, math.nan, math.inf])
def test_c1_needs_finite_A_above_one(A):
    with pytest.raises(DomainError, match="c1 needs finite A > 1"):
        cst.c1(A, 0.011)


def test_c1_refuses_non_finite_value():
    # A is finite, but 8 c5^2 K1 A ln A overflows at A = 1e308
    with pytest.raises(DomainError, match=r"c1\(1e\+308, 0.011\) is not finite"):
        cst.c1(1e308, 0.011)


def test_c1_growth_dominated_by_A_logA():
    # the A(K1 ln A + K2) part dwarfs the K3 ln A + K4 remainder
    ks = cst.k_constants(CHAIN_THETA, CHAIN_KAPPA)
    for a in (1.0e10, 1.0e13):
        lead = 8.0 * ks.c5 ** 2 * a * (ks.k1 * math.log(a) + ks.k2)
        assert cst.c1_from_set(a, ks) == pytest.approx(lead, rel=1e-8)


def test_c1_prime_matches_difference_quotient():
    ks = cst.k_constants(CHAIN_THETA, CHAIN_KAPPA)
    a = 1.0e8
    h = a * 1e-6
    numeric = (cst.c1_from_set(a + h, ks) - cst.c1_from_set(a - h, ks)) / (
        2.0 * h)
    assert cst.c1_prime_from_set(a, ks) == pytest.approx(numeric, rel=1e-6)


# ------------------------------------------------------------ prime cutoff

def test_prime_cutoff_keyword(monkeypatch):
    default = cst.k_constants(0.011)
    # The cutoff no longer travels through the environment.
    monkeypatch.setenv("CRITLINE_PRIME_CUTOFF", "1000")
    assert cst.k_constants(0.011) == default
    small = cst.k_constants(0.011, prime_cutoff=50000)
    p1 = specfun.euler_product("P1", 50000).value
    want = p1 * 32.0 / (3.0 * math.sqrt(math.pi) * 0.989)
    assert small.k1 == pytest.approx(want, rel=1e-14)
    assert small.k1 != default.k1
    with pytest.raises(DomainError):
        cst.k_constants(0.011, prime_cutoff=1)


# ------------------------------------------------------ vector vs scalar

def _mpmath_root(f, lo, hi):
    with mpmath.workdps(30):
        return float(mpmath.findroot(f, (lo, hi), solver="anderson"))


def _mpmath_chain(theta, kappa=0.125, n_rect=100):
    """The constant chain at one theta from 30-digit mpmath roots, with
    c6 and c7 written out here rather than taken from the kernels."""
    g = specfun.gamma_ratio_quarter()
    p1 = specfun.euler_product("P1", cst.PRIME_CUTOFF).value
    p2 = specfun.euler_product("P2", cst.PRIME_CUTOFF).value
    th = mpmath.mpf(theta)

    def rho_eq(x):
        return -1 + 2 * th * x + mpmath.exp(x * (1 - th)) * (2 * x - 1)

    def lemma_eq(a):
        def f(x):
            w = a + g * mpmath.sqrt(x)
            low = 2 * a + g * mpmath.sqrt(x)
            return (mpmath.exp((1 - th) * x) * (2 * x * w - low)
                    + 2 * th * x * w - low)
        return f

    rho = _mpmath_root(rho_eq, 0.5, 1.0)
    c4 = float(cst._c4_closed(theta))
    us = np.linspace(0.0, 1.0 / kappa, n_rect + 1)
    vals = []
    for u in us:
        r = _mpmath_root(lemma_eq(math.sqrt(math.pi * kappa * u)), 1e-8, 2.0)
        v6 = ((math.exp(r) + math.exp(r * theta))
              / ((1.0 - theta) * 2.0 * math.sqrt(math.pi * kappa * r))
              * (math.sqrt(u / r) * math.sqrt(math.pi * kappa) + g))
        vals.append((0.5 + 2.0 * kappa) * v6 * v6
                    + 2.0 * c4 * v6 * math.sqrt(kappa))
    vals = np.array(vals)
    h = us[1]
    right = h * float(np.sum(vals[1:]))
    int_vc7 = h * float(np.sum(us[1:] * vals[1:]))
    k1, k2, k3, k4 = cst._k_from_parts(theta, kappa, right, int_vc7, p1, p2)
    c3 = float(cst._c3_from_rho(rho, theta, kappa, g, p1))
    return {"rho": rho, "c2": float(cst._c2_from_c3(c3, theta, kappa)),
            "c3": c3, "c4": c4,
            "c5": float(cst._c5_from_rho(rho, theta, kappa, g)),
            "k1": k1, "k2": k2, "k3": k3, "k4": k4, "int_c7": right,
            "int_vc7": int_vc7,
            "quad_bracket": right - h * float(np.sum(vals[:-1]))}


def test_k_table_rows_match_scalar_chain():
    # The Newton-solved kernels against the mpmath roots, row by row.
    thetas = np.array([0.011, 0.3, 0.9])
    table = cst._k_table(thetas)
    for i, theta in enumerate(thetas):
        ref = _mpmath_chain(float(theta))
        for name, want in ref.items():
            assert table[name][i] == pytest.approx(want, rel=1e-13), (theta, name)


# ------------------------------------------------------------------ blocks

@pytest.mark.parametrize("grid, n_rect", [(10000, 100), (2000, 1000)])
def test_k_table_bits_independent_of_block_size(monkeypatch, grid, n_rect):
    # Blocks of 1 row, of 7 rows and of the default budget give the same
    # bits: no block's rows are lost or overwritten.  One-row blocks run
    # on the smaller grid only (on the 10^4 grid they take about 9 s).
    thetas = np.arange(1, grid) / grid
    point = cst._POINT_BYTES * (n_rect + 1)
    rows = (7,) if grid == 10000 else (1, 7)
    tables = []
    for budget in (*(r * point for r in rows), cst._K_WORK_BYTES):
        monkeypatch.setattr(cst, "_K_WORK_BYTES", budget)
        tables.append(cst._k_table(thetas, 0.125, n_rect))
    default = tables[-1]
    for table in tables[:-1]:
        assert table.keys() == default.keys()
        for name in default:
            assert table[name].tobytes() == default[name].tobytes(), name


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_k_table_grid_peak_memory():
    # One workspace of _K_WORK_BYTES: the 10^4-point grid stays within 8 MB
    # of traced allocations (a fresh array for every numpy operation of
    # 256-row blocks took 15.5 MB, 2048-row blocks with a (rows x 101 x 32)
    # cell search over 55 MB).
    thetas = np.arange(1, 10000) / 10000
    cst._k_table(thetas[:2])
    assert _traced_peak(lambda: cst._k_table(thetas)) <= 8e6


def test_k_table_keeps_no_workspace():
    # The workspace is dropped when _k_table returns.
    thetas = np.arange(1, 10000) / 10000
    cst._k_table(thetas)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cst._k_table(thetas)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert abs(after - before) <= 1e6


def test_k_table_warm_minor_page_faults():
    # The reused workspace touches fresh pages only for its first block: a
    # warm 10^4-point grid takes under 10 000 minor page faults (a fresh
    # array for every numpy operation took about 65 000).
    resource = pytest.importorskip("resource")

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    start = faults()
    with mmap.mmap(-1, 2 ** 20) as fresh:
        fresh[::4096] = b"x" * 256      # touch 256 new pages
    if faults() == start:
        pytest.skip("no minor page fault counter on this platform")
    thetas = np.arange(1, 10000) / 10000
    cst._k_table(thetas)
    start = faults()
    cst._k_table(thetas)
    assert faults() - start < 10000


def test_k_table_blocks_fit_their_workspace():
    # A c7 block takes at most _block_bytes from its workspace at every
    # n_rect, from one row to the rows of the whole budget, so no block of
    # _k_table allocates.
    thetas = np.arange(1, 10000) / 10000
    for n_rect in (1, 10, 100, 1000):
        us = np.linspace(0.0, 8.0, n_rect + 1)
        rows = roots._rho_lemma_rows(float(np.sqrt(math.pi * 0.125 * us).max()),
                                     thetas)
        fit = max(1, cst._K_WORK_BYTES // (cst._POINT_BYTES * us.size))
        for r in sorted({1, 7, min(fit, thetas.size)}):
            work = roots._Workspace(2 * cst._block_bytes(us.size * r))
            with work.scope():
                cst._c7_profile(thetas[:r], 0.125, us,
                                (rows[0][:r], rows[1][:r]), work)
            assert work.peak <= cst._block_bytes(us.size * r), (n_rect, r)


def test_k_table_large_rows_run_one_at_a_time():
    # A row of n_rect + 1 = 50 001 points needs more workspace than the
    # whole _K_WORK_BYTES budget, so eight such rows run one after the
    # other and peak near one row's memory.
    thetas = np.linspace(0.1, 0.8, 8)
    cst._k_table(thetas[:1], 0.125, 10)
    one = _traced_peak(lambda: cst._k_table(thetas[:1], 0.125, 50000))
    eight = _traced_peak(lambda: cst._k_table(thetas, 0.125, 50000))
    assert eight <= 1.3 * one
