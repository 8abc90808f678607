"""Mollifier weights, the polynomial, the rotated function, detection."""

import hashlib
import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critline import mollifier as mo
from critline import specfun
from critline.errors import DomainError, NumericalConsistencyError, RangeError

from reference_values import DETECT_ANCHORS, ZETA_HALF

mp.mp.dps = 30

CFG = mo.MollifierConfig(xi=50.0, theta=0.5, quad_step=0.01)


# ------------------------------------------------------------------- config

def test_config_defaults_and_quad_step():
    cfg = mo.MollifierConfig()
    assert cfg.quad_step == cfg.H / 64.0


@pytest.mark.parametrize("kwargs", [
    {"xi": 0.5},
    {"xi": 1.0},
    {"theta": 0.0},
    {"theta": 1.0},
    {"variant": "boxcar"},
    {"H": 0.0},
    {"quad_step": -0.1},
    {"xi": 1e13},
    {"xi": math.inf},
    {"quad_step": 1e-13},
    {"H": 2.0, "quad_step": 1.9e-6},
])
def test_config_rejects(kwargs):
    with pytest.raises(DomainError):
        mo.MollifierConfig(**kwargs)


# ------------------------------------------------------------------ weights

def test_weight_branches():
    assert mo.mollifier_weight(1.0, CFG) == 1.0
    assert mo.mollifier_weight(5.0, CFG) == 1.0          # below xi^theta
    assert mo.mollifier_weight(50.0, CFG) == 0.0
    assert mo.mollifier_weight(80.0, CFG) == 0.0
    mid = mo.mollifier_weight(20.0, CFG)
    assert mid == pytest.approx(
        math.log(50.0 / 20.0) / (0.5 * math.log(50.0)), rel=1e-14)


def test_weight_selberg():
    sel = replace(CFG, variant="selberg")
    assert mo.mollifier_weight(1.0, sel) == 1.0
    assert mo.mollifier_weight(50.0, sel) == 0.0
    assert mo.mollifier_weight(7.0, sel) == pytest.approx(
        math.log(50.0 / 7.0) / math.log(50.0), rel=1e-14)


def test_weight_continuity():
    cut = 50.0 ** 0.5
    for variant in ("piecewise", "selberg"):
        cfg = replace(CFG, variant=variant)
        for edge in (cut, 50.0):
            gap = abs(mo.mollifier_weight(edge - 1e-6, cfg)
                      - mo.mollifier_weight(edge + 1e-6, cfg))
            assert gap < 1e-5


def test_weight_domain():
    with pytest.raises(DomainError):
        mo.mollifier_weight(0.99, CFG)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.floats(min_value=1.0, max_value=200.0),
       st.floats(min_value=1.5, max_value=150.0),
       st.floats(min_value=0.05, max_value=0.95))
def test_weight_in_unit_interval(x, xi, theta):
    for variant in ("piecewise", "selberg"):
        cfg = mo.MollifierConfig(xi=xi, theta=theta, variant=variant)
        assert 0.0 <= mo.mollifier_weight(x, cfg) <= 1.0


def test_lien_molli_identity():
    # piecewise M at xi == (selberg at xi - theta * selberg at xi^theta)/(1-theta)
    xs = np.exp(np.linspace(0.0, math.log(60.0), 1000))
    sel = replace(CFG, variant="selberg")
    sel_cut = mo.MollifierConfig(xi=50.0 ** 0.5, theta=0.5, variant="selberg")
    for x in xs:
        lhs = mo.mollifier_weight(float(x), CFG)
        rhs = (mo.mollifier_weight(float(x), sel)
               - 0.5 * mo.mollifier_weight(float(x), sel_cut)) / 0.5
        assert abs(lhs - rhs) < 1e-12


# --------------------------------------------------------------- polynomial

def test_eta_single_term():
    tiny = mo.MollifierConfig(xi=1.5, theta=0.5)
    assert mo.eta(0.0, tiny) == 1.0 + 0.0j
    assert mo.eta(9.2, tiny) == 1.0 + 0.0j


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.floats(min_value=-500.0, max_value=500.0))
def test_eta_conjugate_symmetry(t):
    assert mo.eta(-t, CFG) == np.conj(mo.eta(t, CFG))


def test_eta_against_direct_sum():
    # t ln n reaches 3.9e6 at the top of the range, where a double phase
    # is off by up to 2e-10
    for t, tol in ((0.0, 1e-13), (3.7, 1e-13), (31.4, 1e-13), (9876.5, 1e-12),
                   (99999.5, 1e-12), (999999.5, 1e-12), (-999999.5, 1e-12)):
        with mp.workdps(40):
            direct = mp.mpc(0)
            for n in range(1, 51):
                w = mo.mollifier_weight(float(n), CFG)
                direct += (specfun.tau_z(n, -0.5) * w
                           * mp.power(n, mp.mpc(-0.5, -t)))
        assert mo.eta(t, CFG) == pytest.approx(complex(direct), abs=tol)


def test_eta_range():
    # The validated range of zeta, |t| <= 1e6: beyond it, and at NaN or an
    # infinity, eta raises RangeError with no numpy warning (at 1e20 it was
    # off by 1.2 where |eta| ~ 1); at the ends it is the kernel's value.
    for t in (1.0e6, -1.0e6):
        assert mo.eta(t, CFG) == complex(mo._eta_vec(np.array([t]), CFG)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1.0e6 + 1.0, 1.0e20, math.nan, math.inf, -math.inf):
            with pytest.raises(RangeError, match="eta"):
                mo.eta(t, CFG)


def test_eta_coefficients_bounded():
    for n in range(1, 51):
        beta = specfun.tau_z(n, -0.5) * mo.mollifier_weight(float(n), CFG)
        assert abs(beta) <= 1.0


def test_coefficient_cache_bounded_and_readonly():
    assert mo._coefficients.cache_info().maxsize is not None
    amp = mo._coefficients(50.0, 0.5, "piecewise")
    for arr in (amp, specfun._phase_plan(50)[0]):
        with pytest.raises(ValueError):
            arr[0] = 1.0


# ------------------------------------------------------------------ hardy_x

def test_hardy_x_at_zero():
    assert mo.hardy_x(0.0) == pytest.approx(ZETA_HALF, rel=1e-12)


def test_hardy_x_against_mpmath():
    for t in (5.0, 14.0, 100.0, 777.7):
        assert mo.hardy_x(t) == pytest.approx(float(mp.siegelz(t)), abs=1e-9)


def test_hardy_x_first_zero_bracket():
    assert mo.hardy_x(14.0) * mo.hardy_x(14.2) < 0.0


def test_hardy_x_range():
    for t in (1.0e6 + 0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(RangeError):
            mo.hardy_x(t)


@pytest.mark.parametrize("value", [complex(math.nan, math.nan),
                                   complex(math.nan, 0.0),
                                   complex(0.0, math.nan),
                                   complex(math.inf, 0.0),
                                   complex(-1.0, math.inf)])
def test_real_part_refuses_non_finite(value):
    # a NaN or an infinity in either part is refused, not passed on as X
    with pytest.raises(NumericalConsistencyError, match="not finite"):
        mo._real_part(np.array([0.5, value]))
    assert np.array_equal(mo._real_part(np.array([0.5 + 1e-9j])), [0.5])


# --------------------------------------------------------- window integrals

def test_window_inequalities():
    ws = mo.window_integrals(14.0, CFG)
    assert ws.sign_changes >= 1
    assert ws.J >= abs(ws.I) - 1e-12
    assert ws.J >= ws.H - abs(ws.M_val) - 1e-12
    assert abs(ws.I) < ws.J


def test_window_trivial_mollifier():
    cfg = mo.MollifierConfig(xi=1.5, theta=0.5, quad_step=0.01)
    ws = mo.window_integrals(20.0, cfg)
    # eta == 1: I and J are plain integrals of X and |X|
    u, w = specfun._simpson(20.0, 21.0, 100)
    x = mo._hardy_x_vec(u)
    assert ws.I == pytest.approx(float(w @ x), rel=1e-12)
    assert ws.J == pytest.approx(float(w @ np.abs(x)), rel=1e-12)
    assert ws.J >= abs(ws.I)


def test_full_windows_have_64_simpson_intervals(monkeypatch):
    # (t + H) - t often rounds just above H: by a few ulps of H = 0.3 near
    # t = 0, by more than 1e-9 of H at H = 0.3 or 1e-3 near t = 1e6.  That
    # must neither add two intervals to a full window's default H/64 grid
    # nor make the last of 100 windows a clipped one.  The scan asks for
    # the grids of many windows at once, one row each.
    nodes = []
    simpson = specfun._simpson

    def spy(lo, hi, n):
        u, w = simpson(lo, hi, n)
        nodes.extend([u.shape[-1]] * (u.size // u.shape[-1]))
        return u, w

    monkeypatch.setattr(specfun, "_simpson", spy)
    for t_lo, H in [(0.1, 0.3), (999900.0, 0.3), (999000.0, 1e-3)]:
        nodes.clear()
        found = mo.mollified_scan(t_lo, t_lo + 100 * H, mo.MollifierConfig(H=H))
        assert len(found.windows) == len(nodes) == 100, (t_lo, H)
        assert set(nodes) == {65}, (t_lo, H)


_ROW_CASES = [(999.5, 1e-12, 65), (10052.6, 1e-12, 65), (-1050.0, 1e-12, 65),
              (999900.0, 4e-12, 65), (50.0, 1e-12, 257), (9900.0, 1e-12, 257)]


@pytest.mark.parametrize("t_lo, rel, nodes", _ROW_CASES, ids=[
    f"{t}-{r}" + ("" if n == 65 else f"-{n}") for t, r, n in _ROW_CASES])
def test_scan_rows_match_single_nodes(monkeypatch, t_lo, rel, nodes):
    # the seam, m = floor(sqrt(t / 2 pi)) stepping to 40 at 2 pi 40^2 =
    # 10053.1, negative t and the top of the range: X |eta|^2 on the scan's
    # rows of nodes against one node a row, and X against mpmath.  Near
    # t = 1e6 each extended-precision phase t ln n ~ 6e6 is rounded by up
    # to 1e-12 on either path.  A window of 257 nodes (quad_step H/256) is
    # cut into rows of specfun._ROW_NODES = 128 and a remainder.
    cfg = mo.MollifierConfig(quad_step=1.0 / (nodes - 1))
    single = mo._mollified_vec
    rows = []

    def spy(t, config):
        out = single(t, config)
        rows.append((np.array(t), out[2]))
        return out

    monkeypatch.setattr(mo, "_mollified_vec", spy)
    mo._scan(t_lo, t_lo + 2.0, cfg)
    (t, f), = rows
    assert t.shape == (2, nodes)
    ref = single(t.ravel(), cfg)[2]
    assert np.all(np.abs(f.ravel() - ref) <= rel * np.maximum(1.0, np.abs(ref)))
    x = specfun._zeta_critical_vec(t)[1].real
    # a Riemann-Siegel node past its row's smallest m is summed as a row
    # of one node, so its X is the single-node X to the bit
    m = np.floor(np.sqrt(np.abs(t) / (2.0 * math.pi)))
    past = (m > m.min(axis=1, keepdims=True)) & (np.abs(t) >= specfun._T_RS)
    assert past.any() == (t_lo == 10052.6)
    for node, value in zip(t[past], x[past]):
        assert value == specfun._zeta_critical_vec(np.array([node]))[1].real[0]
    for node, value in zip(t.ravel()[::16], x.ravel()[::16]):
        assert value == pytest.approx(float(mp.siegelz(node)), abs=1e-10)


@pytest.mark.parametrize("t_hi, cfg, budget_mb", [
    (10.0, mo.MollifierConfig(H=1e-3), 8),            # 10^4 windows
    (1.0, mo.MollifierConfig(quad_step=1e-6), 96),    # 10^6 + 1 nodes
])
def test_scan_memory_bounded(t_hi, cfg, budget_mb):
    mo._scan(0.0, 0.01, cfg)                  # fills the coefficient cache
    tracemalloc.start()
    try:
        windows, _ = mo._scan(0.0, t_hi, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(windows) == round(t_hi / cfg.H)
    assert peak < budget_mb * 2 ** 20


def test_window_detection_implication():
    ws = mo.window_integrals(13.7, CFG)
    if abs(ws.M_val) + abs(ws.I) < ws.H:
        assert ws.J > abs(ws.I)


def test_window_range_guard():
    for t in (1.0e6 - 0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(RangeError):
            mo.window_integrals(t, CFG)


def test_window_shorter_than_rounding_refused():
    # At t = 1e5, t + H lies within the scan's edge tolerance of t for
    # these H, so the window is empty: DomainError naming t and H.
    for h in (1e-11, 3e-11):
        with pytest.raises(DomainError, match=f"H = {h!r}.*t = 100000.0"):
            mo.window_integrals(1e5, mo.MollifierConfig(H=h))
    ws = mo.window_integrals(1e5, mo.MollifierConfig(H=1e-9))
    assert (ws.t, ws.H) == (1e5, 1e-9)


# ----------------------------------------------------------- zero detection

def test_detect_first_zero():
    count, ords = mo.detect_zeros(14.0, 15.0, CFG)
    assert count == 1
    oracle = float(mp.zetazero(1).imag)
    assert abs(ords[0] - oracle) < 1e-9


def test_detect_empty_and_errors():
    assert mo.detect_zeros(5.0, 5.0, CFG) == (0, [])
    with pytest.raises(RangeError):
        mo.detect_zeros(5.0, 4.0, CFG)
    with pytest.raises(RangeError):
        mo.detect_zeros(1.0e6 - 1.0, 1.0e6 + 1.0, CFG)
    for t_lo, t_hi in ((5.0, math.nan), (math.nan, 5.0), (math.nan, math.nan),
                       (5.0, math.inf), (-math.inf, 5.0)):
        with pytest.raises(RangeError):
            mo.detect_zeros(t_lo, t_hi, CFG)
    with pytest.raises(DomainError):       # 10^5 windows at most
        mo.detect_zeros(0.0, 100.0, replace(CFG, H=0.99e-3))


def test_detect_splits_consistently():
    # no zero ordinate sits near 50, so the two half scans add up
    whole, _ = mo.detect_zeros(0.0, 100.0, CFG)
    left, _ = mo.detect_zeros(0.0, 50.0, CFG)
    right, _ = mo.detect_zeros(50.0, 100.0, CFG)
    assert whole == left + right == 29


@pytest.mark.parametrize("t_lo", [950.0, 1000.0, 9900.0, 100000.0, 999900.0])
def test_detect_counts_match_nzeros(t_lo):
    # the Riemann-Siegel seam, the validated edge and three gate windows
    count, ords = mo.detect_zeros(t_lo, t_lo + 100.0, mo.MollifierConfig())
    assert count == mp.nzeros(t_lo + 100.0) - mp.nzeros(t_lo)
    assert all(t_lo <= t <= t_lo + 100.0 for t in ords)
    if t_lo in DETECT_ANCHORS:
        digest = hashlib.sha256(json.dumps(ords).encode()).hexdigest()
        assert (count, digest) == DETECT_ANCHORS[t_lo]


@pytest.mark.parametrize("t_lo, t_hi, pick", [
    (0.0, 100.0, slice(None, None, 4)),
    (9900.0, 10000.0, slice(None, None, 15)),
    (999900.0, 1.0e6, slice(None, None, 24)),
    (7000.0, 7010.0, slice(None)),        # Lehmer's pair, 0.038 apart
])
def test_detect_ordinates_match_siegelz(t_lo, t_hi, pick):
    count, ords = mo.detect_zeros(t_lo, t_hi, mo.MollifierConfig())
    if t_lo == 7000.0:
        pick = [i for i, t in enumerate(ords)
                if min(abs(t - 7005.0629), abs(t - 7005.1006)) < 1e-3]
        assert len(pick) == 2
    picked = np.array(ords)[pick]
    assert len(picked) >= 2
    # a zero of Z within 1e-9 of t: Z at 30 digits changes sign across
    # [t - 1e-9, t + 1e-9], two evaluations where findroot takes eight
    for t in map(mp.mpf, picked):
        assert mp.siegelz(t - 1e-9) * mp.siegelz(t + 1e-9) < 0, t


def test_detect_matches_raw_sign_changes():
    # mollification by |eta|^2 >= 0 cannot create or destroy crossings
    count, _ = mo.detect_zeros(10.0, 50.0, CFG)
    t = np.arange(10.0, 50.0 + 1e-9, 0.01)
    raw = mo._hardy_x_vec(t)
    s = np.sign(raw)
    s = s[s != 0]
    assert count == int(np.count_nonzero(s[1:] != s[:-1]))


# ----------------------------------------------------------- ITP refinement

def _refine_spied(monkeypatch, lo, hi, f_lo, f_hi, f=None):
    """_refine_crossings with every evaluation recorded.

    f, if given, stands in for X.  Returns the midpoints, the number of
    evaluation calls and each bracket's last ends, rebuilt from the
    evaluated points (a only moves right and b only left).
    """
    real = mo._hardy_x_vec
    xs, ys = [], []

    def spy(t):
        out = f(t) if f else real(t)
        xs.append(np.array(t))
        ys.append(np.array(out))
        return out

    monkeypatch.setattr(mo, "_hardy_x_vec", spy)
    mids = mo._refine_crossings(lo, hi, f_lo, f_hi)
    x, y = np.concatenate(xs), np.concatenate(ys)
    a, b = lo.copy(), hi.copy()
    for i in range(lo.size):
        inside = (x > lo[i]) & (x < hi[i])
        same = inside & (np.sign(y) == np.sign(f_lo[i]))
        a[i] = x[same].max(initial=lo[i])
        b[i] = x[inside & ~same].min(initial=hi[i])
    return mids, len(xs), a, b


def _step(r):
    return lambda t: np.sign(t - r)


def _kinked(r, left, right):
    return lambda t: np.where(t < r, left, right) * (t - r)


@pytest.mark.parametrize("f, lo, hi, roots, hits", [
    (_step(0.1234567), [0.0], [0.5], [0.1234567], 0),
    (lambda t: (t - 0.3141592) ** 3, [0.0], [0.5], [0.3141592], 0),
    # regula falsi's worst case: slopes 1e-6 and 1e6 on either side of r
    (_kinked(0.0271828, 1e-6, 1e6), [0.0], [0.5], [0.0271828], 0),
    (_kinked(0.4271828, 1e6, 1e-6), [0.0], [0.5], [0.4271828], 0),
    # an exact zero at the dyadic 0.25, hit by the first step; the second
    # bracket goes on alone
    (lambda t: np.where(t < 0.75, t - 0.25, np.cbrt(t - 1.3)),
     [0.0, 1.0], [0.5, 1.5], [0.25, 1.3], 1),
    # near t = 1e6, where 1e-9 is about 9 ulp
    (_step(999999.9012345), [999999.9], [999999.9 + 0.3 / 64],
     [999999.9012345], 0),
], ids=["step", "triple", "kink-left", "kink-right", "dyadic", "step-1e6"])
def test_refine_contract_on_synthetic_functions(monkeypatch, f, lo, hi,
                                                roots, hits):
    # bisection takes ceil(log2(w0 / 1e-9)) steps, 29 at w0 = 0.5
    lo, hi, roots = np.array(lo), np.array(hi), np.array(roots)
    mids, calls, a, b = _refine_spied(monkeypatch, lo, hi, f(lo), f(hi), f)
    assert calls <= math.ceil(math.log2(np.max(hi - lo) / 1e-9)) + 2
    exact = f(mids) == 0.0
    assert np.count_nonzero(exact) == hits
    assert np.all(mids[exact] == roots[exact])
    assert np.all(((b - a < 1e-9) & (a <= roots) & (roots <= b)) | exact)
    assert np.all((mids == 0.5 * (a + b)) | exact)


@pytest.mark.parametrize("t_lo", [9900.0, 999900.0])
def test_refine_evaluation_count(monkeypatch, t_lo):
    # bisection from H/64 to 1e-9 took 25 evaluation calls
    _, ends = mo._scan(t_lo, t_lo + 100.0, mo.MollifierConfig())
    mids, calls, a, b = _refine_spied(monkeypatch, *ends)
    assert calls <= 8
    assert np.all(b - a < 1e-9)
    assert np.all(mids == 0.5 * (a + b))


def test_refine_work_near_1e6(monkeypatch):
    # ITP evaluates X alone: no eta term, and per point and step one
    # extended-precision phase per prime p <= m (78 at m = 398) plus one for
    # theta, where phases of every n took m + 1 = 399
    _, ends = mo._scan(999900.0, 1.0e6, mo.MollifierConfig())
    calls = {"eta": 0, "points": 0, "phases": 0}
    eta_vec, hardy_x_vec, mod_two_pi = (mo._eta_vec, mo._hardy_x_vec,
                                        specfun._mod_two_pi)

    def count(key, fn, weight):
        def spy(*args):
            calls[key] += weight(args[0])
            return fn(*args)
        return spy

    monkeypatch.setattr(mo, "_eta_vec", count("eta", eta_vec, lambda t: 1))
    monkeypatch.setattr(mo, "_hardy_x_vec",
                        count("points", hardy_x_vec, np.size))
    monkeypatch.setattr(specfun, "_mod_two_pi",
                        count("phases", mod_two_pi, np.size))
    mo._refine_crossings(*ends)
    m = math.isqrt(int(1.0e6 / (2.0 * math.pi)))
    assert m == 398 and calls["points"] > 0
    assert calls["eta"] == 0
    assert calls["phases"] <= (specfun.primes_up_to(m).size + 1) * calls["points"]


# -------------------------------------------------------------- figure data

def test_figure_row_count():
    rows = mo.figure_data(100.0, 160.0, 0.05, CFG)
    assert rows.shape == (1201, 4)
    rows = mo.figure_data(0.0, 1.0, 0.3, CFG)
    assert rows.shape == (4, 4)


def test_figure_columns_consistent():
    rows = mo.figure_data(20.0, 25.0, 0.1, CFG)
    t0 = rows[0, 0]
    assert t0 == 20.0
    x0 = mo.hardy_x(20.0)
    e0 = mo.eta(20.0, CFG)
    assert rows[0, 1] == pytest.approx(x0, rel=1e-12)
    assert rows[0, 2] == pytest.approx(x0 * abs(e0) ** 2, rel=1e-12)


def test_figure_crossing_alignment():
    rows = mo.figure_data(100.0, 160.0, 0.05, CFG)

    def flips(col):
        s = np.sign(col)
        return set(np.nonzero(s[1:] != s[:-1])[0].tolist())

    raw = flips(rows[:, 1])
    for col in (2, 3):
        moll = flips(rows[:, col])
        assert all(any(abs(i - j) <= 1 for j in moll) for i in raw)


def test_figure_memory_flat_in_rows():
    # the arrays beside the result are bounded by the chunk of _SCAN_NODES
    # rows: near t = 1e6 (398 Riemann-Siegel terms) they stay put from 2^13
    # to 2^15 rows, where one pass over the whole grid grows by ~6 MB
    step = 2.0 ** -10
    mo.figure_data(999000.0, 999000.0 + step, step, CFG)     # fill the caches
    extra = []
    for rows in (1 << 13, 1 << 15):
        tracemalloc.start()
        try:
            out = mo.figure_data(999000.0, 999000.0 + step * (rows - 1), step, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (rows, 4)
        extra.append(peak - out.nbytes)
    assert extra[1] - extra[0] < 2 ** 16


def test_figure_errors():
    with pytest.raises(RangeError):
        mo.figure_data(10.0, 5.0, 0.1, CFG)
    for t_lo, t_hi in ((5.0, math.nan), (math.nan, 5.0), (5.0, math.inf),
                       (-math.inf, 5.0)):
        with pytest.raises(RangeError):
            mo.figure_data(t_lo, t_hi, 0.1, CFG)
    with pytest.raises(RangeError):
        mo.figure_data(0.0, 1.0, 0.0, CFG)
    with pytest.raises(DomainError):       # 10^6 rows at most
        mo.figure_data(0.0, 100.0, 1e-4, CFG)
    with pytest.raises(DomainError):
        mo.figure_data(0.0, 1.0, 5e-324, CFG)
