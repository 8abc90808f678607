"""Lower-bound evaluation, (A, theta) optimization, large-N asymptotics."""

import dataclasses
import math
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from critline import bound as bnd
from critline import cli
from critline import constants as cst
from critline.errors import DomainError, OptimizerError, PreconditionError

from reference_values import (
    ASYMPTOTIC,
    ASYMPTOTIC_BOUND_1E20_EPS001,
    ASYMPTOTIC_EPS,
    ASYMPTOTIC_N0_SMALL_KAPPA,
    REFERENCE_TABLE,
    TABLE_ROWS_HEX,
)

ROW_1 = REFERENCE_TABLE[0]
ROW_2 = REFERENCE_TABLE[1]


# -------------------------------------------------------- bound evaluation

def test_single_formula_at_reference_point():
    n, a, theta, _ = ROW_1
    p = cst.Params(N=n, theta=theta, A=a)
    value = bnd.lower_bound_single(p)
    # same value through the general entry dispatch
    assert value > 0.0
    assert value == pytest.approx(5.4529e-8, rel=1e-4)


def test_general_formula_at_reference_point():
    n, a, theta, _ = ROW_2
    value = bnd.lower_bound_general(cst.Params(N=n, theta=theta, A=a))
    assert value == pytest.approx(7.3772e-9, rel=1e-4)


def test_single_requires_n_equal_one():
    with pytest.raises(DomainError):
        bnd.lower_bound_single(cst.Params(N=2, theta=0.01, A=1.0e8))


def test_bound_requires_A_above_window():
    with pytest.raises(DomainError):
        bnd.lower_bound_general(cst.Params(N=2, theta=0.01, A=5.0))


@pytest.mark.parametrize("n", [1, 2])
def test_bound_refuses_A_whose_cube_overflows(n):
    # A ** 3 overflows beyond about 5.6e102: a DomainError naming the
    # limit, not a bare OverflowError
    evaluate = bnd.lower_bound_single if n == 1 else bnd.lower_bound_general
    with pytest.raises(DomainError, match=r"A <= 5\.6438e\+102, beyond which A\^3 overflows"):
        evaluate(cst.Params(N=n, theta=0.011, A=1e300))
    assert math.isfinite(evaluate(cst.Params(N=n, theta=0.011, A=5.6e102)))


def test_single_beats_general_at_n1():
    p = cst.Params(N=1, theta=0.011, A=ROW_1[1])
    assert bnd.lower_bound_single(p) >= bnd.lower_bound_general(p)


# ------------------------------------------------------------ optimization

def test_optimize_A_fixed_theta():
    n, a_ref, theta, _ = ROW_1
    a_star, b_star = bnd.optimize_A(n, theta)
    assert a_star == pytest.approx(a_ref, rel=1e-2)
    # the optimum cannot be worse than the bound at the reference A
    ref = bnd.lower_bound_single(cst.Params(N=n, theta=theta, A=a_ref))
    assert b_star >= ref - 1e-18


def test_optimize_A_stationary():
    a_star, _ = bnd.optimize_A(5, 0.0012)
    ks = cst.k_constants(0.0012)
    for factor in (0.999, 1.001):
        perturbed = float(bnd._bound_value(a_star * factor, 5, ks, False))
        assert perturbed <= float(bnd._bound_value(a_star, 5, ks, False))


def test_optimize_report_fields():
    rep = bnd.optimize(5, theta_grid_size=10000)
    assert rep.N == 5
    assert rep.method == "general"
    assert rep.kappa == 0.125
    assert rep.n_rect == 100
    assert rep.theta_grid == 10000
    # report is self-consistent: bound recomputes at (A*, theta*)
    p = cst.Params(N=5, theta=rep.theta_star, A=rep.A_star)
    assert bnd.lower_bound_general(p) == pytest.approx(rep.bound, rel=1e-12)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.N = 7


def test_optimize_n1_uses_single_formula():
    rep = bnd.optimize(1)
    assert rep.method == "single_L"
    p = cst.Params(N=1, theta=rep.theta_star, A=rep.A_star)
    assert bnd.lower_bound_single(p) == pytest.approx(rep.bound, rel=1e-12)


def test_optimize_A_raises_on_infeasible_row():
    table = cst._k_table(np.array([0.998]))
    assert bnd._optimize_A_vec(2, 0.125, table)[1][0] == -np.inf
    # The message states the search window's cap.
    with pytest.raises(OptimizerError, match=re.escape(f", {bnd._A_MAX:.3g}]")):
        bnd.optimize_A(2, 0.998)


@pytest.mark.parametrize("n", [1, 2])
def test_optimize_refines_grid_winner(n):
    # The local theta refinement never loses to the grid and stays within
    # one grid cell of the grid winner.
    table = bnd._theta_grid_table(0.125, 100, 500, cst.PRIME_CUTOFF)
    _, b_vec = bnd._optimize_A_vec(n, 0.125, table)
    i_best = int(np.argmax(b_vec))
    rep = bnd.optimize(n, theta_grid_size=500)
    assert rep.bound >= b_vec[i_best]
    assert abs(rep.theta_star - table["theta"][i_best]) <= 1.0 / 500


@pytest.mark.parametrize("grid", [10000, 500])
def test_optimize_many_matches_optimize(grid):
    many = bnd.optimize_many(bnd.DEFAULT_TABLE_N, theta_grid_size=grid)
    assert many == [bnd.optimize(n, theta_grid_size=grid) for n in bnd.DEFAULT_TABLE_N]


def test_optimize_many_one_chain_call_per_pass(monkeypatch):
    # The table's N share each constant-chain call: one for the grid and
    # one per refinement pass (1 + 8 x 3 = 25 with one optimize per N).
    calls = []
    k_table = cst._k_table

    def spy(thetas, *args, **kwargs):
        calls.append(np.size(thetas))
        return k_table(thetas, *args, **kwargs)

    monkeypatch.setattr(cst, "_k_table", spy)
    bnd._theta_grid_table.cache_clear()
    assert cli.main(["table"]) == 0
    assert calls == [9999] + [51 * len(bnd.DEFAULT_TABLE_N)] * bnd._REFINE_PASSES


@pytest.mark.parametrize("Ns", [(), (0,), (True,), (2, 0)])
def test_optimize_many_refuses_bad_N(Ns):
    with pytest.raises(DomainError):
        bnd.optimize_many(Ns, theta_grid_size=500)


def test_optimize_many_names_the_infeasible_N(capsys):
    with pytest.raises(OptimizerError, match="N=100000000,"):
        bnd.optimize_many((2, 10 ** 8), theta_grid_size=500)
    assert cli.main(["optimize", "--N", "100000000", "--theta-grid", "500"]) == 4
    assert capsys.readouterr().out == ""


def test_grid_cache_bounded_and_readonly():
    cache = bnd._theta_grid_table
    assert cache.cache_info().maxsize is not None
    cache.cache_clear()
    bnd.optimize(2, theta_grid_size=500)
    bnd.optimize(2, theta_grid_size=500, prime_cutoff=50000)
    assert cache.cache_info().currsize == 2
    # numpy scalars reuse the entries above
    bnd.optimize(2, kappa=np.float64(0.125), theta_grid_size=np.int64(500),
                 prime_cutoff=np.int64(50000))
    assert cache.cache_info().currsize == 2
    table = cache(0.125, 100, 500, cst.PRIME_CUTOFF)
    for arr in table.values():
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_import_leaves_scipy_unloaded():
    import critline
    src = str(Path(critline.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import critline; "
         "assert 'scipy' not in sys.modules, 'scipy imported'", src],
        check=True, timeout=60)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 100, 1000, 10000])
def test_certified_root_matches_scan_oracle(n):
    # The rule the certified root replaced, applied here as the oracle:
    # g elementwise on 600 ln A points from just above 1/kappa to 1e16, and
    # the last +/- sign change of each row.
    table = bnd._theta_grid_table(0.125, 100, 500, cst.PRIME_CUTOFF)
    grid = np.linspace(math.log(8.0) + 1e-9, math.log(1e16), 600)
    with np.errstate(invalid="ignore"):
        g, _ = bnd._stationarity(np.exp(grid)[None, :], n,
                                 {k: v[:, None] for k, v in table.items()}, n == 1)
    trans = (g[:, :-1] > 0) & (g[:, 1:] < 0)
    last = np.array([np.nonzero(t)[0][-1] if t.any() else -1 for t in trans])
    a_star, b_vec = bnd._optimize_A_vec(n, 0.125, table)
    rows = np.nonzero(last >= 0)[0]
    assert np.array_equal(np.nonzero(np.isfinite(b_vec))[0], rows)
    assert rows.size > 400
    a = a_star[rows]
    assert (np.exp(grid[last[rows]]) <= a).all()
    assert (a <= np.exp(grid[last[rows] + 1])).all()
    # |g(A*)| on the scale of rounding in g's largest term, A^2 / 2
    g_star, _ = bnd._stationarity(a, n, {k: v[rows] for k, v in table.items()},
                                  n == 1)
    assert (np.abs(g_star) <= 8 * np.finfo(float).eps * 0.5 * a * a).all()


def test_concavity_certificate_symbolic():
    A, c5, n, c2 = sp.symbols("A c5 N c2", positive=True)
    k1, k2, k3, k4 = sp.symbols("k1 k2 k3 k4", real=True)
    q = 32 * n * c5 ** 2
    c1 = 8 * c5 ** 2 * (k1 * A * sp.log(A) + k2 * A + k3 * sp.log(A) + k4)
    g = -A ** 2 / 2 - 4 * n * sp.diff(c1, A) * A + 12 * n * (c1 + c2)
    assert sp.simplify(sp.diff(g, A, 2)
                       - (-1 + q * (2 * k1 / A - 3 * k3 / A ** 2))) == 0
    # g'' A^2 = -(A^2 - 2 q k1 A + 3 q k3) = -(A - A_c)(A - q k1 + d),
    # d = sqrt(q^2 k1^2 - 3 q k3) >= 0, so A_c = q k1 + d is the larger root
    quad = A ** 2 - 2 * q * k1 * A + 3 * q * k3
    assert sp.expand(sp.diff(g, A, 2) * A ** 2 + quad) == 0
    d = sp.sqrt(q ** 2 * k1 ** 2 - 3 * q * k3)
    assert sp.expand((A - (q * k1 + d)) * (A - (q * k1 - d)) - quad) == 0
    # single-L: g = A^4 b'(A) / (2 pi) is the general g at N = 1/4 plus
    # h = sqrt(c2) (6 c1 - A c1') / sqrt(c1)
    b_single = 1 / (2 * A) - (sp.sqrt(c1) + sp.sqrt(c2)) ** 2 / A ** 3
    h = sp.sqrt(c2) * (6 * c1 - A * sp.diff(c1, A)) / sp.sqrt(c1)
    g_quarter = g.subs(n, sp.Rational(1, 4))
    assert sp.simplify(A ** 4 * sp.diff(b_single, A) - g_quarter - h) == 0
    # with c1 = m P and U = 6P - A P', 4 P^(5/2) (U / sqrt(P))'' is the
    # numerator whose A^2-multiple _single_cert_coeffs expands
    p_fn = sp.Function("P")(A)
    u_fn = 6 * p_fn - A * sp.diff(p_fn, A)
    num_fn = (4 * p_fn ** 2 * sp.diff(u_fn, A, 2)
              - 4 * p_fn * sp.diff(u_fn, A) * sp.diff(p_fn, A)
              + 3 * u_fn * sp.diff(p_fn, A) ** 2
              - 2 * p_fn * u_fn * sp.diff(p_fn, A, 2))
    assert sp.simplify(4 * p_fn ** sp.Rational(5, 2)
                       * sp.diff(u_fn / sp.sqrt(p_fn), A, 2) - num_fn) == 0
    ell = sp.symbols("ell", positive=True)
    p_poly = c1 / (8 * c5 ** 2)
    num = sp.expand((A ** 2 * num_fn.subs(p_fn, p_poly).doit())
                    .subs(sp.log(A), ell))
    want = sp.Poly(num, A, ell).as_dict()
    got = {(i, j): sp.expand(c)
           for i, j, c in bnd._single_cert_coeffs(k1, k2, k3, k4)}
    got[3, 3] = -5 * k1 ** 3
    assert set(want) == set(got)
    assert all(sp.expand(want[key] - got[key]) == 0 for key in want)


def _single_h2_numerator(k1, k2, k3, k4, a):
    """P and 4 P^2 U'' - 4 P U' P' + 3 U P'^2 - 2 P U P'' at a, straight
    from P = k1 A ln A + k2 A + k3 ln A + k4 (mpmath or float)."""
    la = mpmath.log(a)
    p = k1 * a * la + k2 * a + k3 * la + k4
    dp = k1 * (la + 1) + k2 + k3 / a
    d2p = k1 / a - k3 / a ** 2
    u = 6 * p - a * dp
    du = 5 * dp - a * d2p
    d2u = 4 * d2p - a * (-k1 / a ** 2 + 2 * k3 / a ** 3)
    return p, 4 * p * p * d2u - 4 * p * du * dp + 3 * u * dp * dp - 2 * p * u * d2p


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.floats(-3.0, 6.0), st.floats(-3.0, 12.0), st.booleans(),
       st.floats(-3.0, 12.0), st.floats(-3.0, 14.0), st.booleans(),
       st.floats(-12.0, 3.0))
def test_single_certificate_beyond_threshold(e1, e2, neg2, e3, e4, neg4, es):
    # For k1 > 0 > k3 and k2, k4 of either sign, all on log scales, take
    # L = e^x with x the smallest in [1, 40] at which the certificate
    # passes (it is monotone in L), so that it is nearly tight; then P > 0
    # and h'' < 0 at A = L (1 + s) in 40-digit arithmetic.
    k1, k3, s = 10.0 ** e1, -(10.0 ** e3), 10.0 ** es
    k2, k4 = (-1.0) ** neg2 * 10.0 ** e2, (-1.0) ** neg4 * 10.0 ** e4

    ks = {"k1": k1, "k2": k2, "k3": k3, "k4": k4, "c5": 1.0, "c2": 1.0}

    def passes(x):
        return bool(bnd._single_certificate(ks, math.exp(x)))

    assume(passes(40.0))
    lo, hi = 1.0, 40.0
    if passes(lo):
        hi = lo
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    with mpmath.workdps(40):
        a = mpmath.mpf(math.exp(hi)) * (1 + mpmath.mpf(s))
        p, h2 = _single_h2_numerator(*map(mpmath.mpf, (k1, k2, k3, k4)), a)
        assert p > 0
        assert h2 < 0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e12), st.floats(1e-3, 1e4), st.floats(-1e6, -1e-3),
       st.floats(1e-12, 1e3))
def test_concavity_beyond_threshold(q, k1, k3, s):
    # g'' in 40-digit arithmetic at A = A_c (1 + s), for q, k1 > 0 > k3
    a_c = bnd._concavity_threshold(q, k1, k3)
    with mpmath.workdps(40):
        a = mpmath.mpf(a_c) * (1 + mpmath.mpf(s))
        assert -1 + q * (2 * k1 / a - 3 * k3 / a ** 2) < 0


def test_k_signs_on_table_grid():
    # The concavity certificates assume k1 > 0 > k3 in every row.
    table = bnd._theta_grid_table(0.125, 100, 10000, cst.PRIME_CUTOFF)
    assert (table["k1"] > 0.0).all()
    assert (table["k3"] < 0.0).all()
    # The N = 1 certificate removes no row that g(L) > 0 > g(1e16) admits.
    a_lo = np.maximum(
        bnd._concavity_threshold(8.0 * table["c5"] ** 2, table["k1"], table["k3"]),
        math.exp(math.log(8.0) + 1e-9))
    with np.errstate(invalid="ignore"):
        feasible = ((bnd._stationarity(a_lo, 1, table, True)[0] > 0.0)
                    & (bnd._stationarity(1e16, 1, table, True)[0] < 0.0))
    assert feasible.sum() > 9000
    assert bnd._single_certificate(table, a_lo)[feasible].all()


def test_a_search_evaluation_counts_on_table_grid(monkeypatch):
    # Every row of the certified A-search converges well inside the Newton
    # cap for each table N (at most 9 f-evaluations observed, at N = 1).
    table = bnd._theta_grid_table(0.125, 100, 10000, cst.PRIME_CUTOFF)
    counts = []

    def recording(*args):
        x, its = newton(*args)
        counts.append(its)
        return x, its

    newton = bnd.roots._newton_vec
    monkeypatch.setattr(bnd.roots, "_newton_vec", recording)
    for n in bnd.DEFAULT_TABLE_N:
        bnd._optimize_A_vec(n, 0.125, table)
        assert counts[-1].size > 9000
        assert counts[-1].max() <= 12


def test_table_rows_match_frozen_optima():
    for n, a_hex, theta_hex, b_hex in TABLE_ROWS_HEX:
        rep = bnd.optimize(n)
        assert rep.theta_star == float.fromhex(theta_hex)
        assert rep.A_star == pytest.approx(float.fromhex(a_hex), rel=1e-14)
        assert rep.bound == pytest.approx(float.fromhex(b_hex), rel=1e-14)


def test_stationarity_slope_matches_difference_quotient():
    _, a_ref, theta_ref, _ = ROW_1
    ks = cst.k_constants(theta_ref)
    for n, single in ((1, True), (7, False)):
        la = math.log(a_ref)
        h = 1e-6
        numeric = (bnd._stationarity(math.exp(la + h), n, ks, single)[0]
                   - bnd._stationarity(math.exp(la - h), n, ks, single)[0]) / (2 * h)
        assert bnd._stationarity(math.exp(la), n, ks, single)[1] == \
            pytest.approx(numeric, rel=1e-6)


def test_bound_unimodal_in_A():
    # coarse scan over the optimization window for one table row
    ks = cst.k_constants(0.0012)
    grid = np.exp(np.linspace(math.log(9.0), math.log(1.0e14), 60))
    vals = np.array([float(bnd._bound_value(a, 5, ks, False)) for a in grid])
    d = np.diff(vals)
    switches = int(np.count_nonzero(np.sign(d[1:]) != np.sign(d[:-1])))
    assert switches <= 1


# ------------------------------------------------------------- asymptotics

def test_asymptotic_frozen_values():
    a = bnd.asymptotic_constants(ASYMPTOTIC_EPS, 0.125)
    for name, want in ASYMPTOTIC.items():
        assert getattr(a, name) == pytest.approx(want, rel=1e-12), name
    small = bnd.asymptotic_constants(ASYMPTOTIC_EPS, 1e-3)
    assert small.n0 == pytest.approx(ASYMPTOTIC_N0_SMALL_KAPPA, rel=1e-12)


def test_asymptotic_ordering_and_domain():
    a = bnd.asymptotic_constants(0.01)
    assert a.c5_minus <= a.c5_plus
    assert a.lambda_minus <= a.lambda_plus
    with pytest.raises(DomainError):
        bnd.asymptotic_constants(0.5)
    with pytest.raises(DomainError):
        bnd.asymptotic_constants(0.0)


def test_asymptotic_leading_coefficient_decreasing_in_eps():
    coefs = []
    for eps in (0.01, 0.05, 0.2):
        a = bnd.asymptotic_constants(eps)
        coefs.append(2.0 * math.pi / (4.0 * a.lambda_plus * (1 + eps) ** 3))
    assert coefs[0] > coefs[1] > coefs[2]


def test_asymptotic_bound_value_and_guard():
    assert bnd.asymptotic_bound(1e20, 0.01) == pytest.approx(
        ASYMPTOTIC_BOUND_1E20_EPS001, rel=1e-12)
    with pytest.raises(PreconditionError):
        bnd.asymptotic_bound(2, 0.01)
    for n in (math.nan, math.inf):
        with pytest.raises(DomainError):
            bnd.asymptotic_bound(n, 0.01)
    # just below the eps^-3-scaled threshold at small eps
    a = bnd.asymptotic_constants(1e-3)
    n_min = max(3.0, a.n0 / 1e-9)
    with pytest.raises(PreconditionError):
        bnd.asymptotic_bound(n_min * 0.5, 1e-3)
