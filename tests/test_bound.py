"""Lower-bound evaluation, (A, theta) optimization, large-N asymptotics."""

import dataclasses
import math
import re
import subprocess
import sys
import types
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
from critline import roots
from critline.errors import DomainError, OptimizerError, PreconditionError
from critline.specfun import gamma_ratio_quarter

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


@pytest.fixture(scope="module")
def full_grid():
    """build(size, kappa, n_rect): (thetas, constant set), the exact
    constant chain on every row of the theta grid k / size, built once
    per argument tuple in this module.  The oracle for the pruned sweep,
    which never computes it whole."""
    tables = {}

    def build(size, kappa=0.125, n_rect=100):
        if (size, kappa, n_rect) not in tables:
            thetas = np.arange(1, size) / size
            tables[size, kappa, n_rect] = thetas, cst._k_table(thetas, kappa, n_rect)
        return tables[size, kappa, n_rect]

    return build


_SEARCHES = bnd._searches          # unpatched, for _per_N_searches


def _search(n, kappa, ks):
    """(A_star, bound) rows of the A-search for one N."""
    a, b = _SEARCHES((n,), kappa, ks)
    return a[0], b[0]


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
    with pytest.raises(DomainError, match="unset"):
        bnd.lower_bound_general(cst.Params(N=2, theta=0.01))


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
    assert _search(2, 0.125, table)[1][0] == -np.inf
    # The message states the search window's cap.
    with pytest.raises(OptimizerError, match=re.escape(f", {bnd._A_MAX:.3g}]")):
        bnd.optimize_A(2, 0.998)


@pytest.mark.parametrize("n", [1, 2])
def test_optimize_refines_grid_winner(n, full_grid):
    # The local theta refinement never loses to the grid and stays within
    # one grid cell of the grid winner.
    thetas, table = full_grid(500)
    _, b_vec = _search(n, 0.125, table)
    i_best = int(np.argmax(b_vec))
    rep = bnd.optimize(n, theta_grid_size=500)
    assert rep.bound >= b_vec[i_best]
    assert abs(rep.theta_star - thetas[i_best]) <= 1.0 / 500


@pytest.mark.parametrize("grid", [10000, 500])
def test_optimize_many_matches_optimize(grid):
    many = bnd.optimize_many(bnd.DEFAULT_TABLE_N, theta_grid_size=grid)
    assert many == [bnd.optimize(n, theta_grid_size=grid) for n in bnd.DEFAULT_TABLE_N]


def test_optimize_many_one_chain_call_per_pass(monkeypatch):
    # The table's N share each constant-chain call.  Pass 0 makes two: one
    # on the left ends of the 64-row blocks (157 of the 9 999 rows), one on
    # the rows the block floor cannot rule out (183 measured).  Then one
    # per refinement pass on the 8 x 51 local grids.
    calls = []
    k_table = cst._k_table

    def spy(thetas, *args, **kwargs):
        calls.append(np.size(thetas))
        return k_table(thetas, *args, **kwargs)

    monkeypatch.setattr(cst, "_k_table", spy)
    assert cli.main(["table"]) == 0
    assert len(calls) == 2 + bnd._REFINE_PASSES
    assert calls[0] == -(-9999 // cst._FLOOR_BLOCK) == 157
    assert calls[1] <= 200
    assert calls[2:] == [51 * len(bnd.DEFAULT_TABLE_N)] * bnd._REFINE_PASSES


GRIDS = [(10000, 0.125, 100), (500, 0.125, 100), (2000, 0.1, 100),
         (1000, 0.125, 1000)]


def _floor(thetas, table, kappa, n_rect):
    """_k_blocks' floor on the rows of table (at thetas), after checking
    that its block ends are the exact rows at every _FLOOR_BLOCK-th theta."""
    ends, floor = cst._k_blocks(thetas, kappa, n_rect)
    assert (ends._map(np.ndarray.tobytes)
            == table._map(lambda v: v[::cst._FLOOR_BLOCK].tobytes()))
    return floor


@pytest.mark.parametrize("size, kappa, n_rect", GRIDS)
def test_envelope_bounds_every_exact_row(size, kappa, n_rect, full_grid):
    # U from the block floor >= the exact A-search's bound in every row of
    # the whole grid (each ends in a ragged block), for every table N and
    # N = 10^6; U is finite on almost every row (at least 99.6 % at
    # N <= 1000 and 96 % at 10^6), so the check is not empty.
    # And U >= b- on 40 points of each finite row's window [L, _A_MAX], so
    # U bounds the floor itself, also where no exact row is feasible.
    thetas, table = full_grid(size, kappa, n_rect)
    floor = _floor(thetas, table, kappa, n_rect)
    ns = bnd.DEFAULT_TABLE_N + (10 ** 6,)
    for n in ns:
        u = bnd._b_upper(n, kappa, floor)
        _, b = _search(n, kappa, table)
        assert (b <= u).all(), n
        assert np.isfinite(u).mean() > 0.9
        rows = np.isfinite(u)
        a_lo = bnd._search_window(n, kappa, floor)[1][rows]
        a = np.exp(np.linspace(np.log(a_lo), math.log(bnd._A_MAX), 40)).T
        b_env = bnd._bound_value(a, n, floor._map(lambda v: v[rows, None]), n == 1)
        assert (b_env <= u[rows, None]).all(), n


@pytest.mark.parametrize("size, kappa, n_rect", GRIDS)
def test_pruned_grid_winners_match_full_grid(size, kappa, n_rect, full_grid,
                                            monkeypatch):
    # With no refinement pass, optimize_many reports its pass-0 winners:
    # the full grid's argmax (smallest theta among ties), bit for bit, on
    # every grid, each of which ends in a ragged block.
    monkeypatch.setattr(bnd, "_REFINE_PASSES", 0)
    assert (size - 1) % cst._FLOOR_BLOCK
    thetas, table = full_grid(size, kappa, n_rect)
    reports = bnd.optimize_many(bnd.DEFAULT_TABLE_N, kappa, size, n_rect)
    for n, rep in zip(bnd.DEFAULT_TABLE_N, reports):
        a, b = _search(n, kappa, table)
        i = int(np.argmax(b))
        assert (rep.theta_star, rep.A_star, rep.bound) == (thetas[i], a[i], b[i])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.floats(1e-6, 1.0 - 1e-6), st.floats(0.0, 1.0), st.floats(1e-3, 0.125),
       st.integers(1, 1000))
def test_envelope_quadrature_floor(theta, step, kappa, n_rect):
    # The lemma behind the block floor, on computed rows: a row theta' in
    # the block of left end theta takes theta's quadratures, lowered, and
    # then I- <= int c7 and A I- - V- <= A int c7 - int v c7 at theta' on
    # A above 1/kappa; every other column is the exact row's.
    theta2 = min(theta + step * (1.0 - theta), 1.0 - 1e-6)
    thetas = np.array([theta, theta2])
    _, floor = cst._k_blocks(thetas, kappa, n_rect)
    row = cst._k_table(thetas[1:], kappa, n_rect)
    i_lo, v_lo = floor.int_c7[1], floor.int_vc7[1]
    assert 0.0 < i_lo <= row.int_c7[0]
    assert v_lo <= row.int_vc7[0]
    a = (1.0 / kappa) * (1.0 + np.logspace(-9, 12, 50))
    assert (a * i_lo - v_lo <= a * row.int_c7[0] - row.int_vc7[0]).all()
    for key in ("rho", "c2", "c3", "c4", "c5", "k1", "k3"):
        assert getattr(floor, key)[1] == getattr(row, key)[0], key


def test_c7_rises_in_theta_symbolic():
    # The three facts of _k_blocks' proof.  (1) 2 X^2 e^{-theta X} dF/dX is
    # the perturbed root equation, the same as roots._rho_lemma_fdf's f.
    x, th, a, b, w = sp.symbols("X theta a b w", positive=True)
    big_f = (sp.exp(x) + sp.exp(th * x)) * (a + b * sp.sqrt(x)) / x
    w_x = a + b * sp.sqrt(x)
    root_eq = (sp.exp((1 - th) * x) * (2 * x * w_x - 2 * a - b * sp.sqrt(x))
               + 2 * th * x * w_x - 2 * a - b * sp.sqrt(x))
    assert sp.simplify(2 * x ** 2 * sp.exp(-th * x) * sp.diff(big_f, x) - root_eq) == 0
    eq = sp.lambdify((x, a, th, b), root_eq)
    gq = gamma_ratio_quarter()
    for xv, av, tv in ((0.3, 0.0, 0.5), (0.8, 0.4, 0.011), (1.6, 1.77, 0.97)):
        code = roots._rho_lemma_fdf(np.array([xv]), av, tv, gq)[0][0]
        assert code == pytest.approx(eq(xv, av, tv, gq), rel=1e-13, abs=1e-13)
    # (2) dF/dtheta = e^{theta X} (a + b sqrt X) > 0.
    d_theta = sp.diff(big_f, th)
    assert sp.simplify(d_theta - sp.exp(th * x) * w_x) == 0
    assert d_theta.is_positive
    # (3) Each piece p of c4's max/min, and 9 (1 + theta^2.5)/5, over
    # 1 - theta rises: (1 - theta)^2 (p / (1 - theta))' = p' (1 - theta) + p
    # is a sum of positive terms, with w = 1 - theta.  4 theta - 1 is
    # max(1, |1 - 4 theta|) on theta >= 1/2, and 1 below it.
    r = sp.sqrt(th)
    half = sp.Rational(1, 2)
    pieces = [
        (3 * sp.sqrt(1 - th), 3 * half * sp.sqrt(w)),
        (1 + 3 * th * r, 1 + 3 * th * r + 9 * half * r * w),
        (4 * th - 1 + 3 * th * r, 3 + 3 * th * r + 9 * half * r * w),
        (1 - th + 3 * th * sp.sqrt(1 - th), 3 * w * sp.sqrt(w) + 3 * half * th * sp.sqrt(w)),
        (sp.Rational(9, 5) * (1 + th ** sp.Rational(5, 2)),
         sp.Rational(9, 5) * (1 + th ** sp.Rational(5, 2)) + 9 * half * th * r * w),
    ]
    for piece, positive in pieces:
        assert positive.is_positive
        num = sp.diff(piece, th) * (1 - th) + piece
        assert sp.simplify(num - positive.subs(w, 1 - th)) == 0, piece
    grid = np.linspace(1e-6, 1.0 - 1e-6, 100001)
    assert (np.diff(cst._c4_closed(grid)) > 0.0).all()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.floats(1e-6, 1.0 - 1e-6), st.floats(1e-8, 1.0), st.floats(0.0, 1.0),
       st.floats(1e-3, 0.125))
def test_c7_rises_in_theta(theta, step, frac, kappa):
    # The computed c7 does not fall from theta to theta' > theta at any u
    # in [0, 1/kappa] (its true rise, at least -ln(1 - step), is far above
    # rounding), and c6 is F(rho) / (2 (1 - theta) sqrt(pi kappa)) within a
    # few ulp, at a rho where F is no larger a relative 2^-20 either side.
    theta2 = theta + step * (1.0 - theta)
    assume(theta2 < 1.0)
    u = frac / kappa
    assert cst.c7(u, theta2, kappa) >= cst.c7(u, theta, kappa)
    a = float(np.sqrt(math.pi * kappa * np.array([u]))[0])
    rho = roots.rho_lemma_a(a, theta).value
    gq = gamma_ratio_quarter()
    with mpmath.workdps(30):
        def big_f(xv):
            xv = mpmath.mpf(xv)
            return ((mpmath.exp(xv) + mpmath.exp(theta * xv)) * (a + gq * mpmath.sqrt(xv))
                    / xv)
        want = big_f(rho) / (2 * (1 - mpmath.mpf(theta)) * mpmath.sqrt(mpmath.pi * kappa))
        assert abs(cst.c6(u, theta, kappa) / want - 1) <= 8 * np.finfo(float).eps
        for side in (-1, 1):
            assert big_f(rho) <= big_f(rho * (1 + side * mpmath.mpf(2) ** -20))


@pytest.mark.parametrize("Ns", [(), (0,), (True,), (2, 0)])
def test_optimize_many_refuses_bad_N(Ns):
    with pytest.raises(DomainError):
        bnd.optimize_many(Ns, theta_grid_size=500)


def test_optimize_many_names_the_infeasible_N(capsys):
    with pytest.raises(OptimizerError, match="N=100000000,"):
        bnd.optimize_many((2, 10 ** 8), theta_grid_size=500)
    assert cli.main(["optimize", "--N", "100000000", "--theta-grid", "500"]) == 4
    assert capsys.readouterr().out == ""


def test_optimize_accepts_numpy_scalars():
    plain = bnd.optimize(2, theta_grid_size=500, prime_cutoff=50000)
    assert bnd.optimize(np.int64(2), kappa=np.float64(0.125),
                        theta_grid_size=np.int64(500),
                        prime_cutoff=np.int64(50000)) == plain


def test_N_limit_library():
    # N_MAX is the largest N: at it every row is infeasible, above it the
    # argument is refused, never a bare OverflowError from 32.0 * N.
    with pytest.raises(OptimizerError):
        bnd.optimize_many((cst.N_MAX,), theta_grid_size=500)
    for n in (cst.N_MAX + 1, 10 ** 400):
        with pytest.raises(DomainError, match="N_MAX = 1e\\+100"):
            bnd.optimize_many((2, n), theta_grid_size=500)
        with pytest.raises(DomainError, match="N_MAX"):
            bnd.optimize_A(n, 0.011)
        with pytest.raises(DomainError, match="N_MAX"):
            cst.Params(N=n, theta=0.011)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, code", [(10 ** 100, 4), (10 ** 100 + 1, 3), (10 ** 400, 3)],
                         ids=["at_limit", "above_limit", "1e400"])
def test_N_limit_cli(n, code, capsys):
    assert cst.N_MAX == 10 ** 100
    assert cli.main(["optimize", "--N", str(n)]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err and err.count("\n") == 1


def test_import_leaves_scipy_unloaded():
    import critline
    src = str(Path(critline.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import critline; "
         "assert 'scipy' not in sys.modules, 'scipy imported'", src],
        check=True, timeout=60)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 100, 1000, 10000])
def test_certified_root_matches_scan_oracle(n, full_grid):
    # The rule the certified root replaced, applied here as the oracle:
    # g elementwise on 600 ln A points from just above 1/kappa to 1e16, and
    # the last +/- sign change of each row.
    _, table = full_grid(500)
    grid = np.linspace(math.log(8.0) + 1e-9, math.log(1e16), 600)
    with np.errstate(invalid="ignore"):
        g, _ = bnd._stationarity(np.exp(grid)[None, :], n,
                                 table._map(lambda v: v[:, None]), n == 1)
    trans = (g[:, :-1] > 0) & (g[:, 1:] < 0)
    last = np.array([np.nonzero(t)[0][-1] if t.any() else -1 for t in trans])
    a_star, b_vec = _search(n, 0.125, table)
    rows = np.nonzero(last >= 0)[0]
    assert np.array_equal(np.nonzero(np.isfinite(b_vec))[0], rows)
    assert rows.size > 400
    a = a_star[rows]
    assert (np.exp(grid[last[rows]]) <= a).all()
    assert (a <= np.exp(grid[last[rows] + 1])).all()
    # |g(A*)| on the scale of rounding in g's largest term, A^2 / 2
    g_star, _ = bnd._stationarity(a, n, table._map(lambda v: v[rows]), n == 1)
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

    unread = cst.ConstantSet(*[math.nan] * len(dataclasses.fields(cst.ConstantSet)))
    ks = dataclasses.replace(unread, k1=k1, k2=k2, k3=k3, k4=k4, c5=1.0, c2=1.0)

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


def test_k_signs_on_table_grid(full_grid):
    # The concavity certificates assume k1 > 0 > k3 in every row.
    _, table = full_grid(10000)
    assert (table.k1 > 0.0).all()
    assert (table.k3 < 0.0).all()
    # The N = 1 certificate removes no row that g(L) > 0 > g(1e16) admits.
    a_lo = np.maximum(
        bnd._concavity_threshold(8.0 * table.c5 ** 2, table.k1, table.k3),
        math.exp(math.log(8.0) + 1e-9))
    with np.errstate(invalid="ignore"):
        feasible = ((bnd._stationarity(a_lo, 1, table, True)[0] > 0.0)
                    & (bnd._stationarity(1e16, 1, table, True)[0] < 0.0))
    assert feasible.sum() > 9000
    assert bnd._single_certificate(table, a_lo)[feasible].all()


def test_a_search_evaluation_counts_on_table_grid(monkeypatch, full_grid):
    # The envelope's A-search evaluates g at L and _A_MAX on every row (the
    # window), then takes exactly 3 Newton steps on every row, with no
    # convergence test, for each table N; most rows are feasible.
    thetas, table = full_grid(10000)
    sizes = []
    stationarity = bnd._stationarity

    def spy(a, *args):
        sizes.append(np.size(a))
        return stationarity(a, *args)

    monkeypatch.setattr(bnd, "_stationarity", spy)
    for n in bnd.DEFAULT_TABLE_N:
        sizes.clear()
        assert np.count_nonzero(np.isfinite(bnd._b_upper(n, 0.125, table))) > 9000
        assert sizes == [thetas.size, 1] + [thetas.size] * 3
    monkeypatch.undo()
    # The converged search runs on the exact rows only: at most 3 700
    # Newton elements in one table (3 612 measured, the feasible ones of
    # the 8 x 157 block ends, the 8 x 183 pass-0 rows and the 3 x 408
    # refinement rows), each well inside the cap.
    counts = _record_newton_counts(monkeypatch)
    bnd.optimize_many(bnd.DEFAULT_TABLE_N)
    assert sum(its.size for its in counts) <= 3700
    assert max(its.max() for its in counts) <= 12


def _record_newton_counts(monkeypatch):
    """The list that bound's Newton f-evaluation counts are appended to."""
    counts = []
    newton = bnd.roots._newton_vec

    def recording(*args):
        x, its = newton(*args)
        counts.append(its)
        return x, its

    monkeypatch.setattr(bnd, "roots", types.SimpleNamespace(_newton_vec=recording))
    return counts


@pytest.mark.parametrize("size, kappa, n_rect", GRIDS)
def test_upper_bound_holds_converged_bound(size, kappa, n_rect, full_grid, monkeypatch):
    # On exact and on block-floor rows, for every table N and N = 10^6,
    # _b_upper is finite on every row the converged search finds feasible,
    # and elsewhere only where g >= 0 at both ends of a concave window (b
    # rises), and bounds each feasible row's converged bound from above.
    # At least 59 % of the rows are feasible (the fewest at N = 10^6), so
    # the check is not empty, and the median excess is below 2^-19
    # relative, twice the 2^-20 margin: the pruning relies on this.  The
    # converged search takes at most 12 f-evaluations on every row.
    thetas, table = full_grid(size, kappa, n_rect)
    floor = _floor(thetas, table, kappa, n_rect)
    counts = _record_newton_counts(monkeypatch)
    for n in bnd.DEFAULT_TABLE_N + (10 ** 6,):
        for rows in (table, floor):
            hi = bnd._b_upper(n, kappa, rows)
            _, b = _search(n, kappa, rows)
            feasible = b > -np.inf
            assert feasible.mean() > 0.5
            _, _, g_lo, (g_hi, _), concave, _ = bnd._search_window(n, kappa, rows)
            rising = concave & (g_lo >= 0.0) & (g_hi >= 0.0)
            assert np.isfinite(hi[feasible]).all(), n
            assert rising[np.isfinite(hi) & ~feasible].all(), n
            b, hi = b[feasible], hi[feasible]
            assert (b <= hi).all(), n
            assert np.median((hi - b) / np.abs(b)) < 2.0 ** -19, n
            assert counts[-1].size == b.size and counts[-1].max() <= 12, n


def _per_N_searches(ns, kappa, table):
    """_searches by one call per N."""
    rows = [table if table.k1.ndim == 1 else table._map(lambda v: v[j])
            for j in range(len(ns))]
    a, b = zip(*(_search(n, kappa, t) for n, t in zip(ns, rows)))
    return np.array(a), np.array(b)


def test_batched_search_matches_per_N_calls():
    # A 51-row local grid whose low end, below theta = 0, holds copies of
    # its centre (exact ties), once for all N and once laid out one row per
    # N as in refinement: one call for N = 1 and one on the column of the
    # other N give the bits of per-N _searches calls.
    ns = bnd.DEFAULT_TABLE_N
    thetas = 0.0012 + 1e-4 * np.arange(-25, 26)
    thetas = np.where(thetas > 0.0, thetas, 0.0012)
    line = cst._k_table(thetas)
    grid = cst._k_table(np.tile(thetas, len(ns)))._map(lambda v: v.reshape(len(ns), -1))
    for table in (line, grid):
        for got, want in zip(bnd._searches(ns, 0.125, table),
                             _per_N_searches(ns, 0.125, table)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("size", [2, 3])
def test_tied_centre_copies_match_per_N_searches(size, monkeypatch):
    # At grid sizes 2 and 3 the local grids reach past (0, 1), so they hold
    # copies of their centre: optimize_many reports what it reports with
    # one A-search call per N.
    reports = bnd.optimize_many(bnd.DEFAULT_TABLE_N, theta_grid_size=size)
    monkeypatch.setattr(bnd, "_searches", _per_N_searches)
    assert reports == bnd.optimize_many(bnd.DEFAULT_TABLE_N, theta_grid_size=size)


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
    with pytest.raises(DomainError, match="asymptotic_constants"):
        bnd.asymptotic_constants(0.01, kappa=1e-150)     # lambda-^3 overflows


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
