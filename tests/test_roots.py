"""The safeguarded Newton solver and the two transcendental root families."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critline import constants as cst
from critline import roots
from critline.errors import DomainError
from critline.specfun import gamma_ratio_quarter

from reference_values import RHO_AT_0, RHO_AT_QUARTER, CHAIN, CHAIN_THETA


# -------------------------------------------------------------- rho(theta)

def test_rho_theta_frozen():
    assert roots.rho_theta(0.0).value == pytest.approx(RHO_AT_0, rel=1e-14)
    assert roots.rho_theta(0.25).value == pytest.approx(RHO_AT_QUARTER,
                                                        rel=1e-14)
    assert roots.rho_theta(CHAIN_THETA).value == pytest.approx(CHAIN["rho"],
                                                               rel=1e-14)


def test_rho_theta_window_and_residual():
    for theta in np.linspace(0.0, 0.97, 25):
        sol = roots.rho_theta(float(theta))
        assert 0.5 < sol.value < 1.0
        assert abs(sol.residual) < 1e-12
        assert (sol.bracket_lo, sol.bracket_hi) == (0.5, 1.0)
        assert 1 <= sol.iterations <= 10


def test_rho_theta_equation_satisfied():
    # independent re-evaluation of the defining equation at the root
    for theta in (0.0, 0.011, 0.3, 0.77):
        x = roots.rho_theta(theta).value
        lhs = -1.0 + 2.0 * theta * x + math.exp(x * (1.0 - theta)) * (
            2.0 * x - 1.0)
        assert abs(lhs) < 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.011, 0.25, 0.5, 0.9])
def test_rho_theta_within_one_ulp_of_mpmath(theta):
    with mpmath.workdps(40):
        th = mpmath.mpf(theta)
        want = mpmath.findroot(
            lambda x: -1 + 2 * th * x + mpmath.exp(x * (1 - th)) * (2 * x - 1),
            (0.5, 1.0), solver="anderson")
        got = roots.rho_theta(theta).value
        assert abs(got - want) <= np.spacing(got)


def test_rho_theta_domain():
    with pytest.raises(DomainError):
        roots.rho_theta(1.0)
    with pytest.raises(DomainError):
        roots.rho_theta(-0.2)


# ------------------------------------------------------------ rho(a, theta)

def test_rho_lemma_reduces_at_a_zero():
    for theta in (0.0, 0.011, 0.25, 0.6):
        full = roots.rho_lemma_a(0.0, theta).value
        assert full == pytest.approx(roots.rho_theta(theta).value, abs=1e-10)


def test_rho_lemma_residual_small():
    for a in (0.0, 0.5, 3.0, 20.0):
        sol = roots.rho_lemma_a(a, 0.011)
        assert sol.value > 0.0
        assert abs(sol.residual) < 1e-9


def test_rho_lemma_grows_with_a():
    vals = [roots.rho_lemma_a(a, 0.011).value for a in (0.0, 1.0, 4.0, 8.0)]
    assert vals == sorted(vals)


def _a_of_x(x, theta, b, exp=np.exp, sqrt=np.sqrt):
    """The exact inverse of rho(a, theta): the perturbed equation is linear
    in a, f = a (F - e - 1) + b sqrt(X) F with F the rho(theta) equation."""
    e = exp((1.0 - theta) * x)
    big_f = e * (2.0 * x - 1.0) + 2.0 * theta * x - 1.0
    return b * sqrt(x) * big_f / (1.0 + e - big_f)


def test_rho_lemma_inverse_map_on_table_grid():
    # every 20th theta of the 10^4 table grid, and the 101 quadrature u nodes
    kappa = 0.125
    thetas = np.arange(1, 10000, 20) / 10000
    a = np.sqrt(math.pi * kappa * np.linspace(0.0, 1.0 / kappa, 101))
    x, its = roots._rho_lemma_vec(a, thetas)
    assert x.shape == its.shape == (500, 101)
    err = np.abs(_a_of_x(x, thetas[:, None], gamma_ratio_quarter()) - a)
    assert float(err.max()) <= 1e-14


def test_rho_lemma_table_grid_evaluation_count():
    # The cubic Hermite starts on 32 nodes leave about two f evaluations
    # per element over the table's (theta, u) grid (a linear start on the
    # same nodes needs more than three).  Newton iterates densely, so a
    # grid costs its slowest element's count in passes: two, measured.
    thetas = np.arange(1, 10000, 20) / 10000
    a = np.sqrt(math.pi * 0.125 * np.linspace(0.0, 8.0, 101))
    _, its = roots._rho_lemma_vec(a, thetas)
    assert its.mean() <= 2.5
    assert its.max() <= 2


@pytest.mark.parametrize("kappa, n_rect", [(0.1, 1000), (1e-3, 7)])
def test_k_table_grid_evaluation_count(kappa, n_rect):
    # The same two passes on _k_table's (theta, u) grids at other kappa
    # and n_rect, a = sqrt(pi kappa u), with theta near both ends of (0, 1).
    thetas = np.array([1e-6, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - 1e-6])
    a = np.sqrt(math.pi * kappa * np.linspace(0.0, 1.0 / kappa, n_rect + 1))
    _, its = roots._rho_lemma_vec(a, thetas)
    assert its.max() <= 2


@pytest.mark.parametrize("a_shape, theta_shape", [
    ((7,), (5,)), ((1,), (5,)), ((7,), (1,)), ((1,), (1,)), ((101,), (3,)),
])
def test_rho_lemma_vec_broadcast_layouts(a_shape, theta_shape):
    # One node grid per theta row, shared by the whole a row: each element
    # of the (theta x a) result matches its one-element call.
    rng = np.random.default_rng(7)
    a = rng.uniform(0.0, 3.0, a_shape)
    thetas = rng.uniform(0.0, 0.99, theta_shape)
    x, its = roots._rho_lemma_vec(a, thetas)
    assert x.shape == its.shape == theta_shape + a_shape
    want = [[roots.rho_lemma_a(ai, ti).value for ai in a] for ti in thetas]
    assert x.ravel() == pytest.approx(np.ravel(want), rel=1e-15)


def test_rho_lemma_vec_cell_search_edge_cases():
    # The sorted cell search against one-element calls on the same row
    # stage: unsorted a with repeats, a = 0, a = a_max and a equal to a
    # computed node value a(X_k) of each row.
    thetas = np.array([0.011, 0.3, 0.9])
    a_max = 3.0
    rows = roots._rho_lemma_rows(a_max, thetas)
    x_bot, x_top = rows
    n = roots._RHO_NODES
    step = (np.maximum(x_top, x_bot + 2.0 ** -20) - x_bot)[:, None] / (n - 1)
    a_k, _ = roots._a_of_x(x_bot[:, None] + step * np.arange(n),
                           thetas[:, None], gamma_ratio_quarter())
    nodes = [a_k[0, 0], a_k[0, 5], a_k[1, 17], a_k[2, n - 2]]
    assert 0.0 < min(nodes) and max(nodes) < a_max
    a = np.array([1.5, 0.0, nodes[1], a_max, 0.7, nodes[0], 1.5, 0.0,
                  nodes[2], a_max, nodes[3], nodes[1], 0.2])
    brackets = []
    newton = roots._newton_vec

    def recording(fdf, lo, hi, x0, work=None):
        brackets.append((lo.copy(), hi.copy()))     # Newton iterates in them
        return newton(fdf, lo, hi, x0, work)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "_newton_vec", recording)
        x, its = roots._rho_lemma_vec(a, thetas, rows)
    assert x.shape == its.shape == (thetas.size, a.size)
    # Each element's bracket is that of its cell j = #{k : a_k <= a} - 1.
    j = np.count_nonzero(a_k[:, None, :] <= a[:, None], axis=2) - 1
    assert j.min() == -1 and j.max() == n - 1
    lo, hi = brackets[-1]
    assert lo.tobytes() == np.where(j >= 1, x_bot[:, None] + step * (j - 1),
                                    1e-8).tobytes()
    assert hi.tobytes() == np.where(j <= n - 3, x_bot[:, None] + step * (j + 2),
                                    2.0).tobytes()
    for i, ai in enumerate(a):
        x1, its1 = roots._rho_lemma_vec(np.array([ai]), thetas, rows)
        assert x[:, i].tolist() == x1[:, 0].tolist(), ai
        assert its[:, i].tolist() == its1[:, 0].tolist(), ai
    # Without the row stage given, it is solved at max(a) = a_max.
    again, its_again = roots._rho_lemma_vec(a, thetas)
    assert again.tobytes() == x.tobytes() and its_again.tobytes() == its.tobytes()


@pytest.mark.parametrize("a", [math.sqrt(math.pi), 10.0, 1e3, 1e6])
def test_rho_lemma_fixed_bracket_large_a(a):
    # a(X) is increasing, so a(X (1 - d)) <= a <= a(X (1 + d)) in 40-digit
    # arithmetic puts the exact root within d X of the returned one.  (At
    # a = 1e6 the denominator 1 + e - F is ~1e-6, so a(X) in doubles moves
    # by ~1e-10 per ulp of X and cannot itself be compared to a.)
    with mpmath.workdps(40):
        b = mpmath.gamma(mpmath.mpf(1) / 4) / mpmath.gamma(mpmath.mpf(3) / 4)
        for theta in (0.0, 0.011, 0.5, 0.9, 0.99):
            sol = roots.rho_lemma_a(a, theta)
            x = mpmath.mpf(sol.value)
            assert roots.rho_theta(theta).value < sol.value < 2.0
            assert (sol.bracket_lo, sol.bracket_hi) == (1e-8, 2.0)
            d = mpmath.mpf(1e-15)
            lo = _a_of_x(x * (1 - d), theta, b, mpmath.exp, mpmath.sqrt)
            hi = _a_of_x(x * (1 + d), theta, b, mpmath.exp, mpmath.sqrt)
            assert lo <= a <= hi


@pytest.mark.parametrize("call, name", [
    (lambda: roots.rho_lemma_a(math.nan, 0.3), "rho_lemma_a"),
    (lambda: roots.rho_lemma_a(math.inf, 0.3), "rho_lemma_a"),
    (lambda: roots.rho_lemma_a(-math.inf, 0.3), "rho_lemma_a"),
    (lambda: cst.c6(math.nan, 0.3), "c6"),
    (lambda: cst.c7(math.nan, 0.3), "c7"),
    (lambda: cst.c6(math.inf, 0.3), "c6"),
    (lambda: cst.c7(-1.0, 0.3), "c7"),
    (lambda: roots.rho_lemma_a(1.0, -0.1), "rho_lemma_a"),
    (lambda: roots.rho_lemma_a(1.0, 1.0), "rho_lemma_a"),
], ids=["a_nan", "a_inf", "a_minus_inf", "c6_nan", "c7_nan", "c6_inf",
        "c7_negative", "theta_negative", "theta_one"])
def test_bad_inputs_rejected_by_name(call, name):
    with pytest.raises(DomainError, match=name):
        call()


# ---------------------------------------------------------------- _newton_vec

@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(0.5, 4.0), st.floats(0.0, 10.0)),
                min_size=1, max_size=12))
def test_newton_vec_monotone_cubics(params):
    # x^3 + p x - c with c = r^3 + p r: increasing, root near r in [0.5, 4]
    p = np.array([pp for _, pp in params])
    c = np.array([r ** 3 + pp * r for r, pp in params])

    def fdf(x):
        return x ** 3 + p * x - c, 3.0 * x * x + p

    got, _ = roots._newton_vec(fdf, 0.0, np.full(p.size, 5.0), 5.0)
    assert got == pytest.approx([r for r, _ in params], rel=1e-14)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(0.5, 5.0), st.floats(-2.0, 2.0)),
                min_size=1, max_size=12))
def test_newton_vec_shifted_exp(params):
    # e^{x - s} - e^{r - s}: increasing, root near r in [0.5, 5]
    s = np.array([ss for _, ss in params])
    c = np.exp(np.array([r for r, _ in params]) - s)

    def fdf(x):
        e = np.exp(x - s)
        return e - c, e

    got, _ = roots._newton_vec(fdf, 0.0, 8.0, np.full(s.size, 8.0))
    assert got == pytest.approx(np.log(c) + s, rel=1e-14)


def test_newton_vec_arctan_leaves_bracket():
    # From x0 = 10 the Newton step of arctan(x - r) lands far outside
    # [-10, 10]; the midpoint fallback must still converge.
    r = np.array([-3.7, 0.3, 2.5, 7.1])

    def fdf(x):
        d = x - r
        return np.arctan(d), 1.0 / (1.0 + d * d)

    got, _ = roots._newton_vec(fdf, -10.0, 10.0, np.full(r.size, 10.0))
    assert got == pytest.approx(r, rel=1e-14)


@pytest.mark.parametrize("case", ["flat_root_at_x0", "step_onto_lo",
                                  "simple_root_at_x0"])
def test_newton_vec_root_on_bracket_end_stays_put(case):
    # f = 0 exactly at a bracket end: the element must stop right there,
    # also when f' = 0 makes the Newton step 0/0, and when a step lands
    # exactly on the closed bracket's end.  The second element is an
    # ordinary root that keeps iterating beside it.
    lo, hi, x0 = {"flat_root_at_x0": (1.0, 2.0, 2.0),
                  "step_onto_lo": (2.0, 3.0, 3.0),
                  "simple_root_at_x0": (1.0, 2.0, 2.0)}[case]
    power = 3 if case == "flat_root_at_x0" else 1
    first = np.array([True, False])

    def fdf(x):
        f = np.where(first, (x - 2.0) ** power, x * x - 2.0)
        df = np.where(first, power * (x - 2.0) ** (power - 1), 2.0 * x)
        return f, df

    got, its = roots._newton_vec(fdf, np.array([lo, 0.0]),
                                 np.array([hi, 2.0]), np.array([x0, 2.0]))
    assert got[0] == 2.0
    assert its[0] == (2 if case == "step_onto_lo" else 1)
    assert got[1] == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_newton_vec_breaks_two_cycle():
    # Newton on sign(x) sqrt|x| maps x to -x: from the exact power of two
    # h = 2^-50 each step lands exactly on the other, already evaluated,
    # end of [-h, h], a gap far above the stop tolerance.  The midpoint
    # must break the cycle and hit the root 0.  The second element is an
    # ordinary root beside it.
    h = 2.0 ** -50
    first = np.array([True, False])

    def fdf(x):
        with np.errstate(divide="ignore"):
            r = np.sqrt(np.abs(x))
            f = np.where(first, np.sign(x) * r, x * x - 2.0)
            return f, np.where(first, 0.5 / r, 2.0 * x)

    got, its = roots._newton_vec(fdf, np.array([-1.0, 0.0]),
                                 np.array([1.0, 2.0]), np.array([h, 2.0]))
    assert got[0] == 0.0
    assert its[0] == 3
    assert got[1] == pytest.approx(math.sqrt(2.0), rel=1e-15)


# ------------------------------------- dense blocks against one-element solves

def _alone(fdf_of, lo, hi, x0):
    """Each element of a block solved by itself, fdf_of(slice(k, k + 1))
    building element k's one-element fdf: roots and counts."""
    got = [roots._newton_vec(fdf_of(slice(k, k + 1)),
                             lo[k:k + 1], hi[k:k + 1], x0[k:k + 1])
           for k in range(x0.size)]
    return (np.concatenate([x for x, _ in got]),
            np.concatenate([its for _, its in got]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 0.99),
                          st.floats(0.0, 1.0)),
                min_size=6, max_size=60))
def test_newton_vec_dense_block_matches_one_element_solves(params):
    # rho(a, theta) on the outer bracket [1e-8, 2].  Element k starts at its
    # root (one evaluation) when k % 3 == 0, 1e-9 away (two) when k % 3 ==
    # 1, and anywhere in the bracket (three or more) otherwise, so the
    # block stops unevenly and its stopped elements are evaluated on with
    # every update masked off; each element's root and count must be, bit
    # for bit, those of its solve alone.
    a, theta, s = (np.array(v) for v in zip(*params))
    b = gamma_ratio_quarter()
    n = a.size
    lo, hi = np.full(n, 1e-8), np.full(n, 2.0)

    def fdf_of(k=slice(None)):
        return lambda x: roots._rho_lemma_fdf(x, a[k], theta[k], b)

    fdf = fdf_of()
    root, _ = roots._newton_vec(fdf, lo, hi, 1e-8 + s * (2.0 - 1e-8))
    x0 = np.where(np.arange(n) % 3 == 0, root,
                  np.where(np.arange(n) % 3 == 1, root * (1.0 + 1e-9),
                           np.clip(s * 2.0, 1e-8, 2.0)))
    dense, its = roots._newton_vec(fdf, lo, hi, x0)
    alone, its_alone = _alone(fdf_of, lo, hi, x0)
    assert dense.tobytes() == alone.tobytes()
    assert its.tobytes() == its_alone.tobytes()
    assert its.min() == 1 and 2 in its and its.max() >= 3


def test_newton_vec_guard_cases_inside_a_dense_block():
    # The 2-cycle, root-on-bracket-end and arctan cases above, each several
    # times, shuffled among ordinary roots x^2 = c: the dense block takes
    # each guard exactly as a one-element solve does.
    h = 2.0 ** -50
    cases = [  # (kind, lo, hi, x0, parameter)
        ("cycle", -1.0, 1.0, h, 0.0),
        ("cube", 1.0, 2.0, 2.0, 0.0),
        ("line", 1.0, 2.0, 2.0, 0.0),
        ("line", 2.0, 3.0, 3.0, 0.0),
        ("atan", -10.0, 10.0, 10.0, -3.7),
        ("atan", -10.0, 10.0, 10.0, 7.1),
    ] * 4 + [("square", 0.0, 4.0, 4.0, c) for c in np.linspace(0.5, 15.0, 40)]
    order = np.random.default_rng(3).permutation(len(cases))
    kind, lo, hi, x0, p = zip(*[cases[k] for k in order])
    kind, lo, hi, x0, p = (np.array(v) for v in (kind, lo, hi, x0, p))

    def fdf_of(k=slice(None)):
        def fdf(x):
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.sqrt(np.abs(x))
                d = x - p[k]
                table = {"cycle": (np.sign(x) * r, 0.5 / r),
                         "cube": ((x - 2.0) ** 3, 3.0 * (x - 2.0) ** 2),
                         "line": (x - 2.0, np.ones_like(x)),
                         "atan": (np.arctan(d), 1.0 / (1.0 + d * d)),
                         "square": (x * x - p[k], 2.0 * x)}
            which = [kind[k] == name for name in table]
            return (np.select(which, [v[0] for v in table.values()]),
                    np.select(which, [v[1] for v in table.values()]))
        return fdf

    dense, its = roots._newton_vec(fdf_of(), lo, hi, x0)
    alone, its_alone = _alone(fdf_of, lo, hi, x0)
    assert dense.tobytes() == alone.tobytes()
    assert its.tobytes() == its_alone.tobytes()
    assert (dense[kind == "cycle"] == 0.0).all() and (its[kind == "cycle"] == 3).all()
    assert (dense[kind == "cube"] == 2.0).all() and (its[kind == "cube"] == 1).all()
    assert dense[kind == "atan"] == pytest.approx(p[kind == "atan"], rel=1e-14)
    assert dense[kind == "square"] == pytest.approx(np.sqrt(p[kind == "square"]),
                                                    rel=1e-15)
