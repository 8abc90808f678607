"""Bracketed root solving and the two transcendental root families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critline import roots
from critline.errors import BracketingError, DomainError

from reference_values import RHO_AT_0, RHO_AT_QUARTER, CHAIN, CHAIN_THETA


# ----------------------------------------------------------- solve_bracketed

def test_solve_cosine():
    sol = roots.solve_bracketed(math.cos, 1.0, 2.0)
    assert sol.value == pytest.approx(math.pi / 2, abs=1e-12)
    assert abs(sol.residual) < 1e-12
    assert sol.bracket_lo <= sol.value <= sol.bracket_hi
    assert sol.iterations >= 1


def test_solve_endpoint_zero():
    sol = roots.solve_bracketed(lambda x: x - 2.0, 2.0, 5.0)
    assert sol.value == 2.0
    assert sol.residual == 0.0


def test_solve_no_sign_change():
    with pytest.raises(BracketingError):
        roots.solve_bracketed(lambda x: 1.0 + x * x, -1.0, 1.0)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.floats(min_value=0.1, max_value=100.0,
                 allow_nan=False, allow_infinity=False))
def test_solve_cubic_root(c):
    sol = roots.solve_bracketed(lambda x: x ** 3 - c, 0.0, 5.0)
    assert sol.value == pytest.approx(c ** (1.0 / 3.0), rel=1e-10)


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


def test_rho_theta_equation_satisfied():
    # independent re-evaluation of the defining equation at the root
    for theta in (0.0, 0.011, 0.3, 0.77):
        x = roots.rho_theta(theta).value
        lhs = -1.0 + 2.0 * theta * x + math.exp(x * (1.0 - theta)) * (
            2.0 * x - 1.0)
        assert abs(lhs) < 1e-12


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


# ---------------------------------------------------------------- _newton_vec

def _brent(f, lo, hi):
    return roots.solve_bracketed(f, lo, hi, tol=1e-15).value


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(0.5, 4.0), st.floats(0.0, 10.0)),
                min_size=1, max_size=12))
def test_newton_vec_monotone_cubics(params):
    # x^3 + p x - c with c = r^3 + p r: increasing, root near r in [0.5, 4]
    p = np.array([pp for _, pp in params])
    c = np.array([r ** 3 + pp * r for r, pp in params])

    def fdf(x, i):
        return x ** 3 + p[i] * x - c[i], 3.0 * x * x + p[i]

    got = roots._newton_vec(fdf, 0.0, np.full(p.size, 5.0), 5.0)
    for k in range(p.size):
        want = _brent(lambda x: x ** 3 + p[k] * x - c[k], 0.0, 5.0)
        assert got[k] == pytest.approx(want, rel=1e-14)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(0.5, 5.0), st.floats(-2.0, 2.0)),
                min_size=1, max_size=12))
def test_newton_vec_shifted_exp(params):
    # e^{x - s} - e^{r - s}: increasing, root near r in [0.5, 5]
    s = np.array([ss for _, ss in params])
    c = np.exp(np.array([r for r, _ in params]) - s)

    def fdf(x, i):
        e = np.exp(x - s[i])
        return e - c[i], e

    got = roots._newton_vec(fdf, 0.0, 8.0, np.full(s.size, 8.0))
    for k in range(s.size):
        want = _brent(lambda x: math.exp(x - s[k]) - c[k], 0.0, 8.0)
        assert got[k] == pytest.approx(want, rel=1e-14)


def test_newton_vec_arctan_leaves_bracket():
    # From x0 = 10 the Newton step of arctan(x - r) lands far outside
    # [-10, 10]; the midpoint fallback must still converge.
    r = np.array([-3.7, 0.3, 2.5, 7.1])

    def fdf(x, i):
        d = x - r[i]
        return np.arctan(d), 1.0 / (1.0 + d * d)

    got = roots._newton_vec(fdf, -10.0, 10.0, np.full(r.size, 10.0))
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

    def fdf(x, i):
        f = np.where(i == 0, (x - 2.0) ** power, x * x - 2.0)
        df = np.where(i == 0, power * (x - 2.0) ** (power - 1), 2.0 * x)
        return f, df

    got = roots._newton_vec(fdf, np.array([lo, 0.0]), np.array([hi, 2.0]),
                            np.array([x0, 2.0]))
    assert got[0] == 2.0
    assert got[1] == pytest.approx(math.sqrt(2.0), rel=1e-15)
