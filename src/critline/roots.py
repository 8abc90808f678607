"""Bracketed root solving and the two transcendental root maps.

The bound chain needs two roots over and over: rho_theta, the positive
solution of

    -1 + 2 theta x + e^{x(1-theta)} (2x - 1) = 0,

and its generalization rho_lemma_a(a, theta), the positive solution of

    e^{(1-theta)X} (2X(a + b sqrt X) - 2a - b sqrt X)
        + 2 theta X (a + b sqrt X) - 2a - b sqrt X = 0,

with b = Gamma(1/4)/Gamma(3/4).  At a = 0 the second equation factors as
b sqrt(X) times the first, so the two maps agree there; this is checked in
the tests rather than special-cased here.

There is one solver per shape of input: Brent's method (solve_bracketed)
for scalar roots, and safeguarded Newton with a bisection fallback and
per-element convergence (_newton_vec) for arrays of roots.  The
_*_fdf functions return each defining equation with its closed-form
derivative and serve both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketingError, DomainError
from .specfun import gamma_ratio_quarter

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RootSolution:
    """A converged root with its residual and the bracket that produced it."""
    value: float
    residual: float
    bracket_lo: float
    bracket_hi: float
    iterations: int


def solve_bracketed(f: Callable[[float], float], lo: float, hi: float,
                    tol: float = 1e-12) -> RootSolution:
    """Find a root of f in [lo, hi] by Brent's method.

    The interval must bracket a sign change (f(lo) f(hi) <= 0); otherwise a
    bracketing error is raised.  Inverse-quadratic and secant steps are
    safeguarded by bisection, so convergence is guaranteed for any
    continuous f.  tol is an absolute x-tolerance added to the machine
    floor; the returned residual is |f(value)|.
    """
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise BracketingError(f"need lo < hi, got [{lo}, {hi}]")
    fa = float(f(lo))
    fb = float(f(hi))
    if fa == 0.0:
        return RootSolution(lo, 0.0, lo, hi, 0)
    if fb == 0.0:
        return RootSolution(hi, 0.0, lo, hi, 0)
    if (fa > 0) == (fb > 0):
        raise BracketingError(
            f"f does not change sign on [{lo}, {hi}]: f(lo)={fa:g}, f(hi)={fb:g}")
    a, b, c, fc = lo, hi, lo, fa
    d = e = b - a
    its = 0
    for its in range(1, 201):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        m = 0.5 * (c - b)
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        if abs(m) <= tol1 or fb == 0.0:
            break
        if abs(e) < tol1 or abs(fa) <= abs(fb):
            d = e = m                     # bisection
        else:
            s = fb / fa
            if a == c:                    # secant
                p = 2.0 * m * s
                q = 1.0 - s
            else:                         # inverse quadratic
                q0 = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q0 * (q0 - r) - (b - a) * (r - 1.0))
                q = (q0 - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q           # accept interpolation
            else:
                d = e = m                 # fall back to bisection
        a, fa = b, fb
        b = b + (d if abs(d) > tol1 else math.copysign(tol1, m))
        fb = float(f(b))
    return RootSolution(value=b, residual=abs(fb), bracket_lo=lo,
                        bracket_hi=hi, iterations=its)


def _newton_vec(fdf: Callable[[np.ndarray, np.ndarray], tuple],
                lo, hi, x0) -> np.ndarray:
    """Safeguarded Newton on arrays of brackets (internal).

    Requires f(lo_i) <= 0 <= f(hi_i) for every element and x0 inside
    [lo, hi]; callers with a decreasing f pass (-f, -f').  fdf(x, idx)
    returns (f, f') at the still-active elements, idx being their flat
    indices into the broadcast brackets.  Each step shrinks the bracket by
    the sign of f; a Newton iterate outside the closed bracket is replaced
    by its midpoint.  An element stops when f = 0 or its step is at most
    ~1e-15 |x|; 100 iterations is a safeguard cap, far above the ~6 that
    the bound path needs.
    """
    shape = np.broadcast_shapes(np.shape(lo), np.shape(hi), np.shape(x0))
    lo, hi, x = (np.array(v, dtype=float).ravel() for v in
                 np.broadcast_arrays(lo, hi, x0))
    out = x.copy()
    idx = np.arange(x.size)
    for _ in range(100):
        if idx.size == 0:
            break
        f, df = fdf(x, idx)
        lo = np.where(f < 0.0, x, lo)
        hi = np.where(f > 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - f / df
        inside = (xn >= lo) & (xn <= hi)        # False for NaN as well
        xn = np.where(inside, xn, 0.5 * (lo + hi))
        root = f == 0.0
        xn[root] = x[root]
        done = root | (np.abs(xn - x) <= 1e-15 * np.abs(x))
        out[idx] = xn
        keep = ~done
        x, lo, hi, idx = xn[keep], lo[keep], hi[keep], idx[keep]
    return out.reshape(shape)


# ------------------------------------------------------ defining equations

def _rho_theta_fdf(x, theta):
    """(f, f') for f(x) = -1 + 2 theta x + e^{x(1-theta)} (2x - 1);
    numpy-broadcastable."""
    e = np.exp(x * (1.0 - theta))
    return (-1.0 + 2.0 * theta * x + e * (2.0 * x - 1.0),
            2.0 * theta + e * ((1.0 - theta) * (2.0 * x - 1.0) + 2.0))


def _rho_lemma_fdf(x, a, theta, b):
    """(f, f') of the perturbed-root equation in X; numpy-broadcastable."""
    rx = np.sqrt(x)
    w = a + b * rx
    low = 2.0 * a + b * rx
    e = np.exp((1.0 - theta) * x)
    u = 2.0 * x * w - low
    half = 0.5 * b / rx                       # dw/dX = d(low)/dX
    return (e * u + 2.0 * theta * x * w - low,
            e * ((1.0 - theta) * u + 2.0 * w + b * rx - half)
            + 2.0 * theta * w + theta * b * rx - half)


def rho_theta(theta: float) -> RootSolution:
    """The unique positive root of -1 + 2 theta x + e^{x(1-theta)}(2x-1).

    The root always lies in (1/2, 1): the function is theta - 1 < 0 at 1/2
    and 2 theta - 1 + e^{1-theta} > 0 at 1, and it is strictly increasing
    past the root.
    """
    theta = float(theta)
    if not 0.0 <= theta < 1.0:
        raise DomainError(f"rho_theta needs 0 <= theta < 1, got {theta}")
    return solve_bracketed(lambda x: float(_rho_theta_fdf(x, theta)[0]),
                           0.5, 1.0, tol=1e-15)


def rho_lemma_a(a: float, theta: float) -> RootSolution:
    """Positive root of the perturbed equation, a >= 0.

    The bracket starts at (1e-8, 1) and doubles the upper end until the
    sign change is captured (cap 1e3); the left end is always negative
    since the function tends to -4a - 2b sqrt(X) < 0 as X -> 0+.
    """
    a = float(a)
    theta = float(theta)
    if a < 0.0:
        raise DomainError(f"rho_lemma_a needs a >= 0, got {a}")
    if not 0.0 <= theta < 1.0:
        raise DomainError(f"rho_lemma_a needs 0 <= theta < 1, got {theta}")
    b = gamma_ratio_quarter()

    def f(x):
        return float(_rho_lemma_fdf(x, a, theta, b)[0])

    lo, hi = 1e-8, 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e3:
            raise BracketingError(
                f"no sign change located up to X = 1e3 for a={a}, theta={theta}")
    return solve_bracketed(f, lo, hi, tol=1e-15)
