"""The two transcendental root maps and the one solver behind them.

The bound chain needs two roots over and over: rho_theta, the positive
solution of

    -1 + 2 theta x + e^{x(1-theta)} (2x - 1) = 0,

and its generalization rho_lemma_a(a, theta), the positive solution of

    e^{(1-theta)X} (2X(a + b sqrt X) - 2a - b sqrt X)
        + 2 theta X (a + b sqrt X) - 2a - b sqrt X = 0,

with b = Gamma(1/4)/Gamma(3/4).  At a = 0 the second equation factors as
b sqrt(X) times the first, so the two maps agree there; this is checked in
the tests rather than special-cased here.

Every root is found by one solver, safeguarded Newton with a bisection
fallback and per-element convergence (_newton_vec), on a bracket proven
to hold a sign change.  The _*_fdf functions return each defining
equation with its closed-form derivative; _rho_theta_vec and
_rho_lemma_vec solve whole grids, and the public rho_theta and
rho_lemma_a are one-element calls into them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .specfun import gamma_ratio_quarter

# Root brackets; the vector kernels' docstrings prove each sign change.
_RHO_THETA_BRACKET = (0.5, 1.0)
_RHO_LEMMA_BRACKET = (1e-8, 2.0)


@dataclass(frozen=True)
class RootSolution:
    """A converged root with its residual and the bracket that produced it."""
    value: float
    residual: float
    bracket_lo: float
    bracket_hi: float
    iterations: int


def _newton_vec(fdf: Callable[[np.ndarray, np.ndarray], tuple],
                lo, hi, x0) -> tuple[np.ndarray, np.ndarray]:
    """Safeguarded Newton on arrays of brackets (internal).

    Requires f(lo_i) <= 0 <= f(hi_i) for every element and x0 inside
    [lo, hi]; callers with a decreasing f pass (-f, -f').  fdf(x, idx)
    returns (f, f') at the still-active elements, idx being their flat
    indices into the broadcast brackets.  Each step shrinks the bracket by
    the sign of f; a Newton iterate outside the closed bracket is replaced
    by its midpoint.  An element stops when f = 0 or its step is at most
    ~1e-15 |x|; 100 iterations is a safeguard cap, far above the ~6 that
    the bound path needs.  Returns the roots and, beside them, the number
    of f evaluations each element took.
    """
    shape = np.broadcast_shapes(np.shape(lo), np.shape(hi), np.shape(x0))
    lo, hi, x = (np.array(v, dtype=float).ravel() for v in
                 np.broadcast_arrays(lo, hi, x0))
    out = x.copy()
    cap = 100
    its = np.full(x.size, cap)          # kept by elements that hit the cap
    idx = np.arange(x.size)
    for k in range(cap):
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
        its[idx[done]] = k + 1
        keep = ~done
        x, lo, hi, idx = xn[keep], lo[keep], hi[keep], idx[keep]
    return out.reshape(shape), its.reshape(shape)


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


# ---------------------------------------------------------- vector kernels

def _rho_theta_vec(thetas) -> tuple[np.ndarray, np.ndarray]:
    """rho(theta) and iteration counts over an array of theta in [0, 1).

    The root lies in (1/2, 1): f is theta - 1 < 0 at 1/2 and
    2 theta - 1 + e^{1-theta} > 0 at 1, and it is strictly increasing
    past the root.  Newton starts at 1.
    """
    thetas = np.asarray(thetas, dtype=float)
    flat = thetas.ravel()
    lo, hi = _RHO_THETA_BRACKET
    return _newton_vec(lambda x, i: _rho_theta_fdf(x, flat[i]),
                       lo, np.full(thetas.shape, hi), hi)


def _rho_lemma_vec(a, theta) -> tuple[np.ndarray, np.ndarray]:
    """rho(a, theta) and iteration counts, a >= 0 and 0 <= theta < 1.

    The bracket [1e-8, 2] holds for every such (a, theta).  Write
    e = e^{(1-theta)X} and F(X) = e (2X - 1) + 2 theta X - 1, the
    rho(theta) equation; then f = a (F - e - 1) + b sqrt(X) F.  At X = 2
    both F = 3e + 4 theta - 1 and F - e - 1 = 2e + 4 theta - 2 are
    positive because e > 1, so f(2) > 0; as X -> 0+, f tends to
    -4a - 2b sqrt(X) < 0.  Newton starts at X = 1, where f > 0 on the
    table's range a <= sqrt(pi), so the first step shrinks the bracket
    to [1e-8, 1].
    """
    b = gamma_ratio_quarter()
    a, theta = np.broadcast_arrays(np.asarray(a, dtype=float),
                                   np.asarray(theta, dtype=float))
    a_flat, th_flat = a.ravel(), theta.ravel()
    lo, hi = _RHO_LEMMA_BRACKET
    return _newton_vec(lambda x, i: _rho_lemma_fdf(x, a_flat[i], th_flat[i], b),
                       lo, np.full(a.shape, hi), 1.0)


# ------------------------------------------------------------ scalar roots

def _solution(x, its, f, bracket) -> RootSolution:
    return RootSolution(value=float(x[0]), residual=abs(float(f[0])),
                        bracket_lo=bracket[0], bracket_hi=bracket[1],
                        iterations=int(its[0]))


def rho_theta(theta: float) -> RootSolution:
    """The unique positive root of -1 + 2 theta x + e^{x(1-theta)}(2x-1),
    a one-element call into _rho_theta_vec."""
    theta = float(theta)
    if not 0.0 <= theta < 1.0:
        raise DomainError(f"rho_theta needs 0 <= theta < 1, got {theta}")
    x, its = _rho_theta_vec(np.array([theta]))
    return _solution(x, its, _rho_theta_fdf(x, theta)[0], _RHO_THETA_BRACKET)


def rho_lemma_a(a: float, theta: float) -> RootSolution:
    """Positive root of the perturbed equation at finite a >= 0, a
    one-element call into _rho_lemma_vec."""
    a = float(a)
    theta = float(theta)
    if not 0.0 <= a < np.inf:
        raise DomainError(f"rho_lemma_a needs finite a >= 0, got {a}")
    if not 0.0 <= theta < 1.0:
        raise DomainError(f"rho_lemma_a needs 0 <= theta < 1, got {theta}")
    x, its = _rho_lemma_vec(np.array([a]), np.array([theta]))
    f = _rho_lemma_fdf(x, a, theta, gamma_ratio_quarter())[0]
    return _solution(x, its, f, _RHO_LEMMA_BRACKET)
