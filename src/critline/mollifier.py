"""Desk-scale mollified zero detection on the critical line.

Everything here works with the rotated real function

    X(t) = exp(i * vartheta(t)) * zeta(1/2 + it),

which is real for real t, and with the Dirichlet-polynomial mollifier

    eta(t) = sum_{n <= xi} tau_{-1/2}(n) * M(n) * n^{-1/2 - it},

where M is one of two weight profiles on [1, xi]:

  * "piecewise": 1 up to xi^theta, then log(xi/x)/((1-theta) log xi)
    down to 0 at xi;
  * "selberg":   log(xi/x)/log(xi) on all of [1, xi].

Since |eta|^2 >= 0, the product X(t)*|eta(t)|^2 changes sign exactly where
X does (outside the measure-zero set where eta vanishes), while the
mollifier flattens the large excursions of X between zeros.  The module
exposes the weight, the polynomial, the rotated function, a single-pass
scan over abutting H-windows that yields both the sign-change zero detector
and the window integrals I/J/M over [t, t+H], and a plain tabular emitter
for plotting.  Sign changes are refined below 1e-9 width by the ITP method,
at most two evaluations beyond bisection's count.

zeta and eta are Dirichlet sums.  The scan takes each window's Simpson
nodes t0 + delta_j as one row, so n^{-it} = n^{-i t0} n^{-i delta_j}, with
one table of offsets that every row shares (specfun._dirichlet_rows, the
simplest form of Odlyzko-Schonhage).  n^{-it} is completely
multiplicative, so both phase sets are built from the primes' phases:
one extended-precision phase per row and prime, and one complex product
per composite.  Single ordinates are rows of one node; the ITP steps
evaluate X alone there.  Against mpmath (30 digits; 70 log-uniform
ordinates in [1e3, 1e6], and 24 scan rows above 1e4), X is within 6.0e-11
on [1e3, 1e6], where the C_4 truncation near 1e3 dominates, and within
1.1e-12 above 1e4 on single ordinates and on the scan's rows; zeta is
within 2.3e-14 below 1000, and eta within 5.8e-14 up to 1e6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from . import specfun
from .errors import DomainError, NumericalConsistencyError, RangeError

_VARIANTS = ("piecewise", "selberg")

# Discarded imaginary part of X(t) beyond this is treated as a numerical
# inconsistency rather than rounding noise.
_IMAG_TOL = 1.0e-8

# Limits on user-sized work; at each, one call peaks below 200 MB of arrays.
_XI_MAX = 1.0e6                 # polynomial length
_WINDOW_STEPS_MAX = 10 ** 6     # Simpson steps per window, H / quad_step
_WINDOWS_MAX = 10 ** 5          # windows per scan
_FIGURE_ROWS_MAX = 10 ** 6      # rows of figure_data

# Nodes _scan evaluates at a time.
_SCAN_NODES = 1 << 11
_ITP_EPS = 5.0e-10      # _refine_crossings closes brackets below 2 eps


@dataclass(frozen=True)
class MollifierConfig:
    """Parameters of the mollified scan.

    xi is the polynomial length (direct, not tied to a power of the window
    height: desk-scale heights make t^{1/8} too short to show anything).
    H is the window length and quad_step the grid spacing used both for
    the window quadrature and the detection scan; quad_step=None resolves
    to H/64, which comfortably oversamples X at desk heights.
    """

    xi: float = 50.0
    theta: float = 0.5
    variant: str = "piecewise"
    H: float = 1.0
    quad_step: float | None = None

    def __post_init__(self) -> None:
        if not 1.0 < self.xi <= _XI_MAX:
            raise DomainError(f"xi must lie in (1, {_XI_MAX:g}], got {self.xi}")
        if not (0.0 < self.theta < 1.0):
            raise DomainError(f"theta must lie in (0, 1), got {self.theta}")
        if self.variant not in _VARIANTS:
            raise DomainError(
                f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        if not (math.isfinite(self.H) and self.H > 0.0):
            raise DomainError(f"window length H must be > 0, got {self.H}")
        if self.quad_step is None:
            object.__setattr__(self, "quad_step", self.H / 64.0)
        if not (math.isfinite(self.quad_step) and self.quad_step > 0.0):
            raise DomainError(
                f"quad_step must be > 0, got {self.quad_step}")
        if not self.H / self.quad_step <= _WINDOW_STEPS_MAX:
            raise DomainError(f"H / quad_step must be at most {_WINDOW_STEPS_MAX:g}, "
                              f"got {self.H / self.quad_step:g}")


@dataclass(frozen=True)
class WindowStats:
    """Quadrature results over one window [t, t+H].

    I = integral of X*|eta|^2, J = integral of |X|*|eta|^2, and M_val is
    the complex integral of zeta*eta^2 minus H.  J >= |I| and
    J >= H - |M_val| hold exactly at the quadrature level (positive
    Simpson weights), so a detection criterion |I| + |M| < H certifies a
    sign change without looking at J.
    """

    t: float
    H: float
    I: float
    J: float
    M_val: complex
    sign_changes: int


# ------------------------------------------------------------------ weights

def _weight_vec(x: np.ndarray, xi: float, theta: float,
                variant: str) -> np.ndarray:
    """Mollifier weight M(x) for x >= 1, vectorized; 0 beyond xi."""
    x = np.asarray(x, dtype=float)
    log_xi = math.log(xi)
    w = np.zeros(x.shape, dtype=float)
    if variant == "selberg":
        inside = x <= xi
        w[inside] = np.log(xi / x[inside]) / log_xi
        return w
    cut = xi ** theta
    w[x <= cut] = 1.0
    mid = (x > cut) & (x <= xi)
    w[mid] = np.log(xi / x[mid]) / ((1.0 - theta) * log_xi)
    return w


def mollifier_weight(x: float, cfg: MollifierConfig) -> float:
    """Weight M(x) of the configured variant; requires x >= 1."""
    x = float(x)
    if not (math.isfinite(x) and x >= 1.0):
        raise DomainError(f"mollifier weight defined for x >= 1, got {x}")
    return float(_weight_vec(np.array([x]), cfg.xi, cfg.theta, cfg.variant)[0])


# --------------------------------------------------------------- polynomial

@lru_cache(maxsize=8)
def _coefficients(xi: float, theta: float, variant: str) -> np.ndarray:
    """tau_{-1/2}(n) M(n) / sqrt(n) for 1 <= n <= xi, cached read-only.

    tau_{-1/2} comes from the phase plan that specfun._dirichlet_rows sums
    these coefficients along, so every n <= xi is factored once.
    """
    n = np.arange(1, int(math.floor(xi)) + 1)
    amp = (specfun._tau_table(n.size, -0.5) * _weight_vec(n, xi, theta, variant)
           / np.sqrt(n))
    amp.setflags(write=False)
    return amp


def _eta_vec(t: np.ndarray, cfg: MollifierConfig) -> np.ndarray:
    """eta at 1/2 + it; t as specfun._dirichlet_rows takes it."""
    return specfun._dirichlet_rows(
        t, _coefficients(cfg.xi, cfg.theta, cfg.variant))


def eta(t: float, cfg: MollifierConfig) -> complex:
    """Mollifying polynomial sum_{n <= xi} tau_{-1/2}(n) M(n) n^{-1/2-it},
    for |t| <= 1e6, the validated range of zeta; any other t, NaN
    included, raises RangeError."""
    specfun._check_range(t, "eta")
    return complex(_eta_vec(np.array([float(t)]), cfg)[0])


# ---------------------------------------------------------- rotated function

def _real_part(rotated: np.ndarray) -> np.ndarray:
    """X from the rotated values, refusing a non-finite value or a
    discarded imaginary part."""
    if not np.isfinite(rotated).all():
        raise NumericalConsistencyError("rotated value is not finite")
    worst = float(np.max(np.abs(rotated.imag))) if rotated.size else 0.0
    if worst >= _IMAG_TOL:
        raise NumericalConsistencyError(
            f"rotated value has imaginary part {worst:.3e} >= {_IMAG_TOL:g}")
    return rotated.real


def _hardy_x_vec(t: np.ndarray) -> np.ndarray:
    """X(t) = exp(i vartheta(t)) zeta(1/2+it) for a vector of ordinates."""
    specfun._check_range(t, "rotated function")
    return _real_part(specfun._zeta_critical_vec(t)[1])


def hardy_x(t: float) -> float:
    """Real rotated value X(t); X(0) = zeta(1/2), zeros match zeta's.

    Validated on |t| <= 1e6.  Below |t| = 1000, X = Re(e^{i theta} zeta)
    with the Euler-Maclaurin zeta (abs error < 1e-10); from 1000 on, X is
    the Riemann-Siegel Z(t) with C_0 ... C_4, whose truncation error is at
    most 0.017 |t|^(-11/4) (Gabcke 1979), 1e-10 at 1000.  With phase
    rounding included, the measured error against mpmath.siegelz at 70
    log-uniform points in [1e3, 1e6] is at most 6.0e-11 (at 1037), and
    8.1e-13 above 1e4; on the scan's rows of window nodes it is 1.1e-12
    above 1e4.
    """
    return float(_hardy_x_vec(np.array([float(t)]))[0])


# ------------------------------------------------- single-pass window scan

def _mollified_vec(t: np.ndarray, cfg: MollifierConfig
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(zeta, eta, X * |eta|^2, X) at 1/2 + it on a vector of ordinates."""
    zeta, rotated = specfun._zeta_critical_vec(t)
    e = _eta_vec(t, cfg)
    x = _real_part(rotated)
    return zeta, e, x * (e.real ** 2 + e.imag ** 2), x


def _scan(t_lo: float, t_hi: float, cfg: MollifierConfig
          ) -> Tuple[List[WindowStats], np.ndarray]:
    """One pass over the abutting windows [t_lo + kH, t_lo + (k+1)H].

    Every window's Simpson nodes get one zeta and one eta evaluation.
    From them come f = X*|eta|^2, each full window's I, J and M, and the
    sign-change brackets of f.  A window ending at most 1e-12 + 4 ulp(t)
    past t_hi, t = max(|t_lo|, |t_hi|), counts as full; the last window is
    otherwise clipped at t_hi and only scanned.  Every bracket lies inside
    one window's grid, so abutting windows cannot double-count a crossing.
    Returns the full windows' statistics and the rows lo, hi, X(lo), X(hi):
    f != 0 at both ends, so X has f's signs there (|eta|^2 > 0).

    The windows of one grid are evaluated together, each a row of nodes
    that shares one table of node offsets with the others
    (specfun._dirichlet_rows), at most _SCAN_NODES nodes at a time.
    """
    # lo + H rounds by up to a few ulps of t, 1.2e-10 near t = 1e6.
    edge = 1.0e-12 + 4.0 * math.ulp(max(abs(t_lo), abs(t_hi)))
    count = int(math.ceil((t_hi - t_lo - edge) / cfg.H - 1.0e-12))
    lo = t_lo + np.arange(count) * cfg.H
    full = lo + cfg.H <= t_hi + edge
    hi = np.where(full, lo + cfg.H, t_hi)
    keep = hi > lo
    lo, hi, full = lo[keep], hi[keep], full[keep]
    # Simpson spacing <= quad_step.  A full window's count comes from H,
    # as (t + H) - t can exceed H by far more than the 1e-9 slack.
    span = np.where(full, cfg.H, hi - lo)
    steps = np.ceil(span / cfg.quad_step - 1.0e-9).astype(int)
    steps = np.maximum(2, steps + steps % 2)
    sums = np.empty((lo.size, 3), dtype=complex)    # I, J, M + H
    changes = np.empty(lo.size, dtype=int)
    ends: List[np.ndarray] = [np.empty((4, 0))]
    grid = 2 * steps + full        # a clipped window has a grid of its own
    for key in sorted(set(grid.tolist())):
        group = np.flatnonzero(grid == key)
        n = int(steps[group[0]])
        per = max(1, _SCAN_NODES // (n + 1))
        for first in range(0, group.size, per):
            win = group[first:first + per]
            u, w = specfun._simpson(lo[win, None], hi[win, None], n)
            f, x = np.empty(u.shape), np.empty(u.shape)
            g = np.empty(u.shape, dtype=complex)
            piece = max(1, _SCAN_NODES // win.size)
            for c in range(0, n + 1, piece):
                cols = slice(c, c + piece)
                zeta, e, f[:, cols], x[:, cols] = _mollified_vec(u[:, cols], cfg)
                g[:, cols] = zeta * e * e
            sums[win] = np.stack([np.einsum("ij,ij->i", w, v)
                                  for v in (f, np.abs(f), g)], axis=1)
            sign = np.sign(f).ravel()
            live = np.flatnonzero(sign)
            row = live // (n + 1)
            flip = np.flatnonzero((sign[live[1:]] != sign[live[:-1]])
                                  & (row[1:] == row[:-1]))
            at = live[np.stack([flip, flip + 1])]
            ends.append(np.concatenate([u.ravel()[at], x.ravel()[at]]))
            changes[win] = np.bincount(row[flip], minlength=win.size)
    windows = [WindowStats(t=float(lo[k]), H=cfg.H, I=float(sums[k, 0].real),
                           J=float(sums[k, 1].real),
                           M_val=complex(sums[k, 2]) - cfg.H,
                           sign_changes=int(changes[k]))
               for k in np.flatnonzero(full)]
    return windows, np.concatenate(ends, axis=1)


def window_integrals(t: float, cfg: MollifierConfig) -> WindowStats:
    """Simpson values of I, J and M over [t, t+H] plus grid sign changes;
    DomainError where t + H lies within _scan's edge tolerance of t."""
    t = float(t)
    t_hi = t + cfg.H
    specfun._check_range((t, t_hi), f"window [{t:g}, {t_hi:g}]")
    stats = _scan(t, t_hi, cfg)[0]
    if not stats:
        raise DomainError(f"H = {cfg.H!r} lies within the rounding of t = {t!r}: no window")
    return stats[0]


# ------------------------------------------------------------ zero detection

def _refine_crossings(lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray,
                      f_hi: np.ndarray) -> np.ndarray:
    """ITP refinement of brackets of X with X = f_lo, f_hi at the ends.

    Interpolate, truncate, project (Oliveira and Takahashi 2021): the regula
    falsi point, moved max(0.1 w^2 / w0, eps/2) towards the midpoint, is
    kept where every bracket still closes below 2 eps = 1e-9 within
    ceil(log2(w0 / 1e-9)) + 2 evaluations.  Only open brackets are evaluated,
    strictly inside; an exact zero closes its bracket.  Each step evaluates
    X alone (_hardy_x_vec): X*|eta|^2 has X's zeros and, where it is not
    0, X's signs, so eta's terms would only reshape the interpolation.
    Returns midpoints.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    n_max = np.ceil(np.log2((b - a) / (2.0 * _ITP_EPS))) + 1.0
    kappa = 0.1 / (b - a)
    for j in range(60):
        k = np.flatnonzero(b - a >= 2.0 * _ITP_EPS)
        if not k.size:
            break
        w, mid = b[k] - a[k], 0.5 * (a[k] + b[k])
        x = a[k] + w * fa[k] / (fa[k] - fb[k])                 # interpolate
        step = np.maximum(kappa[k] * w * w, 0.5 * _ITP_EPS)    # truncate
        toward = np.sign(mid - x)
        x = np.where(step <= np.abs(mid - x), x + toward * step, mid)
        reach = _ITP_EPS * 2.0 ** (n_max[k] - j) - 0.5 * w     # project
        x = np.where(np.abs(x - mid) <= reach, x, mid - toward * reach)
        x = np.clip(x, np.nextafter(a[k], b[k]), np.nextafter(b[k], a[k]))
        y = _hardy_x_vec(x)
        keep = np.sign(y) == np.sign([fb[k], fa[k]])   # a zero moves a and b
        a[k], fa[k] = np.where(keep[0], (a[k], fa[k]), (x, y))
        b[k], fb[k] = np.where(keep[1], (b[k], fb[k]), (x, y))
    return 0.5 * (a + b)


@dataclass(frozen=True)
class Detection:
    """Refined zero ordinates of a scan plus its full windows' statistics."""

    count: int
    ordinates: List[float]
    windows: List[WindowStats]


def mollified_scan(t_lo: float, t_hi: float,
                   cfg: MollifierConfig) -> Detection:
    """Sign changes of X*|eta|^2 over abutting H-windows, in one pass.

    Scans each window [t_lo + kH, t_lo + (k+1)H] (the last clipped at
    t_hi) on its Simpson grid of spacing <= quad_step, brackets every sign
    change and refines each by ITP on X alone, from the scan's values of X
    at its ends; the same node values give each full window's WindowStats.
    An empty range gives no zeros and no windows.
    """
    t_lo = float(t_lo)
    t_hi = float(t_hi)
    if t_hi < t_lo:
        raise RangeError(f"need t_lo <= t_hi, got [{t_lo}, {t_hi}]")
    specfun._check_range((t_lo, t_hi), "scan range")
    if not (t_hi - t_lo) / cfg.H <= _WINDOWS_MAX:
        raise DomainError(f"a scan covers at most {_WINDOWS_MAX:g} windows of length H")
    windows, ends = _scan(t_lo, t_hi, cfg)
    ordinates = np.sort(_refine_crossings(*ends))
    return Detection(count=int(ordinates.size),
                     ordinates=[float(v) for v in ordinates],
                     windows=windows)


def detect_zeros(t_lo: float, t_hi: float,
                 cfg: MollifierConfig) -> Tuple[int, List[float]]:
    """Zero count and refined ordinates of mollified_scan on [t_lo, t_hi]."""
    found = mollified_scan(t_lo, t_hi, cfg)
    return found.count, found.ordinates


# -------------------------------------------------------------- figure data

def figure_data(t_lo: float, t_hi: float, step: float,
                cfg: MollifierConfig) -> np.ndarray:
    """Rows (t, X, X*|eta|^2, X*|eta_sel|^2) on the grid t_lo + k*step.

    The third column uses the configured variant, the fourth the selberg
    profile at the same (xi, theta); if the configured variant is already
    selberg, the two coincide.  Row count is floor((t_hi-t_lo)/step) + 1;
    the rows are evaluated _SCAN_NODES at a time.
    """
    t_lo = float(t_lo)
    t_hi = float(t_hi)
    step = float(step)
    if step <= 0.0 or not math.isfinite(step):
        raise RangeError(f"step must be > 0, got {step}")
    if t_hi < t_lo:
        raise RangeError(f"need t_lo <= t_hi, got [{t_lo}, {t_hi}]")
    specfun._check_range((t_lo, t_hi), "grid")
    span = (t_hi - t_lo) / step + 1.0e-9
    if not span < _FIGURE_ROWS_MAX:
        raise DomainError(f"figure_data emits at most {_FIGURE_ROWS_MAX:g} rows")
    n_rows = int(math.floor(span)) + 1
    selberg = replace(cfg, variant="selberg")
    rows = np.empty((n_rows, 4))
    rows[:, 0] = t_lo + step * np.arange(n_rows)
    for lo in range(0, n_rows, _SCAN_NODES):
        t, x, f, f_sel = rows[lo:lo + _SCAN_NODES].T
        x[:] = _hardy_x_vec(t)
        for out, c in ((f, cfg), (f_sel, selberg)):
            e = _eta_vec(t, c)
            out[:] = x * (e.real ** 2 + e.imag ** 2)
    return rows
