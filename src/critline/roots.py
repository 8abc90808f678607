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
to hold a sign change.  Its off-bracket guard skips every element whose
Newton step is exactly zero, which the guard would leave in place
anyway; in the table's solves those were all of the 52 654 elements
that reached it, so none reaches it now.  It iterates densely, every
element on every pass until the last one stops: in the table's 29
solves (174 703 elements), every rho(a, theta) element stops after one
or two f evaluations and rho(theta) never has fewer than half its
elements still iterating; only four A-searches do, late and on at most
26 elements, so packing the live ones would save nothing measurable.  The
_*_fdf functions return each defining equation with its closed-form
derivative; _rho_theta_vec and _rho_lemma_vec solve whole grids, and
the public rho_theta and rho_lemma_a are one-element calls into them.
The second equation is linear in a, so its inverse a(X) is explicit
(_a_of_x); _rho_lemma_vec interpolates it on a small node grid per
theta to start each element within a narrow bracket.  A grid solved
block by block runs on one _Workspace, whose arrays every block reuses.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .specfun import gamma_ratio_quarter

# Root brackets; the vector kernels' docstrings prove each sign change.
_RHO_THETA_BRACKET = (0.5, 1.0)
_RHO_LEMMA_BRACKET = (1e-8, 2.0)
# Inverse-interpolation nodes per theta row of _rho_lemma_vec.
_RHO_NODES = 32


@dataclass(frozen=True)
class RootSolution:
    """A converged root with its residual and the bracket that produced it."""
    value: float
    residual: float
    bracket_lo: float
    bracket_hi: float
    iterations: int


class _Workspace:
    """One preallocated byte arena, handed out as scratch arrays stack-wise.

    take(shape, dtype) returns the next C-contiguous array of the arena,
    or a fresh array once the arena is full, so an empty workspace just
    allocates.  The arrays taken inside a `with work.scope():` go back to
    the arena when it exits: a caller that runs each block of a grid in
    its own scope reuses the same bytes for every block.  peak is the
    deepest the arena has been used.
    """

    def __init__(self, nbytes: int = 0):
        self._arena = np.empty(nbytes, np.uint8)
        self._address = self._arena.ctypes.data
        self._top = 0
        self.peak = 0

    def take(self, shape, dtype=float) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = math.prod(shape) if isinstance(shape, tuple) else shape
        start = self._top + (-(self._address + self._top)) % 64
        end = start + size * dtype.itemsize
        if end > self._arena.size:
            return np.empty(shape, dtype)
        self._top = end
        self.peak = max(self.peak, end)
        return self._arena[start:end].view(dtype).reshape(shape)

    @contextmanager
    def scope(self):
        top = self._top
        try:
            yield
        finally:
            self._top = top


def _newton_vec(fdf: Callable[[np.ndarray], tuple],
                lo, hi, x0, work=None) -> tuple[np.ndarray, np.ndarray]:
    """Safeguarded Newton on arrays of brackets (internal).

    Requires f(lo_i) <= 0 <= f(hi_i) for every element and x0 inside
    [lo, hi]; callers with a decreasing f pass (-f, -f').  fdf(x) returns
    (f, f') at x, an array of the brackets' broadcast shape.  Each step
    shrinks the bracket by the sign of f.  A Newton iterate is replaced by
    the midpoint when it falls outside the closed bracket, or lands, by
    more than the stop tolerance, on an end where f is already known
    (nonzero): from two ends a few ulps apart each Newton step can land
    exactly on the other, a 2-cycle.  The guard leaves out an element
    whose step is exactly zero (xn == x, so not NaN), as it would keep x
    there: where f = 0 it keeps x, and where f != 0, x is the end just set
    and the step is near.  An element stops when f = 0 or its
    step is at most ~1e-15 |x|; 100 iterations is a safeguard cap, far
    above the at most 12 that bound's A-search needs.  Returns the roots
    and, beside them, the number of f evaluations each element took.

    The elements iterate densely to the end: fdf gets all of them on
    every pass, and an element that has stopped keeps its x, is evaluated
    there with the rest and has every update masked off.  Every rule acts
    on each element alone, so its root and count are those of a
    one-element solve.  A call costs as many passes as its slowest
    element takes: the rho(a, theta) grids stop after two, and the
    A-searches after at most 12.  With a _Workspace, lo, hi and x0 must
    be writable C-contiguous float arrays of the full shape: Newton
    iterates in them, x0 becomes the roots, the counts are taken from
    work and the rest of the state from a scope of it (fdf may take its
    arrays from the same workspace).  Without one it works on copies.
    """
    shape = np.broadcast(lo, hi, x0).shape
    if work is None:                    # copies, in a workspace of their own
        work = _Workspace()
        copies = [work.take(shape) for _ in range(3)]
        for dst, src in zip(copies, (lo, hi, x0)):
            np.copyto(dst, src)
        lo, hi, x0 = copies
    cap = 100
    its = work.take(shape, np.intp)
    its.fill(cap)                       # kept by elements that hit the cap
    x = x0
    with work.scope():
        seen_lo, seen_hi, act = (work.take(shape, bool) for _ in range(3))
        seen_lo.fill(False)             # f known at the bracket end
        seen_hi.fill(False)
        act.fill(True)                  # still iterating
        for k in range(cap):
            if not act.any():
                break
            with work.scope():
                f, df = fdf(x)
                neg = np.less(f, 0.0, out=work.take(shape, bool))
                pos = np.greater(f, 0.0, out=work.take(shape, bool))
                np.copyto(lo, x, where=neg)
                np.copyto(hi, x, where=pos)
                seen_lo |= neg
                seen_hi |= pos
                xn = work.take(shape)
                with np.errstate(divide="ignore", invalid="ignore"):
                    np.divide(f, df, out=xn)
                    np.subtract(x, xn, out=xn)
                # Off the open bracket (NaN included): x stays where f = 0,
                # a step onto an end stays unless it revisits a point, the
                # rest bisect.  A zero step is left out: it would stay.
                off = np.greater(xn, lo, out=neg)
                off &= np.less(xn, hi, out=pos)
                np.logical_not(off, out=off)
                off &= act
                off &= np.not_equal(xn, x, out=pos)
                if off.any():
                    xf, xo, lf, hf = xn[off], x[off], lo[off], hi[off]
                    near = np.abs(xf - xo) <= 1e-15 * np.abs(xo)
                    on_end = (((xf == lf) & (near | ~seen_lo[off]))
                              | ((xf == hf) & (near | ~seen_hi[off])))
                    xn[off] = np.where(f[off] == 0.0, xo,
                                       np.where(on_end, xf, 0.5 * (lf + hf)))
                step = np.subtract(xn, x, out=work.take(shape))
                np.abs(step, out=step)
                tol = np.abs(x, out=work.take(shape))
                tol *= 1e-15
                done = np.less_equal(step, tol, out=neg)
                done &= act
                np.copyto(its, k + 1, where=done)
                np.copyto(x, xn, where=act)
                act ^= done
    return x, its


# ------------------------------------------------------ defining equations

def _rho_theta_fdf(x, theta):
    """(f, f') for f(x) = -1 + 2 theta x + e^{x(1-theta)} (2x - 1);
    numpy-broadcastable."""
    e = np.exp(x * (1.0 - theta))
    return (-1.0 + 2.0 * theta * x + e * (2.0 * x - 1.0),
            2.0 * theta + e * ((1.0 - theta) * (2.0 * x - 1.0) + 2.0))


def _rho_lemma_fdf(x, a, theta, b, work=None):
    """(f, f') of the perturbed-root equation in X; numpy-broadcastable.

    Both results are taken from work (a fresh _Workspace when None), the
    temporaries from a scope of it.
    """
    work = _Workspace() if work is None else work
    shape = np.broadcast(x, a, theta).shape
    f, df = work.take(shape), work.take(shape)
    with work.scope():
        rx = np.sqrt(x, out=work.take(shape))
        brx = np.multiply(b, rx, out=work.take(shape))
        w = np.add(a, brx, out=work.take(shape))
        low = np.add(2.0 * a, brx, out=work.take(shape))
        e = np.multiply(1.0 - theta, x, out=work.take(shape))
        np.exp(e, out=e)
        u = np.multiply(2.0, x, out=work.take(shape))       # 2X w - low
        u *= w
        u -= low
        # f' = e ((1 - theta) u + 2w + b sqrt(X) - half)
        #      + 2 theta w + theta b sqrt(X) - half,  half = dw/dX
        np.multiply(1.0 - theta, u, out=df)
        df += np.multiply(2.0, w, out=f)        # f is set below
        df += brx
        half = np.divide(0.5 * b, rx, out=brx)
        df -= half
        df *= e
        # f = e u + 2 theta X w - low
        np.multiply(2.0 * theta, x, out=f)
        f *= w
        f += np.multiply(e, u, out=u)
        f -= low
        df += np.multiply(2.0 * theta, w, out=low)
        df += np.multiply(theta * b, rx, out=low)
        df -= half
    return f, df


# ---------------------------------------------------------- vector kernels

def _rho_theta_vec(thetas) -> tuple[np.ndarray, np.ndarray]:
    """rho(theta) and iteration counts over a 1-d array of theta in [0, 1).

    The root lies in (1/2, 1): f is theta - 1 < 0 at 1/2 and
    2 theta - 1 + e^{1-theta} > 0 at 1, and it is strictly increasing
    past the root.  Newton starts at 1.
    """
    thetas = np.asarray(thetas, dtype=float)
    lo, hi = _RHO_THETA_BRACKET
    return _newton_vec(lambda x: _rho_theta_fdf(x, thetas),
                       lo, np.full(thetas.shape, hi), hi)


def _a_of_x(x, theta, b):
    """a(X) and a'(X), the closed-form inverse of rho(a, theta), for X >= 1/2.

    With e = e^{(1-theta)X}, (F, F') = _rho_theta_fdf(X, theta) and
    D = 1 + e - F: a = b sqrt(X) F / D and, since D' = (1-theta) e - F',
    a' = a (1/(2X) - D'/D) + b sqrt(X) F'/D.
    """
    e = np.exp((1.0 - theta) * x)
    rx = np.sqrt(x)
    big_f, d_f = _rho_theta_fdf(x, theta)
    d = 1.0 + e - big_f
    a = b * rx * big_f / d
    return a, a * (0.5 / x - ((1.0 - theta) * e - d_f) / d) + b * rx * d_f / d


def _rho_lemma_rows(a_max: float, thetas) -> tuple[np.ndarray, np.ndarray]:
    """The row stage of _rho_lemma_vec: rho(theta) and rho(a_max, theta).

    Both depend only on the theta row (and the largest a), so a caller
    that solves one a row in several blocks of theta rows solves these
    once and passes each block its slice.  rho(a_max, theta) is one
    Newton solve per row on the outer bracket.
    """
    thetas = np.asarray(thetas, dtype=float)
    b = gamma_ratio_quarter()
    lo_out, hi_out = _RHO_LEMMA_BRACKET
    x_bot, _ = _rho_theta_vec(thetas)
    x_top, _ = _newton_vec(lambda x: _rho_lemma_fdf(x, a_max, thetas, b),
                           lo_out, np.full(thetas.shape, hi_out), 1.0)
    return x_bot, x_top


def _rho_lemma_vec(a, thetas, rows=None,
                   work=None) -> tuple[np.ndarray, np.ndarray]:
    """rho(a, theta) and iteration counts on a (theta x a) grid.

    a is one 1-d row of values a >= 0, shared by every theta of the 1-d
    thetas, 0 <= theta < 1; both results have shape (thetas.size, a.size).
    rows is the pair _rho_lemma_rows(max(a), thetas); it is solved here
    when not given.  Every element's root and count depend only on its own
    (a, theta) and that row pair, so any split of the theta rows into
    blocks gives the same bits.  With a _Workspace, work, the results and
    the Newton state are taken from it and the scratch from scopes of it;
    without one every array is new.

    Outer bracket.  [1e-8, 2] holds for every such (a, theta).  With e,
    F and D as in _a_of_x, f = a (F - e - 1) + b sqrt(X) F.  At X = 2
    both F = 3e + 4 theta - 1 and F - e - 1 = 2e + 4 theta - 2 are
    positive because e > 1, so f(2) > 0; as X -> 0+, f tends to
    -4a - 2b sqrt(X) < 0.

    Starts.  f is linear in a: f = D (a(X) - a) with D > 0 up to the pole
    of a(X) = b sqrt(X) F / D.  On X >= 1/2, F' >= 2e and -D' >= e, so
    a' >= e (a + b sqrt(X)) / D > 0: a(X) increases from 0 at rho(theta)
    to +inf, and rho(a, theta) is the X with a(X) = a.  Each theta row
    has _RHO_NODES = n uniform nodes X_0 < ... < X_{n-1} from rho(theta)
    to rho(a_max, theta), a_max the largest a, at least 2^-20 wide.  With
    a_k the computed a(X_k), an element's cell is
    j = #{k : a_k <= a} - 1, so a_j <= a < a_{j+1} (j = -1 or n-1 off the
    ends).  The count is a sorted search: each a_k is placed in the
    sorted a row, p_k = #{a < a_k}, and the element of sorted rank m
    counts the k with p_k <= m, which are exactly those with a_k <= a; so
    ties and any order of a give the same j as the direct count.
    Newton starts at the cubic Hermite interpolant of the inverse
    map through (a_k, X_k) with slopes 1/a'(X_k) on that cell, clipped to
    the bracket [X_{j-1}, X_{j+2}], which is the cell widened by one node
    each way, an end past the grid replaced by the outer bracket's.

    Rounding at the nodes.  Only D = 1 + e - F cancels, so the computed
    a_k is (generously) within 100 eps (1 + e + F)(a_k + b sqrt(X)) / D of
    a(X_k), while by the bound on a' the exact node values are at least
    h e (a_k + b sqrt(X)) / D apart (h the node spacing).  Since
    (1 + e + F) / e <= 8 for X <= 2, the error is below 800 eps / h
    <= 1e-5 of a gap.  Hence a >= a_j > a(X_{j-1}) and
    a < a_{j+1} < a(X_{j+2}): the exact root lies inside the widened
    bracket, a whole node away from either end, which also covers the few
    ulps between it and the sign change of the computed f.  With 32 nodes
    the table's grid takes about two f evaluations per element.
    """
    b = gamma_ratio_quarter()
    a, thetas = np.asarray(a, dtype=float), np.asarray(thetas, dtype=float)
    n = _RHO_NODES
    lo_out, hi_out = _RHO_LEMMA_BRACKET
    own = _Workspace() if work is None else work
    shape = (thetas.size, a.size)
    lo, hi, x0 = own.take(shape), own.take(shape), own.take(shape)

    x_bot, x_top = rows if rows is not None else _rho_lemma_rows(
        float(a.max()), thetas)
    step = (np.maximum(x_top, x_bot + 2.0 ** -20) - x_bot)[:, None] / (n - 1)
    x_bot = x_bot[:, None]
    a_k, da_k = _a_of_x(x_bot + step * np.arange(n), thetas[:, None], b)

    with own.scope():
        m = a.size
        order = np.argsort(a, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(m)
        hits = own.take((thetas.size, m + 1), np.intp)
        hits.fill(0)
        np.add.at(hits.reshape(-1), np.searchsorted(a[order], a_k)
                  + (m + 1) * np.arange(thetas.size)[:, None], 1)
        cell = np.cumsum(hits[:, :m], axis=1, out=own.take(shape, np.intp))
        cell -= 1                       # j in sorted order
        j = np.take(cell, rank, axis=1, out=own.take(shape, np.intp),
                    mode="clip")
        off = own.take(shape, bool)
        np.multiply(step, np.subtract(j, 1, out=cell), out=lo)
        lo += x_bot
        np.copyto(lo, lo_out, where=np.less(j, 1, out=off))
        np.multiply(step, np.add(j, 2, out=cell), out=hi)
        hi += x_bot
        np.copyto(hi, hi_out, where=np.greater(j, n - 3, out=off))
        c = np.clip(j, 0, n - 2, out=j)
        # x0 = x_bot + step c + step (3t^2 - 2t^3)
        #      + d_a ((t^3 - 2t^2 + t) / s_l + (t^3 - t^2) / s_r)
        np.multiply(step, c, out=x0)
        x0 += x_bot
        np.add(c, n * np.arange(thetas.size)[:, None], out=cell)
        t = np.take(a_k, cell, out=own.take(shape), mode="clip")     # a_l
        cell += 1
        d_a = np.take(a_k, cell, out=own.take(shape), mode="clip")
        d_a -= t
        np.subtract(a, t, out=t)
        t /= d_a
        np.clip(t, 0.0, 1.0, out=t)
        t2 = np.multiply(t, t, out=own.take(shape))
        t3 = np.multiply(t2, t, out=own.take(shape))
        h, g = own.take(shape), own.take(shape)
        np.multiply(3.0, t2, out=h)
        np.multiply(2.0, t2, out=g)
        g *= t
        h -= g
        h *= step
        x0 += h
        np.multiply(2.0, t2, out=h)
        np.subtract(t3, h, out=h)
        h += t
        cell -= 1
        h /= np.take(da_k, cell, out=t, mode="clip")                 # s_l
        np.subtract(t3, t2, out=g)
        cell += 1
        g /= np.take(da_k, cell, out=t, mode="clip")                 # s_r
        h += g
        h *= d_a
        x0 += h
        np.clip(x0, lo, hi, out=x0)

    return _newton_vec(lambda x: _rho_lemma_fdf(x, a, thetas[:, None], b, own),
                       lo, hi, x0, own)


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
    one-element call into _rho_lemma_vec.

    The reported bracket is the outer one, [1e-8, 2], and the iteration
    count is that of the element's own solve from its interpolated start.
    """
    a = float(a)
    theta = float(theta)
    if not 0.0 <= a < np.inf:
        raise DomainError(f"rho_lemma_a needs finite a >= 0, got {a}")
    if not 0.0 <= theta < 1.0:
        raise DomainError(f"rho_lemma_a needs 0 <= theta < 1, got {theta}")
    x, its = _rho_lemma_vec(np.array([a]), np.array([theta]))
    f = _rho_lemma_fdf(x[0], a, theta, gamma_ratio_quarter())[0]
    return _solution(x[0], its[0], f, _RHO_LEMMA_BRACKET)
