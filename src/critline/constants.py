"""The constant chain feeding the lower bound.

Everything downstream of the two Euler products and the roots rho_theta,
rho(a, theta) is assembled here: c3, c2, c4, c5, the u-dependent c6 and
c7, the two rectangle quadratures of c7 over [0, 1/kappa], the four K
constants, and finally c1(A).

Conventions fixed once for the whole package: natural logarithm
throughout, kappa defaults to 1/8 (the supremum of the admissible range),
and the c7 integrals use right-endpoint rectangles.  Since c7 and v*c7
are increasing, right sums over-estimate both integrals.  For int c7,
which enters K2 with a plus sign, that keeps the bound conservative: a
larger K2 raises c1 and lowers the bound.  int v*c7 enters K4 with a
minus sign, so its right sum lowers K4 and c1 and makes the bound
slightly optimistic (by about 3e-9 relative at the N = 1 reference
point); the directed choice, the left sum, is not implemented yet.  The
right-minus-left gap of int c7 is reported as the quadrature bracket.

Each formula is implemented once, in the _k_table / _c7_profile kernels,
vectorized over a theta grid with the root grids solved by the
roots._rho_theta_vec / _rho_lemma_vec Newton kernels; _k_blocks is its
cheap floor, one lowered exact row per block of theta rows.  A constant
set is one ConstantSet: arrays, one element per theta, from the grid
kernels, and floats from k_constants.  The scalar operations (c2 .. c7,
integrate_c7, k_constants, c1) are the contract surface and are one-row
calls into those kernels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields, is_dataclass, replace

import numpy as np

from . import roots
from .errors import DomainError, _check_count, _plain
from .specfun import PRIME_CUTOFF, euler_product, gamma_ratio_quarter

_SQRT_PI = math.sqrt(math.pi)

# Workspace bytes of _k_table's c7 blocks.  A block takes at most
# _POINT_BYTES per (theta, u) point, so 4 MB is 370 theta rows at
# n_rect = 100, near the CPU caches; a row larger than the budget is a
# block of its own.
_K_WORK_BYTES = 2 ** 22
_POINT_BYTES = 112

# Largest n_rect: one theta row then holds 10^6 u points, about 160 MB.
_N_RECT_MAX = 10 ** 6

# Largest N.  The A-search squares q k1 = 32 N c5^2 k1, about 3e23 N at
# theta = 1 - 1e-6 (the last row of the largest theta grid), so up to
# N_MAX every step stays a finite double; every row is infeasible long
# before it (A* passes the 1e16 search cap near N = 1e8).
N_MAX = 10 ** 100

# The theta-grid envelope has one floor row per block of _FLOOR_BLOCK rows:
# _k_blocks lowers its c7 quadratures, and bound._b_upper raises its bounds,
# by _ENVELOPE_MARGIN relative, far beyond rounding and rho's ulps in c6.
_ENVELOPE_MARGIN = 2.0 ** -20
_FLOOR_BLOCK = 64


# -------------------------------------------------------------------- Params

@dataclass(frozen=True)
class Params:
    """The tuple (N, theta, kappa, A) parameterizing every bound formula.

    A must be positive and finite.  It must additionally exceed 1/kappa,
    and have a finite cube, wherever a bound is evaluated; those checks
    belong to the bound evaluators, not the container (A defaults to NaN,
    which lower_bound_general and lower_bound_single refuse).
    """
    N: int
    theta: float
    kappa: float = 0.125
    A: float = float("nan")

    def __post_init__(self):
        _check_N(self.N)
        _check_theta(self.theta)
        _check_kappa(self.kappa)
        if not math.isnan(self.A) and not 0.0 < self.A < math.inf:
            raise DomainError(f"A must be positive and finite, got {self.A}")


@dataclass(frozen=True)
class ConstantSet:
    """Computed constants at one (theta, kappa), with quadrature metadata:
    each field a float (k_constants), or for a theta grid a numpy array,
    one element per theta and one shape for every field."""
    c2: float
    c3: float
    c4: float
    c5: float
    k1: float
    k2: float
    k3: float
    k4: float
    int_c7: float
    int_vc7: float
    quad_bracket: float
    rho: float

    def _map(self, fn) -> ConstantSet:
        """The set of fn(field) for every field, e.g. a gather of rows."""
        return ConstantSet(**{f.name: fn(getattr(self, f.name)) for f in fields(self)})


def _check_N(N) -> None:
    """N must be an integer in [1, N_MAX]."""
    _check_count("N", N, 1, N_MAX, "N_MAX")


def _check_theta(theta: float) -> None:
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta must lie in (0,1), got {_plain(theta)!r}")


def _check_A(A: float) -> float:
    """A as a float, which c1 needs finite and above 1 (ln A > 0)."""
    A = float(A)
    if not 1.0 < A < math.inf:
        raise DomainError(f"c1 needs finite A > 1 (log changes sign), got {A}")
    return A


def _check_kappa(kappa: float) -> None:
    if not 0.0 < kappa <= 0.125:
        raise DomainError(f"kappa must lie in (0, 1/8], got {_plain(kappa)!r}")


def _finite(func):
    """func, raising DomainError, with no numpy warning, where an operation
    overflows or divides by zero, or where its value, or a field of it,
    is not finite; the message names the call and the fields.  Such
    arguments lie beyond the range of doubles."""
    @functools.wraps(func)
    def checked(*args, **kwargs):
        def refused(what):
            call = ", ".join([repr(_plain(a)) for a in args]
                             + [f"{k}={_plain(v)!r}" for k, v in kwargs.items()])
            return DomainError(f"{func.__name__}({call}) {what}")
        try:
            with np.errstate(all="ignore"):
                value = func(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise refused(f"leaves the doubles: {exc}") from exc
        named = asdict(value) if is_dataclass(value) else {"value": value}
        bad = [name for name, v in named.items() if not math.isfinite(v)]
        if bad:
            raise refused(f"is not finite in {', '.join(bad)}")
        return value
    return checked


# ------------------------------------------------- formula kernels (array-ok)

def _c5_from_rho(rho, theta, kappa, g, work=None):
    """(e^rho + e^{rho theta}) / ((1-theta) 2 sqrt(pi kappa rho)) * g, its
    arrays taken from work (a fresh roots._Workspace when None)."""
    work = roots._Workspace() if work is None else work
    shape = np.broadcast(rho, theta, g).shape
    v = np.exp(rho, out=work.take(shape))
    t = np.multiply(rho, theta, out=work.take(shape))
    v += np.exp(t, out=t)
    np.multiply(math.pi * kappa, rho, out=t)
    np.sqrt(t, out=t)
    t *= (1.0 - theta) * 2.0
    v /= t
    v *= g
    return v


def _c3_from_rho(rho, theta, kappa, g, p1):
    inner = ((np.exp(rho) + np.exp(rho * theta)) * g
             / ((1.0 - theta) * np.sqrt(rho * math.pi)))
    return (1.0 / (8.0 * kappa) + 1.5) * inner ** 4 * p1


def _c2_from_c3(v3, theta, kappa):
    return 6.0 * (v3 + 1.0 + 2.0 * np.sqrt(v3)) / (theta * kappa) ** 2


def _c4_closed(theta):
    inner = np.minimum(
        np.maximum(1.0, np.abs(1.0 - 4.0 * theta)) + 3.0 * theta * np.sqrt(theta),
        1.0 - theta + 3.0 * theta * np.sqrt(1.0 - theta))
    block = np.maximum(3.0 * np.sqrt(1.0 - theta), inner)
    return ((9.0 * (1.0 + theta ** 2.5) / 5.0 + 2.0 * block)
            / (3.0 * (1.0 - theta) * _SQRT_PI))


def _k1(theta, p1):
    """K1 = (32/3) P1 / (sqrt(pi) (1 - theta)); scalars and arrays alike."""
    return p1 * (32.0 / 3.0) / (_SQRT_PI * (1.0 - theta))


def _k_from_parts(theta, kappa, int_c7, int_vc7, p1, p2):
    """K1..K4 from the quadratures; works on scalars and arrays alike."""
    one_m = 1.0 - theta
    lk = math.log(kappa)
    k1 = _k1(theta, p1)
    k2 = (kappa * p2 * int_c7
          + p1 * (kappa / (0.5 - 2.0 * kappa)
                  + (256.0 / 9.0) / (one_m * one_m * math.pi)
                  + (32.0 / 3.0) * (lk - kappa) / (_SQRT_PI * one_m)))
    k3 = -p1 * (256.0 / 9.0) / (one_m * one_m * math.pi * kappa)
    k4 = (-kappa * p2 * int_vc7
          + p1 * ((4.0 * kappa - 0.5) / (0.5 - 2.0 * kappa) ** 2
                  - (256.0 / 9.0) * (1.0 + lk) / (one_m * one_m * math.pi * kappa)
                  + (32.0 / 3.0) / (_SQRT_PI * one_m * kappa)))
    return k1, k2, k3, k4


# ------------------------------------------------------------- scalar chain

def c5(theta: float, kappa: float = 0.125) -> float:
    """(1/(1-theta)) (e^rho + e^{rho theta}) / (2 sqrt(pi kappa rho)) * G."""
    return k_constants(theta, kappa).c5


def c3(theta: float, kappa: float = 0.125) -> float:
    """(1/(8 kappa) + 3/2) [ (e^rho + e^{rho theta}) G / ((1-theta) sqrt(rho pi)) ]^4 P1."""
    return k_constants(theta, kappa).c3


def c2(theta: float, kappa: float = 0.125) -> float:
    """6 (c3 + 1 + 2 sqrt(c3)) / (theta kappa)^2."""
    return k_constants(theta, kappa).c2


def c4(theta: float) -> float:
    """Closed form with the nested max/min of the mollifier corollary."""
    _check_theta(theta)
    return float(_c4_closed(float(theta)))


def _u_point(name: str, u: float, theta: float, kappa: float):
    """Checked one-row theta and one-point u arrays for c6 and c7."""
    _check_theta(theta)
    _check_kappa(kappa)
    u = float(u)
    if not 0.0 <= u < math.inf:
        raise DomainError(f"{name} needs finite u >= 0, got {u}")
    return np.array([float(theta)]), np.array([u])


def c6(u: float, theta: float, kappa: float = 0.125) -> float:
    """Perturbed variant of c5 at window position u (the role of v log T).

    rho solves the perturbed root equation at a = sqrt(pi kappa u); at
    u = 0 this collapses to c5.
    """
    thetas, us = _u_point("c6", u, theta, kappa)
    return float(_c6_profile(thetas, kappa, us)[0, 0])


def c7(u: float, theta: float, kappa: float = 0.125) -> float:
    """(1/2 + 2 kappa) c6(u)^2 + 2 c4 c6(u) sqrt(kappa)."""
    thetas, us = _u_point("c7", u, theta, kappa)
    return float(_c7_profile(thetas, kappa, us)[0, 0])


# ---------------------------------------------------------- vector kernels

def _c6_profile(thetas: np.ndarray, kappa: float, us: np.ndarray,
                rows=None, work=None) -> np.ndarray:
    """c6 on a grid of u values, one row per theta (c5 at the perturbed root).

    rows is roots._rho_lemma_rows at the largest a = sqrt(pi kappa u), or
    None to solve it here.  Every array is taken from work, a
    roots._Workspace (fresh when None); the caller's scope returns them.
    """
    work = roots._Workspace() if work is None else work
    rho, _ = roots._rho_lemma_vec(np.sqrt(math.pi * kappa * us), thetas, rows,
                                  work)
    g = np.divide(us, rho, out=work.take(rho.shape))
    np.sqrt(g, out=g)
    g *= math.sqrt(math.pi * kappa)
    g += gamma_ratio_quarter()
    return _c5_from_rho(rho, thetas[:, None], kappa, g, work)


def _c7_profile(thetas: np.ndarray, kappa: float, us: np.ndarray,
                rows=None, work=None) -> np.ndarray:
    """c7 = (1/2 + 2 kappa) c6^2 + 2 c4 c6 sqrt(kappa) on a grid of u
    values, one row per theta (rows and work as in _c6_profile)."""
    work = roots._Workspace() if work is None else work
    v6 = _c6_profile(thetas, kappa, us, rows, work)
    v4 = _c4_closed(thetas)[:, None]
    v7 = np.multiply(0.5 + 2.0 * kappa, v6, out=work.take(v6.shape))
    v7 *= v6
    t = np.multiply(2.0 * v4, v6, out=work.take(v6.shape))
    t *= math.sqrt(kappa)
    v7 += t
    return v7


# ------------------------------------------------------------- quadratures

def integrate_c7(theta: float, kappa: float = 0.125,
                 n_rect: int = 100) -> tuple[float, float, float]:
    """Rectangle quadratures of c7 and v*c7 over [0, 1/kappa].

    Returns (int_c7, int_vc7, quad_bracket): right-endpoint sums for both
    integrals (upper bounds, the integrands being increasing) and the
    right-minus-left gap for the first.
    """
    ks = k_constants(theta, kappa, n_rect)
    return ks.int_c7, ks.int_vc7, ks.quad_bracket


def k_constants(theta: float, kappa: float = 0.125, n_rect: int = 100,
                prime_cutoff: int = PRIME_CUTOFF) -> ConstantSet:
    """Assemble the four K constants and their ingredients at (theta, kappa).

    One row of _k_table, as Python floats; P1 and P2 are truncated at
    prime_cutoff.
    """
    _check_theta(theta)
    return _k_table(np.array([float(theta)]), kappa, n_rect,
                    prime_cutoff=prime_cutoff)._map(lambda v: float(v[0]))


def _block_bytes(points: int) -> int:
    """Workspace bytes of a c7 block of that many (theta, u) points:
    _POINT_BYTES each, and 64-byte alignment for each of its arrays."""
    return _POINT_BYTES * points + 4096


@np.errstate(all="ignore")
def _k_table(thetas: np.ndarray, kappa: float = 0.125, n_rect: int = 100,
             prime_cutoff: int = PRIME_CUTOFF) -> ConstantSet:
    """The constant chain over a whole theta grid.

    Returns a ConstantSet of arrays whose element i holds the constants at
    thetas[i].  P1 and P2 are truncated at prime_cutoff.  A column that
    leaves the doubles in some row raises DomainError naming it, with no
    numpy warning.

    The row stage solves rho(theta) and rho(a_max, theta) once for every
    row (roots._rho_lemma_rows); rho(theta) is also the rho, c5 and c3
    columns.  The c7 profile, about two Newton f evaluations per (theta, u)
    point, then runs in blocks of rows on the caller's thread, each block
    in a scope of one roots._Workspace that _k_table allocates and drops
    before the columns.  A block has as many rows as _K_WORK_BYTES holds at
    _POINT_BYTES per point, at least one, so a row larger than the budget
    is a block of its own.  The arena has that size however few rows
    there are (untouched pages stay out of memory), so a small call does
    not raise glibc's mmap threshold above a later, larger arena.  Each
    element's root depends only on its (theta, u) and its row's roots, so
    the result is bit-identical for any block size.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1 or thetas.size == 0:
        raise DomainError("theta grid must be a nonempty 1-d array")
    if float(thetas.min()) <= 0.0 or float(thetas.max()) >= 1.0:
        raise DomainError("theta grid must lie inside (0,1)")
    _check_kappa(kappa)
    _check_count("n_rect", n_rect, 1, _N_RECT_MAX)
    hi = 1.0 / kappa
    h = hi / n_rect
    us = np.linspace(0.0, hi, n_rect + 1)
    rho, x_top = roots._rho_lemma_rows(
        float(np.sqrt(math.pi * kappa * us).max()), thetas)
    int_c7, int_vc7, quad_bracket = sums = np.empty((3, thetas.size))
    block = max(1, _K_WORK_BYTES // (_POINT_BYTES * us.size))
    work = roots._Workspace(_block_bytes(us.size * block))
    for lo in range(0, thetas.size, block):
        rows = slice(lo, lo + block)
        with work.scope():
            prof = _c7_profile(thetas[rows], kappa, us,
                               (rho[rows], x_top[rows]), work)
            np.sum(prof[:, 1:], axis=1, out=int_c7[rows])
            np.subtract(prof[:, -1], prof[:, 0], out=quad_bracket[rows])
            prof[:, 1:] *= us[1:]
            np.sum(prof[:, 1:], axis=1, out=int_vc7[rows])
    del work, prof              # the columns must not pin the freed arena (peak RSS)
    sums *= h
    p1, p2 = (euler_product(kind, prime_cutoff).value for kind in ("P1", "P2"))
    g = gamma_ratio_quarter()
    c3v = _c3_from_rho(rho, thetas, kappa, g, p1)
    k1, k2, k3, k4 = _k_from_parts(thetas, kappa, int_c7, int_vc7, p1, p2)
    ks = ConstantSet(c2=_c2_from_c3(c3v, thetas, kappa), c3=c3v, c4=_c4_closed(thetas),
                     c5=_c5_from_rho(rho, thetas, kappa, g), k1=k1, k2=k2, k3=k3, k4=k4,
                     int_c7=int_c7, int_vc7=int_vc7, quad_bracket=quad_bracket, rho=rho)
    bad = [f.name for f in fields(ks) if not np.isfinite(getattr(ks, f.name)).all()]
    if bad:
        first = ~np.logical_and.reduce([np.isfinite(getattr(ks, name)) for name in bad])
        raise DomainError(f"the constant chain at kappa = {_plain(kappa)!r} is not finite in "
                          f"{', '.join(bad)}, first at theta = {float(thetas[first][0])!r}")
    return ks


@np.errstate(all="ignore")
def _k_blocks(thetas: np.ndarray, kappa: float = 0.125, n_rect: int = 100,
              prime_cutoff: int = PRIME_CUTOFF) -> tuple[ConstantSet, ConstantSet]:
    """(ends, floor), one row per block of _FLOOR_BLOCK rows of thetas:
    ends is _k_table at each block's left end theta_a, and floor is ends
    with int c7 and int v c7 lowered by _ENVELOPE_MARGIN (K2, K4 follow)
    and c2 formed at the block's right end theta_b.  For every row theta'
    of a block and A > 1/kappa, floor has c2- <= c2(theta'), c1-(A) <=
    c1(A; theta') where c1-(A) >= 0 (bound._b_upper certifies that on its
    window) and window start L- <= L(theta') (bound._search_window).

    Proof.  With x = 1/(1 - theta), c1 / (8 c5^2) = P = K1 A ln A + K2 A
    + K3 ln A + K4 is, up to terms free of theta,
        P1 [(32/(3 sqrt pi)) x (A ln(A kappa) - A kappa + 1/kappa)
            + (256/(9 pi)) x^2 (A kappa - ln(A kappa) - 1) / kappa]
        + kappa P2 h sum_k (A - u_k) c7(u_k, theta),  u_k = k h <= 1/kappa.
    At y = A kappa >= 1 the brackets times kappa, y ln y - kappa y + 1 and
    y - ln y - 1, are >= 0 at y = 1 and rise (kappa <= 1/8), and c7 rises
    in theta (below), so P rises and the lowered quadratures lower it.
    c5 is c6 at u = 0, so it rises (below), and where P- >= 0, c1- =
    8 c5(theta_a)^2 P- <= c1(theta').  c3 = (1/(8 kappa) + 3/2) 16 kappa^2
    P1 c5^4 rises, so c2 = 6 (c3 + 1 + 2 sqrt(c3)) / (theta kappa)^2 >= c2-.
    L = max(A_c, e^{1e-9} / kappa) rises, as A_c = q k1 + sqrt(q^2 k1^2 -
    3 q k3) rises with q = 32 N c5^2 (8 c5^2 at N = 1), K1 and -K3, which
    all rise in theta.  The margin also covers these terms' rounding.

    c7 rises.  With a = sqrt(pi kappa u), b = Gamma(1/4)/Gamma(3/4) and
    F(X, theta) = (e^X + e^{theta X}) (a + b sqrt X) / X, c6 is F(rho,
    theta) / (2 (1 - theta) sqrt(pi kappa)), rho = rho(a, theta), and
    2 X^2 e^{-theta X} dF/dX is exactly the perturbed root equation,
    negative on (0, 1/2] with one root beyond (roots._rho_lemma_vec), so
    rho minimises F and c6 = min_X F / (2 (1 - theta) sqrt(pi kappa))
    rises, as F(X, .) and 1/(1 - theta) do.  Each piece of c4's max/min
    over 1 - theta rises, and so does 9 (1 + theta^2.5) / (1 - theta), so
    c4 > 0 and c7 = (1/2 + 2 kappa) c6^2 + 2 c4 c6 sqrt(kappa) rise.  The
    last ulps (3-5) of rho move c6 only to second order; the margin
    covers that and the rounding.
    """
    left = thetas[::_FLOOR_BLOCK]
    ends = _k_table(left, kappa, n_rect, prime_cutoff=prime_cutoff)
    right = thetas[np.minimum(np.arange(1, left.size + 1) * _FLOOR_BLOCK, thetas.size) - 1]
    int_c7, int_vc7 = (q * (1.0 - _ENVELOPE_MARGIN) for q in (ends.int_c7, ends.int_vc7))
    p1, p2 = (euler_product(kind, prime_cutoff).value for kind in ("P1", "P2"))
    _, k2, _, k4 = _k_from_parts(left, kappa, int_c7, int_vc7, p1, p2)
    return ends, replace(ends, c2=_c2_from_c3(ends.c3, right, kappa), k2=k2, k4=k4,
                         int_c7=int_c7, int_vc7=int_vc7)


@_finite
def c1(A: float, theta: float, kappa: float = 0.125, n_rect: int = 100) -> float:
    """8 c5^2 (K1 A ln A + K2 A + K3 ln A + K4), natural log, A > 1."""
    A = _check_A(A)
    ks = k_constants(theta, kappa, n_rect)
    return float(c1_from_set(A, ks))


def c1_from_set(A, ks: ConstantSet):
    """c1(A) from a precomputed constant set (A may be an array aligned
    with the set's fields)."""
    return _c1(A, ks, *_c1_factors(A, ks))


def c1_prime_from_set(A, ks: ConstantSet):
    """d/dA of c1 from a precomputed constant set."""
    return _c1_prime(A, ks, *_c1_factors(A, ks))


def _c1_factors(A, ks: ConstantSet):
    """(ln A, 8 c5^2), the factors c1 and c1' share: a caller that needs
    both forms them once and passes them to _c1 and _c1_prime, with the
    same bits as c1_from_set and c1_prime_from_set."""
    return np.log(A), 8.0 * ks.c5 ** 2


def _c1(A, ks: ConstantSet, log_a, m):
    return m * (ks.k1 * A * log_a + ks.k2 * A + ks.k3 * log_a + ks.k4)


def _c1_prime(A, ks: ConstantSet, log_a, m):
    return m * (ks.k1 * (log_a + 1.0) + ks.k2 + ks.k3 / A)
