"""Lower-bound evaluators, the (A, theta) optimizer, and large-N asymptotics.

The proportion of critical-line zeros of a linear combination of N
L-functions is bounded below by

    2 pi (1/(2A) - 4 N (c1(A) + c2) / A^3)        (general N)
    2 pi (1/(2A) - (sqrt(c1) + sqrt(c2))^2 / A^3)  (sharper, N = 1 only)

for any A > 1/kappa.  The optimizer locates the stationary A of the
chosen formula from the analytic derivative, sweeps a theta grid, and
reports the best (A*, theta*).  The sweep bounds every grid row from
above with a certified envelope, exact only at the left end of each
block of rows, and runs the exact constant chain only on the rows whose
bound can still win, so its winner is exactly that of the whole grid.
optimize_many does this for several N at once, two constant-chain calls
for the grid and one per refinement pass for all of them, and optimize
is its one-element case.
For every N the stationary A is a certified root of a function proven
concave beyond an explicit threshold, found by Newton in one A-search
entry, _searches, on a constants.ConstantSet of theta-grid arrays; on
the envelope rows three Newton steps bracket it, which bounds the row's
maximum from above.  The asymptotic machinery packages the same chain
into the large-N constants (lambda-, lambda+, N0, ...) and evaluates the
final large-N display.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import constants as cst
from . import roots
from .constants import PRIME_CUTOFF, Params
from .errors import DomainError, OptimizerError, PreconditionError, _check_count, _plain
from .specfun import gamma_ratio_quarter

TWO_PI = 2.0 * math.pi

# N values of the reference table emitted by the table command.
DEFAULT_TABLE_N = (1, 2, 3, 4, 5, 10, 100, 1000)

# Stationary-A search window: from just above 1/kappa out to _A_MAX (the
# table tops out near 1e11, so this leaves headroom).  A row whose
# stationary point lies beyond _A_MAX counts as infeasible.
_A_MAX = 1e16

# Largest theta grid optimize sweeps.
_THETA_GRID_MAX = 10 ** 6

# Local theta refinement: 2 * _REFINE_HALF + 1 points per pass, spacing
# divided by _REFINE_HALF after each; three passes end at h / 25^3 =
# 6.4e-5 h (h the grid spacing), fine enough that the table text no
# longer moves.  Fewer, wider passes cost less than many narrow ones.
_REFINE_HALF = 25
_REFINE_PASSES = 3


@dataclass(frozen=True)
class BoundReport:
    """Optimizer output for one N."""
    N: int
    A_star: float
    theta_star: float
    kappa: float
    bound: float
    method: str          # "general" or "single_L"
    n_rect: int
    theta_grid: int


@dataclass(frozen=True)
class AsymptoticSet:
    """The +/- constants of the large-N regime at one (eps, kappa)."""
    eps: float
    lambda_minus: float
    lambda_plus: float
    c5_minus: float
    c5_plus: float
    c3_plus: float
    c2_plus: float
    c4_plus: float
    k2_plus: float
    k4_plus: float
    n0: float


# ------------------------------------------------------------- evaluators

def _bound_value(A, N, ks: cst.ConstantSet, single: bool):
    """b(A); array-safe.  single=True uses the sharper N=1 combination."""
    c1v, c2v = cst.c1_from_set(A, ks), ks.c2
    if single:
        quad = (np.sqrt(c1v) + np.sqrt(c2v)) ** 2
        return TWO_PI * (0.5 / A - quad / A ** 3)
    return TWO_PI * (0.5 / A - 4.0 * N * (c1v + c2v) / A ** 3)


def _stationarity(A, N, ks: cst.ConstantSet, single: bool):
    """g(A) = A^4 b'(A) / (2 pi), positive left of the maximum, and its
    slope d g / d ln A in closed form."""
    log_a, m = cst._c1_factors(A, ks)
    c1v, c1p = cst._c1(A, ks, log_a, m), cst._c1_prime(A, ks, log_a, m)
    p = A * c1p                                           # d c1 / d ln A
    dp = p + m * (ks.k1 * A - ks.k3)                      # d p / d ln A
    if single:
        ratio = np.sqrt(ks.c2 / c1v)
        return (-0.5 * A * A - (1.0 + ratio) * c1p * A
                + 3.0 * (np.sqrt(c1v) + np.sqrt(ks.c2)) ** 2,
                -A * A + 0.5 * ratio * p * p / c1v + (1.0 + ratio) * (3.0 * p - dp))
    return (-0.5 * A * A - 4.0 * N * c1p * A + 12.0 * N * (c1v + ks.c2),
            -A * A + 4.0 * N * (3.0 * p - dp))


def lower_bound_general(p: Params, n_rect: int = 100) -> float:
    """2 pi (1/(2A) - 4N (c1(A) + c2)/A^3); total on A > 1/kappa."""
    _require_window(p)
    ks = cst.k_constants(p.theta, p.kappa, n_rect)
    return float(_bound_value(p.A, p.N, ks, single=False))


def lower_bound_single(p: Params, n_rect: int = 100) -> float:
    """2 pi (1/(2A) - (sqrt(c1) + sqrt(c2))^2/A^3); N = 1 only."""
    if p.N != 1:
        raise DomainError(f"the sharper combination applies to N = 1 only, got N={p.N}")
    _require_window(p)
    ks = cst.k_constants(p.theta, p.kappa, n_rect)
    c1v = cst.c1_from_set(p.A, ks)
    if c1v < 0.0:
        raise DomainError(f"c1(A) = {c1v:g} < 0 at A = {p.A:g}; "
                          "the square-root combination is undefined here")
    return float(_bound_value(p.A, 1, ks, single=True))


def _require_window(p: Params) -> None:
    """A set, above 1/kappa, and at most the largest double whose cube is
    finite (b(A) divides by A^3)."""
    if math.isnan(p.A):
        raise DomainError("Params.A is unset")
    if not p.A > 1.0 / p.kappa:
        raise DomainError(f"bound needs A > 1/kappa = {1.0 / p.kappa:g}, got A = {p.A:g}")
    a_top = sys.float_info.max ** (1.0 / 3.0)
    if not p.A <= a_top:
        raise DomainError(f"bound needs A <= {a_top:.6g}, beyond which A^3 overflows, "
                          f"got A = {p.A:g}")


# -------------------------------------------------------------- optimizer

def optimize_A(N: int, theta: float, kappa: float = 0.125,
               n_rect: int = 100) -> tuple[float, float]:
    """Best A at fixed theta: (A_star, bound).

    Uses the sharper single-L formula when N = 1 and the general one
    otherwise, as the table does.  One row of _searches (a certified root
    for every N); raises OptimizerError where that row is infeasible.
    """
    cst._check_N(N)
    cst._check_theta(theta)
    cst._check_kappa(kappa)
    ks = cst._k_table(np.array([float(theta)]), kappa, n_rect)
    (a_star,), (b_star,) = _searches((N,), kappa, ks)
    if b_star[0] == -np.inf:
        raise OptimizerError(
            f"no positive stationary point of the bound for N={N} at theta={theta} "
            f"in A within [{1.0 / kappa:.3g}, {_A_MAX:.3g}]")
    return float(a_star[0]), float(b_star[0])


def _concavity_threshold(q, k1, k3):
    """A_c = q k1 + sqrt(q^2 k1^2 - 3 q k3), rounded up by 2^-48 relative
    so that it is not below the exact value; g'' < 0 beyond it."""
    qk1 = q * k1
    return (qk1 + np.sqrt(qk1 * qk1 - 3.0 * q * k3)) * (1.0 + 2.0 ** -48)


def _single_cert_coeffs(k1, k2, k3, k4):
    """(a, b, c_ab) with sum c_ab A^a (ln A)^b
    = A^2 (4 P^2 U'' - 4 P U' P' + 3 U P'^2 - 2 P U P''), except
    c_33 = -5 k1^3, for P = k1 A ln A + k2 A + k3 ln A + k4 and
    U = 6P - A P'.  Takes arrays or sympy symbols."""
    k11, k33 = k1 * k1, k3 * k3
    return (
        (0, 0, -k3 * (3 * k33 + 8 * k3 * k4 + 12 * k4 * k4)),
        (0, 1, -8 * k33 * (k3 + 3 * k4)),
        (0, 2, -12 * k33 * k3),
        (1, 0, (-9 * k1 * k33 - 4 * k1 * k3 * k4 + 8 * k1 * k4 * k4
                - 17 * k2 * k33 - 34 * k2 * k3 * k4)),
        (1, 1, -k3 * (21 * k1 * k3 + 18 * k1 * k4 + 34 * k2 * k3)),
        (1, 2, -26 * k1 * k33),
        (2, 0, (-9 * k11 * k3 + 4 * k11 * k4 - 22 * k1 * k2 * k3
                + 18 * k1 * k2 * k4 - 31 * k2 * k2 * k3 - 2 * k2 * k2 * k4)),
        (2, 1, -2 * (9 * k11 * k3 - 9 * k11 * k4 + 22 * k1 * k2 * k3
                     + 2 * k1 * k2 * k4 + k2 * k2 * k3)),
        (2, 2, -k1 * (13 * k1 * k3 + 2 * k1 * k4 + 4 * k2 * k3)),
        (2, 3, -2 * k11 * k3),
        (3, 0, -3 * k11 * k1 - 5 * k11 * k2 + k1 * k2 * k2 - 5 * k2 * k2 * k2),
        (3, 1, -k1 * (5 * k11 - 2 * k1 * k2 + 15 * k2 * k2)),
        (3, 2, k11 * (k1 - 15 * k2)),
    )


def _single_certificate(ks: cst.ConstantSet, a):
    """c1(a) > 0, c1'(a) > 0 and the c_ab sum below 5 k1^3 at a > e (the
    proof is in _searches).  Rounding in the c_ab (at most 6e-16 of
    5 k1^3 on the table grid) and the powers is far inside the margin."""
    log_a, m = cst._c1_factors(a, ks)
    pa, pl = ((x * x * x, x * x, x, 1.0) for x in (1.0 / a, 1.0 / log_a))
    tail = sum(np.maximum(c, 0.0) * pa[i] * pl[j]
               for i, j, c in _single_cert_coeffs(ks.k1, ks.k2, ks.k3, ks.k4))
    return ((cst._c1(a, ks, log_a, m) > 0.0)
            & (cst._c1_prime(a, ks, log_a, m) > 0.0)
            & (tail < 5.0 * ks.k1 * ks.k1 * ks.k1 * (1.0 - 2.0 ** -20)))


@np.errstate(all="ignore")
def _search_window(N, kappa: float, ks: cst.ConstantSet):
    """(single, L, g(L), (g, dg/dln A) at _A_MAX, concave, feasible) per
    row: the formula (single-L for N = 1), the A-search window [L, _A_MAX],
    g at its ends, where g is proven concave on it (L < _A_MAX and, for
    N = 1, the single-L certificate), and where the row is feasible:
    concave with g(L) > 0 > g(_A_MAX) (the proof is in _searches)."""
    single = np.ndim(N) == 0 and N == 1
    q = (8.0 if single else 32.0 * N) * ks.c5 ** 2
    a_lo = np.maximum(_concavity_threshold(q, ks.k1, ks.k3),
                      math.exp(math.log(1.0 / kappa) + 1e-9))
    g_lo = _stationarity(a_lo, N, ks, single)[0]
    hi = _stationarity(_A_MAX, N, ks, single)
    concave = a_lo < _A_MAX
    if single:
        concave &= _single_certificate(ks, a_lo)
    return single, a_lo, g_lo, hi, concave, concave & (g_lo > 0.0) & (hi[0] < 0.0)


@np.errstate(all="ignore")
def _searches(Ns, kappa: float, ks: cst.ConstantSet) -> tuple[np.ndarray, np.ndarray]:
    """The stationary-A search for every N in Ns across a theta grid.

    ks holds one row of thetas for all N, or one row per N.  Returns
    (A_star, bound) of shape (len(Ns), rows), a -inf bound marking
    infeasible rows (no certified stationary point in (1/kappa, _A_MAX);
    discarded silently).  A_star is the largest root of
    g = A^4 b'(A) / (2 pi), found the same way for every N: one search on
    N = 1 and one on the column of the others.

    General formula.  With q = 32 N c5^2,
        g = -A^2/2 + q [2 k1 A ln A + (2 k2 - k1) A + 3 k3 ln A + 3 k4 - k3]
            + 12 N c2,
    so A^2 g'' = -(A^2 - 2 q k1 A + 3 q k3) < 0 beyond its larger root
    A_c = q k1 + sqrt(q^2 k1^2 - 3 q k3) (NaN, so infeasible, if none).

    Single-L formula (N = 1).  Its g is the general g at N = 1/4 plus
    h = sqrt(c2) (6 c1 - A c1') / sqrt(c1): A_c with q = 8 c5^2 covers the
    first part and _single_certificate the second.  Write c1 = m P
    (m = 8 c5^2) and U = 6P - A P'; where P > 0, h'' has the sign of
    4 P^2 U'' - 4 P U' P' + 3 U P'^2 - 2 P U P'', which times A^2 is
    sum c_ab A^a l^b over a, b <= 3 (l = ln A), c_33 = -5 k1^3.  For A > 1
    each A^(a-3) l^(b-3) is nonincreasing, so if
    sum_{ab != 33} max(c_ab, 0) L^(a-3) (ln L)^(b-3) < 5 k1^3 (forcing
    k1 > 0), h'' < 0 on [L, inf) wherever P > 0.  As P'' = k1/A - k3/A^2
    > 0 (k3 < 0 by its formula), P(L) > 0 and P'(L) > 0 keep P > 0 there.
    Rows failing this are infeasible, which is conservative: the bound is
    a maximum over feasible theta.

    The root, for every N.  Let L = max(A_c, e^{1e-9} / kappa) (> e since
    kappa <= 1/8).  A row is feasible iff its certificate holds and
    g(L) > 0 > g(_A_MAX): g is concave on [L, _A_MAX], so it has exactly
    one root there, and since b' has the sign of g, that root is the last
    maximum of b.  Safeguarded Newton finds it on g/A, which has the sign
    of g and is nearly linear at large A, started at _A_MAX.
    With numpy's warnings off, a NaN or infinity (at a tiny kappa) fails
    every comparison and so only drops its row.
    """
    a, b = (np.full((len(Ns), ks.k1.shape[-1]), v) for v in (np.nan, -np.inf))
    for single in (True, False):
        js = [j for j, N in enumerate(Ns) if (N == 1) == single]
        if not js:
            continue
        sub = ks if ks.k1.ndim == 1 else ks._map(lambda v: v[js])
        n = 1 if single else np.array([[float(Ns[j])] for j in js])
        _, a_lo, _, _, _, feasible = _search_window(n, kappa, sub)
        rows = sub._map(lambda v: np.broadcast_to(v, feasible.shape)[feasible])
        n_rows = np.broadcast_to(np.asarray(n, dtype=float), feasible.shape)[feasible]

        def neg_h(x):
            g, slope = _stationarity(x, n_rows, rows, single)
            return -g / x, (g - slope) / (x * x)

        a_js = np.full(feasible.shape, np.nan)
        a_js[feasible], _ = roots._newton_vec(neg_h, a_lo[feasible], _A_MAX,
                                              np.full(np.count_nonzero(feasible), _A_MAX))
        b_js = _bound_value(a_js, n, sub, single)
        b_js[~np.isfinite(b_js)] = -np.inf
        a[js], b[js] = a_js, b_js
    return a, b


@np.errstate(all="ignore")                          # as in _searches
def _b_upper(N, kappa: float, ks: cst.ConstantSet) -> np.ndarray:
    """An upper bound per row on the maximum of b over the window
    [L, _A_MAX], +inf on every row where none is certified finite, from
    three Newton steps: no root is converged.  On a feasible row that
    maximum is the bound b* of _searches (same N and constant set).

    Proof.  On a feasible row g is concave on [L, _A_MAX], its one root
    A* is the last maximum of b, and b' = 2 pi g / A^4 (_searches).
    Three steps of the same safeguarded Newton on -g/A from _A_MAX, with
    no convergence test, leave l, the last point with g >= 0, and r, the
    last with g < 0: l <= A* < r.  A* is at least the root l' of the
    chord on [l, r], below concave g, and -g >= 0 increases on [A*, r],
    so b* - b(r) <= 2 pi (r - l') |g(r)| / l'^4.  Where g falls at l,
    0 <= g lies below its tangent at l on [l, A*], which is >= 0 up to
    its root t = l + g(l) l / |dg/dln A| >= A*, so b* - b(l) <=
    2 pi int_[l, t] tangent / l^4 = pi g(l) (t - l) / l^4.  Where concave
    g is >= 0 at both window ends it is >= 0 on the whole window, so b
    rises and its maximum there is b(_A_MAX).  Rounding moves the bound
    by a few ulps of b (g's sign is misjudged only within rounding of A*,
    where b is flat): without its 2^-20 relative raise
    (constants._ENVELOPE_MARGIN), it fell up to 1e-15 below b*.
    """
    single, l, g_l, (g, slope), concave, feasible = _search_window(N, kappa, ks)
    rises = concave & (g_l >= 0.0) & (g >= 0.0)
    (x, r), g_r, s_l = np.full((2, *l.shape), _A_MAX), g.copy(), np.zeros(l.shape)
    for _ in range(3):
        x += x * g / (g - slope)                # Newton on -g/A
        np.copyto(x, 0.5 * (l + r), where=~((x > l) & (x < r)))
        g, slope = _stationarity(x, N, ks, single)
        left = g >= 0.0
        for dst, src, at in ((l, x, left), (g_l, g, left), (s_l, slope, left),
                             (r, x, ~left), (g_r, g, ~left)):
            np.copyto(dst, src, where=at)
    top = _bound_value(l, N, ks, single) + np.where(
        s_l < 0.0, np.pi * g_l * g_l / (-s_l * l ** 3), np.inf)
    l = np.maximum(l, l + g_l * (r - l) / (g_l - g_r))
    top = np.fmin(top, _bound_value(r, N, ks, single) - (r - l) * TWO_PI * g_r / l ** 4)
    top = np.where(rises, _bound_value(_A_MAX, N, ks, single), top)
    top += np.abs(top) * cst._ENVELOPE_MARGIN
    return np.where((feasible | rises) & np.isfinite(top), top, np.inf)


def optimize(N: int, kappa: float = 0.125, theta_grid_size: int = 10000,
             n_rect: int = 100, prime_cutoff: int = PRIME_CUTOFF) -> BoundReport:
    """Sweep the theta grid, optimize A at each point, return the best:
    the one-element case of optimize_many."""
    return optimize_many((N,), kappa, theta_grid_size, n_rect, prime_cutoff)[0]


def optimize_many(Ns, kappa: float = 0.125, theta_grid_size: int = 10000,
                  n_rect: int = 100, prime_cutoff: int = PRIME_CUTOFF) -> list[BoundReport]:
    """optimize for every N in Ns, sharing each constant-chain call.

    Pass 0 finds each N's best row of the theta grid k / theta_grid_size
    by branch and bound, running the exact constant chain only on the
    rows that can still win.  constants._k_blocks runs it on the left end
    of every block of rows, whose best exact bound is best0[N], and gives
    every row a floor; _b_upper on the floor bounds every row by U[N, row]
    (below); one _k_table call runs on the rows, ascending, with
    U >= best0 for some N, and each N's A-search on all of them.  A row
    left out has b <= U < best0 <= the best row kept, for every N, and
    each _k_table row and A-search element depends only on its own theta,
    so the winner and the smaller-theta tie rule are those of the whole
    grid.

    U.  The floor row (constants._k_blocks, which proves this) has
    c1- <= c1 on A > 1/kappa, so b <= b- pointwise (for N = 1, where b
    falls as sqrt(c1) grows, this also needs c1- >= 0, which the floor's
    own _single_certificate gives on [L, inf)).  L depends only on q, k1
    and k3, so the exact and the floor row share it, and the exact A*
    lies in [L, _A_MAX].  U is _b_upper's bound on the maximum of b-
    there, so b(A*) <= b-(A*) <= U.

    Each later pass refines every N on its own local grid: 51 points
    centred on its best theta so far, one grid cell either side at first
    and 25x narrower every pass.  A local point outside (0, 1) is
    replaced by the centre, so the grids stay a rectangle.  The centre is
    always one of the points and a copy of it never wins the strict >
    update, so the refined bound is never below the grid bound.  Ties
    resolve to the smaller theta (each grid scans ascending).  P1 and P2
    are truncated at prime_cutoff.

    A refinement pass is one _k_table call on every N's local grid, laid
    end to end, and each N's A-search reads only its own 51 rows, so
    each report is bit-identical to optimize(N) alone.
    """
    _check_count("len(Ns)", len(Ns), 1)
    for N in Ns:
        cst._check_N(N)
    _check_count("theta_grid_size", theta_grid_size, 2, _THETA_GRID_MAX)
    cst._check_kappa(kappa)
    _check_count("n_rect", n_rect, 1, cst._N_RECT_MAX)
    thetas = np.arange(1, theta_grid_size) / theta_grid_size
    ends, floor = cst._k_blocks(thetas, kappa, n_rect, prime_cutoff)
    best0 = _searches(Ns, kappa, ends)[1].max(axis=1)
    keep = [_b_upper(N, kappa, floor) >= b0 for N, b0 in zip(Ns, best0)]
    del ends, floor                     # not live across the exact call (peak RSS)
    thetas = thetas[np.any(keep, axis=0)]
    ks = cst._k_table(thetas, kappa, n_rect, prime_cutoff=prime_cutoff)
    best = [(0.0, 0.0, -math.inf)] * len(Ns)           # (theta, A, bound) per N
    step = 1.0 / theta_grid_size
    for pass_ in range(_REFINE_PASSES + 1):
        if pass_:
            step /= _REFINE_HALF
            centres = np.array([[theta] for theta, _, _ in best])
            thetas = centres + step * np.arange(-_REFINE_HALF, _REFINE_HALF + 1)
            thetas = np.where((thetas > 0.0) & (thetas < 1.0), thetas, centres)
            ks = cst._k_table(thetas.ravel(), kappa, n_rect,
                              prime_cutoff=prime_cutoff)._map(lambda v: v.reshape(thetas.shape))
        a, b = _searches(Ns, kappa, ks)
        thetas = np.broadcast_to(thetas, b.shape)
        for j, N in enumerate(Ns):
            if not (b[j] > 0.0).any():          # pass 0 only: later grids hold the centre
                raise OptimizerError(
                    f"every theta grid point is infeasible for N={N}, kappa={kappa}")
            i = int(np.argmax(b[j]))
            if b[j, i] > best[j][2]:
                best[j] = (float(thetas[j, i]), float(a[j, i]), float(b[j, i]))

    return [BoundReport(N=int(N), A_star=a, theta_star=theta, kappa=float(kappa),
                        bound=b, method="single_L" if N == 1 else "general",
                        n_rect=int(n_rect), theta_grid=int(theta_grid_size))
            for N, (theta, a, b) in zip(Ns, best)]


# ------------------------------------------------------------- asymptotics

@cst._finite
def asymptotic_constants(eps: float, kappa: float = 0.125,
                         prime_cutoff: int = PRIME_CUTOFF) -> AsymptoticSet:
    """The +/- constants of the large-N regime.

    c5- and c5+ sandwich c5(theta)/(1+eps) using rho at theta = 0 and
    theta = 1/4; lambda+/- = 128 (c5+/-)^2 K1(0); the K2+/K4+ envelopes
    drop the theta dependence, and the K2+ integral of the c6+ envelope
    is elementary, so it is evaluated in closed form.  P1 and P2 are
    truncated at prime_cutoff.
    """
    eps = float(eps)
    if not 0.0 < eps < 1.0 / 3.0:
        raise DomainError(f"eps must lie in (0, 1/3), got {eps}")
    cst._check_kappa(kappa)
    g = gamma_ratio_quarter()
    p1 = cst.euler_product("P1", prime_cutoff).value
    p2 = cst.euler_product("P2", prime_cutoff).value
    rho0 = roots.rho_theta(0.0).value
    rho4 = roots.rho_theta(0.25).value
    c5m = float(cst._c5_from_rho(rho0, 0.0, kappa, g))
    c5p = ((math.exp(rho4) + math.exp(rho4 / 4.0))
           / (2.0 * math.sqrt(math.pi * kappa * rho4)) * g)
    k1_zero = cst._k1(0.0, p1)
    lam_m = 128.0 * c5m * c5m * k1_zero
    lam_p = 128.0 * c5p * c5p * k1_zero
    c3p = ((1.0 / (8.0 * kappa) + 1.5)
           * ((math.exp(rho4) + math.exp(rho4 / 4.0)) * g
              / math.sqrt(math.pi * rho4)) ** 4 * p1)
    c2p = float(cst._c2_from_c3(c3p, 1.0, kappa))
    c4p = 13.0 / (5.0 * math.sqrt(math.pi))
    # c6+(v) = E (s sqrt(v) + G) with E = e/sqrt(pi kappa/2), s = sqrt(2 pi kappa);
    # its K2+ integrand integrates in closed form over [0, 1/kappa].
    e_fac = math.e / math.sqrt(math.pi * kappa / 2.0)
    s_fac = math.sqrt(2.0 * math.pi * kappa)
    int_c6p_sq = e_fac * e_fac * (s_fac * s_fac / (2.0 * kappa * kappa)
                                  + (4.0 / 3.0) * s_fac * g * kappa ** -1.5
                                  + g * g / kappa)
    int_c6p = e_fac * ((2.0 / 3.0) * s_fac * kappa ** -1.5 + g / kappa)
    k2p = (kappa * p2 * ((0.5 + 2.0 * kappa) * int_c6p_sq
                         + 2.0 * c4p * math.sqrt(kappa) * int_c6p)
           + p1 * (kappa / (0.5 - 2.0 * kappa) + 256.0 / (9.0 * math.pi)))
    k4p = p1 * ((256.0 / 9.0) * (math.log(1.0 / kappa) - 1.0) / (math.pi * kappa)
                + (32.0 / 3.0) / (math.sqrt(math.pi) * kappa))
    n0 = c2p / lam_m ** 3
    return AsymptoticSet(eps=eps, lambda_minus=lam_m, lambda_plus=lam_p,
                         c5_minus=c5m, c5_plus=c5p, c3_plus=c3p, c2_plus=c2p,
                         c4_plus=c4p, k2_plus=k2p, k4_plus=k4p, n0=n0)


@cst._finite
def asymptotic_bound(N: float, eps: float, kappa: float = 0.125,
                     prime_cutoff: int = PRIME_CUTOFF) -> float:
    """The large-N lower bound at (N, eps); N must be finite and clear the
    threshold N0/eps^3, and eps^3 must be a normal double."""
    n = float(N)
    if not math.isfinite(n):
        raise DomainError(f"asymptotic_bound needs a finite N, got {n}")
    ac = asymptotic_constants(eps, kappa, prime_cutoff)
    if eps ** 3 < sys.float_info.min:
        raise DomainError(f"eps^3 = {eps ** 3:g} leaves the normal doubles at "
                          f"eps = {_plain(eps)!r}, so the threshold N0/eps^3 cannot be formed")
    threshold = max(3.0, ac.n0 / eps ** 3)
    if n < threshold:
        raise PreconditionError(
            f"N = {n:g} is below the validity threshold max(3, N0/eps^3) = {threshold:g}")
    k1_zero = cst._k1(0.0, cst.euler_product("P1", prime_cutoff).value)
    log_n = math.log(n)
    return (TWO_PI / (n * log_n)) * (
        1.0 / (4.0 * ac.lambda_plus * (1.0 + eps) ** 3)
        - math.log(log_n) / (4.0 * ac.lambda_minus * log_n)
        - (math.log(ac.lambda_plus) + 1.0 + ac.k2_plus / k1_zero)
        / (4.0 * ac.lambda_minus * log_n)
        - (ac.k4_plus / k1_zero) / (4.0 * ac.lambda_minus ** 2 * n * log_n ** 2)
        - 4.0 * eps / log_n ** 2)
