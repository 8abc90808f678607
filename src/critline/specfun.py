"""Special functions and arithmetic coefficients.

Everything the bound chain and the detection demo need from classical
analysis lives here: zeta on the critical line (Euler-Maclaurin below
|t| = 1000, Riemann-Siegel from there to 1e6), the phase theta(t) that
makes e^{i theta} zeta(1/2+it) real, the z-th divisor coefficients tau_z,
the two Euler products P1 and P2 with rigorous tail bounds, the constant
Gamma(1/4)/Gamma(3/4), the oscillatory integrals Delta_r and the
composite-Simpson rule they and the mollifier windows integrate with.

All operations are pure; the only module state is three bounded caches
(read-only prime arrays, Euler products and read-only phase plans with
their ln n tables), the precomputed Bernoulli and Riemann-Siegel
coefficient tables, the stored Euler products at the default cutoff, and
Gamma(1/4)/Gamma(3/4), computed once at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

import numpy as np

from .errors import DomainError, RangeError, _check_count

# ---------------------------------------------------------------- Bernoulli

# B_2, B_4, ..., B_24 as exact rationals.
_BERNOULLI = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
    Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
    Fraction(854513, 138), Fraction(-236364091, 2730),
]

# B_{2k} / (2k)!  for the Euler-Maclaurin correction terms (k = 1..12).
_EM_COEF = np.array([float(b / math.factorial(2 * k))
                     for k, b in enumerate(_BERNOULLI, start=1)])

# B_{2k} / ((2k)(2k-1))  for the Stirling series (k = 1..8).
_STIRLING_COEF = [float(b / ((2 * k) * (2 * k - 1)))
                  for k, b in enumerate(_BERNOULLI[:8], start=1)]

_LOG_2PI = math.log(2.0 * math.pi)

# ------------------------------------------------------------------- primes

# Largest cutoff primes_up_to sieves: about 50 MB of sieve and 46 MB of
# primes, above the 3.2e7 that tau_z needs at _TAU_N_MAX.
_PRIME_CUTOFF_MAX = 10 ** 8


def primes_up_to(cutoff: int) -> np.ndarray:
    """All primes <= cutoff (sieve of Eratosthenes, cached per cutoff); a
    non-integer or above-1e8 cutoff raises DomainError before allocating."""
    _check_count("prime cutoff", cutoff, -math.inf)
    if cutoff > _PRIME_CUTOFF_MAX:
        raise DomainError(f"prime cutoff {cutoff} exceeds the limit "
                          f"{_PRIME_CUTOFF_MAX:.0e}")
    return _sieve(int(cutoff))


@lru_cache(maxsize=8)
def _sieve(cutoff: int) -> np.ndarray:
    # Odd-only sieve: entry i stands for 2i + 1, and an odd prime p strikes
    # its odd multiples from p^2 on, every p-th entry.
    if cutoff < 2:
        ps = np.empty(0, dtype=np.int64)
    else:
        odd = np.ones((cutoff + 1) // 2, dtype=bool)
        odd[0] = False
        for i in range(1, (math.isqrt(cutoff) - 1) // 2 + 1):
            if odd[i]:
                odd[2 * i * (i + 1)::2 * i + 1] = False
        ps = np.concatenate(([2], 2 * np.flatnonzero(odd) + 1)).astype(np.int64)
    ps.setflags(write=False)
    return ps


# ---------------------------------------------------------------- log-Gamma

def _loggamma_vec(z) -> np.ndarray:
    """Principal-branch log Gamma for Re z > 0, elementwise.

    Argument-shift Stirling: push z up by 12 so the asymptotic series with
    8 Bernoulli terms is accurate to ~1e-16 relative, then remove the
    shifted factors with principal logs (safe, since every shifted point
    has positive real part).
    """
    z = np.asarray(z, dtype=complex)
    acc = np.zeros(z.shape, dtype=complex)
    for j in range(12):
        acc += np.log(z + j)
    w = z + 12
    series = (w - 0.5) * np.log(w) - w + 0.5 * _LOG_2PI
    wk = w.copy()
    for c in _STIRLING_COEF:
        series += c / wk
        wk *= w * w
    return series - acc


def _theta_phase_vec(t: np.ndarray) -> np.ndarray:
    """Vector theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi.

    The shifted-Stirling branch is continuous in t and vanishes at t = 0,
    which is exactly the branch normalization the Hardy-style function
    needs.
    """
    t = np.asarray(t, dtype=float)
    return _loggamma_vec(0.25 + 0.5j * t).imag - 0.5 * t * math.log(math.pi)


def theta_phase(t: float) -> float:
    """Continuous phase with theta(0) = 0 making e^{i theta} zeta real, on
    zeta's validated range |t| <= 1e6 (RangeError elsewhere, NaN included).
    Against mpmath.siegeltheta the error is 4.5e-12 at t = 1e4, 5.7e-11 at
    1e5 and 1.0e-9 at 1e6."""
    _check_range(t, "theta_phase")
    return float(_theta_phase_vec(np.array([float(t)]))[0])


# --------------------------------------------------------- special constants

_GAMMA_RATIO_QUARTER = float(
    np.exp(np.subtract(*_loggamma_vec([0.25, 0.75]))).real)


def gamma_ratio_quarter() -> float:
    """Gamma(1/4)/Gamma(3/4), absolute error well below 1e-12, computed once."""
    return _GAMMA_RATIO_QUARTER


# ----------------------------------------------------- divisor coefficients

# Largest n tau_z accepts: it sieves the primes up to sqrt(n), 3.2e7 here.
_TAU_N_MAX = 10 ** 15


def _prime_powers(z: float, top: int) -> np.ndarray:
    """C(z + k - 1, k) = tau_z(p^k) for 0 <= k <= log2(top), as a cumprod."""
    j = np.arange(float(top.bit_length()))
    return np.cumprod(np.concatenate(([1.0], (z + j) / (j + 1.0))))


def _tau_table(size: int, z: float) -> np.ndarray:
    """tau_z(n) for 1 <= n <= size, at index n - 1, along _phase_plan(size):
    tau_z(n) = tau_z(p^k) tau_z(n / p^k), p = spf(n) and p^k || n.  The plan
    visits the cofactor q = n / p first: if p divides q, k is q's k plus one
    and n / p^k is q's, else k = 1 and n / p^k = q.  At z = -1/2 and size
    1e6 every value has tau_z's bits (tests pin the table)."""
    _, perm, primes, steps = _phase_plan(size)
    column = _prime_powers(z, size)
    k = np.ones(size, dtype=np.int64)           # in plan order
    rest = np.zeros(size, dtype=np.int64)       # n / p^k - 1, in plan order
    tau = np.ones(size)
    tau[primes] = z
    for lo, hi, p, q in steps:
        same = (perm[q] + 1) % (perm[p] + 1) == 0
        k[lo:hi] = np.where(same, k[q] + 1, 1)
        rest[lo:hi] = np.where(same, rest[q], perm[q])
        tau[perm[lo:hi]] = column[k[lo:hi]] * tau[rest[lo:hi]]
    return tau


def tau_z(n: int, z: float) -> float:
    """tau_z(n), the Dirichlet coefficient of zeta^z: C(z+k-1, k) on a prime
    power p^k, and multiplicative.  Trial division, smallest first, by the
    primes up to the power of two >= sqrt(n) (one sieve for nearby n).  n
    an integer in [1, 1e15], z and the value finite, else DomainError."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DomainError(f"tau_z needs an integer n, got {n!r}")
    if not 1 <= n <= _TAU_N_MAX:
        raise DomainError(f"tau_z needs 1 <= n <= {_TAU_N_MAX:.0e}, got {n}")
    n, z = int(n), float(z)
    ps = primes_up_to(1 << (math.isqrt(n) - 1).bit_length())
    with np.errstate(all="ignore"):
        column = _prime_powers(z, n).tolist()
    value, rest = 1.0, n
    for p in ps[n % ps == 0].tolist():
        k = 0
        while rest % p == 0:
            rest, k = rest // p, k + 1
        value *= column[k]
    if rest > 1:
        value *= z
    if not (math.isfinite(z) and math.isfinite(value)):
        raise DomainError(f"tau_z needs a finite z and value, got tau_z({n}, {z!r}) = {value}")
    return value


# ------------------------------------------------------------ Euler products

# Default prime cutoff of the truncated Euler products P1 and P2.
PRIME_CUTOFF = 10 ** 6


@dataclass(frozen=True)
class EulerProductValue:
    """A truncated Euler product with a rigorous tail bound.

    tail_bound bounds the LOG of the omitted factor: the full product lies
    in [value, value * exp(tail_bound)].
    """
    kind: str
    value: float
    cutoff: int
    tail_bound: float


def _p1_term(p: np.ndarray) -> np.ndarray:
    # (3p^2 - 3p + 1) / (p^4 - 3p^3 + 3p^2 - p); denominator = p (p-1)^3
    p = p.astype(float)
    return (3.0 * p * p - 3.0 * p + 1.0) / (p * (p - 1.0) ** 3)


def _p2_term(p: np.ndarray) -> np.ndarray:
    # (5p^5 - 6p^4 + 5p^2 - 4p + 1) / ((p-1)^5 p (p+1))
    p = p.astype(float)
    num = ((5.0 * p - 6.0) * p ** 4 + (5.0 * p - 4.0) * p + 1.0)
    return num / ((p - 1.0) ** 5 * p * (p + 1.0))


_TERMS = {"P1": _p1_term, "P2": _p2_term}

# P1 and P2 at PRIME_CUTOFF, the exact bits _sieved_value computes there;
# tests/test_specfun.py regenerates them.
_DEFAULT_VALUES = {"P1": float.fromhex("0x1.715faa2466c64p+3"),
                   "P2": float.fromhex("0x1.3f8b635b6f3afp+6")}


def _sieved_value(kind: str, cutoff: int) -> float:
    """prod over the sieved primes p <= cutoff of 1 + term(p), as exp of
    the sum of the log1p terms."""
    terms = _TERMS[kind](primes_up_to(cutoff))
    return float(np.exp(np.sum(np.log1p(terms))))


@lru_cache(maxsize=64)
def euler_product(kind: str, cutoff: int = PRIME_CUTOFF) -> EulerProductValue:
    """Truncated Euler product P1 or P2 over primes p <= cutoff.

    P1 = prod_p (1 + (3p^2-3p+1)/(p^4-3p^3+3p^2-p))
    P2 = prod_p (1 + (5p^5-6p^4+5p^2-4p+1)/((p-1)^5 p (p+1)))

    At cutoff = PRIME_CUTOFF the value is a stored literal, the bits the
    sieve path computes there (the tests regenerate it), so the default
    chain never sieves; every other cutoff is sieved, up to primes_up_to's
    limit of 1e8 (DomainError beyond it, below 2, or off the integers).

    The tail bound: g(x) = x^2 term(x) decreases on x > 1 for both kinds
    (checked symbolically; limits 3 and 5), so term(p) <= g(P+1)/p^2 for
    every prime p > P = cutoff, and sum_{n>P} 1/n^2 <= 1/P gives
    sum_{p>P} term(p) <= g(P+1)/P.
    """
    if kind not in _TERMS:
        raise DomainError(f"unknown Euler product kind {kind!r}")
    _check_count("euler_product cutoff", cutoff, 2)
    cutoff = int(cutoff)
    if cutoff == PRIME_CUTOFF:
        value = _DEFAULT_VALUES[kind]
    else:
        value = _sieved_value(kind, cutoff)
    x = cutoff + 1.0
    tail = x * x * float(_TERMS[kind](np.array([x]))[0]) / cutoff
    return EulerProductValue(kind=kind, value=value, cutoff=cutoff,
                             tail_bound=tail)


# --------------------------------------------------- zeta on the critical line

_ZETA_T_MAX = 1.0e6


def _check_range(t, what: str) -> None:
    """Refuse t (a number, pair or array) unless every |t| <= _ZETA_T_MAX."""
    if not np.all(np.abs(t) <= _ZETA_T_MAX):     # NaN fails too
        raise RangeError(f"{what} leaves the validated range "
                         f"|t| <= {_ZETA_T_MAX:g}")


# Ordinates with |t| >= _T_RS take the Riemann-Siegel formula, those below
# it the Euler-Maclaurin sum.  At T_RS Gabcke's remainder bound after C_4
# is 1e-10, while Euler-Maclaurin already needs ~480 terms per point.
_T_RS = 1000.0

# Riemann-Siegel correction coefficients C_0 ... C_4 as power series in
# x = p - 1/2, p the fractional part of sqrt(t / 2 pi):
#   C_0 = Psi(p) = cos 2 pi (p^2 - p - 1/16) / cos 2 pi p,
#   C_1 = -Psi^(3) / (96 pi^2),
#   C_2 = Psi^(2) / (64 pi^2) + Psi^(6) / (18432 pi^4),
#   C_3 = -Psi^(1) / (64 pi^2) - Psi^(5) / (3840 pi^4)
#         - Psi^(9) / (5308416 pi^6),
#   C_4 = Psi / (128 pi^2) + 19 Psi^(4) / (24576 pi^4)
#         + 11 Psi^(8) / (5898240 pi^6) + Psi^(12) / (2038431744 pi^8).
# Psi(p) = Psi(1 - p), so C_k holds only the powers of x whose parity is
# that of k.  Row k below lists the coefficients of x^(k % 2) (x^2)^j for
# j = 0 ... 25 (the odd rows end in a 0); the table is stored transposed,
# one column per C_k.  Generated with mpmath.taylor at 50 digits;
# tests/test_specfun.py regenerates them.
_RS_COEF = np.array([
    # C_0: x^0, x^2, ..., x^50
    [0.3826834323650898, 1.7489618723100817, 2.118025207685496,
     -0.8707216670511481, -3.4733112243465167, -1.6626947308999325,
     1.216731288919232, 1.3014304161007977, 0.03051102182736167,
     -0.3755803051545095, -0.1085784416564066, 0.051832902999549624,
     0.029999480619902277, -0.0022759396706125644, -0.004382647416580339,
     -0.0004064230183729847, 0.0004006097785422114, 8.971057991388841e-05,
     -2.3025650027239108e-05, -9.380006601906792e-06, 6.323514947609108e-07,
     6.551022819231502e-07, 2.210523745552697e-08, -3.322316176445629e-08,
     -3.734910989933656e-09, 1.2445067060797738e-09],
    # C_1: x^1, x^3, ..., x^49
    [-0.053650205256750697, 0.11027818741081483, 1.2317200154315227,
     1.2634964862799458, -1.695108997559503, -2.9998711967650102,
     -0.10819944959899208, 1.9407662946212714, 0.7838423561500687,
     -0.5054829667900366, -0.38450723496057976, 0.03747264646531532,
     0.09092026610973176, 0.01044923755006451, -0.012582979651583417,
     -0.003399503721151274, 0.0010410950537714891, 0.0005010949051118486,
     -3.956359669003182e-05, -4.7624592453571896e-05, -1.8539355338085133e-06,
     3.1936918080068973e-06, 4.0907807608506065e-07, -1.5446624332576631e-07,
     -3.466307491769133e-08, 0.0],
    # C_2: x^0, x^2, ..., x^50
    [0.005188542830293168, 0.0012378633552253898, -0.18137505725166997,
     0.14291492748532125, 1.3303391766687565, 0.3522472353403734,
     -2.421001595891951, -1.6760787022538108, 1.3689416723328371,
     1.5539019430222982, -0.1722164273472998, -0.6359068055045431,
     -0.09911649873041208, 0.14033480067387008, 0.04782352019827292,
     -0.017356040641479782, -0.010225012534028593, 0.0009274149159794888,
     0.0013572194372373386, 6.41369012029388e-05, -0.0001230080569819663,
     -1.83135074047892e-05, 7.821628604322627e-06, 2.0087542484759946e-06,
     -3.3532765393185714e-07, -1.4616020917418232e-07],
    # C_3: x^1, x^3, ..., x^49
    [-0.0026794321814389136, 0.02995372109103515, -0.042570172541828696,
     -0.28997965779803886, 0.4888831999235446, 1.230855876395746,
     -0.8297560708527408, -2.249763536666567, 0.07845139961005472,
     1.7467492800868893, 0.45968080979749937, -0.6619353471039775,
     -0.31590441036173633, 0.12844792545207495, 0.10073382716626152,
     -0.009530183848825268, -0.019264421687514088, -0.001246463715876929,
     0.0024243969641103086, 0.000437647697741857, -0.00020714032687001792,
     -6.274344504186516e-05, 1.157534381459567e-05, 5.88385492454038e-06,
     -3.124677400696336e-07, 0.0],
    # C_4: x^0, x^2, ..., x^50
    [0.00046483389361763383, -0.004022642946136188, 0.003847177051796127,
     0.06581175135809486, -0.19604124343694448, -0.20854053686358853,
     0.9507754185141751, 0.5341535312914873, -1.67634944117634,
     -1.076747157875129, 1.235339301656597, 1.0257825340057276,
     -0.40124095793988546, -0.5036663995108304, 0.03573487795502745,
     0.14431763086785418, 0.01509152741790347, -0.026098874779194363,
     -0.006126628379519262, 0.003077503129870841, 0.0011562478934088753,
     -0.00022775966758472127, -0.00014189637118181445, 7.4648603079559195e-06,
     1.2479701645409117e-05, 4.863945184002094e-07],
]).T

# The phases t ln n and theta(t) reach 1.4e7 and 5.5e6 at t = 1e6, where a
# double's spacing is 2e-9; they are formed and reduced mod 2 pi in
# extended precision.
_PI_LD = np.arccos(np.longdouble(-1.0))
_TWO_PI_LD = 2 * _PI_LD

# Entries of the (rows x n) phase block, and of the (n x nodes) table,
# that _dirichlet_rows forms at a time, and the most nodes in its rows.
_ROW_BLOCK = 1 << 17
_ROW_NODES = 128


def _mod_two_pi(phase: np.ndarray) -> np.ndarray:
    """Extended-precision phases reduced to about [-pi, pi], as doubles."""
    turns = np.rint(phase.astype(float) / (2.0 * math.pi))
    return (phase - turns * _TWO_PI_LD).astype(float)


@lru_cache(maxsize=8)
def _phase_plan(size: int) -> tuple:
    """ln n and the order in which n^{-it}, 1 <= n <= size, is built from
    its primes, cached per size; every array is read-only.

    n^{-it} is completely multiplicative: with spf(n) the smallest prime
    factor of n, n^{-it} = spf(n)^{-it} (n / spf(n))^{-it}, one complex
    product once both factors are known.  Level k holds the n with Omega(n)
    = k (prime factors with multiplicity), sorted; level 0 is n = 1, level
    1 the primes, and the cofactor n / spf(n) of level k lies on level
    k - 1.  Returns ln n in np.longdouble, the indices n - 1 in level
    order, those of the primes, and per level from 2 on its slice of the
    order and the places in it of each n's two factors.  The plan of a
    size is the n <= size part of every longer one.
    """
    spf = np.arange(size + 1)
    for p in primes_up_to(math.isqrt(size))[::-1]:    # the smallest p last
        spf[p * p::p] = p
    n = np.arange(1, size + 1)
    cof = n // spf[1:]
    omega = (n > 1).astype(np.int64)
    rest = cof.copy()
    while (more := rest > 1).any():
        omega += more
        rest //= spf[rest]
    order = np.argsort(omega, kind="stable")
    at = np.empty(size, dtype=np.int64)
    at[order] = np.arange(size)
    logn = np.log(n.astype(np.longdouble))
    p, q = at[spf[1:][order] - 1], at[cof[order] - 1]
    for arr in (logn, order, p, q):     # before the views below are taken
        arr.setflags(write=False)
    start = np.searchsorted(omega[order], np.arange(max(omega.max(), 1) + 2))
    steps = tuple((lo, hi, p[lo:hi], q[lo:hi])
                  for lo, hi in zip(start[2:-1], start[3:]))
    return logn, order, order[1:start[2]], steps


def _unit_phases(at_primes: np.ndarray, steps, size: int) -> np.ndarray:
    """e^{-i phase} at every n <= size in _phase_plan's order (first axis),
    from the real phases at the primes: their cosines and sines, then one
    complex product per composite."""
    out = np.empty((size,) + at_primes.shape[1:], dtype=complex)
    out[0] = 1.0
    prime = slice(1, 1 + at_primes.shape[0])
    np.cos(at_primes, out=out.real[prime])
    np.sin(at_primes, out=out.imag[prime])
    np.negative(out.imag[prime], out=out.imag[prime])
    for lo, hi, p, q in steps:
        np.multiply(out[p], out[q], out=out[lo:hi])
    return out


def _dirichlet_rows(t: np.ndarray, coef: np.ndarray, terms=None) -> np.ndarray:
    """sum_{n <= terms} coef[n-1] n^{-it} at every node t.

    t holds ordinates, one node a row, or 2-D rows t[r, 0] + j h with one
    step h (up to rounding); terms, broadcast against t, holds a count per
    row or per node (None: every term).  A row is summed to its smallest
    count, and a node past it again as a row of one node.  With delta_j =
    t[0, j] - t[0, 0] and eps = t[r, j] - t[r, 0] - delta_j, n^{-it} =
    n^{-i t[r, 0]} n^{-i delta_j} (1 - i eps ln n) up to (eps ln n)^2 / 2.
    Both phase sets come from the primes p <= coef.size alone
    (_phase_plan): the row phases t[r, 0] ln p, reduced mod 2 pi in
    extended precision, and the offsets delta_j ln p in double, each
    exponentiated once; every composite is then one complex product.  The
    row phases are zeroed past the row's count, and all rows share the
    table n^{-i delta_j}: the rows of a phase block are summed by one
    matrix product (one node a row: by einsum, which stays off BLAS).
    Rows longer than _ROW_NODES are then cut into shorter ones.

    A composite's phase error is the sum of its prime factors' (each
    rounded at the size of t ln p, as a direct t ln n is), plus one
    rounding per product, Omega(n) - 1 <= log2(size) of them.  Against
    30-digit mpmath, sum_{n <= size} n^{-1/2 - it} for size 50, 399 and
    1e4 is within 5e-14 at t = 9876.5 and 1e-12 at t = 999999.5, on rows
    and on single nodes (measured: 8.6e-15 and 2.0e-13, as with direct
    phases; tests/test_specfun.py).
    """
    t = np.asarray(t, dtype=float)
    rows = t.reshape(-1, t.shape[-1] if t.ndim == 2 else 1)
    size = coef.size
    counts = np.full(t.shape, size if terms is None else terms).reshape(rows.shape)
    n_row = counts.min(axis=1, keepdims=True)
    if (extra := counts > n_row).any():     # nodes past their row's count
        out = _dirichlet_rows(rows, coef, n_row)
        out[extra] = _dirichlet_rows(rows[extra], coef, counts[extra])
        return out.reshape(t.shape)
    out = np.empty(rows.shape, dtype=complex)
    width = max(1, min(_ROW_NODES, _ROW_BLOCK // size))
    if rows.shape[1] > width:       # cut long rows into rows of `width`
        cut = rows.shape[1] - rows.shape[1] % width
        out[:, :cut] = _dirichlet_rows(
            rows[:, :cut].reshape(-1, width), coef,
            np.repeat(n_row, cut // width, axis=0)).reshape(-1, cut)
        if cut < rows.shape[1]:
            out[:, cut:] = _dirichlet_rows(rows[:, cut:], coef, n_row)
        return out.reshape(t.shape)
    logn, perm, primes, steps = _phase_plan(size)
    weight = coef[perm]
    if rows.shape[1] > 1:
        ln = logn.astype(float)
        weight = np.stack([weight, weight * ln[perm]])  # the sum, eps slope
        delta = rows[0] - rows[0, 0]
        table = _unit_phases(np.outer(ln[primes], delta), steps, size)
        eps = rows - rows[:, :1] - delta
    block = max(1, _ROW_BLOCK // size)
    for r in range(0, rows.shape[0], block):
        phase = _unit_phases(_mod_two_pi(
            logn[primes, None] * rows[r:r + block, 0].astype(np.longdouble)),
            steps, size)
        phase[perm[:, None] >= n_row[r:r + block, 0]] = 0.0
        if rows.shape[1] == 1:
            out[r:r + block, 0] = np.einsum("nr,n->r", phase, weight)
        else:
            sums = np.matmul(phase.T[:, None] * weight, table)
            out[r:r + block] = sums[:, 0] - 1j * eps[r:r + block] * sums[:, 1]
    return out.reshape(t.shape)


def _zeta_em_vec(rows: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin zeta(1/2 + it) on _dirichlet_rows' 2-D rows of nodes.

    Each row's sum runs to N - 1, N ~ 3 max|t| / (2 pi), one count a row;
    this keeps the correction-term ratio near 1/9, so twelve Bernoulli terms
    push the remainder far below 1e-10; the cost is O(|t|) per point.
    """
    nterms = (3.0 * np.max(np.abs(rows), axis=1, keepdims=True, initial=0.0)
              / (2.0 * math.pi)).astype(int) + 12
    size = int(nterms.max(initial=12)) - 1
    acc = _dirichlet_rows(rows, 1.0 / np.sqrt(np.arange(1, size + 1)),
                          nterms - 1)
    # boundary terms at N
    s = 0.5 + 1j * rows
    big = nterms.astype(float)
    n_ms = np.exp(-s * np.log(big))                # N^{-s}
    acc += big * n_ms / (s - 1.0) + 0.5 * n_ms
    # Bernoulli corrections: B_{2k}/(2k)! * N^{1-2k-s} * prod(s+j)
    poly = s.copy()
    npow = n_ms / big                              # N^{-s-1}
    for k, coef in enumerate(_EM_COEF, start=1):
        acc += coef * poly * npow
        poly = poly * (s + (2 * k - 1)) * (s + 2 * k)
        npow = npow / (big * big)
    return acc


def _riemann_siegel_vec(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Riemann-Siegel Z(t) and theta(t) mod 2 pi on 2-D rows, |t| >= T_RS.

    Z(t) = 2 Re(e^{i theta(t)} sum_{n <= m} n^{-1/2 - it})
           + (-1)^{m-1} a^{-1/2} sum_{k=0}^{4} C_k(p) a^{-k},

    with a = sqrt(|t| / 2 pi), m = floor(a) and p = a - m: O(sqrt t)
    terms; Z is even and theta odd.  The sum is one _dirichlet_rows call
    with one count m per node.  theta comes from its Stirling series
    t/2 ln(t/2 pi) - t/2 - pi/8 + 1/(48 t) + 7/(5760 t^3), whose next
    term is below 4e-19 here.
    """
    tl = np.abs(rows).astype(np.longdouble)
    theta = np.sign(rows) * _mod_two_pi(
        0.5 * tl * np.log(tl / _TWO_PI_LD) - 0.5 * tl - _PI_LD / 8
        + 1 / (48 * tl) + 7 / (5760 * tl ** 3))
    a = np.sqrt(np.abs(rows) / (2.0 * math.pi))
    m = np.floor(a).astype(int)
    s = _dirichlet_rows(rows, 1.0 / np.sqrt(np.arange(1, m.max() + 1)), m)
    z = 2.0 * (np.cos(theta) * s.real - np.sin(theta) * s.imag)
    a, m = a.ravel(), m.ravel()
    x = a - m - 0.5
    powers = np.vander(x * x, _RS_COEF.shape[0], increasing=True)
    ck = np.einsum("rj,jk->rk", powers, _RS_COEF)   # off BLAS: bits per node
    ck[:, 1::2] *= x[:, None]
    corr = ck[:, 4]
    for k in range(3, -1, -1):                      # Horner in 1/a
        corr = corr / a + ck[:, k]
    sign = np.where(m % 2 == 1, 1.0, -1.0)         # (-1)^(m-1)
    z += (sign * corr / np.sqrt(a)).reshape(z.shape)
    return z, theta


def _zeta_critical_vec(t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """zeta(1/2 + it) and the rotated e^{i theta(t)} zeta(1/2 + it).

    t is taken as _dirichlet_rows takes it, and its rows go as 2-D rows
    to _zeta_em_vec and _riemann_siegel_vec.  Below |t| = T_RS zeta is the
    Euler-Maclaurin sum and the rotated value is exp(i theta) times it,
    real up to rounding.  From T_RS on, the rotated value is the
    Riemann-Siegel Z(t) itself, exactly real, and zeta = e^{-i theta(t)} Z.
    A row with nodes on both sides of T_RS is evaluated node by node.
    """
    t = np.asarray(t, dtype=float)
    rows = t.reshape(-1, t.shape[-1] if t.ndim == 2 else 1)
    rs = np.abs(rows) >= _T_RS
    em, whole = ~rs.any(axis=1), rs.all(axis=1)
    zeta = np.empty(rows.shape, dtype=complex)
    rotated = np.empty(rows.shape, dtype=complex)
    if em.any():
        zeta[em] = _zeta_em_vec(rows[em])
        rotated[em] = np.exp(1j * _theta_phase_vec(rows[em])) * zeta[em]
    if whole.any():
        z, theta = _riemann_siegel_vec(rows[whole])
        zeta[whole] = np.exp(-1j * theta) * z
        rotated[whole] = z
    mixed = ~(em | whole)
    if mixed.any():
        for out, value in zip((zeta, rotated),
                              _zeta_critical_vec(rows[mixed].ravel())):
            out[mixed] = value.reshape(-1, rows.shape[1])
    return zeta.reshape(t.shape), rotated.reshape(t.shape)


def zeta_critical(t: float) -> complex:
    """zeta(1/2 + it) on |t| <= 1e6, in two regimes.

    |t| < 1000: Euler-Maclaurin, abs error < 1e-10, O(|t|) terms.
    |t| >= 1000: Riemann-Siegel with C_0 ... C_4, O(sqrt |t|) terms.  Its
    truncation error is at most 0.017 |t|^(-11/4) (Gabcke 1979, K = 4),
    i.e. 1e-10 at |t| = 1000.  Both sums over n run through
    _dirichlet_rows, which builds n^{-it} from the phases t ln p of the
    primes, reduced in extended precision (np.longdouble; where that is a
    plain double, phase rounding grows to ~4e-9 at 1e6).  Measured against
    mpmath at 70 log-uniform points in [1e3, 1e6]: at most 6.0e-11 (at
    1037, the C_4 truncation), and 8.3e-13 above 1e4; at 40 points in
    [1, 1000]: 2.3e-14.
    """
    t = float(t)
    _check_range(t, "zeta_critical")
    return complex(_zeta_critical_vec(np.array([t]))[0][0])


# -------------------------------------------------------------------- Delta_r

def _simpson(lo, hi, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Composite-Simpson nodes and weights on [lo, hi], n intervals.

    An odd n is rounded up to the next even count.  lo and hi may be
    (k, 1) arrays: row i of the result is then the grid on [lo_i, hi_i].
    """
    n += n % 2
    u = lo + (hi - lo) * np.arange(n + 1) / n
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[n] = 1.0
    return u, w * ((hi - lo) / (3.0 * n))


# _DELTA_X_MAX is the largest X whose X^{9/8} Simpson step count stays below
# _DELTA_STEPS_MAX = 2^20; delta_r refuses any larger X, and
# tests/test_specfun.py checks that the next double up reaches 2^20.
_DELTA_STEPS_MAX = 1 << 20
_DELTA_X_MAX = 590.363591762969


def _delta_steps(x: float) -> int:
    # Simpson step count for the oscillatory integrand on [0, sqrt(X)];
    # worst-case fourth derivative grows like X^4, so scale like X^{9/8}.
    return max(128, int(800.0 * x ** 1.125) + 1)


def delta_r(x: float, r: int) -> complex:
    """Oscillatory remainder integrals Delta_1, Delta_2, Delta_3.

    Delta_1(X) = -2 X^{-1/2} + int_0^X (e^{-it} - 1) t^{-3/2} dt, and
    Delta_r(X) = int_0^X (X - u)^{r-2} Delta_1(u) du for r = 2, 3.

    Implemented after the substitution t = u^2, which turns the singular
    factor t^{-3/2} dt into the bounded integrand 2(e^{-iu^2} - 1)/u^2 du
    (with analogous polynomial factors for r = 2, 3 after Fubini):

        Delta_1(X) = -2 X^{-1/2}     + int_0^{sqrt X} 2 (e^{-iu^2}-1)/u^2 du
        Delta_2(X) = -4 sqrt(X)      + int_0^{sqrt X} 2 (X-u^2)(e^{-iu^2}-1)/u^2 du
        Delta_3(X) = -(8/3) X^{3/2}  + int_0^{sqrt X} (X-u^2)^2 (e^{-iu^2}-1)/u^2 du

    X must lie in [0, 590.36...]: above it the X^{9/8} Simpson step rule
    would need 2^20 steps or more.
    """
    _check_count("r", r, 1, 3)
    x = float(x)
    if not 0.0 <= x <= _DELTA_X_MAX:
        raise DomainError(
            f"delta_r needs 0 <= X <= {_DELTA_X_MAX!r}, above which its "
            f"X^(9/8) rule takes {_DELTA_STEPS_MAX} Simpson steps or more; "
            f"got {x}")
    if x == 0.0:
        if r == 1:
            raise DomainError("Delta_1 diverges at X = 0")
        return 0.0 + 0.0j
    u, w = _simpson(0.0, math.sqrt(x), _delta_steps(x))
    u2 = u * u
    phase = np.exp(-1j * u2) - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        core = phase / u2
    scale = 2.0 / math.factorial(r - 1)
    f = scale * (x - u2) ** (r - 1) * core
    f[0] = -1.0j * scale * x ** (r - 1)
    lead = (-2.0 / math.sqrt(x), -4.0 * math.sqrt(x),
            -(8.0 / 3.0) * x ** 1.5)[r - 1]
    return complex(lead + w @ f)
