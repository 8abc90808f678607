"""Special functions and arithmetic coefficients.

Everything the bound chain and the detection demo need from classical
analysis lives here: zeta on the critical line, the phase theta(t) that
makes e^{i theta} zeta(1/2+it) real, the z-th divisor coefficients tau_z,
the two Euler products P1 and P2 with rigorous tail bounds, the constant
Gamma(1/4)/Gamma(3/4), and the oscillatory integrals Delta_r.

All operations are pure; the only module state is a read-only prime cache
and precomputed Bernoulli coefficient tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, RangeError

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

_prime_cache: dict[int, np.ndarray] = {}


def primes_up_to(cutoff: int) -> np.ndarray:
    """All primes <= cutoff (sieve of Eratosthenes, cached per cutoff)."""
    cutoff = int(cutoff)
    if cutoff < 2:
        return np.empty(0, dtype=np.int64)
    hit = _prime_cache.get(cutoff)
    if hit is not None:
        return hit
    sieve = np.ones(cutoff + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(math.isqrt(cutoff)) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    ps = np.nonzero(sieve)[0].astype(np.int64)
    ps.setflags(write=False)
    _prime_cache[cutoff] = ps
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
    """Continuous phase with theta(0) = 0 making e^{i theta} zeta real."""
    return float(_theta_phase_vec(np.array([float(t)]))[0])


# --------------------------------------------------------- special constants

def gamma_ratio_quarter() -> float:
    """Gamma(1/4)/Gamma(3/4), absolute error well below 1e-12."""
    lg14, lg34 = _loggamma_vec([0.25, 0.75])
    return float(np.exp(lg14 - lg34).real)


# ----------------------------------------------------- divisor coefficients

def _binom_zk(z: float, k: int) -> float:
    """C(z + k - 1, k) = prod_{j=1}^{k} (z + j - 1)/j (tau_z on p^k)."""
    out = 1.0
    for j in range(1, k + 1):
        out *= (z + j - 1) / j
    return out


@lru_cache(maxsize=200000)
def tau_z(n: int, z: float) -> float:
    """z-th divisor coefficient: the Dirichlet coefficient of zeta^z.

    Multiplicative in n; on a prime power p^k it equals C(z+k-1, k).
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DomainError(f"tau_z needs an integer n, got {n!r}")
    n = int(n)
    if n < 1:
        raise DomainError(f"tau_z needs n >= 1, got {n}")
    z = float(z)
    out = 1.0
    m = n
    for p in primes_up_to(max(2, math.isqrt(n) + 1)):
        p = int(p)
        if p * p > m:
            break
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out *= _binom_zk(z, k)
    if m > 1:                       # leftover prime factor
        out *= z
    return out


def _tau_table(limit: int, z: float) -> np.ndarray:
    """tau_z(n) for all 1 <= n <= limit via a smallest-prime-factor sieve.

    Index 0 is unused (set to 0).  Used by the mollifier coefficients and
    the exhaustive |tau| <= 1 check; much faster than per-n factorization.
    """
    limit = int(limit)
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if spf[p] == 0:
            spf[p::p][spf[p::p] == 0] = p
    binom = [_binom_zk(z, k) for k in range(0, limit.bit_length() + 2)]
    tau = np.zeros(limit + 1, dtype=float)
    if limit >= 1:
        tau[1] = 1.0
    for n in range(2, limit + 1):
        p = int(spf[n])
        m, k = n, 0
        while m % p == 0:
            m //= p
            k += 1
        tau[n] = tau[m] * binom[k]
    return tau


# ------------------------------------------------------------ Euler products

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


def _majorant_g(kind: str, x: float) -> float:
    # g(x) = x^2 * term(x); strictly decreasing on x > 1 for both kinds,
    # with limits 3 (P1) and 5 (P2).  Gives term(p) <= g(P+1)/p^2 for
    # every prime p > P, hence sum_{p>P} term(p) <= g(P+1)/P.
    if kind == "P1":
        return x * (3.0 * x * x - 3.0 * x + 1.0) / (x - 1.0) ** 3
    return (x * ((5.0 * x - 6.0) * x ** 4 + (5.0 * x - 4.0) * x + 1.0)
            / ((x - 1.0) ** 5 * (x + 1.0)))


@lru_cache(maxsize=64)
def euler_product(kind: str, cutoff: int = 10 ** 6) -> EulerProductValue:
    """Truncated Euler product P1 or P2 over primes p <= cutoff.

    P1 = prod_p (1 + (3p^2-3p+1)/(p^4-3p^3+3p^2-p))
    P2 = prod_p (1 + (5p^5-6p^4+5p^2-4p+1)/((p-1)^5 p (p+1)))

    The tail bound comes from the termwise majorization term(p) <= C/p^2
    with C = g(cutoff+1) (g decreasing, checked symbolically), followed by
    the integral comparison sum_{n>P} 1/n^2 <= 1/P.
    """
    if kind not in ("P1", "P2"):
        raise DomainError(f"unknown Euler product kind {kind!r}")
    cutoff = int(cutoff)
    if cutoff < 2:
        raise DomainError(f"euler_product needs cutoff >= 2, got {cutoff}")
    ps = primes_up_to(cutoff)
    terms = _p1_term(ps) if kind == "P1" else _p2_term(ps)
    value = float(np.exp(np.sum(np.log1p(terms))))
    tail = _majorant_g(kind, cutoff + 1.0) / cutoff
    return EulerProductValue(kind=kind, value=value, cutoff=cutoff,
                             tail_bound=tail)


# --------------------------------------------------- zeta on the critical line

_ZETA_T_MAX = 1.0e4


def _zeta_critical_vec(t: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin zeta(1/2 + it) for a vector of ordinates.

    Truncation length N ~ 3|t|/(2 pi) keeps the correction-term ratio near
    1/9, so twelve Bernoulli terms push the remainder far below 1e-10 on
    the validated range |t| <= 1e4.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    out = np.empty(flat.shape, dtype=complex)
    tmax = float(np.max(np.abs(flat))) if flat.size else 0.0
    nterms = int(3.0 * tmax / (2.0 * math.pi)) + 12
    logn = np.log(np.arange(1, nterms, dtype=float))
    block = max(1, int(4.0e6 / max(nterms, 1)))
    for lo in range(0, flat.size, block):
        tb = flat[lo:lo + block]
        s = 0.5 + 1j * tb
        # main sum over n < N
        mat = np.exp(np.outer(-s, logn))
        acc = mat.sum(axis=1)
        # boundary terms at N
        lN = math.log(nterms)
        n_ms = np.exp(-s * lN)                     # N^{-s}
        acc += nterms * n_ms / (s - 1.0) + 0.5 * n_ms
        # Bernoulli corrections: B_{2k}/(2k)! * N^{1-2k-s} * prod(s+j)
        poly = s.copy()
        npow = n_ms / nterms                       # N^{-s-1}
        for k, coef in enumerate(_EM_COEF, start=1):
            acc += coef * poly * npow
            poly = poly * (s + (2 * k - 1)) * (s + 2 * k)
            npow = npow / (nterms * nterms)
        out[lo:lo + block] = acc
    return out.reshape(t.shape)


def zeta_critical(t: float) -> complex:
    """zeta(1/2 + it), absolute error < 1e-8 on |t| <= 1e4."""
    t = float(t)
    if abs(t) > _ZETA_T_MAX:
        raise RangeError(
            f"zeta_critical validated only for |t| <= {_ZETA_T_MAX:g}, got {t}")
    return complex(_zeta_critical_vec(np.array([t]))[0])


# -------------------------------------------------------------------- Delta_r

def _delta_steps(x: float) -> int:
    # Simpson step count for the oscillatory integrand on [0, sqrt(X)];
    # worst-case fourth derivative grows like X^4, so scale like X^{9/8}.
    n = max(128, int(800.0 * x ** 1.125) + 1)
    n = min(n, 1 << 20)
    return n + (n % 2)


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
    """
    if r not in (1, 2, 3):
        raise DomainError(f"delta_r needs r in {{1,2,3}}, got {r!r}")
    x = float(x)
    if x < 0.0:
        raise DomainError(f"delta_r needs X >= 0, got {x}")
    if x == 0.0:
        if r == 1:
            raise DomainError("Delta_1 diverges at X = 0")
        return 0.0 + 0.0j
    n = _delta_steps(x)
    u = np.linspace(0.0, math.sqrt(x), n + 1)
    u2 = u * u
    phase = np.exp(-1j * u2) - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        core = phase / u2
    if r == 1:
        f = 2.0 * core
        f[0] = -2.0j
        lead = -2.0 / math.sqrt(x)
    elif r == 2:
        f = 2.0 * (x - u2) * core
        f[0] = -2.0j * x
        lead = -4.0 * math.sqrt(x)
    else:
        f = (x - u2) ** 2 * core
        f[0] = -1.0j * x * x
        lead = -(8.0 / 3.0) * x ** 1.5
    h = u[1] - u[0]
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    integral = (h / 3.0) * np.dot(w, f)
    return complex(lead + integral)
