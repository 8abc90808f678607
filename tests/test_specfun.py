"""Special-function layer: primes, tau_z, Euler products, zeta, Delta_r."""

import bisect
import cmath
import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from critline import constants as cst
from critline import specfun
from critline.errors import DomainError, RangeError

from reference_values import EULER_P1, EULER_P2, GAMMA_RATIO, ZETA_HALF

mp.mp.dps = 30


# ------------------------------------------------------------------- primes

def test_primes_small():
    assert specfun.primes_up_to(20).tolist() == [2, 3, 5, 7, 11, 13, 17, 19]
    assert specfun.primes_up_to(2).tolist() == [2]
    assert specfun.primes_up_to(1).size == 0


def test_primes_cached_array_is_readonly():
    arr = specfun.primes_up_to(100)
    with pytest.raises(ValueError):
        arr[0] = 9
    assert specfun._sieve.cache_info().maxsize is not None


@pytest.mark.parametrize("cutoffs", [range(2, 201), (999_983, 10 ** 6,
                                                      1_000_003)],
                         ids=["2-200", "near-1e6"])
def test_odd_only_sieve_matches_sympy(cutoffs):
    # the odd-only sieve gives the same read-only int64 primes as sympy;
    # extending sympy's sieve first keeps primerange fast
    sp.sieve.extend(max(cutoffs))
    for cutoff in cutoffs:
        ps = specfun._sieve(cutoff)
        assert ps.dtype == np.int64 and not ps.flags.writeable
        assert ps.tolist() == list(sp.primerange(2, cutoff + 1))
    if 10 ** 6 in cutoffs:
        assert specfun._sieve(10 ** 6).size == 78_498


# -------------------------------------------------------------------- tau_z

def test_tau_values():
    assert specfun.tau_z(1, -0.5) == 1.0
    for p in (2, 3, 5, 97):
        assert specfun.tau_z(p, -0.5) == -0.5
    assert specfun.tau_z(4, -0.5) == pytest.approx(-0.125, rel=1e-15)
    # multiplicative split 12 = 4 * 3
    assert specfun.tau_z(12, -0.5) == pytest.approx(
        specfun.tau_z(4, -0.5) * specfun.tau_z(3, -0.5), rel=1e-15)


def test_tau_domain():
    with pytest.raises(DomainError):
        specfun.tau_z(0, -0.5)
    with pytest.raises(DomainError):
        specfun.tau_z(-3, -0.5)
    # above the stated limit 10^15, including n that overflow int64
    for n in (10 ** 15 + 1, 2 ** 62, 2 ** 63, 2 ** 64):
        with pytest.raises(DomainError):
            specfun.tau_z(n, -0.5)
    # an integer n, not a float or a bool
    for n in (4.0, 2.5, True):
        with pytest.raises(DomainError, match="integer"):
            specfun.tau_z(n, -0.5)


@pytest.mark.filterwarnings("error")
def test_tau_refuses_nonfinite_z_and_value():
    # A non-finite z, and a value that overflows, raise DomainError with no
    # numpy warning (warnings are errors here).
    for n, z in ((6, math.nan), (6, math.inf), (6, -math.inf), (1, math.nan),
                 (2 ** 40, 1e308)):
        with pytest.raises(DomainError, match="finite z and value"):
            specfun.tau_z(n, z)
    assert specfun.tau_z(6, 2.0) == 4.0


def _tau_oracle(n, z):
    # tau_z(n) = prod over p^k || n of C(z + k - 1, k), exactly in sympy
    out = sp.Integer(1)
    for k in sp.factorint(n).values():
        out *= sp.binomial(z + k - 1, k)
    return out


def test_tau_kernel_matches_factorint_oracle():
    # for n <= 500 every tau_{-1/2}(n) is a dyadic rational with a short
    # numerator, so each product the kernel forms is exact
    table = specfun._tau_table(500, -0.5)
    half = sp.Rational(-1, 2)
    assert table.tolist() == [float(_tau_oracle(n, half))
                              for n in range(1, 501)]


_TAU_LARGE_N = [2 ** 40, 10 ** 12 + 39, 999983 ** 2, 223092870]


@pytest.mark.parametrize("z", ["-1/2", "1/2", "2"])
@pytest.mark.parametrize("n", _TAU_LARGE_N)
def test_tau_large_n_matches_factorint_oracle(n, z):
    # up to 40 factors of the binomial cumprod, each rounded once
    oracle = float(_tau_oracle(n, sp.Rational(z)))
    assert specfun.tau_z(n, float(sp.Rational(z))) == pytest.approx(
        oracle, rel=1e-14)


# float.hex of tau_z(n, z) for the n of the oracle test above, 2^5 3^7,
# the prime 10^15 - 11 and 2^49, frozen from the trial-division kernel
# that tau_z and the mollifier shared before the phase-plan table.
_TAU_Z_HEX = {
    -0.5: ["-0x1.271664345282cp-10", "-0x1.0000000000000p-1",
           "-0x1.0000000000000p-3", "-0x1.0000000000000p-9",
           "0x1.ce00000000000p-12", "-0x1.0000000000000p-1",
           "-0x1.b2870e84344d8p-11"],
    0.5: ["0x1.6c3fa3b095d96p-4", "0x1.0000000000000p-1",
          "0x1.8000000000000p-2", "0x1.0000000000000p-9",
          "0x1.a64c000000000p-5", "0x1.0000000000000p-1",
          "0x1.494a59002fa2bp-4"],
    2.0: ["0x1.4800000000002p+5", "0x1.0000000000000p+1",
          "0x1.8000000000000p+1", "0x1.0000000000000p+9",
          "0x1.8000000000000p+5", "0x1.0000000000000p+1",
          "0x1.9000000000003p+5"],
}


@pytest.mark.parametrize("z", sorted(_TAU_Z_HEX))
def test_tau_z_frozen_bits(z):
    ns = _TAU_LARGE_N + [69984, 10 ** 15 - 11, 2 ** 49]
    assert [specfun.tau_z(n, z).hex() for n in ns] == _TAU_Z_HEX[z]


# float.hex of tau_z(n, z) at z = -1/2, 1/2 and 2 for n near 10^15 whose
# square roots share one power-of-two sieve bound, 2^25, frozen from the
# sieve to floor(sqrt(n)).
_TAU_SHARED_SIEVE = {
    10 ** 15 - 11: ["-0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p+1"],
    9 * 10 ** 14 + 7: ["0x1.0000000000000p-4", "0x1.0000000000000p-4", "0x1.0000000000000p+4"],
    8 * 10 ** 14 + 9: ["0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p+2"],
    7 * 10 ** 14 + 3: ["-0x1.0000000000000p-3", "0x1.0000000000000p-3", "0x1.0000000000000p+3"],
    31499989 * 31700017: ["0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p+2"],
}


def test_tau_z_nearby_n_share_one_sieve():
    # One sieve for all five n (about 15 MB each when every floor(sqrt(n))
    # had its own), with the same values.  The last n's factor 31700017
    # lies between sqrt(n) and the sieve bound, as 7 does for n = 35, so
    # the loop, not the leftover cofactor, takes it; on n <= 3000 tau_z
    # keeps the bits of the phase-plan table.
    specfun._sieve.cache_clear()
    for n, want in _TAU_SHARED_SIEVE.items():
        assert [specfun.tau_z(n, z).hex() for z in (-0.5, 0.5, 2.0)] == want, n
    assert specfun._sieve.cache_info().misses == 1
    table = specfun._tau_table(3000, -0.5)
    assert [specfun.tau_z(n, -0.5) for n in range(1, 3001)] == table.tolist()


@pytest.fixture(scope="module")
def tau_table_1e6():
    return specfun._tau_table(10 ** 6, -0.5)


def test_tau_bounded_by_one(tau_table_1e6):
    assert float(np.max(np.abs(tau_table_1e6))) <= 1.0


def test_tau_table_frozen_digest(tau_table_1e6):
    # sha256 of the float64 bytes of tau_{-1/2}(n), n <= 10^6, frozen from
    # the trial-division kernel the table replaced
    assert tau_table_1e6.dtype == np.float64
    assert hashlib.sha256(tau_table_1e6.tobytes()).hexdigest() == (
        "97f23f59f50c82d1918cdf8d47ce0d72c0d3b694b6db2cf37e6b1ae0e7b20e50")


@pytest.mark.parametrize("n", [69984, 139968, 279936, 349920, 489888, 559872,
                               699840, 769824, 909792, 979776])
def test_tau_table_bits_where_one_step_ratio_rounds(tau_table_1e6, n):
    # tau(n / p) times the one-step ratio (z + k - 1) / k is 1-2 ulp off
    # here; the table takes tau(p^k) from the cumprod column, as tau_z does
    oracle = float(_tau_oracle(n, sp.Rational(-1, 2)))
    assert tau_table_1e6[n - 1] == specfun.tau_z(n, -0.5) == oracle


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=400),
       st.integers(min_value=1, max_value=400))
def test_tau_multiplicative(m, n):
    if math.gcd(m, n) != 1:
        return
    assert specfun.tau_z(m * n, -0.5) == pytest.approx(
        specfun.tau_z(m, -0.5) * specfun.tau_z(n, -0.5), abs=1e-14)


# ------------------------------------------------------------- Gamma / phase

def test_gamma_ratio_against_mpmath():
    oracle = float(mp.gamma(0.25) / mp.gamma(0.75))
    assert specfun.gamma_ratio_quarter() == pytest.approx(oracle, rel=1e-13)
    assert specfun.gamma_ratio_quarter() == pytest.approx(GAMMA_RATIO,
                                                          rel=1e-15)


def test_theta_phase_against_mpmath():
    assert specfun.theta_phase(0.0) == 0.0
    for t in (1.0, 10.0, 100.0, 500.0, 1.0e4):
        oracle = float(mp.siegeltheta(t))
        assert specfun.theta_phase(t) == pytest.approx(oracle, abs=1e-10)
    # the docstring's figure at the top of the validated range
    assert specfun.theta_phase(1.0e6) == pytest.approx(
        float(mp.siegeltheta(1.0e6)), abs=2e-9)


def test_theta_phase_odd():
    for t in (0.7, 14.1, 333.0):
        assert specfun.theta_phase(-t) == pytest.approx(
            -specfun.theta_phase(t), abs=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_theta_phase_refuses_non_finite(t):
    # refused like zeta_critical, hardy_x and eta, with no numpy warning
    with pytest.raises(RangeError):
        specfun.theta_phase(t)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [1.0e6 + 1.0, 3.0e18, 1.0e20])
def test_theta_phase_refuses_beyond_validated_range(t):
    # zeta's validated range |t| <= 1e6, refused with no numpy warning
    with pytest.raises(RangeError, match="theta_phase"):
        specfun.theta_phase(t)


# --------------------------------------------------------------------- zeta

def test_zeta_critical_against_mpmath():
    for t in (0.0, 1.0, 14.134725, 100.0, 1234.5, 9999.0):
        oracle = complex(mp.zeta(mp.mpc(0.5, t)))
        assert specfun.zeta_critical(t) == pytest.approx(oracle, abs=1e-8)


def test_zeta_critical_at_zero():
    assert specfun.zeta_critical(0.0).real == pytest.approx(ZETA_HALF,
                                                            rel=1e-12)


def test_zeta_critical_conjugate():
    for t in (50.0, 5000.0):        # one point on each side of T_RS
        z = specfun.zeta_critical(t)
        assert specfun.zeta_critical(-t) == pytest.approx(z.conjugate(),
                                                          abs=1e-12)


def test_zeta_critical_range():
    assert specfun._ZETA_T_MAX == 1.0e6
    for t in (1.0e6 + 0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(RangeError):
            specfun.zeta_critical(t)


# ------------------------------------------------------- Riemann-Siegel zeta

_RS_POINTS = [1000.5, 2345.6, 9876.5, 31415.9, 1.0e5, 333333.3, 999999.5,
              1.0e6]


def test_riemann_siegel_against_siegelz():
    zeta, rotated = specfun._zeta_critical_vec(np.array(_RS_POINTS))
    assert np.all(rotated.imag == 0.0)
    for t, z, x in zip(_RS_POINTS, zeta, rotated.real):
        oracle = mp.siegelz(t)
        assert x == pytest.approx(float(oracle), abs=1e-9)
        assert z == pytest.approx(
            complex(mp.expj(-mp.siegeltheta(t)) * oracle), abs=1e-9)


def test_riemann_siegel_agrees_with_euler_maclaurin():
    t = np.random.default_rng(20231).uniform(specfun._T_RS, 1.0e4, 200)
    rs, _ = specfun._zeta_critical_vec(t)
    assert np.max(np.abs(rs - specfun._zeta_em_vec(t[:, None])[:, 0])) <= 1e-9


def test_zeta_continuous_across_rs_seam():
    # both sides of |t| = T_RS: each side takes its branch, and the
    # Riemann-Siegel side agrees with the Euler-Maclaurin formula
    t = specfun._T_RS + np.linspace(-1.0, 1.0, 41)
    t = np.concatenate([t, -t])
    zeta, rotated = specfun._zeta_critical_vec(t)
    rs = np.abs(t) >= specfun._T_RS
    z_rs, _ = specfun._riemann_siegel_vec(np.abs(t[rs])[:, None])
    np.testing.assert_array_equal(rotated[rs], z_rs[:, 0])
    np.testing.assert_array_equal(zeta[~rs],
                                  specfun._zeta_em_vec(t[~rs][:, None])[:, 0])
    assert np.max(np.abs(zeta - specfun._zeta_em_vec(t[:, None])[:, 0])) <= 1e-9


def _kernel_cases():
    # (t, terms, coef size): a count per row, counts stepping up inside
    # rows, every term, single nodes, and a 257-node row cut at 128
    t0 = np.array([[14.0], [1000.3], [-2345.6], [98765.4]])
    rows = t0 + np.arange(9) / 64.0
    steps = 20 + np.arange(9) // 3 + np.arange(4)[:, None]
    long = 9876.5 + np.arange(257)[None, :] / 256.0
    return [(rows, np.array([[30], [5], [40], [1]]), 40),
            (rows, steps, 40),
            (rows, None, 40),
            (rows[:, 0], np.array([7, 40, 1, 33]), 40),
            (long, 20 + np.arange(257)[None, :] // 100, 30)]


@pytest.mark.parametrize("t, terms, size", _kernel_cases(),
                         ids=["per-row", "per-node", "all", "1-D", "cut"])
def test_dirichlet_rows_contract(t, terms, size):
    coef = 1.0 / np.sqrt(np.arange(1, size + 1))
    got = specfun._dirichlet_rows(t, coef, terms)
    counts = np.broadcast_to(size if terms is None else terms, t.shape)
    assert got.shape == t.shape
    for node, count, value in zip(t.ravel(), counts.ravel(), got.ravel()):
        exact = mp.fsum(mp.mpf(float(c)) * mp.expj(-mp.mpf(node) * mp.log(n))
                        for n, c in enumerate(coef[:count], start=1))
        assert abs(value - complex(exact)) <= 1e-12 * max(1.0, abs(exact))
    if t.ndim == 2:
        rows, counts = t.reshape(-1, t.shape[-1]), counts.reshape(-1, t.shape[-1])
        past = counts > counts.min(axis=1, keepdims=True)
        assert past.any() == (terms is not None and terms.shape[1] > 1)
        for node, count, value in zip(rows[past], counts[past], got[past]):
            alone = specfun._dirichlet_rows(np.array([node]), coef,
                                            np.array([count]))
            assert value == alone[0]


def test_phase_plan_factors_every_n():
    # every n <= size once, each composite n the product of its smallest
    # prime factor and a cofactor one level down; Omega(n) reaches 13 at
    # 2^13 = 8192, so a size of 1e4 takes 12 levels of products
    size = 10 ** 4
    logn, perm, primes, steps = specfun._phase_plan(size)
    n = perm + 1
    assert sorted(n.tolist()) == list(range(1, size + 1))
    np.testing.assert_array_equal(n[1:1 + primes.size], specfun.primes_up_to(size))
    spf = np.arange(size + 1)
    for p in specfun.primes_up_to(100)[::-1]:
        spf[p * p::p] = p
    done = set(n[:1 + primes.size].tolist())
    for lo, hi, p, q in steps:
        assert np.all(n[lo:hi] == n[p] * n[q])
        assert np.all(n[p] == spf[n[lo:hi]])
        assert set(n[q].tolist()) <= done
        done |= set(n[lo:hi].tolist())
    assert len(steps) == 12
    assert logn.size == size and logn.dtype == np.longdouble


def test_phase_plan_cached_per_size():
    # the plan of a size is the n <= size part of a longer one, so every sum
    # keeps its terms and their order; one build per size, all read-only
    logn, perm, _, _ = specfun._phase_plan(130)
    specfun._phase_plan.cache_clear()
    for size in range(1, 131):
        got_logn, got_perm, _, _ = specfun._phase_plan(size)
        assert specfun._phase_plan(size)[1] is got_perm
        np.testing.assert_array_equal(got_perm, perm[perm < size])
        np.testing.assert_array_equal(got_logn, logn[:size])
    assert specfun._phase_plan.cache_info().misses == 130
    logn, perm, primes, steps = specfun._phase_plan(130)
    for arr in (logn, perm, primes, *(a for step in steps for a in step[2:])):
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("size", [50, 399, 10 ** 4])
@pytest.mark.parametrize("t, tol", [(9876.5, 5e-14), (999999.5, 1e-12)])
def test_prime_built_sums_against_mpmath(t, tol, size):
    # the bound in _dirichlet_rows' docstring, on a row of two nodes and on
    # each node alone
    coef = 1.0 / np.sqrt(np.arange(1, size + 1))
    nodes = t + np.array([0.0, 1.0 / 64.0])
    exact = np.array([complex(mp.fsum(mp.power(n, mp.mpc(-0.5, -node))
                                      for n in range(1, size + 1)))
                      for node in nodes])
    for got in (specfun._dirichlet_rows(nodes[None, :], coef)[0],
                specfun._dirichlet_rows(nodes, coef)):
        assert np.max(np.abs(got - exact)) <= tol


def _rs_coefficient_table(degree=50):
    """C_0 ... C_4 in powers of p - 1/2 from mpmath, laid out as _RS_COEF."""
    with mp.workdps(50):
        pi = mp.pi
        # C_k as (weight, derivative order) terms in Psi and its derivatives
        combos = (
            ((1, 0),),
            ((-1 / (96 * pi ** 2), 3),),
            ((1 / (64 * pi ** 2), 2), (1 / (18432 * pi ** 4), 6)),
            ((-1 / (64 * pi ** 2), 1), (-1 / (3840 * pi ** 4), 5),
             (-1 / (5308416 * pi ** 6), 9)),
            ((1 / (128 * pi ** 2), 0), (19 / (24576 * pi ** 4), 4),
             (11 / (5898240 * pi ** 6), 8),
             (1 / (2038431744 * pi ** 8), 12)),
        )
        psi = mp.taylor(
            lambda p: mp.cos(2 * pi * (p * p - p - mp.mpf(1) / 16))
            / mp.cos(2 * pi * p), mp.mpf(1) / 2, degree + 12)
        table = np.zeros((degree // 2 + 1, len(combos)))
        for k, combo in enumerate(combos):
            for row, j in enumerate(range(k % 2, degree + 1, 2)):
                # the x^j coefficient of Psi^(d) is psi[j + d] (j + d)! / j!
                table[row, k] = float(sum(
                    w * psi[j + d] * mp.factorial(j + d) / mp.factorial(j)
                    for w, d in combo))
        return table


def test_riemann_siegel_coefficients_regenerate():
    oracle = _rs_coefficient_table()
    assert specfun._RS_COEF.shape == oracle.shape
    np.testing.assert_allclose(specfun._RS_COEF, oracle, rtol=1e-15, atol=0)


# ----------------------------------------------------------- Euler products

def test_euler_product_exact_small_cutoffs():
    assert specfun.euler_product("P1", 2).value == pytest.approx(4.5,
                                                                 rel=1e-15)
    assert specfun.euler_product("P1", 3).value == pytest.approx(8.0625,
                                                                 rel=1e-15)


def test_prime_cutoff_limit_refused_before_sieving(monkeypatch):
    # A cutoff above 1e8 is refused before the sieve allocates anything
    # (its odd-only array alone would be 500 GB at 1e12).
    def no_sieve(cutoff):
        raise AssertionError(f"sieved up to {cutoff}")

    monkeypatch.setattr(specfun, "_sieve", no_sieve)
    for call in (lambda: specfun.primes_up_to(10 ** 8 + 1),
                 lambda: specfun.euler_product("P1", 10 ** 12)):
        with pytest.raises(DomainError, match="limit 1e"):
            call()


def test_euler_product_frozen_values():
    assert specfun.euler_product("P1", 10 ** 6).value == pytest.approx(
        EULER_P1, rel=1e-13)
    assert specfun.euler_product("P2", 10 ** 6).value == pytest.approx(
        EULER_P2, rel=1e-13)


def test_euler_product_literals_regenerate():
    # the stored default-cutoff values are the sieve path's bits exactly
    for kind in ("P1", "P2"):
        sieved = specfun._sieved_value(kind, specfun.PRIME_CUTOFF)
        stored = specfun._DEFAULT_VALUES[kind]
        assert stored.hex() == sieved.hex()
        assert specfun.euler_product(kind).value.hex() == sieved.hex()


_EULER_TERM = {
    "P1": lambda p: (3 * p * p - 3 * p + 1, p * (p - 1) ** 3),
    "P2": lambda p: (5 * p ** 5 - 6 * p ** 4 + 5 * p * p - 4 * p + 1,
                     (p - 1) ** 5 * p * (p + 1)),
}


def test_euler_product_literals_against_oracle():
    """Each stored product is within 1e-14 relative of an independent sum.

    The oracle sums exact log1p terms at 25 digits for p <= 10^4 and the
    math.fsum of correctly rounded float log1p terms above (a 25-digit
    sum throughout takes seconds).  Both literals lie below it, P1 by
    8.7e-16 and P2 by 1.2e-15 relative, the rounding of the sieve path's
    float log1p sum and exp.  That gap is open under ROADMAP item 3
    (every truncated input at its pessimistic end); this test only
    bounds it.
    """
    ps = specfun.primes_up_to(specfun.PRIME_CUTOFF).tolist()
    split = bisect.bisect_right(ps, 10 ** 4)
    for kind, term in _EULER_TERM.items():
        with mp.workdps(25):
            head = mp.fsum(mp.log1p(mp.mpf(num) / den)
                           for num, den in map(term, ps[:split]))
            tail = math.fsum(math.log1p(num / den)
                             for num, den in map(term, ps[split:]))
            oracle = mp.exp(head + tail)
            gap = float((specfun._DEFAULT_VALUES[kind] - oracle) / oracle)
        assert abs(gap) < 1e-14, (kind, gap)


def test_euler_product_record_fields():
    rec = specfun.euler_product("P2", 10 ** 4)
    assert rec.kind == "P2"
    assert rec.cutoff == 10 ** 4
    assert rec.tail_bound > 0.0


def test_euler_tail_bound_decreases():
    tails = [specfun.euler_product("P1", c).tail_bound
             for c in (10 ** 3, 10 ** 4, 10 ** 5)]
    assert tails[0] > tails[1] > tails[2]


def test_euler_product_domain():
    with pytest.raises(DomainError):
        specfun.euler_product("P3", 100)
    with pytest.raises(DomainError):
        specfun.euler_product("P1", 1)


@pytest.mark.parametrize("cutoff", [math.nan, math.inf, -math.inf, 2.5])
def test_prime_cutoff_must_be_an_integer(cutoff):
    # not int()'s bare ValueError or OverflowError, nor 2.5 truncated to 2
    with pytest.raises(DomainError, match="integer"):
        specfun.euler_product("P1", cutoff)
    with pytest.raises(DomainError, match="integer"):
        cst.k_constants(0.011, prime_cutoff=cutoff)


def test_tail_majorant_decreasing_symbolically():
    # the tail bound rests on g(x) = x^2 * term(x) decreasing for x > 1;
    # check symbolically that g' has no critical point past 1 and that the
    # published euler_product tail equals g(cutoff+1)/cutoff
    x = sp.symbols("x", positive=True)
    g_p1 = x * (3 * x ** 2 - 3 * x + 1) / (x - 1) ** 3
    g_p2 = (x ** 2 * (5 * x ** 5 - 6 * x ** 4 + 5 * x ** 2 - 4 * x + 1)
            / ((x - 1) ** 5 * x * (x + 1)))
    for kind, g, lim in (("P1", g_p1, 3), ("P2", g_p2, 5)):
        dg = sp.simplify(sp.diff(g, x))
        numer, _ = sp.fraction(sp.together(dg))
        real_roots = [r for r in sp.real_roots(sp.Poly(numer, x))]
        assert all(float(r) < 1.0 for r in real_roots)
        assert float(dg.subs(x, 2)) < 0.0
        assert sp.limit(g, x, sp.oo) == lim
        cutoff = 1000
        rec = specfun.euler_product(kind, cutoff)
        assert rec.tail_bound * cutoff == pytest.approx(
            float(g.subs(x, cutoff + 1)), rel=1e-12)


# ------------------------------------------------------------------ Delta_r

def _delta_oracle(x, r):
    """Direct mpmath quadrature of the u-substituted integral."""
    x = mp.mpf(x)
    sx = mp.sqrt(x)
    if r == 1:
        head = -2 / sx
        f = lambda u: 2 * (mp.expj(-u * u) - 1) / u ** 2
    elif r == 2:
        head = -4 * sx
        f = lambda u: 2 * (x - u * u) * (mp.expj(-u * u) - 1) / u ** 2
    else:
        head = -mp.mpf(8) / 3 * x ** mp.mpf(1.5)
        f = lambda u: (x - u * u) ** 2 * (mp.expj(-u * u) - 1) / u ** 2
    return complex(head + mp.quad(f, [1e-12, sx]))


@pytest.mark.parametrize("x,r", [(0.5, 2), (3.0, 2), (0.5, 3), (7.0, 1)])
def test_delta_r_against_quadrature(x, r):
    assert specfun.delta_r(x, r) == pytest.approx(_delta_oracle(x, r),
                                                  abs=5e-7)


def test_delta_r_at_zero():
    assert specfun.delta_r(0.0, 2) == 0j
    assert specfun.delta_r(0.0, 3) == 0j


def test_delta_r_domain():
    with pytest.raises(DomainError):
        specfun.delta_r(0.0, 1)      # integral diverges at the origin
    with pytest.raises(DomainError):
        specfun.delta_r(-1.0, 2)
    for r in (4, True, 1.0, 2.0):
        with pytest.raises(DomainError):
            specfun.delta_r(1.0, r)
    assert specfun.delta_r(1.0, np.int64(2)) == specfun.delta_r(1.0, 2)
    for x, r in ((math.nan, 2), (math.inf, 1)):
        with pytest.raises(DomainError):
            specfun.delta_r(x, r)


def test_delta_r_refuses_beyond_step_rule():
    # _DELTA_X_MAX is the largest X whose step count is below the cap
    x_max = specfun._DELTA_X_MAX
    above = math.nextafter(x_max, math.inf)
    assert specfun._delta_steps(x_max) < specfun._DELTA_STEPS_MAX
    assert specfun._delta_steps(above) >= specfun._DELTA_STEPS_MAX
    assert cmath.isfinite(specfun.delta_r(x_max, 1))
    for x in (above, 1e300):
        with pytest.raises(DomainError, match="590.36"):
            specfun.delta_r(x, 2)


def test_delta_3_is_integral_of_delta_2():
    # Delta_3(X) = int_0^X Delta_2; tanh-sinh handles the sqrt kink at 0
    integral = complex(mp.quad(lambda x: specfun.delta_r(float(x), 2),
                               [0.0, 2.0]))
    assert specfun.delta_r(2.0, 3) == pytest.approx(integral, abs=1e-5)
