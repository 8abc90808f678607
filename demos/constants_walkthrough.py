"""Walk through the constant chain at one parameter point.

Builds every constant entering the explicit lower bound at
(theta, kappa) = (0.011, 1/8), the parameter point of the N = 1 table
row, and prints the intermediate quantities so the chain can be eyeballed
step by step: the Euler products, the transcendental root rho, c5 through
c2, the rectangle quadratures of c7, and the four K constants that
assemble c1(A).
"""

import math

from critline import constants as cst
from critline import roots, specfun

THETA = 0.011
KAPPA = 0.125


def main():
    cutoff = cst.PRIME_CUTOFF
    p1 = specfun.euler_product("P1", cutoff)
    p2 = specfun.euler_product("P2", cutoff)
    print(f"Euler products at cutoff {cutoff:g}:")
    print(f"  P1 = {p1.value:.12f}   (tail bound {p1.tail_bound:.2e})")
    print(f"  P2 = {p2.value:.12f}   (tail bound {p2.tail_bound:.2e})")

    sol = roots.rho_theta(THETA)
    print(f"\nroot rho({THETA}) = {sol.value:.15f}")
    print(f"  residual {sol.residual:.2e} after {sol.iterations} iterations")

    v5 = cst.c5(THETA, KAPPA)
    v3 = cst.c3(THETA, KAPPA)
    v2 = cst.c2(THETA, KAPPA)
    v4 = cst.c4(THETA)
    print(f"\nc5 = {v5:.12f}")
    print(f"c3 = {v3:.6f}")
    print(f"c2 = {v2:.4f}")
    print(f"c4 = {v4:.12f}")

    # closed-form identity linking c3 to c5 (sanity cross-check)
    ident = (1.0 / (8.0 * KAPPA) + 1.5) * 16.0 * KAPPA ** 2 * v5 ** 4 * p1.value
    print(f"c3 identity residual: {abs(v3 - ident) / v3:.2e} (relative)")
    print(f"c6(0) - c5 = {cst.c6(0.0, THETA, KAPPA) - v5:.2e}")

    int_c7, int_vc7, gap = cst.integrate_c7(THETA, KAPPA, n_rect=100)
    print(f"\nrectangle quadrature over [0, 1/kappa], 100 cells:")
    print(f"  int c7      = {int_c7:.6f}  (right-endpoint, upper value)")
    print(f"  int v*c7    = {int_vc7:.6f}")
    print(f"  right-left gap = {gap:.6f}")
    _, _, gap2 = cst.integrate_c7(THETA, KAPPA, n_rect=200)
    print(f"  gap at 200 cells = {gap2:.6f}  (halves as expected)")

    ks = cst.k_constants(THETA, KAPPA)
    print(f"\nK1 = {ks.k1:.10f}")
    print(f"K2 = {ks.k2:.6f}")
    print(f"K3 = {ks.k3:.8f}")
    print(f"K4 = {ks.k4:.6f}")

    a_star = 29056699.107509706
    print(f"\nc1 at A = {a_star:.6e}:")
    print(f"  c1  = {cst.c1_from_set(a_star, ks):.6e}")
    print(f"  c1' = {cst.c1_prime_from_set(a_star, ks):.6e}")
    print(f"  c1 growth: A (K1 ln A + K2) dominates; "
          f"K1 ln A = {ks.k1 * math.log(a_star):.1f} vs K2 = {ks.k2:.1f}")


if __name__ == "__main__":
    main()
