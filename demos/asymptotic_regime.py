"""Large-N regime: envelope constants and the two bound displays.

Prints the +/- envelope constants, the leading coefficient
2 pi / (4 lambda+), and the validity threshold N0, then compares the
bound computed from the proof-level display against the compact packaged
form

    (2.161e-6 / (N ln N)) * (1 - 3 eps - 1.14 lnln N / ln N
                             - 862 / ln N - 1.2e7 eps / ln^2 N)

over a ladder of N values.  The two displays group the error terms
differently, so their agreement degrades away from the truly asymptotic
range; ratios are recorded, not asserted.
"""

import math

from critline import bound as bnd


def packaged(n: float, eps: float) -> float:
    ln = math.log(n)
    lnln = math.log(ln)
    return (2.161e-6 / (n * ln)) * (1.0 - 3.0 * eps - 1.14 * lnln / ln
                                    - 862.0 / ln - 1.2e7 * eps / ln ** 2)


def main():
    eps = 0.01
    aset = bnd.asymptotic_constants(eps)
    print(f"envelope constants at eps = {eps}:")
    print(f"  c5-   = {aset.c5_minus:.9f}")
    print(f"  c5+   = {aset.c5_plus:.9f}")
    print(f"  lam-  = {aset.lambda_minus:.4f}")
    print(f"  lam+  = {aset.lambda_plus:.4f}")
    print(f"  K2+   = {aset.k2_plus:.4f}")
    print(f"  K4+   = {aset.k4_plus:.4f}")
    coef = 2.0 * math.pi / (4.0 * aset.lambda_plus)
    print(f"\nleading coefficient 2pi/(4 lam+) = {coef:.6e}")
    print(f"validity threshold N0 = {aset.n0:.4e}  "
          f"(N must exceed max(3, N0/eps^3) = {max(3.0, aset.n0 / eps ** 3):g})")

    print(f"\n{'N':>8} {'proof display':>15} {'packaged':>15} {'ratio':>8}")
    for exp in (6, 8, 10, 14, 20, 40, 100):
        n = 10.0 ** exp
        mine = bnd.asymptotic_bound(n, eps)
        pkg = packaged(n, eps)
        ratio = mine / pkg if pkg != 0.0 else float("nan")
        print(f"  1e{exp:<5} {mine:>15.6e} {pkg:>15.6e} {ratio:>8.3f}")
    print("\nboth displays are negative at every N a double can hold (ln N <= 709.8):")
    print("at this eps the proof display turns positive only near ln N = 1010")
    print("(N ~ 1e439) and the packaged form near ln N = 1018, once ln N beats")
    print("the 862 and 1.2e7 terms")


if __name__ == "__main__":
    main()
