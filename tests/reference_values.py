"""Frozen numerical anchors shared by the test suite.

REFERENCE_TABLE holds the externally tabulated optima the package must
reproduce: for each N, the optimum window length A, the profile parameter
theta, and the bound quoted to three significant figures.  The remaining
blocks are full-precision values computed by this implementation and
frozen as regression anchors; they were cross-checked against independent
oracles (mpmath, sympy, direct quadrature) before freezing.
"""

# (N, A, theta, bound) acceptance targets; bound has 3 significant figures.
REFERENCE_TABLE = (
    (1, 29056699.107509706, 0.011, 5.45e-8),
    (2, 212583177.09901848, 0.0016, 7.38e-9),
    (3, 319102776.4709714, 0.0014, 4.91e-9),
    (4, 425715589.6389222, 0.0013, 3.68e-9),
    (5, 532459869.61320543, 0.0012, 2.94e-9),
    (10, 1067086846.4520979, 0.001, 1.46e-9),
    (100, 10776391786.558016, 0.0004, 1.45e-10),
    (1000, 109024453631.91109, 0.0002, 1.43e-11),
)

# Large-N asymptotic targets.
ASYMPTOTIC_COEF_TARGET = 2.161e-6      # 2*pi/(4*lambda_plus), 1% tolerance
ASYMPTOTIC_N0_TARGET = 2.9e-11         # threshold numerator, 10% tolerance
ASYMPTOTIC_N0_KAPPA = 1e-3             # n0 target applies in the small-kappa regime

# ----------------------------------------------------------------- regression
# Everything below is a full-precision freeze of this implementation at
# prime cutoff 10^6 (regression detection only, not external truth).

ZETA_HALF = -1.4603545088095868

GAMMA_RATIO = 2.9586751191886513       # Gamma(1/4)/Gamma(3/4)
EULER_P1 = 11.542927809807413
EULER_P2 = 79.88612120500935

RHO_AT_0 = 0.7388350311316078
RHO_AT_QUARTER = 0.6940107627499562

CHAIN_THETA = 0.011
CHAIN_KAPPA = 0.125
CHAIN = {
    "rho": 0.7372501789045078,
    "c5": 8.613115207297154,
    "c3": 39704.25231410157,
    "c2": 127271471070.73984,
    "c4": 1.4769200874530521,
    "k1": 70.23821647657091,
    "k2": 10335.47194387146,
    "k3": -854.7930187379293,
    "k4": -44938.08542751242,
    "int_c7": 1039.2480934911657,
    "int_vc7": 4648.886645444254,
    "quad_bracket": 8.149483856247116,
}
CHAIN_A = 29056699.107509706
CHAIN_C1 = 199047412764559.97

# The optimized table rows (N, A*, theta*, bound) of `critline table` at its
# defaults (kappa 1/8, n_rect 100, 10^4-point theta grid), as exact hex
# floats.  theta* is a grid or refinement point, so it must not move at
# all; A* and the bound may move by rounding in the root solvers.
TABLE_ROWS_HEX = (
    (1, "0x1.bbce2a824b339p+24", "0x1.5a6f6c8758479p-7", "0x1.d46faea96f8edp-25"),
    (2, "0x1.95aedfcee5441p+27", "0x1.ab98f8f46ddc9p-10", "0x1.faf5a88ca4b84p-28"),
    (3, "0x1.307c57b9188f5p+28", "0x1.754fbf2e49569p-10", "0x1.51a47179e58b8p-28"),
    (4, "0x1.963f2b3ee583ap+28", "0x1.530165cde8955p-10", "0x1.fa0dda3ac6526p-29"),
    (5, "0x1.fc19ece546206p+28", "0x1.3a92a30553261p-10", "0x1.9490cfeb7ab3ep-29"),
    (10, "0x1.fd2ea66face71p+29", "0x1.f2a02561d4d56p-11", "0x1.9396ebd4b0f8ep-30"),
    (100, "0x1.414ff2b0220edp+33", "0x1.cc1ae6af4dc04p-12", "0x1.3f98f6c3dcd3ap-33"),
    (1000, "0x1.9663da242c6dcp+36", "0x1.a824358f3a0c6p-13", "0x1.f9415c8188c18p-37"),
)

ASYMPTOTIC_EPS = 1e-3
ASYMPTOTIC = {
    "lambda_minus": 641809.0591753831,
    "lambda_plus": 727099.8031112066,
    "c5_minus": 8.495971623854098,
    "c5_plus": 9.042887861249806,
    "c3_plus": 48241.91932513336,
    "c2_plus": 18693964.872550264,
    "c4_plus": 1.4668929172241665,
    "k2_plus": 51579.81553416771,
    "k4_plus": 1458.2361292494302,
    "n0": 7.071049762318047e-11,
}
ASYMPTOTIC_N0_SMALL_KAPPA = 2.8401059275415595e-11
ASYMPTOTIC_BOUND_1E20_EPS001 = -3.405896177148476e-26

# detect_zeros(t_lo, t_lo + 100) at the default MollifierConfig: the zero
# count and the sha256 of json.dumps(ordinates), frozen byte for byte.
DETECT_ANCHORS = {
    9900.0: (117, "08481a3f5e115a33f0f85d525b682aefc624d9066653780eb237f4bd62573276"),
    999900.0: (191, "25b0b34b6ad4e0b3b2d655b57cf0c109d24bc51f127c23e7237cabf88e92681e"),
}
