"""Numerical toolkit for explicit critical-line zero-proportion bounds.

Modules:

  specfun    special functions: tau_z, Euler products, zeta on the line,
             the Gamma phase, oscillatory Delta_r integrals
  roots      the transcendental roots rho(theta) and rho(a, theta), solved
             by one safeguarded vector Newton on proven brackets
  constants  the full constant chain c2..c7 and K1..K4 at one (theta, kappa)
  bound      the explicit lower bound, (A, theta) optimization, and the
             large-N asymptotic regime
  mollifier  desk-scale mollified zero detection on the critical line
  cli        command-line surface (console script `critline`)

The Euler products P1 and P2 are truncated at PRIME_CUTOFF (10^6) unless
a prime_cutoff keyword says otherwise: k_constants, optimize,
optimize_many, asymptotic_constants and asymptotic_bound take one.
"""

from .errors import (
    CritlineError,
    DomainError,
    NumericalConsistencyError,
    OptimizerError,
    PreconditionError,
    RangeError,
)
from .specfun import (
    EulerProductValue,
    delta_r,
    euler_product,
    gamma_ratio_quarter,
    primes_up_to,
    tau_z,
    theta_phase,
    zeta_critical,
)
from .roots import (
    RootSolution,
    rho_lemma_a,
    rho_theta,
)
from .constants import (
    ConstantSet,
    PRIME_CUTOFF,
    Params,
    c1,
    c1_from_set,
    c1_prime_from_set,
    c2,
    c3,
    c4,
    c5,
    c6,
    c7,
    integrate_c7,
    k_constants,
)
from .bound import (
    DEFAULT_TABLE_N,
    AsymptoticSet,
    BoundReport,
    asymptotic_bound,
    asymptotic_constants,
    lower_bound_general,
    lower_bound_single,
    optimize,
    optimize_A,
    optimize_many,
)
from .mollifier import (
    Detection,
    MollifierConfig,
    WindowStats,
    detect_zeros,
    eta,
    figure_data,
    hardy_x,
    mollified_scan,
    mollifier_weight,
    window_integrals,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticSet",
    "BoundReport",
    "ConstantSet",
    "CritlineError",
    "DEFAULT_TABLE_N",
    "Detection",
    "DomainError",
    "EulerProductValue",
    "MollifierConfig",
    "NumericalConsistencyError",
    "OptimizerError",
    "PRIME_CUTOFF",
    "Params",
    "PreconditionError",
    "RangeError",
    "RootSolution",
    "WindowStats",
    "__version__",
    "asymptotic_bound",
    "asymptotic_constants",
    "c1",
    "c1_from_set",
    "c1_prime_from_set",
    "c2",
    "c3",
    "c4",
    "c5",
    "c6",
    "c7",
    "delta_r",
    "detect_zeros",
    "eta",
    "euler_product",
    "figure_data",
    "gamma_ratio_quarter",
    "hardy_x",
    "integrate_c7",
    "k_constants",
    "lower_bound_general",
    "lower_bound_single",
    "mollified_scan",
    "mollifier_weight",
    "optimize",
    "optimize_A",
    "optimize_many",
    "primes_up_to",
    "rho_lemma_a",
    "rho_theta",
    "tau_z",
    "theta_phase",
    "window_integrals",
    "zeta_critical",
]
