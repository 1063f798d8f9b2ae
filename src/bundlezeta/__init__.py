"""Numerical laboratory for line bundles over discrete tori.

Builds bundle Laplacians and their closed-form spectra, enumerates
cycle-rooted spanning forests against the determinant identity, evaluates
heat kernels and theta functions in spectral and Bessel forms, and carries
the Epstein-Hurwitz / lattice zeta machinery needed to reproduce the
determinant and spectral-zeta limit theorems numerically.
"""

from .asymptotics import (
    ResidualSeries,
    TorusFamily,
    log_det,
    log_det_lu,
    log_det_star,
    log_f,
    logdet_correction,
    logdet_correction_integral,
    logdet_limit_residuals,
    product_formula_check,
    rescaled_theta_gap,
    zeta_limit_residuals,
)
from .bundle_graph import (
    HermitianOperator,
    LineBundleGraph,
    TorusBundleSpec,
    build_torus,
    laplacian,
    load_spec_file,
    torus_eigenvalues,
)
from .crsf import CRSF, Cycle, crsf_weight, enumerate_crsfs, kenyon_sum
from .errors import (
    NonConvergenceError,
    PreconditionError,
    QuadratureError,
    SeriesTruncationError,
)
from .heat_theta import (
    ContinuousTorusSpec,
    bessel_progression_sides,
    heat_kernel,
    heat_kernel_column,
    theta_continuous,
    theta_continuous_minus_leading,
    theta_discrete,
    theta_discrete_minus_leading,
)
from .quadrature import QuadratureSpec, QuadratureResult, TailRule, integrate_interval, integrate_semi_infinite
from .special_functions import (
    bessel_i_complex,
    bessel_i_scaled,
    bessel_i_scaled_many,
    hurwitz_zeta,
)
from .zeta import (
    ZetaEvaluation,
    bernoulli_b2,
    epstein_hurwitz_deriv0,
    epstein_hurwitz_zeta,
    kronecker_deriv0,
    lattice_constant,
    lattice_zeta,
    lattice_zeta_deriv0,
    torus_zeta,
)

__version__ = "0.1.0"
