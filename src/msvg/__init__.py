"""Maximum-likelihood fitting of the multivariate skewed variance gamma
(MSVG) distribution, with an optional AR(1) mean, by ECM-type algorithms.

The package is organised as:

* :mod:`msvg.specfun` -- log-scale Bessel K, its order derivatives,
  digamma/trigamma;
* :mod:`msvg.distribution` -- parameters, density, sampling, moments, and
  the conditional mixing-weight expectations;
* :mod:`msvg.ecm` -- sufficient statistics, the conditional maximisation
  steps, and the MCECM / ECME / hybrid fitting loops;
* :mod:`msvg.inference` -- observed information by Louis's identity,
  standard errors, AICc;
* :mod:`msvg.study` -- simulation studies: the spec, its checks and JSON
  form, and the driver (algorithm races, threshold and skewness sweeps);
* :mod:`msvg.returns` -- CSV price ingestion and return computation;
* :mod:`msvg.cli` -- the ``msvg`` command-line front end.
"""

from .distribution import (
    CenterGuard,
    MixingExpectations,
    MsvgParams,
    density_grid,
    log_density,
    mahalanobis_delta,
    moments,
    posterior_lambda_moments,
    sample,
)
from .ecm import (
    FitConfig,
    FitReport,
    SuffStats,
    accumulate_suff_stats,
    cm_step_location_skew,
    cm_step_scale,
    cm_step_shape_ecme,
    cm_step_shape_mcecm,
    fit,
    initial_params,
    observed_loglik,
)
from .inference import (
    InfoMatrix,
    SingularInformationError,
    aicc,
    complete_score,
    conditional_lambda_moment,
    n_free_params,
    observed_info,
    standard_errors,
)
from .returns import ReturnsPanel, load_returns, load_values, summary_statistics
from .specfun import (
    bessel_k_order_derivative_over_k,
    digamma,
    log_bessel_k,
    log_gamma,
    trigamma,
)
from .study import StudySpec, StudyTable, replicate_seed, run_study

__version__ = "0.1.0"

__all__ = [
    "CenterGuard",
    "FitConfig",
    "FitReport",
    "InfoMatrix",
    "MixingExpectations",
    "MsvgParams",
    "ReturnsPanel",
    "SingularInformationError",
    "StudySpec",
    "StudyTable",
    "SuffStats",
    "accumulate_suff_stats",
    "aicc",
    "bessel_k_order_derivative_over_k",
    "cm_step_location_skew",
    "cm_step_scale",
    "cm_step_shape_ecme",
    "cm_step_shape_mcecm",
    "complete_score",
    "conditional_lambda_moment",
    "density_grid",
    "digamma",
    "fit",
    "initial_params",
    "log_bessel_k",
    "log_density",
    "log_gamma",
    "mahalanobis_delta",
    "moments",
    "n_free_params",
    "observed_info",
    "observed_loglik",
    "posterior_lambda_moments",
    "replicate_seed",
    "run_study",
    "sample",
    "standard_errors",
    "summary_statistics",
    "trigamma",
]
