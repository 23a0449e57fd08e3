"""Maximum-likelihood fitting of the multivariate skewed variance gamma
(MSVG) distribution, with an optional AR(1) mean, by ECM-type algorithms.

The package is organised as:

* :mod:`msvg.specfun` -- log-scale Bessel K, its order derivatives,
  trigamma;
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

The top level exports the paper's workflow; the single ECM steps, the
E-step and the special functions are imported from their modules.
"""

from .distribution import CenterGuard, MsvgParams, density_grid, log_density, moments, sample
from .ecm import FitConfig, FitReport, fit, observed_loglik
from .inference import (
    InfoMatrix,
    SingularInformationError,
    aicc,
    n_free_params,
    observed_info,
    standard_errors,
)
from .returns import ReturnsPanel, load_returns, load_values, summary_statistics
from .study import StudySpec, StudyTable, replicate_seed, run_study

__version__ = "0.1.0"

__all__ = [
    "CenterGuard",
    "FitConfig",
    "FitReport",
    "InfoMatrix",
    "MsvgParams",
    "ReturnsPanel",
    "SingularInformationError",
    "StudySpec",
    "StudyTable",
    "aicc",
    "density_grid",
    "fit",
    "load_returns",
    "load_values",
    "log_density",
    "moments",
    "n_free_params",
    "observed_info",
    "observed_loglik",
    "replicate_seed",
    "run_study",
    "sample",
    "standard_errors",
    "summary_statistics",
]
