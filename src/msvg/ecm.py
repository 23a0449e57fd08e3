"""ECM-type maximum likelihood estimation for the MSVG model.

Three fitting algorithms share one cycle structure:

* ``mcecm`` -- multicycle ECM: conditional-expectation steps for the mixing
  weights interleaved with conditional maximisations (one weighted
  regression for the location and skew, a closed form for the scale) and a
  safeguarded Newton-Raphson update of the shape parameter on the
  conditional gamma log-likelihood.
* ``ecme`` -- identical except the shape update maximises the actual
  marginal log-likelihood by Brent's bounded search (:func:`_bounded_brent`,
  step for step SciPy's ``minimize_scalar(method="bounded")``), which
  avoids the conditional expectation of log lam entirely.  The search is
  warm-bracketed on [nu/2, 2 nu] around the last nu and widens by 4 on
  both sides while its optimum sits on an inner edge.
* ``hecm`` -- runs MCECM to tolerance, then reverts to the iterate before
  the stopping test fired and finishes with ECME shape updates.  The first
  stage is the MCECM fit of the same data and configuration, so the report
  keeps it (``FitReport.mcecm_stage``) and an algorithm race need not fit
  MCECM again.  The d=1 constant-mean HECM fit adds a location line search
  to every cycle; its first stage is not MCECM and is not kept.

An extra expectation step is inserted between the location/skew update and
the scale update: without it a single observation sitting on top of the
location estimate sends E(1/lam) to infinity while the squared residual in
the scale update stays bounded away from zero, and the scale estimate
diverges.  Refreshing E(1/lam) at the new location keeps the product
bounded.

A cycle visits two parameter points: the extra E-step's (new location and
skew, old scale), whose :class:`~msvg.distribution.Geometry` that E-step
builds for itself, and the point after the scale step.  The geometry of
the latter is built once, right after the scale step, and handed on with
``geometry=`` to the second E-step (MCECM) or the ECME shape search, to
the cycle's closing log-likelihood (the geometry does not depend on nu),
to the next cycle's first E-step and, after the last cycle, to the final
guarded count.  The fit's starting log-likelihood builds the first one.
A fit runs its stages (HECM: MCECM, then ECME) in turn, each to the
stopping test; a cycle's result, geometry included, starts the next cycle
only when the test does not fire, so a stage starts from the iterate
before the previous stage's stop.

One rule says whether a result belongs to a parameter point, the point's
tag (:mod:`msvg.distribution`): geometries and mixing expectations carry
it, and every consumer of a handed geometry checks it, as does
:func:`cm_step_scale` for the extra E-step's expectations and point.

Data are pre-multiplied by a constant (default 100) before fitting and the
estimates mapped back afterwards; the family is closed under scaling, and
working on the scaled data improves the conditioning of the updates for
daily-return-sized inputs.  :func:`fit` then sorts the modelled rows (AR(1):
the pairs (y_i, y_{i-1})) once; every sum over rows after that is a plain
``np.add.reduce`` in the order given, so a plain fit is the same bits under
any permutation of its rows.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lapack

from .distribution import (
    CenterGuard,
    Geometry,
    MixingExpectations,
    MsvgParams,
    _canonical_rows,
    check_tag,
    log_density,
    posterior_lambda_moments,
)
from .specfun import digamma, log_gamma, trigamma

ALGORITHMS = ("mcecm", "ecme", "hecm")

# a fit needs more than this many modelled observations per dimension
MIN_OBS_PER_DIM = 10
# the interval the shape steps search for nu
NU_BOUNDS = (1e-4, 200.0)


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass
class SuffStats:
    """Sums over rows of the complete-data sufficient statistics: y, r (the
    location's regressors), E(1/lam) r r', E(1/lam) r y' and E(lam)."""

    s_y: np.ndarray
    s_r: np.ndarray
    s_rr_over_lambda: np.ndarray
    s_ry_over_lambda: np.ndarray
    s_lambda: float


@dataclass
class FitConfig:
    """Knobs of one fit."""

    algorithm: str = "hecm"
    tol: float = 1e-8
    max_iter: int = 5000
    delta_cap: float | None = None
    scale_c: float = 100.0
    ar_order: int = 0
    init: MsvgParams | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if not _is_int(self.max_iter) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not 0 < self.scale_c < math.inf:
            raise ValueError(f"scale_c must be positive and finite, got {self.scale_c!r}")
        if self.delta_cap is not None:
            CenterGuard(self.delta_cap)
        if not _is_int(self.ar_order) or self.ar_order not in (0, 1):
            raise ValueError(f"ar_order must be the integer 0 or 1, got {self.ar_order!r}")


@dataclass
class FitReport:
    """Converged estimates plus the diagnostics of the run.

    The report is of the iterate whose log-likelihood ends ``loglik_trace``.
    ``mcecm_stage`` is set on an HECM fit with an MCECM first stage: the
    report at the end of that stage, which an MCECM fit of the same data and
    configuration returns field for field and bit for bit, except
    ``wall_time``, which is this fit's time up to the switch (or to
    ``max_iter`` when it never switched).  It is None for MCECM and ECME
    fits and for the d=1 constant-mean HECM fit, whose first stage also
    searches the location.
    """

    params: MsvgParams
    loglik_trace: np.ndarray
    final_loglik: float
    conv_iter: int
    switch_iter: int | None
    wall_time: float
    guarded_count_final: int
    converged: bool
    algorithm: str
    n_obs: int
    guarded_trace: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    mcecm_stage: FitReport | None = None


def initial_params(data: np.ndarray, ar_order: int = 0):
    """Moment-based starting values: sample mean, sample covariance, zero
    skew, shape equal to the dimension (AR starts with a zero lag matrix)."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.ndim != 2:
        raise ValueError("data must be a matrix")
    n, d = data.shape
    if n <= d + 1:
        raise ValueError(f"need more than d + 1 = {d + 1} observations, got {n}")
    mean = np.add.reduce(data) / n
    centered = data - mean
    cov = np.add.reduce(centered[:, :, None] * centered[:, None, :]) / (n - 1)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError(
            "sample covariance is singular; jitter the data or drop "
            "redundant columns before fitting") from None
    return MsvgParams(mu=mean, sigma=cov, gamma=np.zeros(d), nu=float(d),
                      beta1=np.zeros((d, d)) if ar_order == 1 else None)


def accumulate_suff_stats(data: np.ndarray, mix: MixingExpectations,
                          r: np.ndarray | None = None) -> SuffStats:
    """Sums of the complete-data sufficient statistics over the rows, in the
    order given; ``r`` (n, k) holds the location's regressors (default: 1)."""
    y = np.atleast_2d(np.asarray(data, dtype=float))
    r = np.ones((len(y), 1)) if r is None else r
    w = mix.e_inv_lambda[:, None, None] * r[:, :, None]
    return SuffStats(
        s_y=np.add.reduce(y),
        s_r=np.add.reduce(r),
        s_rr_over_lambda=np.add.reduce(w * r[:, None, :]),
        s_ry_over_lambda=np.add.reduce(w * y[:, None, :]),
        s_lambda=float(np.add.reduce(mix.e_lambda)),
    )


def _min_pivot(mat: np.ndarray, diag: np.ndarray) -> float:
    """Least squared Cholesky pivot of ``mat`` Jacobi-equilibrated by
    ``diag``: the least share of a column that the columns before it leave
    unexplained; 0 when the factorisation fails."""
    scale = 1.0 / np.sqrt(np.maximum(diag, 1e-300))  # a zero column: pivot 0
    chol, info = lapack.dpotrf(scale[:, None] * mat * scale, lower=1)
    return 0.0 if info else float(chol.diagonal().min()) ** 2


def _gauss_jordan(aug: np.ndarray, k: int) -> np.ndarray:
    """X with A X = B from [A | B], A (k, k) symmetric positive definite, by
    Gauss-Jordan elimination in place that divides each pivot row by its
    pivot (k = 1: exactly B / A)."""
    for j in range(k):
        aug[j] /= aug[j, j]
        aug -= np.where(np.arange(k)[:, None] == j, 0.0, aug[:, j:j + 1] * aug[j])
    return aug[:, k:]


def cm_step_location_skew(stats: SuffStats):
    """Location coefficients B = [mu | beta1] (d, k) and skew: the weighted
    least squares of y_i on (r_i, lam_i).  Its normal equations, with
    A = S E(1/lam) r r', b = S r and c = S E(lam) (S the sum over rows), are
    [[A, b], [b', c]] [B'; gamma'] = [S E(1/lam) r y'; S y'].  The skew is
    eliminated first, (c A - b b') B' = c S E(1/lam) r y' - b S y', then
    gamma = (S y - B b) / c: for the plain model (k = 1) the closed form.

    A system that is not finite, or a squared pivot at most 1e-12 of its
    Jacobi-equilibrated form, raises ``LinAlgError``, except the skew's (all
    mixing weights equal: 0/0), whose limit is returned: zero skew and the
    weighted least squares of y on r.
    """
    k, d = stats.s_ry_over_lambda.shape
    a, b, c = stats.s_rr_over_lambda, stats.s_r, stats.s_lambda
    reduced = np.concatenate([c * a - b[:, None] * b,
                              c * stats.s_ry_over_lambda - b[:, None] * stats.s_y], axis=1)
    if not np.logical_and.reduce(np.isfinite(reduced), axis=None):
        raise np.linalg.LinAlgError("location system is not finite")
    if _min_pivot(reduced[:, :k], c * a.diagonal()) <= 1e-12:
        if _min_pivot(a, a.diagonal()) <= 1e-12:
            raise np.linalg.LinAlgError(
                "location system is singular: the regressors are collinear")
        limit = _gauss_jordan(np.concatenate([a, stats.s_ry_over_lambda], axis=1), k)
        return limit.T, np.zeros(d)
    coef = _gauss_jordan(reduced, k)
    return coef.T, (stats.s_y - b @ coef) / c


# the former AR(1) step's name, until the benchmark's recorder
# (perfbench/probe.py TRACED) is rebound: ROADMAP direction 8
cm_step_ar = cm_step_location_skew


def cm_step_scale(data: np.ndarray, params, refreshed_mix: MixingExpectations,
                  y_prev: np.ndarray | None = None) -> np.ndarray:
    """Scale-matrix update (rows summed in the order given) from mixing
    expectations refreshed at ``params``, the point of the extra E-step (new
    location and skew, old scale); those of any other point are rejected.
    """
    y = np.atleast_2d(np.asarray(data, dtype=float))
    check_tag(refreshed_mix.tag, params, y, "mixing expectations are")
    n = len(y)
    resid = y - params.location(y_prev)
    w = refreshed_mix.e_inv_lambda
    sigma = np.add.reduce(w[:, None, None] * (resid[:, :, None] * resid[:, None, :])) / n \
        - np.outer(params.gamma, params.gamma) * (float(np.add.reduce(refreshed_mix.e_lambda)) / n)
    if not np.logical_and.reduce(np.isfinite(sigma), axis=None):
        raise ValueError("scale update produced non-finite entries")
    sigma = 0.5 * (sigma + sigma.T)
    # keep the estimate positive definite under round-off; the largest
    # eigenvalue backstops the floor when the trace itself is corrupt
    eigval, eigvec = np.linalg.eigh(sigma)
    floor = 1e-12 * max(sigma.trace() / sigma.shape[0], abs(eigval[-1]), 1e-290)
    if eigval[0] < floor:
        eigval = np.maximum(eigval, floor)
        sigma = (eigvec * eigval) @ eigvec.T
        sigma = 0.5 * (sigma + sigma.T)
    return sigma


def _gamma_loglik(nu: float, n: int, s_lambda: float, s_log_lambda: float) -> float:
    return (n * nu * math.log(nu) - n * float(log_gamma(nu))
            + (nu - 1.0) * s_log_lambda - nu * s_lambda)


def _gamma_score(nu: float, n: int, s_lambda: float, s_log_lambda: float) -> float:
    return (n * (1.0 + math.log(nu) - float(digamma(nu)))
            + s_log_lambda - s_lambda)


def cm_step_shape_mcecm(mix: MixingExpectations, nu_current: float):
    """Safeguarded Newton-Raphson update of the shape parameter from the
    sums of E(lam) and E(log lam) over the rows of ``mix``, in their order.

    The score of the conditional gamma log-likelihood is strictly
    decreasing, so once a sign change brackets the root, Newton steps are
    accepted only when they stay inside the bracket and shrink the score;
    otherwise the bracket is bisected.  Without a sign change the bound of
    :data:`NU_BOUNDS` with the larger gamma log-likelihood is returned.
    """
    lo, hi = NU_BOUNDS
    n = mix.e_lambda.shape[0]
    args = (n, float(np.add.reduce(mix.e_lambda)), float(np.add.reduce(mix.e_log_lambda)))
    g_lo = _gamma_score(lo, *args)
    g_hi = _gamma_score(hi, *args)
    if g_lo <= 0.0 or g_hi >= 0.0:
        # score is one-signed on the interval: pick the better endpoint
        return lo if _gamma_loglik(lo, *args) >= _gamma_loglik(hi, *args) else hi
    nu = min(max(nu_current, lo), hi)
    g = _gamma_score(nu, *args)
    tol = 1e-10 * n
    for _ in range(200):
        if abs(g) < tol:
            break
        if g > 0.0:
            lo = nu
        else:
            hi = nu
        slope = n * (1.0 / nu - float(trigamma(nu)))
        step_to = nu - g / slope if slope < 0.0 else math.nan
        if math.isfinite(step_to) and lo < step_to < hi:
            g_new = _gamma_score(step_to, *args)
            if abs(g_new) < abs(g):
                nu, g = step_to, g_new
                continue
        nu = 0.5 * (lo + hi)
        g = _gamma_score(nu, *args)
    return nu


def _bounded_brent(func, lo: float, hi: float, xatol: float) -> float:
    """Minimiser of ``func`` on ``[lo, hi]`` by Brent's method without
    derivatives (golden section safeguarding parabolic interpolation;
    Brent 1973, *Algorithms for Minimization without Derivatives*, ch. 5).

    Step for step the bounded search of SciPy 1.17.1
    (``minimize_scalar(method="bounded", options={"xatol": xatol})``): the
    same trial points in the same order, the same stop after 500
    evaluations, NaN values treated as ``np.sign``/``np.maximum`` treat
    them, and the same returned point, so fits that used SciPy's search
    reproduce bit for bit.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return float(xf)


def cm_step_shape_ecme(data: np.ndarray, params, guard: CenterGuard,
                       y_prev: np.ndarray | None = None, *,
                       geometry: Geometry | None = None) -> float:
    """Shape update maximising the actual (capped) log-likelihood by
    Brent's bounded search (:func:`_bounded_brent`, ``xatol=1e-6``; the
    steps of SciPy's ``minimize_scalar(method="bounded")``).

    The search is warm: it starts on [nu/2, 2 nu] around the incoming
    ``params.nu`` (clipped to :data:`NU_BOUNDS`), since nu moves little
    between cycles.  While the optimum lies within 1e-5 of an edge that is
    not a bound, both edges move out by a factor of 4, clipped to the
    bounds, and the search runs again; an optimum on a bound is returned as
    it is.

    Only the shape varies, so Sigma is factorised and the residuals are
    whitened once (or not at all when ``geometry`` is handed in); each
    trial costs one Bessel evaluation and sums the rows in the order given.
    """
    geometry = Geometry.at(params, data, y_prev, geometry)

    def negll(nu: float) -> float:
        return -float(np.add.reduce(geometry.log_density(float(nu), guard)))

    lo_bound, hi_bound = NU_BOUNDS
    start = min(max(params.nu, lo_bound), hi_bound)
    lo, hi = max(lo_bound, start / 2.0), min(hi_bound, start * 2.0)
    while True:
        nu = _bounded_brent(negll, lo, hi, xatol=1e-6)
        if not ((lo > lo_bound and nu - lo < 1e-5)
                or (hi < hi_bound and hi - nu < 1e-5)):
            return nu
        lo, hi = max(lo_bound, lo / 4.0), min(hi_bound, hi * 4.0)


def observed_loglik(data: np.ndarray, params, guard: CenterGuard | None = None,
                    y_prev: np.ndarray | None = None, *,
                    geometry: Geometry | None = None) -> float:
    """Sum of capped log densities, over the rows in the order given.

    For AR parameters with no explicit lagged block, the first row of
    ``data`` is the conditioning state: it enters only as a regressor and
    is excluded from the sum.  ``geometry`` is that of the modelled rows.
    """
    y, y_prev = params.modelled_rows(data, y_prev)
    geometry = Geometry.at(params, y, y_prev, geometry)
    return float(np.add.reduce(geometry.log_density(params.nu, guard)))


def _scale_params(params: MsvgParams, c: float) -> MsvgParams:
    # the lag matrix is scale free
    return replace(params, mu=params.mu * c, sigma=params.sigma * c * c,
                   gamma=params.gamma * c)


def _maximize_mu_univariate(y: np.ndarray, params: MsvgParams,
                            guard: CenterGuard) -> float:
    # univariate line search of the actual log-likelihood over the location,
    # by the bounded Brent search of _bounded_brent (SciPy's bounded method)
    lo = float(y.min())
    hi = float(y.max())
    span = max(hi - lo, math.sqrt(params.sigma[0, 0]))
    lo, hi = lo - span, hi + span

    def negll(mu: float) -> float:
        trial = replace(params, mu=np.array([mu]))
        return -float(np.add.reduce(log_density(trial, y, guard=guard)))

    return _bounded_brent(negll, lo, hi, xatol=1e-10 * max(1.0, hi - lo))


def _one_cycle(y, y_prev, r, params, geometry, guard, nu_step: str,
               line_search_mu: bool):
    """One full ECM cycle from ``params``, its ``geometry`` and the location's
    regressors ``r``; returns (new params, their geometry, guarded count)."""
    if line_search_mu:
        mu_star = _maximize_mu_univariate(y, params, guard)
        params = replace(params, mu=np.array([mu_star]))
        geometry = None  # a new location: E-step 1 builds its own

    # E-step 1 at the current iterate
    mix1 = posterior_lambda_moments(params, y, guard=guard, y_prev=y_prev,
                                    need_log=False, geometry=geometry)
    stats1 = accumulate_suff_stats(y, mix1, r)

    # CM-step 1: location and skew; the line search's location stays
    if line_search_mu:
        trial = replace(params, gamma=(stats1.s_y - len(y) * params.mu) / stats1.s_lambda)
    else:
        coef, gamma = cm_step_location_skew(stats1)
        trial = params.with_coefficients(coef, gamma=gamma)

    # extra E-step at the new location/skew, then the scale update
    mix34 = posterior_lambda_moments(trial, y, guard=guard, y_prev=y_prev,
                                     need_log=False)
    sigma = cm_step_scale(y, trial, mix34, y_prev)
    trial = replace(trial, sigma=sigma)
    geometry = Geometry.of(trial, y, y_prev)

    if nu_step == "mcecm":
        # E-step 2 at the updated location/scale/skew
        mix2 = posterior_lambda_moments(trial, y, guard=guard, y_prev=y_prev,
                                        geometry=geometry)
        nu = cm_step_shape_mcecm(mix2, trial.nu)
        guarded = int(mix2.guarded.sum())
    else:
        nu = cm_step_shape_ecme(y, trial, guard, y_prev=y_prev, geometry=geometry)
        guarded = int(mix34.guarded.sum())
    trial = replace(trial, nu=float(nu))
    return trial, geometry, guarded


def fit(data: np.ndarray, config: FitConfig = FitConfig()) -> FitReport:
    """Fit the MSVG (or MSVG-AR) model by the configured algorithm.

    The input is pre-multiplied by ``config.scale_c``; estimates and the
    log-likelihood trace are reported back in the original data scale.  For
    ``ar_order=1`` the first row of ``data`` conditions the fit and the
    remaining rows are modelled.  The modelled rows are sorted first; the
    AR(1) start values read the series in time order.  A log-likelihood that
    is not finite raises ``FloatingPointError``.
    """
    t0 = time.perf_counter()
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2:
        raise ValueError("data must be a matrix of shape (n, d)")
    if not np.all(np.isfinite(data)):
        raise ValueError("data must be finite")
    n_total, d = data.shape
    ar = config.ar_order == 1
    n_eff = n_total - 1 if ar else n_total
    if n_eff <= MIN_OBS_PER_DIM * d:
        raise ValueError(
            f"need more than {MIN_OBS_PER_DIM} observations per "
            f"dimension ({MIN_OBS_PER_DIM * d}), got {n_eff}")

    c = float(config.scale_c)
    x_scaled = data * c
    y, y_prev, _ = (_canonical_rows(x_scaled[1:], x_scaled[:-1]) if ar
                    else _canonical_rows(x_scaled))
    guard = (CenterGuard(config.delta_cap) if config.delta_cap is not None
             else CenterGuard.default_for_dim(d))
    params = (_scale_params(config.init, c) if config.init is not None
              else initial_params(x_scaled if ar else y, ar_order=config.ar_order))
    if params.d != d:
        raise ValueError("initial parameters do not match the data dimension")
    if params.ar != ar:
        raise ValueError(f"initial parameters {'carry' if params.ar else 'lack'} "
                         f"the AR(1) lag matrix, but ar_order is {config.ar_order}")
    r = params.regressors(y, y_prev)

    offset = n_eff * d * math.log(c)  # maps the scaled loglik to data scale
    algorithm = config.algorithm
    line_search_mu = algorithm == "hecm" and d == 1 and not ar
    stages = {"mcecm": ["mcecm"], "ecme": ["ecme"], "hecm": ["mcecm", "ecme"]}[algorithm]

    def loglik(t: int) -> float:  # l at the current iterate, after cycle t
        ll = observed_loglik(y, params, guard=guard, y_prev=y_prev, geometry=geometry) + offset
        if math.isfinite(ll):
            return ll
        raise FloatingPointError(
            f"log-likelihood is not finite at cycle {t} (nu = {params.nu:.6g})")

    def report(algorithm: str, converged: bool, switch_iter=None,
               mcecm_stage=None) -> FitReport:
        # the report of the current iterate, whose l ends the trace; the
        # guarded count is taken by the E-step's rule
        _, _, _, guarded = geometry.capped(params.nu, guard)
        return FitReport(
            params=_scale_params(params, 1.0 / c),
            loglik_trace=np.asarray(trace),
            final_loglik=trace[-1],
            conv_iter=len(trace) - 1,
            switch_iter=switch_iter,
            wall_time=time.perf_counter() - t0,
            guarded_count_final=int(np.sum(guarded)),
            converged=converged,
            algorithm=algorithm,
            n_obs=n_eff,
            guarded_trace=np.asarray(guarded_trace, dtype=int),
            mcecm_stage=mcecm_stage,
        )

    geometry = Geometry.of(params, y, y_prev)
    ll_prev = loglik(0)
    trace = [ll_prev]
    guarded_trace = []
    start = params, geometry  # the iterate the next cycle starts from
    switch_iter = mcecm_stage = None
    for k, nu_step in enumerate(stages):
        stopped = False
        while not stopped and len(trace) <= config.max_iter:
            params, geometry, guarded = _one_cycle(
                y, y_prev, r, *start, guard, nu_step, line_search_mu)
            ll = loglik(len(trace))
            trace.append(ll)
            guarded_trace.append(guarded)
            stopped = abs(ll - ll_prev) < config.tol * (abs(ll) + 1.0)
            if not stopped:  # a next stage starts from the iterate before the stop
                start, ll_prev = (params, geometry), ll
        if k + 1 < len(stages):
            switch_iter = len(trace) - 1 if stopped else None
            # the d=1 line search's first stage is not the MCECM fit
            mcecm_stage = None if line_search_mu else report("mcecm", stopped)

    result = report(algorithm, stopped, switch_iter, mcecm_stage)
    if result.params.ar and not result.params.stationary:
        warnings.warn(
            f"fitted AR matrix has spectral radius "
            f"{result.params.spectral_radius:.4f} >= 1 (non-stationary mean)",
            RuntimeWarning)
    return result
