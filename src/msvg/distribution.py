"""The multivariate skewed variance gamma (MSVG) distribution.

The model is the normal mean-variance mixture

    y | lam ~ N_d(mu + gamma * lam, lam * Sigma),   lam ~ Gamma(nu, rate=nu),

whose marginal density involves K_{nu - d/2}, the modified Bessel function
of the second kind.  Writing Q = gamma' Sigma^-1 gamma, psi = sqrt(2 nu + Q)
and delta for the Mahalanobis distance of y under Sigma, the log density is

    ln f(y) = (1 - nu) ln 2 + (d/2) ln nu - ln Gamma(nu)
              - (d/2) ln pi - (1/2) ln|Sigma|
              + ((2 nu - d)/2) [ln delta + ln(2 nu) - ln psi]
              + ln K_{nu - d/2}(delta psi) + (y - mu)' Sigma^-1 gamma.

For nu <= d/2 the density is unbounded at mu, and the posterior moments
E(1/lam | y) and E(log lam | y) diverge as delta -> 0.  Observations with
delta * psi below a small threshold (the "delta region") are therefore
evaluated at the substituted distance delta* = threshold / psi, which caps
the density and keeps every conditional moment finite.

delta, psi and the guard are formed in one place.  :class:`Geometry`
factorises Sigma once per parameter point and data block and keeps delta,
(y - mu)' Sigma^-1 gamma, ln|Sigma| and Q; :meth:`Geometry.capped` adds psi,
eta and the guard mask for a given nu.  The density, the E-step, the
information moments of :mod:`msvg.inference`, ECME's shape search and the
fit's final guarded count all read them from there.  The order derivative
of K behind E(log lam) is the one central difference of :mod:`msvg.specfun`,
formed from the ln K_eta that E(lam) and E(1/lam) already need.

A geometry lives for one parameter point (location, Sigma, gamma; nu is not
part of it) and one data block.  The consumers that take it as the
keyword ``geometry=`` -- :func:`posterior_lambda_moments`,
:func:`msvg.ecm.observed_loglik`, :func:`msvg.ecm.cm_step_shape_ecme` and
:func:`msvg.inference.conditional_lambda_moment` -- build their own when
none is given.

One rule says whether a result belongs to a parameter point: its tag (the
bytes of mu, beta1, Sigma and gamma and the row count) equals the point's.
A geometry carries the tag of the point it was built from, and the mixing
expectations of :func:`posterior_lambda_moments` carry the tag of the
geometry they were computed from.  :meth:`Geometry.at` and
:func:`msvg.ecm.cm_step_scale` check it and raise ``ValueError`` on a
result built for another point.

The AR(1) mean variant is the same model with location beta0 + beta1 @ y_prev;
:class:`MsvgParams` carries it as an optional lag matrix ``beta1``, with
``mu`` holding the intercept beta0, and :meth:`MsvgParams.location` is the
one place that forms the location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import blas, lapack
from scipy.special import gammaln

from .specfun import _order_diff_over_k, log_bessel_k

# exp() clamp keeping posterior moments positive and finite in extreme tails
_LOG_CLIP = 700.0
# Residuals are whitened by BLAS trsm in blocks of at most this many entries.
# OpenBLAS threads trsm only above about 1024 entries, while LAPACK trtrs
# (behind linalg.solve_triangular) wakes the BLAS thread pool on every call,
# even for a 3 x 58 block, and leaves a worker spinning on another core that
# the Bessel kernel's threads need.  trsm solves each column alone, so the
# blocks give the same bits as one solve of the whole block.
_TRSM_ENTRIES = 1000
# ufuncs called directly: the np.all / np.sum wrappers cost more than the
# reduction itself on the small blocks of a fit cycle
_add = np.add.reduce
_all = np.logical_and.reduce


@dataclass
class MsvgParams:
    """Parameter block (location, scale matrix, skewness, shape) of one MSVG model.

    With the lag matrix ``beta1`` set the model has an AR(1) mean: ``mu`` is
    then the intercept beta0 and the location of y_t is mu + beta1 @ y_{t-1}.
    """

    mu: np.ndarray
    sigma: np.ndarray
    gamma: np.ndarray
    nu: float
    beta1: np.ndarray | None = None

    def __post_init__(self):
        # np.array(..., ndmin=k, copy=None) is atleast_kd(asarray(...)) in one call
        self.mu = np.array(self.mu, dtype=float, ndmin=1, copy=None)
        self.sigma = np.array(self.sigma, dtype=float, ndmin=2, copy=None)
        self.gamma = np.array(self.gamma, dtype=float, ndmin=1, copy=None)
        self.nu = float(self.nu)
        arrays = [self.mu, self.sigma, self.gamma]
        d = self.mu.shape[0]
        if self.ar:
            self.beta1 = np.array(self.beta1, dtype=float, ndmin=2, copy=None)
            arrays.append(self.beta1)
        if (self.sigma.shape != (d, d) or self.gamma.shape != (d,)
                or (self.ar and self.beta1.shape != (d, d))):
            raise ValueError("parameter dimensions disagree")
        if not all(_all(np.isfinite(a), axis=None) for a in arrays):
            raise ValueError("parameters must be finite")
        if not 0.0 < self.nu < math.inf:
            raise ValueError(f"shape parameter must be positive and finite, got {self.nu}")

    @property
    def d(self) -> int:
        return self.mu.shape[0]

    @property
    def ar(self) -> bool:
        return self.beta1 is not None

    def location(self, y_prev=None) -> np.ndarray:
        """mu for the plain model; the (n, d) block mu + y_prev @ beta1' for AR(1)."""
        if not self.ar:
            return self.mu
        if y_prev is None:
            raise ValueError("AR parameters require the lagged observations")
        return self.mu + _rows(y_prev, self.d) @ self.beta1.T

    def regressors(self, y, y_prev=None) -> np.ndarray:
        """The location's regressors r_i, a row per row of ``y``: (1), or
        (1, y_{i-1}) for AR(1); the location is [mu | beta1] r_i."""
        ones = np.ones((len(y), 1))
        return np.hstack([ones, y_prev]) if self.ar else ones

    def with_coefficients(self, coef, **changes) -> "MsvgParams":
        """A copy with location coefficients [mu | beta1] = ``coef`` (d, k)."""
        return replace(self, mu=coef[:, 0], beta1=coef[:, 1:] if self.ar else None, **changes)

    def modelled_rows(self, data, y_prev=None):
        """``(y, y_prev)`` of a data block; for AR(1) with no lagged block
        given, the first row only conditions the second and is not modelled."""
        data = _rows(data, self.d)
        if self.ar and y_prev is None:
            return data[1:], data[:-1]
        return data, None if y_prev is None else _rows(y_prev, self.d)

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.beta1))))

    @property
    def stationary(self) -> bool:
        # radius >= 1 is flagged, not rejected: it only matters for sampling
        return self.spectral_radius < 1.0

    def stationary_mean(self) -> np.ndarray:
        return np.linalg.solve(np.eye(self.d) - self.beta1, self.mu + self.gamma)

    def to_json(self) -> dict:
        """Plain-JSON block; an AR(1) intercept is written as ``beta0``."""
        if not self.ar:
            out = {"mu": self.mu.tolist()}
        else:
            out = {"beta0": self.mu.tolist(), "beta1": self.beta1.tolist()}
        out.update(sigma=self.sigma.tolist(), gamma=self.gamma.tolist(), nu=self.nu)
        return out

    @classmethod
    def from_json(cls, blob: dict) -> "MsvgParams":
        """Inverse of :meth:`to_json`; a block that is not a JSON object,
        lacks a field or has a Sigma that is not positive definite raises
        ValueError."""
        if not isinstance(blob, dict):
            raise ValueError("parameter block must be a JSON object")
        try:
            loc = ({"mu": blob["beta0"], "beta1": blob["beta1"]} if "beta0" in blob
                   else {"mu": blob["mu"]})
            params = cls(sigma=blob["sigma"], gamma=blob["gamma"], nu=blob["nu"], **loc)
            _chol_lower(params.sigma)
        except KeyError as exc:
            raise ValueError(f"parameter block is missing field {exc}") from None
        except np.linalg.LinAlgError:
            raise ValueError("parameter block's sigma is not positive definite") from None
        return params


def _rows(x, d: int) -> np.ndarray:
    """``x`` as an (n, d) block.  A 1-D block is a series when d = 1 and one
    observation otherwise, as scipy.stats reads quantiles; any other width
    raises ``ValueError``."""
    x = np.array(x, dtype=float, ndmin=1, copy=None)
    if x.ndim == 1:
        x = x[:, None] if d == 1 else x[None, :]
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"observations must have {d} columns, got shape {x.shape}")
    return x


def _one_observation(y, d: int) -> bool:
    """Whether ``y`` is one observation by the rule of :func:`_rows`: a
    scalar, or a 1-D block when d > 1."""
    return np.ndim(y) < (2 if d > 1 else 1)


def _canonical_rows(y, y_prev=None):
    """``(y, y_prev, order)``: the rows (AR(1): the pairs (y_i, y_{i-1})) put
    in lexicographic ``order``, the same bits for any permutation of them."""
    order = np.lexsort((y if y_prev is None else np.hstack([y, y_prev])).T[::-1])
    return y[order], None if y_prev is None else np.asarray(y_prev)[order], order


@dataclass(frozen=True)
class CenterGuard:
    """Threshold of the delta region: observations with delta*psi below it are capped."""

    delta_cap: float

    def __post_init__(self):
        if not (self.delta_cap > 0 and math.isfinite(self.delta_cap)):
            raise ValueError(f"delta threshold must be positive and finite, got {self.delta_cap}")

    @classmethod
    def default_for_dim(cls, d: int) -> "CenterGuard":
        # midpoints of the ranges that recover the shape parameter well in
        # the bivariate / trivariate recovery studies
        return cls(1e-4 if d <= 2 else 1e-2)


@dataclass
class MixingExpectations:
    """Per-observation conditional moments of the mixing weight given the
    data; ``tag`` names the parameter point they were computed at."""

    e_lambda: np.ndarray
    e_inv_lambda: np.ndarray
    e_log_lambda: np.ndarray | None
    guarded: np.ndarray
    tag: bytes | None = field(default=None, repr=False)


def _point_tag(params, rows: int) -> bytes:
    """Freshness token of a parameter point: the bytes of mu, beta1, Sigma
    and gamma, and the row count of the data block."""
    parts = [params.mu, params.sigma, params.gamma]
    if params.ar:
        parts.append(params.beta1)
    return b"".join([a.tobytes() for a in parts]) + rows.to_bytes(8, "little")


def check_tag(tag, params, y, what: str) -> None:
    """Raise ``ValueError`` unless ``tag`` names ``params`` and the rows of
    ``y`` (one row when ``y`` is a single observation)."""
    if tag != _point_tag(params, 1 if _one_observation(y, params.d) else len(y)):
        raise ValueError(f"{what} stale: built for another parameter point "
                         f"or data block")


def _chol_lower(sigma: np.ndarray) -> np.ndarray:
    # CM-step round-off breaks exact symmetry; symmetrize before factorizing.
    # LAPACK potrf is what linalg.cholesky calls; its checks are kept here.
    sym = 0.5 * (sigma + sigma.T)
    if not _all(np.isfinite(sym), axis=None):
        raise ValueError("array must not contain infs or NaNs")
    chol_l, info = lapack.dpotrf(sym, lower=1, clean=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th "
                         f"argument on entry to \"POTRF\".")
    return chol_l


@dataclass(frozen=True)
class Geometry:
    """What the density and the posterior moments need of y, free of nu.

    Built from one triangular factor of Sigma (never an explicit inverse):
    the uncapped distance ``delta``, the linear term
    ``lin = (y - location)' Sigma^-1 gamma``, ``logdet = ln|Sigma|`` and
    ``q_gamma = gamma' Sigma^-1 gamma``.  :meth:`capped` then adds what
    depends on nu.

    One geometry serves every consumer at its parameter point: in a fit,
    the one built after the scale step feeds the shape step, the cycle's
    log-likelihood, the next cycle's first E-step and the final guarded
    count.  ``tag`` (:func:`_point_tag`) names the point; :meth:`at` rejects
    a geometry handed on to another point.
    """

    d: int
    delta: np.ndarray
    lin: np.ndarray
    logdet: float
    q_gamma: float
    tag: bytes = field(repr=False)

    @classmethod
    def of(cls, params, y, y_prev=None) -> "Geometry":
        """Geometry of a block of observations, read by :func:`_rows`."""
        resid = _rows(y, params.d) - params.location(y_prev)
        if not _all(np.isfinite(resid), axis=None):
            raise ValueError("observations must be finite")
        chol_l = _chol_lower(params.sigma)
        rows = max(1, _TRSM_ENTRIES // params.d)
        w = np.empty_like(resid)
        for i in range(0, len(resid), rows):
            w[i:i + rows] = blas.dtrsm(1.0, chol_l, resid[i:i + rows].T, lower=1).T
        # trsv is the routine solve_triangular reaches for one right-hand side
        g = blas.dtrsv(chol_l, params.gamma, lower=1)
        return cls(d=params.d, delta=np.sqrt(_add(w * w, axis=1)), lin=w @ g,
                   logdet=2.0 * float(_add(np.log(chol_l.diagonal()))),
                   q_gamma=float(g @ g), tag=_point_tag(params, len(resid)))

    @classmethod
    def at(cls, params, y, y_prev=None, geometry: "Geometry | None" = None) -> "Geometry":
        """``geometry`` once its tag is checked against ``params`` and the
        rows of ``y``; a new geometry when None."""
        if geometry is None:
            return cls.of(params, y, y_prev)
        check_tag(geometry.tag, params, y, "geometry is")
        return geometry

    def capped(self, nu: float, guard: CenterGuard | None = None):
        """``(psi, eta, delta, guarded)`` at shape ``nu``.

        psi = sqrt(2 nu + Q) and eta = nu - d/2; rows with delta * psi below
        the guard's threshold are marked in ``guarded`` and carry the
        substituted distance threshold / psi.  ``guard=None`` means
        :meth:`CenterGuard.default_for_dim`.
        """
        if guard is None:
            guard = CenterGuard.default_for_dim(self.d)
        psi = math.sqrt(2.0 * nu + self.q_gamma)
        guarded = self.delta * psi < guard.delta_cap
        delta = np.where(guarded, guard.delta_cap / psi, self.delta)
        return psi, nu - 0.5 * self.d, delta, guarded

    def log_density(self, nu: float, guard: CenterGuard | None = None) -> np.ndarray:
        """Capped log density of every row at shape ``nu``."""
        d = self.d
        psi, eta, delta, _ = self.capped(nu, guard)
        const = ((1.0 - nu) * math.log(2.0) + 0.5 * d * math.log(nu)
                 - 0.5 * self.logdet - 0.5 * d * math.log(math.pi) - float(gammaln(nu)))
        return (const + eta * (np.log(delta) + math.log(2.0 * nu) - math.log(psi))
                + log_bessel_k(eta, delta * psi) + self.lin)


def log_density(params, y, guard: CenterGuard | None = None, y_prev=None):
    """Capped log density of the MSVG model, evaluated on the log scale.

    Observations inside the delta region are evaluated at the substituted
    distance delta* = cap / psi, so the result is finite for every input,
    including y exactly at the location when nu <= d/2.  A float for one
    observation, else an array of one value per row (see :func:`_rows`).
    """
    out = Geometry.of(params, y, y_prev).log_density(params.nu, guard)
    return float(out[0]) if _one_observation(y, params.d) else out


def moments(params: MsvgParams):
    """Mean mu + gamma and covariance Sigma + gamma gamma' / nu.

    For AR(1) parameters these are the moments of the innovation plus the
    intercept, y_t - beta1 @ y_{t-1}.
    """
    mean = params.mu + params.gamma
    cov = params.sigma + np.outer(params.gamma, params.gamma) / params.nu
    return mean, cov


def sample(params, n: int, seed: int, y0=None) -> np.ndarray:
    """Draw an (n, d) sample via the normal mean-variance mixture.

    For AR(1) parameters the first returned row is the initial state y0
    (default: the stationary mean) and the remaining n - 1 rows are
    generated from the chain; the layout matches what the AR fit consumes.
    Deterministic given the seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    d = params.d
    chol_l = _chol_lower(params.sigma)
    if params.ar:
        start = params.stationary_mean() if y0 is None else np.asarray(y0, dtype=float)
        out = np.empty((n, d))
        out[0] = start
        lam = rng.gamma(shape=params.nu, scale=1.0 / params.nu, size=n - 1)
        noise = rng.standard_normal((n - 1, d)) @ chol_l.T
        for i in range(1, n):
            out[i] = (params.mu + params.beta1 @ out[i - 1]
                      + params.gamma * lam[i - 1] + math.sqrt(lam[i - 1]) * noise[i - 1])
        return out
    lam = rng.gamma(shape=params.nu, scale=1.0 / params.nu, size=n)
    noise = rng.standard_normal((n, d)) @ chol_l.T
    return params.mu + lam[:, None] * params.gamma + np.sqrt(lam)[:, None] * noise


def _gig_first_moments(eta: float, z, log_dp):
    """``(E(lam), E(1/lam), ln K_|eta|(z))`` of the GIG posterior.

    ``log_dp`` is ln(delta/psi).  Both adjacent-order ratios come from two
    evaluations and the recurrence K_{a+1}/K_a = 2a/z + K_{a-1}/K_a (all
    terms positive for a >= 0).
    """
    a = abs(eta)
    lk_a = np.asarray(log_bessel_k(a, z))
    base = np.exp(np.asarray(log_bessel_k(abs(a - 1.0), z)) - lk_a)
    rec = 2.0 * a / z + base
    ratio_up, ratio_dn = (rec, base) if eta >= 0 else (base, rec)
    # np.minimum(np.maximum(.)) is np.clip without its wrapper
    e_lam = np.exp(np.minimum(np.maximum(log_dp + np.log(ratio_up), -_LOG_CLIP), _LOG_CLIP))
    e_inv = np.exp(np.minimum(np.maximum(-log_dp + np.log(ratio_dn), -_LOG_CLIP), _LOG_CLIP))
    return e_lam, e_inv, lk_a


def posterior_lambda_moments(params, y, guard: CenterGuard | None = None,
                             y_prev=None, need_log: bool = True, *,
                             geometry: Geometry | None = None) -> MixingExpectations:
    """Conditional moments of the mixing weight given each observation.

    The posterior of lam_i is generalised inverse Gaussian with index
    nu - d/2 and argument delta_i * psi, giving

        E(lam | y)     = (delta/psi) K_{eta+1}(delta psi) / K_eta(delta psi)
        E(1/lam | y)   = (psi/delta) K_{eta-1}(delta psi) / K_eta(delta psi)
        E(log lam | y) = ln(delta/psi) + K_eta^(1,0)(delta psi) / K_eta(delta psi)

    with eta = nu - d/2.  Observations inside the delta region use the
    substituted distance and are marked in ``guarded``.  ``need_log=False``
    skips E(log lam) (eliminating the order-derivative evaluations) for the
    cycle stages that only consume the first two moments.  ``geometry`` is
    that of ``params`` and ``y`` when the caller already holds it; the
    result carries its tag.
    """
    geometry = Geometry.at(params, y, y_prev, geometry)
    psi, eta, delta, guarded = geometry.capped(params.nu, guard)
    z = delta * psi
    log_dp = np.log(delta) - math.log(psi)
    e_lam, e_inv, lk_a = _gig_first_moments(eta, z, log_dp)
    # K_{-v} = K_v, so ln K_|eta| is ln K_eta
    e_log = log_dp + _order_diff_over_k(eta, z, lk_a) if need_log else None

    return MixingExpectations(e_lambda=e_lam, e_inv_lambda=e_inv,
                              e_log_lambda=e_log, guarded=guarded, tag=geometry.tag)


def density_grid(params, x_range, y_range, resolution: int,
                 guard: CenterGuard | None = None) -> np.ndarray:
    """Density at the cell centers of a bivariate grid.

    Returns a (resolution, resolution) array with entry [i, j] holding the
    density at (x_i, y_j), x varying along rows.
    """
    if params.d != 2:
        raise ValueError(f"grid emission is defined for d = 2, got d = {params.d}")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    x_lo, x_hi = map(float, x_range)
    y_lo, y_hi = map(float, y_range)
    dx = (x_hi - x_lo) / resolution
    dy = (y_hi - y_lo) / resolution
    xs = x_lo + dx * (np.arange(resolution) + 0.5)
    ys = y_lo + dy * (np.arange(resolution) + 0.5)
    pts = np.column_stack([np.repeat(xs, resolution), np.tile(ys, resolution)])
    vals = np.exp(log_density(params, pts, guard=guard))
    return vals.reshape(resolution, resolution)
