"""Observed information, standard errors, and AICc model comparison.

The observed information is assembled through Louis's identity

    I_o(theta) = -E[l''(theta | y, lam)] - E[l' l'^T] + E[l'] E[l']^T

with the expectations taken over the conditional (generalised inverse
Gaussian) distribution of the mixing weights given the data.  Scores are
independent across observations, so the cross terms cancel and the identity
reduces to

    I_o = sum_i ( -E[l_i''] - Cov(s_i | y_i) ).

Every per-observation score is a linear combination of the monomials
{1, 1/lam, lam, log lam}; their posterior moments (and those of lam^2,
1/lam^2, lam log lam, log lam / lam, (log lam)^2 needed for the score
covariance) come from the closed GIG moment formulas with the order
derivatives of K handled by central differences.

The location is regressed on r_i = (1, y_{i-1}) for AR(1) and on r_i = (1)
for the plain model, so one score and one Hessian serve both.
:func:`_blocks` is the one layout of the free-parameter vector;
off-diagonal scale entries carry the usual factor-two adjustment for the
symmetric parameterisation.

One rule makes the information exactly symmetric: :func:`observed_info`
mirrors its upper triangle down; the Hessian fills no block below it.  One
rule fixes the row order: :func:`observed_info` sorts the rows where it
starts, as :func:`msvg.ecm.fit` does, so a permutation gives the same bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma

from .distribution import (
    CenterGuard,
    Geometry,
    MsvgParams,
    _canonical_rows,
    _gig_first_moments,
    _one_observation,
    _rows,
)
from .specfun import bessel_k_order_derivative_over_k, log_bessel_k, trigamma


class SingularInformationError(RuntimeError):
    """Raised when the information matrix is numerically singular."""


@dataclass
class InfoMatrix:
    """Observed information over the free-parameter vector.

    A non-finite matrix raises ``ValueError``.  The ascending
    ``eigenvalues`` are computed once, here; every diagnostic reads them.
    """

    matrix: np.ndarray
    index_map: list[str]
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("information matrix is not finite")
        self.eigenvalues = np.linalg.eigvalsh(self.matrix)


def vech_indices(d: int) -> list[tuple[int, int]]:
    """Lower-triangle (row, col) pairs in column-major order."""
    return [(i, j) for j in range(d) for i in range(j, d)]


def _blocks(params) -> dict[str, slice]:
    """The one layout of the free-parameter vector, block by block.

    ``loc`` is vec([mu | beta1]) column-major: mu (labelled beta0 for AR(1))
    first, then vec(beta1); then vech(Sigma) column-major lower triangle,
    gamma and nu.
    """
    d = params.d
    sizes = {"loc": d * (d + 1 if params.ar else 1), "sigma": d * (d + 1) // 2,
             "gamma": d, "nu": 1}
    stops = np.cumsum(list(sizes.values())).tolist()
    return {name: slice(stop - size, stop)
            for (name, size), stop in zip(sizes.items(), stops)}


def param_labels(params) -> list[str]:
    """Ordered labels of the free-parameter vector."""
    d = params.d
    labels = [f"beta0_{i + 1}" if params.ar else f"mu_{i + 1}" for i in range(d)]
    if params.ar:
        labels += [f"beta1_{r + 1}{c + 1}" for c in range(d) for r in range(d)]
    labels += [f"sigma_{i + 1}{j + 1}" for i, j in vech_indices(d)]
    labels += [f"gamma_{i + 1}" for i in range(d)]
    labels.append("nu")
    return labels


def flatten_params(params) -> np.ndarray:
    """Free-parameter vector in the :func:`param_labels` order."""
    blocks = _blocks(params)
    rows, cols = np.array(vech_indices(params.d)).T
    theta = np.empty(blocks["nu"].stop)
    loc = [params.mu, params.beta1] if params.ar else [params.mu]
    theta[blocks["loc"]] = np.column_stack(loc).ravel(order="F")
    theta[blocks["sigma"]] = params.sigma[rows, cols]
    theta[blocks["gamma"]] = params.gamma
    theta[blocks["nu"]] = params.nu
    return theta


def unflatten_params(theta: np.ndarray, template) -> MsvgParams:
    """Rebuild a parameter block from a free-parameter vector."""
    d = template.d
    blocks = _blocks(template)
    rows, cols = np.array(vech_indices(d)).T
    loc = theta[blocks["loc"]].reshape(d, -1, order="F")
    sigma = np.zeros((d, d))
    sigma[rows, cols] = sigma[cols, rows] = theta[blocks["sigma"]]
    return template.with_coefficients(loc, sigma=sigma, gamma=theta[blocks["gamma"]],
                                      nu=theta[blocks["nu"]].item())


def conditional_lambda_moment(params, y, k: float = 1.0, kind: str = "plain",
                              y_prev=None, guard: CenterGuard | None = None, *,
                              geometry: Geometry | None = None):
    """Posterior moments E(lam^k), E(lam^k log lam) or E((log lam)^2).

    With eta = nu - d/2, psi = sqrt(2 nu + gamma' Sigma^-1 gamma) and the
    (capped) distance delta:

        E(lam^k)         = (delta/psi)^k K_{eta+k}(z) / K_eta(z)
        E(lam^k log lam) = E(lam^k) [K_{eta+k}^(1,0)(z)/K_{eta+k}(z) + ln(delta/psi)]
        E((log lam)^2)   = ln(delta/psi)^2
                           + [K_eta^(2,0)(z) + 2 ln(delta/psi) K_eta^(1,0)(z)] / K_eta(z)

    where z = delta * psi.  ``geometry`` is that of ``params`` and ``y``
    when the caller already holds it.  A float for one observation, else an
    array of one value per row (see :func:`msvg.distribution._rows`).
    """
    if kind not in ("plain", "times_log", "log_squared"):
        raise ValueError(f"unknown kind {kind!r}")
    psi, eta, delta, _ = Geometry.at(params, y, y_prev, geometry).capped(
        params.nu, guard)
    z = delta * psi
    log_dp = np.log(delta) - math.log(psi)

    with np.errstate(over="ignore"):
        if kind == "log_squared":
            d1 = bessel_k_order_derivative_over_k(eta, z, degree=1)
            d2 = bessel_k_order_derivative_over_k(eta, z, degree=2)
            out = log_dp ** 2 + d2 + 2.0 * log_dp * d1
        elif kind == "plain" and abs(k) == 1.0:
            # the E-step's own route, so both see the same E(lam), E(1/lam)
            out = _gig_first_moments(eta, z, log_dp)[0 if k > 0 else 1]
        else:
            plain = np.exp(k * log_dp + np.asarray(log_bessel_k(eta + k, z))
                           - np.asarray(log_bessel_k(eta, z)))
            if kind == "plain":
                out = plain
            else:
                d1 = bessel_k_order_derivative_over_k(eta + k, z, degree=1)
                out = plain * (d1 + log_dp)
    return float(out[0]) if _one_observation(y, params.d) else out


def _design(params, data, y_prev):
    """What the score and the Hessian share: the location's regressors r
    (n, k), the residuals e_i, the precision P = Sigma^-1, and for every
    vech(Sigma) direction m, with symmetric basis matrix E_m, the stacks
    P E_m and P E_m P.
    """
    y = _rows(data, params.d)
    x = None if y_prev is None else _rows(y_prev, params.d)
    resid = y - params.location(x)
    r = params.regressors(y, x)
    prec = np.linalg.inv(0.5 * (params.sigma + params.sigma.T))
    prec = 0.5 * (prec + prec.T)
    rows, cols = np.array(vech_indices(params.d)).T
    basis = np.zeros((len(rows), params.d, params.d))
    m = np.arange(len(rows))
    basis[m, rows, cols] = basis[m, cols, rows] = 1.0
    pe = prec @ basis
    return r, resid, prec, pe, pe @ prec


def _score_stacks(params, design):
    """Per-observation score coefficients on the monomials 1, 1/lam, lam, log lam.

    Returns (A, B, C, D) of shape (n, p): the score of observation i given
    mixing weight lam is A_i + B_i / lam + C_i lam + D_i log lam.
    ``design`` is :func:`_design` of ``params`` and the data.
    """
    r, resid, prec, pe, w_stack = design
    n = resid.shape[0]
    loc, sig, gam, nu = _blocks(params).values()
    pg = prec @ params.gamma
    pr = resid @ prec                       # rows: Sigma^-1 e_i
    wg = w_stack @ params.gamma             # (ps, d)
    a, b, c, dd = (np.zeros((n, nu.stop)) for _ in range(4))

    # d/d vec(B) of B r_i is r_i (x) I: entry (row j, column l) at l*d + j
    a[:, loc] = (r[:, :, None] * -pg).reshape(n, -1)
    b[:, loc] = (r[:, :, None] * pr[:, None, :]).reshape(n, -1)
    a[:, sig] = -0.5 * np.trace(pe, axis1=1, axis2=2) - resid @ wg.T
    b[:, sig] = 0.5 * np.einsum("ni,mij,nj->nm", resid, w_stack, resid)
    c[:, sig] = 0.5 * params.gamma @ wg.T
    a[:, gam] = pr
    c[:, gam] = -pg
    a[:, nu] = 1.0 + math.log(params.nu) - float(digamma(params.nu))
    c[:, nu] = -1.0
    dd[:, nu] = 1.0
    return a, b, c, dd


def complete_score(params, data, lambda_block, y_prev=None) -> np.ndarray:
    """Score of the complete-data log-likelihood at plugged-in mixing weights."""
    lam = np.atleast_1d(np.asarray(lambda_block, dtype=float))
    a, b, c, dd = _score_stacks(params, _design(params, data, y_prev))
    if lam.shape[0] != a.shape[0]:
        raise ValueError("lambda block length must match the data")
    return (a + b / lam[:, None] + c * lam[:, None]
            + dd * np.log(lam)[:, None]).sum(axis=0)


def _expected_hessian(params, design, m1, m_1):
    """Conditional expectation of the complete-data Hessian, summed over rows.

    Only the blocks on and above the diagonal are filled;
    :func:`observed_info` mirrors the upper triangle.
    """
    r, resid, prec, pe, w_stack = design
    n = resid.shape[0]
    gamma = params.gamma
    loc, sig, gam, nu = _blocks(params).values()
    h = np.zeros((nu.stop, nu.stop))

    sm1 = float(m1.sum())
    se = resid.sum(axis=0)
    h[loc, loc] = -np.kron(r.T @ (m_1[:, None] * r), prec)
    h[loc, gam] = -np.kron(r.sum(axis=0)[:, None], prec)
    h[gam, gam] = -sm1 * prec

    # scale cross blocks: -vec(W_m sum_i (m_1 e_i - gamma) r_i') and -W_m (se - sm1 gamma)
    wm = w_stack @ ((m_1[:, None] * resid - gamma).T @ r)       # (ps, d, k)
    h[loc, sig] = -wm.transpose(0, 2, 1).reshape(len(wm), -1).T
    h[sig, gam] = -(w_stack @ (se - sm1 * gamma))

    # scale-scale: (n/2) tr(PE_a PE_b) - (1/2) tr((PE_a PE_b + PE_b PE_a) P T)
    t_bar = ((m_1[:, None] * resid).T @ resid
             - np.outer(se, gamma) - np.outer(gamma, se) + sm1 * np.outer(gamma, gamma))
    tr_ab = np.einsum("aij,bji->ab", pe, pe)
    tr_abt = np.einsum("aij,bji->ab", pe, pe @ (prec @ t_bar))
    h[sig, sig] = 0.5 * n * tr_ab - 0.5 * (tr_abt + tr_abt.T)

    h[nu, nu] = n * (1.0 / params.nu - float(trigamma(params.nu)))
    return h


def observed_info(params, data, y_prev=None,
                  guard: CenterGuard | None = None) -> InfoMatrix:
    """Observed information at (or near) a converged fit via Louis's identity.

    For AR parameters without an explicit lagged block, the first row of
    ``data`` conditions the fit, matching :func:`msvg.ecm.observed_loglik`.
    The modelled rows are sorted first; an error names a row as given.
    """
    y, y_prev, order = _canonical_rows(*params.modelled_rows(data, y_prev))
    # Sigma is factorised once for the eight moments
    geometry = Geometry.of(params, y, y_prev)

    def moment(k, kind):
        vals = np.atleast_1d(conditional_lambda_moment(
            params, y, k=k, kind=kind, y_prev=y_prev, guard=guard,
            geometry=geometry))
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ValueError(
                f"conditional expectation E(lam^{k}, {kind}) is non-finite "
                f"at observation {int(order[bad].min())}")
        return vals

    m1 = moment(1.0, "plain")
    m_1 = moment(-1.0, "plain")
    m2 = moment(2.0, "plain")
    m_2 = moment(-2.0, "plain")
    mlog = moment(0.0, "times_log")
    mlog_t = moment(1.0, "times_log")
    mlog_o = moment(-1.0, "times_log")
    mlog2 = moment(0.0, "log_squared")

    design = _design(params, y, y_prev)
    a, b, c, dd = _score_stacks(params, design)

    def cross(u, v, w=None):
        return u.T @ v if w is None else u.T @ (w[:, None] * v)

    def sym(mat):
        return mat + mat.T

    second = (cross(a, a) + sym(cross(a, b, m_1)) + sym(cross(a, c, m1))
              + sym(cross(a, dd, mlog)) + cross(b, b, m_2) + cross(c, c, m2)
              + cross(dd, dd, mlog2) + sym(cross(b, c)) + sym(cross(b, dd, mlog_o))
              + sym(cross(c, dd, mlog_t)))
    ebar = a + m_1[:, None] * b + m1[:, None] * c + mlog[:, None] * dd
    score_cov = second - cross(ebar, ebar)

    h_bar = _expected_hessian(params, design, m1, m_1)
    info = -h_bar - score_cov
    # exact symmetry: keep the upper triangle, mirror it down
    info = InfoMatrix(matrix=np.triu(info) + np.triu(info, 1).T,
                      index_map=param_labels(params))
    if info.eigenvalues[0] <= 0:
        warnings.warn(
            f"observed information is not positive definite "
            f"(smallest eigenvalue {info.eigenvalues[0]:.3e}); the fit may not "
            f"have converged", RuntimeWarning)
    return info


def standard_errors(info: InfoMatrix) -> dict[str, float]:
    """SE(theta_i) = sqrt of the i-th diagonal entry of the inverse information."""
    eigs = info.eigenvalues
    if eigs[0] <= 1e-12 * max(eigs[-1], 0.0):
        raise SingularInformationError(
            f"information matrix is singular to working precision; "
            f"eigenvalue spectrum: {np.array2string(eigs, precision=3)}")
    cond = eigs[-1] / eigs[0]
    if cond > 1e8:
        warnings.warn(
            f"information matrix is ill-conditioned (condition number {cond:.3e}); "
            f"standard errors may be unreliable", RuntimeWarning)
    cov = np.linalg.inv(info.matrix)
    ses = np.sqrt(np.diag(cov))
    return dict(zip(info.index_map, ses.tolist()))


def aicc(loglik: float, k: int, n: int) -> float:
    """Finite-sample corrected Akaike criterion; lower is better."""
    if n <= k + 1:
        raise ValueError(f"AICc needs n > k + 1, got n={n}, k={k}")
    aic = -2.0 * loglik + 2.0 * k
    return aic + 2.0 * k * (k + 1.0) / (n - k - 1.0)


def n_free_params(params) -> int:
    """Size of the free-parameter vector."""
    return _blocks(params)["nu"].stop
