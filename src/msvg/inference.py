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

The free-parameter vector stacks the location vector ``mu`` (labelled
beta0 for AR(1) parameters, where it is the intercept), vec(beta1)
column-major (AR only), vech(Sigma) column-major lower triangle, gamma, and
nu; off-diagonal scale entries carry the usual factor-two adjustment for
the symmetric parameterisation.

One rule makes the information exactly symmetric: :func:`observed_info`
mirrors its upper triangle down, the only triangle the Hessian fills.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .distribution import CenterGuard, Geometry, MsvgParams, _gig_first_moments
from .specfun import (
    bessel_k_order_derivative_over_k,
    digamma,
    log_bessel_k,
    trigamma,
)


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
    d = params.d
    parts = [params.mu]
    if params.ar:
        parts.append(params.beta1.flatten(order="F"))
    parts.append(np.array([params.sigma[i, j] for i, j in vech_indices(d)]))
    parts.append(params.gamma)
    parts.append(np.array([params.nu]))
    return np.concatenate(parts)


def unflatten_params(theta: np.ndarray, template) -> MsvgParams:
    """Rebuild a parameter block from a free-parameter vector."""
    d = template.d
    pos = 0
    loc = theta[pos:pos + d]
    pos += d
    beta1 = None
    if template.ar:
        beta1 = theta[pos:pos + d * d].reshape(d, d, order="F")
        pos += d * d
    sigma = np.zeros((d, d))
    for i, j in vech_indices(d):
        sigma[i, j] = sigma[j, i] = theta[pos]
        pos += 1
    gamma = theta[pos:pos + d]
    pos += d
    return MsvgParams(mu=loc, sigma=sigma, gamma=gamma, nu=float(theta[pos]), beta1=beta1)


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
    when the caller already holds it.
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
    return float(out[0]) if np.ndim(y) == 1 else out


def _design(params, data, y_prev):
    """What the score and the Hessian share.

    Returns the lagged block x (None when not given), the residuals
    e_i = y_i - location_i, the precision P = Sigma^-1, and for every
    vech(Sigma) direction m its symmetric basis matrix E_m and P E_m P.
    """
    y = np.atleast_2d(np.asarray(data, dtype=float))
    x = None if y_prev is None else np.atleast_2d(np.asarray(y_prev, dtype=float))
    resid = y - params.location(x)
    prec = np.linalg.inv(0.5 * (params.sigma + params.sigma.T))
    prec = 0.5 * (prec + prec.T)
    pairs = vech_indices(params.d)
    e_stack = np.zeros((len(pairs), params.d, params.d))
    w_stack = np.empty_like(e_stack)
    for m, (i, j) in enumerate(pairs):
        e_stack[m, i, j] = e_stack[m, j, i] = 1.0
        w_stack[m] = prec @ e_stack[m] @ prec
    return x, resid, prec, e_stack, w_stack


def _score_stacks(params, design):
    """Per-observation score coefficients on the monomials 1, 1/lam, lam, log lam.

    Returns (A, B, C, D) of shape (n, p): the score of observation i given
    mixing weight lam is A_i + B_i / lam + C_i lam + D_i log lam.
    ``design`` is :func:`_design` of ``params`` and the data.
    """
    d = params.d
    ar = params.ar
    x, resid, prec, e_stack, w_stack = design
    n = resid.shape[0]
    pg = prec @ params.gamma
    pe = resid @ prec                       # rows: Sigma^-1 e_i
    ps = e_stack.shape[0]
    tr_pe = np.array([np.trace(prec @ basis) for basis in e_stack])

    p = n_free_params(params)
    a = np.zeros((n, p))
    b = np.zeros((n, p))
    c = np.zeros((n, p))
    dd = np.zeros((n, p))

    pos = 0
    # location block
    a[:, pos:pos + d] = -pg
    b[:, pos:pos + d] = pe
    pos += d
    if ar:
        # vec(beta1) column-major: entry (r, col) at index col*d + r
        a[:, pos:pos + d * d] = (x[:, :, None] * (-pg)[None, None, :]).reshape(n, d * d)
        b[:, pos:pos + d * d] = (x[:, :, None] * pe[:, None, :]).reshape(n, d * d)
        pos += d * d
    # vech(Sigma) block
    wg = w_stack @ params.gamma             # (ps, d)
    a[:, pos:pos + ps] = -0.5 * tr_pe - resid @ wg.T
    b[:, pos:pos + ps] = 0.5 * np.einsum("ni,mij,nj->nm", resid, w_stack, resid)
    c[:, pos:pos + ps] = 0.5 * params.gamma @ wg.T
    pos += ps
    # gamma block
    a[:, pos:pos + d] = pe
    c[:, pos:pos + d] = -pg
    pos += d
    # nu entry
    a[:, pos] = 1.0 + math.log(params.nu) - float(digamma(params.nu))
    c[:, pos] = -1.0
    dd[:, pos] = 1.0
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

    Only the upper triangle is filled; :func:`observed_info` mirrors it.
    """
    d = params.d
    ar = params.ar
    x, resid, prec, e_stack, w_stack = design
    n = resid.shape[0]
    gamma = params.gamma
    ps = e_stack.shape[0]

    p = n_free_params(params)
    h = np.zeros((p, p))
    i_loc = slice(0, d)
    i_b1 = slice(d, d + d * d) if ar else None
    off = d + (d * d if ar else 0)
    i_gam = slice(off + ps, off + ps + d)
    i_nu = off + ps + d

    sm_1 = float(m_1.sum())
    sm1 = float(m1.sum())
    se = resid.sum(axis=0)
    ve = (m_1[:, None] * resid).sum(axis=0)        # sum m_1 e_i

    h[i_loc, i_loc] = -sm_1 * prec
    h[i_loc, i_gam] = -n * prec
    h[i_gam, i_gam] = -sm1 * prec
    if ar:
        sx_m1 = (m_1[:, None] * x).sum(axis=0)
        sxx_m1 = x.T @ (m_1[:, None] * x)
        sx = x.sum(axis=0)
        h[i_loc, i_b1] = -np.kron(sx_m1[None, :], prec).reshape(d, d * d)
        h[i_b1, i_b1] = -np.kron(sxx_m1, prec)
        h[i_b1, i_gam] = -np.kron(sx[:, None], prec).reshape(d * d, d)

    # scale cross blocks, one basis direction at a time
    mx = (m_1[:, None] * resid - gamma).T @ x if ar else None
    for m in range(ps):
        w = w_stack[m]
        h[i_loc, off + m] = -w @ (ve - n * gamma)
        h[off + m, i_gam] = -w @ (se - sm1 * gamma)
        if ar:
            h[i_b1, off + m] = -(w @ mx).flatten(order="F")

    # scale-scale block
    t_bar = ((m_1[:, None] * resid).T @ resid
             - np.outer(se, gamma) - np.outer(gamma, se) + sm1 * np.outer(gamma, gamma))
    pe_stack = np.einsum("ij,mjk->mik", prec, e_stack)     # P E_m
    pt = prec @ t_bar
    for a_idx in range(ps):
        pa = pe_stack[a_idx]
        for b_idx in range(a_idx, ps):
            pb = pe_stack[b_idx]
            first = 0.5 * n * np.trace(pa @ pb)
            second = -0.5 * (np.trace(pa @ pb @ pt) + np.trace(pb @ pa @ pt))
            h[off + a_idx, off + b_idx] = first + second

    h[i_nu, i_nu] = n * (1.0 / params.nu - float(trigamma(params.nu)))
    return h


def observed_info(params, data, y_prev=None,
                  guard: CenterGuard | None = None) -> InfoMatrix:
    """Observed information at (or near) a converged fit via Louis's identity.

    For AR parameters without an explicit lagged block, the first row of
    ``data`` conditions the fit, matching :func:`msvg.ecm.observed_loglik`.
    """
    y, y_prev = params.modelled_rows(data, y_prev)
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
                f"at observation {int(bad[0])}")
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
    d = params.d
    base = 2 * d + d * (d + 1) // 2 + 1
    return base + (d * d if params.ar else 0)
