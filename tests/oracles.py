"""Independent oracles used to freeze expected values and to verify the
library paths at test time.

Everything here deliberately avoids the library's own evaluation routes:
Bessel values come from adaptive quadrature of the integral representation
(or high-precision arithmetic for order-derivative references), mixing
moments from quadrature of the unnormalised generalised-inverse-Gaussian
density, marginal densities from quadrature of the normal/gamma mixture,
and derivative checks from central differences.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg
from scipy.integrate import quad
from scipy.special import gammaln


def log_bessel_k_quad(order: float, z: float) -> float:
    """ln K_order(z) by adaptive quadrature of  exp(-z cosh t) cosh(order t)."""
    v = abs(order)
    tstar = float(np.arcsinh(v / z)) if v > 0 else 0.0
    peak = -z * math.cosh(tstar) + v * tstar

    def shifted(t):
        lc = np.logaddexp(v * t, -v * t) - math.log(2.0)
        return np.exp(-z * np.cosh(t) + lc - peak)

    t_hi = tstar + 1.0
    while z * math.cosh(t_hi) - v * t_hi + peak < 720.0 and t_hi < 1e6:
        t_hi *= 1.7
    val, _ = quad(shifted, 0.0, t_hi, epsabs=1e-300, epsrel=1e-13, limit=500,
                  points=[tstar, min(2.0 * tstar + 1.0, t_hi)])
    return peak + math.log(val)


def bessel_k_deriv_richardson(order: float, z: float, degree: int) -> float:
    """Order derivative of K via mpmath central differences, Richardson
    extrapolated over h in {1e-4, 1e-5, 1e-6}."""
    import mpmath as mp

    mp.mp.dps = 60

    def diff(h):
        h = mp.mpf(h)
        if degree == 1:
            return (mp.besselk(order + h, z) - mp.besselk(order - h, z)) / (2 * h)
        return (mp.besselk(order + h, z) - 2 * mp.besselk(order, z)
                + mp.besselk(order - h, z)) / (h * h)

    # truncation error is O(h^2): one Richardson step on the h-ladder
    d4, d5 = diff(1e-4), diff(1e-5)
    extrap = d5 + (d5 - d4) / (100.0 - 1.0)
    d6 = diff(1e-6)
    assert abs(d6 - extrap) <= 1e-6 * (1.0 + abs(extrap))
    return float(extrap)


def trigamma_series(x: float, terms: int = 200_000) -> float:
    """psi'(x) = sum_k 1/(x+k)^2, explicit terms plus the asymptotic tail
    psi'(a) ~ 1/a + 1/(2 a^2) + 1/(6 a^3) - 1/(30 a^5) at a = x + terms."""
    ks = np.arange(terms, dtype=float)
    total = float(np.sum(np.sort(1.0 / (x + ks) ** 2)))  # small-to-large sum
    a = x + terms
    tail = 1.0 / a + 1.0 / (2.0 * a * a) + 1.0 / (6.0 * a ** 3) - 1.0 / (30.0 * a ** 5)
    return total + tail


def gig_log_weight(lam, eta, delta, psi):
    return (eta - 1.0) * np.log(lam) - delta ** 2 / (2.0 * lam) - psi ** 2 * lam / 2.0


def gig_moment_quad(eta: float, delta: float, psi: float, fn) -> float:
    """E[fn(log lam)] under the unnormalised GIG weight, by quadrature in
    u = log lam."""
    d2, p2 = delta ** 2, psi ** 2
    xstar = (eta + math.sqrt(eta ** 2 + d2 * p2)) / p2
    ustar = math.log(xstar)
    peak = float(gig_log_weight(xstar, eta, delta, psi)) + ustar  # + jacobian

    def logw(u):
        return eta * u - d2 / 2.0 * np.exp(-u) - p2 / 2.0 * np.exp(u)

    def f_den(u):
        return np.exp(logw(u) - peak)

    def f_num(u):
        return fn(u) * np.exp(logw(u) - peak)

    lo, hi = ustar - 250.0, ustar + 250.0
    opts = dict(epsabs=1e-280, epsrel=1e-11, limit=800, points=[ustar])
    den = quad(f_den, lo, hi, **opts)[0]
    num = quad(f_num, lo, hi, **opts)[0]
    return num / den


def gig_moments_quad(eta, delta, psi):
    """(E lam, E 1/lam, E log lam) by quadrature."""
    return (gig_moment_quad(eta, delta, psi, np.exp),
            gig_moment_quad(eta, delta, psi, lambda u: np.exp(-u)),
            gig_moment_quad(eta, delta, psi, lambda u: u))


def mixture_log_density_quad(mu, sigma, gamma, nu, y) -> float:
    """ln f(y) by quadrature of the conditional-normal / gamma mixture."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    gamma_v = np.asarray(gamma, dtype=float)
    y = np.asarray(y, dtype=float)
    d = mu.shape[0]
    chol = linalg.cholesky(sigma, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))

    def log_integrand(u):
        lam = math.exp(u)
        resid = y - mu - gamma_v * lam
        w = linalg.solve_triangular(chol, resid, lower=True)
        log_norm = (-0.5 * d * math.log(2.0 * math.pi * lam) - 0.5 * logdet
                    - 0.5 * float(w @ w) / lam)
        log_gam = (nu * math.log(nu) - float(gammaln(nu))
                   + (nu - 1.0) * u - nu * lam)
        return log_norm + log_gam + u  # + u: jacobian of lam = e^u

    us = np.linspace(-60.0, 12.0, 4001)
    vals = np.array([log_integrand(u) for u in us])
    peak_u = us[int(np.argmax(vals))]
    peak = float(np.max(vals))

    def f(u):
        return math.exp(log_integrand(u) - peak)

    val, _ = quad(f, -400.0, peak_u + 60.0, epsabs=1e-280, epsrel=1e-11,
                  limit=1000, points=[peak_u])
    return peak + math.log(val)


def mixture_log_density_batch(mu, sigma, gamma, nu, ys,
                              lo=-45.0, hi=12.0, n_nodes=4097) -> np.ndarray:
    """ln f(y_i) for a block of points by composite Simpson quadrature of
    the mixture integral in u = log lam (vectorised, chunked)."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    gamma_v = np.asarray(gamma, dtype=float)
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    d = mu.shape[0]
    chol = linalg.cholesky(sigma, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    us = np.linspace(lo, hi, n_nodes)
    h = us[1] - us[0]
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= h / 3.0
    lam = np.exp(us)
    log_gam = (nu * math.log(nu) - float(gammaln(nu)) + nu * us - nu * lam)

    out = np.empty(ys.shape[0])
    for start in range(0, ys.shape[0], 64):
        block = ys[start:start + 64]
        resid = block[:, None, :] - mu - lam[None, :, None] * gamma_v  # (b, m, d)
        wres = linalg.solve_triangular(
            chol, resid.reshape(-1, d).T, lower=True).T.reshape(resid.shape)
        quad_form = np.sum(wres * wres, axis=2)
        log_norm = (-0.5 * d * (math.log(2.0 * math.pi) + us)[None, :]
                    - 0.5 * logdet - 0.5 * quad_form / lam[None, :])
        log_f = log_norm + log_gam[None, :]
        peak = log_f.max(axis=1, keepdims=True)
        out[start:start + 64] = (peak[:, 0]
                                 + np.log(np.exp(log_f - peak) @ w))
    return out


def naive_suff_stats(y, e_lam, e_inv, r=None):
    """Plain-python re-summation of the sufficient statistics; ``r`` holds
    the location's regressors (default: the intercept alone)."""
    n, d = y.shape
    if r is None:
        r = np.ones((n, 1))
    return {
        "s_y": sum(y[i] for i in range(n)),
        "s_r": sum(r[i] for i in range(n)),
        "s_rr_over_lambda": sum(e_inv[i] * np.outer(r[i], r[i]) for i in range(n)),
        "s_ry_over_lambda": sum(e_inv[i] * np.outer(r[i], y[i]) for i in range(n)),
        "s_lambda": sum(float(e_lam[i]) for i in range(n)),
    }


def wls_location_skew(y, lam):
    """Weighted least squares of y_i on (1, lam_i) with weights 1/lam_i,
    solved through the stacked normal equations."""
    n, d = y.shape
    w = 1.0 / lam
    design = np.column_stack([np.ones(n), lam])
    mat = design.T @ (w[:, None] * design)
    rhs = design.T @ (w[:, None] * y)
    sol = np.linalg.solve(mat, rhs)
    return sol[0], sol[1]


def wls_ar(y, x, lam):
    """Weighted least squares of y_i on (1, x_i, lam_i) with weights 1/lam_i."""
    n, d = y.shape
    w = 1.0 / lam
    design = np.column_stack([np.ones(n), x, lam])
    mat = design.T @ (w[:, None] * design)
    rhs = design.T @ (w[:, None] * y)
    sol = np.linalg.solve(mat, rhs)
    return sol[0], sol[1:1 + d].T, sol[1 + d]


def complete_data_loglik(params, y, lam, y_prev=None):
    """l_N + l_G with the mixing weights plugged in (constants included)."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    lam = np.asarray(lam, dtype=float)
    n, d = y.shape
    sigma = np.asarray(params.sigma, dtype=float)
    gamma_v = np.asarray(params.gamma, dtype=float)
    nu = params.nu
    if y_prev is not None:
        loc = np.asarray(params.mu) + np.atleast_2d(y_prev) @ np.asarray(params.beta1).T
    else:
        loc = np.asarray(params.mu)
    chol = linalg.cholesky(sigma, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    total = -0.5 * n * logdet
    for i in range(n):
        u = y[i] - loc[i] if y_prev is not None else y[i] - loc
        u = u - lam[i] * gamma_v
        w = linalg.solve_triangular(chol, u, lower=True)
        total += -0.5 * float(w @ w) / lam[i]
    total += float(n * nu * math.log(nu) - n * gammaln(nu)
                   + (nu - 1.0) * np.sum(np.log(lam)) - nu * np.sum(lam))
    return total


def numerical_gradient(f, x0, h=1e-6):
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        hp = h * max(1.0, abs(x0[i]))
        up, dn = x0.copy(), x0.copy()
        up[i] += hp
        dn[i] -= hp
        g[i] = (f(up) - f(dn)) / (2.0 * hp)
    return g


def numerical_hessian(f, x0, h=1e-4):
    x0 = np.asarray(x0, dtype=float)
    p = x0.size
    steps = np.array([h * max(1.0, abs(x0[i])) for i in range(p)])
    hess = np.zeros((p, p))
    f0 = f(x0)
    for i in range(p):
        for j in range(i, p):
            if i == j:
                up, dn = x0.copy(), x0.copy()
                up[i] += steps[i]
                dn[i] -= steps[i]
                hess[i, i] = (f(up) - 2.0 * f0 + f(dn)) / steps[i] ** 2
            else:
                pp, pm, mp_, mm = x0.copy(), x0.copy(), x0.copy(), x0.copy()
                pp[[i, j]] += [steps[i], steps[j]]
                pm[i] += steps[i]
                pm[j] -= steps[j]
                mp_[i] -= steps[i]
                mp_[j] += steps[j]
                mm[[i, j]] -= [steps[i], steps[j]]
                hess[i, j] = hess[j, i] = (
                    (f(pp) - f(pm) - f(mp_) + f(mm)) / (4.0 * steps[i] * steps[j]))
    return hess


def polar_density_mass(params, log_density_fn, guard, n_angles=192) -> float:
    """Total probability mass of a bivariate density by polar quadrature
    around the location (radial quadrature per Gauss-Legendre angle)."""
    chol = linalg.cholesky(np.asarray(params.sigma, dtype=float), lower=True)
    logdet_half = float(np.sum(np.log(np.diag(chol))))
    nodes, weights = np.polynomial.legendre.leggauss(n_angles)
    angles = math.pi * (nodes + 1.0)          # map [-1, 1] -> [0, 2 pi]
    w_ang = weights * math.pi
    total = 0.0
    for ang, wa in zip(angles, w_ang):
        direction = np.array([math.cos(ang), math.sin(ang)])

        def radial(r):
            y = params.mu + chol @ (r * direction)
            return np.exp(log_density_fn(params, y, guard)) * r

        val, _ = quad(radial, 0.0, 40.0, epsabs=1e-13, epsrel=1e-10,
                      limit=400, points=[1e-6, 0.1, 1.0, 5.0])
        total += wa * val
    return total * math.exp(logdet_half)
