import math

import numpy as np
import pytest
from scipy import linalg
from scipy.special import digamma

from msvg.distribution import (
    CenterGuard,
    Geometry,
    MsvgParams,
    density_grid,
    log_density,
    moments,
    posterior_lambda_moments,
    _chol_lower,
    sample,
)
from msvg.specfun import bessel_k_order_derivative_over_k

from oracles import gig_moments_quad, mixture_log_density_quad

BASE = dict(mu=[0.0, 0.0], sigma=[[1.0, 0.4], [0.4, 1.0]], gamma=[0.2, 0.3], nu=3.0)


def base_params(**overrides):
    kw = dict(BASE)
    kw.update(overrides)
    return MsvgParams(**kw)


class TestParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            MsvgParams(mu=[0.0], sigma=[[1.0]], gamma=[0.0], nu=0.0)
        with pytest.raises(ValueError):
            MsvgParams(mu=[0.0, 0.0], sigma=[[1.0]], gamma=[0.0], nu=1.0)
        with pytest.raises(ValueError):
            MsvgParams(mu=[np.inf], sigma=[[1.0]], gamma=[0.0], nu=1.0)

    @pytest.mark.parametrize("nu", [math.inf, math.nan, -math.inf])
    def test_shape_must_be_finite(self, nu):
        with pytest.raises(ValueError, match="positive and finite"):
            base_params(nu=nu)
        blob = base_params().to_json()
        with pytest.raises(ValueError, match="positive and finite"):
            MsvgParams.from_json({**blob, "nu": nu})

    def test_ar_spectral_radius_flag(self):
        p = MsvgParams(mu=[0.0], beta1=[[1.2]], sigma=[[1.0]],
                       gamma=[0.0], nu=1.0)
        assert p.spectral_radius == pytest.approx(1.2)
        assert not p.stationary

    def test_ar_stationary_mean(self):
        p = MsvgParams(mu=[1.0, 0.0], beta1=0.5 * np.eye(2),
                       sigma=np.eye(2), gamma=[0.1, 0.1], nu=2.0)
        expect = np.linalg.solve(np.eye(2) - p.beta1, p.mu + p.gamma)
        assert np.allclose(p.stationary_mean(), expect)

    def test_guard_validation_and_defaults(self):
        with pytest.raises(ValueError):
            CenterGuard(0.0)
        assert CenterGuard.default_for_dim(1).delta_cap == 1e-4
        assert CenterGuard.default_for_dim(2).delta_cap == 1e-4
        assert CenterGuard.default_for_dim(3).delta_cap == 1e-2
        assert CenterGuard.default_for_dim(5).delta_cap == 1e-2


def mahalanobis(p, y, y_prev=None):
    """The Mahalanobis distance delta of each row, as the density forms it."""
    return Geometry.of(p, y, y_prev).delta


class TestMahalanobis:
    def test_zero_at_location(self):
        p = base_params()
        assert mahalanobis(p, np.zeros(2))[0] == 0.0

    def test_identity_scale_is_euclidean(self):
        p = MsvgParams(mu=[0.0, 0.0], sigma=np.eye(2), gamma=[0.0, 0.0], nu=1.0)
        assert mahalanobis(p, np.array([3.0, 4.0]))[0] == pytest.approx(5.0)

    def test_correlated_two_by_two(self):
        # direct inverse of [[1, .4], [.4, 1]] gives (1,1)' S^-1 (1,1) = 2/1.4
        p = base_params()
        assert mahalanobis(p, np.array([1.0, 1.0]))[0] == pytest.approx(
            math.sqrt(2.0 / 1.4), rel=1e-14)

    def test_block_evaluation(self):
        p = base_params()
        y = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, -2.0]])
        block = mahalanobis(p, y)
        assert block.shape == (3,)
        for i in range(3):
            assert block[i] == pytest.approx(mahalanobis(p, y[i])[0])

    def test_ar_form(self):
        p = MsvgParams(mu=[0.5], beta1=[[0.3]], sigma=[[4.0]],
                       gamma=[0.0], nu=1.0)
        # residual = 2 - 0.5 - 0.3 * 1 = 1.2; delta = 1.2 / 2
        assert mahalanobis(p, np.array([[2.0]]), np.array([[1.0]]))[0] \
            == pytest.approx(0.6)
        with pytest.raises(ValueError):
            mahalanobis(p, np.array([[2.0]]))

    def test_not_spd_raises(self):
        p = base_params()
        p.sigma = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            mahalanobis(p, np.array([1.0, 1.0]))


class TestWhitening:
    @pytest.mark.parametrize("ar", [False, True], ids=["plain", "ar1"])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_blocked_solve_equals_one_solve(self, d, ar):
        # n = 2345 spans several whitening blocks and a short last one
        rng = np.random.default_rng(d)
        a = rng.standard_normal((d, d))
        p = MsvgParams(mu=rng.standard_normal(d), sigma=a @ a.T + d * np.eye(d),
                       gamma=rng.standard_normal(d), nu=1.7,
                       beta1=0.3 * np.eye(d) if ar else None)
        y = 2.0 * rng.standard_normal((2345, d))
        y_prev = rng.standard_normal((2345, d)) if ar else None
        geom = Geometry.of(p, y, y_prev)
        chol = linalg.cholesky(0.5 * (p.sigma + p.sigma.T), lower=True)
        w = linalg.solve_triangular(chol, (y - p.location(y_prev)).T, lower=True).T
        g = linalg.solve_triangular(chol, p.gamma, lower=True)
        np.testing.assert_array_equal(geom.delta, np.sqrt(np.sum(w * w, axis=1)))
        np.testing.assert_array_equal(geom.lin, w @ g)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_row_raises(self, bad):
        p = base_params()
        y = np.ones((50, 2))
        y[17, 1] = bad
        for fn in (log_density, mahalanobis, posterior_lambda_moments):
            with pytest.raises(ValueError):
                fn(p, y)

    def test_single_row_equals_row_of_block(self):
        p = MsvgParams(mu=np.zeros(5), sigma=0.3 + 0.7 * np.eye(5),
                       gamma=[0.1, 0.2, 0.3, 0.4, 0.5], nu=2.5)
        y = sample(p, 40, seed=4)
        block = log_density(p, y)
        for i in range(len(y)):
            assert log_density(p, y[i]) == block[i]


class TestFactorisation:
    """LAPACK potrf and BLAS trsv, called directly, give the bits of
    linalg.cholesky and linalg.solve_triangular, and the same errors."""

    def test_matches_scipy_wrappers(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            d = int(rng.integers(1, 7))
            a = rng.standard_normal((d, d))
            sigma = a @ a.T + rng.uniform(1e-3, 2.0) * np.eye(d)
            sigma[0, -1] += 1e-15 * rng.standard_normal()    # CM-step asymmetry
            p = MsvgParams(mu=np.zeros(d), sigma=sigma, gamma=rng.standard_normal(d), nu=1.0)
            chol = linalg.cholesky(0.5 * (sigma + sigma.T), lower=True)
            np.testing.assert_array_equal(_chol_lower(sigma), chol)
            geom = Geometry.of(p, np.zeros((1, d)))
            g = linalg.solve_triangular(chol, p.gamma, lower=True)
            assert geom.q_gamma == float(g @ g)
            assert geom.logdet == 2.0 * float(np.sum(np.log(np.diag(chol))))

    def test_errors(self):
        with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
            _chol_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="infs or NaNs"):
            _chol_lower(np.array([[1.0, math.nan], [math.nan, 1.0]]))
        # finite entries whose symmetrized sum overflows
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
            _chol_lower(np.array([[1.0, 1.5e308], [1.5e308, 1.0]]))


class TestLogDensity:
    def test_univariate_laplace_closed_form(self):
        # nu = 1, gamma = 0 in d = 1 is the Laplace density exp(-sqrt(2)|y|)/sqrt(2)
        p = MsvgParams(mu=[0.0], sigma=[[1.0]], gamma=[0.0], nu=1.0)
        assert log_density(p, np.array([1.0])) == pytest.approx(
            -0.5 * math.log(2.0) - math.sqrt(2.0), rel=1e-12)

    def test_center_limit_large_shape(self):
        # for nu > d/2 the density at the location approaches
        # 2^(nu-d) pi^(-d/2) |S|^(-1/2) G(nu-d/2)/G(nu) nu^nu (2nu+Q)^(-(2nu-d)/2)
        from scipy.special import gammaln
        from scipy import linalg as sl
        p = base_params()
        d, nu = 2, p.nu
        g = sl.solve_triangular(sl.cholesky(p.sigma, lower=True), p.gamma, lower=True)
        q = float(g @ g)
        logdet = float(np.linalg.slogdet(p.sigma)[1])
        expect = ((nu - d) * math.log(2.0) - 0.5 * d * math.log(math.pi)
                  - 0.5 * logdet + float(gammaln(nu - d / 2)) - float(gammaln(nu))
                  + nu * math.log(nu) - (nu - d / 2) * math.log(2 * nu + q))
        got = log_density(p, p.mu, guard=CenterGuard(1e-9))
        assert got == pytest.approx(expect, rel=1e-6)

    def test_frozen_mixture_quadrature_value(self):
        p = base_params()
        assert log_density(p, np.array([0.5, 0.5])) == pytest.approx(
            -1.6081106226320254, abs=1e-8)

    def test_mixture_identity_random_points(self):
        rng = np.random.default_rng(5)
        for params in (base_params(), base_params(nu=0.6),
                       MsvgParams(mu=[0.3], sigma=[[2.0]], gamma=[-0.4], nu=1.7)):
            pts = sample(params, 50, seed=9)
            jitter = rng.normal(scale=0.1, size=pts.shape)
            pts = pts + jitter
            got = log_density(params, pts, guard=CenterGuard(1e-12))
            for i in range(0, 50, 7):
                expect = mixture_log_density_quad(params.mu, params.sigma,
                                                  params.gamma, params.nu, pts[i])
                assert got[i] == pytest.approx(expect, abs=1e-8)

    def test_affine_scaling_closure(self):
        p = base_params(nu=1.4)
        c = 37.5
        scaled = MsvgParams(mu=c * p.mu, sigma=c * c * p.sigma,
                            gamma=c * p.gamma, nu=p.nu)
        y = np.array([[0.7, -0.4], [2.0, 1.0], [-3.0, 0.2]])
        lhs = log_density(scaled, c * y, guard=CenterGuard(1e-12))
        rhs = log_density(p, y, guard=CenterGuard(1e-12)) - 2.0 * math.log(c)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)

    def test_capped_at_center_small_shape(self):
        # unbounded density regime: the cap keeps the value finite
        p = base_params(nu=0.6)
        val = log_density(p, p.mu, guard=CenterGuard(1e-4))
        assert np.isfinite(val)
        tighter = log_density(p, p.mu, guard=CenterGuard(1e-8))
        assert tighter > val  # smaller threshold caps closer to the pole


class TestMoments:
    def test_symmetric_case(self):
        p = base_params(gamma=[0.0, 0.0])
        mean, cov = moments(p)
        np.testing.assert_allclose(mean, p.mu)
        np.testing.assert_allclose(cov, p.sigma)

    def test_simple_arithmetic(self):
        p = MsvgParams(mu=[0.0, 0.0], sigma=np.eye(2), gamma=[1.0, 0.0], nu=2.0)
        mean, cov = moments(p)
        np.testing.assert_allclose(mean, [1.0, 0.0])
        np.testing.assert_allclose(cov, [[1.5, 0.0], [0.0, 1.0]])

    def test_base_model_values(self):
        mean, cov = moments(base_params())
        np.testing.assert_allclose(mean, [0.2, 0.3])
        np.testing.assert_allclose(
            cov, np.array(BASE["sigma"]) + np.outer([0.2, 0.3], [0.2, 0.3]) / 3.0)

    def test_cov_spd(self):
        p = base_params(gamma=[2.0, -1.0], nu=0.6)
        _, cov = moments(p)
        assert np.all(np.linalg.eigvalsh(cov) > 0.0)


class TestSample:
    def test_degenerates_to_normal(self):
        p = base_params(gamma=[0.0, 0.0], nu=1e6)
        x = sample(p, 100_000, seed=2)
        np.testing.assert_allclose(np.cov(x, rowvar=False), p.sigma, atol=0.02)

    def test_matches_model_moments(self):
        p = base_params()
        n = 200_000
        x = sample(p, n, seed=7)
        mean, cov = moments(p)
        # MC standard errors from the sample itself
        se_mean = x.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(x.mean(axis=0) - mean) < 4.0 * se_mean)
        got_cov = np.cov(x, rowvar=False)
        centered = x - x.mean(axis=0)
        for i in range(2):
            for j in range(2):
                prod = centered[:, i] * centered[:, j]
                se = prod.std(ddof=1) / math.sqrt(n)
                assert abs(got_cov[i, j] - cov[i, j]) < 4.0 * se

    def test_small_shape_sampling(self):
        # gamma mixing with shape < 1
        p = base_params(nu=0.3)
        x = sample(p, 50_000, seed=3)
        mean, _ = moments(p)
        assert np.all(np.abs(x.mean(axis=0) - mean) < 0.1)

    def test_deterministic(self):
        p = base_params()
        np.testing.assert_array_equal(sample(p, 64, seed=5), sample(p, 64, seed=5))
        assert not np.array_equal(sample(p, 64, seed=5), sample(p, 64, seed=6))

    def test_ar_layout_and_default_start(self):
        p = MsvgParams(mu=[1.0, 0.0], beta1=0.4 * np.eye(2),
                       sigma=np.eye(2), gamma=[0.1, 0.2], nu=3.0)
        x = sample(p, 500, seed=11)
        assert x.shape == (500, 2)
        np.testing.assert_allclose(x[0], p.stationary_mean())
        y0 = np.array([5.0, -5.0])
        x2 = sample(p, 500, seed=11, y0=y0)
        np.testing.assert_allclose(x2[0], y0)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            sample(base_params(), 0, seed=1)


class TestPosteriorMoments:
    def test_half_integer_closed_form(self):
        # d=1, gamma=0, nu=1: index 1/2, psi=sqrt(2); at delta=1
        # E(lam) = K_{3/2}(sqrt 2) / (sqrt 2 K_{1/2}(sqrt 2)) = (1 + 1/sqrt2)/sqrt2
        p = MsvgParams(mu=[0.0], sigma=[[1.0]], gamma=[0.0], nu=1.0)
        mix = posterior_lambda_moments(p, np.array([[1.0]]))
        assert mix.e_lambda[0] == pytest.approx(
            (1.0 + 1.0 / math.sqrt(2.0)) / math.sqrt(2.0), rel=1e-12)
        assert mix.e_lambda[0] == pytest.approx(1.20711, abs=5e-6)

    def test_probabilistic_inequalities(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            a = rng.normal(size=(d, d))
            p = MsvgParams(mu=rng.normal(size=d), sigma=a @ a.T + np.eye(d),
                           gamma=rng.normal(size=d), nu=float(rng.uniform(0.3, 8.0)))
            y = sample(p, 40, seed=int(rng.integers(1 << 30)))
            mix = posterior_lambda_moments(p, y)
            assert np.all(mix.e_lambda > 0) and np.all(mix.e_inv_lambda > 0)
            assert np.all(mix.e_lambda * mix.e_inv_lambda >= 1.0 - 1e-12)
            assert np.all(mix.e_log_lambda <= np.log(mix.e_lambda) + 1e-12)

    def test_frozen_quadrature_values(self):
        # unnormalised GIG density quadrature at the bivariate base model
        p = base_params()
        mix = posterior_lambda_moments(p, np.array([[1.0, 1.0]]))
        assert mix.e_lambda[0] == pytest.approx(0.9701075007760949, abs=1e-8)
        assert mix.e_inv_lambda[0] == pytest.approx(1.340742182479298, abs=1e-8)
        assert mix.e_log_lambda[0] == pytest.approx(-0.1572224161349109, abs=1e-8)

    def test_guard_flags_and_substitution(self):
        p = base_params(nu=0.6)
        guard = CenterGuard(1e-2)
        y = np.vstack([p.mu, p.mu + 2.0])
        mix = posterior_lambda_moments(p, y, guard=guard)
        assert mix.guarded.tolist() == [True, False]
        # guarded observation behaves exactly like one at delta* = cap / psi
        g = np.linalg.solve(p.sigma, p.gamma)
        psi = math.sqrt(2.0 * p.nu + float(p.gamma @ g))
        chol = np.linalg.cholesky(p.sigma)
        y_star = p.mu + (guard.delta_cap / psi) * chol[:, 0]
        delta_star = mahalanobis(p, y_star)[0]
        assert delta_star * psi == pytest.approx(guard.delta_cap, rel=1e-12)
        mix_star = posterior_lambda_moments(p, y_star[None, :], guard=guard)
        assert mix.e_inv_lambda[0] == pytest.approx(mix_star.e_inv_lambda[0], rel=1e-9)
        assert mix.e_log_lambda[0] == pytest.approx(mix_star.e_log_lambda[0], rel=1e-9)

    @pytest.mark.parametrize("nu", [0.6, 3.0])
    def test_e_log_is_the_order_derivative(self, nu):
        # the E-step and the information share one order difference: bit for
        # bit, E(log lam) = ln(delta/psi) + K_eta^(1,0)(z) / K_eta(z)
        p = base_params(nu=nu)
        guard = CenterGuard(1e-2)
        y = np.vstack([p.mu, sample(p, 50, seed=4)])
        mix = posterior_lambda_moments(p, y, guard=guard)
        psi, eta, delta, guarded = Geometry.of(p, y).capped(p.nu, guard)
        assert guarded[0]
        log_dp = np.log(delta) - math.log(psi)
        np.testing.assert_array_equal(
            mix.e_log_lambda,
            log_dp + bessel_k_order_derivative_over_k(eta, delta * psi))

    def test_asymptotic_limits_large_shape(self):
        # as delta -> 0 with the guard disabled:
        #   E(lam)   -> (2 nu - d) / (2 nu + Q)        for nu > d/2
        #   E(1/lam) -> (2 nu + Q) / (2 nu - d - 2)    for nu > d/2 + 1
        #   E(log lam) -> psi(nu - d/2) - ln((2 nu + Q)/2)
        p = base_params(nu=3.0)
        g = np.linalg.solve(p.sigma, p.gamma)
        q = float(p.gamma @ g)
        guard = CenterGuard(1e-300)
        y = (p.mu + 1e-8 * np.array([1.0, 0.0]))[None, :]
        mix = posterior_lambda_moments(p, y, guard=guard)
        assert mix.e_lambda[0] == pytest.approx((2 * 3.0 - 2) / (2 * 3.0 + q), abs=1e-6)
        assert mix.e_inv_lambda[0] == pytest.approx((2 * 3.0 + q) / (2 * 3.0 - 4), abs=1e-4)
        assert mix.e_log_lambda[0] == pytest.approx(
            float(digamma(3.0 - 1.0)) - math.log((2 * 3.0 + q) / 2.0), abs=1e-6)

    def test_asymptotic_limits_small_shape(self):
        # for nu < d/2, E(1/lam) ~ (d - 2 nu) / delta^2 as delta -> 0
        p = base_params(nu=0.6)
        guard = CenterGuard(1e-300)
        delta_target = 1e-6
        chol = np.linalg.cholesky(p.sigma)
        y = (p.mu + delta_target * chol[:, 0])[None, :]
        delta = mahalanobis(p, y)[0]
        mix = posterior_lambda_moments(p, y, guard=guard)
        assert mix.e_inv_lambda[0] == pytest.approx(
            (2.0 - 2 * 0.6) / delta ** 2, rel=1e-3)

    def test_quadrature_agreement_random(self):
        rng = np.random.default_rng(23)
        p = base_params(nu=1.3, gamma=[0.5, -0.2])
        g = np.linalg.solve(p.sigma, p.gamma)
        psi = math.sqrt(2.0 * p.nu + float(p.gamma @ g))
        y = sample(p, 8, seed=1)
        mix = posterior_lambda_moments(p, y, guard=CenterGuard(1e-12))
        deltas = mahalanobis(p, y)
        for i in range(8):
            el, ei, elog = gig_moments_quad(p.nu - 1.0, deltas[i], psi)
            assert mix.e_lambda[i] == pytest.approx(el, abs=1e-8)
            assert mix.e_inv_lambda[i] == pytest.approx(ei, abs=1e-8)
            assert mix.e_log_lambda[i] == pytest.approx(elog, abs=1e-8)


class TestDensityGrid:
    def test_point_reflection_symmetry(self):
        p = base_params(gamma=[0.0, 0.0])
        grid = density_grid(p, (-3.0, 3.0), (-3.0, 3.0), 24)
        flipped = grid[::-1, ::-1]
        np.testing.assert_allclose(grid, flipped, rtol=1e-12)

    def test_center_cell_capped_finite(self):
        p = base_params(nu=0.6)
        grid = density_grid(p, (-0.5, 0.5), (-0.5, 0.5), 3)  # middle cell at mu
        assert np.all(np.isfinite(grid))
        assert grid[1, 1] == grid.max()

    def test_total_mass_riemann(self):
        p = base_params()
        _, cov = moments(p)
        sd = np.sqrt(np.diag(cov))
        res = 400
        xr = (p.mu[0] + 0.2 - 10 * sd[0], p.mu[0] + 0.2 + 10 * sd[0])
        yr = (p.mu[1] + 0.3 - 10 * sd[1], p.mu[1] + 0.3 + 10 * sd[1])
        grid = density_grid(p, xr, yr, res)
        area = (xr[1] - xr[0]) * (yr[1] - yr[0]) / res ** 2
        assert abs(grid.sum() * area - 1.0) < 1e-3

    def test_dimension_error(self):
        p = MsvgParams(mu=[0.0], sigma=[[1.0]], gamma=[0.0], nu=1.0)
        with pytest.raises(ValueError):
            density_grid(p, (-1, 1), (-1, 1), 8)
