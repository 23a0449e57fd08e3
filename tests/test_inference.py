import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import digamma

import msvg
from msvg.distribution import (
    CenterGuard,
    Geometry,
    MixingExpectations,
    MsvgParams,
    log_density,
    posterior_lambda_moments,
    sample,
)
from msvg.ecm import (
    FitConfig,
    accumulate_suff_stats,
    cm_step_location_skew,
    cm_step_scale,
    cm_step_shape_mcecm,
    fit,
    observed_loglik,
)
from msvg.inference import (
    InfoMatrix,
    SingularInformationError,
    aicc,
    complete_score,
    conditional_lambda_moment,
    flatten_params,
    n_free_params,
    observed_info,
    param_labels,
    standard_errors,
    unflatten_params,
    vech_indices,
)

from oracles import complete_data_loglik, gig_moment_quad, numerical_gradient, numerical_hessian

BASE = MsvgParams(mu=[0.0, 0.0], sigma=[[1.0, 0.4], [0.4, 1.0]],
                  gamma=[0.2, 0.3], nu=3.0)
# d=3 AR(1) with a non-symmetric lag matrix and distinct scale entries
AR3 = MsvgParams(mu=[0.1, -0.2, 0.3],
                 beta1=[[0.2, 0.1, 0.0], [-0.3, 0.1, 0.05], [0.0, 0.4, -0.1]],
                 sigma=[[1.0, 0.3, 0.1], [0.3, 0.9, -0.2], [0.1, -0.2, 1.1]],
                 gamma=[0.2, -0.1, 0.05], nu=2.0)


class TestParamVector:
    def test_labels_plain(self):
        assert param_labels(BASE) == [
            "mu_1", "mu_2", "sigma_11", "sigma_21", "sigma_22",
            "gamma_1", "gamma_2", "nu"]

    def test_labels_ar(self):
        p = MsvgParams(mu=[0.0, 0.0], beta1=np.zeros((2, 2)),
                       sigma=np.eye(2), gamma=[0.0, 0.0], nu=1.0)
        labels = param_labels(p)
        assert labels[:2] == ["beta0_1", "beta0_2"]
        assert labels[2:6] == ["beta1_11", "beta1_21", "beta1_12", "beta1_22"]
        assert labels[-1] == "nu"
        assert len(labels) == n_free_params(p) == 12

    @pytest.mark.parametrize("p", [BASE, AR3], ids=["plain", "ar1"])
    def test_flatten_roundtrip(self, p):
        theta = flatten_params(p)
        assert theta.shape == (n_free_params(p),)
        named = dict(zip(param_labels(p), theta))
        for i, j in vech_indices(p.d):
            assert named[f"sigma_{i + 1}{j + 1}"] == p.sigma[i, j]
        back = unflatten_params(theta, p)
        np.testing.assert_array_equal(back.mu, p.mu)
        np.testing.assert_array_equal(back.sigma, p.sigma)
        np.testing.assert_array_equal(back.gamma, p.gamma)
        assert back.nu == p.nu
        if p.ar:
            for (r, c), v in np.ndenumerate(p.beta1):
                assert named[f"beta1_{r + 1}{c + 1}"] == v
            np.testing.assert_array_equal(back.beta1, p.beta1)
        else:
            assert back.beta1 is None

    def test_vech_order(self):
        assert vech_indices(3) == [(0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2)]


class TestConditionalMoments:
    def test_plain_matches_posterior_moments(self):
        y = sample(BASE, 20, seed=1)
        mix = posterior_lambda_moments(BASE, y)
        m1 = conditional_lambda_moment(BASE, y, k=1.0, kind="plain")
        m_1 = conditional_lambda_moment(BASE, y, k=-1.0, kind="plain")
        np.testing.assert_allclose(m1, mix.e_lambda, rtol=1e-12)
        np.testing.assert_allclose(m_1, mix.e_inv_lambda, rtol=1e-12)

    def test_times_log_matches_posterior(self):
        y = sample(BASE, 10, seed=2)
        mix = posterior_lambda_moments(BASE, y)
        m = conditional_lambda_moment(BASE, y, k=0.0, kind="times_log")
        np.testing.assert_allclose(m, mix.e_log_lambda, rtol=0, atol=1e-10)

    def test_frozen_log_squared(self):
        # GIG quadrature of (log lam)^2 at the bivariate base model, y=(1,1)
        val = conditional_lambda_moment(BASE, np.array([1.0, 1.0]),
                                        kind="log_squared")
        assert val == pytest.approx(0.2881333594208336, abs=1e-5)

    def test_times_log_against_quadrature(self):
        y = np.array([0.8, -0.5])
        g = np.linalg.solve(BASE.sigma, BASE.gamma)
        psi = math.sqrt(2.0 * BASE.nu + float(BASE.gamma @ g))
        delta = Geometry.of(BASE, y).delta[0]
        for k in (1.0, -1.0):
            ours = conditional_lambda_moment(BASE, y, k=k, kind="times_log")
            ref = gig_moment_quad(BASE.nu - 1.0, delta, psi,
                                  lambda u: u * np.exp(k * u))
            assert ours == pytest.approx(ref, abs=1e-7)

    def test_cauchy_schwarz_pairs(self):
        y = sample(BASE, 15, seed=3)
        for k in (0.5, 1.0, 2.0):
            up = conditional_lambda_moment(BASE, y, k=k, kind="plain")
            dn = conditional_lambda_moment(BASE, y, k=-k, kind="plain")
            assert np.all(up * dn >= 1.0 - 1e-12)

    def test_log_second_moment_dominates(self):
        y = sample(BASE, 15, seed=4)
        m_log = conditional_lambda_moment(BASE, y, k=0.0, kind="times_log")
        m_log2 = conditional_lambda_moment(BASE, y, kind="log_squared")
        assert np.all(m_log2 >= m_log ** 2 - 1e-10)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            conditional_lambda_moment(BASE, np.zeros(2), kind="bogus")


class TestGuardedRegimeConsistency:
    """nu = 0.6 < d/2: the density is unbounded at the location, and the
    E-step, the density, the information moments and the fit's final count
    must agree on which rows sit in the delta region."""

    P = MsvgParams(mu=[0.1, -0.2], sigma=[[1.0, 0.3], [0.3, 0.8]],
                   gamma=[0.2, -0.1], nu=0.6)
    GUARD = CenterGuard(0.3)

    @pytest.fixture(scope="class")
    def y(self):
        y = sample(self.P, 200, seed=3)
        y[0] = self.P.mu            # a row exactly at the location
        return y

    @pytest.fixture(scope="class")
    def mix(self, y):
        mix = posterior_lambda_moments(self.P, y, guard=self.GUARD)
        assert mix.guarded[0] and 0 < mix.guarded.sum() < len(y)
        return mix

    def test_information_moments_equal_e_step(self, y, mix):
        np.testing.assert_array_equal(
            conditional_lambda_moment(self.P, y, k=1.0, kind="plain", guard=self.GUARD),
            mix.e_lambda)
        np.testing.assert_array_equal(
            conditional_lambda_moment(self.P, y, k=-1.0, kind="plain", guard=self.GUARD),
            mix.e_inv_lambda)

    def test_e_step_mask_is_where_the_density_is_capped(self, y, mix):
        # a threshold no row but the one at the location falls under leaves
        # every unguarded row's density as it is
        capped = (msvg.log_density(self.P, y, self.GUARD)
                  != msvg.log_density(self.P, y, CenterGuard(1e-300)))
        np.testing.assert_array_equal(mix.guarded, capped)

    def test_fit_final_count_equals_e_step_count(self, y):
        # scale_c = 1: the reported estimate is the final iterate itself
        report = fit(y, FitConfig(algorithm="mcecm", max_iter=3, scale_c=1.0,
                                  delta_cap=self.GUARD.delta_cap))
        final = posterior_lambda_moments(report.params, y, guard=self.GUARD)
        assert report.guarded_count_final == int(final.guarded.sum()) > 0


class TestCompleteScore:
    def test_scalar_toy_hand_computed(self):
        p = MsvgParams(mu=[0.2], sigma=[[0.8]], gamma=[0.4], nu=1.5)
        y = np.array([[1.3]])
        lam = np.array([0.9])
        u = 1.3 - 0.2 - 0.9 * 0.4
        expect = np.array([
            u / (0.9 * 0.8),                                  # location
            -1.0 / 1.6 + u * u / (2.0 * 0.9 * 0.64),          # scale
            u / 0.8,                                          # skew
            1.0 + math.log(1.5) - float(digamma(1.5))
            + math.log(0.9) - 0.9,                            # shape
        ])
        np.testing.assert_allclose(complete_score(p, y, lam), expect, rtol=1e-12)

    def test_zero_at_complete_data_maximizer(self):
        rng = np.random.default_rng(8)
        n, d = 50, 2
        y = rng.normal(size=(n, d))
        lam = rng.uniform(0.4, 2.0, size=n)
        mix = MixingExpectations(e_lambda=lam, e_inv_lambda=1.0 / lam,
                                 e_log_lambda=np.log(lam),
                                 guarded=np.zeros(n, dtype=bool))
        stats = accumulate_suff_stats(y, mix)
        coef, gamma = cm_step_location_skew(stats)
        mu = coef[:, 0]
        point = MsvgParams(mu=mu, sigma=np.eye(d), gamma=gamma, nu=1.0)
        mix.tag = Geometry.of(point, y).tag
        sigma = cm_step_scale(y, point, mix)
        nu = cm_step_shape_mcecm(mix, 1.0)
        p = MsvgParams(mu=mu, sigma=sigma, gamma=gamma, nu=nu)
        score = complete_score(p, y, lam)
        assert np.max(np.abs(score)) < 1e-9 * n

    def test_matches_numerical_gradient(self):
        rng = np.random.default_rng(9)
        p = replace(BASE, nu=1.7)
        y = sample(p, 30, seed=5)
        lam = rng.uniform(0.5, 2.0, size=30)
        score = complete_score(p, y, lam)

        def f(theta):
            return complete_data_loglik(unflatten_params(theta, p), y, lam)

        num = numerical_gradient(f, flatten_params(p), h=1e-7)
        np.testing.assert_allclose(score, num, rtol=1e-5, atol=1e-6)

    def test_matches_numerical_gradient_ar(self):
        rng = np.random.default_rng(10)
        p = MsvgParams(mu=[0.1, -0.2], beta1=[[0.3, 0.0], [0.1, 0.2]],
                       sigma=[[1.0, 0.3], [0.3, 0.9]], gamma=[0.2, -0.1], nu=2.2)
        data = sample(p, 41, seed=6)
        y, x = data[1:], data[:-1]
        lam = rng.uniform(0.5, 2.0, size=40)
        score = complete_score(p, y, lam, y_prev=x)

        def f(theta):
            return complete_data_loglik(unflatten_params(theta, p), y, lam, y_prev=x)

        num = numerical_gradient(f, flatten_params(p), h=1e-7)
        np.testing.assert_allclose(score, num, rtol=1e-5, atol=1e-6)


def converged_fit(n=1500, seed=42, **cfg_kw):
    data = sample(BASE, n, seed=seed)
    cfg = FitConfig(algorithm="mcecm", scale_c=1.0, tol=1e-12, max_iter=20000,
                    **cfg_kw)
    rep = fit(data, cfg)
    assert rep.converged and rep.guarded_count_final == 0
    return data, rep


class TestObservedInfo:
    def test_symmetry_and_positive_trace(self):
        data, rep = converged_fit(n=600, seed=11)
        info = observed_info(rep.params, data, guard=CenterGuard(1e-4))
        np.testing.assert_array_equal(info.matrix, info.matrix.T)
        assert np.trace(info.matrix) > 0.0
        assert info.index_map == param_labels(rep.params)

    @pytest.mark.parametrize("ar", [False, True], ids=["plain", "ar1"])
    def test_exactly_symmetric_off_the_optimum(self, ar):
        # d=3 at nu < d/2 with a wide guard: every block of the expected
        # Hessian, the scale block's off-diagonal pairs and guarded rows
        p = MsvgParams(mu=[0.1, -0.2, 0.0],
                       beta1=0.2 * np.eye(3) + 0.05 if ar else None,
                       sigma=0.6 * np.eye(3) + 0.4, gamma=[0.3, -0.1, 0.2], nu=0.8)
        data = sample(p, 120, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            info = observed_info(p, data, guard=CenterGuard(0.05))
        np.testing.assert_array_equal(info.matrix, info.matrix.T)

    @pytest.mark.parametrize("ar", [False, True], ids=["plain", "ar1"])
    def test_row_order_invariance(self, ar):
        # the rows (for AR(1) the pairs (y_i, y_{i-1})) are sorted before
        # anything is summed, so a permutation gives the same bits
        p = MsvgParams(mu=[0.1, -0.2, 0.0], beta1=0.2 * np.eye(3) + 0.05 if ar else None,
                       sigma=0.6 * np.eye(3) + 0.4, gamma=[0.3, -0.1, 0.2], nu=2.5)
        x = sample(p, 401, seed=3)
        y, y_prev = (x[1:], x[:-1]) if ar else (x, None)
        perm = np.random.default_rng(0).permutation(len(y))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            first = observed_info(p, y, y_prev)
            second = observed_info(p, y[perm], None if y_prev is None else y_prev[perm])
        np.testing.assert_array_equal(first.matrix, second.matrix)

    def test_matches_numerical_hessian(self):
        data, rep = converged_fit(n=1500, seed=42)
        guard = CenterGuard(1e-4)
        info = observed_info(rep.params, data, guard=guard)

        def negll(theta):
            return observed_loglik(data, unflatten_params(theta, rep.params),
                                   guard=guard)

        hess = -numerical_hessian(negll, flatten_params(rep.params), h=5e-4)
        scale = np.trace(info.matrix)
        mask = np.abs(info.matrix) > 1e-6 * scale
        rel = np.abs(hess - info.matrix)[mask] / np.abs(info.matrix)[mask]
        assert rel.max() < 0.05

    def test_matches_numerical_hessian_ar(self):
        true = MsvgParams(mu=[0.05, -0.05], beta1=[[0.25, 0.1], [0.0, 0.3]],
                          sigma=[[1.0, 0.4], [0.4, 1.0]], gamma=[0.2, 0.3],
                          nu=3.0)
        data = sample(true, 1501, seed=12)
        rep = fit(data, FitConfig(algorithm="mcecm", scale_c=1.0, tol=1e-12,
                                  max_iter=20000, ar_order=1))
        assert rep.converged
        guard = CenterGuard(1e-4)
        info = observed_info(rep.params, data, guard=guard)

        def negll(theta):
            return observed_loglik(data, unflatten_params(theta, rep.params),
                                   guard=guard)

        hess = -numerical_hessian(negll, flatten_params(rep.params), h=5e-4)
        scale = np.trace(info.matrix)
        mask = np.abs(info.matrix) > 1e-6 * scale
        rel = np.abs(hess - info.matrix)[mask] / np.abs(info.matrix)[mask]
        assert rel.max() < 0.05

    def test_se_scaling_under_data_scaling(self):
        # the argmax maps exactly under scaling, so compare the information
        # at the fitted parameters and at their scaled image
        data, rep = converged_fit(n=800, seed=13)
        info1 = observed_info(rep.params, data, guard=CenterGuard(1e-4))
        ses1 = standard_errors(info1)
        c = 100.0
        p = rep.params
        scaled = MsvgParams(mu=c * p.mu, sigma=c * c * p.sigma,
                            gamma=c * p.gamma, nu=p.nu)
        info2 = observed_info(scaled, c * data, guard=CenterGuard(1e-4))
        ses2 = standard_errors(info2)
        assert ses2["nu"] == pytest.approx(ses1["nu"], rel=1e-4)
        for lab in ("mu_1", "mu_2", "gamma_1", "gamma_2"):
            assert ses2[lab] == pytest.approx(c * ses1[lab], rel=1e-4)
        for lab in ("sigma_11", "sigma_21", "sigma_22"):
            assert ses2[lab] == pytest.approx(c * c * ses1[lab], rel=1e-4)

    def test_ar_zero_lag_data_within_three_se(self):
        true = MsvgParams(mu=[0.0, 0.0], beta1=np.zeros((2, 2)),
                          sigma=[[1.0, 0.4], [0.4, 1.0]], gamma=[0.2, 0.3],
                          nu=3.0)
        data = sample(true, 1501, seed=14)
        rep = fit(data, FitConfig(algorithm="mcecm", ar_order=1))
        info = observed_info(rep.params, data)
        ses = standard_errors(info)
        for r in range(2):
            for c in range(2):
                lab = f"beta1_{r + 1}{c + 1}"
                assert abs(rep.params.beta1[r, c]) < 3.0 * ses[lab], lab

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ar_at_zero_lag_nests_the_plain_information(self, d):
        # at beta1 = 0 both models share every entry outside the beta1 block
        plain = MsvgParams(mu=np.linspace(-0.1, 0.1, d), sigma=0.6 * np.eye(d) + 0.4,
                           gamma=np.linspace(0.3, -0.1, d), nu=1.2)
        data = sample(plain, 90, seed=d)
        ar = replace(plain, beta1=np.zeros((d, d)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            full = observed_info(ar, data)
            ref = observed_info(plain, data[1:]).matrix
        keep = [i for i, lab in enumerate(full.index_map) if not lab.startswith("beta1_")]
        nested = full.matrix[np.ix_(keep, keep)]
        assert np.abs(nested - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_nonfinite_moment_names_observation(self):
        p = replace(BASE, nu=0.6)
        y = np.vstack([p.mu, p.mu + 1.0])  # first row sits on the pole
        with pytest.raises(ValueError, match="observation 0"):
            observed_info(p, y, guard=CenterGuard(1e-300))


class TestStandardErrors:
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_info_matrix_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            InfoMatrix(matrix=np.diag([bad, 1.0, 2.0, 3.0]), index_map=list("abcd"))

    def test_diagonal_case(self):
        info = InfoMatrix(matrix=np.diag([4.0, 25.0]), index_map=["a", "b"])
        ses = standard_errors(info)
        assert ses["a"] == pytest.approx(0.5)
        assert ses["b"] == pytest.approx(0.2)

    def test_near_zero_eigenvalue_errors(self):
        m = np.diag([1.0, 1e-15])
        with pytest.raises(SingularInformationError, match="spectrum"):
            standard_errors(InfoMatrix(matrix=m, index_map=["a", "b"]))

    def test_ill_conditioned_warns(self):
        m = np.diag([1.0, 1e-10])
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            ses = standard_errors(InfoMatrix(matrix=m, index_map=["a", "b"]))
        assert ses["b"] == pytest.approx(1e5)


class TestAicc:
    def test_worked_example(self):
        assert aicc(-50.0, 2, 10) == pytest.approx(104.0 + 12.0 / 7.0)

    def test_zero_parameters(self):
        assert aicc(-123.0, 0, 50) == 246.0

    def test_domain(self):
        with pytest.raises(ValueError):
            aicc(-1.0, 5, 6)

    def test_monotonicity(self):
        assert aicc(-49.0, 2, 100) < aicc(-50.0, 2, 100)
        assert aicc(-50.0, 3, 100) > aicc(-50.0, 2, 100)

    def test_free_param_count(self):
        assert n_free_params(BASE) == 8
        p = MsvgParams(mu=np.zeros(5), beta1=np.zeros((5, 5)),
                       sigma=np.eye(5), gamma=np.zeros(5), nu=1.4)
        assert n_free_params(p) == 5 + 25 + 15 + 5 + 1


class TestBlockShapes:
    """One reading of a data block across the fit and the density layer: a
    1-D block is a series when d = 1 and one observation otherwise."""

    P1 = MsvgParams(mu=[0.1], sigma=[[1.0]], gamma=[0.2], nu=1.5)

    @pytest.mark.parametrize("ar", [0, 1], ids=["plain", "ar1"])
    def test_series_equals_column(self, ar):
        params = replace(self.P1, beta1=[[0.3]]) if ar else self.P1
        series = sample(params, 200, seed=11)[:, 0]
        rep = fit(series, FitConfig(algorithm="mcecm", ar_order=ar))
        column = series[:, None]
        fitted = rep.params
        if ar:
            dens = [log_density(fitted, y[1:], y_prev=y[:-1]) for y in (series, column)]
        else:
            dens = [log_density(fitted, y) for y in (series, column)]
        assert dens[0].shape == (len(series) - ar,)
        np.testing.assert_array_equal(dens[0], dens[1])
        assert observed_loglik(series, fitted) == observed_loglik(column, fitted)
        assert observed_loglik(column, fitted) == pytest.approx(rep.final_loglik, rel=1e-12)
        np.testing.assert_array_equal(observed_info(fitted, series).matrix,
                                      observed_info(fitted, column).matrix)

    def test_block_of_the_wrong_width_raises(self):
        p = MsvgParams(mu=np.zeros(3), sigma=np.eye(3), gamma=[0.1, 0.2, 0.3], nu=2.0)
        block = sample(self.P1, 40, seed=12)
        assert block.shape == (40, 1)
        for call in (lambda: log_density(p, block), lambda: observed_loglik(block, p),
                     lambda: observed_info(p, block)):
            with pytest.raises(ValueError, match="3 columns"):
                call()

    def test_one_observation_is_a_float(self):
        for p, y in ((BASE, np.array([0.3, -0.2])), (self.P1, 0.3)):
            row = np.reshape(y, (1, -1))
            assert type(log_density(p, y)) is float
            assert log_density(p, y) == log_density(p, row)[0]
            geometry = Geometry.of(p, row)
            assert type(conditional_lambda_moment(p, y, geometry=geometry)) is float
            handed = posterior_lambda_moments(p, y, geometry=geometry)
            assert handed.e_lambda.tolist() == posterior_lambda_moments(p, row).e_lambda.tolist()
