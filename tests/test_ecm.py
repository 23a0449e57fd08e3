import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

import msvg
from msvg import specfun
from msvg.distribution import (
    CenterGuard,
    Geometry,
    MsvgParams,
    posterior_lambda_moments,
    sample,
)
from msvg.ecm import (
    ALGORITHMS,
    FitConfig,
    SuffStats,
    _bounded_brent,
    accumulate_suff_stats,
    cm_step_location_skew,
    cm_step_scale,
    cm_step_shape_ecme,
    cm_step_shape_mcecm,
    fit,
    initial_params,
    observed_loglik,
)
from msvg.inference import flatten_params
from msvg.specfun import digamma, trigamma

from oracles import (
    complete_data_loglik,
    mixture_log_density_batch,
    naive_suff_stats,
    wls_ar,
    wls_location_skew,
)

BASE = MsvgParams(mu=[0.0, 0.0], sigma=[[1.0, 0.4], [0.4, 1.0]],
                  gamma=[0.2, 0.3], nu=2.5)
FIXTURE = Path(__file__).parent / "data" / "fixture_prices.csv"


def at(mu, gamma):
    """The point (mu, unit scale, gamma) that a hand-built mix is tagged with."""
    return MsvgParams(mu=mu, sigma=np.eye(len(gamma)), gamma=gamma, nu=1.0)


def make_mix(y, e_lam, e_inv, e_log=None, point=None):
    n = y.shape[0]
    tag = None
    if point is not None:
        tag = Geometry.of(point, y).tag
    return msvg.MixingExpectations(
        e_lambda=np.broadcast_to(np.asarray(e_lam, dtype=float), (n,)).copy(),
        e_inv_lambda=np.broadcast_to(np.asarray(e_inv, dtype=float), (n,)).copy(),
        e_log_lambda=(np.broadcast_to(np.asarray(e_log, dtype=float), (n,)).copy()
                      if e_log is not None else None),
        guarded=np.zeros(n, dtype=bool),
        tag=tag,
    )


class TestInitialParams:
    def test_moment_definitions(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(60, 3))
        p = initial_params(data)
        np.testing.assert_allclose(p.mu, data.mean(axis=0))
        np.testing.assert_allclose(p.sigma, np.cov(data, rowvar=False))
        np.testing.assert_array_equal(p.gamma, np.zeros(3))
        assert p.nu == 3.0

    def test_bivariate_shape_start(self):
        data = sample(BASE, 100, seed=1)
        assert initial_params(data).nu == 2.0

    def test_ar_start(self):
        data = sample(BASE, 100, seed=1)
        p = initial_params(data, ar_order=1)
        np.testing.assert_array_equal(p.beta1, np.zeros((2, 2)))
        np.testing.assert_allclose(p.mu, data.mean(axis=0))

    def test_constant_column_errors(self):
        data = np.column_stack([np.arange(30.0), np.full(30, 2.0)])
        with pytest.raises(ValueError, match="singular"):
            initial_params(data)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            initial_params(np.zeros((3, 3)) + np.eye(3))


def lagged(x):
    """The AR(1) location's regressors (1, y_{i-1}) of a lagged block."""
    return np.column_stack([np.ones(len(x)), x])


class TestSuffStats:
    def test_unit_weights(self):
        y = np.arange(12.0).reshape(6, 2)
        stats = accumulate_suff_stats(y, make_mix(y, 1.0, 1.0, 0.0))
        assert stats.s_lambda == 6.0
        assert stats.s_rr_over_lambda[0, 0] == 6.0
        np.testing.assert_array_equal(stats.s_r, [6.0])
        np.testing.assert_array_equal(stats.s_ry_over_lambda[0], stats.s_y)

    def test_two_row_toy(self):
        y = np.array([[1.0], [3.0]])
        stats = accumulate_suff_stats(y, make_mix(y, [1.0, 2.0], [1.0, 0.5]))
        assert stats.s_y[0] == 4.0
        assert stats.s_ry_over_lambda[0, 0] == 1.0 + 1.5
        assert stats.s_lambda == 3.0
        assert stats.s_rr_over_lambda[0, 0] == 1.5

    def test_matches_naive_resummation(self):
        rng = np.random.default_rng(42)
        y = rng.normal(size=(37, 3))
        x = rng.normal(size=(37, 3))
        e_lam = rng.uniform(0.2, 3.0, size=37)
        e_inv = 1.0 / e_lam + rng.uniform(0.0, 1.0, size=37)
        stats = accumulate_suff_stats(y, make_mix(y, e_lam, e_inv), lagged(x))
        ref = naive_suff_stats(y, e_lam, e_inv, r=lagged(x))
        assert set(ref) == {f.name for f in dataclasses.fields(SuffStats)}
        for name, val in ref.items():
            np.testing.assert_allclose(getattr(stats, name), val, rtol=1e-12)


class TestLocationSkewStep:
    def test_scalar_toy(self):
        # n=2, y = (0, 2), lam = (1, 4): mu = -2/3, gamma = 2/3
        y = np.array([[0.0], [2.0]])
        mix = make_mix(y, [1.0, 4.0], [1.0, 0.25])
        stats = accumulate_suff_stats(y, mix)
        coef, gamma = cm_step_location_skew(stats)
        assert coef.shape == (1, 1)
        assert coef[0, 0] == pytest.approx(-2.0 / 3.0, rel=1e-14)
        assert gamma[0] == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_matches_wls_oracle(self):
        rng = np.random.default_rng(7)
        n, d = 50, 2
        lam = np.where(rng.random(n) < 0.5, 0.5, 2.0)
        y = rng.normal(size=(n, d)) + np.outer(lam, [0.3, -0.7])
        mix = make_mix(y, lam, 1.0 / lam)
        stats = accumulate_suff_stats(y, mix)
        coef, gamma = cm_step_location_skew(stats)
        mu_ref, gamma_ref = wls_location_skew(y, lam)
        np.testing.assert_allclose(coef[:, 0], mu_ref, rtol=1e-10)
        np.testing.assert_allclose(gamma, gamma_ref, rtol=1e-10)

    def test_plain_step_is_the_closed_form(self):
        # for r = (1) the step is the 2x2 closed form bit for bit, so that
        # plain-model fits do not move by round-off
        rng = np.random.default_rng(17)
        n, d = 57, 3
        lam = rng.uniform(0.3, 3.0, size=n)
        y = rng.normal(size=(n, d)) + np.outer(lam, [0.2, -0.1, 0.4])
        stats = accumulate_suff_stats(y, make_mix(y, lam, 1.0 / lam + 0.1))
        coef, gamma = cm_step_location_skew(stats)
        s_inv, s_yw = stats.s_rr_over_lambda[0, 0], stats.s_ry_over_lambda[0]
        mu = (s_yw * stats.s_lambda - n * stats.s_y) / (s_inv * stats.s_lambda - float(n) ** 2)
        np.testing.assert_array_equal(coef[:, 0], mu)
        np.testing.assert_array_equal(gamma, (stats.s_y - n * mu) / stats.s_lambda)

    def test_equal_weights_degenerate(self):
        # the system is 0/0; its limit is the weighted mean and zero skew
        y = np.column_stack([np.arange(10.0), np.arange(10.0) ** 2])
        stats = accumulate_suff_stats(y, make_mix(y, 2.0, 0.5))
        coef, gamma = cm_step_location_skew(stats)
        mu = coef[:, 0]
        np.testing.assert_array_equal(
            mu, stats.s_ry_over_lambda[0] / stats.s_rr_over_lambda[0, 0])
        np.testing.assert_allclose(mu, y.mean(axis=0), rtol=1e-15)
        np.testing.assert_array_equal(gamma, np.zeros(2))

    def test_nonfinite_system_raises(self):
        y = np.array([[0.0], [2.0], [1.0]])
        stats = accumulate_suff_stats(y, make_mix(y, [1.0, 4.0, 2.0], [1.0, np.inf, 0.5]))
        with pytest.raises(np.linalg.LinAlgError, match="location system is not finite"):
            cm_step_location_skew(stats)


class TestArStep:
    def test_scalar_toy_hand_solved(self):
        # d=1 toy; n=3 is the smallest non-singular case (three regressors:
        # intercept, lag, mixing weight).  Hand-accumulated system:
        # y=(1, 2, 0), x=(0.5, -1, 2), lam=(1, 2, 1)
        y = np.array([[1.0], [2.0], [0.0]])
        x = np.array([[0.5], [-1.0], [2.0]])
        lam = np.array([1.0, 2.0, 1.0])
        stats = accumulate_suff_stats(y, make_mix(y, lam, 1.0 / lam), lagged(x))
        m = np.array([[2.5, 2.0, 3.0],
                      [2.0, 4.75, 1.5],
                      [3.0, 1.5, 4.0]])
        rhs = np.array([2.0, -0.5, 3.0])
        ref = np.linalg.solve(m, rhs)
        coef, gamma = cm_step_location_skew(stats)
        assert coef[0, 0] == pytest.approx(ref[0], rel=1e-12)
        assert coef[0, 1] == pytest.approx(ref[1], rel=1e-12)
        assert gamma[0] == pytest.approx(ref[2], rel=1e-12)

    def test_matches_generic_wls(self):
        rng = np.random.default_rng(3)
        n, d = 80, 3
        lam = rng.uniform(0.3, 3.0, size=n)
        x = rng.normal(size=(n, d))
        y = rng.normal(size=(n, d)) + 0.5 * x + np.outer(lam, [0.2, 0.0, -0.4])
        stats = accumulate_suff_stats(y, make_mix(y, lam, 1.0 / lam), lagged(x))
        coef, gamma = cm_step_location_skew(stats)
        b0_ref, b1_ref, g_ref = wls_ar(y, x, lam)
        np.testing.assert_allclose(coef[:, 0], b0_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(coef[:, 1:], b1_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(gamma, g_ref, rtol=1e-10, atol=1e-12)

    def test_lag_free_data_agrees_with_plain_step(self):
        # the step on r = (1, x) and on r = (1) of data with no lag effect
        rng = np.random.default_rng(11)
        n, d = 4000, 2
        lam = rng.uniform(0.3, 3.0, size=n)
        x = rng.normal(size=(n, d))
        y = rng.normal(size=(n, d)) + np.outer(lam, [0.5, -0.1]) + 0.7
        mix = make_mix(y, lam, 1.0 / lam)
        coef, gamma = cm_step_location_skew(accumulate_suff_stats(y, mix, lagged(x)))
        coef_ref, gamma_ref = cm_step_location_skew(accumulate_suff_stats(y, mix))
        assert coef.shape == (d, 1 + d) and coef_ref.shape == (d, 1)
        assert np.max(np.abs(coef[:, 1:])) < 0.05
        np.testing.assert_allclose(coef[:, 0], coef_ref[:, 0], atol=0.05)
        np.testing.assert_allclose(gamma, gamma_ref, atol=0.05)

    def test_equal_weights_limit(self):
        # equal weights make lam a multiple of the intercept: the limit is
        # zero skew and the least squares of y on (1, y_prev)
        rng = np.random.default_rng(5)
        n, d = 30, 2
        x = rng.normal(size=(n, d))
        y = rng.normal(size=(n, d)) + 0.4 * x
        stats = accumulate_suff_stats(y, make_mix(y, 2.0, 0.5), lagged(x))
        coef, gamma = cm_step_location_skew(stats)
        ref = np.linalg.lstsq(lagged(x), y, rcond=None)[0]
        np.testing.assert_allclose(coef, ref.T, rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(gamma, np.zeros(d))

    def test_singular_system(self):
        y = np.array([[1.0], [2.0], [3.0]])
        x = np.zeros((3, 1))
        lam = np.ones(3)
        stats = accumulate_suff_stats(y, make_mix(y, lam, lam), lagged(x))
        with pytest.raises(np.linalg.LinAlgError,
                           match="location system is singular: the regressors are collinear"):
            cm_step_location_skew(stats)


class TestScaleStep:
    def test_unit_weights_recover_biased_covariance(self):
        rng = np.random.default_rng(19)
        y = rng.normal(size=(40, 2))
        mu = y.mean(axis=0)
        gamma = np.zeros(2)
        mix = make_mix(y, 1.0, 1.0, point=at(mu, gamma))
        sigma = cm_step_scale(y, at(mu, gamma), mix)
        centered = y - mu
        np.testing.assert_allclose(sigma, centered.T @ centered / 40.0, rtol=1e-12)

    def test_two_row_toy(self):
        y = np.array([[0.0], [2.0]])
        mu = np.array([-2.0 / 3.0])
        gamma = np.array([2.0 / 3.0])
        mix = make_mix(y, [1.0, 4.0], [1.0, 0.25], point=at(mu, gamma))
        sigma = cm_step_scale(y, at(mu, gamma), mix)
        expect = 0.5 * (1.0 * (2.0 / 3.0) ** 2 + 0.25 * (8.0 / 3.0) ** 2) \
            - 0.5 * (2.0 / 3.0) ** 2 * 5.0
        assert sigma[0, 0] == pytest.approx(max(expect, 0.0), rel=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(4)
        n, d = 33, 3
        y = rng.normal(size=(n, d))
        mu = rng.normal(size=d)
        gamma = rng.normal(size=d) * 0.1
        e_lam = rng.uniform(0.5, 2.0, size=n)
        e_inv = 1.0 / e_lam + rng.uniform(0.0, 0.5, size=n)
        mix = make_mix(y, e_lam, e_inv, point=at(mu, gamma))
        sigma = cm_step_scale(y, at(mu, gamma), mix)
        ref = np.zeros((d, d))
        for i in range(n):
            ref += e_inv[i] * np.outer(y[i] - mu, y[i] - mu)
        ref = ref / n - np.outer(gamma, gamma) * e_lam.sum() / n
        np.testing.assert_allclose(sigma, ref, rtol=1e-12)

    def test_stale_expectations_rejected(self):
        y = np.random.default_rng(1).normal(size=(20, 2))
        mu_old = np.zeros(2)
        mix = make_mix(y, 1.0, 1.0, point=at(mu_old, np.zeros(2)))
        with pytest.raises(ValueError, match="stale"):
            cm_step_scale(y, at(mu_old + 0.1, np.zeros(2)), mix)

    def test_spd_floor(self):
        # weights that would make the update indefinite get floored
        y = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
        gamma = np.array([2.0, -2.0])
        mu = np.zeros(2)
        mix = make_mix(y, 10.0, 0.1, point=at(mu, gamma))
        sigma = cm_step_scale(y, at(mu, gamma), mix)
        assert np.all(np.linalg.eigvalsh(sigma) > 0.0)


class TestShapeSteps:
    def test_newton_plug_in_root(self):
        # population gamma moments: S_lam = n, S_loglam = n (psi(nu0) - ln nu0)
        nu0 = 1.7
        n = 100
        mix = make_mix(np.zeros((n, 1)), 1.0, 1.0, float(digamma(nu0)) - math.log(nu0))
        nu = cm_step_shape_mcecm(mix, nu_current=1.0)
        assert nu == pytest.approx(nu0, rel=1e-9)

    def test_score_slope_matches_finite_difference(self):
        from msvg.ecm import _gamma_score
        n, s_lam, s_log = 50, 55.0, -8.0
        for nu in (0.2, 1.0, 7.0):
            h = 1e-6 * nu
            fd = (_gamma_score(nu + h, n, s_lam, s_log)
                  - _gamma_score(nu - h, n, s_lam, s_log)) / (2.0 * h)
            analytic = n * (1.0 / nu - float(trigamma(nu)))
            assert fd == pytest.approx(analytic, rel=1e-6)

    def test_extreme_log_stat_hits_lower_bound(self):
        # a guarded weight near zero drives S_loglam to a huge negative value
        n = 100
        mix = make_mix(np.zeros((n, 1)), 1.0, 1.0, -1e8 / n)
        assert cm_step_shape_mcecm(mix, nu_current=1.0) == 1e-4

    def test_ecme_recovers_shape(self):
        true = replace(BASE, nu=3.0)
        y = sample(true, 5000, seed=24)
        guard = CenterGuard(1e-4)
        start = replace(true, nu=1.0)
        nu = cm_step_shape_ecme(y, start, guard)
        assert abs(nu - 3.0) < 0.15
        # grid-scan oracle at resolution 1e-3 around the returned point
        grid = np.arange(nu - 0.05, nu + 0.05, 1e-3)
        lls = [float(np.sum(msvg.log_density(replace(true, nu=v), y, guard=guard)))
               for v in grid]
        assert abs(grid[int(np.argmax(lls))] - nu) <= 2e-3

    def test_ecme_monotone_edge_returns_bound(self):
        # from nu=1 the warm bracket widens four times before it reaches the
        # bound; a start above the bound is clipped to it, so the bracket's
        # upper edge is the bound from the start
        y = np.array([[-1.0], [1.0], [-1.0]])
        for start in (1.0, 1000.0):
            q = MsvgParams(mu=[-1.0 / 3.0], sigma=[[8.0 / 9.0]], gamma=[0.0], nu=start)
            nu = cm_step_shape_ecme(y, q, CenterGuard(1e-4))
            assert nu == pytest.approx(200.0, abs=1e-5)

    @pytest.mark.parametrize("ar", [False, True], ids=["plain", "ar1"])
    def test_ecme_equals_per_trial_density_search(self, ar):
        y, y_prev, start, guard = shape_step_case(ar)

        # the bounded search written out with one full density per trial,
        # summed as the shape step sums, in row order, over the warm
        # bracket sequence: [nu/2, 2 nu] around the start nu=4, whose
        # optimum sits on the inner edge 2, then that bracket widened by 4
        def negll(v):
            return -float(np.add.reduce(msvg.log_density(replace(start, nu=v), y, guard, y_prev)))

        first, widened = (optimize.minimize_scalar(negll, bounds=b, method="bounded",
                                                   options={"xatol": 1e-6}).x
                          for b in [(2.0, 8.0), (0.5, 32.0)])
        assert first - 2.0 < 1e-5
        assert 0.5 + 1e-5 < widened < 32.0 - 1e-5
        assert cm_step_shape_ecme(y, start, guard, y_prev=y_prev) == float(widened)

    @pytest.mark.parametrize("case", ["plain", "ar1", "guarded"])
    def test_ecme_warm_matches_full_range_search(self, case):
        if case == "guarded":
            true = replace(BASE, nu=0.6)
            y, y_prev, guard = sample(true, 400, seed=7), None, CenterGuard(1e-7)
            start = replace(true, mu=np.array([0.02, -0.03]), nu=1.0)
        else:
            y, y_prev, start, guard = shape_step_case(case == "ar1")
        geometry = Geometry.of(start, y, y_prev)

        def loglik(v):
            return float(np.add.reduce(geometry.log_density(v, guard)))

        cold = _bounded_brent(lambda v: -loglik(v), 1e-4, 200.0, xatol=1e-6)
        warm = cm_step_shape_ecme(y, start, guard, y_prev=y_prev,
                                  geometry=geometry)
        assert loglik(warm) >= loglik(cold) - 1e-10 * abs(loglik(cold))

    def test_ecme_warm_step_at_converged_nu_is_cheaper(self, monkeypatch):
        y = sample(BASE, 800, seed=5)
        rep = fit(y, FitConfig(algorithm="ecme", scale_c=1.0))
        assert rep.converged
        guard = CenterGuard.default_for_dim(2)
        geometry = Geometry.of(rep.params, y)
        calls = []
        density = Geometry.log_density

        def counted(self, nu, guard=None):
            calls.append(nu)
            return density(self, nu, guard)

        monkeypatch.setattr(Geometry, "log_density", counted)
        warm = cm_step_shape_ecme(y, rep.params, guard, geometry=geometry)
        n_warm = len(calls)
        cold = _bounded_brent(lambda v: -float(np.add.reduce(geometry.log_density(v, guard))),
                              1e-4, 200.0, xatol=1e-6)
        assert n_warm < len(calls) - n_warm
        assert warm == pytest.approx(cold, abs=1e-5)

    def test_ecme_agrees_with_converged_mcecm(self):
        # near a stationary point the actual-likelihood shape step barely
        # moves; tol picked so the shape direction itself has settled
        y = sample(BASE, 800, seed=5)
        rep = fit(y, FitConfig(algorithm="mcecm", scale_c=1.0, tol=1e-11,
                               max_iter=20000))
        assert rep.converged and rep.params.nu > 1.0
        nu = cm_step_shape_ecme(y, rep.params, CenterGuard.default_for_dim(2))
        assert abs(nu - rep.params.nu) < 1e-3


def shape_step_case(ar):
    """Data, lagged rows, start point and guard of the ECME shape-step tests:
    nu=1.5 data, searched from nu=4."""
    true = replace(BASE, nu=1.5, beta1=[[0.4, 0.1], [-0.2, 0.3]] if ar else None)
    x = sample(true, 501, seed=32)
    y, y_prev = (x[1:], x[:-1]) if ar else (x, None)
    return y, y_prev, replace(true, mu=np.array([0.05, -0.1]), nu=4.0), CenterGuard(1e-3)


def recorded(func):
    """``func`` plus the list of points it was called at, in call order."""
    calls = []

    def wrapped(x):
        calls.append(float(x))
        return func(x)

    return wrapped, calls


def random_multimodal(rng):
    """A sum of random sinusoids on a random parabola, and random bounds."""
    k = int(rng.integers(1, 5))
    amp, freq, phase = rng.uniform(0.1, 2.0, k), rng.uniform(0.5, 30.0, k), rng.uniform(0, 6.3, k)
    curv, centre = rng.uniform(0.0, 3.0), rng.uniform(-2.0, 2.0)

    def f(x):
        return float(np.sum(amp * np.sin(freq * x + phase)) + curv * (x - centre) ** 2)

    lo = rng.uniform(-3.0, 1.0)
    return f, lo, lo + rng.uniform(0.01, 4.0)


class TestBoundedBrent:
    """The in-package bounded search against SciPy's, its reference: the same
    trial points in the same order (so the same call count) and the same
    returned point, bit for bit."""

    @staticmethod
    def assert_same_search(func, lo, hi, xatol):
        ours, our_calls = recorded(func)
        theirs, their_calls = recorded(func)
        x = _bounded_brent(ours, lo, hi, xatol=xatol)
        ref = optimize.minimize_scalar(theirs, bounds=(lo, hi), method="bounded",
                                       options={"xatol": xatol})
        assert our_calls == their_calls
        assert x == float(ref.x)
        assert len(our_calls) == ref.nfev

    @pytest.mark.parametrize("func, lo, hi", [
        (lambda x: (x - 0.3) ** 2 + 1.0, -1.0, 2.0),
        (lambda x: x, -1.0, 2.0),
        (lambda x: -x, -1.0, 2.0),
        (lambda x: 5.0, -1.0, 2.0),
        (lambda x: abs(x - 0.7), 0.0, 1.0),
        (lambda x: math.nan if x > 0.6 else (x - 0.2) ** 2, 0.0, 1.0),
        (lambda x: math.nan if x < 0.5 else (x - 0.8) ** 2, 0.0, 1.0),
        (lambda x: math.inf if x < 0.5 else (x - 0.8) ** 2, 0.0, 1.0),
    ], ids=["quadratic", "lower-bound", "upper-bound", "constant", "abs",
            "nan-above", "nan-at-first-trial", "inf-below"])
    @pytest.mark.parametrize("xatol", [1e-10, 1e-6, 1e-4])
    # inf - inf in the parabola of the inf case, in both searches
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_equals_scipy_on_shapes(self, func, lo, hi, xatol):
        self.assert_same_search(func, lo, hi, xatol)

    def test_equals_scipy_on_random_multimodal(self):
        rng = np.random.default_rng(20150405)
        for _ in range(300):
            func, lo, hi = random_multimodal(rng)
            self.assert_same_search(func, lo, hi, 10.0 ** rng.uniform(-10.0, -4.0))

    def test_fit_imports_no_scipy_optimize(self):
        script = textwrap.dedent("""
            import sys
            import msvg, msvg.cli
            p = msvg.MsvgParams(mu=[0.0, 0.0], sigma=[[1.0, 0.4], [0.4, 1.0]],
                                gamma=[0.2, 0.3], nu=2.5)
            report = msvg.fit(msvg.sample(p, 200, seed=0), msvg.FitConfig(algorithm="hecm"))
            assert report.switch_iter is not None, "HECM never switched to ECME"
            loaded = sorted(m for m in sys.modules if m.startswith("scipy.optimize"))
            assert not loaded, loaded
        """)
        src = str(Path(msvg.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr


class TestObservedLoglik:
    def test_single_observation(self):
        y = np.array([[0.4, -0.2]])
        assert observed_loglik(y, BASE) == pytest.approx(
            float(msvg.log_density(BASE, y[0])), rel=1e-14)

    def test_additivity_on_duplication(self):
        y = sample(BASE, 50, seed=2)
        one = observed_loglik(y, BASE)
        two = observed_loglik(np.vstack([y, y]), BASE)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_matches_quadrature_sum(self):
        y = sample(BASE, 1000, seed=77)
        ours = observed_loglik(y, BASE, guard=CenterGuard(1e-12))
        oracle = float(np.sum(mixture_log_density_batch(
            BASE.mu, BASE.sigma, BASE.gamma, BASE.nu, y)))
        assert ours == pytest.approx(oracle, abs=1e-6)

    def test_ar_conditions_on_first_row(self):
        p = msvg.MsvgParams(mu=[0.1], beta1=[[0.4]], sigma=[[1.0]],
                            gamma=[0.0], nu=2.0)
        data = sample(p, 40, seed=9)
        full = observed_loglik(data, p)
        explicit = observed_loglik(data[1:], p, y_prev=data[:-1])
        assert full == explicit


class TestFit:
    def test_recovers_base_model_one_seed(self):
        true = BASE
        data = sample(true, 1000, seed=101)
        rep = fit(data, FitConfig(algorithm="hecm", scale_c=1.0))
        assert rep.converged
        p = rep.params
        tol = dict(mu=0.1, sigma_d=0.1, sigma_o=0.1, gamma=0.15, nu=0.6)
        assert np.all(np.abs(p.mu - true.mu) < tol["mu"])
        assert abs(p.sigma[0, 0] - 1.0) < tol["sigma_d"]
        assert abs(p.sigma[1, 1] - 1.0) < tol["sigma_d"]
        assert abs(p.sigma[0, 1] - 0.4) < tol["sigma_o"]
        assert np.all(np.abs(p.gamma - true.gamma) < tol["gamma"])
        assert abs(p.nu - true.nu) < tol["nu"]

    def test_monotone_ascent_all_algorithms(self):
        data = sample(BASE, 600, seed=31)
        for alg in ("mcecm", "ecme", "hecm"):
            rep = fit(data, FitConfig(algorithm=alg))
            trace = rep.loglik_trace
            slack = 1e-8 * (np.abs(trace[1:]) + 1.0)
            assert np.all(np.diff(trace) >= -slack), alg

    def test_monotone_ascent_guarded_regime(self):
        true = replace(BASE, nu=0.6)
        data = sample(true, 600, seed=13)
        rep = fit(data, FitConfig(algorithm="hecm", delta_cap=1e-4))
        trace, guarded = rep.loglik_trace, rep.guarded_trace
        for t in range(1, len(guarded)):
            if guarded[t] == guarded[t - 1]:
                assert trace[t + 1] - trace[t] >= -1e-8 * (abs(trace[t + 1]) + 1.0)

    def test_scale_equivariance(self):
        data = sample(BASE, 500, seed=8)
        cfg = FitConfig(algorithm="mcecm", tol=1e-300, max_iter=40)
        rep1 = fit(data, cfg)
        rep2 = fit(100.0 * data, cfg)
        c = 100.0
        np.testing.assert_allclose(rep2.params.mu, c * rep1.params.mu, rtol=1e-8)
        np.testing.assert_allclose(rep2.params.sigma, c * c * rep1.params.sigma,
                                   rtol=1e-8)
        np.testing.assert_allclose(rep2.params.gamma, c * rep1.params.gamma,
                                   rtol=1e-8, atol=1e-12)
        assert rep2.params.nu == pytest.approx(rep1.params.nu, rel=1e-8)

    def test_hecm_at_least_matches_mcecm(self):
        for seed in (1, 2, 3):
            data = sample(BASE, 500, seed=seed)
            ll_m = fit(data, FitConfig(algorithm="mcecm")).final_loglik
            ll_h = fit(data, FitConfig(algorithm="hecm")).final_loglik
            assert ll_h >= ll_m - 1e-6 * abs(ll_m)

    def test_hecm_switch_bookkeeping(self):
        data = sample(BASE, 500, seed=4)
        rep = fit(data, FitConfig(algorithm="hecm"))
        assert rep.switch_iter is not None
        assert rep.conv_iter > rep.switch_iter  # at least one ECME cycle ran
        assert fit(data, FitConfig(algorithm="mcecm")).switch_iter is None

    def test_permutation_invariance(self):
        # fit sorts the rows before anything is summed, so every algorithm's
        # whole trajectory is the same bits under any row order
        data = sample(BASE, 400, seed=6)
        shuffled = data[np.random.default_rng(0).permutation(400)]
        for algorithm in ALGORITHMS:
            cfg = FitConfig(algorithm=algorithm)
            rep1, rep2 = fit(data, cfg), fit(shuffled, cfg)
            np.testing.assert_array_equal(flatten_params(rep1.params),
                                          flatten_params(rep2.params))
            np.testing.assert_array_equal(rep1.loglik_trace, rep2.loglik_trace)

    def test_init_override_in_data_scale(self):
        data = sample(BASE, 600, seed=14) / 100.0
        init = MsvgParams(mu=BASE.mu / 100.0, sigma=BASE.sigma / 1e4,
                          gamma=BASE.gamma / 100.0, nu=BASE.nu)
        rep = fit(data, FitConfig(algorithm="mcecm", init=init))
        assert rep.converged
        assert abs(rep.params.nu - BASE.nu) < 1.0

    def test_ar_fit_recovers_lag_matrix(self):
        true = msvg.MsvgParams(mu=[0.1, -0.05], beta1=[[0.3, 0.1], [0.0, 0.2]],
                               sigma=[[1.0, 0.4], [0.4, 1.0]],
                               gamma=[0.2, 0.3], nu=2.5)
        data = sample(true, 2001, seed=15)
        rep = fit(data, FitConfig(algorithm="hecm", ar_order=1, scale_c=1.0))
        assert rep.converged
        assert rep.n_obs == 2000
        np.testing.assert_allclose(rep.params.beta1, true.beta1, atol=0.12)
        np.testing.assert_allclose(rep.params.sigma, true.sigma, atol=0.15)

    @pytest.mark.parametrize("seed, max_iter", [(3, 5000), (5, 5000), (3, 122)],
                             ids=["3", "5", "3-max_iter122"])
    def test_degenerate_ar_panel_stops_on_a_nonfinite_loglik(self, seed, max_iter):
        # 52-row d=5 AR(1) panels on which a row collapses onto the location:
        # nu sits at its lower bound and l turns NaN, which the fit neither
        # runs past nor returns (its last cycle when max_iter is 122)
        params = MsvgParams(mu=np.zeros(5), beta1=0.2 * np.eye(5),
                            sigma=0.7 * np.eye(5) + 0.3, gamma=np.linspace(0.1, 0.5, 5),
                            nu=2.5)
        data = sample(params, 52, seed=seed)
        with pytest.raises(FloatingPointError,
                           match=r"log-likelihood is not finite at cycle \d+ \(nu = 0\.0001\)"):
            fit(data, FitConfig(ar_order=1, max_iter=max_iter))

    def test_nonfinite_starting_loglik_raises(self, monkeypatch):
        monkeypatch.setattr(msvg.ecm, "observed_loglik", lambda *args, **kwargs: math.nan)
        with pytest.raises(FloatingPointError, match=r"not finite at cycle 0 \(nu = 2\)"):
            fit(sample(BASE, 200, seed=1))

    def test_univariate_hecm_line_search(self):
        true = MsvgParams(mu=[0.0], sigma=[[1.0]], gamma=[0.2], nu=1.0)
        data = sample(true, 1500, seed=16)
        rep = fit(data, FitConfig(algorithm="hecm"))
        assert rep.converged
        assert abs(rep.params.mu[0]) < 0.15
        assert abs(rep.params.nu - 1.0) < 0.25

    def test_univariate_hecm_search_beats_mcecm(self):
        # At nu < 1 the d=1 density has a cusp at its location; the location
        # search reaches a higher likelihood than MCECM's CM steps alone.
        data = sample(MsvgParams(mu=[0.0], sigma=[[1.0]], gamma=[0.2], nu=0.6), 300, seed=9)
        hecm = fit(data, FitConfig(algorithm="hecm"))
        mcecm = fit(data, FitConfig(algorithm="mcecm"))
        assert hecm.converged
        assert hecm.final_loglik > mcecm.final_loglik + 1.0

    def test_error_paths(self):
        with pytest.raises(ValueError, match="finite"):
            fit(np.array([[1.0, np.nan]] * 40))
        with pytest.raises(ValueError, match="observations per"):
            fit(np.random.default_rng(0).normal(size=(15, 2)))
        data = np.column_stack([np.arange(50.0), np.full(50, 3.0)])
        with pytest.raises(ValueError, match="singular"):
            fit(data)

    @pytest.mark.parametrize("max_iter", [2.5, 5000.0, "10", True, 0])
    def test_config_rejects_bad_max_iter(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            FitConfig(max_iter=max_iter)

    @pytest.mark.parametrize("kwargs, message", [
        ({"tol": math.inf}, "tol must be positive and finite"),
        ({"scale_c": math.inf}, "scale_c must be positive and finite"),
        ({"delta_cap": -1.0}, "delta threshold must be positive"),
        ({"ar_order": True}, "ar_order must be the integer 0 or 1"),
        ({"ar_order": 1.0}, "ar_order must be the integer 0 or 1"),
    ], ids=["tol-inf", "scale_c-inf", "delta_cap-negative", "ar_order-bool",
            "ar_order-float"])
    def test_config_rejects_out_of_range_values(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            FitConfig(**kwargs)

    def test_init_must_match_ar_order(self):
        data = sample(BASE, 200, seed=31)
        with pytest.raises(ValueError, match="lack the AR"):
            fit(data, FitConfig(ar_order=1, init=initial_params(data)))
        with pytest.raises(ValueError, match="carry the AR"):
            fit(data, FitConfig(ar_order=0, init=initial_params(data, ar_order=1)))

    def test_report_fields(self):
        data = sample(BASE, 400, seed=30)
        rep = fit(data, FitConfig(algorithm="mcecm"))
        assert rep.loglik_trace.shape == (rep.conv_iter + 1,)
        assert rep.final_loglik == rep.loglik_trace[-1]
        assert rep.wall_time > 0.0
        assert rep.guarded_count_final >= 0
        assert rep.algorithm == "mcecm"
        assert rep.n_obs == 400


def differing_fields(a, b, prefix="") -> list[str]:
    """Names of the fields in which two reports (or parameter sets) differ,
    bit for bit; the wall time is not compared."""
    out = []
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        name = prefix + f.name
        if f.name == "wall_time":
            continue
        if dataclasses.is_dataclass(x) and dataclasses.is_dataclass(y):
            out += differing_fields(x, y, name + ".")
        elif x is None or y is None:
            if x is not y:
                out.append(name)
        elif type(x) is not type(y):
            out.append(name)
        else:
            u, v = np.asarray(x), np.asarray(y)
            if u.dtype != v.dtype or u.shape != v.shape or u.tobytes() != v.tobytes():
                out.append(name)
    return out


def fixture_values():
    return msvg.load_returns(FIXTURE, date_column="date").values


class TestMcecmStage:
    @pytest.mark.parametrize("case", [
        "fixture", "fixture_ar1", "nu0.6_delta1e-7", "nu0.6_delta1e-4", "nu0.6_default",
        "max_iter", "max_iter_after_switch", "max_iter_at_switch"])
    def test_stage_is_the_mcecm_fit(self, case):
        guarded = sample(replace(BASE, nu=0.6), 400, seed=5)
        plain = sample(BASE, 400, seed=5)  # HECM switches at cycle 30
        data, config = {
            "fixture": (fixture_values(), FitConfig(tol=1e-6)),
            "fixture_ar1": (fixture_values(), FitConfig(tol=1e-6, ar_order=1)),
            "nu0.6_delta1e-7": (guarded, FitConfig(delta_cap=1e-7)),
            "nu0.6_delta1e-4": (guarded, FitConfig(delta_cap=1e-4)),
            "nu0.6_default": (guarded, FitConfig()),
            # stops at max_iter before the stopping test fires
            "max_iter": (guarded, FitConfig(max_iter=5)),
            # runs out in the ECME stage
            "max_iter_after_switch": (plain, FitConfig(max_iter=31)),
            # runs out on the switch cycle: the report is the MCECM stop
            "max_iter_at_switch": (plain, FitConfig(max_iter=30)),
        }[case]
        hecm = fit(data, replace(config, algorithm="hecm"))
        mcecm = fit(data, replace(config, algorithm="mcecm"))
        stage = hecm.mcecm_stage
        assert stage is not None
        assert differing_fields(stage, mcecm) == []
        assert stage.switch_iter is None and stage.mcecm_stage is None
        if case == "max_iter":
            assert hecm.switch_iter is None and not stage.converged
            assert stage.conv_iter == hecm.conv_iter == 5
        else:
            assert stage.converged and stage.conv_iter == hecm.switch_iter
            np.testing.assert_array_equal(
                hecm.loglik_trace[:hecm.switch_iter + 1], stage.loglik_trace)
        if case.startswith("max_iter_"):
            assert hecm.switch_iter == 30 and not hecm.converged
            assert hecm.conv_iter == config.max_iter
        assert 0.0 < stage.wall_time <= hecm.wall_time
        # the report is the iterate whose l ends the trace
        guard = None if config.delta_cap is None else CenterGuard(config.delta_cap)
        assert hecm.final_loglik == pytest.approx(
            observed_loglik(data, hecm.params, guard), rel=1e-12)
        if case == "max_iter_at_switch":
            assert differing_fields(hecm.params, stage.params) == []

    def test_no_stage_outside_hecm(self):
        data = sample(BASE, 300, seed=2)
        for algorithm in ("mcecm", "ecme"):
            assert fit(data, FitConfig(algorithm=algorithm)).mcecm_stage is None
        # the d=1 HECM fit searches the location in its first stage
        univariate = sample(MsvgParams(mu=[0.0], sigma=[[1.0]], gamma=[0.2], nu=1.0),
                            300, seed=3)
        rep = fit(univariate, FitConfig(algorithm="hecm"))
        assert rep.switch_iter is not None
        assert rep.mcecm_stage is None
        rep = fit(univariate, FitConfig(algorithm="hecm", max_iter=5))
        assert rep.switch_iter is None
        assert rep.mcecm_stage is None


class TestBesselMemo:
    """The ln K memo only saves evaluations: with no entry kept (the memo
    is empty at every call), each fit and its information have the same
    bits as the default run."""

    @pytest.mark.parametrize("case", [
        "mcecm", "ecme", "hecm", "mcecm_ar1", "ecme_ar1", "hecm_ar1", "hecm_nu0.6"])
    def test_results_do_not_depend_on_the_memo(self, monkeypatch, case):
        algorithm, _, kind = case.partition("_")
        true = {"": BASE, "ar1": replace(BASE, beta1=0.2 * np.eye(2)),
                "nu0.6": replace(BASE, nu=0.6)}[kind]
        data = sample(true, 400, seed=5)
        config = FitConfig(algorithm=algorithm, ar_order=int(kind == "ar1"),
                           delta_cap=1e-4 if kind == "nu0.6" else None)
        guard = CenterGuard(config.delta_cap) if config.delta_cap else None

        def run():
            specfun._clear_memo()
            rep = fit(data, config)
            return rep, msvg.observed_info(rep.params, data, guard=guard)

        memo, memo_info = run()
        monkeypatch.setattr(specfun, "_MEMO_ENTRIES", 0)
        fresh, fresh_info = run()
        assert differing_fields(memo, fresh) == []
        assert differing_fields(memo_info, fresh_info) == []
        if kind == "nu0.6":
            assert memo.guarded_trace.max() > 0

    def test_evaluations_per_cycle_and_information(self, monkeypatch):
        # every call still reaches log_bessel_k (9 per MCECM cycle, 29 per
        # information); the memo evaluates a cycle's closing ln K_eta once
        # for the next E-step, and the information's 11 distinct blocks once
        evaluations = []
        evaluate = specfun._evaluate
        monkeypatch.setattr(specfun, "_evaluate", lambda order, z: (
            evaluations.append(order), evaluate(order, z))[1])
        data = sample(BASE, 400, seed=5)
        specfun._clear_memo()
        rep = fit(data, FitConfig(algorithm="mcecm"))
        assert len(evaluations) == 8 * rep.conv_iter + 1
        specfun._clear_memo()
        evaluations.clear()
        msvg.observed_info(rep.params, data)
        assert len(evaluations) == 11


class TestCompleteDataConsistency:
    def test_cm_steps_maximise_complete_loglik(self):
        # the closed-form updates sit at the top of the complete-data surface
        rng = np.random.default_rng(44)
        n, d = 60, 2
        y = rng.normal(size=(n, d))
        lam = rng.uniform(0.4, 2.5, size=n)
        mix = make_mix(y, lam, 1.0 / lam, np.log(lam))
        stats = accumulate_suff_stats(y, mix)
        coef, gamma = cm_step_location_skew(stats)
        mu = coef[:, 0]
        mix2 = make_mix(y, lam, 1.0 / lam, np.log(lam), point=at(mu, gamma))
        sigma = cm_step_scale(y, at(mu, gamma), mix2)
        params = MsvgParams(mu=mu, sigma=sigma, gamma=gamma, nu=1.0)
        best = complete_data_loglik(params, y, lam)
        for _ in range(20):
            trial = MsvgParams(mu=mu + rng.normal(scale=0.02, size=d),
                               sigma=sigma + 0.01 * np.eye(d),
                               gamma=gamma + rng.normal(scale=0.02, size=d),
                               nu=1.0)
            assert complete_data_loglik(trial, y, lam) <= best + 1e-9
