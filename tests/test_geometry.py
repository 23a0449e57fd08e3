"""Lifetime of :class:`msvg.distribution.Geometry`: one per parameter point,
handed on with ``geometry=``, rejected at any other point; mixing
expectations carry the same tag and the scale step checks it."""

from dataclasses import replace

import numpy as np
import pytest

from msvg.distribution import (
    CenterGuard,
    Geometry,
    MsvgParams,
    posterior_lambda_moments,
    sample,
)
from msvg.ecm import FitConfig, cm_step_scale, cm_step_shape_ecme, fit, observed_loglik
from msvg.inference import conditional_lambda_moment, observed_info

PLAIN = MsvgParams(mu=[0.0, 0.0], sigma=[[1.0, 0.4], [0.4, 1.0]],
                   gamma=[0.2, 0.3], nu=2.5)
AR1 = replace(PLAIN, mu=np.array([0.1, -0.1]), beta1=[[0.3, 0.1], [0.0, 0.2]])
# nu < d/2 with a row at the location: the delta-region guard fires
GUARDED = MsvgParams(mu=[0.1, -0.2], sigma=[[1.0, 0.3], [0.3, 0.8]],
                     gamma=[0.2, -0.1], nu=0.6)
MOMENTS = [(1.0, "plain"), (-1.0, "plain"), (2.0, "plain"), (-2.0, "plain"),
           (0.0, "times_log"), (1.0, "times_log"), (-1.0, "times_log"),
           (0.0, "log_squared")]


def case(name):
    """(params, modelled rows, lagged rows, guard) of one regime."""
    if name == "plain":
        return PLAIN, sample(PLAIN, 120, seed=5), None, None
    if name == "ar1":
        data = sample(AR1, 121, seed=6)
        return AR1, data[1:], data[:-1], None
    y = sample(GUARDED, 120, seed=3)
    y[0] = GUARDED.mu
    return GUARDED, y, None, CenterGuard(0.3)


@pytest.fixture
def count_builds(monkeypatch):
    """Counts Geometry.of calls for the rest of the test."""
    calls = []
    build = Geometry.of.__func__

    def counted(cls, *args, **kwargs):
        calls.append(1)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(Geometry, "of", classmethod(counted))
    return calls


@pytest.mark.parametrize("name", ["plain", "ar1", "guarded"])
class TestHandoffBitIdentity:
    def test_posterior_lambda_moments(self, name):
        p, y, y_prev, guard = case(name)
        geometry = Geometry.of(p, y, y_prev)
        for need_log in (False, True):
            own = posterior_lambda_moments(p, y, guard, y_prev, need_log)
            handed = posterior_lambda_moments(p, y, guard, y_prev, need_log,
                                              geometry=geometry)
            for field in ("e_lambda", "e_inv_lambda", "e_log_lambda", "guarded"):
                np.testing.assert_array_equal(getattr(handed, field), getattr(own, field))
            assert handed.tag == own.tag == geometry.tag
        if name == "guarded":
            assert own.guarded[0] and own.guarded.sum() < len(y)

    def test_observed_loglik(self, name):
        p, y, y_prev, guard = case(name)
        handed = observed_loglik(y, p, guard, y_prev, geometry=Geometry.of(p, y, y_prev))
        assert handed == observed_loglik(y, p, guard, y_prev)

    def test_conditional_lambda_moment(self, name):
        p, y, y_prev, guard = case(name)
        geometry = Geometry.of(p, y, y_prev)
        for k, kind in MOMENTS:
            np.testing.assert_array_equal(
                conditional_lambda_moment(p, y, k, kind, y_prev, guard, geometry=geometry),
                conditional_lambda_moment(p, y, k, kind, y_prev, guard))

    def test_shape_step(self, name):
        p, y, y_prev, guard = case(name)
        guard = guard or CenterGuard.default_for_dim(p.d)
        assert (cm_step_shape_ecme(y, p, guard, y_prev,
                                   geometry=Geometry.of(p, y, y_prev))
                == cm_step_shape_ecme(y, p, guard, y_prev))


class TestStaleGeometry:
    @pytest.mark.parametrize("change", ["mu", "sigma", "gamma", "beta1", "rows"])
    def test_other_point_is_rejected(self, change):
        p, y, y_prev, _ = case("ar1")
        geometry = Geometry.of(p, y, y_prev)
        mix = posterior_lambda_moments(p, y, y_prev=y_prev, need_log=False)
        other = {"mu": replace(p, mu=p.mu + 1e-12),
                 "sigma": replace(p, sigma=1.5 * p.sigma),
                 "gamma": replace(p, gamma=-p.gamma),
                 "beta1": replace(p, beta1=None),
                 "rows": p}[change]
        if change == "rows":
            y, y_prev = y[:-1], y_prev[:-1]
        consumers = [
            lambda: posterior_lambda_moments(other, y, y_prev=y_prev, geometry=geometry),
            lambda: observed_loglik(y, other, y_prev=y_prev, geometry=geometry),
            lambda: cm_step_shape_ecme(y, other, CenterGuard(1e-4),
                                       y_prev, geometry=geometry),
            lambda: conditional_lambda_moment(other, y, y_prev=y_prev, geometry=geometry),
            lambda: cm_step_scale(y, other, mix, y_prev),
        ]
        for consumer in consumers:
            with pytest.raises(ValueError, match="stale"):
                consumer()

    def test_shape_is_not_part_of_the_point(self):
        p, y, _, _ = case("plain")
        geometry = Geometry.of(p, y)
        moved = replace(p, nu=0.7)
        assert (observed_loglik(y, moved, geometry=geometry)
                == observed_loglik(y, moved))


class TestBuildsPerFit:
    @pytest.mark.parametrize("algorithm", ["mcecm", "ecme"])
    @pytest.mark.parametrize("ar", [0, 1])
    def test_one_at_start_then_two_per_cycle(self, count_builds, algorithm, ar):
        data = sample(AR1 if ar else PLAIN, 300, seed=11)
        for cycles in (1, 4):
            count_builds.clear()
            report = fit(data, FitConfig(algorithm=algorithm, tol=1e-300,
                                         max_iter=cycles, ar_order=ar))
            assert report.conv_iter == cycles
            assert len(count_builds) == 1 + 2 * cycles

    @pytest.mark.parametrize("algorithm", ["mcecm", "ecme"])
    @pytest.mark.parametrize("ar", [0, 1])
    def test_three_locations_per_cycle(self, monkeypatch, algorithm, ar):
        # the two geometries and the scale step's residuals; the start's
        # geometry is the one more
        data = sample(AR1 if ar else PLAIN, 300, seed=11)
        calls = []
        location = MsvgParams.location

        def counted(self, *args, **kwargs):
            calls.append(1)
            return location(self, *args, **kwargs)

        monkeypatch.setattr(MsvgParams, "location", counted)
        for cycles in (1, 4):
            calls.clear()
            fit(data, FitConfig(algorithm=algorithm, tol=1e-300, max_iter=cycles,
                                ar_order=ar))
            assert len(calls) == 1 + 3 * cycles

    def test_observed_info_builds_one(self, count_builds):
        p, y, _, _ = case("plain")
        observed_info(p, y)
        assert len(count_builds) == 1

    def test_hecm_revert_restores_the_geometry(self, count_builds):
        # the revert hands the next cycle the earlier iterate; a geometry
        # left at the later one would fail its tag check there
        data = sample(PLAIN, 300, seed=4)
        report = fit(data, FitConfig(algorithm="hecm"))
        assert report.switch_iter is not None
        assert report.conv_iter > report.switch_iter
        assert len(count_builds) == 1 + 2 * report.conv_iter
