import math
import os
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from scipy.special import digamma

from msvg import specfun
from msvg.specfun import bessel_k_order_derivative_over_k, log_bessel_k, trigamma

EULER_GAMMA = 0.5772156649015329


def log_k_half(z):
    # K_{1/2}(z) = sqrt(pi / (2 z)) exp(-z)
    return 0.5 * math.log(math.pi / (2.0 * z)) - z


def k_ratio(a, b, z):
    # K_a(z) / K_b(z), formed in log space
    return np.exp(log_bessel_k(a, z) - log_bessel_k(b, z))


class TestLogBesselK:
    def test_half_integer_closed_form(self):
        # K_{1/2}(1) = sqrt(pi/2) e^-1, so ln K = ln(pi/2)/2 - 1
        assert log_bessel_k(0.5, 1.0) == pytest.approx(log_k_half(1.0), abs=1e-14)
        assert log_bessel_k(0.5, 1.0) == pytest.approx(-0.7742086473552725, abs=1e-14)

    def test_order_symmetry(self):
        for z in (0.3, 1.0, 7.5):
            assert log_bessel_k(-0.5, z) == log_bessel_k(0.5, z)
            assert log_bessel_k(-2.3, z) == log_bessel_k(2.3, z)

    def test_frozen_quadrature_value(self):
        # adaptive quadrature of exp(-z cosh t) cosh(0.3 t) at z = 2.7
        assert log_bessel_k(0.3, 2.7) == pytest.approx(-2.9963579129828957, abs=1e-12)

    def test_finite_over_contract_domain(self):
        for order in (0.0, 0.5, 7.3, 150.2, 300.0):
            for z in (1e-300, 1e-100, 1e-8, 1e-3, 1.0, 50.0, 1e4, 1e8):
                val = log_bessel_k(order, z)
                assert np.isfinite(val), (order, z)

    def test_vectorized_matches_scalar(self):
        z = np.array([0.05, 1.0, 12.0, 300.0])
        vec = log_bessel_k(1.7, z)
        for i, zi in enumerate(z):
            assert vec[i] == log_bessel_k(1.7, float(zi))

    @pytest.mark.parametrize("shape", [(2, 3), (6, 1), (3, 3000)])
    def test_block_of_any_shape(self, monkeypatch, shape):
        # the bits of the flat block; (3, 3000) is cut into chunks for two threads
        monkeypatch.setenv("MSVG_THREADS", "2")
        z = np.linspace(0.05, 40.0, math.prod(shape)).reshape(shape)
        out = log_bessel_k(1.7, z)
        assert out.shape == shape
        np.testing.assert_array_equal(out.ravel(), log_bessel_k(1.7, z.ravel()))

    def test_block_of_two_dimensions_takes_the_ladder(self):
        # K_200(1) overflows kve, so that entry goes down the order ladder
        z = np.array([[1.0, 250.0, 400.0], [500.0, 800.0, 1000.0]])
        with np.errstate(over="ignore"):
            assert np.isinf(specfun.sp.kve(200.0, 1.0))
        out = log_bessel_k(200.0, z)
        assert out.shape == z.shape and np.all(np.isfinite(out))
        np.testing.assert_array_equal(out.ravel(), log_bessel_k(200.0, z.ravel()))

    def test_recurrence(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            nu = rng.uniform(0.0, 10.0)
            z = rng.uniform(0.05, 40.0)
            lhs = k_ratio(nu + 1.0, nu, z)
            rhs = k_ratio(nu - 1.0, nu, z) + 2.0 * nu / z
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_monotonicity(self):
        z = np.linspace(0.1, 30.0, 40)
        for nu in (0.0, 0.7, 3.0):
            vals = log_bessel_k(nu, z)
            assert np.all(np.diff(vals) < 0.0)
        for z0 in (0.5, 3.0, 20.0):
            orders = [0.0, 0.5, 1.5, 4.0, 9.0]
            vals = [log_bessel_k(o, z0) for o in orders]
            assert np.all(np.diff(vals) > 0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            log_bessel_k(1.0, -2.0)
        with pytest.raises(ValueError):
            log_bessel_k(1.0, math.nan)
        with pytest.raises(ValueError):
            log_bessel_k(math.inf, 1.0)


# parent: evaluate a block large enough to start the kernel's thread pool;
# then a forked child, which inherits the pool object but not its threads,
# evaluates the same block and must start a pool thread of its own (one
# reusing the inherited pool would queue its chunks there forever)
FORK_SCRIPT = textwrap.dedent("""
    import multiprocessing, sys, threading
    import numpy as np
    from msvg.specfun import log_bessel_k

    def child(z):
        return log_bessel_k(1.5, z), threading.active_count()

    if __name__ == "__main__":
        z = np.linspace(0.01, 40.0, 10_000)
        parent = log_bessel_k(1.5, z)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            out, threads = pool.apply_async(child, (z,)).get(timeout=60)
        sys.exit(0 if np.array_equal(parent, out) and threads > 1 else 3)
""")


def kernel_points(order: float, n: int = 10_000) -> np.ndarray:
    z = np.geomspace(1e-3, 60.0, n)
    if order >= 100:
        # kve overflows for small arguments at this order: every 97th point
        # takes the order ladder, so every chunk holds some
        z = np.linspace(250.0, 400.0, n)
        z[::97] = np.linspace(0.5, 2.0, z[::97].size)
    return z


class TestThreadedKernel:
    @pytest.mark.parametrize("threads", ["2", "3"])
    @pytest.mark.parametrize("order", [0.3, 1.5, 14.1, 200.0])
    def test_threads_bit_identical(self, monkeypatch, order, threads):
        z = kernel_points(order)
        monkeypatch.setenv("MSVG_THREADS", "1")
        serial = log_bessel_k(order, z)
        monkeypatch.setenv("MSVG_THREADS", threads)
        np.testing.assert_array_equal(log_bessel_k(order, z), serial)
        assert np.all(np.isfinite(serial))
        if order >= 100:
            with np.errstate(over="ignore"):
                assert np.any(np.isinf(specfun.sp.kve(order, z)))

    def test_concurrent_callers(self, monkeypatch):
        # more calling threads than cores, switching often, all splitting
        # their blocks into the one shared pool
        orders = [0.3, 1.5, 14.1, 200.0] * 2
        monkeypatch.setenv("MSVG_THREADS", "1")
        serial = [log_bessel_k(o, kernel_points(o)) for o in orders]
        monkeypatch.setenv("MSVG_THREADS", "3")
        monkeypatch.setattr(specfun, "_pool", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(orders)) as callers:
                futures = [callers.submit(log_bessel_k, o, kernel_points(o))
                           for o in orders]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(threaded, serial):
            np.testing.assert_array_equal(a, b)

    def test_small_block_stays_on_calling_thread(self, monkeypatch):
        monkeypatch.setattr(specfun, "_pool", None)
        monkeypatch.setenv("MSVG_THREADS", "2")
        log_bessel_k(0.7, np.linspace(0.1, 5.0, 4095))
        assert specfun._pool is None
        log_bessel_k(0.7, np.linspace(0.1, 5.0, 4096))
        assert specfun._pool is not None

    def test_caller_does_not_wait_for_a_busy_pool(self, monkeypatch):
        # the only pool thread is held elsewhere: the caller computes every
        # chunk itself instead of waiting for it
        release = threading.Event()
        pool = ThreadPoolExecutor(max_workers=1)
        pool.submit(release.wait, 60)
        monkeypatch.setattr(specfun, "_pool", pool)
        monkeypatch.setenv("MSVG_THREADS", "2")
        z = kernel_points(1.5)
        t0 = time.perf_counter()
        try:
            out = log_bessel_k(1.5, z)
            elapsed = time.perf_counter() - t0
        finally:
            release.set()
            pool.shutdown()
        assert elapsed < 30
        monkeypatch.setenv("MSVG_THREADS", "1")
        np.testing.assert_array_equal(out, log_bessel_k(1.5, z))

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs CPU affinity and two CPUs")
    def test_pool_threads_leave_the_creating_cpu(self, monkeypatch):
        monkeypatch.setattr(specfun, "_pool", None)
        allowed = os.sched_getaffinity(0)
        pool = specfun._kernel_pool(1)
        mask = pool.submit(os.sched_getaffinity, 0).result(timeout=60)
        assert mask < allowed and len(mask) == len(allowed) - 1
        assert os.sched_getaffinity(0) == allowed

    def test_pool_is_sized_for_the_largest_block(self, monkeypatch):
        # a first split block of two chunks must not fix the pool at one
        # worker: an 8192-point block then has work for three threads
        monkeypatch.setattr(specfun, "_pool", None)
        small = np.linspace(0.05, 30.0, 4096)
        large = np.linspace(0.05, 30.0, 8192)
        monkeypatch.setenv("MSVG_THREADS", "1")
        serial = [log_bessel_k(2.3, small), log_bessel_k(2.3, large)]
        monkeypatch.setenv("MSVG_THREADS", "3")
        threaded = [log_bessel_k(2.3, small), log_bessel_k(2.3, large)]
        pool = specfun._pool
        try:
            assert pool._max_workers == 2
        finally:
            pool.shutdown()
        for a, b in zip(threaded, serial):
            np.testing.assert_array_equal(a, b)

    def test_forked_child_does_not_reuse_the_pool(self):
        src = str(Path(specfun.__file__).resolve().parents[1])
        env = dict(os.environ, MSVG_THREADS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-c", FORK_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr


class TestMemo:
    """log_bessel_k's memo: exact keys, read-only results kept once."""

    def test_hit_returns_the_stored_bits(self):
        z = np.linspace(0.1, 8.0, 50)
        memo = {}
        first = log_bessel_k(1.3, z, memo)
        second = log_bessel_k(1.3, z.copy(), memo)
        assert second is first and len(memo) == 1
        np.testing.assert_array_equal(first, log_bessel_k(1.3, z))

    def test_stored_result_is_read_only(self):
        out = log_bessel_k(1.3, np.linspace(0.1, 8.0, 50), {})
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 0.0

    def test_call_without_a_memo_is_fresh_and_writable(self):
        z = np.linspace(0.1, 8.0, 50)
        kept = log_bessel_k(1.3, z, {})
        first, second = log_bessel_k(1.3, z), log_bessel_k(1.3, z)
        assert first.flags.writeable and not np.shares_memory(first, second)
        first[:] = 0.0
        np.testing.assert_array_equal(second, kept)

    def test_key_is_the_order_and_the_bits_of_z(self):
        z = np.linspace(0.1, 8.0, 6)
        memo = {}
        log_bessel_k(1.3, z, memo)
        log_bessel_k(-1.3, z.tolist(), memo)
        assert log_bessel_k(1.3, z[2], memo) == log_bessel_k(1.3, z[2:3], memo)[0]
        assert len(memo) == 2
        log_bessel_k(1.3, np.nextafter(z, 1.0), memo)
        log_bessel_k(np.nextafter(1.3, 2.0), z, memo)
        log_bessel_k(1.3, z.reshape(2, 3), memo)
        assert len(memo) == 5

    @pytest.mark.parametrize("bad", [0.0, math.nan])
    def test_error_stores_nothing(self, bad):
        z = np.linspace(0.1, 8.0, 6)
        z[-1] = bad
        memo = {}
        with pytest.raises(ValueError):
            log_bessel_k(0.7, z, memo)
        assert memo == {}

    def test_order_derivative_shares_the_memo(self):
        z = np.linspace(0.1, 8.0, 6)
        memo = {}
        out = bessel_k_order_derivative_over_k(1.3, z, degree=2, memo=memo)
        h = specfun.ORDER_DIFF_STEP
        assert sorted(key[0] for key in memo) == [1.3 - h, 1.3, 1.3 + h]
        np.testing.assert_array_equal(out, bessel_k_order_derivative_over_k(1.3, z, degree=2))


class TestBesselRatio:
    def test_half_integer_ratio(self):
        # K_{3/2}/K_{1/2} = 1 + 1/z
        for z in (0.2, 1.0, 5.0, 5000.0):
            assert k_ratio(1.5, 0.5, z) == pytest.approx(1.0 + 1.0 / z, rel=1e-13)

    def test_frozen_quadrature_value(self):
        assert k_ratio(1.2, 0.2, 3.0) == pytest.approx(1.2243194666150878, rel=1e-12)

    def test_no_underflow_at_large_argument(self):
        # each K alone underflows at z = 5000 but the ratio is fine
        val = k_ratio(1.5, 0.5, 5000.0)
        assert np.isfinite(val) and val > 1.0

    def test_transitivity(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a, b, c = rng.uniform(-4.0, 8.0, size=3)
            z = rng.uniform(0.05, 30.0)
            lhs = k_ratio(a, b, z) * k_ratio(b, c, z)
            assert lhs == pytest.approx(k_ratio(a, c, z), rel=1e-12)


def k_order_derivative(order, z, degree):
    # the raw order derivative of K_v(z) at v = order
    return bessel_k_order_derivative_over_k(order, z, degree) * math.exp(
        log_bessel_k(order, z))


class TestOrderDerivative:
    def test_zero_at_order_zero(self):
        # K is even in the order, so the first order-derivative vanishes at 0
        for z in (0.3, 2.0, 17.0):
            assert k_order_derivative(0.0, z, degree=1) == pytest.approx(0.0, abs=1e-9)

    def test_frozen_degree_one(self):
        # Richardson-extrapolated high-precision differences
        val = k_order_derivative(1.0, 2.0, degree=1)
        assert val == pytest.approx(0.05694693637476672, rel=1e-7)

    def test_frozen_degree_two(self):
        # same oracle, degree 2; tolerance reflects float cancellation at h=1e-5
        val = k_order_derivative(0.7, 1.5, degree=2)
        assert val == pytest.approx(0.15558775159574093, rel=1e-2)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            bessel_k_order_derivative_over_k(1.0, 1.0, degree=3)
        with pytest.raises(ValueError):
            bessel_k_order_derivative_over_k(1.0, -1.0)


class TestGammaFunctions:
    """trigamma, and the scipy digamma that the shape score and the
    information call beside it."""

    def test_digamma_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)

    def test_digamma_recurrence(self):
        for x in (0.3, 1.7, 9.2):
            assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, rel=1e-12)

    def test_trigamma_frozen_series(self):
        assert trigamma(0.6) == pytest.approx(3.636209670902357, rel=1e-12)

    def test_trigamma_positive(self):
        xs = np.array([0.05, 0.6, 3.0, 150.0])
        assert np.all(trigamma(xs) > 0.0)

    def test_digamma_trigamma_consistency(self):
        for x in (0.4, 2.2, 11.0):
            delta = 1e-6 * max(1.0, x)
            fd = (digamma(x + delta) - digamma(x - delta)) / (2.0 * delta)
            assert fd == pytest.approx(float(trigamma(x)), rel=1e-7)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            trigamma(0.0)
        with pytest.raises(ValueError):
            trigamma(-1.5)


class TestLeanGuards:
    """The one-reduction block check and the Python-float fast path raise
    what the element-wise checks raise and return the same bits."""

    @pytest.mark.parametrize("n", [3, 5000])
    @pytest.mark.parametrize("bad, message", [(math.nan, "finite"), (math.inf, "finite"),
                                              (0.0, "positive"), (-1.5, "positive")])
    def test_bad_argument_in_last_position(self, n, bad, message):
        # 5000 points take the split path
        z = np.linspace(0.1, 8.0, n)
        z[-1] = bad
        with pytest.raises(ValueError, match=message):
            log_bessel_k(0.7, z)

    def test_empty_block(self):
        assert log_bessel_k(0.7, np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("fn", [trigamma])
    @pytest.mark.parametrize("bad", [0.0, -1.5, math.nan, math.inf])
    def test_python_float_domain(self, fn, bad):
        with pytest.raises(ValueError, match="requires x > 0"):
            fn(bad)

    @pytest.mark.parametrize("fn", [trigamma])
    def test_scalar_path_equals_array_path(self, fn):
        xs = np.concatenate([np.geomspace(1e-4, 300.0, 400), [0.6, 2.5, 3.0]])
        block = fn(xs)
        for i, x in enumerate(xs.tolist()):
            assert type(x) is float
            assert np.float64(fn(x)).tobytes() == block[i].tobytes()

    def test_trigamma_is_polygamma(self):
        xs = np.geomspace(1e-4, 300.0, 2000)
        np.testing.assert_array_equal(trigamma(xs), specfun.sp.polygamma(1, xs))
