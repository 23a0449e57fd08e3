"""Numerically stable special functions.

Everything here is built around the modified Bessel function of the second
kind K_v(z) evaluated on the log scale.  The posterior moments of the gamma
mixing variable divide Bessel values whose magnitudes can individually
under- or overflow by hundreds of orders of magnitude, so ratios are always
formed as differences of logs.

The main evaluation path is ``scipy.special.kve`` (exponentially scaled
AMOS routine).  When K_v(z) itself overflows double precision (large order
together with small argument, e.g. K_200(1.0) ~ exp(1000)) the value is
recovered by the upward order recurrence

    K_{a+1}(z) = (2a/z) K_a(z) + K_{a-1}(z)

run entirely in log space from two fractional-order rungs.  All terms of
the recurrence are positive for a >= 0, so the forward direction is stable.

``kve`` releases the GIL, so a block of at least 2 * 2048 arguments is cut
into contiguous chunks of 2048 that the calling thread and up to
:func:`thread_count` - 1 pool threads take in turn; the evaluation is
elementwise, so the result equals the one-thread evaluation bit for bit.
Smaller blocks stay on the calling thread.  The pool is created on first
use; a forked child drops the pool it inherited (its threads do not exist
there) and creates its own.  The worker processes of a study run the kernel
on one thread.

A block asked for again is read from a memo keyed on (|order|, z's shape,
z's bytes), so a hit returns the bits a fresh evaluation would.  It keeps
the most recently used entries, at most ``_MEMO_ENTRIES`` and at most
``_MEMO_BYTES`` (an entry counts twice its z bytes); a larger block is never
stored.  It stores a copy of each result and hands out a copy on each hit,
so a caller that writes into its result changes no later one.  A forked
child starts with an empty memo and a new lock.

The order derivatives of K_v are central differences in v of step
``ORDER_DIFF_STEP``, formed in one place, ``_order_diff_over_k``, from the
ln K_v its caller already holds: :func:`bessel_k_order_derivative_over_k`
(the information's moments) and the E-step's E(log lam) both call it.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import special as sp

# step of the central differences of K_v(z) in the order v
ORDER_DIFF_STEP = 1e-5

# arguments per chunk, about a millisecond of kve; a block is split only
# when it holds two chunks or more
_CHUNK = 2048
# the chunk threads, created by the first block that is split and sized for
# the largest block, thread_count() - 1 workers
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
# the ln K memo, (order, shape, z bytes) -> ln K, least recently used first;
# an ECME shape search of about 14 trials keeps its best trial for the
# closing log-likelihood, and 32 blocks of 1e4 arguments hold 5 MB
_MEMO_ENTRIES = 32
_MEMO_BYTES = 32 << 20
_memo: OrderedDict = OrderedDict()
_memo_bytes = 0
_memo_lock = threading.Lock()


def thread_count() -> int:
    """Threads of the Bessel kernel and processes of a study.

    ``MSVG_THREADS``; unset, 0, negative or not an integer means
    min(cpu_count, 8).
    """
    try:
        requested = int(os.environ.get("MSVG_THREADS", "0"))
    except ValueError:
        requested = 0
    if requested <= 0:
        return min(os.cpu_count() or 1, 8)
    return requested


def _clear_memo() -> None:
    global _memo, _memo_bytes
    with _memo_lock:
        _memo, _memo_bytes = OrderedDict(), 0


def _remember(key: tuple, out: np.ndarray) -> None:
    # an entry holds its key's z bytes and as many bytes of ln K
    global _memo_bytes
    size = 2 * len(key[2])
    with _memo_lock:
        if size > _MEMO_BYTES or key in _memo:
            return
        _memo[key] = out
        _memo_bytes += size
        while len(_memo) > _MEMO_ENTRIES or _memo_bytes > _MEMO_BYTES:
            _memo_bytes -= 2 * len(_memo.popitem(last=False)[0][2])


def _drop_pool() -> None:
    # a forked child has none of the parent's threads, and the locks may
    # have been held by one of them at the fork
    global _pool, _pool_lock, _memo_lock
    _pool, _pool_lock, _memo_lock = None, threading.Lock(), threading.Lock()
    _clear_memo()


os.register_at_fork(after_in_child=_drop_pool)


def _current_cpu() -> int | None:
    # Linux only: field 39 of the stat line is the CPU the thread last ran on
    try:
        with open("/proc/thread-self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _leave_cpu(cpu: int | None) -> None:
    # A woken thread may be placed on the CPU of the thread that woke it and
    # stay there while another vCPU idles, taking turns with its caller (on
    # a 2-vCPU VM every chunk ran on the caller's CPU); so the chunk threads
    # keep off the CPU their pool was created from.
    try:
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except (AttributeError, OSError):
        pass


def _kernel_pool(workers: int) -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=workers,
                                       thread_name_prefix="msvg-bessel",
                                       initializer=_leave_cpu,
                                       initargs=(_current_cpu(),))
        return _pool


def _log_kve(order: float, z: np.ndarray) -> np.ndarray:
    # errstate is thread-local, so every chunk sets its own
    with np.errstate(over="ignore", divide="ignore"):
        return np.log(sp.kve(order, z)) - z


def _fill(order: float, z: np.ndarray, parts: list, chunks) -> None:
    # ``chunks`` may be shared between threads: next() on a range iterator
    # is atomic under the GIL, so each chunk is taken once
    for k in chunks:
        parts[k] = _log_kve(order, z[k * _CHUNK:(k + 1) * _CHUNK])


def _log_kve_split(order: float, z: np.ndarray) -> np.ndarray:
    threads = min(thread_count(), z.size // _CHUNK)
    if threads == 1:
        return _log_kve(order, z)
    parts = [None] * ((z.size + _CHUNK - 1) // _CHUNK)
    chunks = iter(range(len(parts)))
    pool = _kernel_pool(thread_count() - 1)
    for _ in range(threads - 1):
        pool.submit(_fill, order, z, parts, chunks)
    _fill(order, z, parts, chunks)
    # The caller never waits for a chunk thread: a chunk one still holds (its
    # vCPU may be descheduled for milliseconds) is computed here as well, so
    # the futures need not be read.  A late result only replaces an entry by
    # the same values.
    _fill(order, z, parts, (k for k, part in enumerate(parts) if part is None))
    return np.concatenate(parts)


def _check_z(z: np.ndarray) -> None:
    if not np.all(np.isfinite(z)):
        raise ValueError("bessel argument must be finite")
    if np.any(z <= 0.0):
        raise ValueError("bessel argument must be positive")


def _log_k_tiny(order: float, z: float) -> float:
    # Leading small-z behaviour K_v(z) ~ Gamma(v)/2 (2/z)^v with one
    # correction term; only used to seed the ladder when even the scaled
    # kve overflows, which requires z below ~1e-150 for orders < 2.
    out = sp.gammaln(order) - math.log(2.0) + order * (math.log(2.0) - math.log(z))
    if abs(order - 1.0) > 1e-6:
        c = z * z / (4.0 * (1.0 - order))
        if abs(c) < 0.5:
            out += math.log1p(c)
    return out


def _log_k_ladder(order: float, z: float) -> float:
    # Upward order recurrence in log space, seeded at the fractional part.
    m = int(math.floor(order))
    mu = order - m
    lk0 = float(np.log(sp.kve(mu, z)) - z)
    if m == 0:
        return lk0
    lk1 = float(np.log(sp.kve(mu + 1.0, z)) - z)
    if not math.isfinite(lk1):
        lk1 = _log_k_tiny(mu + 1.0, z)
    a = mu + 1.0
    for _ in range(m - 1):
        lk0, lk1 = lk1, lk1 + math.log(2.0 * a / z + math.exp(lk0 - lk1))
        a += 1.0
    return lk1


def log_bessel_k(order: float, z):
    """ln K_order(z) for real order and z > 0.

    Uses the symmetry K_{-v} = K_v.  Vectorized over ``z``; the order is a
    scalar.  Large blocks are split across threads, and a block asked for
    again is read from the memo (see the module notes).
    Finite for all z in (0, 1e8] and |order| <= 300.
    """
    if not math.isfinite(order):
        raise ValueError("bessel order must be finite")
    order = abs(float(order))
    # an array is never a scalar, and np.isscalar is slow to say so
    scalar = not isinstance(z, np.ndarray) and np.isscalar(z)
    z = np.array(z, dtype=float, ndmin=1, copy=None)
    key = (order, z.shape, z.tobytes())
    with _memo_lock:
        out = _memo.get(key)
        if out is not None:
            _memo.move_to_end(key)
    if out is None:
        out = _evaluate(order, z)
        _remember(key, out.copy())
    else:
        out = out.copy()
    return float(out[0]) if scalar else out


def _evaluate(order: float, z: np.ndarray) -> np.ndarray:
    if z.ndim > 1:  # the chunks and the ladder index a flat block
        return _evaluate(order, z.ravel()).reshape(z.shape)
    out = _log_kve_split(order, z) if z.size >= 2 * _CHUNK else _log_kve(order, z)
    # One reduction checks the whole block.  An argument that is not
    # positive and finite gives a non-finite value (kve is inf at 0 and NaN
    # below; an infinite or NaN z carries through the "- z"), so only a
    # non-finite sum runs the element-wise tests, which name the fault, and
    # sends the overflowed entries down the order ladder.
    if not math.isfinite(np.add.reduce(out)):
        _check_z(z)
        for i in np.flatnonzero(~np.isfinite(out)):
            out[i] = _log_k_ladder(order, float(z[i]))
    return out


def _order_diff_over_k(order: float, z, lk, degree: int = 1) -> np.ndarray:
    """K_v^(degree,0)(z) / K_v(z) by central differences of step
    ``ORDER_DIFF_STEP``, given ``lk`` = ln K_order(z) from the caller."""
    h = ORDER_DIFF_STEP
    up = np.exp(np.asarray(log_bessel_k(order + h, z)) - lk)
    dn = np.exp(np.asarray(log_bessel_k(order - h, z)) - lk)
    if degree == 1:
        return (up - dn) / (2.0 * h)
    return (up + dn - 2.0) / (h * h)


def bessel_k_order_derivative_over_k(order: float, z, degree: int = 1):
    """Order derivative of K_v(z) divided by K_v(z): K_v^(degree,0)(z) / K_v(z)."""
    if degree not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree}")
    out = _order_diff_over_k(order, z, np.asarray(log_bessel_k(order, z)), degree)
    return float(out) if np.isscalar(z) else out


def trigamma(x):
    """psi'(x), strictly positive for x > 0.

    Evaluated as the Hurwitz zeta function zeta(2, x), the value that
    ``scipy.special.polygamma(1, x)`` returns, without its array wrapper.
    The domain check 0 < x < inf skips the array round trip for a Python
    float, the shape step's argument.
    """
    if type(x) is float:
        ok = 0.0 < x < math.inf
    else:
        x = np.asarray(x, dtype=float)
        ok = np.all((0.0 < x) & (x < math.inf))
    if not ok:
        raise ValueError("trigamma requires x > 0")
    return sp.zeta(2.0, x)
