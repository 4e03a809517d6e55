"""Timing at a fixed reference host speed.

The benchmark's host is shared: its speed moves by up to 1.8x in phases of
about a second to a minute, for all code alike, and no average over a run
removes that.  So while a job runs, a fixed calibration kernel (a Python
dict loop and a sparse matrix-vector product, about 1.5 ms) is timed every
``INTERVAL`` seconds from a SIGALRM handler.  Its time ``c(t)`` tracks the
host's speed, and a measured interval ``[a, b]`` is reported as

    integral from a to b of  KERNEL_REF_S / c(t) dt,

the time it would have taken on a host where the kernel takes
``KERNEL_REF_S``.  The handler's own time is taken out of the clock
(:func:`net`), so the timed intervals do not contain it.
"""

import bisect
from contextlib import contextmanager
import signal
import statistics
import time

INTERVAL = 0.1          # seconds between calibration samples
KERNEL_REF_S = 1.25e-3  # kernel time at the reference speed (a quiet 2-vCPU Xeon VM)
SMOOTH = 2              # samples on each side in the running median

# Module state: a process has one SIGALRM handler, and the clock every timing
# wrapper reads must see what that handler did.
_paused = 0.0           # seconds spent in the handler so far
_samples = None         # (net time, kernel seconds) while sampling
_busy = False
_matrix = _vector = None


def net():
    """``time.perf_counter()`` minus the time spent calibrating."""
    return time.perf_counter() - _paused


def kernel():
    """Seconds one run of the fixed calibration kernel takes now."""
    global _matrix, _vector
    if _matrix is None:
        # Imported here: numpy must load after checkout.prepare() pins threads.
        import numpy as np
        import scipy.sparse as sp

        n, per_row = 20000, 10
        rng = np.random.default_rng(0)
        rows = np.repeat(np.arange(n), per_row)
        cols = rng.integers(0, n, size=n * per_row)
        _matrix = sp.csr_matrix((rng.random(n * per_row), (rows, cols)), shape=(n, n))
        _vector = rng.random(n)
    start = time.perf_counter()
    counts = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(3):
        _matrix @ _vector
    return time.perf_counter() - start


def _sample(signum, frame):
    global _paused, _busy
    if _busy:                                  # a signal during the kernel itself
        return
    _busy = True
    start = time.perf_counter()
    _samples.append((start - _paused, kernel()))
    _paused += time.perf_counter() - start
    _busy = False


@contextmanager
def sampling():
    """Sample the kernel every ``INTERVAL`` s; yields the list of samples."""
    global _samples
    kernel()                                   # build its inputs untimed
    _samples = [(net(), kernel())]
    previous = signal.signal(signal.SIGALRM, _sample)
    signal.siginterrupt(signal.SIGALRM, False)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
    try:
        yield _samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
        samples, _samples = _samples, None
        samples.append((net(), kernel()))


class ReferenceClock:
    """Maps net timestamps to reference-speed seconds from kernel samples."""

    def __init__(self, samples):
        times = [t for t, _ in samples]
        costs = [c for _, c in samples]
        # A running median drops samples that an interrupt happened to hit.
        speed = [
            KERNEL_REF_S / statistics.median(costs[max(0, i - SMOOTH):i + SMOOTH + 1])
            for i in range(len(costs))
        ]
        self.times, self.speed = times, speed
        self.ref = [0.0]
        for i in range(1, len(times)):
            dt = times[i] - times[i - 1]
            self.ref.append(self.ref[-1] + dt * (speed[i - 1] + speed[i]) / 2)

    def __call__(self, t):
        """Reference seconds at net time ``t`` (edge speeds outside the samples)."""
        times, ref, speed = self.times, self.ref, self.speed
        if t <= times[0]:
            return ref[0] - (times[0] - t) * speed[0]
        if t >= times[-1]:
            return ref[-1] + (t - times[-1]) * speed[-1]
        i = bisect.bisect_right(times, t)
        frac = (t - times[i - 1]) / (times[i] - times[i - 1])
        v = speed[i - 1] + frac * (speed[i] - speed[i - 1])
        return ref[i - 1] + (t - times[i - 1]) * (speed[i - 1] + v) / 2

    def span(self, a, b):
        return self(b) - self(a)
