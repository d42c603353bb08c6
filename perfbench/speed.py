"""CPU-speed reference for a machine whose speed drifts.

On the shared 2-vCPU virtual machine this benchmark was built on, the
same op takes up to 50% longer from one minute to the next. Process
CPU time grows with wall time during the slow phases and the steal
counter stays flat, so the guest is not descheduled: each instruction
simply runs slower. No timer inside the guest can see past that, so
every op is preceded by a fixed reference kernel, and an op's time is
reported at reference speed: its wall time divided by the speed
factor, the median time of the kernels run next to it over
``NOMINAL_S``. The kernel never calls rsmcanon, so no change to the
package can move it. Raw wall times are printed beside the result.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

# Median kernel times on the machine the seed baseline was recorded on
# (2 vCPU, Python 3.11, numpy 2.4), in a quiet phase.
NOMINAL_S = 2.5e-4
# Kernels this close to an op set its factor. Speed changes within a
# fraction of a second, so only the kernels next to a long op count;
# a short op gets the median of the dozen or so around it.
MARGIN_S = 0.05

# Interval of the timer that splits an in-process op into segments.
SEGMENT_S = 0.02

_MATRIX = np.arange(64.0).reshape(8, 8) / 64.0


def kernel() -> float:
    """Time a fixed mix of interpreter work and small numpy calls, the
    two kinds of work every workload's ops are made of.

    The mix runs twice and only the second pass is timed, so the caches
    and idle core an op leaves behind do not leak into the factor.
    """
    _mix()
    start = perf_counter()
    _mix()
    return perf_counter() - start


def _mix() -> float:
    a = _MATRIX.copy()
    for p in range(7):
        for q in range(p + 1, 8):
            col = a[:, p].copy()
            a[:, p] = 0.6 * col - 0.8 * a[:, q]
            a[:, q] = 0.8 * col + 0.6 * a[:, q]
    total = 0.0
    for i in range(2000):
        total += i * 0.5
    return total + float(a[0, 0])


def sample(kernels: list[tuple[float, float]], op_s: float) -> None:
    """Append (start, duration) kernel runs next to an op of ``op_s``.

    One run per 100 ms of the op, from 1 to 9: a long op has only the
    kernels at its two ends to go by, and one run is too noisy for it.
    """
    for _ in range(1 + min(8, int(op_s / 0.1))):
        kernels.append((perf_counter(), kernel()))


def factors(ops: list[tuple[float, float]], kernels: list[tuple[float, float]]) -> list[float]:
    """Speed factor per op: the median time of the kernels started
    within MARGIN_S of the op, over NOMINAL_S.

    ``ops`` holds (start, end) and ``kernels`` (start, duration), both
    in time order. The kernels run right before and right after every
    op are always in range; for short ops the margin takes in more.
    """
    starts = [t for t, _ in kernels]
    out = []
    for start, end in ops:
        lo = bisect.bisect_left(starts, start - MARGIN_S)
        hi = bisect.bisect_right(starts, end + MARGIN_S)
        out.append(statistics.median(d for _, d in kernels[lo:hi]) / NOMINAL_S)
    return out


class SegmentTimer:
    """Times an op in segments of about SEGMENT_S.

    The speed switches between a fast and a slow phase every few hundred
    milliseconds, so a long op can span phases that the kernels at its
    two ends do not see. A SIGALRM timer ends a segment every SEGMENT_S,
    runs one kernel and starts the next segment, and ``factors`` then
    scales each segment by the kernels next to it. The kernel's own time
    is in no segment. Only the main thread can take the signal, and only
    an op that runs in this process is split: a CLI child would share
    its CPU with the kernel.
    """

    def __init__(self, kernels: list[tuple[float, float]], enabled: bool) -> None:
        self.kernels, self.enabled = kernels, enabled
        self._open: list[tuple[float, float]] | None = None
        self._start = 0.0
        if enabled:
            signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self._open is None:   # a signal left pending after the op ended
            return
        self._open.append((self._start, perf_counter()))
        sample(self.kernels, 0.0)
        self._start = perf_counter()

    def run(self, segments: list[tuple[float, float]], fn, *args):
        """Call ``fn(*args)``, appending its (start, end) segments."""
        self._open, self._start = segments, perf_counter()
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, SEGMENT_S, SEGMENT_S)
        try:
            return fn(*args)
        finally:
            if self.enabled:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            segments.append((self._start, perf_counter()))
            self._open = None

    def close(self) -> None:
        if self.enabled:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
