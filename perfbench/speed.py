"""Machine-speed gauge: turns wall time into speed-normalized time.

On a shared machine the same code runs at different speeds from one minute
to the next, because other work competes for the core (the speed of one
fixed loop moved by 1.3-1.8x, in states lasting seconds to tens of minutes).
No statistic of the program's own times removes that: a median follows the
mix of states, a minimum follows whether a fast state happened at all.

So the gauge measures the machine next to the program. It pins the process
to one CPU and runs a fixed reference (a pure-Python loop plus small numpy
calls, a mix like the program's) in a background thread every `PERIOD`
seconds. The reference never calls rwfn, so a faster rwfn does not move it.
The normalized duration of an interval is its wall time times the mean
speed `REFERENCE_S / sample` of the samples taken in it: seconds on a
machine where one reference takes `REFERENCE_S`. The thread costs the
program 2-4% of the CPU.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import numpy as np

PERIOD = 0.02
# the reference's duration on an uncontended core of the machine the
# seed-commit numbers come from; a fixed constant, so runs compare
REFERENCE_S = 420e-6

_A = np.random.default_rng(0).random((40, 40))
_V = np.linspace(0.0, 1.0, 16)


def reference() -> float:
    s = 0.0
    for i in range(2000):
        s += i * i
    for _ in range(10):
        s += float((_A @ _A).sum())
    for _ in range(40):
        e = 1.0 / (1.0 + np.exp(-(_V * 0.5 + 0.1)))
        s += float(np.dot(e, _V)) + float(np.max(e))
    return s


def pin_to_one_cpu() -> int | None:
    """Pin this process (and the threads it starts later) to its lowest
    allowed CPU, so the gauge and the program share one core's speed."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class SpeedGauge:
    """Background sampler of the reference; use as a context manager."""

    def __init__(self):
        self.starts: list[float] = []
        self.speeds: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-gauge", daemon=True)

    def _sample(self) -> None:
        while not self._stop.is_set():
            t0 = time.perf_counter()
            reference()
            self.starts.append(t0)
            self.speeds.append(REFERENCE_S / (time.perf_counter() - t0))
            self._stop.wait(PERIOD)

    def __enter__(self) -> "SpeedGauge":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, a: float, b: float) -> float:
        """Mean speed over [a, b]; an interval shorter than the sampling
        period takes the nearest sample."""
        i, j = bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)
        if i < j:
            return statistics.fmean(self.speeds[i:j])
        k = min(i, len(self.speeds) - 1)
        return self.speeds[k] if k >= 0 else 1.0

    def normalized(self, a: float, b: float) -> float:
        """Speed-normalized seconds of the wall interval [a, b]."""
        return (b - a) * self.speed(a, b)
