"""Host-speed probe: corrects measured times for the drift of a shared host.

On the 2-core VM this benchmark was built on, the same code ran up to
±30% slower or faster from one ten-second window to the next, because
other tenants share the machine.  Such a drift swamps any regression bound.
The probe runs a fixed calibration kernel every ``PERIOD`` seconds from a
``SIGALRM`` handler while a repetition runs, so its samples interleave with
the workload in time.  A repetition's times are then scaled by
``KERNEL_REF_S / median(kernel time during the repetition)``.  They are
reported as seconds at the reference speed, at which the kernel takes
``KERNEL_REF_S``.  Time spent in the handler is subtracted from every
interval measured.

The kernel does nothing the program does.  A change to mrwpflood changes
only the numerator of a scaled time, so a real speed-up or slow-down shows
in full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

PERIOD = 0.1
WINDOW = 0.5
KERNEL_REF_S = 1.0e-3

_RNG = np.random.default_rng(0)
_SMALL = _RNG.random(2000)
_DATA = _RNG.random(16_384)
_INDEX = _RNG.integers(0, _DATA.size, _DATA.size)


@dataclass(frozen=True)
class _State:
    at: tuple
    heading: int


def kernel() -> float:
    """About 1 ms of the three kinds of work the workloads do: small
    frozen objects built in an interpreter loop, whole-array arithmetic on
    a few thousand floats, and gathers and sorts.  Its data, under 300 KB,
    refill from cache in microseconds, so what the workload left in cache
    barely moves its time."""
    state = _State((0.0, 0.0), 0)
    for i in range(100):
        state = replace(state, at=(state.at[0] + 0.5, i * 0.25), heading=(state.heading + 1) & 3)
    values = _SMALL
    for _ in range(10):
        values = np.clip(np.where(values > 0.5, values - 0.3, values + 0.2), 0.0, 1.0)
    data = _DATA
    for _ in range(3):
        data = np.sort(data[_INDEX]) * 0.5 + 0.25
    return state.at[0] + float(values[0]) + float(data[0])


class SpeedProbe:
    """Samples the kernel's duration every ``PERIOD`` seconds while active,
    or on demand through :meth:`sample`."""

    def __init__(self) -> None:
        self.times: list[float] = []  # by :meth:`now`, at each sample
        self.samples: list[float] = []  # kernel durations
        self.spent = 0.0  # probe time, to subtract from measured intervals

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            self.times.append(start - self.spent)
            kernel()
            self.samples.append(time.perf_counter() - start)
            self.spent += time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        self.sample()

    def now(self) -> float:
        """A clock that stops while the probe runs."""
        return time.perf_counter() - self.spent

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor from measured to reference-speed seconds, from all samples."""
        if not self.samples:
            self.sample()
        return KERNEL_REF_S / statistics.median(self.samples)

    def local_scales(self, at: np.ndarray) -> np.ndarray:
        """Factor at each time of ``at`` (by :meth:`now`), from the samples
        within ``WINDOW`` seconds of the sample that follows it."""
        if not self.samples:
            self.sample()
        rolling = np.array(
            [
                statistics.median(
                    self.samples[
                        bisect.bisect_left(self.times, t - WINDOW) : bisect.bisect_right(
                            self.times, t + WINDOW
                        )
                    ]
                )
                for t in self.times
            ]
        )
        nearest = np.minimum(np.searchsorted(self.times, at), len(self.times) - 1)
        return KERNEL_REF_S / rolling[nearest]
