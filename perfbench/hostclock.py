"""Host-speed-normalized timing.

The benchmark host is a shared 2-CPU virtual machine whose CPU speed drifts
by up to 1.5x over seconds to minutes: within two minutes, 15-second medians
of the same two training epochs ranged from 0.28 s to 0.37 s.  A median over
rounds cannot remove a drift that lasts the whole run.  So every timed unit
(a set-up, a round, the import probes) is bracketed by a fixed reference
kernel that the program never touches, and its time is scaled by

    REFERENCE_S / mean(reference time before, reference time after)

The drift does not slow all code alike: NumPy dispatch and Python string
parsing change speed separately, so each workload picks the kernel closest
to its own mix.  Over ten runs of the train workload, the raw median round
time spread (quartile distance over median) by 10% and the normalized one
by 4%; the normalized median moved less than 0.1% between two sets of runs
whose raw medians differed by 33%.  A normalized time reads as the seconds
the work would take on a host that runs the kernel in REFERENCE_S.  A
change to the program moves the numerator only, so a real speed-up or
slow-down shows in full.
"""

from __future__ import annotations

import time

import numpy as np

_CURRENTS = np.random.default_rng(0).normal(size=(128, 12, 24))
_CELLS = [repr(x) for x in np.random.default_rng(1).normal(size=4000).tolist()]


def spiking_kernel() -> int:
    """Small-array NumPy dispatch, as in the spiking layer."""
    u = np.zeros((128, 24))
    fired = 0
    for _ in range(80):
        for t in range(12):
            u = 0.9 * u + _CURRENTS[:, t, :]
            spikes = u >= 1.0
            u = np.where(spikes, 0.0, u)
        fired += int(spikes.sum())
    return fired


def parsing_kernel() -> int:
    """Python-level string parsing and dict updates, as in CSV ingest."""
    buckets: dict[int, float] = {}
    for i, cell in enumerate(_CELLS * 6):
        buckets[i % 97] = buckets.get(i % 97, 0.0) + float(cell)
    return len(buckets)


def mixed_kernel() -> int:
    return spiking_kernel() + parsing_kernel()


# kernel name -> (kernel, REFERENCE_S: about its time on this host)
KERNELS = {
    "spiking": (spiking_kernel, 0.015),
    "mixed": (mixed_kernel, 0.030),
}


class HostClock:
    """Times callables in raw and in host-normalized seconds."""

    def __init__(self, kernel: str):
        self._kernel, self._reference_s = KERNELS[kernel]
        self._kernel()  # warm caches and allocator before the first sample
        self._last = self._reference()

    def _reference(self) -> float:
        tic = time.perf_counter()
        self._kernel()
        return time.perf_counter() - tic

    def time(self, fn):
        """Run fn(); return (result, raw seconds, scale factor).

        Multiply any time measured inside fn by the factor to normalize it.
        The reference run after fn is reused before the next call.
        """
        before = self._last
        tic = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - tic
        self._last = self._reference()
        return result, raw, self._reference_s / ((before + self._last) / 2.0)
