"""A fixed piece of reference work that measures how fast the host runs now.

The benchmark runs on shared hosts whose speed drifts: load from other
tenants slows every process, by up to 2x, for seconds to minutes at a time,
so the same code read 1.14 s in one run and 1.39 s five minutes later.  The
benchmark brackets every timed call with a run of ``work``, which touches no
dictatest code, and reports the call's time divided by the bracket's mean
time and multiplied by ``REFERENCE_S``.  That is the call's time on a host
where ``work`` takes ``REFERENCE_S``.  A change to dictatest moves the call
time and not the bracket, so its effect stays while the host's drift cancels.

``work`` mixes what the program does: a numpy gather and shift over 1 MiB of
int64 and an interpreted integer loop, ``spin``.  Set-up is timed in a child
interpreter, which runs ``spin`` alone before and after its import, so that
the speed is read where the import ran and before numpy is loaded.
"""

from __future__ import annotations

import time

import numpy as np

# Wall times of ``work`` and of ``spin`` in a fresh interpreter on a quiet
# 2-vCPU Intel Xeon VM (Python 3, numpy 2.4); they only scale the figures.
REFERENCE_S = 0.0020
SPIN_REFERENCE_S = 0.0010

_SIZE = 1 << 17
_PERM = np.random.default_rng(0).permutation(_SIZE)
_DATA = np.arange(_SIZE, dtype=np.int64)


def spin(total: int = 0) -> int:
    for i in range(12_000):
        total = (total * 31 + i) & 0xFFFF
    return total


def work() -> int:
    x = _DATA[_PERM]
    x ^= x >> 3
    return spin(int(np.bitwise_xor.reduce(x)))


def sample() -> tuple[float, float]:
    """Wall and CPU seconds of one run of ``work``."""
    wall, cpu = time.perf_counter(), time.process_time()
    work()
    return time.perf_counter() - wall, time.process_time() - cpu


def scaled(seconds: float, before: float, after: float, reference: float = REFERENCE_S) -> float:
    """``seconds`` measured between two reference runs that took ``before``
    and ``after``, at the speed where one takes ``reference``."""
    return seconds * reference * 2 / (before + after)
