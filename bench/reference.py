"""The benchmark's own reference kernel, timed while the workloads run.

A shared host's speed drifts: the same job's time swings by up to 2x within
seconds and stays off for minutes, and CPU time swings with it, so neither
wall nor CPU time of a job is steady on its own.  The kernel below is a fixed
piece of work in the workloads' mix (interpreted loops and small numpy array
operations), and it imports nothing from ``plateau_lab``, so its time tracks
the host's speed and never the program's.  Over a run, the jobs' time
divided by the kernel's mean time is the program's cost in host-independent
units; times the nominal ``REF_S`` it reads as seconds again.
"""
from __future__ import annotations

import time

import numpy as np

#: nominal time of one ``reference_s()``: near the fastest seen on a 2-vCPU
#: Intel Xeon (KVM) host with Python 3.11 and numpy 2.4, where a run's mean
#: ranges from 0.022 s to 0.036 s with the host's load
REF_S = 0.020
_POINTS = np.random.default_rng(0).normal(size=(64, 3))


def _interpreted(n: int) -> float:
    total, table = 0.0, {}
    for i in range(n):
        total += i * 0.5
        table[i & 255] = total
    return total


def _small_arrays(n: int) -> float:
    best = 0.0
    for i in range(n):
        best += float(np.linalg.norm(_POINTS - _POINTS[i & 63], axis=1).min())
    return best


def reference_s() -> float:
    """Seconds one run of the reference kernel takes now."""
    t0 = time.perf_counter()
    _interpreted(100_000)
    _small_arrays(1_250)
    return time.perf_counter() - t0
