"""The reference task: a fixed piece of work that gauges the host's speed.

The benchmark runs on shared virtual machines whose speed swings by up to half
within seconds as neighbours load the host.  Those swings move every job of a
run alike, so the loop runs this task before every job and scales the job's
wall time by ``REF_S`` over the mean of the task's times just before and just
after it: the job's time on a host where the task takes ``REF_S``.

The task never calls radonlab, so no change to the library can move it.  It
mixes the kinds of work the jobs do: exact rational arithmetic with dict and
tuple churn, a plain integer loop, and numpy FFTs.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# About the task's median time inside the loop on a 2-vCPU Xeon VM (2.0 GHz),
# so that scaled times stay close to wall times there.
REF_S = 0.010

_SIGNAL = np.random.default_rng(0).standard_normal(1 << 14)


def _rationals() -> int:
    acc, seen = Fraction(0), {}
    for i in range(1, 750):
        acc += Fraction(i % 7, i)
        seen[(i, i * i % 97)] = acc
    return len(seen)


def _integers() -> int:
    s = 0
    for i in range(30000):
        s += i * i % 7
    return s


def _ffts() -> float:
    return sum(float(np.fft.fft(_SIGNAL)[1].real) for _ in range(5))


def reference() -> float:
    """Wall time of one run of the task, in seconds."""
    t = time.perf_counter()
    _rationals()
    _integers()
    _ffts()
    return time.perf_counter() - t
