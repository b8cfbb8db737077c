"""Machine-speed probe, used to scale timings on a shared machine.

On a small shared machine the same code runs 20-30% slower or faster for
minutes at a time as other tenants load the cores. A run therefore calls
this fixed probe, which never touches faddeevlab, between its repeats and
divides its times by the median slowdown of the probe against REFERENCE_S.
The probe blends the three kinds of work the workloads do: interpreter
loops, numpy calls on grid-sized arrays, and numpy throughput on large
arrays.
"""
import time

import numpy as np

# Typical probe time on the shared 2-core Xeon (x86-64, Python 3.11, numpy
# 2.4.6) the benchmark was written on. It only fixes the scale, so that
# scaled times read close to raw seconds there.
REFERENCE_S = 0.25

_GRID = np.linspace(-3.0, 3.0, 2049)
_LARGE = np.linspace(-3.0, 3.0, 1 << 16)


def _grid_calls():
    x = _GRID
    for _ in range(700):
        s, c = np.sin(x), np.cos(x)
        y = (x * c - s) * s / (x * x + 1.0)
        small = np.abs(x) < 0.5
        y[small] = 0.5 * x[small] ** 2
        y[2:] - 2.0 * y[1:-1] + y[:-2]


def _interpreter():
    acc = 0
    for i in range(500_000):
        acc += i * i % 7
    return acc


def _throughput():
    x = _LARGE
    for _ in range(25):
        np.sin(x) * np.cos(x) + x ** 3


def slowdown():
    """Probe time over REFERENCE_S: 1 on the reference machine when quiet."""
    t0 = time.perf_counter()
    _grid_calls()
    _interpreter()
    _throughput()
    return (time.perf_counter() - t0) / REFERENCE_S
