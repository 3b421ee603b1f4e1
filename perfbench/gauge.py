"""A fixed computation that gauges how fast the host runs right now.

On a shared virtual machine the same code can run up to twice as slowly
while other tenants load the host, and the share of time spent slow
changes from minute to minute. The worker times ``gauge()`` between
operations; the run scales its fit times by ``REFERENCE_S`` over the mean
gauge time, so the gated timings read as seconds on a host where the
gauge takes ``REFERENCE_S``. The gauge uses no fdadapt code, so a change
to fdadapt cannot move it.

Its three parts mimic the mix of work in a fit: interpreted Python, many
numpy calls on small arrays, and a few vector operations on 20,000
values.
"""

import time

import numpy as np

REFERENCE_S = 0.2

_rng = np.random.default_rng(0)
_BIG = _rng.random(20_000)
_STARTS = np.arange(0, 20_000, 100)
_SMALL = _rng.random(64)


def gauge():
    """Seconds one pass of the fixed computation takes."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(800_000):
        acc += i * i % 7
    total = 0.0
    for _ in range(6_000):
        inside = np.abs(_SMALL - 0.5) <= 0.1
        total += float((_SMALL * inside).sum())
    for _ in range(120):
        np.add.reduceat(_BIG * _BIG, _STARTS)
        np.sort(_BIG)
    return time.perf_counter() - t0
