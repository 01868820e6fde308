"""Host speed probe: a fixed reference computation timed beside every measurement.

The benchmark host is a few cores of a shared machine.  Load from other
tenants switches the CPU between a fast and a slow state, about 1.8x apart,
for seconds at a time, and the share of time in each state drifts over
minutes.  Raw op latencies and set-up times follow it, so no statistic of
them holds still from run to run.  Each measurement is therefore timed next
to ``probe_ms()``, a fixed mix of interpreted Python and small numpy calls
(the same kind of work kcontract does), and reported as

    normalised time = raw time * PROBE_REF_MS / probe time around it,

that is, the time on a host where the probe takes ``PROBE_REF_MS``.  The
raw times are kept in the run record.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_REF_MS = 1.0
_A = np.random.default_rng(0).standard_normal((4, 4))


def _reference_work() -> float:
    s = 0.0
    for _ in range(150):
        s += float(np.abs(_A).sum()) + float((_A @ _A)[0, 1])
    table = {}
    for i in range(4000):
        table[i & 63] = i * i
    return s + sum(table.values())


def probe_ms() -> float:
    """Wall time of one pass of the reference work, in ms."""
    t0 = time.perf_counter()
    _reference_work()
    return (time.perf_counter() - t0) * 1e3
