"""The host-speed probe that end-to-end timings are scaled by.

The benchmark was written on a 2-vCPU VM whose cores are shared with other
machines.  Their load changes how fast the same code runs by up to 2x, in
phases lasting seconds to minutes, so wall times of identical runs made a few
minutes apart differ by more than any bound a regression check could use.
The probe is a fixed loop of the kinds of work skewbounds does (interpreter
loops, short vector products, a small Hermitian eigenproblem).  It is timed
between operations, and each batch's wall times are multiplied by
REFERENCE_S / (the median probe time of that batch): the times the batch
would have taken on a host where the probe takes REFERENCE_S.  The probe
belongs to the benchmark, so no change to skewbounds can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the probe's time on an uncontended core of the VM above, so that
# scaled times stay close to the wall times a quiet host gives.
REFERENCE_S = 1e-3
# probes per set-up measurement; their median is used
SETUP_PROBES = 9

_VECTORS = np.random.default_rng(0).standard_normal((16, 32))
_HERMITIAN = (lambda m: m + m.T)(np.random.default_rng(1).standard_normal((24, 24)))


def probe_s() -> float:
    """Wall time of one pass of the fixed reference loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(500):
        acc += float(_VECTORS[i % 16] @ _VECTORS[(i + 1) % 16])
    for i in range(5000):
        acc += i * 0.5
    for _ in range(4):
        acc += float(np.linalg.eigvalsh(_HERMITIAN)[0])
    return time.perf_counter() - t0


def scale(probes: list[float]) -> float:
    """Factor from wall seconds to reference seconds, given probes timed around the work."""
    return REFERENCE_S / statistics.median(probes)


def setup_scale() -> float:
    """scale() from SETUP_PROBES probes taken now."""
    return scale([probe_s() for _ in range(SETUP_PROBES)])
