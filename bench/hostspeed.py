"""Host speed: a fixed reference computation timed between timed steps.

The benchmark runs on a few vCPUs of a shared host. Their speed moves with
the load of other tenants, by up to about 1.7x within seconds and by tens of
percent between minutes, and every op slows with it. Timing a fixed
reference computation in the gap before and the gap after each op gives the
host's speed around that op, and scaling the op's wall time by
NOMINAL_S / (reference time) reports it at one fixed host speed. The
reference is benchmark code, so a change to the program moves only the op's
time, never the scale.

The reference mixes the three kinds of work the workloads do: a
pure-Python recurrence (as in the elliptic Thomas solves), many calls on
tiny arrays (as in the moment and order loop) and LAPACK on dense blocks
(as in the spectral oracle).
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator

import numpy as np

# About the median time of one reference() on a 2-vCPU Intel Xeon VM
# (numpy 2.4, OpenBLAS, one thread). Scaled times are wall times on a host
# that runs the reference in exactly this long.
NOMINAL_S = 1.5e-3
# Reference time spent in each gap, as a share of the step before it.
SHARE = 0.1
MIN_GAP_S = 2e-3

_rng = np.random.default_rng(0)
_BLOCKS = _rng.standard_normal((8, 48, 48))
_BLOCKS = _BLOCKS @ _BLOCKS.transpose(0, 2, 1)
_DENSE = _rng.standard_normal((128, 128)) + 128.0 * np.eye(128)
_RHS = _rng.standard_normal(128)
_SMALL = 0.1 * _rng.standard_normal((6, 6))
_VEC = _rng.standard_normal(6)
_LIST = [float(x) for x in _rng.standard_normal(400)]


def reference() -> float:
    prev, out = 0.0, [0.0] * len(_LIST)
    for i, x in enumerate(_LIST):
        prev = (x - 0.3 * prev) / (2.0 + 0.1 * (i % 3))
        out[i] = prev
    acc = _VEC
    for _ in range(30):
        acc = np.maximum(_SMALL @ acc + _VEC, -1.0)
    w = np.linalg.eigvalsh(_BLOCKS)
    x = np.linalg.solve(_DENSE, _RHS)
    return out[-1] + float(acc.sum()) + float(w[0, 0]) + float(x[0])


def sample(budget: float) -> float:
    """Seconds per reference() over at least `budget` seconds (one run at least)."""
    start = time.perf_counter()
    reps = 0
    while True:
        reference()
        reps += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget:
            return elapsed / reps


def scaled(steps: Iterable[float]) -> Iterator[tuple[float, float]]:
    """For each wall time that `steps` yields: (wall time, time at nominal speed).

    Each step's host speed is the mean of the reference samples taken in the
    gaps on either side of it; the next step starts after the second gap.
    """
    before = sample(MIN_GAP_S)
    for wall in steps:
        after = sample(max(MIN_GAP_S, SHARE * wall))
        yield wall, wall * NOMINAL_S * 2.0 / (before + after)
        before = after
