"""A machine-speed probe, and the scaling of measured times by it.

The benchmark runs on small virtual machines that share their host, and
their speed wanders over seconds to minutes.  On a 2-vCPU VM a fixed
pure-Python loop took from 1.2 to 1.8 ms in 2-second windows, and a cached
``/analyze`` took 5 ms in fast stretches and 9 ms in slow ones, so a
20-second run's median latency followed how much of the run fell into
slow stretches more than what the program did.

A probe is a fixed piece of work of the kinds the ops are made of -- an
interpreter loop, a JSON round trip and a numpy sort -- and reads as the
geometric mean of the three parts' wall times.  The driver probes before
the first timed op and after every op (and around every set-up), and
scales each measured time by :func:`factor`: ``REFERENCE_SECONDS`` over the
mean of the probes on either side.  A scaled time is the time the work
would have taken on a machine where a probe takes ``REFERENCE_SECONDS``.
On the VM above, the medians of 4-second windows of one 80-second
``/analyze`` run ranged from 0.71x to 1.23x the run's median in wall
time, and from 0.95x to 1.06x scaled.

The probe calls only the standard library and numpy, never the package,
so a change to the package cannot move it.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

__all__ = ["REFERENCE_SECONDS", "factor", "probe"]

#: A probe's median on the 2-vCPU VM the benchmark was tuned on; scaled
#: times read as that machine's times at its median speed.
REFERENCE_SECONDS = 0.000290

_rng = np.random.default_rng(0)
_FLOATS = _rng.standard_normal(300).tolist()
_ARRAY = _rng.standard_normal(20_000)


def _interpreter_loop() -> int:
    total = 0
    for i in range(6000):
        total += i * i
    return total


def _json_round_trip() -> list:
    return json.loads(json.dumps(_FLOATS))


def _numpy_sort() -> np.ndarray:
    return np.sort(_ARRAY)


_PARTS = (_interpreter_loop, _json_round_trip, _numpy_sort)


def probe(repeats: int = 1) -> float:
    """Seconds one probe takes now: the geometric mean of its parts, and
    the median over ``repeats`` probes in a row."""
    times = []
    for _ in range(repeats):
        logs = 0.0
        for part in _PARTS:
            started = time.perf_counter()
            part()
            logs += math.log(time.perf_counter() - started)
        times.append(math.exp(logs / len(_PARTS)))
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two probes."""
    return REFERENCE_SECONDS / (0.5 * (before + after))
