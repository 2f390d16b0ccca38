"""Machine-speed calibration for the end-to-end timings.

The reference machine is a shared 2-core virtual machine. Its effective speed
switches between a fast and a slow mode, and the share of time spent in each
drifts over seconds to minutes. Raw per-run means of identical work moved by
11-14% (coefficient of variation over 25 s windows). So every timed operation
is preceded by one fixed calibration loop (each set-up probe and CLI child
times a few of its own after its work): small-array numpy calls of the same
kind as the package's hot loops, touching nothing of beliefgames. A run's
timings are reported as raw mean times REFERENCE_S / mean loop time.
Calibration and operations are interleaved, so both means weight the fast and
slow modes alike and the ratio cancels the mode mix. In the same windows the
ratio varied by 1.3-2.2%. The reported figures read in seconds of a machine on
which the loop takes REFERENCE_S, about this sandbox in its fast mode. A change
to the program moves the raw times and not the loop, so it shows in full. Raw
samples and loop times are kept in the result files.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.005
_X = np.arange(3.0)


def loop_s() -> float:
    """Time one run of the calibration loop, in seconds."""
    x = _X
    start = time.perf_counter()
    for _ in range(1000):
        w = np.exp(x - x.max())
        w /= w.sum()
        np.dot(w, x)
    return time.perf_counter() - start


def loops_s(count: int = 5) -> list:
    """Time ``count`` calibration loops; child processes report these."""
    return [loop_s() for _ in range(count)]


def speed_factor(loop_times) -> float:
    """Scale from a run's raw times to reference-machine times."""
    return REFERENCE_S * len(loop_times) / sum(loop_times)
