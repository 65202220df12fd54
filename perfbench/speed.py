"""Wall times scaled to a reference machine speed.

On a shared host the speed of one core drifts by up to 2x within minutes, in
phases of a few seconds.  On the 2-vCPU virtual machine this benchmark was
built on, raw pass times moved by 25% (interquartile range over median) from
one 20-second window to the next.  So every time the benchmark reports is
scaled by the speed of a fixed calibration kernel (small numpy contractions in
a Python loop; no codazzi code), measured at the same moments.

During a pass, a ``SIGALRM`` handler runs a short kernel every
``SAMPLE_INTERVAL_S``.  The time spent in the handler is left out.  Each
segment of the pass between two kernel runs is scaled by the mean speed at its
two ends, and the pass's first and last segments use longer kernel runs made
just before and just after it.  A scaled second is the time the work would
take on a machine that runs the kernel at ``NOMINAL_S_PER_ITERATION``.  A
change to codazzi moves scaled and raw times alike.
"""

from __future__ import annotations

import signal
import time

NOMINAL_S_PER_ITERATION = 12.5e-6
EDGE_ITERATIONS = 4000
SAMPLE_ITERATIONS = 400
SAMPLE_INTERVAL_S = 0.25


def kernel_seconds(iterations: int) -> float:
    """Wall seconds of the calibration kernel, which depends only on Python and numpy."""
    import numpy as np  # imported here so that measured set-up still pays numpy's import

    cubic = np.linspace(-1.0, 1.0, 27).reshape(3, 3, 3)
    metric = np.array([[2.0, 0.1, 0.0], [0.1, 1.5, 0.2], [0.0, 0.2, 1.0]])
    t0 = time.perf_counter()
    acc = 0.0
    seen = {}
    for i in range(iterations):
        x = np.einsum("ijk,kl->ijl", cubic, metric)
        acc += float(np.tensordot(x, metric, axes=((0, 1), (0, 1))).sum())
        seen[i % 97] = acc
    return time.perf_counter() - t0


def speed(iterations: int = EDGE_ITERATIONS) -> float:
    """Current speed relative to the reference machine (above 1: faster)."""
    return iterations * NOMINAL_S_PER_ITERATION / kernel_seconds(iterations)


class ScaledTimer:
    """Times passes one after another; the speed measured after a pass also opens the next."""

    def __init__(self):
        self.speeds = [speed()]
        self.pauses: list[tuple[float, float]] = []

    def run(self, fn):
        """Call ``fn()``; return ``(result, raw wall seconds, scaled seconds)``.

        The raw time leaves out the time spent in the sampling handler; the
        handler's ``(entered, left)`` intervals stay in ``pauses`` until the next
        call, so that spans can leave them out too.
        """
        marks = []  # (handler entered, handler left, speed)

        def on_alarm(signum, frame):
            entered = time.perf_counter()
            sampled_speed = speed(SAMPLE_ITERATIONS)
            marks.append((entered, time.perf_counter(), sampled_speed))

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.speeds.append(speed())
        self.pauses = [(entered, left) for entered, left, _ in marks]

        raw = scaled = 0.0
        resumed, speed_before = start, self.speeds[-2]
        for entered, left, speed_at in marks + [(end, end, self.speeds[-1])]:
            segment = entered - resumed
            raw += segment
            scaled += segment * 0.5 * (speed_before + speed_at)
            resumed, speed_before = left, speed_at
        return result, raw, scaled
