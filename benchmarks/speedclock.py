"""Machine-speed samples taken on the benchmark's own thread.

On a shared host the speed of one CPU drifts by up to 2x over seconds, and
a second CPU drifts on its own. A timer signal therefore interrupts the
benchmark every ``PERIOD_S`` seconds and runs a fixed kernel shaped like one
LSTM step (small float32 matmuls, sigmoid and tanh), on the same CPU at that
same moment. It runs twice and only the second pass is timed: timed cold,
after the workload has evicted its arrays, it slows far more than the
workload does. The kernel's rate near an interval measures how fast the
machine ran during it. Multiplying a measured time by ``factor`` gives what it
would have taken at ``REF_STEPS_PER_S``; the ratio of workload time to
kernel time varies far less than either alone. Time spent in the kernel is
excluded from every measured interval through ``spent``.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
STEPS = 50  # kernel steps per timed pass, about 1 ms
REF_STEPS_PER_S = 50_000.0  # the speed that normalised times are quoted at
WINDOW_S = 0.5  # samples this close to an interval describe it


class SpeedClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._wx = (0.1 * rng.standard_normal((150, 512))).astype(np.float32)
        self._wh = (0.1 * rng.standard_normal((128, 512))).astype(np.float32)
        self._x = rng.standard_normal(150).astype(np.float32)
        self.samples: list[tuple[float, float]] = []  # (start time, steps per second)
        self.spent = 0.0  # seconds spent in the kernel so far
        self._busy = False
        self._previous = None

    def _kernel(self) -> None:
        h = np.zeros(128, dtype=np.float32)
        c = np.zeros(128, dtype=np.float32)
        for _ in range(STEPS):
            z = self._x @ self._wx + h @ self._wh
            gates = 1.0 / (1.0 + np.exp(-z[:384]))
            c = gates[128:256] * c + gates[:128] * np.tanh(z[384:])
            h = gates[256:384] * np.tanh(c)

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self._kernel()  # untimed: reload the kernel's arrays into cache
            t1 = time.perf_counter()
            self._kernel()
            t2 = time.perf_counter()
            self.samples.append((t1, STEPS / (t2 - t1)))
            self.spent += t2 - t0
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedClock":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Machine speed over [start, end] relative to the reference speed."""
        near = [rate for t, rate in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            nearest = min(self.samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))
            near = [nearest[1]]
        return statistics.median(near) / REF_STEPS_PER_S
