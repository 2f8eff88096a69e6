"""Wall-clock timings corrected for the host's changing speed.

The benchmark runs on a few cores of a shared host. Other tenants slow
every instruction for stretches of seconds to minutes (a fixed loop's time
varies by up to 1.8x), and the guest records no steal time, so a raw
timing mostly says which phase it landed in. A `Speedometer` samples the
speed while a run is timed: every `INTERVAL` seconds a SIGALRM handler
runs a fixed calibration loop twice and times the second run. A stage's
corrected time is its wall time, minus the time spent in the handler,
times `REFERENCE_S` over the mean sample time during the stage. That is the stage's time on a host where the loop
takes `REFERENCE_S`, about its mean on the 2-core VM the bounds were set
on. The handler runs in the main thread between bytecodes; no thread or
process is started.

The loop does what the program's inner loops do: small complex matrix
products, rounding and an MD5. Under contention the program's stages
slowed by 0.8-1.3 times as much as this loop (in log terms), against
1.5-1.7 times for a pure-Python integer loop, so this one cancels the
host's phases best. The first, untimed run brings the loop's own data back
into cache, so the sample does not depend on how much of the cache the
program's last step used: timed cold, the loop ran ~0.40 ms during builds
but ~0.55 ms during loads and 512x512 products in the same phase, and
timed warm, 0.33-0.35 ms during all of them.
"""

from __future__ import annotations

import bisect
import hashlib
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.02  # seconds between samples
LOOP = 15  # steps of the calibration loop (~0.35 ms)
REFERENCE_S = 3.5e-4  # the loop's time at the speed timings are scaled to
MIN_SAMPLES = 5  # a stage with fewer uses the samples nearest to it

clock = time.perf_counter
_STEP = np.eye(8, dtype=complex) + 0.1j


def calibration_loop() -> bytes:
    u = _STEP
    digest = b""
    for _ in range(LOOP):
        u = _STEP @ u
        digest = hashlib.md5(np.round(u, 10).tobytes()).digest()
    return digest


class Speedometer:
    """Samples the loop's time while active; `seconds` corrects a stage
    timed with `clock` readings taken while it was active."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.costs: list[float] = []  # handler time, subtracted from stages
        self.durations: list[float] = []  # the timed run of the loop
        self._previous = None

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        t = clock()
        calibration_loop()
        warm = clock()
        calibration_loop()
        end = clock()
        self.starts.append(t)
        self.costs.append(end - t)
        self.durations.append(end - warm)

    def seconds(self, t0: float, t1: float) -> float:
        """Corrected seconds between the readings `t0` and `t1`."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        busy = (t1 - t0) - sum(self.costs[lo:hi])
        n = len(self.starts)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < n):
            before = t0 - self.starts[lo - 1] if lo > 0 else float("inf")
            after = self.starts[hi] - t1 if hi < n else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        if lo == hi:
            raise RuntimeError("no speed samples recorded")
        return busy * REFERENCE_S / statistics.fmean(self.durations[lo:hi])


def raw_seconds(t0: float, t1: float) -> float:
    """Uncorrected seconds, for runs without a speedometer."""
    return t1 - t0
