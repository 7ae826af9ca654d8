"""Host-speed reference for the end-to-end timings.

The benchmark runs on a shared virtual machine whose speed changes by up
to about 2x, for seconds to minutes at a time, with the load of its
neighbours.  Raw times of one run therefore follow the share of slow
time in that run more than the code under test.  So the measured time
is cut into segments at samples of a fixed reference kernel, taken
between calls and at least every SAMPLE_EVERY_S inside them, and every
segment is reported at the reference speed:

    scaled seconds = raw seconds * REF_S / (mean of the samples at its ends)

The kernel is SVDs of a fixed 8x8 matrix plus a Python loop, the mix
the library spends its time on, and it does not touch the library: a
change to the library moves the scaled times, a change of host speed
moves the kernel and the call alike and mostly cancels.  The time the
samples take is left out of both raw and scaled times.
"""

import math
import signal
import time

import numpy as np

#: kernel seconds on the idle 2-vCPU x86-64 machine the baseline was
#: taken on; scaled times are raw times at this kernel speed
REF_S = 0.0031
#: one kernel run: this many SVDs and this many loop steps (about 3 ms)
REF_SVDS = 250
REF_LOOP = 5000
#: a sample is the fastest of this many kernel runs, so one interrupt
#: does not make a sample slow
REF_REPEATS = 3
#: longest stretch of a call left without a sample
SAMPLE_EVERY_S = 0.25


class HostReference:
    """Takes and keeps reference-kernel samples."""

    def __init__(self):
        self._a = np.random.default_rng(0).standard_normal((8, 8))
        self.samples = []

    def sample(self) -> float:
        """Seconds of the fastest of REF_REPEATS kernel runs."""
        best = math.inf
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter()
            for _ in range(REF_SVDS):
                np.linalg.svd(self._a, compute_uv=False)
            x = 0
            for i in range(REF_LOOP):
                x += i
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        return best


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between samples ``before`` and ``after``,
    at the reference speed."""
    return seconds * 2.0 * REF_S / (before + after)


class ScaledClock:
    """Raw and scaled seconds elapsed outside host samples.

    ``mark()`` closes the segment since the previous mark with a fresh
    sample.  While the clock runs, SIGALRM marks it every SAMPLE_EVERY_S,
    in the middle of a library call if need be, so a long call is scaled
    piece by piece.  Time a call by the change of ``raw`` and ``scaled``
    between a mark before it and a mark after it.
    """

    def __init__(self, host: HostReference):
        self.host = host
        self.raw = self.scaled = 0.0
        self._busy = False
        self._last = host.sample()
        self._t = time.perf_counter()

    def mark(self):
        self._busy = True
        seg = time.perf_counter() - self._t
        s = self.host.sample()
        self.raw += seg
        self.scaled += scale(seg, self._last, s)
        self._last = s
        self._t = time.perf_counter()
        self._busy = False

    def _on_alarm(self, signum, frame):
        if not self._busy:  # an alarm inside mark() would count a segment twice
            self.mark()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def start(self):
        """Mark now and then every SAMPLE_EVERY_S until ``stop()``."""
        self.mark()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
