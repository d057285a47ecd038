"""Measured times, scaled to a fixed machine speed.

Other tenants of a small shared machine slow every process on it by up to
1.8x, for stretches from seconds to minutes, so the median call of a whole
run moves by 15-30 % from one run to the next.  A fixed pure-Python
computation, timed just before and just after each measured call and every
PROBE_S of CPU time during it, shows how fast the machine is at that moment;
the call's time is scaled by REF_S over the mean of those reference times.
Scaled times of the same work stay within a few percent of each other.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# The reference computation's typical time on an unloaded 2-vCPU sandbox
# with Python 3.11: scaled times are what that machine would measure.
REF_S = 1.5e-3
PROBE_S = 0.1


def reference_time() -> float:
    """Seconds taken now by a fixed computation in the style of the
    library's inner loops (exact rationals, tuples, a dict)."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 3 * i + 1)
        table[(i, i % 7)] = acc.numerator % 1000003
    return time.perf_counter() - t0


class SpeedProbe:
    """Reference times around and during measured calls.

    While started, a SIGVTALRM every PROBE_S of CPU time times the reference
    computation; `spent` adds up how long that took, so that `timed` can
    leave it out of the call it interrupted."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_time())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_S, PROBE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def reference(self) -> float:
        """reference_time(), less any probe that interrupted it."""
        spent = self.spent
        ref = reference_time()
        return ref - (self.spent - spent)

    def open(self, ref_before: float) -> None:
        """Start a window whose first reference time is `ref_before`."""
        self.samples = [ref_before]

    def close(self) -> tuple[float, float]:
        """End the window: (speed factor REF_S / mean reference time, the
        reference time just taken, which can open the next window)."""
        ref_after = self.reference()
        self.samples.append(ref_after)
        return REF_S / statistics.fmean(self.samples), ref_after

    def timed(self, times: dict, key: str, fn, *args):
        """Call fn(*args); store its time, probes left out, in times[key]."""
        spent, t0 = self.spent, time.perf_counter()
        try:
            return fn(*args)
        finally:
            times[key] = time.perf_counter() - t0 - (self.spent - spent)
