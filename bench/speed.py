"""Host-speed reference: scale measured times to a host of fixed speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds and between runs, while CPU time stays equal
to wall time, so the drift cannot be seen from inside except by timing a
known piece of work.  The runner therefore times ``reference`` work (pure
Python dict lookups and small-integer arithmetic, like the package's own)
before every case and after the last, and reports each end-to-end time ``t``
measured while the reference took ``r`` seconds as ``t * NOMINAL_S / r``:
the time on a host where the reference work takes ``NOMINAL_S``.  The drift
changes within a fraction of a second, so only the samples next to a case
set its speed.  The reference is benchmark code, so no change to the
package can speed it up or slow it down.
"""

from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_S = 0.0012  # the reference work's time on this 2-vCPU Xeon host, fast state
WINDOW_S = 0.01  # samples this close to a measured interval set its speed
CALL_SAMPLES = 5  # samples before and after a call timed by scaled_call

_TABLE = {i: i for i in range(64)}


def reference() -> float:
    """Seconds for the reference work.  It allocates no containers, so it
    never starts the garbage collector."""
    table, acc = _TABLE, 0
    started = time.perf_counter()
    for i in range(6000):
        key = i & 63
        acc += table[key] * key
        table[key] = acc & 1023
    return time.perf_counter() - started


class SpeedTrack:
    """Reference samples, each as (start time, seconds), in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        self.starts.append(time.perf_counter())
        self.seconds.append(reference())

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, scaled to the nominal host by
        the median of the samples within ``WINDOW_S`` of that interval: the
        one taken just before it, the one just after it, and for short cases
        a few neighbours."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + seconds + WINDOW_S)
        return seconds * NOMINAL_S / statistics.median(self.seconds[lo:hi])


def scaled_call(fn):
    """Call ``fn()`` between two groups of reference samples; return its
    result and its scaled duration in seconds."""
    reference()  # lets the interpreter specialise the loop before sampling
    track = SpeedTrack()
    for _ in range(CALL_SAMPLES):
        track.sample()
    started = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - started
    for _ in range(CALL_SAMPLES):
        track.sample()
    return result, track.scale(started, seconds)
