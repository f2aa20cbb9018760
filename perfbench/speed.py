"""Speed probe: how fast the machine runs Python while a pass is timed.

The benchmark runs on a few cores of a shared host, and the speed of those
cores drifts by a third between spells of a few seconds to minutes, with the
load of other tenants. A pass times the program and the drift together. The
probe measures the drift alone, in the same process and at the same moments:
while it is installed, a ``SIGALRM`` interval timer interrupts the main
thread every ``INTERVAL_S`` seconds, and the handler runs one fixed chunk of
pure-Python bitmask work (the kind of work the solvers and scans do, but
none of totaldom's code) and records its CPU time. ``scale()`` is the mean
of ``REFERENCE_CHUNK_S / chunk time`` over the samples; the pass's wall
time times that factor is what the pass would have taken at the reference
speed. An optimisation of the program does not touch the chunk, so it shows
in full; the drift shows in both and cancels.

The chunk costs about 1 ms per 100 ms (1% of a pass), included in the pass's
wall time. Interval timers are not inherited across ``fork``, so the pool
workers of a scan are never interrupted; the probe in the parent samples the
speed of the cores they run on. The previous ``SIGALRM`` handler and timer
are put back on exit.
"""

from __future__ import annotations

import random
import signal
import time

INTERVAL_S = 0.1
CHUNK_ROUNDS = 200
# CPU time of one chunk, measured on the machine the baseline was taken on
# (2 cores of an Intel Xeon, Python 3.11.7); it only sets the unit of the
# scaled figures. Scales there ranged from 0.94 to 1.56.
REFERENCE_CHUNK_S = 0.0009

_N = 48
_rng = random.Random(5)
_COVER = tuple(_rng.getrandbits(_N) | (1 << i) for i in range(_N))
_FULL = (1 << _N) - 1


def chunk() -> int:
    """Fixed work: the greedy-gain scan of a bitmask cover, CHUNK_ROUNDS times."""
    acc = 0
    for r in range(CHUNK_ROUNDS):
        unc = _FULL & ~(_COVER[r % _N] | acc)
        m = unc
        best = 0
        while m:
            low = m & -m
            gain = (_COVER[low.bit_length() - 1] & unc).bit_count()
            if gain > best:
                best = gain
            m ^= low
        acc = (acc * 3 + best) & _FULL
    return acc


class SpeedProbe:
    """Context manager that samples the chunk's CPU time while it is open."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = time.thread_time()
        chunk()
        self.samples.append(time.thread_time() - t0)

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        # a Python call lets a signal that is already pending reach
        # ``sample`` before the previous handler is back
        self.sample()
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Mean of reference / measured chunk time: below 1 on a slow spell."""
        return sum(REFERENCE_CHUNK_S / s for s in self.samples) / len(self.samples)
