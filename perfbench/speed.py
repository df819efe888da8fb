"""Machine speed sampler: a fixed reference kernel timed during a run.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 2x within minutes, and moves by 10-20% from one second to the
next, with nothing visible from inside the machine: process CPU time
slows down exactly as wall time does.  Raw wall times therefore mix
qbnet's cost with the host's load at that moment.  The fluctuation
reaches down to milliseconds: one 4 ms kernel call below takes from 3 ms
to 15 ms, its quartiles half the median apart.

``Sampler`` times a small pure-Python reference kernel, which does not
use qbnet and never changes, from a ``SIGALRM`` handler every
``INTERVAL_S`` seconds while it is active.  The handler runs in the main
thread between bytecodes, so the kernel never runs beside the measured
code; the time it takes is cut out of every interval it falls in.  On a
2-core VM, ten passes over one fixed operation set spread, as quartile
distance over median, 0.22 as measured and 0.05 scaled (``queries``),
0.22 and 0.07 (``steady_datasets``), 0.12 and 0.03 (``power``).

``scaled(a, b)`` is the time from ``a`` to ``b`` with the samples cut
out, multiplied by ``REFERENCE_S`` over the mean kernel time of the
samples taken from ``a`` to ``b`` (widened to the nearest ``WINDOW``
samples when fewer fall inside): the time the interval would take on a
machine that runs the kernel in ``REFERENCE_S``.  The mean, not the
median, because a call slows by the host's average load over its
duration, bursts included; on ``power``'s operations of half a second
and more it left a third or less of the spread the median left.
"""

from __future__ import annotations

import bisect
import signal
import time

#: about the seconds of one ``kernel()`` on a quiet 2-core x86-64 VM
#: (CPython 3.11); a fixed unit, so scaled times read as seconds there
REFERENCE_S = 0.004
INTERVAL_S = 0.1
WINDOW = 9
_ROUNDS = 2000


def kernel():
    """The reference work: complex arithmetic, small lists, dict updates
    and function calls, the kind of Python-level work qbnet does around
    its numpy calls."""
    table = {}
    total = 0j
    for i in range(_ROUNDS):
        z = complex(i % 7 - 3, (i % 5) - 2)
        row = [z * k for k in range(8)]
        table[i % 61] = row
        total += sum(row) / (1.0 + abs(z))
    return total, len(table)


class Sampler:
    """Kernel samples taken every ``INTERVAL_S`` while active (a context
    manager); ``starts`` and ``ends`` bound each sample."""

    def __init__(self):
        self.starts, self.ends = [], []
        self._previous = None
        self._sampling = False
        kernel()

    def _handle(self, signum, frame):
        # a signal due while the kernel runs would nest a second sample
        # inside this one; it is dropped
        if self._sampling:
            return
        self._sampling = True
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self._sampling = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        self._handle(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._handle(None, None)
        return False

    def busy(self, a, b):
        """Seconds of kernel samples inside ``[a, b]``."""
        first = bisect.bisect_right(self.ends, a)
        last = bisect.bisect_left(self.starts, b)
        return sum(min(b, self.ends[k]) - max(a, self.starts[k])
                   for k in range(first, last))

    def factor(self, a, b):
        lo = bisect.bisect_left(self.ends, a)
        hi = bisect.bisect_right(self.ends, b)
        while hi - lo < WINDOW and (lo > 0 or hi < len(self.ends)):
            lo, hi = max(0, lo - 1), min(len(self.ends), hi + 1)
        busy = sum(self.ends[k] - self.starts[k] for k in range(lo, hi))
        return REFERENCE_S * (hi - lo) / busy

    def scaled(self, a, b):
        return (b - a - self.busy(a, b)) * self.factor(a, b)
