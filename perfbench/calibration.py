"""Host-speed calibration.

The hosts this benchmark runs on are shared, and their speed drifts by
half or more within seconds to minutes while a process's CPU time
stays equal to its wall time: other tenants slow each instruction
down, they do not preempt.  Raw wall-clock times of the same code then
differ by more than any useful regression bound between two sets of
runs.

While the benchmark runs, a SIGALRM interval timer interrupts it every
INTERVAL_S and times one pass of a fixed pure-Python kernel that does
the kind of work the program does (exact rational elimination,
big-integer products, hashing of tuples) without calling the program.
The benchmark divides each job's latency by that job's host factor,
the mean pass time during the job over REFERENCE_S: the figures are
seconds on a host where one pass takes REFERENCE_S.  The passes are
spread evenly over the job's wall time, so their mean weighs the
host's slow and fast spells as the job's latency does; a median would
follow whichever spell lasted longer.  Factors taken per job follow
the host through its changes of speed within a run; one factor for a
whole run does not.  The time spent in the handler is
taken out of each latency.  A change to the program moves job times
and leaves the kernel alone, so its effect on the reported figures is
kept whole.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# one pass of the kernel on an unloaded 2-vCPU development host
REFERENCE_S = 0.0005
INTERVAL_S = 0.025


def _kernel():
    n = 5
    m = [
        [Fraction((i * 7 + j * 3) % 11 + 13 * (i == j), 1 + (i + j) % 5)
         for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        pivot = m[c][c]
        m[c] = [x / pivot for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    a = [(3**k) % (2**61 - 1) for k in range(12)]
    out = [0] * 23
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            out[i + j] += x * y
    table = {}
    for i in range(300):
        table[(i % 97, i * 2654435761 % 1000003, out[i % 23])] = i
    return len(table)


class HostSampler:
    """Samples the host's speed while started; `stolen` is the time
    spent in the handler so far."""

    def __init__(self):
        self.samples = []
        self.stolen = 0.0
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t1 = perf_counter()
            _kernel()
            self.samples.append(perf_counter() - t1)
        finally:
            if enabled:
                gc.enable()
            self.stolen += perf_counter() - t0
            self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def pass_time_since(self, first):
        """Mean pass time of the samples taken since index `first` (the
        last few before it when the span was too short for one)."""
        samples = self.samples[first:] or self.samples[-8:]
        if not samples:
            self._handler(None, None)
            samples = self.samples[-1:]
        return statistics.fmean(samples)


def host_factor(pass_s):
    """How much slower than the reference host the program ran, given
    the mean pass time measured meanwhile: above 1 on a slow host."""
    return pass_s / REFERENCE_S
