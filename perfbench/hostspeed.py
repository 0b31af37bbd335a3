"""Host speed samples, to take the host's load out of the benchmark's times.

On a shared host the speed of a core changes with the load other virtual
machines put on it, in stretches from a tenth of a second to minutes: the
same pass can take 2 s, and 3 s a minute later. While the benchmark times
the program, a timer signal runs a fixed pure-Python loop every
``INTERVAL`` seconds and records how long it took. A span of wall time
``T`` with loop samples ``r_i`` then counts as
``T * mean(REFERENCE_LOOP_S / r_i)``: the time the same work takes on a
reference core, one that runs the loop in ``REFERENCE_LOOP_S``. The
reference is a fixed number rather than, say, the run's fastest sample,
because a whole run can fall into a slow stretch.

The loop's own time is kept out of the program's: time the program with
``HostSpeed.clock``, which stops while a sample runs.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

LOOP = 15000                # 0.9 ms on an idle x86-64 core, Python 3.11
REFERENCE_LOOP_S = 0.001
INTERVAL = 0.05             # seconds between samples


class HostSpeed:
    def __init__(self):
        self.samples = []    # loop times (s), in the order taken
        self.paused = 0.0    # total time spent taking samples
        self._busy = False

    def clock(self) -> float:
        """``time.perf_counter`` without the time spent taking samples."""
        return time.perf_counter() - self.paused

    def sample(self, *_):
        """Time the fixed loop once; also the timer signal's handler. A
        signal that arrives during a sample is dropped, so that no sample
        holds another."""
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        total = 0
        for i in range(LOOP):
            total += i * i % 7
        end = time.perf_counter()
        self.samples.append(end - start)
        self.paused += end - start
        self._busy = False

    @contextmanager
    def sampling(self):
        """Take a sample every ``INTERVAL`` seconds inside the block (on the
        main thread, between bytecodes or when a system call is
        interrupted), and one at each end."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()


def scale(samples) -> float:
    """Factor taking a time measured alongside ``samples`` to the reference core."""
    return statistics.fmean(REFERENCE_LOOP_S / r for r in samples)
