"""Machine-speed reference sampled while an operation runs.

The host's speed swings by up to 2x, over both seconds and minutes. Its
cores are shared with other tenants. Raw operation times swing with it, by
20-40% from run to run. A timer signal interrupts the operation every
INTERVAL seconds, and the handler runs one fixed reference piece and times
it. The piece is plain Python shaped like geadim's own loops: numpy scalar
reads in nested loops, tuples, a dict and a sort. It runs in the same
thread, between the operation's bytecodes, so it sees the same slowdowns
at the same moments. An operation's time without the pieces, divided by
the mean piece time, is its length in reference pieces. On a shared
2-vCPU Xeon host, that number spread 6-7% (interquartile range over median)
across ten runs where the raw time spread 20-40%. What is left comes mostly
from geadim slowing somewhat more than the piece under heavy contention.
The pieces cost about 1.5% of an operation.
"""

import gc
import signal
import time

import numpy as np

INTERVAL = 0.1
_TABLE = ((np.arange(64).reshape(8, 8) * 5 + 3) % 11 - 2).astype(np.int8)


def reference_piece():
    table = _TABLE
    acc = 0
    seen = {}
    for r in range(15):
        for i in range(8):
            for j in range(8):
                v = table[i, j]
                if v >= 0:
                    acc += int(table[j, v % 8])
                seen[(i, j, r % 3)] = acc & 7
        acc += len(sorted(seen.values()))
    return acc


class Sampler:
    """Context manager: runs reference pieces from SIGALRM while active.

    ``seconds`` and ``pieces`` accumulate the pieces' wall time and count.
    When a tracer is given, each piece's time is excluded from the
    self time of the span it interrupted.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = 0.0
        self.pieces = 0

    def _tick(self, signum, frame):
        # a collection started by the piece's allocations would walk the
        # operation's heap and charge that to the piece
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_piece()
        dt = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.seconds += dt
        self.pieces += 1
        if self.tracer is not None:
            self.tracer.exclude(dt)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def piece_seconds(self):
        """Mean seconds per piece; one piece timed now when none ran."""
        if self.pieces:
            return self.seconds / self.pieces
        t0 = time.perf_counter()
        reference_piece()
        return time.perf_counter() - t0
