"""The host-speed probe: a fixed piece of pure-Python work, independent of ftk.

The host of the development machine runs in fast and slow phases that last
from seconds to many minutes and slow every operation of a run together
(see "Noise" in README.md).  The worker runs probe pieces during each
operation (one every INTERVAL_S of wall time, from a timer signal, their
time taken out of the operation's) and a short block of them after it;
run.py scales each operation's time by ``REF_S / level``, where ``level``
is the median probe piece during and around the operation.  A slow phase
slows the operation and the probe alike, so the scaled times read the same
in fast and slow phases, while a change to ftk moves the operation and
leaves the probe alone.

The probe is the benchmark's own finite-field series product (``arith``),
the same kind of work as ftk's inner loops (table lookups, small ints,
short lists), but none of ftk's code.
"""

from __future__ import annotations

import signal
import statistics
import time

import arith

# Median probe piece in a fast phase of the development machine's host
# (2 vCPUs, CPython 3.11.7), in seconds; scaled times are in these units.
REF_S = 0.30e-3
PIECES = 6  # probe pieces in the block after an operation
INTERVAL_S = 0.02  # wall time between probe pieces during an operation

_F9, _F7 = arith.Field(3, 2), arith.Field(7)


def _series(field, length: int, a: int):
    support = {k: 1 + (a * k * k + k) % (field.q - 1) for k in range(-3, length - 3)}
    return arith.series(field, support, length - 3)


_A, _B = _series(_F9, 14, 2), _series(_F9, 14, 5)
_C, _D = _series(_F7, 16, 3), _series(_F7, 16, 4)


def piece():
    arith.s_mul(_F9, _A, _B)
    arith.s_mul(_F7, _C, _D)


def block() -> list:
    """Wall times of PIECES probe pieces, in seconds."""
    times = []
    for _ in range(PIECES):
        t0 = time.perf_counter()
        piece()
        times.append(time.perf_counter() - t0)
    return times


class Sampler:
    """Probe pieces during a timed stretch, from a SIGALRM interval timer.

    ``stop`` returns the pieces' wall times and the time the signal
    handler took in all, which the caller takes out of the stretch.
    """

    def __init__(self):
        self.pieces, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        piece()
        t1 = time.perf_counter()
        self.pieces.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self):
        self.pieces, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.pieces, self.spent


def level(pieces: list) -> float:
    """The host's speed during and around an operation: its median probe piece."""
    return statistics.median(pieces)
