"""The machine-speed yardstick that turns pass times into reference seconds.

On a shared machine the same pass can run 1.5 times slower for tens of
seconds at a time, and process CPU time slows with it, so neither wall
nor CPU time repeats.  A fixed chunk of work timed right before and right
after every operation measures the machine's speed at that moment.  An
operation that took t seconds between chunks that took c1 and c2 seconds
counts as t * REFERENCE_S / ((c1 + c2) / 2) reference seconds: its time on
a machine where one chunk takes REFERENCE_S.  A change to the program
moves t and not the chunks, so it moves reference seconds as it moves
seconds.

The chunk mixes the three kinds of work the workloads do: interpreted
small-integer loops (trial division), multiplication of integers of
thousands of bits (polynomial products, evaluation) and `Fraction`
arithmetic (the series oracle, `hat_f`).  It is timed three times and the
fastest time kept, so that one interrupt does not count as a slow machine.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# One chunk's time on the machine the reference figures in README.md come
# from (Intel Xeon, 2 cores, Python 3.11), in its faster state.
REFERENCE_S = 0.0007

_A = 3**1500
_B = 7**1200
_M = 11**1300 + 1


def _chunk() -> None:
    s = 0
    for i in range(2500):
        s += (i * i) ^ (i >> 2)
    x = _A
    for _ in range(8):
        x = x * _B % _M
    for j in range(1, 60):
        Fraction(j, j * j + 1) * Fraction(3, 7) + Fraction(1, j)


def chunk_seconds() -> float:
    """The fastest of three timings of one calibration chunk."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _chunk()
        best = min(best, perf_counter() - t0)
    return best
