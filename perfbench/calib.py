"""A fixed reference loop that every end-to-end time is divided by.

The benchmark runs on shared machines whose speed changes from one second
to the next, and in phases that can outlast a whole run: the same
pure-Python loop may take twice as long for a minute.  Raw times then
spread by more than any useful regression bound.  So a :class:`Clock` runs
the reference loop before each timed call, in the same process, and reports
the call's time as
``elapsed * REF_MS / r``, where ``r`` is the median of the reference runs
just before and just after the call: the time the call would take on a
machine where the reference loop takes ``REF_MS``.  The reference runs
themselves are never inside a timed interval.

A CLI command is a whole process, and process start-up slows less than the
loop when the machine is busy, so the loop over-corrected it.  For CLI
commands, :class:`ProcessClock` times, in the parent, a fresh interpreter
that runs the loop ``PROCESS_LOOPS`` times: start-up plus Python work, like
a command.
On butcher-style inputs at N=6, the median time of ``hopfchar char inv``
over 8-s windows varied by 10% (coefficient of variation) when divided by
the loop, 8% raw, and 7% when divided by the reference process.

The loop does the kind of work hopfchar does (exact ``Fraction``
arithmetic and dict updates keyed by tuples), so both slow down together.
It lives in the benchmark, not in ``src/``, so no change to the library
moves it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

#: The reference loop's time in a quiet phase on the 2-vCPU x86-64 machine
#: (Python 3.11.7) that defined the benchmark.  It only sets the scale:
#: normalized times read as milliseconds or seconds on that machine.
REF_MS = 6.5

#: A call is normalized by the reference runs up to this many places before
#: and after it.  The machine's speed changes within a second, so the
#: nearest runs track it best: over five runs of butcher-n7, the quartile
#: spread of the per-op medians averaged 3.6% with 2 on either side, 7.0%
#: with 24, and 12% when one mean over the whole run normalized them.
WINDOW = 2

#: Loop runs in one reference process, its time in a quiet phase on the same
#: machine, and how many reference processes either side of a command
#: normalize it.
PROCESS_LOOPS = 4
REF_PROCESS_MS = 80.0
PROCESS_WINDOW = 4


def reference() -> Fraction:
    """Fixed exact work: about 3,000 Fraction additions and dict updates."""
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 3000):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 97, i % 3)
        table[key] = table.get(key, 0) + acc.numerator % 5
    return acc


class Clock:
    """Reference runs in order, and the normalization of calls timed
    between them."""

    nominal_s = REF_MS / 1000
    window = WINDOW

    def __init__(self):
        self.refs: list[float] = []
        self._measure()  # the first run pays for warm-up

    def _measure(self) -> float:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start

    def tick(self, runs: int = 1) -> int:
        """Make ``runs`` reference runs; return a mark for a call timed
        right after."""
        for _ in range(runs):
            self.refs.append(self._measure())
        return len(self.refs)

    def scale(self, mark: int) -> float:
        """Factor that normalizes a time measured at ``mark``."""
        near = self.refs[max(0, mark - self.window): mark + self.window]
        return self.nominal_s / statistics.median(near)

    def normalize(self, timed: list[tuple[float, int]]) -> list[float]:
        """Normalized times of (elapsed s, mark) pairs."""
        return [elapsed * self.scale(mark) for elapsed, mark in timed]


class ProcessClock(Clock):
    """A clock whose reference run is a fresh interpreter running this file."""

    nominal_s = REF_PROCESS_MS / 1000
    window = PROCESS_WINDOW

    def _measure(self) -> float:
        start = time.perf_counter()
        # no timeout: with one, subprocess polls the child every 50 ms
        subprocess.run([sys.executable, __file__], stdout=subprocess.DEVNULL, check=True)
        return time.perf_counter() - start


if __name__ == "__main__":
    for _ in range(PROCESS_LOOPS):
        reference()
