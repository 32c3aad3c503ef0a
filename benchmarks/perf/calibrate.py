"""Speed reference for a machine whose clock rate drifts under the run.

The reference box is a small shared VM: the same pure-Python loop takes
anywhere from 40 to 100 ms there within one minute, in stretches of tens
of seconds, so two runs of identical work differ by 10-25% and no
within-run median helps (the whole run sits in one stretch).  What does
help is to time a fixed, benchmark-owned kernel *between* the segments of
every timed phase and to report times scaled to a reference speed::

    reported = measured * REFERENCE_SECONDS / median(kernel timings)

Measured on that box, run-to-run spread of a 5 s median fell from 10.6%
to 4.5%.  The kernel never changes with the program under test, so a
change to ``src/`` cannot move it; raw medians and the factor are kept in
each result's ``detail`` for anyone who wants the unscaled numbers.
"""

from __future__ import annotations

import statistics
import time

#: What :func:`kernel` takes on the reference box at its usual speed; a
#: run at exactly that speed reports its times unscaled.
REFERENCE_SECONDS = 0.0033
#: Kernel timings taken before and after each process start: a start is
#: timed a few times per run, not hundreds, so each one needs more.
SETUP_SAMPLES = 16


def kernel() -> float:
    """Seconds for a fixed mix of dict, set and integer work (~3 ms)."""
    started = time.perf_counter()
    table = {index: {index % 97, index % 89, index % 83} for index in range(6000)}
    union: set[int] = set()
    for index in range(0, 6000, 3):
        union |= table[index] & table[(index * 7) % 6000]
    total = 0
    for index in range(30000):
        total += index * index % 7
    return time.perf_counter() - started


class Calibrator:
    """Kernel timings taken at the boundaries of a timed phase's segments.

    Segment ``i`` runs between boundary ``i`` and boundary ``i + 1``.  The
    box can halve its speed for a few seconds in the middle of a phase, so
    a sample is scaled by the speed around *its* segment — the median over
    the two boundaries on either side — not by one factor for the phase.
    """

    def __init__(self) -> None:
        self.boundaries: list[list[float]] = []

    def sample(self, count: int = 4) -> None:
        """Time the kernel ``count`` times: one more boundary."""
        self.boundaries.append([kernel() for _ in range(count)])

    def factor(self, segment: int | None = None) -> float:
        """Multiplier bringing a time measured in ``segment`` to the reference
        speed (``None``: over the whole phase, for reporting)."""
        chosen = (
            self.boundaries
            if segment is None
            else self.boundaries[max(0, segment - 1) : segment + 3]
        )
        return REFERENCE_SECONDS / statistics.median(
            seconds for boundary in chosen for seconds in boundary
        )

    def scaled(self, samples: list[float]) -> list[float]:
        """``samples[i]`` measured in segment ``i``, each at the reference speed."""
        return [seconds * self.factor(index) for index, seconds in enumerate(samples)]
