"""Host-speed reference: a fixed slice of interpreter work, timed all
through a run, that every time metric is scaled by.

Why: on the 2-vCPU KVM guest (Xeon with AVX-512/AMX) the benchmark was
built on, the host's speed drifts by up to 2x within minutes.  The same
12-cell cold grid took 1.8–3.3 s in one process, all of it user time
with no page faults; one seed's 38-s ``sweep-cold`` run read 3.57 and,
five minutes later, 6.71 cells/s.  No run length averages that out.
A slice of interpreter and numpy work, which runs no program code,
slows with the host: a dict-and-integer loop timed before each of the
grids in eight 30-s windows had a window mean that correlated 0.93
with the grids' mean, and the coefficient of variation across windows
fell from 11% (grid time) to 3.7% (grid time over slice time).  Over
ten 20-s windows of drift, method calls on small objects tracked the
fleet best (0.76 against 0.48 for the loop) and small-array numpy the
sweep (0.90 against 0.82), so the slice holds all three.  Timed right
next to a single grid it tracks nothing (the fast part of the noise is
not shared), so only the mean over a whole run is used.

A factor is a mean slice time over :data:`NOMINAL_S`, about the
slice's median time on that guest.  ``run.py`` keeps one factor for
the set-up probes and one for the measured phase, divides the
end-to-end times by theirs (and multiplies rates): the metrics read as
the run would have on a host at that nominal speed.  The unscaled
values and both factors are printed on every run.  A program change
does not move the slice, so it moves the scaled metrics in full.
"""

from __future__ import annotations

import statistics
import time

import numpy

#: Median time of one slice on the reference guest (60 slices, rounded).
NOMINAL_S = 0.070

_TABLE = {k: k for k in range(1024)}
_ARRAY = numpy.arange(256, dtype=float)


class _Body:
    __slots__ = ("rate", "drain", "level")

    def __init__(self, rate: float, drain: float) -> None:
        self.rate = rate
        self.drain = drain
        self.level = 0.0

    def step(self, dt: float) -> float:
        self.level += self.rate * dt - self.drain
        return self.level


def slice_s() -> float:
    """Time one slice: dict and integer work, method calls on small
    objects, and small-array numpy calls, about a third each, the mix
    the program's own loops are made of."""
    t0 = time.perf_counter()
    table = _TABLE
    acc = 0
    for i in range(80_000):
        table[i & 1023] = i * 3 + acc
        acc = (acc + table[(i * 7) & 1023]) & 0xFFFF
    bodies = [_Body(float(i), 0.5) for i in range(2000)]
    for _ in range(90):
        for body in bodies:
            body.step(0.1)
    a = _ARRAY
    for _ in range(4800):
        a = numpy.minimum(a * 1.0001 + 0.5, 1e6)
    return time.perf_counter() - t0


class HostSpeed:
    """Slice timings of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(slice_s())

    def factor(self) -> float:
        """How much slower than nominal the host ran (>1: slower)."""
        return statistics.fmean(self.samples) / NOMINAL_S
