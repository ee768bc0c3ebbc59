"""Host-speed probe, for pass times that do not drift with the host.

On a shared VM the speed of a vCPU drifts by 10-30% over minutes, with
the load of its neighbours, so the raw time of a fixed pass measured ten
minutes apart differs by more than any change worth detecting.

A ``ProbedPass`` runs a fixed piece of pure-Python Fraction arithmetic (the
probe, no circleweights code) right before and right after the pass and
every ``INTERVAL_S`` seconds inside it, from a SIGALRM handler.  The probes'
own time is taken out of the pass time, and the pass time is scaled by
``REF_PROBE_S / mean(probe seconds)``: the seconds the pass would take on a
host where the probe takes ``REF_PROBE_S``.  A change to the library moves
the pass and not the probe, so it shows in full.

The mean, not the median: the pass accumulates the host's slow-down over
its whole length, bursts included, and probes spread evenly in time sample
exactly that average.  Over 150 s of back-to-back vet_stream passes in one
process on a busy 2-vCPU VM, the quartile spread of the pass times was 41%
raw, 18% scaled by the median probe and 6% scaled by the mean probe.
Fraction arithmetic was picked because, interleaved with vet_instance calls
over minutes, its slow-downs tracked theirs (correlation 0.96) where plain
integer loops and allocation-heavy loops did not (0.71 and 0.55).
"""

from __future__ import annotations

import signal
from fractions import Fraction
from statistics import mean
from time import perf_counter

PROBE_TERMS = 2000
# Probe seconds on the reference host (a quiet 2-vCPU VM, Python 3.11);
# only a unit of scale, so that scaled times read as seconds.
REF_PROBE_S = 0.006
INTERVAL_S = 0.1


def probe() -> float:
    """Seconds to sum PROBE_TERMS small fractions."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS + 1):
        total += Fraction(i % 17 + 1, i % 13 + 2)
    return perf_counter() - t0


class ProbedPass:
    """Context manager around one pass.  After it exits, ``wall`` is the
    pass's seconds without the probes inside it, ``probes`` the probe
    seconds and ``scaled`` the pass seconds at the reference host speed."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.probes = []
        self.inside = []  # (start, seconds) of each probe run by the timer

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.probes.append(probe())
        self.inside.append((start, perf_counter() - start))

    def __enter__(self) -> "ProbedPass":
        self.probes.append(probe())
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = perf_counter()
        signal.signal(signal.SIGALRM, self.previous)
        # a tick that was pending when the timer stopped may run after t1
        self.wall = t1 - self.t0 - sum(d for s, d in self.inside if s < t1)
        self.probes.append(probe())

    @property
    def probe_s(self) -> float:
        return mean(self.probes)

    @property
    def scaled(self) -> float:
        return self.wall * REF_PROBE_S / self.probe_s
