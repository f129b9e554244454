"""Host speed probe: fixed pure-Python work, timed next to every measurement.

On a shared machine the speed of one core changes by up to 2x within
seconds as other tenants load it, and CPU time changes as much as wall
time.  The probe does the ``Fraction`` arithmetic that dominates kacoh, so
a slow period slows probe and query alike.  A latency divided by the probe
time measured around it, times ``REFERENCE_S``, is the latency on a host
where the probe takes ``REFERENCE_S``; that is what the benchmark reports.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

STEPS = 500
REFERENCE_S = 0.001


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    started = perf_counter()
    total = Fraction(0)
    for i in range(1, STEPS):
        total += Fraction(1, i % 97 + 1)
    return perf_counter() - started


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at reference speed."""
    return seconds * REFERENCE_S / probe_s


class SegmentClock:
    """Times consecutive stages of work, each scaled by the probes around it.

    The first stage runs from ``started`` to the first probe; ``split``
    closes the current stage with a probe, whose own time counts in no stage.
    """

    def __init__(self, started: float):
        self.wall = 0.0
        self.scaled = 0.0
        self._mark = started
        self._first = True
        self._probe = 0.0

    def split(self, at_least: float = 0.0) -> float:
        """Close the stage begun at the last split; returns its wall seconds.

        Does nothing and returns 0 if the stage is shorter than ``at_least``.
        """
        seconds = perf_counter() - self._mark
        if seconds < at_least:
            return 0.0
        now = probe()
        speed = now if self._first else (self._probe + now) / 2
        self.wall += seconds
        self.scaled += scale(seconds, speed)
        self._first = False
        self._probe = now
        self._mark = perf_counter()
        return seconds
