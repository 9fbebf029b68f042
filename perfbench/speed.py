"""Machine-speed normalisation.

The machine this benchmark was developed on is a 2-core virtual machine
shared with other tenants. Its speed for pure-Python work drifts by tens of
percent from minute to minute, and CPU time tracks wall time, so the drift
is the host running slower, not descheduling. A fixed pure-Python unit of
work, timed next to the program, measures that speed: the unit takes
REFERENCE_S seconds at relative speed 1.

Times reported in reference seconds are wall seconds multiplied by the
mean relative speed measured while they elapsed: the time the same work
would take at relative speed 1. The unit uses no modinv code, so a change
to the program cannot move it.

Interpreter start-up is mostly file reads and extension loading, which the
unit does not track. Set-up time is instead divided by the launch time of
an interpreter that imports a fixed set of standard-library modules
(SETUP_BASELINE), measured next to it; that launch takes SETUP_BASELINE_S
at relative speed 1.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0015
SAMPLE_INTERVAL_S = 0.05
SETUP_BASELINE = (
    "import argparse, asyncio, ctypes, dataclasses, decimal, email.parser, fractions, "
    "http.client, json, unittest"
)
SETUP_BASELINE_S = 0.17


def _unit() -> Fraction:
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 400):
        acc += Fraction(i, i % 7 + 1)
        table[i % 13] = table.get(i % 13, 0) + i * i
    return acc


def relative_speed(unit_times: list[float]) -> float:
    """Mean relative speed over samples taken evenly in time."""
    return statistics.fmean(REFERENCE_S / t for t in unit_times)


class Sampler:
    """Times the unit every SAMPLE_INTERVAL_S seconds from a SIGALRM
    handler, which runs between the bytecodes of whatever the main thread
    is doing, and once on entry and on exit. `spent` is the time the
    samples took; callers subtract it from what they measure."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        _unit()
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
