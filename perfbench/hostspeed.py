"""Host speed, measured by a fixed piece of work run alongside the operations.

The machine the benchmark was built on is shared: the same Python loop
takes 10 ms or 17–19 ms depending on what runs beside it, and the mix of
the two drifts within seconds and over minutes, so raw times of the same
code moved by up to 35 % between runs.  The benchmark therefore times a
calibration unit — a fixed Python loop and a fixed numpy loop, both its
own code — every ``SAMPLE_PERIOD_S`` while a round runs (from a timer
signal, so also in the middle of long operations) and once set-up is
done.  Each gated timing is divided by

    speed = (mean time of the units run meanwhile) / REF_UNIT_S,

which turns it into seconds at the reference speed.  "Meanwhile" is the
timed interval itself, widened to at least ``MIN_WINDOW_S`` around its
middle so that a short interval still averages enough units.  A change
to zenodecay moves the normalised times as it moves the raw ones; a
change in the host's load moves both the operations and the units, and
cancels.  The time spent in units is left out of every timed interval.
Raw times are printed next to the normalised ones.
"""

from __future__ import annotations

import configparser
import json
import re
import signal
import time

import numpy as np

#: Reference time of one unit, near the fastest per-run medians seen on the
#: machine in BASELINE.md; it scales every normalised time, so keep it fixed.
REF_UNIT_S = 2.8e-3
#: Interval between calibration units while a round runs (~7 % of the time).
SAMPLE_PERIOD_S = 0.05
#: Shortest window whose units give an interval's speed (~20 units).
MIN_WINDOW_S = 1.0


_INI = "[model]\nfamily = lorentzian\ncoupling = 0.1\nbandwidth = 1.0\nomega_a = 3.0\n"


def unit() -> float:
    """One calibration unit: about 3 ms of Python and small numpy calls.

    Half is a tight loop; the other half walks through json, configparser,
    re, float formatting, sorting and a few numpy routines, because code
    with a large footprint (as the CLI route has) slows down more than a
    tight loop when the host is busy.
    """
    s = 0.0
    for i in range(10000):
        s += i * 0.5
    a = np.arange(5000.0)
    for _ in range(10):
        a = np.sin(a) + 1.0
    rows = [{"t": i * 0.1, "x": [i * 0.5, -i * 0.25], "name": f"row{i}"} for i in range(75)]
    back = json.loads(json.dumps({"rows": rows}))["rows"]
    config = configparser.ConfigParser()
    config.read_string(_INI)
    words = sorted(re.findall(r"[a-z]+\d*", repr(back)), key=len)
    text = "".join(f"{r['t']!r},{r['x'][0]:.17g},{r['x'][1]:.17g}\n" for r in back)
    t = np.linspace(0.0, 50.0, 201)
    y = np.interp(t[::3], t, np.exp(-0.1 * t) * np.cos(3.0 * t))
    return s + float(a[0]) + len(words) + len(text) + float(y[0]) + len(config.sections())


class Sampler:
    """Times one unit every ``SAMPLE_PERIOD_S`` from a SIGALRM timer while entered."""

    def __init__(self):
        #: Time spent in units so far.
        self.spent = 0.0
        #: (``clock()`` when a unit started, the unit's time), for every unit.
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in units so far."""
        return time.perf_counter() - self.spent

    def sample(self) -> None:
        at = self.clock()
        t0 = time.perf_counter()
        unit()
        dt = time.perf_counter() - t0
        self.spent += dt
        self.samples.append((at, dt))

    def unit_s(self, start: float, end: float) -> float:
        """Mean unit time over [start, end] (``clock()`` times), widened to
        at least ``MIN_WINDOW_S``; the nearest unit when none falls inside."""
        mid = 0.5 * (start + end)
        half = 0.5 * max(end - start, MIN_WINDOW_S)
        inside = [dt for at, dt in self.samples if abs(at - mid) <= half]
        if not inside:
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return sum(inside) / len(inside)

    def _tick(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
