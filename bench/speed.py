"""Machine-speed meter that rescales timings to a nominal machine speed.

The sandbox this benchmark was built on shares its cores with other
tenants, and its speed drifts by up to a half within minutes: one ``sweep``
repetition took anywhere from 1.9 s to 3.7 s in the same hour.  A fixed
probe slows down with it.  The probe mixes the three shapes of relaydyn's
hot loops (scalar float math on two-element arrays, a Python loop over the
rows of an array, and vectorised ufuncs over a long array) but runs no
relaydyn code.  While a measured interval runs, a ``SIGALRM`` timer runs
the probe every ``PERIOD_S`` seconds, and the interval is rescaled by
``PROBE_NOMINAL_S / mean probe time``.  Over 42 ``sweep`` repetitions
(raw 1.7 s to 3.0 s) the correlation of repetition time and mean probe
time was 0.97, a fitted power law had exponent 0.96, and rescaling cut
the spread (interquartile range over median) from 18.5 % to 4.6 %.
Sampling every 0.25 s instead of 0.1 s left 7.7 %.  Fast sampling is
the point: single probes vary by a fifth, so a repetition needs many.

The probe is independent of relaydyn, so a faster program still shows as
a smaller rescaled time; only the machine's drift is divided out.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time

import numpy as np

PERIOD_S = 0.1
# mean probe time on a quiet 2-core Xeon sandbox (Python 3.11, numpy 2.4)
PROBE_NOMINAL_S = 3.5e-3

_C = np.array([0.6, 0.8])
_TS = np.linspace(0.0, 10.0, 40000)


def probe() -> float:
    y = np.array([0.1, 0.2])
    acc = 0.0
    for i in range(600):
        t = i * 1e-3
        e, c, s = math.exp(-0.1 * t), math.cos(t), math.sin(t)
        y = np.array([e * (c * y[0] + s * y[1]) + 1.0 - e * c, e * (-s * y[0] + c * y[1])])
        acc += float(_C @ y)
    ts = _TS[::27]
    path = np.stack([np.exp(-0.1 * ts) * np.cos(ts) + 1.0, np.sin(ts)], axis=-1)
    acc += sum(float(_C @ p) for p in path)
    e, c, s = np.exp(-0.1 * _TS), np.cos(_TS), np.sin(_TS)
    return acc + float((e * (c + 0.1 * s)).sum() + (e * s).sum())


def timed_probe() -> float:
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


class Window:
    """Probe durations collected during one measured interval."""

    def __init__(self):
        self.probes: list[float] = []
        self.probe_s = 0.0   # time the probes took inside the interval

    @property
    def scale(self) -> float:
        """Factor that turns a time measured in the window into nominal time."""
        return PROBE_NOMINAL_S / (sum(self.probes) / len(self.probes))


@contextlib.contextmanager
def window():
    """Sample the probe every PERIOD_S seconds of the enclosed block.

    The probe runs in the main thread, so its time is part of the block's
    wall and CPU time; callers subtract ``Window.probe_s``.  A block shorter
    than one period gets one probe right after it.
    """
    win = Window()

    def sample(signum, frame):
        win.probes.append(timed_probe())
        win.probe_s += win.probes[-1]

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield win
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    if not win.probes:
        win.probes.append(timed_probe())
