"""Host-speed meter: converts wall time into reference-speed seconds.

On a shared host the same work takes up to ~1.9x longer when the machine is
in a slow state, and a state can last tens of seconds, so even the fastest
blocks of a 20 s run move by 15% between runs. The meter times a fixed
reference computation (the probe) before, during (every ``INTERVAL`` seconds,
from a SIGALRM handler in the measured process) and after each piece of
timed work. Each stretch of work between two probes is scaled by
``P_REF / probe duration``: the time it would have taken at the speed where
the probe takes ``P_REF``. Of the two probes around a stretch the shorter
one is used, since a probe reads long when it is interrupted, never short.
The probes' own time is left out of the work.
The probe runs twice and only the second run is timed, so that what the
program left in the caches does not change the reading.

The probe uses numpy on a fixed 1000 x 3 array, a mix of interpreter and
small-array work like the program's. It shares no code with tmgpanel, so a
change to the program cannot change the probe.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Probe duration at the reference host speed (its fast state on a 2-core
#: x86-64 VM with Python 3.11 and numpy 2.4); only a unit of scale.
P_REF = 1.0e-4
INTERVAL = 0.02


class SpeedMeter:
    def __init__(self):
        self._a = np.random.default_rng(0).standard_normal((1000, 3))
        self._eye = np.eye(3)
        self._samples = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        self.probe()

    def _compute(self):
        a = self._a
        for _ in range(2):
            b = a - a.mean(axis=0)
            g = np.einsum("ni,nj->ij", b, b)
            np.linalg.solve(g + self._eye, b[:3].T)

    def probe(self) -> float:
        """Run the reference computation warm; returns the timed run's duration."""
        self._compute()
        t0 = time.perf_counter()
        self._compute()
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        d = self.probe()
        self._samples.append((t0, time.perf_counter() - t0, d))

    def measure(self, fn):
        """Run ``fn()``; return (result, wall seconds, reference seconds).

        Both times exclude the probes that ran inside ``fn``.
        """
        opening = self.probe()
        self._samples = []
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            end = time.perf_counter()
        inner = [(s, busy, d) for s, busy, d in self._samples if start <= s and s + busy <= end]
        closing = self.probe()
        # (start of a probe, time it kept the process busy, timed duration)
        edges = [(start, 0.0, opening)] + inner + [(end, 0.0, closing)]
        wall = ref = 0.0
        for (s0, busy0, d0), (s1, _, d1) in zip(edges, edges[1:]):
            work = s1 - (s0 + busy0)
            wall += work
            ref += work * P_REF / min(d0, d1)
        return result, wall, ref
