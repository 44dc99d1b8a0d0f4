"""Host-speed reference: rescales a process's measured times to a fixed speed.

The benchmark's host is a few vCPUs of a shared machine whose speed drifts
by 15-30% over seconds to minutes; CPU time drifts with wall time, so neither
clock alone tells a change in the program from a change in the host.  A
fixed *reference loop*, timed in the same process while the measured work
runs, measures the host's speed at that moment.

:class:`SpeedSampler` runs a reference loop from a ``SIGALRM`` handler every
``period_s`` seconds.  Its :meth:`clock` leaves out the sampler's own time,
so times read from it are not inflated by sampling.  A time ``t`` measured
while the loop took ``r_i`` seconds is reported as ``t * mean(ref_s / r_i)``:
the time the same work would have taken on a host on which the loop takes
``ref_s``, its median on the machine described in README.md.

Two loops are used.  During ``import rabi_spectra`` only the interpreter is
loaded, so :func:`interpreter_loop` does float arithmetic and dict inserts,
as unmarshalling and executing modules do.  During a workload's calls,
:func:`package_loop` adds what the package does: numpy ufuncs on a
400-element vector (the Sturm sweeps of ``eigensolve``) and 50-digit mpmath
arithmetic (``perturb`` and ``polys``).  This module imports neither numpy
nor mpmath until :func:`package_loop` first runs, so it can sample set-up.
"""

from __future__ import annotations

import signal
import time

INTERPRETER_REF_S = 0.00052  # interpreter_loop at the reference speed
PACKAGE_REF_S = 0.0042  # package_loop at the reference speed
WARM_UP = 3  # untimed loops before the first sample (interpreter warm-up)


def interpreter_loop() -> float:
    s = 0.0
    for i in range(4000):
        s += (i * 0.5) % 3.0
    d = {}
    for i in range(1000):
        d[i] = str(i)
    return s + len(d)


def package_loop() -> float:
    import mpmath as mp
    import numpy as np

    q = np.linspace(0.0, 1.0, 400)
    for _ in range(300):
        q = 1.5 - 0.25 / np.where(np.abs(q) < 1e-300, -1e-300, q)
    s = 0.0
    for i in range(15000):
        s += (i * 0.5) % 3.0
    with mp.workdps(50):
        x = mp.mpf(1)
        step = mp.mpf("1.0001")
        for _ in range(600):
            x = x * step + 1
    return s + float(q[0]) + float(x)


class SpeedSampler:
    """Samples the host's speed with ``loop`` every ``period_s`` seconds."""

    def __init__(self, loop, ref_s: float, period_s: float) -> None:
        self.loop = loop
        self.ref_s = ref_s
        self.period_s = period_s
        self.handler_s = 0.0
        self.speeds: list[float] = []
        self._previous = signal.SIG_DFL

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in the sampler."""
        return time.perf_counter() - self.handler_s

    def _sample(self) -> None:
        start = time.perf_counter()
        self.loop()
        self.speeds.append(self.ref_s / (time.perf_counter() - start))
        self.handler_s += time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        self._sample()

    def start(self) -> None:
        start = time.perf_counter()
        for _ in range(WARM_UP):
            self.loop()
        self.handler_s += time.perf_counter() - start
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def speed(self) -> float:
        """Mean speed over the samples, relative to the reference speed."""
        return sum(self.speeds) / len(self.speeds)
