"""Host-speed probes: scale a pass's wall time to a reference host speed.

On a shared host the same pass can run up to twice as slowly for a minute
at a time: the core itself runs slower (CPU time moves with wall time), so
neither CPU time nor the minimum of the passes removes it. The probes
measure that speed where and when the pass runs. A ``SpeedProbe`` arms a
wall-clock interval timer; every ``INTERVAL_S`` its handler runs, in the
benchmark's own thread between two bytecodes of the program, one of four
fixed kernels of the kinds of work the solver does (small dense linear
algebra, short numpy vectors, interpreted arithmetic with a dict and a list,
small objects) and times it. The pass's speed factor is the geometric mean
over the kernels of their mean time in the pass divided by their reference
time, and

    wall_ref_s = (wall time of the pass - time in the probes) / speed factor

is the pass's time on a host where the kernels take ``REFERENCE_S``. The
kernels are part of the benchmark, not of the package, so a change to the
package moves ``wall_ref_s`` as it moves the wall time, and a change of host
speed moves the numerator and the denominator together.

Nothing in here touches the package; the handler changes no state the
program can see.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.01

_RNG = np.random.default_rng(20210413)
_A = _RNG.standard_normal((5, 5))
_SPD = _A @ _A.T + 5.0 * np.eye(5)
_RHS = _RNG.standard_normal(5)
_VEC = np.linspace(0.0, 1.0, 64)


def _linalg() -> float:
    s = 0.0
    for i in range(12):
        x = np.linalg.solve(_SPD, _RHS)
        s += float(x @ _RHS) + (i * 3) % 7
    return s


def _vector() -> float:
    s = 0.0
    for i in range(30):
        b = _VEC * 1.5 + i
        s += float(np.maximum(b, 2.0).sum()) + float(b[3])
    return s


def _interp() -> int:
    s, d, items = 0, {}, []
    for i in range(1200):
        s += (i * 7) % 13
        d[i & 63] = s
        items.append(s)
    return sum(items)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y


def _objects() -> float:
    s = 0.0
    for i in range(400):
        p = _Point(i * 0.5, i * 0.25)
        s += p.x * p.y if i % 3 else -p.x
    return s


KERNELS = {"linalg": _linalg, "vector": _vector, "interp": _interp,
           "objects": _objects}
# Time of each kernel, in seconds, when it runs from the timer inside a
# pass on the 2-core x86-64 VM the benchmark was built on (Python 3.11.7,
# numpy 2.4.6) while that host ran at full speed, so that the factor is
# about 1 there and 1.5 to 2 when neighbours slow the core down. Any fixed
# values would do: they only set the unit of wall_ref_s.
REFERENCE_S = {"linalg": 9.8e-5, "vector": 1.35e-4, "interp": 1.58e-4,
               "objects": 1.73e-4}


class SpeedProbe:
    """Context manager that probes the host speed while its block runs.

    After the block, ``busy_s`` is the time spent in the probes and
    ``factor()`` the speed factor (1 at the reference speed, 2 when the
    kernels took twice as long)."""

    def __init__(self):
        self.samples = {name: [] for name in KERNELS}
        self.busy_s = 0.0
        self._order = list(KERNELS.items())
        self._next = 0
        self._previous = None

    def _tick(self, signum, frame):
        name, kernel = self._order[self._next]
        self._next = (self._next + 1) % len(self._order)
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples[name].append(dt)
        self.busy_s += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self) -> float:
        """Geometric mean over the kernels of mean time / reference time."""
        if any(not s for s in self.samples.values()):
            raise RuntimeError("the block ended before every kernel ran; "
                               "time a longer block")
        logs = [math.log(sum(s) / len(s) / REFERENCE_S[name])
                for name, s in self.samples.items()]
        return math.exp(sum(logs) / len(logs))
