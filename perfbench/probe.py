"""Wall time corrected for how fast the shared machine runs at each moment.

On a shared machine the speed of a core changes by up to a factor of two from
one second to the next, so raw wall times of the same work spread by tens of
percent.  A probe is a fixed piece of the same kind of work as the package's
kernels (a pure-Python schoolbook convolution of big integers) whose time
follows the machine's speed.  ``Sampler`` runs a probe every ``INTERVAL_S`` of
work from a timer signal, and scales each stretch of work by ``REFERENCE_S``
over the probe time.  That gives the work's time at a fixed machine speed, in
seconds; the time spent in probes is left out of both figures.
"""

import signal
from time import perf_counter

# The probe's time on an idle core of the machine the bounds were set on
# (Intel Xeon at 2.1 GHz, Python 3.11.7).  It only fixes the unit: on that
# machine, corrected seconds are close to raw seconds when it is idle.
REFERENCE_S = 0.0002
INTERVAL_S = 0.02

_A = [3 ** 160 + i * 7 ** 50 for i in range(32)]
_B = [5 ** 110 + i * 11 ** 40 for i in range(32)]


def probe() -> float:
    """Seconds taken by the reference convolution."""
    out = [0] * (len(_A) + len(_B))
    start = perf_counter()
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            out[i + j] += x * y
    return perf_counter() - start


def median_probe(count: int = 9) -> float:
    values = sorted(probe() for _ in range(count))
    return values[count // 2]


def corrected(seconds: float, probe_s: float) -> float:
    """`seconds` of work done while a probe took `probe_s`, at the reference speed."""
    return seconds * REFERENCE_S / probe_s


class Sampler:
    """Raw and corrected time of the work done between start() and stop().

    Each stretch of work is scaled by the probe taken just before it.  The
    timer signal can arrive between any two bytecodes, so the handler swaps
    one tuple ``(corrected_s, resumed_at, last_probe)`` and clock() reads it
    once.
    """

    def __init__(self):
        self.raw_s = 0.0

    @property
    def corrected_s(self) -> float:
        return self._state[0]

    def clock(self) -> float:
        """Corrected seconds of work since start(), for timing spans."""
        corrected_s, resumed_at, last = self._state
        return corrected_s + corrected(perf_counter() - resumed_at, last)

    def _tick(self, *_):
        corrected_s, resumed_at, last = self._state
        work = perf_counter() - resumed_at
        self.raw_s += work
        now = probe()
        self._state = (corrected_s + corrected(work, last), perf_counter(), now)

    def start(self):
        last = median_probe()
        signal.signal(signal.SIGALRM, self._tick)
        self._state = (0.0, perf_counter(), last)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
