"""Host-speed sampler: how fast the host ran while the operations ran.

The development host, a 2-vCPU VM on a shared machine, drifts in speed by
up to 1.6x over seconds to minutes, in CPU time as well as in wall time. A
fixed pure-Python reference kernel slows by nearly the same factor as the
workloads do at that moment, so the sampler runs it briefly every
INTERVAL_S of process CPU time, from a SIGPROF handler, while the
workload's operations run, and while each set-up probe runs. The
launcher then scales each block of operations, and each set-up, by the
reference's speed during it.

The kernel lives here, not in the package, so no change to the program
changes it. Its time is subtracted from the operation it interrupted.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01  # process CPU time between two samples
# the reference time the normalized figures are scaled to: one kernel run
# took about this long on the development host (2-vCPU Xeon VM, 2.1 GHz)
REF_NOMINAL_S = 100e-6

_PAIRS = tuple((i, i * 0.5) for i in range(1000))


def reference_kernel() -> int:
    """Tuple unpacking, float comparison and integer adds, as in the
    interpreter-bound loops of the spotter."""
    count = 0
    for a, b in _PAIRS:
        if a > b:
            count += 1
    return count


class HostSpeedSampler:
    """Times the reference kernel every INTERVAL_S of CPU time.

    ``op`` is the index of the operation running now, or -1 outside the
    timed operations; each sample is stored as (op, seconds). ``spent`` is
    the wall time the handler took in total, samples and bookkeeping.
    """

    def __init__(self) -> None:
        self.op = -1
        self.samples: "list[tuple[int, float]]" = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        if self.op >= 0:
            self.samples.append((self.op, t1 - t0))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
