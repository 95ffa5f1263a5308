"""One set-up, timed in a fresh interpreter.

    setup_probe.py WORKLOAD

Starts the host-speed sampler first, then imports the workload module and
runs the workload's set-up (imports, builtin_codebook(), config). Prints
two numbers: the CLOCK_MONOTONIC reading at which it was ready, less the
sampler's own time (the launcher subtracts from it the reading it took
just before starting this process), and the median time of the reference
kernel sampled meanwhile.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

from hostspeed import HostSpeedSampler

sampler = HostSpeedSampler()
sampler.op = 0
sampler.start()

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]]().setup()
ready = time.monotonic()
sampler.stop()
print(repr(ready - sampler.spent), repr(statistics.median(s for _, s in sampler.samples)))
