"""How fast the host runs right now, from a fixed calibration kernel.

The benchmark's host is a 2-core VM on a shared machine.  Other tenants
slow every CPU-bound step in it by up to 1.7x, in stretches that last
from a second to minutes, so two runs of the same code minutes apart
can differ by more than any useful regression bound.  No estimator
inside a run of tens of seconds removes a slowdown that covers the
whole run.

The kernel below does a fixed amount of the kinds of work the program
does -- interpreter loops, float formatting, NumPy sorting -- and
touches no ``repro`` code, so no change to the program moves it.  Its
time next to a timed call, over :data:`NOMINAL_S`, is the host's
*slowdown* during that call; dividing the call's wall time by it gives
the call's time on the uncontended host.  Under contention the
program and the kernel slow down alike, which is what makes the
division work.

    python3 perfbench/hostspeed.py        # print kernel samples for 10 s
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import numpy as np

#: Kernel seconds on the uncontended host: the 2-vCPU Xeon VM the
#: bounds were set on, measured as the low end of its samples.
NOMINAL_S = 0.0023
#: Kernel runs per sample; the sample is their median.
RUNS = 3

_VALUES = np.random.default_rng(0).random(1 << 14)
_FLOATS = _VALUES[:1500].tolist()


def kernel() -> float:
    """Seconds of one fixed run of interpreter, formatting and NumPy work."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(15000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    ",".join(f"{x:.9g}" for x in _FLOATS)
    for _ in range(8):
        np.sort(_VALUES)
    return time.perf_counter() - start


def sample(cpus: tuple[int, ...] = ()) -> float:
    """Kernel seconds right now: the median of :data:`RUNS` runs.

    With ``cpus``, the kernel runs on all of those cores at once, one
    forked child per extra core, and the result is the harmonic mean of
    their times: the slowdown of work spread over all of them, one
    worker per core, as the cores can run it together right now.
    """
    if not cpus:
        return statistics.median(kernel() for _ in range(RUNS))
    mask = os.sched_getaffinity(0)
    children = []
    try:
        for cpu in cpus[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read)
                    os.sched_setaffinity(0, {cpu})
                    os.write(write, repr(sample()).encode())
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read))
        os.sched_setaffinity(0, {cpus[0]})
        times = [sample()]
    finally:
        os.sched_setaffinity(0, mask)
        reports = []
        for pid, read in children:
            with os.fdopen(read) as pipe:
                reports.append(pipe.read())
            os.waitpid(pid, 0)
    return statistics.harmonic_mean(times + [float(r) for r in reports])


def slowdown(*samples: float) -> float:
    """The host's slowdown over a call, from the samples taken around it."""
    return statistics.fmean(samples) / NOMINAL_S


def main() -> int:
    end = time.perf_counter() + 10
    samples = []
    while time.perf_counter() < end:
        samples.append(sample())
    ms = sorted(s * 1e3 for s in samples)
    print(f"{len(ms)} samples, ms: min {ms[0]:.3f} p10 {ms[len(ms) // 10]:.3f} "
          f"median {statistics.median(ms):.3f} max {ms[-1]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
