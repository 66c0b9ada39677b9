"""Op latencies at a fixed reference speed of the host.

The benchmark runs on shared VMs whose speed drifts by 10-25 % over seconds
and minutes, for every kind of code alike: a fixed pure-Python loop timed in
10-s windows spreads about as much as the workloads themselves. So the timed
loop runs a fixed calibration unit, which uses no compedge code, around every
op. The unit's time next to an op says how fast the host ran then, and the
op's latency is rescaled to what it would have been at ``REF_UNIT_S`` per
unit, the unit's median time on the host where the benchmark was defined
(2-vCPU VM, Python 3.11.7, numpy 2.4.6). A faster or slower program moves
the op's own time and not the unit's, so the rescaled latency follows it.

    python3 bench/hostclock.py      # time the unit on this host
"""
from __future__ import annotations

import os
import statistics
import time

import numpy as np

REF_UNIT_S = 0.001
SHARE = 0.15  # calibration time after an op, as a share of the op's latency
WINDOW = 2  # slices on either side of an op's own two that set its speed

_ARRAY = np.random.default_rng(20240).random(1 << 16)


def unit() -> int:
    """Fixed work in the mix the workloads use: tuples, frozensets, dicts,
    integer bit operations and a small numpy mask."""
    seen: dict[frozenset, int] = {}
    acc = 0
    for k in range(1500):
        key = frozenset((k % 13, k % 7, k % 5))
        seen[key] = seen.get(key, 0) + 1
        acc ^= (k * 2654435761) & 0xFFFF
    acc += sum(sorted(seen.values())[:5])
    acc += int(np.count_nonzero(_ARRAY < 0.5))
    return acc


def pin_to_one_cpu() -> int:
    """Keep this process and the processes it starts on one CPU.

    The vCPUs of a shared host run at different speeds at the same moment,
    so calibration only says how fast an op ran if both ran on the same one.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostClock:
    """Calibration slices between ops: ``slices[k]`` runs just before op ``k``."""

    def __init__(self):
        self.slices: list[tuple[int, float]] = []

    def calibrate(self, latency: float) -> None:
        """Run whole units for at least ``SHARE * latency`` seconds (at least one)."""
        units, t0 = 0, time.perf_counter()
        while True:
            unit()
            units += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= SHARE * latency:
                break
        self.slices.append((units, elapsed))

    def factors(self) -> list[float]:
        """Per op: reference unit time over the unit time in the slices near it.

        Op ``k`` sits between slices ``k`` and ``k + 1``; the ``WINDOW``
        slices on either side of those count too, so one unit that a host
        hiccup slowed does not rescale an op on its own.
        """
        units = [0]
        seconds = [0.0]
        for u, s in self.slices:
            units.append(units[-1] + u)
            seconds.append(seconds[-1] + s)
        last = len(self.slices)
        factors = []
        for k in range(last - 1):
            lo, hi = max(0, k - WINDOW), min(last, k + 2 + WINDOW)
            factors.append(REF_UNIT_S * (units[hi] - units[lo]) / (seconds[hi] - seconds[lo]))
        return factors

if __name__ == "__main__":
    unit()
    times = []
    for _ in range(2000):
        t0 = time.perf_counter()
        unit()
        times.append(time.perf_counter() - t0)
    q1, q2, q3 = statistics.quantiles(times, n=4)
    print(f"unit median {q2 * 1e3:.4f} ms, quartiles {q1 * 1e3:.4f}..{q3 * 1e3:.4f} ms; "
          f"REF_UNIT_S is {REF_UNIT_S * 1e3:.4f} ms")
