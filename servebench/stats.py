"""Summary statistics, memory and host-noise probes of the serving benchmark."""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


#: a percentile is reported only when at least this many samples lie beyond it
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (nearest rank) of ``samples``.

    Refuses (:class:`TooFewSamples`) unless at least :data:`MIN_BEYOND`
    samples lie strictly beyond the rank, so that a tail figure always
    rests on ten or more observations.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q!r}")
    values = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    beyond = len(values) - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {len(values)} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return values[rank - 1]


def median(samples) -> float:
    """Plain median (mid-point average for even counts); no sample floor."""
    values = sorted(samples)
    if not values:
        raise TooFewSamples("median of no samples")
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2.0


#: share of the operations, nearest the median, that a trace breakdown averages
MIDDLE_SHARE = 0.2


def around_median(values: list[float]) -> list[int]:
    """Indices of the middle :data:`MIDDLE_SHARE` of ``values`` by rank (at least one).

    The trace breakdown averages over these entries: their mean sits next
    to the median, and their layer parts still add up to it exactly.
    """
    if not values:
        return []
    order = sorted(range(len(values)), key=values.__getitem__)
    width = max(1, round(MIDDLE_SHARE * len(order)))
    lo = (len(order) - width) // 2
    return order[lo:lo + width]


# --------------------------------------------------------------------- #
# memory
# --------------------------------------------------------------------- #


def reset_peak_rss(pid: int) -> None:
    """Reset the kernel's peak-RSS mark (``VmHWM``) of ``pid`` to its current RSS."""
    with open(f"/proc/{pid}/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of ``pid`` since its last reset, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM in /proc/{pid}/status")


# --------------------------------------------------------------------- #
# host noise
# --------------------------------------------------------------------- #


def _cpu_ticks() -> tuple[int, int, int]:
    """(busy, steal, total) jiffies of the whole machine from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    user, nice, system, idle, iowait, irq, softirq, steal = (fields + [0] * 8)[:8]
    busy = user + nice + system + irq + softirq
    return busy, steal, busy + idle + iowait + steal


def _process_ticks(pid: int) -> int:
    """User + system jiffies of ``pid`` (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0
    return int(fields[11]) + int(fields[12])


@dataclass
class HostNoise:
    """CPU the machine spent elsewhere while a phase was measured.

    ``steal_pct`` is time the hypervisor gave this machine's CPUs to
    others; ``other_cpu_pct`` is CPU used by processes other than the
    benchmark's own, both as a share of all CPU time over the phase.
    Recorded to explain spread between runs, never to drop a run.
    """

    nproc: int = os.cpu_count() or 1
    steal_ticks: int = 0
    other_ticks: int = 0
    total_ticks: int = 0

    def as_dict(self) -> dict[str, float]:
        total = max(self.total_ticks, 1)
        return {
            "nproc": self.nproc,
            "steal_pct": round(100.0 * self.steal_ticks / total, 3),
            "other_cpu_pct": round(100.0 * max(self.other_ticks, 0) / total, 3),
        }


class NoiseProbe:
    """Accumulates :class:`HostNoise` over one or more measured phases."""

    def __init__(self) -> None:
        self.noise = HostNoise()
        self._start: tuple[tuple[int, int, int], int] | None = None
        self._pids: list[int] = []

    def begin(self, pids: list[int]) -> None:
        self._pids = list(pids)
        self._start = (_cpu_ticks(), self._own_ticks())

    def end(self) -> None:
        (busy0, steal0, total0), own0 = self._start
        busy1, steal1, total1 = _cpu_ticks()
        own1 = self._own_ticks()
        self.noise.steal_ticks += steal1 - steal0
        self.noise.total_ticks += total1 - total0
        self.noise.other_ticks += (busy1 - busy0) - (own1 - own0)
        self._start = None

    def _own_ticks(self) -> int:
        return sum(_process_ticks(pid) for pid in self._pids)


def now_ns() -> int:
    """``CLOCK_MONOTONIC`` in nanoseconds: one clock for every process."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)
