"""Shared pieces of the three workloads: settings, result records, reporting."""

from __future__ import annotations

import os
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

from servebench import inputs
from servebench.stats import (
    NoiseProbe,
    TooFewSamples,
    median,
    percentile,
)

ROOT = Path(__file__).resolve().parents[1]
#: scratch space inside the checkout (store directories, trace dumps)
WORK = ROOT / ".servebench_work"
#: the engine every workload serves, with its accuracy settings pinned here
#: so that no change can gain speed by loosening a default
METHOD = "probesim-native"
EPS_A = 0.1
DECAY = 0.6
#: set-ups per run, spread through it: each starts one of the run's segments
SETUPS = 9


def child_command(module: str, *args: str) -> tuple[list[str], dict]:
    """Command and environment that run ``servebench.<module>`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return [sys.executable, "-m", f"servebench.{module}", *args], env


def engine_config(seed: int) -> dict:
    """The pinned engine configuration for run seed ``seed``."""
    return {"eps_a": EPS_A, "c": DECAY, "seed": inputs.engine_seed(seed)}


def workdir(name: str) -> Path:
    """A fresh scratch directory for this run."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def split(count: int, parts: int) -> list[range]:
    """Cut ``range(count)`` into ``parts`` contiguous nearly equal slices."""
    bounds = [round(i * count / parts) for i in range(parts + 1)]
    return [range(bounds[i], bounds[i + 1]) for i in range(parts)]


@dataclass
class PhaseCount:
    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


@dataclass
class Measured:
    """What one pass over a workload's inputs recorded."""

    #: seconds of each set-up: generated graph to first answered query
    setups: list[float] = field(default_factory=list)
    #: seconds of each set-up's parts, by part name, to attribute its spread
    setup_parts: dict[str, list[float]] = field(default_factory=dict)
    #: per-op latencies (ms) by kind ("query", "update")
    latency_ms: dict[str, list[float]] = field(default_factory=dict)
    #: queries answered, and the wall seconds the measured segments took
    queries: int = 0
    busy_s: float = 0.0
    #: peak resident memory (MB) of the serving processes, per segment
    peaks_mb: list[float] = field(default_factory=list)
    #: (start, end) CLOCK_MONOTONIC ns of each measured segment
    windows: list[tuple[int, int]] = field(default_factory=list)
    phases: dict[str, PhaseCount] = field(default_factory=lambda: {
        "setup": PhaseCount(), "measure": PhaseCount(), "verify": PhaseCount(),
    })
    mismatches: list[str] = field(default_factory=list)
    noise: NoiseProbe = field(default_factory=NoiseProbe)
    #: workload-specific extras (trace ops, coalescer counters, ...)
    extra: dict = field(default_factory=dict)

    def record(self, kind: str, ms: float) -> None:
        self.latency_ms.setdefault(kind, []).append(ms)

    def record_setup(self, parts: dict[str, float]) -> None:
        """Count one set-up: its parts, in order, add up to its time."""
        self.setups.append(sum(parts.values()))
        for name, seconds in parts.items():
            self.setup_parts.setdefault(name, []).append(seconds)

    def check(self, ok: bool, message: str) -> None:
        """Count one answer check; keep a message for each mismatch."""
        self.phases["verify"].add(ok)
        if not ok:
            self.mismatches.append(message)

    @property
    def qps(self) -> float:
        return self.queries / self.busy_s


def measure_segments(segments, run_segment, traced: bool):
    """Run every segment once untraced and, in a traced run, once traced.

    Each traced segment follows its untraced twin at once, so both passes
    see the same host conditions and the breakdown compares like with
    like.  ``run_segment`` gets the trace directory on the traced pass
    (``None`` on the untraced one); the serving child it starts installs
    the wrappers and writes its spans there.  Returns the untraced and the
    traced record (``None`` in an untraced run).
    """
    base = Measured()
    twin = Measured() if traced else None
    trace_dir = workdir("trace") if traced else None
    if twin is not None:
        twin.extra["trace_dir"] = trace_dir
    for index, segment in enumerate(segments):
        run_segment(index, segment, base, None)
        if traced:
            run_segment(index, segment, twin, trace_dir)
    return base, twin


def say(line: str) -> None:
    print(line, flush=True)


def end_to_end(run: Measured, tails: dict[str, tuple[str, float]]) -> dict:
    """The JSON metrics of an untraced run, plus report lines for the tails.

    ``tails`` maps a report name to ``(latency kind, percentile)``; each is
    printed with its sample count, or refused when too few samples lie
    beyond it.
    """
    queries = run.latency_ms["query"]
    metrics = {
        "query_qps": (run.qps, "1/s", run.queries),
        "query_p50_ms": (median(queries), "ms", len(queries)),
        "setup_s": (median(run.setups), "s", len(run.setups)),
        "peak_rss_mb": (median(run.peaks_mb), "MB", len(run.peaks_mb)),
    }
    for name, (value, unit, samples) in metrics.items():
        say(f"metric {name} = {value:.6g} {unit} (samples={samples})")
    for name, values in run.setup_parts.items():
        say(f"setup part {name} = {median(values):.6g} s (samples={len(values)})")
    for name, (kind, q) in tails.items():
        values = run.latency_ms.get(kind, [])
        try:
            say(f"metric {name} = {percentile(values, q):.6g} ms (samples={len(values)})")
        except TooFewSamples as exc:
            say(f"metric {name} refused: {exc}")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def report_phases(run: Measured) -> None:
    for name, phase in run.phases.items():
        say(f"phase {name}: attempted={phase.attempted} "
            f"succeeded={phase.attempted - phase.failed} failed={phase.failed}")
    noise = run.noise.noise.as_dict()
    say("host " + " ".join(f"{key}={value}" for key, value in noise.items()))
    for message in run.mismatches[:20]:
        print(f"MISMATCH {message}", file=sys.stderr, flush=True)


def totals(run: Measured) -> tuple[int, int]:
    attempted = sum(p.attempted for p in run.phases.values() if p is not run.phases["verify"])
    failed = sum(p.failed for p in run.phases.values())
    return attempted, failed
