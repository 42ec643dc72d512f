#!/usr/bin/env python
"""Fail CI when a benchmark's gate metrics regress past a threshold.

Each perf bench (``benchmarks/bench_parallel_service.py``,
``benchmarks/bench_native_engine.py``) writes a JSON report with a flat
``gate`` block of named scalar metrics.  This tool compares a fresh report
against the committed baseline under ``benchmarks/baselines/`` and exits
non-zero when any metric regresses by more than ``--threshold`` (default
20%).

Metric direction is encoded in the name prefix:

- ``qps:…`` / ``speedup:…`` — higher is better (regression = drop);
- ``p50…`` / ``p95…`` / ``p99…`` / ``latency…`` / ``…_ms:…`` / ``…_s:…``
  — lower is better (regression = rise).

Bootstrapping: when the baseline file does not exist the check passes with
a notice (pass ``--strict`` to fail instead) so the gate can be introduced
before a baseline has been blessed; ``--update`` writes the current report
as the new baseline.  Baselines are machine-specific — re-bless after
changing CI runner hardware, not to paper over a slow commit.

Usage::

    python tools/check_bench_regression.py CURRENT.json BASELINE.json
    python tools/check_bench_regression.py CURRENT.json BASELINE.json --update
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: name prefixes whose metrics regress by *rising* (latencies).
LOWER_IS_BETTER = ("p50", "p95", "p99", "latency", "seconds")


def metric_direction(name: str) -> str:
    """``"higher"`` or ``"lower"`` (the value direction that is *better*)."""
    head = name.split(":", 1)[0]
    if head.startswith(("qps", "speedup", "throughput", "hit")):
        return "higher"
    if head.startswith(LOWER_IS_BETTER) or head.endswith(("_ms", "_s")):
        return "lower"
    raise SystemExit(
        f"error: gate metric {name!r} has no recognised direction prefix; "
        "name it qps:*/speedup:*/hit:* (higher-better) or p50*/p95*/p99*/"
        "latency*/*_ms/*_s (lower-better)"
    )


def load_report(path: Path) -> dict:
    """One bench report, with its ``gate`` block validated to scalars."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    gate = payload.get("gate")
    if not isinstance(gate, dict) or not gate:
        raise SystemExit(f"error: {path} has no non-empty 'gate' block")
    bad = sorted(k for k, v in gate.items() if not isinstance(v, (int, float)))
    if bad:
        raise SystemExit(f"error: {path} gate metrics are not scalars: {bad}")
    payload["gate"] = {name: float(value) for name, value in gate.items()}
    return payload


def comparable(current: dict, baseline: dict) -> str | None:
    """Why the two reports cannot be compared, or ``None`` when they can.

    Wall-clock gate metrics only mean something against a baseline from the
    same preset and the same hardware class; a mismatch (e.g. a smoke run
    against the full-preset baseline, or a baseline blessed on a laptop
    gating CI runners) must not produce confident pass/fail verdicts.
    ``backend`` extends the same rule to reports that record an execution
    backend (the native bench: numba vs the numpy fallback have different
    performance envelopes, so one's baseline must not gate the other).
    """
    for field in ("preset", "cores", "backend"):
        mine, theirs = current.get(field), baseline.get(field)
        if mine is not None and theirs is not None and mine != theirs:
            return (
                f"{field} mismatch: current={mine!r} vs baseline={theirs!r} "
                "— re-bless the baseline on the gating hardware/preset "
                "(--update)"
            )
    return None


def compare(
    current: dict[str, float], baseline: dict[str, float], threshold: float
) -> list[str]:
    """Human-readable failure lines, empty when the gate passes."""
    failures = []
    for name in sorted(baseline):
        if name not in current:
            failures.append(f"{name}: missing from the current report")
            continue
        base, now = baseline[name], current[name]
        if base == 0:
            continue  # a degenerate baseline cannot define a regression
        if metric_direction(name) == "higher":
            floor = base * (1.0 - threshold)
            if now < floor:
                failures.append(
                    f"{name}: {now:g} fell below {floor:g} "
                    f"(baseline {base:g}, threshold {threshold:.0%})"
                )
        else:
            ceiling = base * (1.0 + threshold)
            if now > ceiling:
                failures.append(
                    f"{name}: {now:g} rose above {ceiling:g} "
                    f"(baseline {base:g}, threshold {threshold:.0%})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="fresh bench JSON report")
    parser.add_argument("baseline", type=Path, help="committed baseline JSON")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional regression (default 0.20)")
    parser.add_argument("--update", action="store_true",
                        help="bless the current report as the new baseline")
    parser.add_argument("--strict", action="store_true",
                        help="fail (instead of pass) when no baseline exists")
    args = parser.parse_args(argv)

    current_report = load_report(args.current)
    current = current_report["gate"]
    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(
            args.current.read_text(encoding="utf-8"), encoding="utf-8"
        )
        print(f"blessed {args.current} as baseline {args.baseline}")
        return 0
    if not args.baseline.exists():
        message = (
            f"no baseline at {args.baseline}; commit one with --update "
            "(bootstrap mode: passing)"
        )
        if args.strict:
            print(f"error: {message}", file=sys.stderr)
            return 1
        print(message)
        return 0

    baseline_report = load_report(args.baseline)
    mismatch = comparable(current_report, baseline_report)
    if mismatch:
        if args.strict:
            print(f"error: {mismatch}", file=sys.stderr)
            return 1
        print(f"not comparable — {mismatch} (passing without a verdict)")
        return 0
    baseline = baseline_report["gate"]
    failures = compare(current, baseline, args.threshold)
    shared = sorted(set(current) & set(baseline))
    print(f"compared {len(shared)} gate metrics against {args.baseline}")
    if failures:
        print("perf regression gate FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  - {line}", file=sys.stderr)
        return 1
    print(f"perf regression gate passed (threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
