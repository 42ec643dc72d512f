"""Steadiness report: run a workload over several seeds, report the spread.

For each end-to-end metric it prints the median over the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``.  Each run's host noise (steal time and other
processes' CPU over the measured phases) is printed beside its figures so
that a slow run can be attributed; no run is ever dropped.  The figures a
run prints but does not gate (tail latencies, the parts of a set-up) get
the same spread, without a verdict.

Usage::

    python3 servebench/steady.py --workload http_reads --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: a printed figure: ``metric <name> = <value> ...`` or ``setup part <name> = <value> ...``
FIGURE = re.compile(r"(metric|setup part) (\S+) = (\S+) ")


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in seeds_of(args.seeds):
        command = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        host = next((line for line in lines if line.startswith("host ")), "host ?")
        figures = {name: entry["value"] for name, entry in result["metrics"].items()}
        for name, value in figures.items():
            values.setdefault(name, []).append(value)
        for line in lines:
            match = FIGURE.match(line)
            name = match and ("setup." if match[1] == "setup part" else "") + match[2]
            if match and name not in figures:
                values.setdefault(name, []).append(float(match[3]))
        shown = " ".join(f"{name}={value:.4g}" for name, value in figures.items())
        print(f"seed {seed}: correct={result['correct']} {shown} | {host[5:]}", flush=True)
    for name, series in values.items():
        if len(series) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f" bound={bound} {'ok' if spread < bound / 3 else 'WIDE'}")
        print(f"{name}: median={statistics.median(series):.6g} iqr/median={spread:.4f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
