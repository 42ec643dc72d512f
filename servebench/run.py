"""The serving benchmark: one command per workload, every metric by name.

Usage (from the root of a checkout)::

    python3 servebench/run.py --workload http_reads --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the input digests,
every metric with its unit and sample count, the operations attempted,
succeeded and failed per phase, and the host noise over the measured
phases.  Any answer mismatch makes the exit code 1.  A run refuses (exit
2) when ``REPRO_NATIVE_BACKEND`` forces another native backend than the
install selects by itself.  See
``servebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

WORKLOADS = ("http_reads", "durable_read_write")


def _workload(name: str):
    if name == "http_reads":
        from servebench import http_reads as module
    else:
        from servebench import durable_read_write as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ProbeSim serving benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    from repro.core.native import HAVE_NUMBA, native_backend

    from servebench import common, layers

    # the numba and numpy kernels differ about tenfold in speed: every run
    # times the backend the engine selects by itself, and says which
    expected = "numba" if HAVE_NUMBA else "numpy"
    if native_backend() != expected:
        print(f"error: native backend {native_backend()} forced; this install selects "
              f"{expected} (unset REPRO_NATIVE_BACKEND)", file=sys.stderr)
        return 2
    common.say(f"engine {common.METHOD} backend={native_backend()} "
               f"eps_a={common.EPS_A} c={common.DECAY}")
    module = _workload(args.workload)
    data = module.make_inputs(args.seed, args.seconds, module.Sizes())
    try:
        base, traced = module.measure(data, traced=bool(args.trace))
        runs = [run for run in (base, traced) if run is not None]
        for run in runs:
            common.report_phases(run)
        if traced is not None:
            values = module.per_layer_metrics(base, traced)
            metrics = {}
            for name, unit in layers.PER_LAYER.items():
                common.say(f"layer {name} = {values[name]:.6g} {unit}")
                metrics[name] = {"value": values[name], "unit": unit}
        else:
            metrics = common.end_to_end(base, module.TAILS)
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)
    attempted = sum(common.totals(run)[0] for run in runs)
    failed = sum(common.totals(run)[1] for run in runs)
    correct = not any(run.mismatches for run in runs)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
