"""E-C4 — the persistent tier: ingest throughput, warm attach vs cold start.

The storage tier's performance claims, measured on one synthetic graph:

- **ingest**: the out-of-core pipeline (parse → spill → counting-sort →
  snapshot) must convert an edge list at a throughput that makes multi-GB
  inputs practical, and its output must be **bit-identical** to the
  in-memory reference path (asserted, not assumed);
- **warm attach vs cold start**: serving from a snapshot is an ``mmap`` +
  header parse — O(1) in the graph size — where the cold path re-reads the
  edge list and rebuilds the CSR every restart.  The speedup is the whole
  reason the snapshot format exists;
- **conversions**: ``CSRGraph.from_digraph`` (``csr_build``) and its
  inverse ``to_digraph`` (``thaw``) on the same graph, gated as stages of
  their own because the durable update path pays them per sync;
- **recovery**: replaying a snapshot + WAL tail after a crash, digest-
  checked against the sequentially applied oracle.

Usage::

    python benchmarks/bench_storage.py                  # full preset
    python benchmarks/bench_storage.py --smoke          # seconds
    python benchmarks/bench_storage.py --json out.json  # perf gate

The ``--json`` report carries a flat ``gate`` block consumed by
``tools/check_bench_regression.py`` (the nightly perf-regression gate).
"""

import argparse
import json
import multiprocessing
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import emit_table  # noqa: E402

from repro.graph import CSRGraph, read_edge_list, write_edge_list  # noqa: E402
from repro.graph.dynamic import EdgeUpdate, apply_update  # noqa: E402
from repro.graph.generators import erdos_renyi_graph  # noqa: E402
from repro.storage import (  # noqa: E402
    PersistentGraphStore,
    attach_snapshot,
    ingest_edge_list,
    recover,
)

SEED = 2017
ATTACH_REPEATS = 5
WAL_TAIL_UPDATES = 64

#: (num_nodes, num_edges) presets; smoke finishes in seconds.
PRESETS = {
    "full": (30_000, 240_000),
    "smoke": (1_000, 6_000),
}


def build_edge_list(workdir: Path, smoke: bool) -> Path:
    n, m = PRESETS["smoke" if smoke else "full"]
    graph = erdos_renyi_graph(n, num_edges=m, seed=SEED)
    path = workdir / "graph.txt"
    write_edge_list(graph, path)
    return path


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def median_timed(fn, repeats: int = ATTACH_REPEATS):
    """``(last result, median seconds)`` of ``repeats`` calls of ``fn``."""
    samples = []
    for _ in range(repeats):
        result, seconds = timed(fn)
        samples.append(seconds)
    return result, statistics.median(samples)


def bench_ingest(source: Path, out: Path) -> dict:
    """Out-of-core ingest, digest-checked against the in-memory path."""
    stats, seconds = timed(lambda: ingest_edge_list(source, out))
    reference = CSRGraph.from_digraph(read_edge_list(source)).digest()
    assert stats.digest == reference, (
        "out-of-core ingest drifted from write_snapshot(read_edge_list(...))"
    )
    return {
        "stage": "ingest",
        "seconds": round(seconds, 4),
        "edges_per_s": round(stats.edges / seconds),
        "spill_mb": round(stats.spill_bytes / 2**20, 2),
        "digest": stats.digest[:16],
    }


def bench_cold_start(source: Path) -> dict:
    """The pre-storage restart path: re-read the text, rebuild the CSR."""
    csr, seconds = timed(
        lambda: CSRGraph.from_digraph(read_edge_list(source))
    )
    return {
        "stage": "cold_start",
        "seconds": round(seconds, 4),
        "edges_per_s": round(csr.num_edges / seconds),
        "spill_mb": 0.0,
        "digest": csr.digest()[:16],
    }


def bench_warm_attach(snapshot: Path) -> dict:
    """The storage restart path: mmap the snapshot, zero-copy views."""
    samples = []
    digest = ""
    for _ in range(ATTACH_REPEATS):
        start = time.perf_counter()
        mapped = attach_snapshot(snapshot)
        graph = mapped.graph()
        edges = graph.num_edges
        samples.append(time.perf_counter() - start)
        digest = mapped.header.digest
        del graph
        mapped.close()
    seconds = statistics.median(samples)
    return {
        "stage": "warm_attach",
        "seconds": round(seconds, 6),
        "edges_per_s": round(edges / seconds),
        "spill_mb": 0.0,
        "digest": digest[:16],
    }


def bench_conversions(source: Path) -> list[dict]:
    """The two snapshot conversions on their own, each the median of repeats.

    ``csr_build`` is ``CSRGraph.from_digraph`` (every rebuild sync, store
    create and checkpoint pays it) and ``thaw`` is ``to_digraph`` (every
    store open and delta-mode mirror pays it); gating them apart lets a
    regression name its layer.  The thaw must round-trip byte for byte.
    """
    graph = read_edge_list(source)
    csr, build_s = median_timed(lambda: CSRGraph.from_digraph(graph))
    thawed, thaw_s = median_timed(csr.to_digraph)
    assert CSRGraph.from_digraph(thawed).digest() == csr.digest(), (
        "to_digraph is not the exact inverse of from_digraph"
    )
    return [
        {
            "stage": stage,
            "seconds": round(seconds, 6),
            "edges_per_s": round(csr.num_edges / seconds),
            "spill_mb": 0.0,
            "digest": csr.digest()[:16],
        }
        for stage, seconds in (("csr_build", build_s), ("thaw", thaw_s))
    ]


def bench_recovery(workdir: Path, source: Path) -> dict:
    """Crash recovery: snapshot + WAL tail replay, oracle-checked."""
    base = CSRGraph.from_digraph(read_edge_list(source)).to_digraph()
    updates = [
        EdgeUpdate("insert", i, (i * 7 + 1) % base.num_nodes)
        for i in range(WAL_TAIL_UPDATES)
        if i != (i * 7 + 1) % base.num_nodes
        and not base.has_edge(i, (i * 7 + 1) % base.num_nodes)
    ]
    store_dir = workdir / "store"
    with PersistentGraphStore.create(store_dir, base) as store:
        store.log(updates)

    start = time.perf_counter()
    with recover(store_dir) as state:
        recovered = state.digest()
        edges = state.snapshot.header.num_edges + len(state.tail)
    seconds = time.perf_counter() - start

    oracle = base.copy()
    for update in updates:
        apply_update(oracle, update)
    assert recovered == CSRGraph.from_digraph(oracle).digest(), (
        "recovery drifted from the sequentially applied oracle"
    )
    return {
        "stage": "recover",
        "seconds": round(seconds, 4),
        "edges_per_s": round(edges / seconds),
        "spill_mb": 0.0,
        "digest": recovered[:16],
    }


def run_bench(smoke: bool) -> dict:
    preset = "smoke" if smoke else "full"
    with tempfile.TemporaryDirectory(prefix="bench-storage-") as tmp:
        workdir = Path(tmp)
        source = build_edge_list(workdir, smoke)
        snapshot = workdir / "graph.csr"
        rows = [
            bench_ingest(source, snapshot),
            bench_cold_start(source),
            bench_warm_attach(snapshot),
            *bench_conversions(source),
            bench_recovery(workdir, source),
        ]
    n, m = PRESETS[preset]
    emit_table(
        "storage", rows,
        (f"Persistent tier: ingest / cold start / warm attach / CSR build / "
         f"thaw / recovery "
         f"on {n} nodes, {m} edges ({preset} preset, "
         f"cores={multiprocessing.cpu_count()})"),
    )
    by_stage = {row["stage"]: row for row in rows}
    assert by_stage["ingest"]["digest"] == by_stage["cold_start"]["digest"]
    assert by_stage["ingest"]["digest"] == by_stage["warm_attach"]["digest"]
    assert by_stage["ingest"]["digest"] == by_stage["csr_build"]["digest"]

    gate = {
        f"seconds:{stage}": by_stage[stage]["seconds"]
        for stage in (
            "ingest", "cold_start", "warm_attach", "csr_build", "thaw", "recover",
        )
    }
    derived = {
        "speedup:attach-vs-cold": round(
            by_stage["cold_start"]["seconds"]
            / max(by_stage["warm_attach"]["seconds"], 1e-9), 1
        ),
    }
    gate.update(derived)
    return {
        "bench": "storage",
        "preset": preset,
        "graph": {"nodes": n, "edges": m, "seed": SEED},
        "cores": multiprocessing.cpu_count(),
        "series": rows,
        "derived": derived,
        "gate": gate,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny preset: seconds, for the CI bench-smoke job")
    parser.add_argument("--json", default=None,
                        help="write the machine-readable report here")
    args = parser.parse_args(argv)

    payload = run_bench(args.smoke)
    print(f"\nwarm attach is {payload['derived']['speedup:attach-vs-cold']}x "
          "faster than the cold edge-list restart (digest-checked)")
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
