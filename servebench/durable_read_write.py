"""``durable_read_write``: reads beside writes on the durable deployment.

This is ``repro serve --store ... --workers 1`` without the HTTP front:
``ParallelSimRankService(store=PersistentGraphStore, workers=1,
executor="process")`` on the web graph.  One caller replays, in order, a
seeded trace of 85% ``topk(k=10)`` queries (Zipf 1.0) and 15% single-edge
``apply_update_stream`` calls (half inserts), each of which returns once
the update is durable and visible.  Here the CSR build, the snapshot
checkpoint and the shared-memory publish do most of an update's work, so
``graph``, ``storage`` and ``parallel`` changes show on this workload.

Every query answer is checked against an in-process engine at the same
graph version, and each segment ends with ``repro.storage.recover()`` of
its store, which must reproduce the expected graph digest, plus a final
``topk`` checked against that engine.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from servebench import inputs, layers, tracing
from servebench.common import (
    METHOD,
    ROOT,
    SETUPS,
    Measured,
    child_command,
    engine_config,
    measure_segments,
    say,
    split,
    workdir,
)
from servebench.stats import NoiseProbe, now_ns, peak_rss_mb, reset_peak_rss

K = 10
#: trace operations per second of ``--seconds`` (about 9.5 ms each on average)
OPS_PER_SECOND = 105
TAILS = {"query_p99_ms": ("query", 99), "update_p50_ms": ("update", 50),
         "update_p90_ms": ("update", 90)}


@dataclass
class Sizes:
    nodes: int = inputs.WEB_NODES
    out_degree: int = inputs.WEB_OUT_DEGREE
    setups: int = SETUPS


def _update(kind: int, source: int, target: int):
    from repro.graph.dynamic import EdgeUpdate

    return EdgeUpdate("insert" if kind == 1 else "delete", source, target)


def make_inputs(seed: int, seconds: float, sizes: Sizes) -> dict:
    from repro.graph.csr import CSRGraph
    from repro.graph.digraph import DiGraph
    from repro.graph.dynamic import apply_update

    edges = inputs.web_graph_edges(seed, sizes.nodes, sizes.out_degree)
    count = max(sizes.setups * 4, round(seconds * OPS_PER_SECOND))
    kinds, a, b = inputs.read_write_trace(seed, edges, sizes.nodes, count)
    say(f"input graph web n={sizes.nodes} m={len(edges)} digest={inputs.digest(edges)}")
    say(f"input trace ops={count} updates={int((kinds > 0).sum())} "
        f"digest={inputs.digest(kinds, a, b)}")
    segments = split(count, sizes.setups)
    # the graph each segment's store starts from, as the service will hold
    # it: a snapshot thawed back into a DiGraph, then the updates applied
    graph = DiGraph.from_edges(edges.tolist(), num_nodes=sizes.nodes)
    starts = []
    for segment in segments:
        csr = CSRGraph.from_digraph(graph)
        starts.append(csr)
        graph = csr.to_digraph()
        for i in segment:
            if kinds[i]:
                apply_update(graph, _update(int(kinds[i]), int(a[i]), int(b[i])))
    return {"seed": seed, "sizes": sizes, "kinds": kinds, "a": a, "b": b,
            "segments": segments, "starts": starts}


def measure(data: dict, traced: bool = False):
    """Run each segment in a fresh child process, then check its answers.

    The child holds only the segment's start graph, so neither its heap
    nor the pool worker it forks carries this process's inputs and
    earlier segments: set-up, memory and update times stay comparable
    from segment to segment and run to run.
    """
    from repro.api.registry import create
    from repro.graph.csr import CSRGraph
    from repro.graph.dynamic import apply_update
    from repro.storage import recover

    kinds, a, b = data["kinds"], data["a"], data["b"]
    config = engine_config(data["seed"])

    def run_segment(index: int, segment: range, run: Measured, trace_dir) -> None:
        start_csr = data["starts"][index]
        folder = workdir(f"segment-{index}-{trace_dir is not None}")
        store_dir = folder / "store"
        payload = {
            "start": start_csr, "config": config, "store": str(store_dir),
            "ops": [(i, int(kinds[i]), int(a[i]), int(b[i])) for i in segment],
            "rid_base": len(run.extra.setdefault("ops", [])),
            "trace_dir": None if trace_dir is None else str(trace_dir),
        }
        (folder / "in.pkl").write_bytes(pickle.dumps(payload))
        command, env = child_command("durable_read_write", str(folder))
        subprocess.run(command, env=env, cwd=ROOT, check=True, timeout=600)
        out = pickle.loads((folder / "out.pkl").read_bytes())

        run.record_setup(out["setup_parts"])
        run.phases["setup"].add(out["probe_ok"])
        run.extra["worker_pids"] = run.extra.get("worker_pids", set()) | set(out["worker_pids"])
        for rid, kind, begin, end, applied in out["ops"]:
            run.record(kind, (end - begin) / 1e6)
            run.phases["measure"].add(applied)
            run.extra["ops"].append(tracing.Op(rid, kind, begin, end))
        run.peaks_mb.append(out["peak_mb"])
        run.windows.append(out["window"])
        run.busy_s += (out["window"][1] - out["window"][0]) / 1e9
        run.queries += len(out["answers"])
        for field_name in ("steal_ticks", "other_ticks", "total_ticks"):
            setattr(run.noise.noise, field_name,
                    getattr(run.noise.noise, field_name) + out["noise"][field_name])

        # answers against an in-process engine at each graph version
        graph = start_csr.to_digraph()
        answers = dict(out["answers"])
        oracle = None
        for i in segment:
            if kinds[i]:
                apply_update(graph, _update(int(kinds[i]), int(a[i]), int(b[i])))
                oracle = None
            elif i in answers:
                if oracle is None:
                    oracle = create(METHOD, CSRGraph.from_digraph(graph), **config)
                run.check(answers[i] == oracle.topk(int(a[i]), K).as_pairs(),
                          f"topk({a[i]}) at trace op {i} differs from the in-process engine")
        expected = CSRGraph.from_digraph(graph)
        with recover(store_dir) as state:
            run.check(state.digest() == expected.digest(),
                      f"recovered store of segment {index} does not match the expected graph")
        final_query, final_pairs = out["final"]
        oracle = create(METHOD, expected, **config)
        run.check(final_pairs == oracle.topk(final_query, K).as_pairs(),
                  f"final topk({final_query}) differs from the in-process engine")

    return measure_segments(data["segments"], run_segment, traced)


def segment_main(folder: Path) -> None:
    """Child process: set up the durable deployment, replay one segment."""
    payload = pickle.loads((folder / "in.pkl").read_bytes())
    if payload["trace_dir"] is not None:
        uninstall = tracing.install(Path(payload["trace_dir"]))
    from repro.parallel.pool import ParallelSimRankService
    from repro.storage import PersistentGraphStore

    start_csr = payload["start"]
    graph = start_csr.to_digraph()
    probe_query = int(np.argmin(start_csr.in_degrees))
    marks = [time.perf_counter()]
    store = PersistentGraphStore.create(payload["store"], graph)
    marks.append(time.perf_counter())
    service = ParallelSimRankService(
        store=store, methods=(METHOD,), configs={METHOD: payload["config"]},
        workers=1, executor="process",
    )
    marks.append(time.perf_counter())
    probe = service.topk(probe_query, K)
    marks.append(time.perf_counter())
    setup_parts = {name: marks[i + 1] - marks[i]
                   for i, name in enumerate(("store_create", "pool_spawn", "first_query"))}

    pids = [os.getpid()] + [child.pid for child in multiprocessing.active_children()]
    for pid in pids:
        reset_peak_rss(pid)
    noise = NoiseProbe()
    noise.begin(pids)
    ops, answers = [], []
    window_start = now_ns()
    for offset, (i, kind, source, target) in enumerate(payload["ops"]):
        rid = payload["rid_base"] + offset + 1
        tracing.set_request(rid)
        begin = now_ns()
        if kind == 0:
            answers.append((i, service.topk(source, K)))
            applied = True
        else:
            applied = service.apply_update_stream([_update(kind, source, target)]) == 1
        end = now_ns()
        tracing.set_request(None)
        ops.append((rid, "query" if kind == 0 else "update", begin, end, applied))
    window_end = now_ns()
    noise.end()
    peak = sum(peak_rss_mb(pid) for pid in pids)
    final_query = payload["ops"][-1][2]
    final = service.topk(final_query, K)
    service.close()
    store.close()
    if payload["trace_dir"] is not None:
        uninstall()
        tracing.TRACER.dump(Path(payload["trace_dir"]) / f"trace-{os.getpid()}.json")
    out = {
        "setup_parts": setup_parts, "probe_ok": probe.k == K, "worker_pids": pids[1:],
        "ops": ops, "answers": [(i, r.as_pairs()) for i, r in answers],
        "final": (final_query, final.as_pairs()), "peak_mb": peak,
        "window": (window_start, window_end),
        "noise": {name: getattr(noise.noise, name)
                  for name in ("steal_ticks", "other_ticks", "total_ticks")},
    }
    (folder / "out.pkl").write_bytes(pickle.dumps(out))


def per_layer_metrics(base: Measured, traced: Measured) -> dict:
    spans, events = tracing.load(sorted(traced.extra["trace_dir"].glob("trace-*.json")))
    return layers.per_layer(base, traced, spans, events,
                            window_pids=traced.extra["worker_pids"])


if __name__ == "__main__":
    import sys

    segment_main(Path(sys.argv[1]))
