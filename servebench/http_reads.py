"""``http_reads``: reads through the HTTP front door of ``repro serve``.

The server child runs the default deployment — ``SimRankHTTPApp`` with
coalescing on, over an in-process ``SimRankService`` — on a copying-model
web graph shaped like the ``it-2004`` stand-in.  Two keep-alive
connections from this process replay a seeded Zipf(1.0) query trace in a
closed loop; a seeded coin sends each request to ``/v1/topk`` (k=10) or
``/v1/single_source`` (limit=10).  The engine is a minority of a round
trip here, so the front door, walks and trie carry most of the time and a
sweep-only change should barely move this workload.

Every 200 body must be byte-identical to the in-process oracle's
serialisation of the same query on the same graph.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
from dataclasses import dataclass

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
from servebench.stats import now_ns, peak_rss_mb, reset_peak_rss

K = 10
CONNECTIONS = 2
#: requests per second of ``--seconds`` (about 7 ms round trips on two connections)
REQUESTS_PER_SECOND = 290
TAILS = {"query_p99_ms": ("query", 99)}


@dataclass
class Sizes:
    nodes: int = inputs.WEB_NODES
    out_degree: int = inputs.WEB_OUT_DEGREE
    setups: int = SETUPS


def make_inputs(seed: int, seconds: float, sizes: Sizes) -> dict:
    edges = inputs.web_graph_edges(seed, sizes.nodes, sizes.out_degree)
    count = max(sizes.setups * 4, round(seconds * REQUESTS_PER_SECOND))
    queries, routes = inputs.http_trace(seed, edges, sizes.nodes, count)
    say(f"input graph web n={sizes.nodes} m={len(edges)} digest={inputs.digest(edges)}")
    say(f"input trace requests={count} distinct={len(set(queries.tolist()))} "
        f"digest={inputs.digest(queries, routes)}")
    return {"seed": seed, "sizes": sizes, "edges": edges, "queries": queries,
            "routes": routes, "probe": inputs.probe_node(edges, sizes.nodes)}


def request_bytes(rid: int, query: int, topk: bool) -> bytes:
    if topk:
        path, body = "/v1/topk", f'{{"query":{query},"k":{K}}}'
    else:
        path, body = "/v1/single_source", f'{{"query":{query},"limit":{K}}}'
    return (f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
            f"X-Request-Id: {rid}\r\nContent-Length: {len(body)}\r\n\r\n{body}").encode()


async def exchange(reader, writer, payload: bytes) -> tuple[int, bytes]:
    """Send one request; return the status and body of its response."""
    writer.write(payload)
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n"):
        if line[:15].lower() == b"content-length:":
            length = int(line[15:])
    return status, await reader.readexactly(length)


def oracle_bodies(data: dict) -> dict[tuple[int, int], bytes]:
    """The serialised answer of every (query, route) in the trace, in-process."""
    from repro.api.service import SimRankService
    from repro.graph.digraph import DiGraph
    from repro.server.app import serialize_result, serialize_topk

    graph = DiGraph.from_edges(data["edges"].tolist(), num_nodes=data["sizes"].nodes)
    service = SimRankService(graph, methods=(METHOD,),
                             configs={METHOD: engine_config(data["seed"])})
    bodies = {}
    for query in sorted(set(data["queries"].tolist()) | {data["probe"]}):
        result = service.single_source(query)
        bodies[query, 0] = serialize_result(result, K)
        bodies[query, 1] = serialize_topk(result.topk(K))
    return bodies


def measure(data: dict, traced: bool = False):
    sizes: Sizes = data["sizes"]
    queries, routes = data["queries"].tolist(), data["routes"].tolist()
    edges_path = workdir("graph") / "edges.npy"
    np.save(edges_path, data["edges"])
    oracle = oracle_bodies(data)

    def run_segment(index: int, segment: range, run: Measured, trace_dir) -> None:
        command, env = child_command(
            "server_child", str(edges_path), str(sizes.nodes), str(data["seed"]),
            *([str(trace_dir)] if trace_dir is not None else []))
        marks = [now_ns()]
        child = subprocess.Popen(command, env=env, cwd=ROOT, stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE, text=True)
        try:
            ready = child.stdout.readline().split()
            if ready[:1] != ["ready"]:
                raise RuntimeError(f"server child did not start: {ready!r}")
            marks += [int(mark) for mark in ready[2:]] + [now_ns()]
            asyncio.run(_client(int(ready[1]), child, segment, run, marks,
                                queries, routes, oracle, data["probe"]))
        finally:
            if child.poll() is None:
                child.stdin.write("stop\n")
                child.stdin.flush()
            child.communicate(timeout=60)

    return measure_segments(split(len(queries), sizes.setups), run_segment, traced)


def _stats(child) -> dict:
    child.stdin.write("stats\n")
    child.stdin.flush()
    return json.loads(child.stdout.readline())


async def _client(port, child, segment, run: Measured, marks, queries, routes, oracle,
                  probe: int):
    connections = [await asyncio.open_connection("127.0.0.1", port)
                   for _ in range(CONNECTIONS)]
    status, body = await exchange(*connections[0], request_bytes(0, probe, True))
    marks.append(now_ns())
    run.record_setup({name: (marks[i + 1] - marks[i]) / 1e9 for i, name in enumerate(
        ("interpreter", "imports", "build", "listen", "first_query"))})
    run.phases["setup"].add(status == 200 and body == oracle[probe, 1])
    first = segment[0]

    ops = run.extra.setdefault("ops", [])
    lags = run.extra.setdefault("lags", [])
    before = _stats(child)
    reset_peak_rss(child.pid)
    run.noise.begin([child.pid, os.getpid()])
    answers = []
    cursor = iter(segment)
    base_rid = len(ops)

    async def connection(reader, writer):
        last = None
        for i in cursor:
            payload = request_bytes(base_rid + i - first + 1, queries[i], bool(routes[i]))
            start = now_ns()
            if last is not None:
                lags.append((start - last) / 1e6)
            status, body = await exchange(reader, writer, payload)
            last = now_ns()
            answers.append((i, status, body, start, last))

    window_start = now_ns()
    await asyncio.gather(*(connection(*pair) for pair in connections))
    window_end = now_ns()
    run.noise.end()
    run.peaks_mb.append(peak_rss_mb(child.pid))
    after = _stats(child)
    for reader, writer in connections:
        writer.close()
    run.windows.append((window_start, window_end))
    run.busy_s += (window_end - window_start) / 1e9
    run.queries += len(answers)
    for key in ("requests", "batches", "batched_queries", "dedup_saved"):
        run.extra[key] = run.extra.get(key, 0) + after[key] - before[key]

    for i, status, body, start, end in sorted(answers):
        ok = status == 200
        run.phases["measure"].add(ok)
        run.record("query", (end - start) / 1e6)
        ops.append(tracing.Op(base_rid + i - first + 1, "query", start, end,
                              query=queries[i]))
        if ok:
            run.check(body == oracle[queries[i], routes[i]],
                      f"HTTP body for query {queries[i]} route {routes[i]} != oracle")


def per_layer_metrics(base: Measured, traced: Measured) -> dict:
    spans, events = tracing.load(sorted(traced.extra["trace_dir"].glob("trace-*.json")))
    batches = max(traced.extra["batches"], 1)
    distinct = traced.extra["batched_queries"] - traced.extra["dedup_saved"]
    traced.extra["server_layers"] = {
        "server.coalesce.batch_size": distinct / batches,
        "server.coalesce.dedup_ratio": traced.extra["dedup_saved"]
        / max(traced.extra["batched_queries"], 1),
        "client.lag_ms": float(np.mean(traced.extra["lags"])) if traced.extra["lags"] else 0.0,
    }
    return layers.per_layer(base, traced, spans, events)
