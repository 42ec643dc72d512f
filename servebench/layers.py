"""Per-layer metrics of the traced run, from spans and counters."""

from __future__ import annotations

from servebench import tracing
from servebench.stats import median

#: per-layer metrics of the traced run, with units; every workload prints
#: each of them (0 where the layer does no work on that workload)
PER_LAYER = {
    "core.walks.ms": "ms", "core.trie.ms": "ms", "core.sweep.ms": "ms",
    "core.context.ms": "ms", "api.query.ms": "ms", "server.frontdoor.ms": "ms",
    "server.coalesce.wait_ms": "ms", "server.serialize.ms": "ms", "parallel.rpc.ms": "ms",
    "query.unattributed_ms": "ms", "query.traced_ms": "ms", "query.untraced_ms": "ms",
    "query.closure_gap_pct": "%",
    "graph.csr_build.ms": "ms", "parallel.publish.ms": "ms", "storage.checkpoint.ms": "ms",
    "parallel.sync.ms": "ms", "api.update.ms": "ms", "update.unattributed_ms": "ms",
    "update.traced_ms": "ms", "update.untraced_ms": "ms", "update.closure_gap_pct": "%",
    "core.walks.count": "count", "core.trie.nodes": "count",
    "core.sweep.dense_levels": "count", "core.sweep.sparse_levels": "count",
    "core.context.builds": "count", "core.context.ms_per_build": "ms",
    "graph.csr_build.count": "count", "parallel.publish.count": "count",
    "storage.checkpoint.count": "count", "storage.wal.appends": "count",
    "storage.bytes_written_per_update": "bytes",
    "server.coalesce.batch_size": "count", "server.coalesce.dedup_ratio": "ratio",
    "client.lag_ms": "ms", "trace.overhead_pct": "%",
}


def _metric_name(layer: str, prefix: str) -> str:
    if layer == "server.coalesce.wait":
        return "server.coalesce.wait_ms"
    if layer == f"{prefix}.unattributed":
        return f"{prefix}.unattributed_ms"
    return layer + ".ms"


def per_layer(base, traced, spans, events, window_pids=frozenset()) -> dict:
    """Per-layer metrics of the traced pass ``traced``, against the untraced ``base``.

    ``spans`` and ``events`` come from every process of the traced pass;
    only those inside its measured windows count.  Spans of the processes
    in ``window_pids`` join operations by time (see :func:`tracing.attach`).
    """
    ops = traced.extra["ops"]
    measured = tracing.spans_within(spans, traced.windows)
    tracing.attach(ops, measured, window_pids)
    counts, by_query = tracing.events_within(events, traced.windows)
    values = dict.fromkeys(PER_LAYER, 0.0)
    for kind in ("query", "update"):
        chosen = [op for op in ops if op.kind == kind]
        if not chosen:
            continue
        parts, mean = tracing.breakdown(chosen, f"{kind}.unattributed")
        for layer, ms in parts.items():
            values[_metric_name(layer, kind)] += ms
        untraced = median(base.latency_ms[kind])
        values[f"{kind}.traced_ms"] = mean
        values[f"{kind}.untraced_ms"] = untraced
        values[f"{kind}.closure_gap_pct"] = 100.0 * abs(mean - untraced) / untraced
    work = ("core.walks.count", "core.trie.nodes",
            "core.sweep.dense_levels", "core.sweep.sparse_levels")
    requested = [op.query for op in ops
                 if op.query is not None and by_query[op.query]["core.queries"]]
    if requested:
        # coalescing shares one engine run among concurrent requests for a
        # query, as timing decides; a query's work on a fixed graph does
        # not vary, so average it over the requests to repeat exactly
        for name in work:
            values[name] = sum(by_query[q][name] / by_query[q]["core.queries"]
                               for q in requested) / len(requested)
    else:
        engine_queries = max(counts.get("core.queries", 0.0), 1.0)
        for name in work:
            values[name] = counts.get(name, 0.0) / engine_queries
    for layer in ("graph.csr_build", "parallel.publish", "storage.checkpoint"):
        values[f"{layer}.count"] = float(sum(1 for span in measured if span.name == layer))
    values["core.context.builds"] = counts.get("core.context.builds", 0.0)
    if values["core.context.builds"]:
        context_ns = sum(span.duration for span in measured if span.name == "core.context")
        values["core.context.ms_per_build"] = context_ns / 1e6 / values["core.context.builds"]
    values["storage.wal.appends"] = counts.get("storage.wal.appends", 0.0)
    updates = len(traced.latency_ms.get("update", []))
    if updates:
        written = counts.get("storage.bytes_written", 0.0)
        values["storage.bytes_written_per_update"] = written / updates
    values.update(traced.extra.get("server_layers", {}))
    values["trace.overhead_pct"] = 100.0 * (base.qps / traced.qps - 1.0)
    return values
