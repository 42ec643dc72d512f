"""Command-line interface: SimRank queries and dataset tooling from a shell.

Subcommands
-----------
``single-source``
    Run an approximate single-source query on an edge-list graph and print
    the highest-scoring nodes.
``topk``
    Run an approximate top-k query.
``methods``
    List every registered query method with its capabilities (``--markdown``
    emits the README's auto-generated table).
``workload``
    Generate a mixed query/update trace and replay it against one or more
    methods, printing latency percentiles / QPS / maintenance cost
    (optionally persisting the full JSON report with ``--json``).
``serve``
    Start the asyncio HTTP front door (:mod:`repro.server`) over a graph:
    JSON query endpoints with request coalescing, admission control, and a
    Prometheus ``/metrics`` exposition.
``loadgen``
    Replay a generated workload trace against a running ``serve`` instance
    open-loop at a target arrival rate and print p50/p95/p99/QPS/shed-rate.
``ingest``
    Stream a SNAP edge list into a persistent CSR snapshot file out of
    core (bounded memory), bit-identical to the in-memory load path.
``recover``
    Inspect a persistent store directory: newest valid generation, WAL
    tail length, torn bytes, and the recovered graph's digest.
``stats``
    Print Table 3-style statistics for an edge-list graph.
``dataset``
    Generate a named stand-in dataset and write it as an edge list.
``analyze``
    Run the static invariant analyzers (:mod:`repro.analysis`) over the
    source tree: determinism, lock discipline, resource lifecycle, API
    contract, and no-bare-thread rules, with a committed baseline for
    deliberate exemptions (exit 0 clean, 1 findings, 2 bad usage).

Every query method is resolved through :mod:`repro.api.registry` — the CLI
holds no per-method construction code, so newly registered methods appear in
``--method`` automatically.

Examples
--------
::

    python -m repro dataset --name wiki-vote --scale tiny --out /tmp/wv.txt
    python -m repro stats /tmp/wv.txt
    python -m repro methods
    python -m repro topk /tmp/wv.txt --query 5 --k 10 --eps-a 0.1 --seed 7
    python -m repro single-source /tmp/wv.txt --query 5 --method mc --num-walks 500
    python -m repro workload /tmp/wv.txt --methods probesim-native,tsf \\
        --ops 400 --read-fraction 0.9 --workers 2 --seed 7 --json /tmp/wl.json
    python -m repro workload /tmp/wv.txt --methods tsf --read-fraction 0.5 \\
        --executor process --maintenance delta --cache-size 512 --seed 7
    python -m repro serve --dataset wiki-vote --scale tiny --port 8080 \\
        --methods probesim-native --seed 7
    python -m repro loadgen --dataset wiki-vote --scale tiny --port 8080 \\
        --rate 200 --ops 400 --seed 3
    python -m repro ingest /tmp/wv.txt --out /tmp/wv.csr
    python -m repro workload --snapshot /tmp/wv.csr --methods probesim-native \\
        --read-fraction 1 --executor process --workers 2 --seed 7
    python -m repro serve --snapshot /tmp/wv.csr --port 8080 --workers 2
    python -m repro recover /tmp/wv-store
"""

from __future__ import annotations

import argparse
import sys

from repro.api.registry import capability_rows, create, get_entry, method_names
from repro.core.config import ENGINES, STRATEGIES
from repro.datasets import DATASETS, load_dataset
from repro.errors import ConfigurationError, ReproError
from repro.eval.reporting import format_table, markdown_table, write_json_report
from repro.graph import compute_stats, read_edge_list, write_edge_list
from repro.storage.ingest import DEFAULT_CHUNK_EDGES

METHODS = tuple(method_names())


def _method_config(args) -> dict:
    """Distill the CLI's option superset down to the selected method's knobs.

    Options left at ``None`` are dropped so each method keeps its own
    defaults; everything else is filtered against the registry entry's
    declared ``config_keys``.
    """
    values = {
        "c": args.c,
        "eps_a": args.eps_a,
        "delta": args.delta,
        "strategy": args.strategy,
        "engine": args.engine,
        "seed": args.seed,
        "num_walks": args.num_walks,
        "depth": args.depth,
        "rg": args.rg,
        "rq": args.rq,
        "theta": args.theta,
        "d_mode": args.d_mode,
        "d_samples": args.d_samples,
    }
    entry = get_entry(args.method)
    return {
        key: value
        for key, value in values.items()
        if key in entry.config_keys and value is not None
    }


def _build_method(args, graph):
    """Instantiate the requested query method through the registry."""
    return create(args.method, graph, **_method_config(args))


def _add_query_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help="edge-list file (SNAP format, .gz ok)")
    parser.add_argument("--query", type=int, required=True, help="query node id")
    parser.add_argument("--method", choices=METHODS, default="probesim")
    parser.add_argument("--c", type=float, default=0.6, help="decay factor")
    parser.add_argument("--eps-a", type=float, default=0.1, dest="eps_a")
    parser.add_argument("--delta", type=float, default=0.01)
    parser.add_argument("--strategy", default=None, choices=STRATEGIES,
                        help="probesim strategy (default: the engine's hybrid)")
    parser.add_argument("--engine", default=None, choices=ENGINES,
                        help="probesim probe execution: per-prefix 'loop', "
                             "or the compiled 'native' kernels (numba when "
                             "installed, numpy fallback otherwise; "
                             "bit-reproducible per seed+query) "
                             "(default auto: native for --strategy batch)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--num-walks", type=int, default=None, dest="num_walks",
                        help="override the theoretical walk count (probesim/mc)")
    parser.add_argument("--depth", type=int, default=None,
                        help="walk depth (TopSim T / TSF query depth)")
    parser.add_argument("--rg", type=int, default=100, help="TSF one-way graphs")
    parser.add_argument("--rq", type=int, default=10, help="TSF reuse count")
    parser.add_argument("--theta", type=float, default=1e-3, help="SLING threshold")
    parser.add_argument("--d-mode", default="monte_carlo", dest="d_mode",
                        choices=("exact", "monte_carlo"),
                        help="SLING diagonal-correction estimator")
    parser.add_argument("--d-samples", type=int, default=1000, dest="d_samples",
                        help="SLING monte_carlo d-estimation samples")


def _cmd_single_source(args) -> int:
    graph = read_edge_list(args.graph)
    method = _build_method(args, graph)
    result = method.single_source(args.query)
    top = result.topk(args.limit)
    rows = [
        {"node": node, "estimate": score} for node, score in top.as_pairs()
    ]
    print(format_table(
        rows,
        title=(f"{args.method}: top {args.limit} of single-source from "
               f"node {args.query} ({result.elapsed:.3f}s)"),
    ))
    return 0


def _cmd_topk(args) -> int:
    graph = read_edge_list(args.graph)
    method = _build_method(args, graph)
    top = method.topk(args.query, args.k)
    rows = [
        {"rank": rank, "node": node, "estimate": score}
        for rank, (node, score) in enumerate(top.as_pairs(), start=1)
    ]
    print(format_table(rows, title=f"{args.method}: top-{args.k} for node {args.query}"))
    return 0


#: capability columns of the methods table, in render order; the single
#: source for the terminal table, the README markdown table, and the
#: ``methods --json`` dump (which adds nothing but types and runtime info).
METHOD_CAPABILITY_COLUMNS = (
    "exact", "index", "dynamic", "incremental", "vectorized", "parallel",
    "native",
)


def methods_rows() -> list[dict[str, object]]:
    """Registry-derived raw rows (bools intact) of the methods table.

    One row per registered method: name, the capability flags of
    ``METHOD_CAPABILITY_COLUMNS``, the accepted config keys, and the
    summary.  Every rendering of the methods table — ``repro methods``,
    ``repro methods --markdown`` (and through it the README), and
    ``repro methods --json`` — derives from these rows, so they cannot
    drift from each other or from the registry.
    """
    rows = []
    for row in capability_rows():
        name = str(row["name"])
        rendered: dict[str, object] = {"method": name}
        for column in METHOD_CAPABILITY_COLUMNS:
            rendered[column] = bool(row[column])
        rendered["config_keys"] = sorted(get_entry(name).config_keys)
        rendered["summary"] = str(row["summary"])
        rows.append(rendered)
    return rows


def methods_table_rows(markdown: bool = False) -> list[dict[str, str]]:
    """The methods table as strings (CLI table + README generator).

    The ``markdown`` variant additionally carries the accepted config keys
    and wraps identifiers in backticks — that is the exact row set the
    README sync tool (``tools/update_readme_methods.py``) and its guard
    test embed, so the README can never drift from the registry.  The
    plain variant stays terminal-width-friendly for ``repro methods``.
    """
    rows = []
    for raw in methods_rows():
        name = str(raw["method"])
        rendered = {"method": f"`{name}`" if markdown else name}
        for column in METHOD_CAPABILITY_COLUMNS:
            rendered[column] = "yes" if raw[column] else "no"
        if markdown:
            rendered["config keys"] = ", ".join(
                f"`{key}`" for key in raw["config_keys"]
            )
        rendered["summary"] = str(raw["summary"])
        rows.append(rendered)
    return rows


def methods_json_payload() -> dict[str, object]:
    """The ``methods --json`` document: raw rows plus runtime engine info.

    The rows are :func:`methods_rows` verbatim (the same source as both
    table renderings).  ``native_backend`` reports which native backend
    this environment selected (``"numba"``/``"numpy"``) — runtime
    information that the environment-independent ``native`` column
    deliberately excludes.
    """
    from repro.core.native import native_backend

    return {"methods": methods_rows(), "native_backend": native_backend()}


def _cmd_methods(args) -> int:
    if getattr(args, "json", False):
        import json

        print(json.dumps(methods_json_payload(), indent=2))
    elif getattr(args, "markdown", False):
        print(markdown_table(methods_table_rows(markdown=True)))
    else:
        print(format_table(methods_table_rows(), title="registered SimRank methods"))
    return 0


def _cmd_workload(args) -> int:
    from repro.workloads import generate_workload, run_workload

    snapshot_handle = None
    if args.snapshot is not None:
        if args.graph is not None:
            raise ConfigurationError(
                "give a graph path or --snapshot, not both"
            )
        if args.shards:
            raise ConfigurationError(
                "--snapshot replay on the CLI is unsharded; the sharded "
                "snapshot path is exercised through the python API"
            )
        if args.read_fraction < 1.0:
            raise ConfigurationError(
                "--snapshot serves read-only: use --read-fraction 1"
            )
        from repro.storage import attach_snapshot

        # the trace is drawn over the mmap-attached CSR itself — the graph
        # is never materialised in memory
        snapshot_handle = attach_snapshot(args.snapshot)
        trace_graph = snapshot_handle.graph()
    elif args.graph is None:
        raise ConfigurationError("workload needs a graph path or --snapshot")
    else:
        trace_graph = read_edge_list(args.graph)
    graph = None if args.snapshot is not None else trace_graph
    methods = [name.strip() for name in args.methods.split(",") if name.strip()]
    trace = generate_workload(
        trace_graph,
        num_ops=args.ops,
        read_fraction=args.read_fraction,
        zipf_s=args.zipf,
        insert_fraction=args.insert_fraction,
        max_query_batch=args.query_batch,
        max_update_batch=args.update_batch,
        seed=args.seed,
    )
    configs = {}
    shared = {
        "c": args.c, "eps_a": args.eps_a, "delta": args.delta, "seed": args.seed,
        "num_walks": args.num_walks, "depth": args.depth, "rg": args.rg,
        "rq": args.rq, "theta": args.theta,
    }
    for name in methods:
        keys = get_entry(name).config_keys
        configs[name] = {
            key: value for key, value in shared.items()
            if key in keys and value is not None
        }
    try:
        result = run_workload(
            graph, trace, methods, configs=configs,
            workers=args.workers, sync_every=args.sync_every,
            executor=args.executor, cache_size=args.cache_size,
            maintenance=args.maintenance,
            shards=args.shards, partition=args.partition,
            snapshot=args.snapshot,
        )
    finally:
        if snapshot_handle is not None:
            del trace_graph
            try:
                snapshot_handle.close()
            except BufferError:  # trace still views the arrays; mmap dies with it
                pass
    sharding = (
        f", shards={args.shards} ({args.partition})" if args.shards else ""
    )
    print(format_table(
        result.rows(),
        title=(f"workload: {trace.num_queries} queries / {trace.num_updates} "
               f"updates, read_fraction={args.read_fraction}, "
               f"workers={args.workers}, executor={args.executor}, "
               f"maintenance={args.maintenance}{sharding}"),
    ))
    if args.json:
        path = write_json_report(args.json, result.to_dict())
        print(f"wrote JSON report to {path}")
    return 0


def _serve_graph(args):
    """Resolve the served graph: an edge-list path or a generated dataset."""
    if args.graph is not None and args.dataset is not None:
        raise ConfigurationError("give either a graph path or --dataset, not both")
    if args.graph is not None:
        return read_edge_list(args.graph)
    if args.dataset is not None:
        return load_dataset(args.dataset, scale=args.scale)
    raise ConfigurationError("serve/loadgen need a graph path or --dataset")


def _serve_method_configs(args, methods: list[str]) -> dict[str, dict]:
    """Per-method config dicts from the serve option set."""
    shared = {
        "c": args.c, "eps_a": args.eps_a, "delta": args.delta,
        "seed": args.seed, "num_walks": args.num_walks,
    }
    configs = {}
    for name in methods:
        keys = get_entry(name).config_keys
        configs[name] = {
            key: value for key, value in shared.items()
            if key in keys and value is not None
        }
    return configs


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.api.service import SimRankService
    from repro.parallel.pool import ParallelSimRankService
    from repro.parallel.sharded import ShardedSimRankService
    from repro.server import ServerConfig, SimRankHTTPApp

    persistent = args.snapshot is not None or args.store is not None
    if args.snapshot is not None and args.store is not None:
        raise ConfigurationError("give --snapshot or --store, not both")
    if persistent and (args.graph is not None or args.dataset is not None):
        raise ConfigurationError(
            "--snapshot/--store replace the graph source; drop the graph "
            "path and --dataset"
        )
    graph = None if persistent else _serve_graph(args)
    store = None
    if args.store is not None:
        from repro.storage import PersistentGraphStore

        store = PersistentGraphStore.open(args.store)
    methods = [name.strip() for name in args.methods.split(",") if name.strip()]
    configs = _serve_method_configs(args, methods)
    if args.shards > 0:
        if store is not None:
            raise ConfigurationError(
                "--store serving is unsharded; drop --shards"
            )
        service = ShardedSimRankService(
            graph, methods=tuple(methods), configs=configs,
            shards=args.shards, partition=args.partition,
            workers=max(args.workers, 1), cache_size=args.cache_size,
            snapshot=args.snapshot,
        )
    elif args.workers > 0 or persistent:
        # persistent sources always serve through the parallel service —
        # with workers=0 its in-process sequential oracle stands in for
        # the plain SimRankService
        service = ParallelSimRankService(
            graph, methods=tuple(methods), configs=configs,
            workers=max(args.workers, 1), cache_size=args.cache_size,
            executor="process" if args.workers > 0 else "sequential",
            snapshot=args.snapshot, store=store,
        )
    else:
        service = SimRankService(graph, methods=tuple(methods), configs=configs)
    app = SimRankHTTPApp(service, ServerConfig(
        host=args.host,
        port=args.port,
        coalesce=not args.no_coalesce,
        coalesce_window=args.coalesce_window,
        coalesce_max_batch=args.coalesce_max_batch,
        admission_capacity=args.admission_capacity,
        retry_after=args.retry_after,
        deadline_s=args.deadline,
        scores_limit=args.scores_limit,
    ))

    async def run() -> None:
        await app.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-posix loops
                pass
        sharding = (
            f"shards={args.shards} ({args.partition}), " if args.shards > 0
            else ""
        )
        print(
            f"serving {methods} on http://{args.host}:{app.port} "
            f"({sharding}workers={args.workers}, "
            f"coalesce={not args.no_coalesce}); ctrl-c to stop",
            flush=True,
        )
        try:
            await stop.wait()
        finally:
            await app.aclose()
            print("server closed", flush=True)

    try:
        asyncio.run(run())
    finally:
        if store is not None:
            store.close()
    return 0


def _cmd_loadgen(args) -> int:
    import asyncio

    from repro.server.loadgen import requests_from_trace, run_load
    from repro.workloads import generate_workload

    graph = _serve_graph(args)
    ops = min(args.ops, 30) if args.smoke else args.ops
    rate = min(args.rate, 100.0) if args.smoke else args.rate
    trace = generate_workload(
        graph, num_ops=ops, read_fraction=1.0, zipf_s=args.zipf, seed=args.seed,
    )
    requests = requests_from_trace(
        trace, kind=args.kind, k=args.k, limit=args.limit,
        method=args.target_method,
    )
    report = asyncio.run(run_load(
        args.host, args.port, requests, rate, timeout=args.timeout,
    ))
    print(format_table(
        [report.as_row()],
        title=(f"loadgen: {len(requests)} {args.kind} requests at "
               f"{rate:g}/s against {args.host}:{args.port} "
               f"(trace {trace.signature()[:12]})"),
    ))
    if args.json:
        path = write_json_report(args.json, report.to_dict())
        print(f"wrote JSON report to {path}")
    return 0 if report.errors == 0 else 1


def _cmd_ingest(args) -> int:
    from repro.storage import ingest_edge_list

    stats = ingest_edge_list(
        args.graph, args.out,
        chunk_edges=args.chunk_edges,
        relabel=not args.no_relabel,
        deduplicate=not args.keep_duplicates,
    )
    row = {
        "nodes": stats.nodes,
        "edges": stats.edges,
        "lines": stats.lines,
        "duplicates": stats.duplicates,
        "self_loops": stats.self_loops,
        "spill_mb": stats.spill_bytes / 1e6,
        "digest": stats.digest[:16],
    }
    print(format_table([row], title=f"ingest: {args.graph} -> {stats.path}"))
    return 0


def _cmd_recover(args) -> int:
    from repro.storage import recover

    with recover(args.store, verify=not args.no_verify) as state:
        row = {
            "generation": state.generation,
            "nodes": state.snapshot.header.num_nodes,
            "edges": state.snapshot.header.num_edges,
            "wal_tail": len(state.tail),
            "torn_bytes": state.torn_bytes,
            "digest": state.digest(),
        }
    print(format_table([row], title=f"recover: {args.store}"))
    return 0


def _cmd_stats(args) -> int:
    graph = read_edge_list(args.graph)
    stats = compute_stats(graph)
    print(format_table([stats.as_row()], title=f"stats: {args.graph}"))
    return 0


def _cmd_dataset(args) -> int:
    graph = load_dataset(args.name, scale=args.scale)
    write_edge_list(graph, args.out, header=f"stand-in dataset {args.name} ({args.scale})")
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    from pathlib import Path

    from repro.analysis.baseline import Baseline
    from repro.analysis.report import render_json, render_text
    from repro.analysis.runner import analyze, default_baseline_path, default_target

    root = Path.cwd()
    paths = [Path(p) for p in args.paths] if args.paths else [default_target()]
    if args.no_baseline:
        baseline = None
    elif args.baseline is not None:
        baseline = Baseline.load(Path(args.baseline))
    else:
        discovered = default_baseline_path(root)
        baseline = Baseline.load(discovered) if discovered.exists() else None
    report = analyze(paths, root=root, baseline=baseline)
    if args.json:
        print(render_json(report, strict=args.strict))
    else:
        print(render_text(report, strict=args.strict))
    return 0 if report.is_clean(strict=args.strict) else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ProbeSim reproduction: SimRank queries on edge-list graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    single = sub.add_parser("single-source", help="approximate single-source query")
    _add_query_options(single)
    single.add_argument("--limit", type=int, default=10,
                        help="how many of the best-scoring nodes to print")
    single.set_defaults(func=_cmd_single_source)

    topk = sub.add_parser("topk", help="approximate top-k query")
    _add_query_options(topk)
    topk.add_argument("--k", type=int, default=10)
    topk.set_defaults(func=_cmd_topk)

    methods = sub.add_parser("methods", help="list registered methods + capabilities")
    methods.add_argument("--markdown", action="store_true",
                         help="emit the table as GitHub markdown (README format)")
    methods.add_argument("--json", action="store_true",
                         help="emit the registry as JSON (raw capability "
                              "flags, config keys, and the runtime "
                              "native_backend selection)")
    methods.set_defaults(func=_cmd_methods)

    workload = sub.add_parser(
        "workload",
        help="replay a mixed query/update workload and report latency/QPS",
    )
    workload.add_argument("graph", nargs="?", default=None,
                          help="edge-list file (SNAP format, .gz ok); or use "
                               "--snapshot")
    workload.add_argument("--snapshot", default=None,
                          help="replay against an mmap-attached persistent "
                               "snapshot (`repro ingest` output) instead of "
                               "loading a graph file; read-only, so the "
                               "trace must be update-free "
                               "(--read-fraction 1) and the executor "
                               "process or sequential")
    workload.add_argument("--methods", default="probesim-native",
                          help="comma-separated registry names to compare")
    workload.add_argument("--ops", type=int, default=400,
                          help="total operations (queries + updates) in the trace")
    workload.add_argument("--read-fraction", type=float, default=0.9,
                          dest="read_fraction",
                          help="op-level probability an operation is a query")
    workload.add_argument("--zipf", type=float, default=1.0,
                          help="query-key Zipf skew exponent (0 = uniform)")
    workload.add_argument("--insert-fraction", type=float, default=0.5,
                          dest="insert_fraction",
                          help="probability an edge update is an insertion")
    workload.add_argument("--query-batch", type=int, default=8, dest="query_batch",
                          help="max query arrival-batch size")
    workload.add_argument("--update-batch", type=int, default=4, dest="update_batch",
                          help="max update arrival-batch size")
    workload.add_argument("--workers", type=int, default=1,
                          help="query-side pool width (one replica each; "
                               "per shard with --shards)")
    workload.add_argument("--executor", default="thread",
                          choices=("thread", "process", "sequential"),
                          help="replica pool: GIL-bound threads, worker "
                               "processes over a shared-memory graph, or the "
                               "process service's in-process oracle")
    workload.add_argument("--shards", type=int, default=None,
                          help="replay on the sharded router with this many "
                               "shards (process/sequential executor only)")
    workload.add_argument("--partition", default="hash",
                          choices=("hash", "degree"),
                          help="node-to-shard assignment strategy (with "
                               "--shards)")
    workload.add_argument("--maintenance", default="auto",
                          choices=("auto", "delta", "rebuild"),
                          help="process-executor update path: in-place delta "
                               "propagation (O(delta) per burst, needs an "
                               "incremental-capable method), full epoch "
                               "rebuild (O(m)), or auto (delta when the "
                               "method supports it)")
    workload.add_argument("--cache-size", type=int, default=0, dest="cache_size",
                          help="update-aware single-source result cache "
                               "capacity (0 disables)")
    workload.add_argument("--sync-every", type=int, default=1, dest="sync_every",
                          help="sync bulk estimators every N update batches")
    workload.add_argument("--seed", type=int, default=None,
                          help="trace + estimator seed (fixed seed => "
                               "bit-reproducible results)")
    workload.add_argument("--json", default=None,
                          help="also write the full JSON report to this path")
    workload.add_argument("--c", type=float, default=None, help="decay factor")
    workload.add_argument("--eps-a", type=float, default=None, dest="eps_a")
    workload.add_argument("--delta", type=float, default=None)
    workload.add_argument("--num-walks", type=int, default=None, dest="num_walks")
    workload.add_argument("--depth", type=int, default=None)
    workload.add_argument("--rg", type=int, default=None, help="TSF one-way graphs")
    workload.add_argument("--rq", type=int, default=None, help="TSF reuse count")
    workload.add_argument("--theta", type=float, default=None, help="SLING threshold")
    workload.set_defaults(func=_cmd_workload)

    def _add_graph_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("graph", nargs="?", default=None,
                       help="edge-list file (SNAP format, .gz ok); or use --dataset")
        p.add_argument("--dataset", default=None, choices=sorted(DATASETS),
                       help="serve a generated stand-in dataset instead of a file")
        p.add_argument("--scale", default="tiny", choices=("tiny", "small", "paper"),
                       help="stand-in dataset scale (with --dataset)")

    serve = sub.add_parser(
        "serve",
        help="serve SimRank queries over HTTP (coalescing + admission control)",
    )
    _add_graph_source(serve)
    serve.add_argument("--snapshot", default=None,
                       help="serve read-only from a persistent snapshot: a "
                            "`repro ingest` .csr file, or (with --shards) a "
                            "write_shard_snapshots directory; workers mmap "
                            "the file instead of rebuilding the graph")
    serve.add_argument("--store", default=None,
                       help="serve durably from a persistent store "
                            "directory: recovers snapshot + WAL tail on "
                            "start, write-ahead-logs every accepted update "
                            "burst, checkpoints on compaction")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (0 = OS-assigned)")
    serve.add_argument("--methods", default="probesim-native",
                       help="comma-separated registry names to mount")
    serve.add_argument("--workers", type=int, default=0,
                       help="worker processes (0 = in-process sequential "
                            "service; per shard with --shards)")
    serve.add_argument("--shards", type=int, default=0,
                       help="serve through the sharded router with this many "
                            "per-shard worker groups (0 = unsharded)")
    serve.add_argument("--partition", default="hash",
                       choices=("hash", "degree"),
                       help="node-to-shard assignment strategy (with --shards)")
    serve.add_argument("--cache-size", type=int, default=0, dest="cache_size",
                       help="update-aware result cache capacity "
                            "(workers > 0 only; per shard with --shards; "
                            "0 disables)")
    serve.add_argument("--no-coalesce", action="store_true", dest="no_coalesce",
                       help="dispatch each request individually (micro-batching off)")
    serve.add_argument("--coalesce-window", type=float, default=0.002,
                       dest="coalesce_window",
                       help="micro-batch collection window in seconds")
    serve.add_argument("--coalesce-max-batch", type=int, default=64,
                       dest="coalesce_max_batch",
                       help="distinct queries per micro-batch before early dispatch")
    serve.add_argument("--admission-capacity", type=int, default=None,
                       dest="admission_capacity",
                       help="per-lane in-flight bound before 503 shedding")
    serve.add_argument("--retry-after", type=float, default=1.0, dest="retry_after",
                       help="Retry-After seconds advertised on 503")
    serve.add_argument("--deadline", type=float, default=30.0,
                       help="per-request deadline seconds (504 on expiry)")
    serve.add_argument("--scores-limit", type=int, default=10, dest="scores_limit",
                       help="score pairs per single-source response body")
    serve.add_argument("--c", type=float, default=None, help="decay factor")
    serve.add_argument("--eps-a", type=float, default=None, dest="eps_a")
    serve.add_argument("--delta", type=float, default=None)
    serve.add_argument("--seed", type=int, default=None,
                       help="engine seed; with one, native answers are "
                            "bit-identical however requests are coalesced")
    serve.add_argument("--num-walks", type=int, default=None, dest="num_walks")
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="open-loop load generation against a running `repro serve`",
    )
    _add_graph_source(loadgen)
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8080)
    loadgen.add_argument("--rate", type=float, default=100.0,
                         help="offered arrival rate, requests/second")
    loadgen.add_argument("--ops", type=int, default=200,
                         help="requests in the replayed trace")
    loadgen.add_argument("--zipf", type=float, default=1.0,
                         help="query-key Zipf skew exponent (0 = uniform)")
    loadgen.add_argument("--seed", type=int, default=None, help="trace seed")
    loadgen.add_argument("--kind", default="single_source",
                         choices=("single_source", "topk"))
    loadgen.add_argument("--k", type=int, default=None, help="top-k size (topk kind)")
    loadgen.add_argument("--limit", type=int, default=None,
                         help="score pairs per single-source response")
    loadgen.add_argument("--method", default=None, dest="target_method",
                         help="served method name to request (default: "
                              "the server's default)")
    loadgen.add_argument("--timeout", type=float, default=30.0,
                         help="per-request socket budget in seconds")
    loadgen.add_argument("--smoke", action="store_true",
                         help="tiny CI run: caps ops at 30 and rate at 100/s")
    loadgen.add_argument("--json", default=None,
                         help="also write the JSON report to this path")
    loadgen.set_defaults(func=_cmd_loadgen)

    ingest = sub.add_parser(
        "ingest",
        help="stream an edge list into a persistent CSR snapshot (out of core)",
    )
    ingest.add_argument("graph", help="edge-list file (SNAP format, .gz ok)")
    ingest.add_argument("--out", required=True,
                        help="output snapshot path (conventionally .csr)")
    ingest.add_argument("--chunk-edges", type=int, dest="chunk_edges",
                        default=DEFAULT_CHUNK_EDGES,
                        help="spill-buffer size in edges — the memory bound "
                             "knob (any positive value gives identical output)")
    ingest.add_argument("--no-relabel", action="store_true", dest="no_relabel",
                        help="node ids are already dense 0..n-1; use verbatim")
    ingest.add_argument("--keep-duplicates", action="store_true",
                        dest="keep_duplicates",
                        help="fail on duplicate edges instead of dropping them")
    ingest.set_defaults(func=_cmd_ingest)

    recover = sub.add_parser(
        "recover",
        help="inspect a store directory: newest valid generation + WAL tail",
    )
    recover.add_argument("store", help="persistent store directory")
    recover.add_argument("--no-verify", action="store_true", dest="no_verify",
                         help="skip the snapshot payload digest check")
    recover.set_defaults(func=_cmd_recover)

    stats = sub.add_parser("stats", help="print graph statistics")
    stats.add_argument("graph", help="edge-list file")
    stats.set_defaults(func=_cmd_stats)

    dataset = sub.add_parser("dataset", help="generate a stand-in dataset")
    dataset.add_argument("--name", required=True, choices=sorted(DATASETS))
    dataset.add_argument("--scale", default="tiny", choices=("tiny", "small", "paper"))
    dataset.add_argument("--out", required=True, help="output edge-list path")
    dataset.set_defaults(func=_cmd_dataset)

    analyze = sub.add_parser(
        "analyze",
        help="run the invariant analyzers (determinism, lock discipline, "
             "resource lifecycle, API contract, no-bare-thread)",
        description="Static invariant analysis over the source tree. "
                    "Exit codes: 0 clean (modulo baseline), 1 findings "
                    "(or stale baseline entries under --strict), 2 bad "
                    "usage/configuration.",
    )
    analyze.add_argument(
        "paths", nargs="*",
        help="files or directories to scan (default: the installed repro package)",
    )
    analyze.add_argument("--json", action="store_true",
                         help="machine-readable report on stdout")
    analyze.add_argument("--baseline", default=None,
                         help="baseline suppression file "
                              "(default: ./.analysis-baseline.json when present)")
    analyze.add_argument("--no-baseline", action="store_true", dest="no_baseline",
                         help="ignore any baseline file: report every finding")
    analyze.add_argument("--strict", action="store_true",
                         help="also fail on stale baseline entries that no "
                              "longer match any finding")
    analyze.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
