"""HTTP server child of the ``http_reads`` workload.

Runs the default ``repro serve`` deployment — :class:`SimRankHTTPApp`
with coalescing on, over an in-process :class:`SimRankService` serving
``probesim-native`` — on a graph the parent wrote as a ``.npy`` edge
array.  Prints ``ready <port> <main> <imported> <built>`` once it
listens (the last three are ``CLOCK_MONOTONIC`` ns at which ``main``
began, the program was imported and the service was built, so the parent
can split its set-up time), then obeys one command
per stdin line: ``stats`` prints the coalescer counters as one JSON line,
``stop`` (or end of input) shuts down, writes the trace when traced, and
exits.

Usage::

    python3 -m servebench.server_child EDGES.npy NUM_NODES ENGINE_SEED [TRACE_DIR]

with the checkout root and its ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import asyncio
import json
import sys
from dataclasses import asdict
from pathlib import Path

from servebench.common import engine_config
from servebench.stats import now_ns


def main(argv: list[str]) -> int:
    marks = [now_ns()]
    edges_path, num_nodes, seed = argv[0], int(argv[1]), int(argv[2])
    trace_dir = Path(argv[3]) if len(argv) > 3 else None
    if trace_dir is not None:
        from servebench import tracing

        tracing.install(trace_dir)
    import numpy as np

    from repro.api.service import SimRankService
    from repro.graph.digraph import DiGraph
    from repro.server import ServerConfig, SimRankHTTPApp

    marks.append(now_ns())
    graph = DiGraph.from_edges(np.load(edges_path).tolist(), num_nodes=num_nodes)
    service = SimRankService(
        graph, methods=("probesim-native",),
        configs={"probesim-native": engine_config(seed)},
    )
    app = SimRankHTTPApp(service, ServerConfig(port=0))
    marks.append(now_ns())

    async def serve() -> None:
        await app.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def on_command() -> None:
            line = sys.stdin.readline().strip()
            if line == "stats":
                print(json.dumps(asdict(app.coalescer.stats)), flush=True)
            elif line in ("stop", ""):
                loop.remove_reader(sys.stdin.fileno())
                stop.set()

        loop.add_reader(sys.stdin.fileno(), on_command)
        print(f"ready {app.port} {' '.join(map(str, marks))}", flush=True)
        await stop.wait()
        await app.aclose()

    asyncio.run(serve())
    if trace_dir is not None:
        tracing.TRACER.dump_to_dir()
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
