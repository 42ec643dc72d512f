"""Mixed query/update traffic: the paper's dynamic-graph claim, end to end.

Generates one reproducible workload trace (Zipf-skewed queries interleaved
with edge updates) and replays it against three methods with different
maintenance stories:

- ``probesim-native``   — index-free; maintenance is an O(m) re-snapshot;
- ``tsf``               — updatable index; incremental patch per update;
- ``probesim-walkindex``— walk cache; fine-grained invalidation per update.

Run with ``PYTHONPATH=src python examples/dynamic_workload.py``.
"""

from repro import generate_workload, run_workload
from repro.eval.reporting import format_table
from repro.graph.generators import erdos_renyi_graph

SEED = 7
METHODS = ["probesim-native", "tsf", "probesim-walkindex"]
CONFIGS = {
    # num_walks overrides keep the example fast; drop them for the
    # Chernoff-sized budgets (eps_a/delta) the experiments use
    "probesim-native": {"num_walks": 150, "seed": SEED},
    "tsf": {"rg": 40, "rq": 6, "depth": 6, "seed": SEED},
    "probesim-walkindex": {"num_walks": 150, "seed": SEED},
}


def main() -> None:
    graph = erdos_renyi_graph(250, 1_200, seed=1)

    # one trace, 85% reads with web-like key skew, valid updates throughout
    trace = generate_workload(
        graph, num_ops=200, read_fraction=0.85, zipf_s=1.0,
        insert_fraction=0.5, seed=SEED,
    )
    print(trace)

    result = run_workload(graph, trace, METHODS, configs=CONFIGS, workers=2)
    print(format_table(
        result.rows(),
        title=(f"{trace.num_queries} queries / {trace.num_updates} updates, "
               f"2 workers"),
    ))

    # the replay is bit-reproducible: same trace + seeds => same digests
    # (re-checked on the two cheap methods to keep the example snappy)
    subset = ["probesim-native", "tsf"]
    configs = {name: CONFIGS[name] for name in subset}
    first = run_workload(graph, trace, subset, configs=configs, workers=2)
    again = run_workload(graph, trace, subset, configs=configs, workers=2)
    assert [r.digest for r in first.reports] == [r.digest for r in again.reports]
    print("replay digests reproduced bit-for-bit")

    # every method answered the full query load
    assert all(r.num_queries == trace.num_queries for r in result.reports)
    assert all(r.latency.count == trace.num_queries for r in result.reports)
    print("done.")


if __name__ == "__main__":
    main()
