"""Batched throughput on the native engine: the serving hot path, demonstrated.

One ProbeSim configuration, two execution engines:

- ``engine="loop"``   — the paper's per-prefix probe loop (oracle path);
- ``engine="native"`` — walk sampling, the prefix trie and a hybrid
  sparse/dense level sweep run as vectorized kernels (numba when installed,
  a byte-identical numpy fallback otherwise); ``engine="auto"`` picks it
  for ``strategy="batch"``.

The demo checks three things end to end: both engines stay within
``eps_a`` of the exact Power Method answer, the native engine is faster on
a single query, and a deduplicated service batch through
``SimRankService.topk_many`` returns byte-for-byte the answers of one-by-one
queries (the native counter RNG keys every walk on ``(seed, query)``).

Run:  python examples/batched_throughput.py
"""

import numpy as np

from repro import PowerMethod, ProbeSim, SimRankService
from repro.eval.metrics import abs_error_max
from repro.graph.generators import erdos_renyi_graph
from repro.utils.timer import Timer

graph = erdos_renyi_graph(800, num_edges=4_000, seed=11)
print(f"graph: {graph}")

CONFIG = dict(c=0.6, eps_a=0.1, delta=0.1, strategy="batch",
              num_walks=800, seed=42)
QUERY = 17

# -- same guarantee, different execution ----------------------------------
truth = PowerMethod(graph, c=0.6).single_source(QUERY).scores
loop_engine = ProbeSim(graph, engine="loop", **CONFIG)
native_engine = ProbeSim(graph, engine="native", **CONFIG)

with Timer() as t_loop:
    loop_result = loop_engine.single_source(QUERY)
with Timer() as t_native:
    native_result = native_engine.single_source(QUERY)

loop_err = abs_error_max(loop_result.scores, truth, QUERY)
native_err = abs_error_max(native_result.scores, truth, QUERY)
print(f"\nsingle-source from node {QUERY} ({loop_result.num_walks} walks)")
print(f"  loop engine:   {t_loop.elapsed:.3f}s  max error {loop_err:.4f}")
print(f"  native engine: {t_native.elapsed:.3f}s  max error {native_err:.4f} "
      f"({t_loop.elapsed / t_native.elapsed:.1f}x)")
assert max(loop_err, native_err) <= CONFIG["eps_a"]
assert native_engine.capabilities().native

# -- a service batch answers exactly like one-by-one queries --------------
method_config = dict(eps_a=0.1, delta=0.1, num_walks=800, seed=7)
service = SimRankService(
    graph,
    methods=("probesim-native",),
    configs={"probesim-native": method_config},
)
hot_queries = [17, 3, 17, 250, 3, 17, 99]  # hot-key mix: dedup inside the batch
with Timer() as t_batch:
    tops = service.topk_many(hot_queries, k=5)
print(f"\nservice batch of {len(hot_queries)} top-5 queries "
      f"({service.stats.batch_dedup_saved} served from batch dedup): "
      f"{t_batch.elapsed:.3f}s")
for query, top in zip(hot_queries[:3], tops[:3]):
    best, score = top.as_pairs()[0]
    print(f"  node {query}: most similar {best} (s ~= {score:.3f})")

# duplicates inside the batch share one answer object
assert tops[0].as_pairs() == tops[2].as_pairs()
# and a fresh engine asked one query at a time gives the same bytes
# (engine="auto" runs strategy="batch" on the native engine)
single = ProbeSim(graph, strategy="batch", **method_config)
for query in (99, 250):
    alone = single.single_source(query).scores
    batched = service.single_source_many([17, query])[1].scores
    assert np.array_equal(alone, batched)
print("\nnative engine = same guarantee, less time, batch-independent bits — done.")
