"""Golden-equivalence suite for the batch strategy's vectorized engine.

``ProbeSim(strategy="batch")`` on the vectorized backend runs on the native
trie-sweep engine (``engine="auto"`` resolves to it); the loop engine's
per-prefix probing of Algorithm 3 stays the reference.  The native engine
draws its walks from a counter RNG keyed by ``(seed, query, walk, step)``,
so every comparison here *replays* a query's walk set and hands it to the
loop engine (:meth:`ProbeSim.estimate_from_tree`) or to the hash-map
oracle.  Three tiers of agreement are pinned:

1. **Exact integer artifacts** — a fixed-seed walk set is identical across
   the two samplers (numba loop kernels and the numpy fallback).
2. **Node-for-node float agreement** — with pruning off, scores match the
   loop engine and the ``probe_deterministic_python`` oracle on the same
   walks to float round-off, on the toy graph and on a generated graph
   with dangling nodes and disconnected components.
3. **Bitwise-identical outputs** — on *dyadic* graphs (``c = 0.25`` so
   ``sqrt(c) = 0.5``, every in-degree a power of two, a power-of-two walk
   budget) every intermediate value is exactly representable, float
   addition is exact, and the two engines' outputs are bit-for-bit equal.
   ``single_source_many`` is bit-identical to looped ``single_source`` on
   *every* graph.

With pruning on, the engines intentionally diverge: the trie sweep skips
Pruning rule 2 entirely (the dense level sweep has no per-probe work for
pruning to save, so skipping is strictly more accurate at identical cost),
so agreement is bounded by the loop engine's rule 2 error budget instead —
and the gap is one-sided.
"""

import numpy as np
import pytest

from repro.core.config import ProbeSimConfig
from repro.core.engine import ProbeSim, QueryStats
from repro.core.native import fallback, kernels
from repro.core.native.rng import stream_base, walk_bases
from repro.core.probe import probe_deterministic_python
from repro.core.tree import ReachabilityTree
from repro.datasets import TOY_DECAY
from repro.errors import ConfigurationError, GraphError
from repro.graph import DiGraph
from repro.graph.generators import erdos_renyi_graph

#: prune-off settings shared by the exact-equivalence tests
EXACT = dict(prune=False, max_walk_length=8, compensate_truncation=False)


@pytest.fixture(scope="module")
def dyadic():
    """10 nodes, every in-degree a power of two (0/1/2/4), with a dangling
    node (4), an isolated node (9) and a disconnected 2-cycle (7, 8).

    At ``c = 0.25`` every PROBE intermediate is a dyadic rational well
    inside float53, so both engines compute *exact* arithmetic and their
    outputs must agree bit-for-bit.  (The graph layer rejects self-loops —
    see ``test_self_loops_rejected_by_graph_layer`` — so none appear here.)
    """
    edges = [(1, 0), (2, 0), (0, 1), (3, 2), (6, 2), (0, 3), (1, 3), (2, 3),
             (4, 3), (4, 5), (3, 6), (5, 6), (7, 8), (8, 7)]
    return DiGraph.from_edges(edges, num_nodes=10)


@pytest.fixture(scope="module")
def ragged():
    """A generated graph with dangling nodes and disconnected components."""
    g = erdos_renyi_graph(40, num_edges=100, seed=5)
    edge_list = list(g.edges())
    # append an isolated pair and two fully isolated nodes
    return DiGraph.from_edges(edge_list + [(40, 41)], num_nodes=44)


def engines(graph, **overrides):
    """A (loop, batch) engine pair with identical configuration; the batch
    engine is whatever ``auto`` resolves ``strategy="batch"`` to."""
    return (
        ProbeSim(graph, strategy="batch", engine="loop", **overrides),
        ProbeSim(graph, strategy="batch", **overrides),
    )


def replay_walks(engine, query):
    """The exact walk set ``engine`` draws for ``query``."""
    cfg = engine.config
    csr = engine.graph
    bases = walk_bases(stream_base(cfg.seed, query), cfg.walk_count(csr.num_nodes))
    nodes, lengths = fallback.sample_walks(
        csr.in_indptr, csr.in_indices, csr.in_degrees,
        bases, query, cfg.sqrt_c, cfg.walk_truncation(),
    )
    return [nodes[i, : lengths[i]].tolist() for i in range(len(bases))]


def loop_estimate(loop, walks, query):
    """The loop engine's Algorithm 3 probing of ``walks``, finalized."""
    scores = loop.estimate_from_tree(ReachabilityTree.from_walks(walks))
    scores[query] = 1.0
    return scores


def oracle_estimate(graph, walks, sqrt_c):
    """Algorithm 3 recomputed with the hash-map oracle probe, per prefix."""
    n = graph.num_nodes
    acc = np.zeros(n, dtype=np.float64)
    tree = ReachabilityTree.from_walks(walks)
    for prefix, weight in tree.iter_prefixes():
        for node, value in probe_deterministic_python(graph, prefix, sqrt_c).items():
            acc[node] += weight * value
    return acc / len(walks)


class TestWalkAndTrieArtifacts:
    """Tier 1: integer artifacts are bit-identical across samplers."""

    def test_fixed_seed_walks_identical_across_samplers(self, tiny_wiki_csr):
        _, batch = engines(tiny_wiki_csr, c=0.6, eps_a=0.15, seed=97,
                           num_walks=400, max_walk_length=9)
        cfg = batch.config
        bases = walk_bases(stream_base(97, 11), 400)
        args = (tiny_wiki_csr.in_indptr, tiny_wiki_csr.in_indices,
                tiny_wiki_csr.in_degrees, bases, 11, cfg.sqrt_c,
                cfg.walk_truncation())
        nodes, lengths = kernels.sample_walks(*args)
        assert [nodes[i, : lengths[i]].tolist() for i in range(400)] == (
            replay_walks(batch, 11))
        # the padding never leaks valid node ids
        for i in range(400):
            assert np.all(nodes[i, lengths[i]:] == -1)


class TestNodeForNodeEquivalence:
    """Tier 2: prune-off scores agree to float round-off, engine vs engine
    and engine vs the hash-map oracle."""

    @pytest.mark.parametrize("query", [0, 3, 5])
    def test_toy_matches_loop_engine(self, toy, query):
        loop, batch = engines(toy, c=TOY_DECAY, eps_a=0.1, seed=29,
                              num_walks=400, **EXACT)
        a = loop_estimate(loop, replay_walks(batch, query), query)
        b = batch.single_source(query).scores
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("query", [0, 7, 40, 42])
    def test_ragged_graph_matches_loop_engine(self, ragged, query):
        """Dangling nodes, a disconnected pair (40, 41) and fully isolated
        nodes (42, 43) flow through both engines identically."""
        loop, batch = engines(ragged, c=0.6, eps_a=0.15, seed=17,
                              num_walks=300, **EXACT)
        a = loop_estimate(loop, replay_walks(batch, query), query)
        b = batch.single_source(query).scores
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_matches_python_oracle_node_for_node(self, toy):
        _, batch = engines(toy, c=TOY_DECAY, eps_a=0.1, seed=61,
                           num_walks=256, **EXACT)
        result = batch.single_source(2)
        expected = oracle_estimate(toy, replay_walks(batch, 2),
                                   batch.config.sqrt_c)
        expected[2] = 1.0
        np.testing.assert_allclose(result.scores, expected, rtol=0, atol=1e-12)

    def test_isolated_query_scores_zero_everywhere_else(self, ragged):
        for engine in engines(ragged, c=0.6, eps_a=0.2, seed=1, num_walks=64):
            result = engine.single_source(43)  # no in-edges: walks never move
            assert result.score(43) == 1.0
            others = np.delete(result.scores, 43)
            assert np.all(others == 0.0)

    def test_pruned_runs_stay_within_rule2_budget(self, tiny_wiki):
        """With pruning on the engines diverge only by the loop engine's
        pruned mass (the trie sweep never prunes scores), so against the
        loop engine's probing of the *same* walks the gap is one-sided and
        bounded by the Pruning rule 2 error budget."""
        loop, batch = engines(tiny_wiki, c=0.6, eps_a=0.1, seed=23,
                              num_walks=500)
        a = loop_estimate(loop, replay_walks(batch, 11), 11)
        b = batch.single_source(11).scores
        budget = loop.config.budget
        bound = (1.0 + budget.eps) / (1.0 - budget.sqrt_c) * budget.eps_p
        diff = b - a
        assert diff.min() >= -1e-12  # the sweep never loses mass loop kept
        assert diff.max() <= bound + 1e-12
        assert diff.max() > 0.0  # rule 2 did prune something the sweep kept


class TestBitwiseEquivalence:
    """Tier 3: bit-for-bit agreement where float arithmetic is exact."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_dyadic_graph_engines_bitwise_identical(self, dyadic, seed):
        loop, batch = engines(dyadic, c=0.25, eps_a=0.1, seed=seed,
                              num_walks=256, **EXACT)
        for query in range(dyadic.num_nodes):
            a = loop_estimate(loop, replay_walks(batch, query), query)
            b = batch.single_source(query).scores
            np.testing.assert_array_equal(a, b)

    def test_dyadic_graph_oracle_bitwise_identical(self, dyadic):
        _, batch = engines(dyadic, c=0.25, eps_a=0.1, seed=11,
                           num_walks=128, **EXACT)
        result = batch.single_source(0)
        expected = oracle_estimate(dyadic, replay_walks(batch, 0), 0.5)
        expected[0] = 1.0
        np.testing.assert_array_equal(result.scores, expected)

    def test_batched_many_bitwise_equals_looped_singles(self, tiny_wiki):
        """Queries never share stream state: a multi-query call is
        bit-identical to per-query calls on any graph, pruning on or off."""
        queries = [11, 3, 50, 3, 11]
        a = ProbeSim(tiny_wiki, strategy="batch", eps_a=0.15, seed=41)
        b = ProbeSim(tiny_wiki, strategy="batch", eps_a=0.15, seed=41)
        singles = [a.single_source(q) for q in queries]
        many = b.single_source_many(queries)
        assert [r.query for r in many] == queries
        for one, shared in zip(singles, many):
            np.testing.assert_array_equal(one.scores, shared.scores)


class TestEngineSurface:
    """Configuration, dispatch, labels and capability advertising."""

    def test_auto_resolves_batched_only_for_batch_strategy(self, toy):
        """Only the batch strategy on the vectorized backend reaches the
        vectorized engine; everything else stays on the loop engine."""
        for strategy in ("basic", "batch", "randomized", "hybrid"):
            engine = ProbeSim(toy, strategy=strategy, eps_a=0.2, seed=1)
            assert engine.capabilities().vectorized == (strategy == "batch")
        python = ProbeSim(toy, strategy="batch", backend="python", eps_a=0.2, seed=1)
        assert not python.capabilities().vectorized
        pinned = ProbeSim(toy, strategy="batch", engine="loop", eps_a=0.2, seed=1)
        assert not pinned.capabilities().vectorized

    def test_batched_rejects_randomized_strategies_and_python_backend(self):
        """The retired ``engine="batched"`` name is refused outright: for
        the randomized strategies and the python backend, as it always
        was, and for the batch strategy too rather than aliasing native."""
        for kwargs in (dict(strategy="hybrid"), dict(strategy="randomized"),
                       dict(strategy="batch", backend="python"),
                       dict(strategy="batch")):
            with pytest.raises(ConfigurationError, match="engine must be one of"):
                ProbeSimConfig(engine="batched", **kwargs)

    def test_labels_and_capabilities(self, toy):
        auto = ProbeSim(toy, strategy="batch", eps_a=0.2, seed=1)
        loop = ProbeSim(toy, strategy="batch", engine="loop", eps_a=0.2, seed=1)
        assert auto.capabilities().vectorized and auto.capabilities().native
        assert not loop.capabilities().vectorized
        assert not loop.capabilities().native
        # the label names the strategy, not the engine ``auto`` picked
        assert auto.single_source(0).method == "probesim-batch"
        assert loop.single_source(0).method == "probesim-batch"
        assert "vectorized" in auto.capabilities().as_row()

    def test_batched_stats_count_shared_probes(self, tiny_wiki):
        loop, batch = engines(tiny_wiki, eps_a=0.15, seed=9, num_walks=400)
        batch.single_source(11)
        walks = replay_walks(batch, 11)
        loop_stats = QueryStats(num_walks=len(walks))
        loop.estimate_from_tree(ReachabilityTree.from_walks(walks), loop_stats)
        stats = batch.last_stats
        assert stats.num_walks == loop_stats.num_walks == 400
        assert stats.num_tree_nodes == loop_stats.num_tree_nodes
        # one shared probe per distinct prefix, exactly like Algorithm 3
        assert stats.num_probes == loop_stats.num_probes
        assert stats.walk_length_total == sum(len(w) for w in walks)

    def test_self_loops_rejected_by_graph_layer(self):
        """Self-loops cannot reach either engine: the graph layer refuses
        them at construction (documented here because the equivalence suite
        would otherwise need a self-loop case)."""
        with pytest.raises(GraphError, match="self-loops"):
            DiGraph.from_edges([(0, 0), (0, 1)])

    def test_sync_refreshes_batched_engine(self, toy):
        graph = toy.copy()
        engine = ProbeSim(graph, strategy="batch", eps_a=0.2, seed=3)
        before = engine.single_source(0).scores.copy()
        graph.remove_edge(4, 1)
        engine.sync()
        after = engine.single_source(0).scores
        assert engine.graph.num_edges == graph.num_edges
        assert not np.array_equal(before, after)
