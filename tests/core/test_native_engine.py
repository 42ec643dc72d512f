"""Correctness suite for the native kernel engine (``engine="native"``).

Four tiers of guarantees are pinned here:

1. **Bit-reproducibility** — with an integer seed, a native answer is a
   pure function of ``(config, graph, query)``: repeated calls, fresh
   engines, different call orders, and every ``single_source_many`` batch
   composition return byte-identical scores (the counter RNG is keyed by
   ``(seed, query, walk, step)``, so no call shares stream state).
2. **Backend parity** — the numba loop kernels and the numpy fallback
   produce byte-identical walks, tries, and scores.  Without numba the
   kernels run as plain Python (the same code ``NUMBA_DISABLE_JIT=1``
   executes on a numba install — the parity CI job runs this suite both
   ways), so the twin pairing is exercised everywhere.
3. **Oracle agreement** — on dyadic graphs (``c = 0.25``, power-of-two
   in-degrees and walk budget) every probe intermediate is exactly
   representable, so native scores are bit-for-bit equal to the hash-map
   oracle replaying the same walk set; on general graphs they agree to
   float round-off.
4. **Surface** — config validation, ``auto`` resolving to native for the
   ``batch`` strategy, capabilities/labels, registry construction, stats,
   and sync.
"""

import numpy as np
import pytest

from repro.api.registry import create
from repro.core import native
from repro.core.config import ProbeSimConfig
from repro.core.engine import ProbeSim
from repro.core.native import fallback, kernels
from repro.core.native.rng import stream_base, walk_bases
from repro.core.probe import probe_deterministic_python
from repro.core.tree import ReachabilityTree
from repro.core.walk_trie import WalkTrie
from repro.errors import ConfigurationError
from repro.graph import CSRGraph, DiGraph
from repro.graph.generators import erdos_renyi_graph

#: compensation off so scores are the raw walk average (oracle-comparable)
EXACT = dict(compensate_truncation=False, max_walk_length=8)


@pytest.fixture(scope="module")
def dyadic():
    """Power-of-two in-degrees (0/1/2/4) + a dangling node, an isolated
    node, and a disconnected 2-cycle: at ``c = 0.25`` all arithmetic is
    exact, so backends and oracle must agree bit-for-bit."""
    edges = [(1, 0), (2, 0), (0, 1), (3, 2), (6, 2), (0, 3), (1, 3), (2, 3),
             (4, 3), (4, 5), (3, 6), (5, 6), (7, 8), (8, 7)]
    return DiGraph.from_edges(edges, num_nodes=10)


@pytest.fixture(scope="module")
def ragged():
    """A generated graph with dangling and fully isolated nodes."""
    g = erdos_renyi_graph(40, num_edges=100, seed=5)
    return DiGraph.from_edges(list(g.edges()) + [(40, 41)], num_nodes=44)


def native_engine(graph, **overrides):
    overrides.setdefault("strategy", "batch")
    return ProbeSim(graph, engine="native", **overrides)


def replay_walks(graph, query, seed, num_walks, sqrt_c, max_len):
    """The exact walk set a native query draws, as a list of walks."""
    csr = CSRGraph.from_digraph(graph) if isinstance(graph, DiGraph) else graph
    bases = walk_bases(stream_base(seed, query), num_walks)
    nodes, lengths = fallback.sample_walks(
        csr.in_indptr, csr.in_indices, csr.in_degrees,
        bases, query, sqrt_c, max_len,
    )
    return [nodes[i, : lengths[i]].tolist() for i in range(num_walks)]


def oracle_estimate(graph, walks, sqrt_c):
    """Algorithm 3 with the hash-map oracle probe, per distinct prefix."""
    acc = np.zeros(graph.num_nodes, dtype=np.float64)
    tree = ReachabilityTree.from_walks(walks)
    for prefix, weight in tree.iter_prefixes():
        for node, value in probe_deterministic_python(graph, prefix, sqrt_c).items():
            acc[node] += weight * value
    return acc / len(walks)


class TestBitReproducibility:
    """Tier 1: one (seed, query) -> one byte pattern, however it is asked."""

    def test_repeats_and_fresh_engines_are_identical(self, tiny_wiki):
        a = native_engine(tiny_wiki, eps_a=0.15, seed=42)
        first = a.single_source(11).scores
        second = a.single_source(11).scores
        fresh = native_engine(tiny_wiki, eps_a=0.15, seed=42).single_source(11)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, fresh.scores)

    def test_answers_are_call_order_independent(self, tiny_wiki):
        a = native_engine(tiny_wiki, eps_a=0.15, seed=7)
        b = native_engine(tiny_wiki, eps_a=0.15, seed=7)
        forward = {q: a.single_source(q).scores for q in (3, 11, 50)}
        backward = {q: b.single_source(q).scores for q in (50, 11, 3)}
        for q in (3, 11, 50):
            np.testing.assert_array_equal(forward[q], backward[q])

    def test_every_batch_composition_is_identical(self, tiny_wiki):
        """single_source_many answers never depend on how queries are
        grouped — the bit-reproducibility contract batching rides on."""
        queries = [11, 3, 50, 3, 11]
        engine = native_engine(tiny_wiki, eps_a=0.15, seed=9)
        singles = [engine.single_source(q).scores for q in queries]
        as_batch = engine.single_source_many(queries)
        pair_a = engine.single_source_many(queries[:2])
        pair_b = engine.single_source_many(queries[2:])
        assert [r.query for r in as_batch] == queries
        for one, many in zip(singles, as_batch):
            np.testing.assert_array_equal(one, many.scores)
        for one, many in zip(singles, pair_a + pair_b):
            np.testing.assert_array_equal(one, many.scores)

    @pytest.mark.parametrize("np_int", [np.int64, np.int32, np.uint16])
    def test_numpy_integer_seed_equals_int_seed(self, tiny_wiki, np_int):
        """A numpy-integer seed keys the same counter streams as the equal
        int, so it is just as call-order independent."""
        by_int = native_engine(tiny_wiki, eps_a=0.15, seed=7).single_source(5)
        engine = native_engine(tiny_wiki, eps_a=0.15, seed=np_int(7))
        engine.single_source(3)
        after_other = engine.single_source(5)
        fresh = native_engine(tiny_wiki, eps_a=0.15, seed=np_int(7)).single_source(5)
        assert after_other.scores.tobytes() == by_int.scores.tobytes()
        assert fresh.scores.tobytes() == by_int.scores.tobytes()

    def test_numpy_integer_query_is_accepted(self, tiny_wiki):
        a = native_engine(tiny_wiki, eps_a=0.15, seed=7).single_source(np.int64(5))
        b = native_engine(tiny_wiki, eps_a=0.15, seed=7).single_source(5)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_seeds_and_queries_produce_distinct_streams(self, tiny_wiki):
        a = native_engine(tiny_wiki, eps_a=0.15, seed=1).single_source(11)
        b = native_engine(tiny_wiki, eps_a=0.15, seed=2).single_source(11)
        c = native_engine(tiny_wiki, eps_a=0.15, seed=1).single_source(12)
        assert not np.array_equal(a.scores, b.scores)
        assert not np.array_equal(a.scores, c.scores)

    def test_unseeded_engine_still_answers(self, toy):
        result = native_engine(toy, c=0.25, eps_a=0.2, num_walks=64).single_source(0)
        assert result.score(0) == 1.0
        assert np.all(result.scores >= 0.0)


class TestBackendParity:
    """Tier 2: the loop kernels and the numpy fallback are byte twins."""

    def test_walks_byte_identical(self, tiny_wiki_csr):
        bases = walk_bases(stream_base(5, 11), 300)
        args = (tiny_wiki_csr.in_indptr, tiny_wiki_csr.in_indices,
                tiny_wiki_csr.in_degrees, bases, 11, 0.7, 9)
        nodes_f, lengths_f = fallback.sample_walks(*args)
        nodes_k, lengths_k = kernels.sample_walks(*args)
        np.testing.assert_array_equal(lengths_f, lengths_k)
        np.testing.assert_array_equal(nodes_f, nodes_k)

    def test_trie_kernel_matches_canonical_trie(self, tiny_wiki_csr):
        bases = walk_bases(stream_base(5, 11), 300)
        nodes, lengths = fallback.sample_walks(
            tiny_wiki_csr.in_indptr, tiny_wiki_csr.in_indices,
            tiny_wiki_csr.in_degrees, bases, 11, 0.7, 9,
        )
        canonical = WalkTrie.from_walk_arrays(nodes, lengths)
        kernel = native.build_trie_kernel(nodes, lengths)
        assert kernel.root == canonical.root
        assert kernel.num_walks == canonical.num_walks
        assert len(kernel.levels) == len(canonical.levels)
        for a, b in zip(kernel.levels, canonical.levels):
            np.testing.assert_array_equal(a.nodes, b.nodes)
            np.testing.assert_array_equal(a.parents, b.parents)
            np.testing.assert_array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("query", [0, 3, 11, 50])
    def test_scores_byte_identical(self, tiny_wiki_csr, query):
        ctx = native.make_context(tiny_wiki_csr, 0.7)
        base = stream_base(17, query)
        scores_f, trie_f = native.run_query(
            ctx, query, 400, 0.7, 9, base, fallback, kernel_trie=False)
        scores_k, trie_k = native.run_query(
            ctx, query, 400, 0.7, 9, base, kernels, kernel_trie=True)
        assert trie_f.num_walks == trie_k.num_walks
        assert trie_f.num_tree_nodes == trie_k.num_tree_nodes
        np.testing.assert_array_equal(scores_f, scores_k)

    def test_resolve_impl_selects_both_namespaces(self):
        assert native.resolve_impl("numpy") is fallback
        assert native.resolve_impl("numba") is kernels
        assert native.resolve_impl() is native.resolve_impl(native.native_backend())


class TestOracleAgreement:
    """Tier 3: native scores equal the hash-map oracle on native's walks."""

    @pytest.mark.parametrize("query", range(10))
    def test_dyadic_graph_bitwise_equals_oracle(self, dyadic, query):
        cfg = dict(c=0.25, eps_a=0.1, seed=11, num_walks=256, **EXACT)
        result = native_engine(dyadic, **cfg).single_source(query)
        walks = replay_walks(dyadic, query, 11, 256, 0.5, 8)
        expected = oracle_estimate(dyadic, walks, 0.5)
        expected[query] = 1.0
        np.testing.assert_array_equal(result.scores, expected)

    @pytest.mark.parametrize("query", [0, 7, 40, 42])
    def test_ragged_graph_matches_oracle_to_roundoff(self, ragged, query):
        cfg = dict(c=0.6, eps_a=0.15, seed=23, num_walks=300, **EXACT)
        result = native_engine(ragged, **cfg).single_source(query)
        walks = replay_walks(
            ragged, query, 23, 300, np.sqrt(0.6), 8)
        expected = oracle_estimate(ragged, walks, np.sqrt(0.6))
        expected[query] = 1.0
        np.testing.assert_allclose(result.scores, expected, rtol=0, atol=1e-12)

    def test_isolated_query_scores_zero_everywhere_else(self, ragged):
        result = native_engine(ragged, c=0.6, eps_a=0.2, seed=1,
                               num_walks=64).single_source(43)
        assert result.score(43) == 1.0
        assert np.all(np.delete(result.scores, 43) == 0.0)


class TestEngineSurface:
    """Tier 4: config, routing, capabilities, registry, stats, sync."""

    def test_auto_resolves_native_only_for_batch_strategy(self):
        assert ProbeSimConfig(strategy="batch").resolved_engine() == "native"
        for strategy in ("basic", "randomized", "hybrid"):
            assert ProbeSimConfig(strategy=strategy).resolved_engine() == "loop"
        python = ProbeSimConfig(strategy="batch", backend="python")
        assert python.resolved_engine() == "loop"
        pinned = ProbeSimConfig(strategy="batch", engine="loop")
        assert pinned.resolved_engine() == "loop"
        assert ProbeSimConfig(strategy="batch", engine="native").resolved_engine() == "native"

    def test_native_rejects_randomized_strategies_and_python_backend(self):
        with pytest.raises(ConfigurationError, match="draws RNG"):
            ProbeSimConfig(strategy="hybrid", engine="native")
        with pytest.raises(ConfigurationError, match="draws RNG"):
            ProbeSimConfig(strategy="randomized", engine="native")
        with pytest.raises(ConfigurationError, match="inherently vectorized"):
            ProbeSimConfig(strategy="batch", backend="python", engine="native")
        with pytest.raises(ConfigurationError, match="engine must be one of"):
            ProbeSimConfig(engine="turbo")

    def test_label_and_capabilities(self, toy):
        engine = native_engine(toy, c=0.25, eps_a=0.2, seed=1)
        caps = engine.capabilities()
        assert caps.method == "probesim-native"
        assert caps.native and caps.vectorized and caps.parallel_safe
        assert caps.as_row()["native"] is True
        assert engine.single_source(0).method == "probesim-native"

    def test_registry_constructs_the_native_engine(self, toy):
        est = create("probesim-native", toy, c=0.25, eps_a=0.2, seed=3)
        direct = native_engine(toy, c=0.25, eps_a=0.2, seed=3)
        assert est.capabilities().native
        np.testing.assert_array_equal(
            est.single_source(0).scores, direct.single_source(0).scores)

    def test_stats_are_populated(self, tiny_wiki):
        engine = native_engine(tiny_wiki, eps_a=0.15, seed=9, num_walks=400)
        engine.single_source(11)
        stats = engine.last_stats
        assert stats.num_walks == 400
        assert stats.num_tree_nodes > 0
        assert stats.num_probes == stats.num_tree_nodes
        assert stats.walk_length_total >= stats.num_walks

    def test_context_is_cached_per_snapshot(self, tiny_wiki_csr):
        """Engines sharing one CSR snapshot share one operator build."""
        a = native_engine(tiny_wiki_csr, eps_a=0.15, seed=9)
        b = native_engine(tiny_wiki_csr, eps_a=0.15, seed=10)
        a.single_source(3)
        b.single_source(3)
        assert native.context_for(a.graph, a.config.sqrt_c) is native.context_for(
            b.graph, b.config.sqrt_c)

    def test_sync_refreshes_the_native_context(self, toy):
        graph = toy.copy()
        engine = native_engine(graph, c=0.25, eps_a=0.2, seed=3)
        before = engine.single_source(0).scores.copy()
        graph.remove_edge(4, 1)
        engine.sync()
        after = engine.single_source(0).scores
        assert engine.graph.num_edges == graph.num_edges
        assert not np.array_equal(before, after)

    def test_walk_budget_matches_other_engines(self, toy):
        shared = dict(c=0.25, eps_a=0.1, delta=0.2, strategy="batch", seed=0)
        loop = ProbeSim(toy, engine="loop", **shared)
        nat = ProbeSim(toy, engine="native", **shared)
        assert loop.single_source(0).num_walks == nat.single_source(0).num_walks
