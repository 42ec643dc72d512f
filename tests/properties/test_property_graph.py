"""Property-based tests (hypothesis) for the graph substrate."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, DiGraph


@st.composite
def edge_lists(draw, max_nodes=12, max_edges=40):
    """A random simple directed graph as (num_nodes, edge list)."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=max_edges, unique=True))
    return n, edges


@st.composite
def updated_graphs(draw, max_nodes=12, max_edges=40, max_updates=20):
    """A DiGraph from edges in random order, then a valid update stream.

    Random edge order leaves in-rows unsorted by source; each update
    deletes its edge when present and inserts it otherwise, so removals
    reorder rows mid-list.  ``n`` may be 0 or 1 and ``m`` 0, and nodes
    without edges are common.
    """
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    if n < 2:
        return DiGraph(n)
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda e: e[0] != e[1])
    graph = DiGraph.from_edges(
        draw(st.lists(pairs, max_size=max_edges, unique=True)), num_nodes=n
    )
    for source, target in draw(st.lists(pairs, max_size=max_updates)):
        if graph.has_edge(source, target):
            graph.remove_edge(source, target)
        else:
            graph.add_edge(source, target)
    return graph


def reference_csr_arrays(graph):
    """``from_digraph``'s arrays built node by node: the conversion oracle."""
    n, m = graph.num_nodes, graph.num_edges
    arrays = {}
    for direction, neighbors in (("out", graph.out_neighbors), ("in", graph.in_neighbors)):
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices = np.empty(m, dtype=np.int32)
        pos = 0
        for node in range(n):
            row = neighbors(node)
            indices[pos : pos + len(row)] = row
            pos += len(row)
            indptr[node + 1] = pos
        arrays[f"{direction}_indptr"] = indptr
        arrays[f"{direction}_indices"] = indices
    return arrays


class TestDiGraphModel:
    """DiGraph against a trivial set-of-edges model."""

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_construction_matches_model(self, data):
        n, edges = data
        g = DiGraph.from_edges(edges, num_nodes=n)
        model = set(edges)
        assert g.num_edges == len(model)
        assert set(g.edges()) == model
        for node in range(n):
            assert set(g.out_neighbors(node)) == {t for s, t in model if s == node}
            assert set(g.in_neighbors(node)) == {s for s, t in model if t == node}

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_degree_sums_equal_edge_count(self, data):
        n, edges = data
        g = DiGraph.from_edges(edges, num_nodes=n)
        assert sum(g.in_degree(v) for v in range(n)) == g.num_edges
        assert sum(g.out_degree(v) for v in range(n)) == g.num_edges

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_remove_all_edges_empties_graph(self, data):
        n, edges = data
        g = DiGraph.from_edges(edges, num_nodes=n)
        for s, t in edges:
            g.remove_edge(s, t)
        assert g.num_edges == 0
        assert all(g.in_degree(v) == 0 for v in range(n))

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_reverse_involution(self, data):
        n, edges = data
        g = DiGraph.from_edges(edges, num_nodes=n)
        assert g.reversed().reversed() == g

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_copy_equal_but_independent(self, data):
        n, edges = data
        g = DiGraph.from_edges(edges, num_nodes=n)
        clone = g.copy()
        assert clone == g
        if edges:
            s, t = edges[0]
            clone.remove_edge(s, t)
            assert clone != g


class TestCsrRoundTrip:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_digraph_csr_digraph_identity(self, data):
        n, edges = data
        g = DiGraph.from_edges(edges, num_nodes=n)
        thawed = CSRGraph.from_digraph(g).to_digraph()
        assert thawed == g
        assert [thawed.in_neighbors(v) for v in g.nodes()] == [
            g.in_neighbors(v) for v in g.nodes()
        ]

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_csr_operators_consistent(self, data):
        n, edges = data
        csr = CSRGraph.from_edges(edges, num_nodes=n)
        P = csr.transition.toarray()
        # columns of in-degree > 0 sum to 1; others to 0
        for v in range(n):
            expected = 1.0 if csr.in_degree(v) > 0 else 0.0
            assert abs(P[:, v].sum() - expected) < 1e-12
        np.testing.assert_allclose(
            csr.backward_operator.toarray(), csr.forward_operator.toarray().T
        )

    @given(edge_lists(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sampling_stays_in_neighbourhood(self, data, seed):
        n, edges = data
        csr = CSRGraph.from_edges(edges, num_nodes=n)
        rng = np.random.default_rng(seed)
        nodes = np.arange(n, dtype=np.int64)
        sampled = csr.sample_in_neighbors(nodes, rng)
        for node, neighbor in zip(nodes.tolist(), sampled.tolist()):
            if csr.in_degree(node) == 0:
                assert neighbor == -1
            else:
                assert neighbor in csr.in_neighbors(node).tolist()


class TestCsrConversion:
    """``from_digraph`` and ``to_digraph`` are exact inverses, row order included."""

    @given(updated_graphs())
    @example(DiGraph(0))
    @example(DiGraph(5))
    @settings(max_examples=80, deadline=None)
    def test_from_digraph_matches_reference_loop(self, graph):
        csr = CSRGraph.from_digraph(graph)
        assert (csr.num_nodes, csr.num_edges) == (graph.num_nodes, graph.num_edges)
        for field, want in reference_csr_arrays(graph).items():
            got = getattr(csr, field)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @given(updated_graphs())
    @example(DiGraph(0))
    @example(DiGraph(5))
    @settings(max_examples=80, deadline=None)
    def test_to_digraph_restores_exact_lists(self, graph):
        csr = CSRGraph.from_digraph(graph)
        thawed = csr.to_digraph()
        assert thawed._adjacency() == graph._adjacency()
        assert thawed == graph
        assert thawed.num_edges == graph.num_edges
        assert CSRGraph.from_digraph(thawed).digest() == csr.digest()
