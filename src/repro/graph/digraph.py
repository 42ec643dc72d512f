"""A mutable, simple, directed graph with integer-labelled nodes.

This is the dynamic-graph substrate of the reproduction.  Nodes are dense
integers ``0..n-1`` (the loaders and generators guarantee this), edges are
unweighted and simple (no parallel edges; self-loops are rejected because
SimRank's random-surfer formulation never uses them and the paper's graphs are
simple).

Both in- and out-adjacency are maintained because every algorithm in the paper
needs both directions: √c-walks follow *in*-edges while PROBE traversals follow
*out*-edges.

Design notes
------------
Adjacency is stored as ``list[list[int]]`` plus ``list[set[int]]`` membership
sets.  The list gives O(1) uniform sampling of a random in-neighbour (the inner
loop of every Monte Carlo algorithm here), the set gives O(1) edge-existence
checks and O(degree) deletion.  This doubles memory versus a bare list but the
graph itself is small next to the walk/score workspaces.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import DuplicateEdgeError, EdgeNotFoundError, GraphError, NodeNotFoundError


class DiGraph:
    """Simple directed graph over nodes ``0..n-1`` supporting edge updates.

    >>> g = DiGraph(3)
    >>> g.add_edge(0, 1)
    >>> g.add_edge(2, 1)
    >>> sorted(g.in_neighbors(1))
    [0, 2]
    >>> g.num_edges
    2
    """

    def __init__(self, num_nodes: int = 0) -> None:
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        self._out: list[list[int]] = [[] for _ in range(num_nodes)]
        self._in: list[list[int]] = [[] for _ in range(num_nodes)]
        self._out_sets: list[set[int]] = [set() for _ in range(num_nodes)]
        self._num_edges = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]], num_nodes: int | None = None
    ) -> "DiGraph":
        """Build a graph from ``(source, target)`` pairs.

        When ``num_nodes`` is omitted it is inferred as ``max node id + 1``.
        Duplicate edges in the input raise :class:`DuplicateEdgeError` —
        silently merging them would hide data bugs in loaders.
        """
        edge_list = [(int(s), int(t)) for s, t in edges]
        if num_nodes is None:
            num_nodes = 1 + max((max(s, t) for s, t in edge_list), default=-1)
        graph = cls(num_nodes)
        for source, target in edge_list:
            graph.add_edge(source, target)
        return graph

    @classmethod
    def _from_adjacency(
        cls, out_lists: list[list[int]], in_lists: list[list[int]]
    ) -> "DiGraph":
        """Adopt ready-made adjacency lists as a graph's own (no copy).

        The caller guarantees the lists describe one simple graph:
        ``in_lists[t]`` holds ``s`` exactly when ``out_lists[s]`` holds
        ``t``, with no duplicates or self-loops.  Both keep their order.
        """
        graph = cls.__new__(cls)
        graph._out = out_lists
        graph._in = in_lists
        graph._out_sets = [set(adj) for adj in out_lists]
        graph._num_edges = sum(map(len, out_lists))
        return graph

    def _adjacency(self) -> tuple[list[list[int]], list[list[int]]]:
        """The live ``(out_lists, in_lists)`` pair — read it, do not mutate."""
        return self._out, self._in

    def copy(self) -> "DiGraph":
        """Deep copy of the graph (adjacency is copied, not shared)."""
        return DiGraph._from_adjacency(
            [list(adj) for adj in self._out], [list(adj) for adj in self._in]
        )

    def reversed(self) -> "DiGraph":
        """A new graph with every edge direction flipped."""
        return DiGraph._from_adjacency(
            [list(adj) for adj in self._in], [list(adj) for adj in self._out]
        )

    def edge_subgraph(self, keep) -> "DiGraph":
        """A same-node-set copy containing only edges where ``keep(s, t)``.

        Both the out- and in-adjacency lists of the copy preserve this
        graph's *relative* neighbour order — not merely the edge set.  The
        serving layer's shard subgraphs rely on that: adjacency-order-
        sensitive samplers (TSF draws neighbours by list position) must see
        the induced order of the parent graph, so a keep-everything
        predicate yields a graph whose CSR snapshot is byte-identical to
        the parent's.
        """
        return DiGraph._from_adjacency(
            [[t for t in adj if keep(s, t)] for s, adj in enumerate(self._out)],
            [[s for s in adj if keep(s, t)] for t, adj in enumerate(self._in)],
        )

    def add_node(self) -> int:
        """Append a fresh isolated node and return its id."""
        self._out.append([])
        self._in.append([])
        self._out_sets.append(set())
        return self.num_nodes - 1

    def add_edge(self, source: int, target: int) -> None:
        """Insert the edge ``source -> target``.

        Raises :class:`DuplicateEdgeError` if present, :class:`GraphError` for
        self-loops, :class:`NodeNotFoundError` for unknown endpoints.
        """
        self._check_node(source)
        self._check_node(target)
        if source == target:
            raise GraphError(f"self-loops are not allowed (node {source})")
        if target in self._out_sets[source]:
            raise DuplicateEdgeError(source, target)
        self._out[source].append(target)
        self._out_sets[source].add(target)
        self._in[target].append(source)
        self._num_edges += 1

    def remove_edge(self, source: int, target: int) -> None:
        """Delete the edge ``source -> target`` (raises if absent)."""
        self._check_node(source)
        self._check_node(target)
        if target not in self._out_sets[source]:
            raise EdgeNotFoundError(source, target)
        self._out[source].remove(target)
        self._out_sets[source].remove(target)
        self._in[target].remove(source)
        self._num_edges -= 1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        return len(self._out)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def nodes(self) -> range:
        """All node ids (a ``range``; nodes are dense integers)."""
        return range(self.num_nodes)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all edges as ``(source, target)`` pairs."""
        for source, targets in enumerate(self._out):
            for target in targets:
                yield (source, target)

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the edge ``source -> target`` exists (O(1))."""
        self._check_node(source)
        self._check_node(target)
        return target in self._out_sets[source]

    def out_neighbors(self, node: int) -> list[int]:
        """Out-neighbour list of ``node`` (the live list — do not mutate)."""
        self._check_node(node)
        return self._out[node]

    def in_neighbors(self, node: int) -> list[int]:
        """In-neighbour list of ``node`` (the live list — do not mutate)."""
        self._check_node(node)
        return self._in[node]

    def out_degree(self, node: int) -> int:
        """Number of out-edges of ``node``."""
        self._check_node(node)
        return len(self._out[node])

    def in_degree(self, node: int) -> int:
        """Number of in-edges of ``node``."""
        self._check_node(node)
        return len(self._in[node])

    def random_in_neighbor(self, node: int, rng: np.random.Generator) -> int | None:
        """Uniformly sample one in-neighbour of ``node``; ``None`` if it has none.

        This is the single step of a √c-walk / random walk along in-edges.
        """
        neighbors = self._in[node]
        if not neighbors:
            return None
        return neighbors[int(rng.integers(len(neighbors)))]

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise NodeNotFoundError(node)

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #

    def __contains__(self, node: object) -> bool:
        return isinstance(node, int) and 0 <= node < self.num_nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        if self.num_nodes != other.num_nodes or self.num_edges != other.num_edges:
            return False
        return self._out_sets == other._out_sets

    def __repr__(self) -> str:
        return f"DiGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
