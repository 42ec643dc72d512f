"""Array-backed prefix trie of √c-walks (the native engine's probe plan).

:class:`~repro.core.tree.ReachabilityTree` stores Algorithm 3's walk trie as
linked Python objects — ideal for incremental insertion (the walk cache) but
slow to traverse once per probe.  :class:`WalkTrie` is the same structure
flattened into per-level numpy arrays, built in one vectorised pass over the
padded walk arrays of :func:`~repro.core.walks.sample_walk_arrays`:

- level ``d`` (depth ``d`` nodes, ``d >= 2``) holds three parallel arrays:
  ``nodes`` (graph node of each distinct length-``d`` prefix), ``parents``
  (index of the length-``d-1`` prefix it extends, into level ``d-1``'s
  arrays; level 2 parents all point at the root), and ``weights`` (how many
  sampled walks run through the prefix — Algorithm 3's multiplicity).
- within a level, entries are sorted by ``(parent, node)``, so siblings are
  contiguous and parents appear in column order — the native engine's
  level sweep (:func:`repro.core.native.probe_trie`) relies on this to
  merge child score columns into their parent.

Weight invariants (checked by the property suite): the root weight is the
number of inserted walks ``R``; every level's weights sum to the number of
walks still alive at that depth, so level sums are non-increasing in depth
and never exceed ``R``; and a node's weight equals the sum of its children's
weights plus the number of walks that *end* on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class TrieLevel:
    """All distinct walk prefixes of one depth, as parallel arrays."""

    nodes: np.ndarray  # int64 (k,) graph node of each prefix endpoint
    parents: np.ndarray  # int64 (k,) index into the previous level (sorted)
    weights: np.ndarray  # int64 (k,) number of walks through the prefix

    def __len__(self) -> int:
        return len(self.nodes)


class WalkTrie:
    """Prefix trie of a walk batch from one root, flattened per level.

    >>> import numpy as np
    >>> nodes = np.array([[0, 1, 2], [0, 1, -1], [0, -1, -1]], dtype=np.int32)
    >>> trie = WalkTrie.from_walk_arrays(nodes, np.array([3, 2, 1]))
    >>> trie.num_walks, trie.num_tree_nodes, trie.max_depth
    (3, 2, 3)
    >>> trie.levels[0].weights.tolist()  # two of three walks reach node 1
    [2]
    """

    def __init__(self, root: int, num_walks: int, levels: list[TrieLevel]) -> None:
        self.root = int(root)
        self.num_walks = int(num_walks)
        self.levels = levels  # levels[i] holds depth i + 2 prefixes

    @classmethod
    def from_walk_arrays(cls, nodes: np.ndarray, lengths: np.ndarray) -> "WalkTrie":
        """Build the trie from padded walk arrays in O(total walk length).

        ``nodes``/``lengths`` are the output of
        :func:`~repro.core.walks.sample_walk_arrays`: row ``i`` holds walk
        ``i`` padded with ``-1``.  All walks must share ``nodes[:, 0]`` (the
        query node — √c-walks from one source).
        """
        count = len(nodes)
        if count == 0:
            raise ValueError("need at least one walk")
        root = int(nodes[0, 0])
        if np.any(nodes[:, 0] != root):
            raise ValueError("walks in one trie must share their start node")
        levels: list[TrieLevel] = []
        # stride for packing (parent, node) pairs into one sortable int64 key
        stride = int(nodes.max()) + 2
        parent_of_walk = np.zeros(count, dtype=np.int64)  # all at the root
        for depth in range(2, int(lengths.max()) + 1):
            alive = lengths >= depth
            if not np.any(alive):
                break
            keys = parent_of_walk[alive] * stride + nodes[alive, depth - 1]
            distinct, inverse, counts = np.unique(
                keys, return_inverse=True, return_counts=True
            )
            levels.append(
                TrieLevel(
                    nodes=distinct % stride,
                    parents=distinct // stride,
                    weights=counts.astype(np.int64),
                )
            )
            parent_of_walk = np.full(count, -1, dtype=np.int64)
            parent_of_walk[alive] = inverse
        return cls(root=root, num_walks=count, levels=levels)

    @classmethod
    def from_walks(cls, walks: Sequence[Sequence[int]]) -> "WalkTrie":
        """Build from a list-of-lists walk batch (test/oracle convenience)."""
        if not walks:
            raise ValueError("need at least one walk")
        longest = max(len(w) for w in walks)
        nodes = np.full((len(walks), longest), -1, dtype=np.int64)
        lengths = np.empty(len(walks), dtype=np.int64)
        for i, walk in enumerate(walks):
            nodes[i, : len(walk)] = walk
            lengths[i] = len(walk)
        return cls.from_walk_arrays(nodes, lengths)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def max_depth(self) -> int:
        """Longest prefix length in nodes (1 when no walk left the root)."""
        return len(self.levels) + 1

    @property
    def num_tree_nodes(self) -> int:
        """Distinct non-root prefixes — exactly the probes Algorithm 3 runs."""
        return sum(len(level) for level in self.levels)

    def level_weight_sums(self) -> list[int]:
        """Total walk multiplicity per level (non-increasing, <= num_walks)."""
        return [int(level.weights.sum()) for level in self.levels]

    def iter_prefixes(self) -> Iterator[tuple[list[int], int]]:
        """Yield ``(prefix, weight)`` for every distinct probed prefix.

        Mirrors :meth:`repro.core.tree.ReachabilityTree.iter_prefixes` (used
        by the golden-equivalence suite to cross-check multiplicities);
        order is per level, sorted by ``(parent, node)``.
        """
        for li, level in enumerate(self.levels):
            for j in range(len(level)):
                prefix = [int(level.nodes[j])]
                parent = int(level.parents[j])
                for upper in range(li - 1, -1, -1):
                    prefix.append(int(self.levels[upper].nodes[parent]))
                    parent = int(self.levels[upper].parents[parent])
                prefix.append(self.root)
                yield prefix[::-1], int(level.weights[j])

    def __repr__(self) -> str:
        return (
            f"WalkTrie(root={self.root}, walks={self.num_walks}, "
            f"prefixes={self.num_tree_nodes}, depth={self.max_depth})"
        )
