"""Unit tests for the reverse-reachability tree (Algorithm 3's trie) and
its array-backed twin, the native engine's :class:`WalkTrie`."""

import numpy as np
import pytest

from repro.core.tree import ReachabilityTree, TreeNode
from repro.core.walk_trie import WalkTrie
from repro.core.walks import sample_walk_batch


class TestInsertion:
    def test_root_weight_counts_walks(self):
        tree = ReachabilityTree(root=0)
        tree.insert_walk([0, 1])
        tree.insert_walk([0, 2])
        tree.insert_walk([0])
        assert tree.num_walks == 3

    def test_shared_prefix_accumulates_weight(self):
        tree = ReachabilityTree(root=0)
        tree.insert_walk([0, 1, 2])
        tree.insert_walk([0, 1, 3])
        prefixes = dict(
            (tuple(path), weight) for path, weight in tree.iter_prefixes()
        )
        assert prefixes[(0, 1)] == 2
        assert prefixes[(0, 1, 2)] == 1
        assert prefixes[(0, 1, 3)] == 1

    def test_paper_figure3_example(self):
        """Figure 3: tree of (a,b,c) and (a,c,a), then insert (a,b,a)."""
        a, b, c = 0, 1, 2
        tree = ReachabilityTree(root=a)
        tree.insert_walk([a, b, c])
        tree.insert_walk([a, c, a])
        tree.insert_walk([a, b, a])
        prefixes = dict((tuple(p), w) for p, w in tree.iter_prefixes())
        assert tree.num_walks == 3  # r1.weight = 3
        assert prefixes[(a, b)] == 2  # r2.weight = 2
        assert prefixes[(a, b, c)] == 1
        assert prefixes[(a, c)] == 1
        assert prefixes[(a, c, a)] == 1
        assert prefixes[(a, b, a)] == 1  # the new node r6

    def test_wrong_root_rejected(self):
        tree = ReachabilityTree(root=0)
        with pytest.raises(ValueError):
            tree.insert_walk([1, 0])

    def test_empty_walk_rejected(self):
        tree = ReachabilityTree(root=0)
        with pytest.raises(ValueError):
            tree.insert_walk([])

    def test_singleton_walks_add_no_prefixes(self):
        tree = ReachabilityTree(root=4)
        tree.insert_walk([4])
        assert tree.num_tree_nodes() == 0
        assert tree.num_walks == 1


class TestInvariants:
    def _random_walks(self, seed, count=200):
        import numpy as np

        rng = np.random.default_rng(seed)
        walks = []
        for _ in range(count):
            length = 1 + rng.geometric(0.35)
            walk = [0] + rng.integers(0, 6, size=length - 1).tolist()
            walks.append(walk)
        return walks

    def test_children_weights_bounded_by_parent(self):
        walks = self._random_walks(1)
        tree = ReachabilityTree.from_walks(walks)

        def check(node: TreeNode):
            child_total = sum(child.weight for child in node.children.values())
            assert child_total <= node.weight
            for child in node.children.values():
                check(child)

        check(tree.root)

    def test_prefix_weights_equal_walk_prefix_counts(self):
        walks = self._random_walks(2)
        tree = ReachabilityTree.from_walks(walks)
        for path, weight in tree.iter_prefixes():
            expected = sum(
                1 for walk in walks if tuple(walk[: len(path)]) == tuple(path)
            )
            assert weight == expected

    def test_every_walk_prefix_is_in_tree(self):
        walks = self._random_walks(3, count=50)
        tree = ReachabilityTree.from_walks(walks)
        prefixes = {tuple(p) for p, _ in tree.iter_prefixes()}
        for walk in walks:
            for i in range(2, len(walk) + 1):
                assert tuple(walk[:i]) in prefixes

    def test_max_depth(self):
        tree = ReachabilityTree(root=0)
        tree.insert_walk([0, 1, 2, 3, 4])
        tree.insert_walk([0, 1])
        assert tree.max_depth() == 5

    def test_max_depth_bare_root(self):
        assert ReachabilityTree(root=0).max_depth() == 1

    def test_from_walks_requires_nonempty(self):
        with pytest.raises(ValueError):
            ReachabilityTree.from_walks([])

    def test_repr(self):
        tree = ReachabilityTree.from_walks([[0, 1], [0, 2]])
        assert "walks=2" in repr(tree)


class TestWalkTrie:
    def test_multiplicities_match_reachability_tree(self, tiny_wiki_csr):
        rng = np.random.default_rng(3)
        walks = sample_walk_batch(tiny_wiki_csr, 5, 300, 0.7, rng, 7)
        tree = ReachabilityTree.from_walks(walks)
        trie = WalkTrie.from_walks(walks)
        assert trie.num_walks == tree.num_walks == 300
        assert trie.num_tree_nodes == tree.num_tree_nodes()
        assert trie.max_depth == tree.max_depth()
        tree_prefixes = {tuple(p): w for p, w in tree.iter_prefixes()}
        trie_prefixes = {tuple(p): w for p, w in trie.iter_prefixes()}
        assert trie_prefixes == tree_prefixes

    def test_rejects_mixed_roots_and_empty_batches(self):
        with pytest.raises(ValueError, match="share their start"):
            WalkTrie.from_walks([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="at least one walk"):
            WalkTrie.from_walks([])
