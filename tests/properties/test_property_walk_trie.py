"""Property-based tests for the walk trie and the native level sweep.

Hypothesis drives random graphs and walk batches through the prefix trie
and the native engine's level-synchronous sweep
(:func:`repro.core.native.probe_trie`), pinning the invariants the sweep
relies on: trie multiplicities partition the walk budget, first-meeting
mass is a (sub-)probability, truncation is monotone in its tolerance, and
the sweep agrees with per-prefix probing on every generated instance.  The
sweep runs on the numpy fallback, and on the numba kernels too when numba
is installed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.native import HAVE_NUMBA, fallback, kernels, make_context, probe_trie
from repro.core.probe import probe_deterministic_vectorized
from repro.core.walk_trie import WalkTrie
from repro.core.walks import sample_walk_batch, truncation_length
from repro.graph import CSRGraph, DiGraph

SQRT_C = 0.7

#: sweep backends under test: the fallback always, the kernels once compiled
IMPLS = [fallback] + ([kernels] if HAVE_NUMBA else [])


def sweep(csr, trie, impl):
    """The native sweep's unnormalized accumulator for one trie."""
    return probe_trie(make_context(csr, SQRT_C), trie, impl)


@st.composite
def graph_walks(draw):
    """A random digraph plus a seeded √c-walk batch from one query node."""
    n = draw(st.integers(min_value=3, max_value=10))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, min_size=n, max_size=4 * n, unique=True))
    csr = CSRGraph.from_digraph(DiGraph.from_edges(edges, num_nodes=n))
    query = draw(st.integers(min_value=0, max_value=n - 1))
    count = draw(st.integers(min_value=1, max_value=80))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    walks = sample_walk_batch(csr, query, count, SQRT_C, rng, max_length=6)
    return csr, query, walks


class TestTrieInvariants:
    @given(graph_walks())
    @settings(max_examples=120, deadline=None)
    def test_multiplicities_partition_the_walk_budget(self, data):
        """Root weight is R; each level's weights sum to the number of walks
        still alive at that depth — non-increasing and never exceeding R."""
        _, _, walks = data
        trie = WalkTrie.from_walks(walks)
        assert trie.num_walks == len(walks)
        sums = trie.level_weight_sums()
        previous = trie.num_walks
        for depth, level_sum in enumerate(sums, start=2):
            alive = sum(1 for w in walks if len(w) >= depth)
            assert level_sum == alive
            assert level_sum <= previous
            previous = level_sum

    @given(graph_walks())
    @settings(max_examples=120, deadline=None)
    def test_parent_weight_covers_children(self, data):
        """A prefix's multiplicity is at least the sum of its extensions'."""
        _, _, walks = data
        trie = WalkTrie.from_walks(walks)
        for li in range(len(trie.levels) - 1):
            child_total = np.zeros(len(trie.levels[li]), dtype=np.int64)
            child = trie.levels[li + 1]
            np.add.at(child_total, child.parents, child.weights)
            assert np.all(child_total <= trie.levels[li].weights)

    @given(graph_walks())
    @settings(max_examples=80, deadline=None)
    def test_prefix_weights_count_matching_walks(self, data):
        _, _, walks = data
        trie = WalkTrie.from_walks(walks)
        for prefix, weight in trie.iter_prefixes():
            matching = sum(
                1 for w in walks if tuple(w[: len(prefix)]) == tuple(prefix)
            )
            assert weight == matching


@pytest.mark.parametrize("impl", IMPLS, ids=lambda impl: impl.__name__.rsplit(".", 1)[-1])
class TestProbeInvariants:
    @given(data=graph_walks())
    @settings(max_examples=100, deadline=None)
    def test_kernel_matches_per_prefix_probing(self, impl, data):
        """The level-synchronous sweep equals weighted per-prefix probes."""
        csr, _, walks = data
        trie = WalkTrie.from_walks(walks)
        shared = sweep(csr, trie, impl)
        expected = np.zeros(csr.num_nodes)
        for prefix, weight in trie.iter_prefixes():
            expected += weight * probe_deterministic_vectorized(csr, prefix, SQRT_C)
        np.testing.assert_allclose(shared, expected, rtol=0, atol=1e-9)

    @given(data=graph_walks())
    @settings(max_examples=100, deadline=None)
    def test_first_meeting_mass_is_a_subprobability(self, impl, data):
        """First meetings at different steps of one walk are disjoint events,
        so a single walk's accumulated score lies in [0, 1] per node — and a
        batch average therefore does too."""
        csr, _, walks = data
        for walk in walks[:5]:
            if len(walk) < 2:
                continue
            trie = WalkTrie.from_walks([walk])
            acc = sweep(csr, trie, impl)
            assert acc.min() >= 0.0
            assert acc.max() <= 1.0 + 1e-12
        trie = WalkTrie.from_walks(walks)
        estimates = sweep(csr, trie, impl) / len(walks)
        assert estimates.min() >= 0.0
        assert estimates.max() <= 1.0 + 1e-12

    @given(data=graph_walks())
    @settings(max_examples=60, deadline=None)
    def test_per_level_scores_bounded_by_survival(self, impl, data):
        """Each distinct prefix's probe is a probability vector bounded by
        the survival probability sqrt(c)^(depth-1) of the probing walk:
        sweeping a single-walk trie cut at ``depth`` yields exactly the
        sum of its prefixes' probes, each bounded that way."""
        csr, _, walks = data
        walk = max(walks, key=len)
        for depth in range(2, len(walk) + 1):
            alone = sweep(csr, WalkTrie.from_walks([walk[:depth]]), impl)
            shorter = sweep(csr, WalkTrie.from_walks([walk[: depth - 1]]), impl)
            scores = alone - shorter  # the depth-long prefix's own probe
            assert scores.min() >= -1e-12
            assert scores.max() <= SQRT_C ** (depth - 1) + 1e-12


class TestTruncationInvariants:
    @given(
        st.floats(min_value=1e-6, max_value=0.5),
        st.floats(min_value=1e-6, max_value=0.5),
        st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_truncation_length_monotone_in_eps_t(self, eps_a, eps_b, sqrt_c):
        """Tightening eps_t never shortens walks: l_t is non-increasing in
        eps_t (smaller tolerated truncation error => longer walks)."""
        lo, hi = sorted((eps_a, eps_b))
        assert truncation_length(lo, sqrt_c) >= truncation_length(hi, sqrt_c)
