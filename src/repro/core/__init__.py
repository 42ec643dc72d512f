"""The paper's primary contribution: the ProbeSim algorithm.

Public surface:

:class:`~repro.core.engine.ProbeSim`
    single-source and top-k SimRank queries (Algorithms 1 and 3 with all of
    §4's optimizations).
:class:`~repro.core.config.ProbeSimConfig`
    parameters and the Theorem 2 error-budget solver.
:class:`~repro.core.results.SimRankResult` / :class:`~repro.core.results.TopKResult`
    query result containers.
:class:`~repro.core.walk_trie.WalkTrie`
    the array-backed prefix trie the native engine sweeps (see below).

Execution engines
-----------------

ProbeSim's per-query cost is dominated by probing the sampled √c-walks.  The
**loop engine** (``engine="loop"``) follows the paper literally: every
distinct walk prefix in the reachability tree is probed by its own frontier
propagation, so a batch of ``R`` walks pays ``O(sum_t depth_t)``
interpreter-driven propagation steps.  It is the cross-validation oracle
(the transliteration of Algorithms 1-3), runs the ``python`` probe backend
on mutable graphs, and serves the ``randomized``/``hybrid`` strategies,
whose probes draw RNG per path.

The **native engine** (``engine="native"``, :mod:`repro.core.native`, and
what ``engine="auto"`` picks for ``strategy="batch"``) exploits two
algebraic facts:

1. all prefixes ending at the same trie level have the same number of
   propagation steps left, and
2. PROBE is linear in its start vector, while the "avoid" projection at each
   step depends only on the *parent* trie node — which siblings share.

So instead of one probe per prefix it seeds every distinct prefix of the
:class:`~repro.core.walk_trie.WalkTrie` with its walk multiplicity, merges
sibling columns into their parent, and advances a whole trie level per
step, sparse while the columns are narrow and as one dense matmul once
they widen.  Its walks come from a counter RNG keyed on
``(seed, query, walk, step)``, so with an integer seed every answer is a
pure function of ``(config, graph, query)``: call order and batch
composition never change a bit.  The native suite in ``tests/core`` checks
it against the loop engine's hash-map oracle (bit-for-bit on dyadic graphs,
to float round-off elsewhere); ``benchmarks/bench_native_engine.py``
measures the two engines side by side.
"""

from repro.core.config import ErrorBudget, ProbeSimConfig
from repro.core.engine import ProbeSim
from repro.core.probe import probe_deterministic
from repro.core.randomized_probe import probe_randomized
from repro.core.results import SimRankResult, TopKResult
from repro.core.tree import ReachabilityTree
from repro.core.walk_trie import WalkTrie
from repro.core.walks import sample_sqrt_c_walk, sample_walk_arrays, truncation_length

__all__ = [
    "ErrorBudget",
    "ProbeSim",
    "ProbeSimConfig",
    "ReachabilityTree",
    "SimRankResult",
    "TopKResult",
    "WalkTrie",
    "probe_deterministic",
    "probe_randomized",
    "sample_sqrt_c_walk",
    "sample_walk_arrays",
    "truncation_length",
]
