"""The ProbeSim query engine (Algorithms 1, 3 and the §4 optimizations).

:class:`ProbeSim` answers approximate single-source and top-k SimRank queries
with the guarantee of Theorem 1/2: with probability at least ``1 - delta``,
every estimate is within ``eps_a`` of the true SimRank.  No index is built —
construction only snapshots the graph's adjacency into CSR arrays, which is
why the method supports dynamic graphs: after updates, :meth:`sync` (O(m),
just re-packing adjacency) brings the engine current, versus hours of index
reconstruction for SLING-style methods.

Strategies (``ProbeSimConfig.strategy``):

``basic``
    Algorithm 1: every walk prefix is probed independently.
``batch``
    Algorithm 3: walks are deduplicated in a reverse-reachability tree and
    each distinct prefix is probed once with the deterministic PROBE,
    weighted by its multiplicity.
``randomized``
    Algorithm 1 with the randomized PROBE (Algorithm 4) — O(n) per walk in
    expectation, the engine's best worst-case complexity.
``hybrid``
    §4.4: batch over the tree; each path starts deterministic and switches to
    ``weight`` randomized continuations when its frontier grows past
    ``c0 * weight * n`` out-degree mass.

Orthogonal to the strategy, ``ProbeSimConfig.engine`` selects how probes are
*executed*: ``"loop"`` is the per-prefix code path below (the paper-faithful
oracle), and ``"native"`` runs walk sampling, trie construction, and a
hybrid sparse/dense sweep through the compiled kernels of
:mod:`repro.core.native`, with a counter RNG keyed on ``(seed, query)`` that
makes every query's bits independent of call order and batch composition.
``"auto"`` (the default) picks ``native`` for the deterministic ``batch``
strategy on the vectorized backend and ``loop`` otherwise.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from repro.api.estimator import Capabilities, SimRankEstimator
from repro.core.config import ProbeSimConfig
from repro.core.native.rng import stream_base
from repro.core.probe import (
    frontier_edge_budget,
    probe_deterministic,
    propagate_frontier,
    prune_frontier,
)
from repro.core.randomized_probe import (
    probe_randomized,
    probe_randomized_from_membership,
)
from repro.core.results import SimRankResult
from repro.core.tree import ReachabilityTree
from repro.core.walks import sample_walk_batch
from repro.errors import QueryError
from repro.graph.csr import CSRGraph, as_csr
from repro.utils.rng import as_generator
from repro.utils.timer import Timer


@dataclass
class QueryStats:
    """Diagnostics from the most recent query (used by tests and ablations)."""

    num_walks: int = 0
    num_probes: int = 0
    num_tree_nodes: int = 0
    num_hybrid_switches: int = 0
    walk_length_total: int = 0
    elapsed: float = 0.0

    @property
    def mean_walk_length(self) -> float:
        return self.walk_length_total / self.num_walks if self.num_walks else 0.0


class ProbeSim(SimRankEstimator):
    """Index-free single-source / top-k SimRank (the paper's contribution).

    >>> from repro.graph import DiGraph
    >>> g = DiGraph.from_edges([(0, 1), (1, 0), (2, 0), (2, 1)])
    >>> engine = ProbeSim(g, eps_a=0.2, seed=7)
    >>> result = engine.single_source(0)
    >>> result.score(0)
    1.0

    The constructor accepts either a mutable :class:`DiGraph` (kept by
    reference; call :meth:`sync` after mutating it) or a frozen
    :class:`CSRGraph`.
    """

    def __init__(self, graph, config: ProbeSimConfig | None = None, **overrides) -> None:
        if config is None:
            config = ProbeSimConfig(**overrides)
        elif overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        self._source_graph = graph
        self._csr = as_csr(graph)
        self._rng = as_generator(config.seed)
        self.last_stats = QueryStats()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> CSRGraph:
        """The CSR snapshot queries run against."""
        return self._csr

    def sync(self) -> None:
        """Re-snapshot the source graph after external mutations.

        This is the *entire* maintenance cost of ProbeSim under dynamic
        graphs (O(m) array packing); there is no index to rebuild.
        """
        self._csr = as_csr(self._source_graph)

    def capabilities(self) -> Capabilities:
        """Approximate, index-free, dynamic-friendly (O(m) sync)."""
        resolved = self.config.resolved_engine()
        return Capabilities(
            method=self._method_label(),
            exact=False,
            index_based=False,
            supports_dynamic=True,
            incremental_updates=False,
            vectorized=resolved == "native",
            parallel_safe=True,
            native=resolved == "native",
        )

    def single_source(self, query: int) -> SimRankResult:
        """Approximate single-source query (Definition 1) from ``query``."""
        self._check_query(query)
        stats = QueryStats()
        timer = Timer()
        with timer:
            estimates = self._finalize(self._run(query, stats), query)
        stats.elapsed = timer.elapsed
        self.last_stats = stats
        return SimRankResult(
            query=query,
            scores=estimates,
            num_walks=stats.num_walks,
            elapsed=timer.elapsed,
            method=self._method_label(),
        )

    # single_source_many() and topk() are inherited from SimRankEstimator:
    # the query loop, and a sort of the single-source estimates
    # (Definition 2).  Native answers are pure per (seed, query), so the
    # loop is already bit-identical to any batching of it.

    # ------------------------------------------------------------------ #
    # strategy dispatch
    # ------------------------------------------------------------------ #

    def _method_label(self) -> str:
        """Result/capability label: strategy, or the explicit execution engine."""
        if self.config.engine == "native":
            return "probesim-native"
        return f"probesim-{self.config.strategy}"

    def _finalize(self, estimates: np.ndarray, query: int) -> np.ndarray:
        """Pin s(q, q) = 1 and apply the §4.1 truncation compensation."""
        cfg = self.config
        estimates[query] = 1.0
        if cfg.compensate_truncation and cfg.prune:
            # Truncation bias is one-sided (estimates undershoot by up to
            # eps_t); recentring halves its worst case (§4.1).
            estimates += cfg.budget.eps_t / 2.0
            estimates[query] = 1.0
        return estimates

    def _run(self, query: int, stats: QueryStats) -> np.ndarray:
        if self.config.resolved_engine() == "native":
            return self._run_native_engine(query, stats)
        strategy = self.config.strategy
        walks = self._sample_walks(query, stats)
        if strategy == "basic":
            return self._run_basic(walks, stats)
        if strategy == "randomized":
            return self._run_randomized(walks, stats)
        if strategy == "batch":
            return self._run_batch(walks, stats, hybrid=False)
        if strategy == "hybrid":
            return self._run_batch(walks, stats, hybrid=True)
        raise QueryError(f"unknown strategy {strategy!r}")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # native kernel engine (repro.core.native)
    # ------------------------------------------------------------------ #

    def _native_base(self, query: int) -> int:
        """The counter-RNG stream origin for one native query.

        With an integer seed (any :class:`numbers.Integral` but ``bool``,
        so numpy integers count) the origin is a pure function of
        ``(seed, query)`` — the bit-reproducibility contract: the same query
        returns the same bytes no matter when it runs, what ran before it,
        or how a serving tier batched it.  Without one there is nothing to
        reproduce, so the origin is drawn from the engine's shared RNG.
        """
        seed = self.config.seed
        if isinstance(seed, numbers.Integral) and not isinstance(seed, bool):
            return stream_base(int(seed), int(query))
        return stream_base(int(self._rng.integers(1 << 63)), int(query))

    def _run_native_engine(self, query: int, stats: QueryStats) -> np.ndarray:
        from repro.core import native

        cfg = self.config
        ctx = native.context_for(self._csr, cfg.sqrt_c)
        scores, trie = native.run_query(
            ctx,
            query,
            cfg.walk_count(self._csr.num_nodes),
            cfg.sqrt_c,
            cfg.walk_truncation(),
            self._native_base(query),
            native.resolve_impl(),
            kernel_trie=native.native_backend() == "numba",
        )
        stats.num_walks = trie.num_walks
        # every walk contributes its root step plus one per surviving level
        stats.walk_length_total = trie.num_walks + sum(trie.level_weight_sums())
        stats.num_tree_nodes = trie.num_tree_nodes
        stats.num_probes = trie.num_tree_nodes
        scores /= trie.num_walks
        return scores

    def _sample_walks(self, query: int, stats: QueryStats) -> list[list[int]]:
        cfg = self.config
        nr = cfg.walk_count(self._csr.num_nodes)
        max_len = cfg.walk_truncation()
        walks = sample_walk_batch(
            self._csr, query, nr, cfg.sqrt_c, self._rng, max_length=max_len
        )
        stats.num_walks = nr
        stats.walk_length_total = sum(len(w) for w in walks)
        return walks

    def _run_basic(self, walks: list[list[int]], stats: QueryStats) -> np.ndarray:
        cfg = self.config
        n = self._csr.num_nodes
        acc = np.zeros(n, dtype=np.float64)
        eps_p = cfg.prune_threshold()
        for walk in walks:
            for i in range(2, len(walk) + 1):
                acc += probe_deterministic(
                    self._csr, walk[:i], cfg.sqrt_c, eps_p, backend=cfg.backend
                )
                stats.num_probes += 1
        acc /= stats.num_walks
        return acc

    def _run_randomized(self, walks: list[list[int]], stats: QueryStats) -> np.ndarray:
        cfg = self.config
        n = self._csr.num_nodes
        acc = np.zeros(n, dtype=np.float64)
        for walk in walks:
            for i in range(2, len(walk) + 1):
                selected = probe_randomized(self._csr, walk[:i], cfg.sqrt_c, self._rng)
                if len(selected):
                    acc[selected] += 1.0
                stats.num_probes += 1
        acc /= stats.num_walks
        return acc

    def _run_batch(
        self, walks: list[list[int]], stats: QueryStats, hybrid: bool
    ) -> np.ndarray:
        if not walks:
            return np.zeros(self._csr.num_nodes, dtype=np.float64)
        tree = ReachabilityTree.from_walks(walks)
        return self.estimate_from_tree(tree, stats, hybrid=hybrid)

    def estimate_from_tree(
        self, tree: ReachabilityTree, stats: QueryStats | None = None, hybrid: bool | None = None
    ) -> np.ndarray:
        """Algorithm 3's probing loop over an existing reachability tree.

        Exposed separately so walk caches (:mod:`repro.extensions.walk_index`)
        can reuse precomputed trees; estimates are always probed against the
        engine's *current* graph snapshot.
        """
        cfg = self.config
        if stats is None:
            stats = QueryStats(num_walks=tree.num_walks)
        if hybrid is None:
            hybrid = cfg.strategy == "hybrid"
        n = self._csr.num_nodes
        acc = np.zeros(n, dtype=np.float64)
        stats.num_tree_nodes = tree.num_tree_nodes()
        nr = tree.num_walks
        eps_p = cfg.prune_threshold()
        for prefix, weight in tree.iter_prefixes():
            stats.num_probes += 1
            if hybrid:
                contribution = self._probe_path_hybrid(prefix, weight, eps_p, stats)
            else:
                contribution = weight * probe_deterministic(
                    self._csr, prefix, cfg.sqrt_c, eps_p, backend=cfg.backend
                )
            acc += contribution
        acc /= nr
        return acc

    # ------------------------------------------------------------------ #
    # §4.4 hybrid path probing
    # ------------------------------------------------------------------ #

    def _probe_path_hybrid(
        self,
        prefix: list[int],
        weight: int,
        eps_p: float,
        stats: QueryStats,
    ) -> np.ndarray:
        """Probe one tree path; start deterministic, switch to randomized when
        the frontier's out-degree mass exceeds ``c0 * weight * n``.

        Returns the path's weighted score contribution (already multiplied by
        ``weight``; the caller divides by ``nr``).
        """
        cfg = self.config
        graph = self._csr
        n = graph.num_nodes
        i = len(prefix)
        sqrt_c = cfg.sqrt_c
        switch_mass = cfg.hybrid_switch_constant * weight * n
        edge_budget = frontier_edge_budget(graph)

        score = np.zeros(n, dtype=np.float64)
        score[prefix[-1]] = 1.0
        frontier = np.array([prefix[-1]], dtype=np.int64)

        for j in range(i - 1):
            frontier = prune_frontier(score, frontier, sqrt_c ** (i - j - 1), eps_p)
            if len(frontier) == 0:
                return np.zeros(n, dtype=np.float64)
            if int(graph.out_degrees[frontier].sum()) > switch_mass:
                # Deterministic cost from here exceeds c0 * w * n: finish with
                # `weight` independent randomized continuations instead.
                # Membership is Bernoulli-sampled from the deterministic
                # marginals, preserving per-node unbiasedness (Lemma 6's
                # recursion only constrains level marginals).
                stats.num_hybrid_switches += 1
                contribution = np.zeros(n, dtype=np.float64)
                for _ in range(weight):
                    membership = self._rng.random(n) < score
                    selected = probe_randomized_from_membership(
                        graph, prefix, j, membership, sqrt_c, self._rng
                    )
                    if len(selected):
                        contribution[selected] += 1.0
                return contribution
            avoid = prefix[i - j - 2]
            score, frontier = propagate_frontier(
                graph, score, frontier, avoid, sqrt_c, edge_budget
            )
            if len(frontier) == 0:
                break
        return weight * score

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _check_query(self, query: int) -> None:
        if not isinstance(query, (int, np.integer)) or isinstance(query, bool):
            raise QueryError(f"query node must be an int, got {type(query).__name__}")
        if not 0 <= query < self._csr.num_nodes:
            raise QueryError(
                f"query node {query} out of range [0, {self._csr.num_nodes})"
            )

    def __repr__(self) -> str:
        return (
            f"ProbeSim(n={self._csr.num_nodes}, m={self._csr.num_edges}, "
            f"strategy={self.config.strategy!r}, eps_a={self.config.eps_a})"
        )
