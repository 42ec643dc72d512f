"""A batched, dynamic-graph SimRank query service.

:class:`SimRankService` is the serving layer the ROADMAP's "heavy traffic"
goal asks for: it owns one (mutable) graph plus any number of registered
estimators, answers single and batched queries, and keeps every estimator
current as the graph changes.

Batching
    :meth:`single_source_many` / :meth:`topk_many` deduplicate the batch:
    each *distinct* query is answered once and duplicates share the answer,
    so a hot-key request mix (the common serving shape) shares one round of
    √c-walk sampling per hot query per batch instead of re-sampling per
    request.  Per-estimator batches then flow through the protocol's
    :meth:`~repro.api.estimator.SimRankEstimator.single_source_many` hot path;
    methods advertising ``capabilities().vectorized`` (ProbeSim's native
    engine, e.g. registry name ``"probesim-native"``) run each distinct
    query as one level-synchronous sweep over its walk trie.

Updates
    :meth:`apply_edges` applies edge insertions/deletions to the owned graph
    and dispatches maintenance by capability: estimators advertising
    ``incremental_updates`` are notified per update (TSF's one-way-graph
    patching, the walk cache's fine-grained eviction), everything else gets
    one :meth:`~repro.api.estimator.SimRankEstimator.sync` at the end of the
    batch — or, with ``auto_sync=False``, a deferred sync the caller flushes
    with :meth:`sync` before the next read.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.api.estimator import SimRankEstimator
from repro.api.registry import create
from repro.errors import ConfigurationError, QueryError
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import EdgeUpdate, apply_update

__all__ = ["QueryServiceBase", "ServiceStats", "SimRankService"]


@dataclass
class ServiceStats:
    """Operational counters of one :class:`SimRankService` instance.

    ``maintenance_seconds`` accumulates wall-clock maintenance cost *per
    mounted method name* — incremental notification time and sync time both
    land there, so a workload driver can charge each estimator its own
    index-upkeep bill (the comparison the paper's dynamic argument is
    about).
    """

    queries: int = 0
    batches: int = 0
    batched_queries: int = 0
    batched_unique: int = 0
    updates_applied: int = 0
    syncs: int = 0
    incremental_notifications: int = 0
    #: graph generations published, i.e. full-rebuild syncs
    #: (process-parallel serving; 0 here)
    epochs: int = 0
    #: syncs served by O(Δ) delta propagation instead of an epoch rebuild
    #: (process-parallel serving; 0 here)
    delta_syncs: int = 0
    #: edge updates shipped through the delta path
    #: (process-parallel serving; 0 here)
    delta_updates: int = 0
    #: crashed worker processes revived (process-parallel serving; 0 here)
    worker_restarts: int = 0
    maintenance_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def batch_dedup_saved(self) -> int:
        """Queries answered from a batch-mate's result instead of recomputed."""
        return self.batched_queries - self.batched_unique

    @property
    def total_maintenance_seconds(self) -> float:
        """Maintenance wall-clock summed over every mounted method."""
        return sum(self.maintenance_seconds.values())

    def charge_maintenance(self, method: str, seconds: float) -> None:
        """Accumulate ``seconds`` of maintenance against ``method``."""
        self.maintenance_seconds[method] = (
            self.maintenance_seconds.get(method, 0.0) + seconds
        )

    def as_row(self) -> dict[str, object]:
        """Flat dict row for table rendering."""
        return {
            "queries": self.queries,
            "batches": self.batches,
            "dedup_saved": self.batch_dedup_saved,
            "updates": self.updates_applied,
            "syncs": self.syncs,
            "delta_syncs": self.delta_syncs,
            "maintenance_s": self.total_maintenance_seconds,
        }


class QueryServiceBase:
    """Protocol surface shared by the sequential and process-parallel services.

    Both serving layers — :class:`SimRankService` (estimators in-process)
    and :class:`repro.parallel.pool.ParallelSimRankService` (estimator
    replicas in worker processes) — speak the same verbs over the same
    bookkeeping: one owned graph, named mounted methods with a default,
    lock-guarded :class:`ServiceStats`, query-id normalisation, and top-k
    as a view over the batched single-source path.  This base holds that
    shared protocol; subclasses provide :meth:`_method_keys` (the mounted
    method names) and the query/maintenance execution itself.
    """

    def __init__(self, graph, default_method: str | None = None) -> None:
        self._graph = graph
        self._default = default_method
        self.stats = ServiceStats()  # guarded-by: _stats_lock
        self._stats_lock = threading.Lock()

    @property
    def graph(self):
        """The graph this service owns."""
        return self._graph

    @property
    def methods(self) -> list[str]:
        """Names the service can answer with, sorted."""
        return sorted(self._method_keys())

    def _method_keys(self):
        """The mounted method names (mapping or iterable); subclass hook."""
        raise NotImplementedError

    def _resolve_method(self, method: str | None) -> str:
        """Normalise ``method`` (default when None) to a mounted key.

        Raises
        ------
        ConfigurationError
            If no methods are mounted, or ``method`` names none of them.
        """
        key = method or self._default
        if key is None:
            raise ConfigurationError("service has no methods registered")
        if key not in self._method_keys():
            raise ConfigurationError(
                f"service has no method {key!r}; available: {self.methods}"
            )
        return key

    @staticmethod
    def _validate_configs(
        configs: dict[str, dict] | None, methods: Sequence[str]
    ) -> dict[str, dict]:
        """Reject configs naming methods the service does not mount."""
        configs = configs or {}
        unknown = sorted(set(configs) - set(methods))
        if unknown:
            raise ConfigurationError(
                f"configs given for unregistered service methods {unknown}"
            )
        return configs

    @staticmethod
    def _check_query_id(query) -> int:
        """Normalize one query id to int (full validation is per-estimator)."""
        if isinstance(query, bool) or not hasattr(query, "__index__"):
            raise QueryError(f"query node must be an int, got {type(query).__name__}")
        return int(query)

    def single_source_many(self, queries: Sequence[int], method: str | None = None):
        """A batch of single-source queries (execution is subclass-specific)."""
        raise NotImplementedError  # pragma: no cover - subclass hook

    def topk_many(
        self, queries: Sequence[int], k: int, method: str | None = None
    ) -> list:
        """Batched top-k: the top-k views of :meth:`single_source_many`.

        Raises
        ------
        QueryError
            If ``k`` is not positive, or a query id is not an int.
        """
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        return [result.topk(k) for result in self.single_source_many(queries, method)]

    def close(self) -> None:
        """Release any resources the service holds.  Idempotent.

        The in-process service has nothing to tear down; the process-parallel
        service overrides this to stop workers and unlink shared memory.
        """

    def __enter__(self):
        """Context-manager support: ``with service: ...`` guarantees
        :meth:`close` on exit, however the block ends."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class SimRankService(QueryServiceBase):
    """One graph, many estimators, batched queries, unified maintenance.

    >>> from repro.graph import DiGraph
    >>> g = DiGraph.from_edges([(0, 1), (1, 0), (2, 0), (2, 1)])
    >>> service = SimRankService(g, methods=("probesim",),
    ...                          configs={"probesim": {"eps_a": 0.2, "seed": 7}})
    >>> service.single_source(0).score(0)
    1.0

    Parameters
    ----------
    graph:
        The graph all estimators answer against.  A mutable
        :class:`~repro.graph.digraph.DiGraph` enables :meth:`apply_edges`;
        a frozen CSR snapshot restricts the service to read-only queries.
    methods:
        Registry names to instantiate up front (see :mod:`repro.api.registry`).
    configs:
        Optional per-method keyword configuration, ``{name: {key: value}}``.
    default_method:
        Method used when a query call passes ``method=None``
        (default: the first entry of ``methods``).
    auto_sync:
        When True (default), :meth:`apply_edges` immediately syncs every
        non-incremental estimator; when False, estimators are marked stale
        and synced on the next explicit :meth:`sync`.

    Raises
    ------
    ConfigurationError
        If ``configs`` names a method not in ``methods``, or
        ``default_method`` is not mounted.

    Thread model
    ------------
    Query calls (:meth:`single_source`, :meth:`topk`,
    :meth:`single_source_many`, :meth:`topk_many`) may run concurrently from
    multiple threads *as long as each mounted estimator is only driven by
    one thread at a time* — estimators own mutable RNG/scratch state, so
    mount one replica per worker (``add_method(name, alias=...)``) as the
    workload driver does.  Mutations (:meth:`apply_edges`,
    :meth:`apply_update_stream`, :meth:`sync`, :meth:`add_method`) must not
    run concurrently with queries.  The stats counters themselves are
    guarded by an internal lock on *both* the query and the maintenance
    paths, so the counters stay exact even while query threads and the
    maintenance thread overlap (the workload driver's executor does
    exactly that between batches).
    """

    def __init__(
        self,
        graph,
        methods: Sequence[str] = ("probesim",),
        configs: dict[str, dict] | None = None,
        default_method: str | None = None,
        auto_sync: bool = True,
    ) -> None:
        super().__init__(graph, default_method=None)
        self._estimators: dict[str, SimRankEstimator] = {}
        self.auto_sync = auto_sync
        self._stale: set[str] = set()  # guarded-by: _stats_lock
        configs = self._validate_configs(configs, methods)
        for name in methods:
            self.add_method(name, **configs.get(name, {}))
        if default_method is not None:
            if default_method not in self._estimators:
                raise ConfigurationError(
                    f"default_method {default_method!r} is not among "
                    f"{sorted(self._estimators)}"
                )
            self._default = default_method

    # ------------------------------------------------------------------ #
    # method management
    # ------------------------------------------------------------------ #

    def _method_keys(self):
        return self._estimators

    def add_method(self, name: str, alias: str | None = None, **config) -> SimRankEstimator:
        """Instantiate registry method ``name`` on the service's graph.

        ``alias`` stores the estimator under a different service-local name,
        so the same registry method can be mounted twice with different
        configurations (the workload driver mounts one replica per worker
        this way).  Returns the new estimator.

        Raises
        ------
        ConfigurationError
            If the service already has a method under that name/alias, the
            registry does not know ``name``, or ``config`` contains keys the
            method's factory does not accept.
        """
        key = alias or name
        if key in self._estimators:
            raise ConfigurationError(f"service already has a method named {key!r}")
        estimator = create(name, self._graph, **config)
        self._estimators[key] = estimator
        if self._default is None:
            self._default = key
        return estimator

    def estimator(self, method: str | None = None) -> SimRankEstimator:
        """The estimator serving ``method`` (default method when None).

        Raises
        ------
        ConfigurationError
            If no methods are mounted, or ``method`` names none of them.
        """
        return self._estimators[self._resolve_method(method)]

    def capabilities(self, method: str | None = None):
        """Capability descriptor of one served method."""
        return self.estimator(method).capabilities()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def single_source(self, query: int, method: str | None = None):
        """One single-source query via the selected method.

        Returns a :class:`~repro.core.results.SimRankResult`; raises
        :class:`ConfigurationError` for an unknown ``method`` and
        :class:`QueryError` for an invalid ``query``.
        """
        estimator = self.estimator(method)
        with self._stats_lock:
            self.stats.queries += 1
        return estimator.single_source(query)

    def topk(self, query: int, k: int, method: str | None = None):
        """One top-k query via the selected method.

        Returns a :class:`~repro.core.results.TopKResult`; raises
        :class:`ConfigurationError` for an unknown ``method`` and
        :class:`QueryError` for invalid ``query``/``k``.
        """
        estimator = self.estimator(method)
        with self._stats_lock:
            self.stats.queries += 1
        return estimator.topk(query, k)

    def single_source_many(
        self, queries: Sequence[int], method: str | None = None
    ) -> list:
        """A batch of single-source queries, deduplicated per batch.

        Distinct queries are answered through the estimator's batched
        :meth:`~repro.api.estimator.SimRankEstimator.single_source_many`;
        duplicate occurrences share the answer computed for their first
        occurrence (one walk-sampling round per hot key per batch).
        """
        estimator = self.estimator(method)
        batch = [self._check_query_id(query) for query in queries]
        distinct = list(dict.fromkeys(batch))
        results = estimator.single_source_many(distinct)
        by_query = dict(zip(distinct, results))
        with self._stats_lock:
            self.stats.queries += len(batch)
            self.stats.batches += 1
            self.stats.batched_queries += len(batch)
            self.stats.batched_unique += len(distinct)
        return [by_query[query] for query in batch]

    # topk_many comes from QueryServiceBase: the top-k views of
    # single_source_many, so batched top-k rides the deduplicated hot path.

    # ------------------------------------------------------------------ #
    # dynamic maintenance
    # ------------------------------------------------------------------ #

    def apply_edges(
        self,
        added: Iterable[tuple[int, int]] = (),
        removed: Iterable[tuple[int, int]] = (),
    ) -> int:
        """Apply edge insertions/deletions to the graph and maintain estimators.

        Returns the number of updates applied.  Insertions are applied before
        deletions in the order given; use :meth:`apply_update_stream` for an
        interleaved sequence.  Raises as :meth:`apply_update_stream` does
        (frozen graph, duplicate insert, delete of a missing edge).
        """
        updates = [EdgeUpdate("insert", int(s), int(t)) for s, t in added]
        updates += [EdgeUpdate("delete", int(s), int(t)) for s, t in removed]
        return self.apply_update_stream(updates)

    def apply_update_stream(self, updates: Iterable[EdgeUpdate]) -> int:
        """Apply an ordered update stream, notifying estimators by capability.

        Each update mutates the graph first; incremental estimators are then
        notified per update (their maintenance reads the post-update graph).
        Non-incremental estimators are synced once after the whole stream —
        immediately under ``auto_sync``, otherwise on the next :meth:`sync`.
        Notification and sync wall-clock is charged per method into
        ``stats.maintenance_seconds``.

        Returns
        -------
        int
            The number of updates applied to the graph.  On a mid-stream
            failure (an invalid update, or an estimator raising during
            notification) the count of *applied* updates is still recorded
            in ``stats.updates_applied`` and bulk estimators are still
            synced (or marked stale), so graph and estimators stay
            consistent; the exception then propagates.

        Raises
        ------
        ConfigurationError
            If the service owns a frozen (non-:class:`DiGraph`) snapshot.
        GraphError
            If an update is invalid against the current graph state (e.g.
            duplicate insert, delete of a missing edge).  The graph is left
            exactly as of the last valid update.
        """
        if not isinstance(self._graph, DiGraph):
            raise ConfigurationError(
                "apply_edges needs a mutable DiGraph; this service owns a "
                "frozen snapshot"
            )
        incremental = [
            (name, est)
            for name, est in self._estimators.items()
            if est.capabilities().incremental_updates
        ]
        bulk = [
            name for name, est in self._estimators.items()
            if not est.capabilities().incremental_updates
        ]
        count = 0
        try:
            for update in updates:
                apply_update(self._graph, update)
                # mark immediately (under the stats lock — queries running
                # on other threads are bumping the lock-guarded counters
                # concurrently): if a later update (or notification) in the
                # stream raises, already-applied mutations must still force
                # a sync rather than leave bulk estimators silently stale
                with self._stats_lock:
                    self._stale.update(bulk)
                count += 1
                for name, est in incremental:
                    started = time.perf_counter()
                    est.apply_updates([update])
                    with self._stats_lock:
                        self.stats.charge_maintenance(
                            name, time.perf_counter() - started
                        )
                        self.stats.incremental_notifications += 1
        finally:
            with self._stats_lock:
                self.stats.updates_applied += count
            if count and self.auto_sync:
                self.sync()
        return count

    def sync(self) -> None:
        """Flush deferred maintenance: sync every stale estimator.

        Sync wall-clock is charged per method into
        ``stats.maintenance_seconds``.  Idempotent: a second call with no
        intervening updates does nothing.  The stale set and the counters
        are only touched under the stats lock (concurrent query threads
        share it); each estimator is unmarked as it is synced, so a
        mid-flight failure retries exactly the estimators still stale.
        """
        with self._stats_lock:
            stale = sorted(self._stale)
        for name in stale:
            started = time.perf_counter()
            self._estimators[name].sync()
            with self._stats_lock:
                self.stats.charge_maintenance(name, time.perf_counter() - started)
                self.stats.syncs += 1
                self._stale.discard(name)

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        return (
            f"SimRankService(methods={self.methods}, default={self._default!r}, "
            f"queries={self.stats.queries})"
        )
