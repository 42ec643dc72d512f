"""Process-parallel SimRank serving over a shared-memory graph.

:class:`ParallelSimRankService` is the multi-core sibling of
:class:`~repro.api.service.SimRankService`: the same query/maintenance
surface (``single_source`` / ``topk`` / ``single_source_many`` /
``topk_many`` / ``apply_edges`` / ``sync``), but queries execute on a
persistent pool of **worker processes**, so sustained throughput scales
with cores instead of being GIL-bound.  The design separates shared data
from per-worker compute:

Shared graph
    The coordinator owns one :class:`~repro.parallel.shm.SharedCSRGraph`;
    every worker maps the adjacency arrays zero-copy
    (:mod:`repro.parallel.shm`).  Graph mutations stay coordinator-side;
    :meth:`ParallelSimRankService.sync` publishes a new graph *epoch* and
    barriers every worker onto it before the old generation is unlinked, so
    readers never see a half-applied update batch.

Worker replicas
    Each worker builds its own estimator replica per mounted method, seeded
    ``base_seed + worker_index`` (the same replica-derivation rule as the
    thread-pool workload driver), and rebuilds them at every epoch — RNG
    streams restart per epoch, which is what makes crash recovery exact.

Deterministic dispatch
    Batches are deduplicated, probed against the result cache, and the
    misses split positionally (``misses[w::workers]``) across workers; every
    worker consumes its share in order and results merge back in global
    batch order.  Replica results are therefore a pure function of
    ``(graph, configs, workers, call sequence)`` — bit-identical across
    runs, and bit-identical to ``executor="sequential"``, which replays the
    exact same partition/replay/rebuild schedule in-process (the oracle the
    correctness suite compares against).

Crash recovery
    A worker that dies mid-flight is respawned, rebuilt against the live
    epoch, and fast-forwarded by replaying the query sequence it had served
    since the last pool rebuild (recorded coordinator-side); the pending
    share is then re-dispatched.  Because replica RNG restarts at each
    rebuild, the replay reproduces the dead worker's stream exactly — a
    crash changes no answer, only latency.  The replay log is bounded: after
    ``history_limit`` queries on any worker the pool is proactively rebuilt
    in place (same graph, fresh deterministic streams), so update-free
    serving never accumulates unbounded history or unbounded recovery cost.

Result caching
    An update-aware LRU (:mod:`repro.parallel.cache`) keyed
    ``(method, query, epoch)`` answers repeat hot-key queries without
    touching a worker; full rebuilds invalidate whole generations, delta
    syncs invalidate only the touched neighborhood.  Note the cache returns
    the *first* computed estimate for a key — for randomized estimators any
    sample within the ``eps_a`` guarantee is a valid answer, so hits stay
    inside the paper's accuracy contract.

Delta maintenance (O(Δ) instead of O(m) per update burst)
    When every mounted method advertises
    ``capabilities().incremental_updates`` (TSF's one-way-graph patching,
    the walk cache's fine-grained eviction), :meth:`~ParallelSimRankService.sync`
    does not republish the graph at all.  The burst is appended to the
    shared graph's bounded edge-delta log
    (:meth:`~repro.parallel.shm.SharedCSRGraph.append_deltas`) and a
    ``("delta", …)`` RPC tells each worker to read the new entries, apply
    them in place to its local graph mirror, and notify its replicas via
    ``apply_updates`` — replica RNG streams *continue* instead of
    restarting, exactly like the sequential service's incremental path.
    The graph epoch stays put, so cached answers for untouched query nodes
    stay warm (:meth:`~repro.parallel.cache.ResultCache.invalidate_nodes`
    drops only the updated edges' 1-hop neighborhood).  Crash-replay
    histories record the delta stream interleaved with the queries, so a
    revived worker replays both in order and stays bit-exact.  When the
    bounded log cannot hold a burst the service *compacts*: one ordinary
    epoch rebuild folds every logged delta into a fresh CSR generation and
    empties the log.  The ``maintenance`` knob selects the path —
    ``"rebuild"`` forces epochs, ``"delta"`` requires incremental-capable
    mounts, ``"auto"`` (default) picks delta exactly when every mount
    supports it.

Methods whose registry capabilities set ``parallel_safe=False``
(rebuild-heavy static indexes) are rejected at mount time unless
``allow_unsafe=True``.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from typing import Iterable, Sequence

from repro.api.registry import get_entry
from repro.api.service import QueryServiceBase
from repro.errors import ConfigurationError, QueryError
from repro.graph.csr import CSRGraph, as_csr
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import EdgeUpdate, apply_update, touched_neighborhood
from repro.parallel.cache import ResultCache
from repro.parallel.shm import SharedCSRGraph
from repro.storage.snapshot import MappedSnapshot, attach_snapshot
from repro.utils.validation import check_positive_int

__all__ = ["ParallelSimRankService", "WorkerCrashed", "derive_replica_config"]

#: executors the service can run its workers on.
EXECUTORS = ("process", "sequential")

#: maintenance paths the service can run updates through.
MAINTENANCE_MODES = ("auto", "delta", "rebuild")


class WorkerCrashed(RuntimeError):
    """Internal signal: a worker process died; the dispatcher will revive it."""


def derive_replica_config(entry, config: dict, worker: int) -> dict:
    """Per-replica method configuration: offset the seed by ``worker``.

    Replica ``i`` of any run draws the same RNG stream — the single rule
    both the thread-pool workload driver and this service's workers use, so
    the two executors agree query-for-query wherever their schedules match.
    """
    config = dict(config)
    if "seed" in entry.config_keys:
        base = config.get("seed", 0) or 0
        config["seed"] = int(base) + worker
    return config


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #


class _WorkerCore:
    """One worker's estimator replicas; the logic shared by both executors.

    ``source`` is either a :class:`~repro.parallel.shm.ShmGraphDescriptor`
    (process executor — the core attaches the shared segment) or a
    :class:`CSRGraph` (sequential executor — used directly).  Everything
    downstream of that choice is identical, which is what makes the
    sequential executor a bit-exact oracle for the process one.
    """

    def __init__(self, worker_index: int) -> None:
        self.worker_index = worker_index
        self.shared: SharedCSRGraph | None = None
        self.csr: CSRGraph | None = None
        self.mirror: DiGraph | None = None
        self.delta_mode = False
        self.estimators: dict[str, object] = {}
        self.mounts: list[tuple[str, str, dict]] = []

    def _graph_from(self, source) -> CSRGraph:
        if isinstance(source, CSRGraph):
            return source
        if self.shared is None:
            self.shared = SharedCSRGraph.attach(source)
        else:
            self.shared.reattach(source)
        return self.shared.graph

    def build(
        self,
        source,
        mounts: list[tuple[str, str, dict]],
        delta_mode: bool = False,
    ) -> None:
        """Mount every replica against ``source`` (fresh RNG streams).

        Under ``delta_mode`` the replicas are built on a worker-local
        *mutable mirror* of the snapshot (``CSRGraph.to_digraph``) instead
        of the frozen arrays: incremental estimators read the live graph
        when notified, so the mirror is what :meth:`apply_delta` mutates in
        place.  The thaw keeps every CSR row's order, so the mirror's
        adjacency lists equal the coordinator graph's, which is what makes
        replicas agree bit-for-bit across executors.
        """
        self.mounts = list(mounts)
        self.delta_mode = bool(delta_mode)
        # drop old replicas AND the old graph before reattaching: the old
        # segment is unmapped underneath any view that survives this point
        self.estimators = {}
        self.csr = None
        self.mirror = None
        self.csr = self._graph_from(source)
        target = self.csr
        if self.delta_mode:
            self.mirror = self.csr.to_digraph()
            target = self.mirror
        for key, name, config in self.mounts:
            self.estimators[key] = get_entry(name).build(target, **config)

    def rebuild(self, source) -> None:
        """Epoch bump: reattach the new generation and rebuild replicas."""
        self.build(source, self.mounts, self.delta_mode)

    def resolve_delta(self, payload) -> tuple[EdgeUpdate, ...]:
        """Materialise one delta RPC payload into its update sequence.

        ``("log", start, stop)`` reads the triples zero-copy from the
        shared delta log (process executor); ``("inline", updates)``
        carries them in the message (sequential executor — it has no shared
        segment).  Both forms denote the same updates, so either replays
        identically during crash recovery.
        """
        tag, *rest = payload
        if tag == "log":
            start, stop = rest
            return self.shared.read_deltas(start, stop)
        return tuple(rest[0])

    def apply_delta(self, updates: Sequence[EdgeUpdate]) -> None:
        """Absorb an update burst in place: O(Δ), no replica rebuild.

        Mirrors the sequential service's incremental dispatch exactly:
        each update first mutates the local graph mirror, then every
        replica is notified with that single update (estimators read the
        post-update graph, and replica RNG streams continue).
        """
        if self.mirror is None:
            raise QueryError(
                "delta RPC on a worker built without delta maintenance"
            )
        for update in updates:
            apply_update(self.mirror, update)
            for key, _, _ in self.mounts:
                self.estimators[key].apply_updates([update])

    def query(self, key: str, kind: str, k: int | None, ops):
        """Answer ``(op_id, node)`` ops in order with the ``key`` replica."""
        estimator = self.estimators[key]
        if kind == "topk":
            return [(op_id, estimator.topk(node, k)) for op_id, node in ops]
        return [(op_id, estimator.single_source(node)) for op_id, node in ops]

    def shutdown(self) -> None:
        self.estimators = {}
        self.csr = None
        if self.shared is not None:
            self.shared.close()
            self.shared = None


def _worker_main(conn, worker_index: int) -> None:  # pragma: no cover
    """Process-executor entry point: serve RPCs until ``exit`` or EOF.

    Estimator-level exceptions are caught and shipped back as ``("error",
    …)`` replies — the worker survives them; only interpreter-level faults
    (or ``kill -9``) take it down, and those the coordinator heals.

    (Excluded from coverage: this body runs inside worker processes, out of
    the tracer's sight; the multiprocess suite exercises it end to end and
    the sequential executor keeps the shared `_WorkerCore` logic measured.)
    """
    core = _WorkerCore(worker_index)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            command, payload = message
            try:
                if command == "build":
                    core.build(*payload)
                    reply = ("ok", None)
                elif command == "epoch":
                    core.rebuild(payload)
                    reply = ("ok", None)
                elif command == "delta":
                    core.apply_delta(core.resolve_delta(payload))
                    reply = ("ok", None)
                elif command == "query":
                    reply = ("ok", core.query(*payload))
                elif command == "ping":
                    reply = ("ok", worker_index)
                elif command == "exit":
                    conn.send(("ok", None))
                    break
                else:  # pragma: no cover - protocol misuse
                    reply = ("error", ("ValueError", f"unknown command {command!r}", ""))
            except BaseException as exc:  # noqa: BLE001 - shipped to coordinator
                reply = ("error", (type(exc).__name__, str(exc), traceback.format_exc()))
            conn.send(reply)
    finally:
        core.shutdown()
        conn.close()


class _ProcessWorker:
    """Coordinator-side handle for one worker process (pipe + liveness)."""

    def __init__(self, ctx, index: int) -> None:
        self.index = index
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(child, index), daemon=True,
            name=f"repro-parallel-w{index}",
        )
        self.process.start()
        child.close()  # coordinator keeps only its end; EOF propagates cleanly

    def send(self, message) -> None:
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(f"worker {self.index} pipe closed") from exc

    def recv(self, timeout: float):
        deadline = time.monotonic() + timeout
        while not self.conn.poll(0.02):
            if not self.process.is_alive():
                raise WorkerCrashed(f"worker {self.index} died")
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"worker {self.index} did not reply within {timeout}s"
                )
        try:
            return self.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerCrashed(f"worker {self.index} died mid-reply") from exc

    def close(self, force: bool = False) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if force and self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.kill()
            self.process.join(timeout=5.0)


class _InlineWorker:
    """Sequential-executor handle: same RPC surface, runs in-process."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.core = _WorkerCore(index)
        self._reply = None

    def send(self, message) -> None:
        command, payload = message
        try:
            if command == "build":
                self.core.build(*payload)
                self._reply = ("ok", None)
            elif command == "epoch":
                self.core.rebuild(payload)
                self._reply = ("ok", None)
            elif command == "delta":
                self.core.apply_delta(self.core.resolve_delta(payload))
                self._reply = ("ok", None)
            elif command == "query":
                self._reply = ("ok", self.core.query(*payload))
            elif command in ("ping", "exit"):
                self._reply = ("ok", None)
            else:  # pragma: no cover - protocol misuse
                self._reply = ("error", ("ValueError", f"unknown {command!r}", ""))
        except Exception as exc:
            self._reply = ("error", (type(exc).__name__, str(exc), traceback.format_exc()))

    def recv(self, timeout: float):
        del timeout
        reply, self._reply = self._reply, None
        return reply

    def close(self, force: bool = False) -> None:
        del force
        self.core.shutdown()


# --------------------------------------------------------------------- #
# coordinator side
# --------------------------------------------------------------------- #


class ParallelSimRankService(QueryServiceBase):
    """Multiprocess SimRank serving: shared graph, worker pool, result cache.

    >>> from repro.graph import DiGraph
    >>> g = DiGraph.from_edges([(0, 1), (1, 0), (2, 0), (2, 1)])
    >>> with ParallelSimRankService(
    ...     g, methods=("probesim",), workers=2, executor="sequential",
    ...     configs={"probesim": {"eps_a": 0.2, "seed": 7}},
    ... ) as service:
    ...     service.single_source(0).score(0)
    1.0

    Parameters
    ----------
    graph:
        A mutable :class:`DiGraph` (enables :meth:`apply_edges`) or a frozen
        :class:`CSRGraph` (read-only service).  May be ``None`` when the
        graph comes from ``snapshot`` or ``store`` instead.
    snapshot:
        Path to a :mod:`repro.storage.snapshot` file to serve *read-only*.
        The coordinator never rebuilds the CSR: the process executor
        publishes the snapshot path as epoch 0 and every worker ``mmap``\\ s
        the file (one page-cache copy machine-wide); the sequential
        executor maps it in-process.  Mutually exclusive with ``graph`` and
        ``store``.
    store:
        An open :class:`~repro.storage.store.PersistentGraphStore` making
        this service *durable*: the graph is recovered from the store
        (``graph`` must be ``None``), every update burst is written ahead
        to the store's WAL before any worker sees it, and each rebuild sync
        (compaction) checkpoints a fresh snapshot generation.  After a
        crash, :func:`repro.storage.store.recover` lands exactly on the
        pre- or post-burst graph — never between.  The caller keeps
        ownership of the store handle (:meth:`close` does not close it).
    methods:
        Registry names to mount; each worker builds one replica per method.
        Methods whose capabilities declare ``parallel_safe=False`` are
        rejected unless ``allow_unsafe=True``.
    configs / default_method:
        As on :class:`~repro.api.service.SimRankService`.
    workers:
        Pool width (positive).  Throughput scales with cores for the
        ``process`` executor; ``sequential`` ignores parallelism but keeps
        the identical dispatch schedule (the determinism oracle).
    cache_size:
        Capacity of the coordinator-side update-aware result cache
        (``0`` disables it).
    auto_sync:
        When True (default) :meth:`apply_edges` immediately publishes a new
        epoch; when False the caller flushes with :meth:`sync`.
    maintenance:
        Update-maintenance path: ``"rebuild"`` (every sync publishes a new
        graph epoch and rebuilds all replicas — O(m) per burst),
        ``"delta"`` (syncs ship the edge deltas and replicas absorb them in
        place via ``apply_updates`` — O(Δ); requires every mounted method
        to advertise ``capabilities().incremental_updates`` and a mutable
        :class:`DiGraph`), or ``"auto"`` (default: delta exactly when every
        mount supports it).  See the module docstring for the full model.
    delta_log_capacity:
        Bound of the shared edge-delta log (entries).  A sync whose
        accumulated deltas would overflow the log *compacts* instead: one
        full epoch rebuild folds the log into a fresh CSR generation.
    executor:
        ``"process"`` (default) or ``"sequential"``.
    start_method:
        ``multiprocessing`` start method for the process executor
        (default: ``fork`` where available, else ``spawn``).
    rpc_timeout:
        Seconds to wait on a worker reply before the worker is treated as
        hung and replaced (a liveness backstop, not a latency budget).
    history_limit:
        Queries any one worker may serve before the pool is proactively
        rebuilt in place, bounding crash-recovery replay cost and the
        coordinator-side history memory.  The trigger depends only on the
        call sequence, so rollovers preserve bit-reproducibility.

    Always :meth:`close` the service (or use it as a context manager):
    that tears down the pool and unlinks the shared-memory segments.  A
    finalizer on the shared graph unlinks the segments even if ``close`` is
    never called, so crashes cannot leak ``/dev/shm`` entries.
    """

    def __init__(
        self,
        graph=None,
        methods: Sequence[str] = ("probesim",),
        configs: dict[str, dict] | None = None,
        default_method: str | None = None,
        workers: int = 2,
        cache_size: int = 0,
        auto_sync: bool = True,
        maintenance: str = "auto",
        delta_log_capacity: int = 256,
        executor: str = "process",
        start_method: str | None = None,
        allow_unsafe: bool = False,
        rpc_timeout: float = 300.0,
        history_limit: int = 10_000,
        snapshot=None,
        store=None,
    ) -> None:
        check_positive_int("workers", workers)
        check_positive_int("history_limit", history_limit)
        check_positive_int("delta_log_capacity", delta_log_capacity)
        if executor not in EXECUTORS:
            raise ConfigurationError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if snapshot is not None and (graph is not None or store is not None):
            raise ConfigurationError(
                "snapshot= serves a frozen file; pass it without graph/store"
            )
        if store is not None and graph is not None:
            raise ConfigurationError(
                "pass either graph or store=, not both — a durable service "
                "recovers its graph from the store"
            )
        if graph is None and snapshot is None and store is None:
            raise ConfigurationError("need one of graph, snapshot=, or store=")
        if store is not None:
            graph = store.materialize()
        if maintenance not in MAINTENANCE_MODES:
            raise ConfigurationError(
                f"maintenance must be one of {MAINTENANCE_MODES}, "
                f"got {maintenance!r}"
            )
        if not methods:
            raise ConfigurationError("need at least one method to serve")
        super().__init__(graph, default_method=default_method)
        self.workers = int(workers)
        self.executor = executor
        self.auto_sync = auto_sync
        self.rpc_timeout = float(rpc_timeout)
        self.history_limit = int(history_limit)
        self.cache = ResultCache(cache_size)
        self._digraph = graph if isinstance(graph, DiGraph) else None
        self._mounts: dict[str, tuple[str, dict]] = {}
        configs = self._validate_configs(configs, methods)
        for name in methods:
            entry = get_entry(name)
            caps = entry.capabilities
            if caps is not None and not caps.parallel_safe and not allow_unsafe:
                raise ConfigurationError(
                    f"method {name!r} is not parallel_safe (its per-worker "
                    "epoch rebuild is impractical); pass allow_unsafe=True "
                    "to mount it anyway"
                )
            config = dict(configs.get(name, {}))
            unknown = sorted(set(config) - set(entry.config_keys))
            if unknown:  # fail fast here, not inside a worker build
                raise ConfigurationError(
                    f"method {name!r} does not accept config keys {unknown}; "
                    f"allowed: {sorted(entry.config_keys)}"
                )
            self._mounts[name] = (name, config)
        if self._default is None:
            self._default = next(iter(self._mounts))
        elif self._default not in self._mounts:
            raise ConfigurationError(
                f"default_method {self._default!r} is not among "
                f"{sorted(self._mounts)}"
            )
        self.delta_log_capacity = int(delta_log_capacity)
        self._maintenance = self._resolve_maintenance(maintenance)

        self._epoch = 0
        self._graph_stale = False
        self._closed = False
        self._single_rr = 0  # round-robin cursor for lone single_source calls
        #: per-worker crash-replay log: replayable RPC messages in order
        #: (single-op "query" messages interleaved with "delta" messages)
        self._histories: list[list[tuple[str, tuple]]] = [
            [] for _ in range(self.workers)
        ]
        #: per-worker count of *query* messages in the history — the
        #: rollover trigger.  Kept separately so the epoch's delta stream
        #: (bounded by the log capacity, and re-shipped by every rollover)
        #: can never re-trip the bound on its own.
        self._history_queries: list[int] = [0] * self.workers
        #: delta payloads shipped since the live epoch was published — the
        #: stream a rollover re-ships after its in-place rebuild
        self._delta_payloads: list[tuple] = []
        self._deltas_since_epoch = 0
        self._pending_updates: list[EdgeUpdate] = []
        self._touched_pending: set[int] = set()
        self._store = store
        self._store_logged = 0  # pending updates already in the store's WAL
        self._snapshot_handle: MappedSnapshot | None = None
        self._shm: SharedCSRGraph | None = None
        self._csr: CSRGraph | None = None
        self._workers: list = []
        try:
            if snapshot is not None:
                # warm attach: the CSR is never rebuilt, the snapshot file
                # itself backs every mapping (coordinator and workers alike)
                if executor == "process":
                    self._shm = SharedCSRGraph.from_snapshot(snapshot)
                    self._epoch = self._shm.current_epoch()
                    self._num_nodes = self._shm.descriptor.num_nodes
                    self._graph = self._shm.graph
                else:
                    self._snapshot_handle = attach_snapshot(snapshot)
                    self._csr = self._snapshot_handle.graph()
                    self._num_nodes = self._csr.num_nodes
                    self._graph = self._csr
            else:
                csr = as_csr(graph)
                self._num_nodes = csr.num_nodes
                if executor == "process":
                    self._shm = SharedCSRGraph.create(
                        csr,
                        delta_capacity=(
                            self.delta_log_capacity
                            if self._maintenance == "delta" else 0
                        ),
                    )
                    self._epoch = self._shm.current_epoch()
                else:
                    self._csr = csr
            if start_method is None:
                available = multiprocessing.get_all_start_methods()
                start_method = "fork" if "fork" in available else "spawn"
            self._ctx = multiprocessing.get_context(start_method)
            for index in range(self.workers):
                self._workers.append(self._spawn(index))
            for index in range(self.workers):
                self._build_worker(index)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # pool plumbing
    # ------------------------------------------------------------------ #

    def _method_keys(self) -> Iterable[str]:
        return self._mounts

    def _resolve_maintenance(self, requested: str) -> str:
        """Resolve the ``maintenance`` knob to ``"delta"`` or ``"rebuild"``.

        Delta maintenance is sound only when every replica can absorb an
        update in place — i.e. every mounted method declares
        ``incremental_updates`` — and when there is a mutable graph to
        produce updates at all.  ``"auto"`` degrades to ``"rebuild"``
        quietly; an explicit ``"delta"`` request that cannot be honoured is
        a configuration error, not a silent downgrade.
        """
        non_incremental = sorted(
            key for key, (name, _) in self._mounts.items()
            if get_entry(name).capabilities is None
            or not get_entry(name).capabilities.incremental_updates
        )
        if requested == "rebuild":
            return "rebuild"
        if requested == "delta":
            if non_incremental:
                raise ConfigurationError(
                    "maintenance='delta' needs every mounted method to "
                    "support incremental_updates; these do not: "
                    f"{non_incremental}"
                )
            if self._digraph is None:
                raise ConfigurationError(
                    "maintenance='delta' needs a mutable DiGraph; this "
                    "service owns a frozen snapshot"
                )
            return "delta"
        return (
            "delta" if not non_incremental and self._digraph is not None
            else "rebuild"
        )

    @property
    def maintenance(self) -> str:
        """The resolved maintenance path: ``"delta"`` or ``"rebuild"``."""
        return self._maintenance

    def _spawn(self, index: int):
        if self.executor == "sequential":
            return _InlineWorker(index)
        return _ProcessWorker(self._ctx, index)

    def _worker_source(self):
        """What workers build against: a descriptor (process) or the CSR."""
        if self._shm is not None:
            return self._shm.descriptor
        return self._csr

    def _worker_mounts(self, index: int) -> list[tuple[str, str, dict]]:
        return [
            (key, name, derive_replica_config(get_entry(name), config, index))
            for key, (name, config) in self._mounts.items()
        ]

    def _build_worker(self, index: int) -> None:
        worker = self._workers[index]
        worker.send((
            "build",
            (
                self._worker_source(),
                self._worker_mounts(index),
                self._maintenance == "delta",
            ),
        ))
        self._expect_ok(worker.recv(self.rpc_timeout))

    def _revive(self, index: int) -> None:
        """Respawn a dead worker and fast-forward it to the live RNG state.

        The replay re-runs every message the worker served since the
        current epoch began — queries (results discarded) *and* delta
        bursts, in their original interleaving; replica RNG restarts at
        each epoch, so afterwards the replacement's graph mirror and RNG
        streams match the dead worker's exactly and determinism survives
        the crash.
        """
        self._workers[index].close(force=True)
        self._workers[index] = self._spawn(index)
        self._build_worker(index)
        worker = self._workers[index]
        for message in self._histories[index]:
            worker.send(message)
            self._expect_ok(worker.recv(self.rpc_timeout))
        with self._stats_lock:
            self.stats.worker_restarts += 1

    def _rebarrier(self, replay_deltas: bool = False) -> None:
        """Rebuild every worker against the current source, clearing the
        replay histories (replica RNG streams restart deterministically).

        Under delta maintenance the live epoch's graph generation predates
        the shipped deltas, so an in-place rebuild (``replay_deltas=True``
        — the history-bounding rollover) must re-ship the epoch's delta
        stream to bring the fresh mirrors back to the served graph state;
        after a *publish* the new generation already folds the deltas in
        and the stream is dropped instead.
        """
        self._histories = [[] for _ in range(self.workers)]
        self._history_queries = [0] * self.workers
        source = self._worker_source()
        self._rpc_all({w: ("epoch", source) for w in range(self.workers)})
        if replay_deltas:
            for payload in self._delta_payloads:
                self._rpc_all(
                    {w: ("delta", payload) for w in range(self.workers)}
                )
        else:
            self._delta_payloads = []
            self._deltas_since_epoch = 0

    def _maybe_rollover(self) -> None:
        """Bound the crash-replay history on long-serving epochs.

        Once any worker has served ``history_limit`` *queries* since the
        last rebuild, the pool is rebuilt in place: same graph generation,
        fresh per-worker RNG streams, histories reduced to the epoch's
        delta stream (re-shipped so the fresh mirrors match the served
        graph — its length is bounded by the log capacity, and it does not
        count toward the trigger, so a delta-heavy epoch cannot make every
        query roll the pool over).  The trigger is a pure function of the
        call sequence, so results stay bit-reproducible; cached answers
        stay valid because the graph epoch is unchanged.
        """
        if max(self._history_queries, default=0) >= self.history_limit:
            self._rebarrier(replay_deltas=True)

    def _expect_ok(self, reply):
        status, payload = reply
        if status == "ok":
            return payload
        name, message, trace = payload
        raise QueryError(
            f"worker raised {name}: {message}\n--- worker traceback ---\n{trace}"
        )

    def _record_history(self, index: int, message) -> None:
        """Append a successful message to the worker's replay history.

        Query messages are split into single-op messages (the rollover
        bound counts ops, and replay re-sends them one at a time); delta
        messages are recorded whole, in their position between the queries
        — the interleaving is what makes a crash replay reproduce the dead
        worker's graph mirror and RNG streams exactly.  Recording happens
        the moment the worker's reply is confirmed — not after the whole
        batch — so the replay log stays accurate even when a batch-mate
        errors or crashes mid-dispatch.
        """
        command, payload = message
        if command == "query":
            key, kind, k, ops = payload
            self._histories[index].extend(
                ("query", (key, kind, k, [(0, node)])) for _, node in ops
            )
            self._history_queries[index] += len(ops)
        elif command == "delta":
            self._histories[index].append(message)

    def _rpc_all(self, assignments: dict[int, tuple]) -> dict[int, object]:
        """Send one message per worker, gather replies, healing crashes.

        ``assignments`` maps worker index → message.  Crashed (or hung —
        ``rpc_timeout`` is the liveness backstop) workers are revived and
        their message re-sent.  Estimator-level errors raise only after
        every in-flight reply has been drained, so the request/reply pipes
        can never desynchronise.
        """
        pending = dict(assignments)
        replies: dict[int, object] = {}
        errors: list[BaseException] = []
        attempts = 0
        while pending:
            attempts += 1
            if attempts > 3 * max(len(assignments), 1):
                raise QueryError("workers keep crashing; giving up dispatch")
            sent = []
            crashed = []
            for index, message in pending.items():
                try:
                    self._workers[index].send(message)
                    sent.append(index)
                except WorkerCrashed:
                    crashed.append(index)
            for index in sent:
                try:
                    reply = self._workers[index].recv(self.rpc_timeout)
                except (WorkerCrashed, TimeoutError):
                    # a hung worker is indistinguishable from a dead one,
                    # and its late reply would poison the pipe: replace it
                    crashed.append(index)
                    continue
                del pending[index]
                try:
                    replies[index] = self._expect_ok(reply)
                    self._record_history(index, assignments[index])
                except QueryError as exc:
                    errors.append(exc)  # drain the rest before raising
            for index in crashed:
                try:
                    self._revive(index)
                except (WorkerCrashed, TimeoutError):
                    # the replacement died during build/replay too; its
                    # message is still pending, so the next attempt retries
                    # (and eventually trips the attempts cap above) instead
                    # of leaking the internal crash signal to callers
                    continue
        if errors:
            raise errors[0]
        return replies

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def single_source(self, query: int, method: str | None = None):
        """One single-source query (cache-probed, one worker round-trip)."""
        key = self._resolve_method(method)
        node = self._check_query_node(query)
        self._maybe_rollover()
        with self._stats_lock:
            self.stats.queries += 1
        cached = self.cache.get(key, node, self._epoch)
        if cached is not None:
            return cached
        index = self._single_rr % self.workers
        self._single_rr += 1
        records = self._rpc_all(
            {index: ("query", (key, "single_source", None, [(0, node)]))}
        )[index]
        result = records[0][1]
        self.cache.put(key, node, self._epoch, result)
        return result

    def topk(self, query: int, k: int, method: str | None = None):
        """One top-k query via the estimator's native top-k path.

        Dispatching ``topk`` (rather than slicing a cached single-source
        answer) preserves estimator-specific top-k behaviour such as
        adaptive early stopping; it therefore bypasses the result cache.
        """
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        key = self._resolve_method(method)
        node = self._check_query_node(query)
        self._maybe_rollover()
        with self._stats_lock:
            self.stats.queries += 1
        index = self._single_rr % self.workers
        self._single_rr += 1
        records = self._rpc_all(
            {index: ("query", (key, "topk", int(k), [(0, node)]))}
        )[index]
        return records[0][1]

    def single_source_many(
        self, queries: Sequence[int], method: str | None = None
    ) -> list:
        """A deduplicated batch, fanned out positionally across the pool.

        Distinct cache-missing queries are split ``misses[w::workers]``;
        worker ``w`` answers its share in order and the results merge back
        deterministically.  Duplicates and cache hits share answers.
        """
        key = self._resolve_method(method)
        batch = [self._check_query_node(query) for query in queries]
        self._maybe_rollover()
        distinct = list(dict.fromkeys(batch))
        by_query: dict[int, object] = {}
        misses = []
        for node in distinct:
            cached = self.cache.get(key, node, self._epoch)
            if cached is not None:
                by_query[node] = cached
            else:
                misses.append(node)
        ops = list(enumerate(misses))
        assignments = {
            w: ("query", (key, "single_source", None, ops[w :: self.workers]))
            for w in range(self.workers)
            if ops[w :: self.workers]
        }
        replies = self._rpc_all(assignments)
        merged = sorted(
            (op_id, result) for records in replies.values()
            for op_id, result in records
        )
        for op_id, result in merged:
            node = misses[op_id]
            by_query[node] = result
            self.cache.put(key, node, self._epoch, result)
        with self._stats_lock:
            self.stats.queries += len(batch)
            self.stats.batches += 1
            self.stats.batched_queries += len(batch)
            self.stats.batched_unique += len(distinct)
        return [by_query[node] for node in batch]

    # topk_many comes from QueryServiceBase: top-k views of the batched
    # single-source path, exactly like the sequential service.

    def capabilities(self, method: str | None = None):
        """Registry-declared capability descriptor of one served method."""
        name, _ = self._mounts[self._resolve_method(method)]
        return get_entry(name).capabilities

    # ------------------------------------------------------------------ #
    # dynamic maintenance
    # ------------------------------------------------------------------ #

    @property
    def epoch(self) -> int:
        """The graph generation queries are currently answered against."""
        return self._epoch

    def apply_edges(
        self,
        added: Iterable[tuple[int, int]] = (),
        removed: Iterable[tuple[int, int]] = (),
    ) -> int:
        """Apply edge insertions then deletions; maintain via :meth:`sync`."""
        updates = [EdgeUpdate("insert", int(s), int(t)) for s, t in added]
        updates += [EdgeUpdate("delete", int(s), int(t)) for s, t in removed]
        return self.apply_update_stream(updates)

    def apply_update_stream(self, updates: Iterable[EdgeUpdate]) -> int:
        """Apply an ordered update stream to the coordinator's graph.

        Workers keep serving the previous state until :meth:`sync` ships
        it (immediately under ``auto_sync``): as an O(Δ) delta burst when
        the resolved ``maintenance`` path is ``"delta"``, as an O(m) epoch
        rebuild otherwise.  The updates (and the neighborhood they touch —
        read *before* each update lands, see
        :func:`~repro.graph.dynamic.touched_neighborhood`) are accumulated
        here so a later deferred sync ships exactly this stream.
        """
        if self._digraph is None:
            raise ConfigurationError(
                "apply_edges needs a mutable DiGraph; this service owns a "
                "frozen snapshot"
            )
        count = 0
        track_deltas = self._maintenance == "delta"
        try:
            for update in updates:
                # neighborhood read before the edge flips (see the helper's
                # pre/post equivalence note), but recorded — like the
                # update itself — only once the mutation succeeded: a
                # rejected update must never reach a worker mirror
                touched = (
                    touched_neighborhood(self._digraph, (update,))
                    if track_deltas else None
                )
                apply_update(self._digraph, update)
                if track_deltas:  # rebuild syncs never read the accumulators
                    self._touched_pending |= touched
                    self._pending_updates.append(update)
                self._graph_stale = True
                count += 1
        finally:
            with self._stats_lock:
                self.stats.updates_applied += count
            if count and self.auto_sync:
                self.sync()
        return count

    def sync(self) -> None:
        """Ship the accumulated graph mutations to the worker pool.

        Delta path (resolved ``maintenance == "delta"``, and the bounded
        log can hold the burst): append the pending updates to the shared
        edge-delta log, RPC every worker to absorb them in place
        (``apply_updates`` on each replica — RNG streams continue), and
        invalidate only the cache entries whose query node falls in the
        touched neighborhood.  O(Δ); the graph epoch does not move.

        Rebuild path (``maintenance == "rebuild"``, or the log overflowed
        — *compaction*): snapshot the coordinator graph, publish it as a
        fresh shared-memory generation, rebuild every worker's replicas
        against it, invalidate every superseded cache entry, and only then
        unlink the previous generation.  O(m); empties the delta log.

        Idempotent when nothing changed.  Wall-clock is charged to
        ``stats.maintenance_seconds`` split evenly across the mounted
        methods; ``stats.delta_syncs`` / ``stats.epochs`` count which path
        each sync took.
        """
        if not self._graph_stale:
            return
        started = time.perf_counter()
        pending = tuple(self._pending_updates)
        if self._store is not None and len(pending) > self._store_logged:
            # write-ahead: the burst is durable before any worker serves it,
            # so crash recovery lands on the pre- or post-burst graph, never
            # between.  Only the not-yet-logged suffix is appended — a sync
            # retried after a failed dispatch must not duplicate records
            # (replaying a duplicate insert would not apply).
            self._store.log(pending[self._store_logged:])
            self._store_logged = len(pending)
        # the burst must be non-empty for the delta path: a stale graph
        # with nothing pending only occurs while recovering from an earlier
        # failed sync, and recovery is exactly what the rebuild provides
        use_delta = (
            self._maintenance == "delta"
            and bool(pending)
            and self._deltas_since_epoch + len(pending)
            <= self.delta_log_capacity
        )
        delta_error: BaseException | None = None
        if use_delta:
            try:
                self._sync_delta(pending)
            except Exception as exc:
                # a mid-burst failure (an estimator raising in
                # apply_updates, a worker crash storm) can leave some
                # mirrors updated and others not, with the burst already in
                # the shared log: fall through to a healing compaction.
                # The fresh generation rebuilds every replica from the
                # coordinator graph and empties the log, so the service is
                # consistent again when the error surfaces — mirroring the
                # sequential service's "synced over the applied prefix"
                # guarantee.
                delta_error = exc
        if not use_delta or delta_error is not None:
            # if the rebuild itself raises, every accumulator (and
            # _graph_stale) is left intact, so a later sync() retries with
            # the full record instead of silently shipping nothing
            self._sync_rebuild()
        # only a completed path — delta absorbed in place, or a rebuild
        # that folded everything into the fresh generation — spends the
        # pending record and the staleness flag
        self._pending_updates = []
        self._touched_pending = set()
        self._store_logged = 0
        self._graph_stale = False
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self.stats.syncs += 1
            for key in self._mounts:
                self.stats.charge_maintenance(key, elapsed / len(self._mounts))
        if delta_error is not None:
            raise delta_error

    def _sync_delta(self, pending: tuple[EdgeUpdate, ...]) -> None:
        """O(Δ) maintenance: ship ``pending`` for in-place absorption."""
        if self._shm is not None:
            start, stop = self._shm.append_deltas(pending)
            payload = ("log", start, stop)
        else:
            payload = ("inline", pending)
        self._rpc_all({w: ("delta", payload) for w in range(self.workers)})
        self._delta_payloads.append(payload)
        self._deltas_since_epoch += len(pending)
        self.cache.invalidate_nodes(self._touched_pending)
        with self._stats_lock:
            self.stats.delta_syncs += 1
            self.stats.delta_updates += len(pending)
            self.stats.incremental_notifications += (
                len(pending) * len(self._mounts)
            )

    def _sync_rebuild(self) -> None:
        """O(m) maintenance: publish a fresh epoch and rebarrier the pool.

        Under delta maintenance this is *compaction* — the new generation
        folds every logged delta (plus the burst that overflowed the log)
        into its CSR arrays, and the log resets to empty.
        """
        csr = CSRGraph.from_digraph(self._digraph)
        self._num_nodes = csr.num_nodes
        old_epoch = self._epoch
        if self._shm is not None:
            self._epoch = self._shm.publish(csr)
        else:
            self._csr = csr
            self._epoch = old_epoch + 1
        self._rebarrier(replay_deltas=False)
        if self._shm is not None:
            self._shm.release_epoch(old_epoch)
        self.cache.invalidate_older(self._epoch)
        if self._store is not None:
            # compaction checkpoints: the fresh snapshot folds the WAL in
            # and the store rotates to an empty next-generation log.  Either
            # side of a crash here recovers to this same graph — the old
            # snapshot + full WAL before the rename, the new snapshot after.
            self._store.checkpoint(csr)
        with self._stats_lock:
            self.stats.epochs += 1

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def _check_query_node(self, query) -> int:
        node = self._check_query_id(query)
        if not 0 <= node < self._num_nodes:
            raise QueryError(
                f"query node {node} out of range [0, {self._num_nodes})"
            )
        return node

    def close(self) -> None:
        """Shut the pool down and unlink every shared-memory segment."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.send(("exit", None))
                worker.recv(5.0)
            except (WorkerCrashed, TimeoutError):
                pass
            worker.close(force=True)
        self._workers = []
        if self._shm is not None:
            self._shm.close()
            self._shm = None
        if self._snapshot_handle is not None:
            self._graph = None
            self._csr = None
            try:
                self._snapshot_handle.close()
            except BufferError:  # a caller still holds graph views
                pass
            self._snapshot_handle = None

    # __enter__/__exit__ come from QueryServiceBase: `with` guarantees close().

    def __repr__(self) -> str:
        return (
            f"ParallelSimRankService(methods={self.methods}, "
            f"workers={self.workers}, executor={self.executor!r}, "
            f"epoch={self._epoch}, queries={self.stats.queries})"
        )
