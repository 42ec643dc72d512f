"""ParallelSimRankService: determinism, caching, crash recovery, hygiene.

The load-bearing contract: for fixed seeds the process-parallel service is
*bit-identical* to its sequential executor (same partition/replay/rebuild
schedule in one process) — and, for one worker on a static graph, to the
plain :class:`~repro.api.service.SimRankService`.  Everything else
(caching, crashes, epochs) must preserve that contract.
"""

import numpy as np
import pytest

from repro.api.service import SimRankService
from repro.errors import ConfigurationError, QueryError
from repro.parallel.pool import ParallelSimRankService

from test_shm import segment_names

METHOD = "probesim-native"
CONFIG = {METHOD: {"eps_a": 0.3, "num_walks": 40, "seed": 11}}
QUERIES = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]


def make_service(graph, executor, workers=3, **kwargs):
    return ParallelSimRankService(
        graph.copy(), methods=(METHOD,), configs=CONFIG,
        workers=workers, executor=executor, **kwargs,
    )


def collect(service, with_updates=False):
    """A deterministic call sequence; returns every score vector in order."""
    out = [r.scores.copy() for r in service.single_source_many(QUERIES)]
    out.append(service.single_source(7).scores.copy())
    if with_updates:
        service.apply_edges(added=[(0, 9)], removed=[])
        out.extend(
            r.scores.copy() for r in service.single_source_many(QUERIES[:5])
        )
    out.append(service.topk(2, 5).scores.copy())
    return out


class TestBitIdentical:
    def test_process_matches_sequential_executor(self, tiny_wiki):
        with make_service(tiny_wiki, "process") as parallel, \
                make_service(tiny_wiki, "sequential") as sequential:
            for got, want in zip(collect(parallel), collect(sequential)):
                np.testing.assert_array_equal(got, want)

    def test_process_matches_sequential_across_updates(self, tiny_wiki):
        with make_service(tiny_wiki, "process") as parallel, \
                make_service(tiny_wiki, "sequential") as sequential:
            for got, want in zip(
                collect(parallel, with_updates=True),
                collect(sequential, with_updates=True),
            ):
                np.testing.assert_array_equal(got, want)

    def test_one_worker_matches_plain_sequential_service(self, tiny_wiki):
        """On a static graph, one process replica consumes exactly the RNG
        stream the plain in-process service would."""
        plain = SimRankService(tiny_wiki.copy(), methods=(METHOD,), configs=CONFIG)
        with make_service(tiny_wiki, "process", workers=1) as parallel:
            for got, want in zip(
                parallel.single_source_many(QUERIES),
                plain.single_source_many(QUERIES),
            ):
                np.testing.assert_array_equal(got.scores, want.scores)

    def test_runs_are_reproducible(self, tiny_wiki):
        with make_service(tiny_wiki, "process") as first:
            a = collect(first, with_updates=True)
        with make_service(tiny_wiki, "process") as second:
            b = collect(second, with_updates=True)
        for got, want in zip(a, b):
            np.testing.assert_array_equal(got, want)

    def test_topk_many_matches_sequential(self, tiny_wiki):
        with make_service(tiny_wiki, "process") as parallel, \
                make_service(tiny_wiki, "sequential") as sequential:
            for got, want in zip(
                parallel.topk_many(QUERIES[:4], k=5),
                sequential.topk_many(QUERIES[:4], k=5),
            ):
                np.testing.assert_array_equal(got.nodes, want.nodes)
                np.testing.assert_array_equal(got.scores, want.scores)


class TestCache:
    def test_hot_hits_skip_workers(self, tiny_wiki):
        with make_service(tiny_wiki, "process", cache_size=64) as service:
            first = service.single_source(3)
            again = service.single_source(3)
            assert again is first  # served straight from the cache
            assert service.cache.stats.hits == 1
            assert service.cache.stats.misses == 1

    def test_batch_duplicates_hit_across_batches(self, tiny_wiki):
        with make_service(tiny_wiki, "process", cache_size=64) as service:
            service.single_source_many(QUERIES)
            service.single_source_many(QUERIES)
            distinct = len(set(QUERIES))
            assert service.cache.stats.misses == distinct
            assert service.cache.stats.hits == distinct

    def test_sync_epoch_bump_invalidates(self, tiny_wiki):
        with make_service(tiny_wiki, "process", cache_size=64) as service:
            before = service.single_source(3)
            assert service.epoch == 0
            service.apply_edges(added=[(0, 9)])
            assert service.epoch == 1
            assert service.cache.stats.invalidations == 1
            after = service.single_source(3)
            assert after is not before  # recomputed against the new graph
            assert service.cache.stats.hits == 0

    def test_cache_does_not_change_determinism(self, tiny_wiki):
        with make_service(tiny_wiki, "process", cache_size=64) as cached, \
                make_service(tiny_wiki, "sequential", cache_size=64) as oracle:
            for got, want in zip(
                collect(cached, with_updates=True),
                collect(oracle, with_updates=True),
            ):
                np.testing.assert_array_equal(got, want)

    def test_cache_disabled_by_default(self, tiny_wiki):
        with make_service(tiny_wiki, "process") as service:
            service.single_source(3)
            service.single_source(3)
            assert not service.cache.enabled
            assert service.cache.stats.lookups == 0


class TestCrashRecovery:
    def kill_one_worker(self, service):
        service._workers[1].process.kill()
        service._workers[1].process.join(timeout=10)

    def test_crash_mid_service_preserves_results(self, tiny_wiki):
        with make_service(tiny_wiki, "sequential") as oracle:
            want = collect(oracle)
        with make_service(tiny_wiki, "process") as service:
            got = [r.scores.copy() for r in service.single_source_many(QUERIES)]
            self.kill_one_worker(service)
            got.append(service.single_source(7).scores.copy())
            got.append(service.topk(2, 5).scores.copy())
            assert service.stats.worker_restarts == 1
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_crash_replays_epoch_history(self, tiny_wiki):
        """The revived worker must fast-forward its RNG past everything it
        served this epoch, or later answers drift."""
        with make_service(tiny_wiki, "sequential") as oracle:
            oracle.single_source_many(QUERIES)
            want = [r.scores.copy() for r in oracle.single_source_many(QUERIES[:6])]
        with make_service(tiny_wiki, "process") as service:
            service.single_source_many(QUERIES)  # builds per-worker history
            self.kill_one_worker(service)
            got = [r.scores.copy() for r in service.single_source_many(QUERIES[:6])]
            assert service.stats.worker_restarts == 1
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_crash_during_sync_is_healed(self, tiny_wiki):
        with make_service(tiny_wiki, "process") as service:
            service.single_source_many(QUERIES)
            self.kill_one_worker(service)
            service.apply_edges(added=[(0, 9)])  # sync barrier heals the pool
            assert service.single_source(3).score(3) == 1.0
            assert service.stats.worker_restarts == 1


class TestLifecycleHygiene:
    def base_names(self):
        return segment_names("psim-")

    def test_close_unlinks_shared_memory(self, tiny_wiki):
        before = self.base_names()
        service = make_service(tiny_wiki, "process")
        assert len(self.base_names()) > len(before)
        service.close()
        assert self.base_names() == before

    def test_constructor_failure_unlinks(self, tiny_wiki):
        before = self.base_names()
        with pytest.raises(ConfigurationError):
            ParallelSimRankService(
                tiny_wiki.copy(), methods=(METHOD,),
                configs={METHOD: {"no_such_knob": 1}}, workers=2,
            )
        assert self.base_names() == before

    def test_exception_inside_with_block_unlinks(self, tiny_wiki):
        before = self.base_names()
        with pytest.raises(RuntimeError):
            with make_service(tiny_wiki, "process"):
                raise RuntimeError("simulated serving failure")
        assert self.base_names() == before

    def test_close_is_idempotent(self, tiny_wiki):
        service = make_service(tiny_wiki, "process")
        service.close()
        service.close()

    def test_estimator_error_does_not_kill_worker(self, tiny_wiki):
        """Worker-side exceptions surface as errors, not crashes."""
        with make_service(tiny_wiki, "process") as service:
            with pytest.raises(QueryError):
                service.single_source(10_000)
            assert service.single_source(3).score(3) == 1.0
            assert service.stats.worker_restarts == 0


class TestValidation:
    def test_rejects_non_parallel_safe_methods(self, tiny_wiki):
        with pytest.raises(ConfigurationError, match="parallel_safe"):
            ParallelSimRankService(tiny_wiki.copy(), methods=("sling",), workers=1)

    def test_allow_unsafe_overrides(self, toy):
        with ParallelSimRankService(
            toy.copy(), methods=("power",), workers=1,
            executor="sequential", allow_unsafe=True,
        ) as service:
            assert service.single_source(0).score(0) == 1.0

    def test_unknown_executor(self, tiny_wiki):
        with pytest.raises(ConfigurationError):
            make_service(tiny_wiki, "coroutine")

    def test_unknown_default_method(self, tiny_wiki):
        with pytest.raises(ConfigurationError):
            ParallelSimRankService(
                tiny_wiki.copy(), methods=(METHOD,), configs=CONFIG,
                default_method="tsf", workers=1, executor="sequential",
            )

    def test_frozen_graph_rejects_updates(self, tiny_wiki_csr):
        with ParallelSimRankService(
            tiny_wiki_csr, methods=(METHOD,), configs=CONFIG,
            workers=1, executor="sequential",
        ) as service:
            with pytest.raises(ConfigurationError):
                service.apply_edges(added=[(0, 9)])

    def test_bad_query_ids(self, tiny_wiki):
        with make_service(tiny_wiki, "sequential", workers=1) as service:
            with pytest.raises(QueryError):
                service.single_source("zero")
            with pytest.raises(QueryError):
                service.single_source(-1)
            with pytest.raises(QueryError):
                service.topk(0, k=0)

    def test_capabilities_come_from_registry(self, tiny_wiki):
        with make_service(tiny_wiki, "sequential", workers=1) as service:
            caps = service.capabilities()
            assert caps.parallel_safe
            assert caps.method == METHOD


class TestPipeDiscipline:
    def test_worker_error_drains_inflight_replies(self, tiny_wiki):
        """A worker-side error in one share must not leave another worker's
        reply buffered in its pipe — later calls would silently read stale
        results (off-by-one forever)."""
        with make_service(tiny_wiki, "process", workers=2) as service, \
                make_service(tiny_wiki, "sequential", workers=2) as oracle:
            for target in (service, oracle):
                bad = {
                    0: ("query", ("no-such-mount", "single_source", None, [(0, 3)])),
                    1: ("query", (METHOD, "single_source", None, [(1, 4)])),
                }
                with pytest.raises(QueryError, match="no-such-mount"):
                    target._rpc_all(bad)
            # both executors consumed identical streams through the failure;
            # the pipes must still be in lock-step afterwards
            for got, want in zip(
                service.single_source_many(QUERIES),
                oracle.single_source_many(QUERIES),
            ):
                np.testing.assert_array_equal(got.scores, want.scores)
            assert service.stats.worker_restarts == 0


INCREMENTAL = "tsf"
INCREMENTAL_CONFIG = {INCREMENTAL: {"rg": 12, "rq": 3, "depth": 5, "seed": 11}}


def make_incremental(graph, executor, workers=3, **kwargs):
    return ParallelSimRankService(
        graph.copy(), methods=(INCREMENTAL,), configs=INCREMENTAL_CONFIG,
        workers=workers, executor=executor, **kwargs,
    )


def collect_with_bursts(service):
    """Queries interleaved with two small update bursts, scores in order."""
    out = [r.scores.copy() for r in service.single_source_many(QUERIES)]
    service.apply_edges(added=[(0, 9), (5, 17)])
    out.extend(r.scores.copy() for r in service.single_source_many(QUERIES[:6]))
    service.apply_edges(removed=[(0, 9)])
    out.append(service.single_source(7).scores.copy())
    return out


class TestDeltaMaintenance:
    """The O(Δ) path: in-place absorption instead of epoch rebuilds."""

    def test_auto_resolves_by_capability(self, tiny_wiki):
        with make_incremental(tiny_wiki, "sequential") as incremental, \
                make_service(tiny_wiki, "sequential") as bulk:
            assert incremental.maintenance == "delta"
            assert bulk.maintenance == "rebuild"  # probesim is not incremental

    def test_explicit_delta_needs_incremental_methods(self, tiny_wiki):
        with pytest.raises(ConfigurationError, match="incremental_updates"):
            make_service(tiny_wiki, "sequential", maintenance="delta")

    def test_explicit_delta_needs_mutable_graph(self, tiny_wiki_csr):
        with pytest.raises(ConfigurationError, match="mutable"):
            ParallelSimRankService(
                tiny_wiki_csr, methods=(INCREMENTAL,),
                configs=INCREMENTAL_CONFIG, workers=1,
                executor="sequential", maintenance="delta",
            )

    def test_delta_sync_does_not_publish_an_epoch(self, tiny_wiki):
        with make_incremental(tiny_wiki, "process") as service:
            service.single_source(3)
            service.apply_edges(added=[(0, 9)])
            assert service.epoch == 0  # the graph generation stood still
            assert service.stats.delta_syncs == 1
            assert service.stats.delta_updates == 1
            assert service.stats.epochs == 0
            assert service.stats.syncs == 1
            assert service.single_source(3).score(3) == 1.0

    def test_process_matches_sequential_oracle_under_updates(self, tiny_wiki):
        with make_incremental(tiny_wiki, "process") as parallel, \
                make_incremental(tiny_wiki, "sequential") as oracle:
            for got, want in zip(
                collect_with_bursts(parallel), collect_with_bursts(oracle)
            ):
                np.testing.assert_array_equal(got, want)

    def test_delta_runs_are_reproducible(self, tiny_wiki):
        with make_incremental(tiny_wiki, "process") as first:
            a = collect_with_bursts(first)
        with make_incremental(tiny_wiki, "process") as second:
            b = collect_with_bursts(second)
        for got, want in zip(a, b):
            np.testing.assert_array_equal(got, want)

    def test_untouched_hot_keys_stay_warm(self, tiny_wiki):
        """Fine-grained invalidation: an update far from the hot query must
        not evict its cached answer (the rebuild path would flush it)."""
        with make_incremental(tiny_wiki, "process", cache_size=64) as service:
            hot = 3
            burst = [(150, 160)]  # far from node 3's 1-hop neighborhood
            assert hot not in {n for edge in burst for n in edge}
            first = service.single_source(hot)
            service.apply_edges(added=burst)
            again = service.single_source(hot)
            assert again is first  # still served from the cache
            assert service.cache.stats.hits == 1

    def test_touched_neighborhood_is_invalidated(self, tiny_wiki):
        with make_incremental(tiny_wiki, "process", cache_size=64) as service:
            first = service.single_source(3)
            service.apply_edges(added=[(3, 9)])  # 3 is an endpoint
            assert service.cache.stats.invalidations >= 1
            again = service.single_source(3)
            assert again is not first  # recomputed against the new graph

    def test_log_overflow_compacts_into_a_fresh_epoch(self, tiny_wiki):
        with make_incremental(
            tiny_wiki, "process", delta_log_capacity=3, cache_size=64
        ) as service:
            service.single_source(3)
            service.apply_edges(added=[(0, 9), (5, 17)])   # fits: delta
            assert service.epoch == 0
            service.apply_edges(added=[(1, 9), (2, 9)])    # overflows: compact
            assert service.epoch == 1
            assert service.stats.delta_syncs == 1
            assert service.stats.epochs == 1
            # compaction emptied the log, so small bursts go delta again
            service.apply_edges(removed=[(0, 9)])
            assert service.epoch == 1
            assert service.stats.delta_syncs == 2
            assert service.single_source(3).score(3) == 1.0

    def test_compaction_matches_sequential_oracle(self, tiny_wiki):
        def run(executor):
            with make_incremental(
                tiny_wiki, executor, delta_log_capacity=3
            ) as service:
                return collect_with_bursts(service)

        for got, want in zip(run("process"), run("sequential")):
            np.testing.assert_array_equal(got, want)

    def test_crash_mid_delta_replays_the_stream(self, tiny_wiki):
        """A worker killed after absorbing deltas must be revived by
        replaying build + queries + delta bursts in their original
        interleaving — its mirror and RNG then match the sequential
        oracle's exactly."""
        with make_incremental(tiny_wiki, "sequential") as oracle:
            oracle.single_source_many(QUERIES)
            oracle.apply_edges(added=[(0, 9), (5, 17)])
            oracle.single_source_many(QUERIES[:6])
            want = [r.scores.copy() for r in oracle.single_source_many(QUERIES)]
        with make_incremental(tiny_wiki, "process") as service:
            service.single_source_many(QUERIES)
            service.apply_edges(added=[(0, 9), (5, 17)])
            service.single_source_many(QUERIES[:6])
            service._workers[1].process.kill()
            service._workers[1].process.join(timeout=10)
            got = [r.scores.copy() for r in service.single_source_many(QUERIES)]
            assert service.stats.worker_restarts == 1
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_failed_delta_burst_heals_by_compaction(self, tiny_wiki):
        """A replica raising mid-burst must not wedge the service: the
        burst is already in the log and some mirrors may have applied it,
        so sync falls back to one epoch rebuild (consistent state), then
        surfaces the error — and later small bursts go delta again."""
        from repro.api.estimator import Capabilities, SimRankEstimator
        from repro.api.registry import _REGISTRY, register
        from repro.core.results import SimRankResult

        class _FragileIncremental(SimRankEstimator):
            """Incremental replica that corrupts on one poisoned update."""

            def __init__(self, graph):
                self.graph = graph

            def single_source(self, query):
                return SimRankResult(
                    query=query, scores=np.zeros(self.graph.num_nodes),
                    num_walks=0, elapsed=0.0, method="fragile",
                )

            def sync(self):
                """Nothing to rebuild."""

            def capabilities(self):
                return Capabilities(
                    method="fragile", exact=False, index_based=True,
                    supports_dynamic=True, incremental_updates=True,
                    parallel_safe=True,
                )

            def apply_updates(self, updates):
                for update in updates:
                    if update.target == 150:
                        raise RuntimeError("replica corrupted")

        name = "fragile-incremental-test"
        register(name, lambda graph: _FragileIncremental(graph),
                 capabilities=_FragileIncremental(None).capabilities(),
                 replace=True)
        try:
            with ParallelSimRankService(
                tiny_wiki.copy(), methods=(name,), workers=2,
                executor="sequential", maintenance="delta",
            ) as service:
                service.apply_edges(added=[(0, 9)])  # healthy burst: delta
                assert service.stats.delta_syncs == 1
                assert service.epoch == 0
                with pytest.raises(QueryError, match="replica corrupted"):
                    service.apply_edges(added=[(0, 150)])  # poisoned burst
                # healed: the compaction published the mutated graph as a
                # fresh epoch, every replica was rebuilt, the log is empty
                assert service.epoch == 1
                assert service.stats.epochs == 1
                assert service.graph.has_edge(0, 150)
                assert service.single_source(3).query == 3  # still serving
                service.apply_edges(added=[(1, 9)])  # delta path works again
                assert service.stats.delta_syncs == 2
                assert service.epoch == 1
        finally:
            _REGISTRY.pop(name, None)

    def test_rejected_update_never_reaches_the_pending_burst(self, tiny_wiki):
        """A rejected mutation (duplicate insert) must leave no trace in
        the pending delta record: the next sync ships only the updates the
        graph actually took, instead of poisoning every worker mirror."""
        from repro.errors import DuplicateEdgeError

        existing = next(iter(tiny_wiki.edges()))
        with make_incremental(
            tiny_wiki, "sequential", auto_sync=False
        ) as service:
            service.apply_edges(added=[(0, 9)])  # valid, deferred
            with pytest.raises(DuplicateEdgeError):
                service.apply_edges(added=[existing])
            service.sync()  # ships exactly the one applied update
            assert service.stats.delta_syncs == 1
            assert service.stats.delta_updates == 1
            assert service.single_source(3).query == 3

    def test_mixed_batch_failure_syncs_applied_prefix_unmasked(self, tiny_wiki):
        """Under auto_sync a mid-batch rejection still flushes the applied
        prefix through the delta path, and the caller sees the original
        graph error — not a worker-side QueryError from a poisoned burst."""
        from repro.errors import DuplicateEdgeError

        existing = next(iter(tiny_wiki.edges()))
        with make_incremental(tiny_wiki, "sequential") as service:
            with pytest.raises(DuplicateEdgeError):
                service.apply_edges(added=[(0, 9), existing])
            assert service.stats.updates_applied == 1
            assert service.stats.delta_syncs == 1
            assert service.stats.delta_updates == 1
            assert service.graph.has_edge(0, 9)

    def test_failed_rebuild_retry_does_not_drop_the_burst(self, tiny_wiki):
        """If the rebuild/compaction attempt dies transiently, the pending
        record and the staleness flag must survive, so the retry actually
        delivers the mutations instead of shipping an empty delta and
        declaring the service clean."""
        with make_incremental(
            tiny_wiki, "sequential", auto_sync=False, delta_log_capacity=2
        ) as service:
            service.apply_edges(added=[(0, 9), (5, 17), (1, 9)])  # > capacity
            original = service._rebarrier

            def exploding_rebarrier(replay_deltas=False):
                raise RuntimeError("transient rebuild failure")

            service._rebarrier = exploding_rebarrier
            with pytest.raises(RuntimeError, match="transient"):
                service.sync()
            assert service._graph_stale
            assert len(service._pending_updates) == 3
            service._rebarrier = original
            service.sync()  # the retry performs the real rebuild
            assert not service._graph_stale
            assert service.stats.epochs == 1  # one *completed* rebuild
            # worker mirrors caught up with the coordinator graph
            mirror = service._workers[0].core.mirror
            assert mirror.num_edges == service.graph.num_edges
            assert mirror.has_edge(1, 9)

    def test_delta_heavy_epoch_does_not_thrash_rollover(self):
        """Regression: delta payloads re-shipped by a rollover land back in
        the fresh histories — if they counted toward the rollover trigger,
        an epoch with >= history_limit delta bursts would rebuild the pool
        on every subsequent query, forever.  Only queries count."""
        from repro.graph import DiGraph

        cycle = DiGraph.from_edges(
            [(i, (i + 1) % 12) for i in range(12)]
        )
        with ParallelSimRankService(
            cycle, methods=(INCREMENTAL,),
            configs={INCREMENTAL: {"rg": 6, "rq": 2, "depth": 3, "seed": 5}},
            workers=1, executor="sequential", maintenance="delta",
            history_limit=4,
        ) as service:
            rebarriers = 0
            original = service._rebarrier

            def spy(replay_deltas=False):
                nonlocal rebarriers
                rebarriers += 1
                original(replay_deltas)

            service._rebarrier = spy
            for i in range(6):  # 6 delta payloads > history_limit
                service.apply_edges(added=[(i, (i + 2) % 12)])
            assert service.stats.delta_syncs == 6
            for _ in range(9):
                service.single_source(0)
            # rollovers fire once per history_limit served queries (the
            # check precedes each query) — not once per query
            assert rebarriers == 2

    def test_rollover_replays_delta_stream(self, tiny_wiki):
        """The history-bounding rollover rebuilds replicas at the epoch
        base, so it must re-ship the epoch's deltas — and stay bit-exact
        against the sequential executor rolling over at the same instants."""
        def run(executor):
            with make_incremental(
                tiny_wiki, executor, history_limit=8
            ) as service:
                return collect_with_bursts(service)

        for got, want in zip(run("process"), run("sequential")):
            np.testing.assert_array_equal(got, want)


class TestHistoryRollover:
    def test_histories_stay_bounded(self, tiny_wiki):
        with make_service(tiny_wiki, "process", history_limit=6) as service:
            for _ in range(5):
                service.single_source_many(QUERIES)
            assert max(len(h) for h in service._histories) < 6 + len(QUERIES)

    def test_rollover_preserves_determinism(self, tiny_wiki):
        """The rollover trigger is a pure function of the call sequence, so
        process and sequential executors roll over at the same instants."""
        with make_service(tiny_wiki, "process", history_limit=4) as parallel, \
                make_service(tiny_wiki, "sequential", history_limit=4) as oracle:
            for _ in range(3):
                for got, want in zip(
                    parallel.single_source_many(QUERIES),
                    oracle.single_source_many(QUERIES),
                ):
                    np.testing.assert_array_equal(got.scores, want.scores)

    def test_rollover_keeps_cache_entries(self, tiny_wiki):
        """Rollovers rebuild RNG streams, not the graph: cached answers for
        the current epoch stay valid (no spurious invalidation)."""
        with make_service(
            tiny_wiki, "process", history_limit=4, cache_size=64
        ) as service:
            service.single_source_many(QUERIES)  # > limit: triggers rollover
            service.single_source_many(QUERIES)
            assert service.cache.stats.hits > 0
            assert service.cache.stats.invalidations == 0

    def test_crash_after_rollover_recovers(self, tiny_wiki):
        with make_service(tiny_wiki, "sequential", history_limit=6) as oracle:
            oracle.single_source_many(QUERIES)
            want = [r.scores.copy() for r in oracle.single_source_many(QUERIES[:4])]
        with make_service(tiny_wiki, "process", history_limit=6) as service:
            service.single_source_many(QUERIES)
            service._workers[1].process.kill()
            service._workers[1].process.join(timeout=10)
            got = [r.scores.copy() for r in service.single_source_many(QUERIES[:4])]
            assert service.stats.worker_restarts == 1
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
