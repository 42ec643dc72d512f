"""End-to-end restart drill: SIGKILL a writer mid-burst, recover, resume.

A child process opens the store, durably logs half the update stream, then
dies by SIGKILL with a partial frame on disk — the closest a test can get
to yanking the power cord.  The parent recovers, replays the rest of the
stream, and must land **bit-identical** to a run that never crashed: same
CSR digest, same served scores, unsharded and P=2 sharded alike.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import apply_update
from repro.parallel.pool import ParallelSimRankService
from repro.parallel.sharded import ShardedSimRankService, write_shard_snapshots
from repro.storage import PersistentGraphStore, recover
from repro.storage.store import wal_path

METHOD = "probesim-native"
CONFIG = {METHOD: {"eps_a": 0.3, "num_walks": 40, "seed": 11}}
QUERIES = [3, 1, 4, 15, 92, 65]

SRC_ROOT = str(Path(repro.__file__).parents[1])

# Opens the store, logs the first `bursts` bursts (each durably fsynced —
# acknowledged history), scribbles a partial frame, and dies without any
# cleanup.  Arguments: store_dir updates_file bursts burst_size
CHILD_SCRIPT = """\
import os, signal, sys
from repro.graph.dynamic import EdgeUpdate
from repro.storage import PersistentGraphStore
from repro.storage.store import wal_path

store_dir, updates_file = sys.argv[1], sys.argv[2]
bursts, burst_size = int(sys.argv[3]), int(sys.argv[4])
updates = []
for line in open(updates_file):
    kind, source, target = line.split()
    updates.append(EdgeUpdate(kind, int(source), int(target)))
store = PersistentGraphStore.open(store_dir)
for i in range(bursts):
    store.log(updates[i * burst_size:(i + 1) * burst_size])
with open(wal_path(store.directory, store.generation), "ab") as handle:
    handle.write(b"\\x07" * 9)  # a torn frame: the append the kill interrupted
    handle.flush()
    os.fsync(handle.fileno())
os.kill(os.getpid(), signal.SIGKILL)
"""


def make_updates(graph, count):
    """A deterministic interleaved insert/delete stream, valid in order."""
    half = count // 2
    deletes = []
    for source in range(graph.num_nodes):
        for target in graph.out_neighbors(source):
            deletes.append(("delete", source, int(target)))
            if len(deletes) == half:
                break
        if len(deletes) == half:
            break
    deleted = {(s, t) for _, s, t in deletes}
    inserts = []
    for source in range(graph.num_nodes):
        for target in range(graph.num_nodes):
            if source == target or (source, target) in deleted:
                continue
            if graph.has_edge(source, target):
                continue
            inserts.append(("insert", source, target))
            if len(inserts) == half:
                break
        if len(inserts) == half:
            break
    stream = []
    for pair in zip(inserts, deletes):
        stream.extend(pair)
    assert len(stream) == count
    return stream


@pytest.fixture()
def drill(tiny_wiki, tmp_path):
    """Store + update stream + oracle base, all sharing one graph."""
    base = CSRGraph.from_digraph(tiny_wiki).to_digraph()  # an exact copy
    root = tmp_path / "store"
    PersistentGraphStore.create(root, base).close()
    stream = make_updates(base, 16)
    updates_file = tmp_path / "updates.txt"
    updates_file.write_text(
        "".join(f"{kind} {s} {t}\n" for kind, s, t in stream), encoding="utf-8"
    )
    return root, stream, updates_file, base


def run_child(root, updates_file, bursts, burst_size=2):
    env = dict(os.environ, PYTHONPATH=SRC_ROOT)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT,
         str(root), str(updates_file), str(bursts), str(burst_size)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    return proc


def replay(base, stream):
    out = base.copy()
    for kind, source, target in stream:
        from repro.graph.dynamic import EdgeUpdate

        apply_update(out, EdgeUpdate(kind, source, target))
    return out


class TestRestartBitIdentity:
    BURSTS_BEFORE_KILL = 4  # of 8 total (16 updates, bursts of 2)

    def test_unsharded(self, drill):
        root, stream, updates_file, base = drill
        run_child(root, updates_file, self.BURSTS_BEFORE_KILL)

        logged = self.BURSTS_BEFORE_KILL * 2
        with recover(root) as state:
            assert state.torn_bytes == 9  # the interrupted append, dropped
            assert len(state.tail) == logged
            assert state.digest() == CSRGraph.from_digraph(
                replay(base, stream[:logged])
            ).digest()

        # resume: log the rest of the stream, checkpoint, recover again
        with PersistentGraphStore.open(root) as store:
            assert store.wal_records == logged
            for i in range(self.BURSTS_BEFORE_KILL, len(stream) // 2):
                from repro.graph.dynamic import EdgeUpdate

                store.log([
                    EdgeUpdate(*u) for u in stream[i * 2:(i + 1) * 2]
                ])
            recovered = store.materialize()
            store.checkpoint(recovered)

        uninterrupted = replay(base, stream)
        assert (
            CSRGraph.from_digraph(recovered).digest()
            == CSRGraph.from_digraph(uninterrupted).digest()
        )
        with recover(root) as state:
            assert state.generation == 2
            assert state.tail == ()
            assert state.digest() == CSRGraph.from_digraph(uninterrupted).digest()

        # served scores are bit-identical to the run that never crashed
        with ParallelSimRankService(
            recovered, methods=(METHOD,), configs=CONFIG,
            workers=1, executor="sequential",
        ) as survived, ParallelSimRankService(
            uninterrupted, methods=(METHOD,), configs=CONFIG,
            workers=1, executor="sequential",
        ) as oracle:
            for query in QUERIES:
                np.testing.assert_array_equal(
                    survived.single_source(query).scores,
                    oracle.single_source(query).scores,
                )

    def test_sharded_p2(self, drill, tmp_path):
        root, stream, updates_file, base = drill
        run_child(root, updates_file, self.BURSTS_BEFORE_KILL)

        with PersistentGraphStore.open(root) as store:
            from repro.graph.dynamic import EdgeUpdate

            for i in range(self.BURSTS_BEFORE_KILL, len(stream) // 2):
                store.log([
                    EdgeUpdate(*u) for u in stream[i * 2:(i + 1) * 2]
                ])
            recovered = store.materialize()
        uninterrupted = replay(base, stream)

        # the shard cut of the recovered graph is byte-identical per shard
        survived_dir = tmp_path / "shards-survived"
        oracle_dir = tmp_path / "shards-oracle"
        write_shard_snapshots(recovered, survived_dir, shards=2)
        write_shard_snapshots(uninterrupted, oracle_dir, shards=2)
        for name in sorted(p.name for p in oracle_dir.iterdir()):
            assert (survived_dir / name).read_bytes() == (
                oracle_dir / name
            ).read_bytes(), name

        # and a service warm-attached to it serves the oracle's scores
        with ShardedSimRankService(
            methods=(METHOD,), configs=CONFIG, snapshot=survived_dir,
            workers=1, executor="sequential",
        ) as survived, ShardedSimRankService(
            uninterrupted, methods=(METHOD,), configs=CONFIG, shards=2,
            workers=1, executor="sequential",
        ) as oracle:
            for query in QUERIES:
                np.testing.assert_array_equal(
                    survived.single_source(query).scores,
                    oracle.single_source(query).scores,
                )
