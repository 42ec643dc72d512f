"""Span tracing from outside the program, and the per-layer breakdown.

The traced run wraps public functions of each layer (:func:`install`)
before the service starts or forks, so a pool worker inherits the
wrappers and a server child installs them itself.  A span records the
layer it charges, its start and end on ``CLOCK_MONOTONIC`` (one clock for
every process on the machine), its parent span in the same thread or
task, and the request id of the operation it serves.  Spans stay in
memory; each process writes its own out when it finishes.

A span's self time is its duration minus the union of its children's
intervals (:func:`self_times`).  :func:`attach` hands every span to the
caller-side operation it served, and :func:`op_layers` sums self time per
layer with the operation itself as the root, so an operation's parts add
up to its measured duration and whatever no span covers is charged to an
explicit ``unattributed`` remainder.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import inspect
import json
import multiprocessing.util
import os
import signal
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from servebench.stats import around_median, now_ns

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "servebench_span", default=None
)
_request: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "servebench_request", default=None
)
#: the query node the engine is working on in this thread
_query: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "servebench_query", default=None
)


@dataclass
class Span:
    name: str
    start: int
    end: int
    sid: int
    parent: int | None = None
    rid: int | None = None
    pid: int = 0
    #: span id of the service call whose result this span waited for
    #: (a coalesced HTTP request links to the batch that answered it)
    link: int | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """In-memory span and counter log of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: (name, time, engine query, amount) counter events
        self.events: list[tuple[str, int, int | None, float]] = []
        self.pid = os.getpid()
        self.dump_dir: Path | None = None
        #: id(result) -> span id of the service call that returned it
        self.result_owner: dict[int, int] = {}
        self._next = 0

    def reset(self) -> None:
        """Forget everything (a forked child keeps its own log)."""
        self.spans.clear()
        self.events.clear()
        self.result_owner.clear()
        self.pid = os.getpid()

    def new_id(self) -> int:
        self._next += 1
        return (self.pid << 32) | self._next

    def count(self, name: str, amount: float = 1.0) -> None:
        self.events.append((name, now_ns(), _query.get(), float(amount)))

    def dump(self, path: Path) -> None:
        payload = {
            "spans": [list(vars(span).values()) for span in self.spans],
            "events": self.events,
        }
        Path(path).write_text(json.dumps(payload))

    def dump_to_dir(self) -> None:
        if self.dump_dir is not None:
            self.dump(self.dump_dir / f"trace-{self.pid}.json")


TRACER = Tracer()


def load(paths) -> tuple[list[Span], list[tuple]]:
    """Read process dumps back into spans and counter events."""
    spans: list[Span] = []
    events: list[tuple] = []
    for path in paths:
        payload = json.loads(Path(path).read_text())
        spans.extend(Span(*row) for row in payload["spans"])
        events.extend(tuple(row) for row in payload["events"])
    return spans, events


def set_request(rid: int | None) -> None:
    """Mark what this thread or task does next as serving request ``rid``."""
    _request.set(rid)


# --------------------------------------------------------------------- #
# wrappers
# --------------------------------------------------------------------- #


def spanned(name: str, fn, on_call=None, on_result=None):
    """Wrap ``fn`` (sync or async) so each call records a ``name`` span.

    ``on_call(args)`` runs before the call; ``on_result(span, result)``
    after the span is recorded.
    """
    def begin(args):
        if on_call is not None:
            on_call(args)
        sid = TRACER.new_id()
        return sid, _current.get(), _current.set(sid), now_ns()

    def finish(sid, parent, start, result):
        span = Span(name, start, now_ns(), sid, parent, _request.get(), TRACER.pid)
        TRACER.spans.append(span)
        if on_result is not None:
            on_result(span, result)

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            sid, parent, token, start = begin(args)
            try:
                result = await fn(*args, **kwargs)
            finally:
                _current.reset(token)
            finish(sid, parent, start, result)
            return result
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, parent, token, start = begin(args)
        try:
            result = fn(*args, **kwargs)
        finally:
            _current.reset(token)
        finish(sid, parent, start, result)
        return result
    return wrapper


def counted(name: str, fn, amount=None):
    """Wrap ``fn`` so each call adds to counter ``name`` (no span, no time)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        TRACER.count(name, 1.0 if amount is None else amount(args, result))
        return result
    return wrapper


def _on_fork(tracer: Tracer) -> None:
    """In a forked child: start an empty log, and write it out on exit.

    The pool stops a worker by asking it to exit and then terminating it
    at once, so the log is written on ``SIGTERM`` as well as at a normal
    exit.
    """
    tracer.reset()
    if tracer.dump_dir is None:
        return

    def on_term(signum, frame) -> None:
        tracer.dump_to_dir()
        os._exit(0)

    signal.signal(signal.SIGTERM, on_term)
    multiprocessing.util.Finalize(tracer, tracer.dump_to_dir, exitpriority=100)


multiprocessing.util.register_after_fork(TRACER, _on_fork)


def install(dump_dir: Path):
    """Wrap each layer's public functions; call before the service starts.

    - ``core``: walk sampling, the trie build, the level sweep and the
      per-snapshot context build of the native engine; the sweep's dense
      and sparse level functions, walks and trie nodes are counted.
    - ``api``: the service and estimator query calls, and the update call.
    - ``server``: request read to response render (the front door),
      coalescing, and result serialisation and response rendering.
    - ``parallel``: the pool's query RPC, sync and shared-memory publish.
    - ``graph``: the CSR snapshot build.
    - ``storage``: checkpoints, and bytes written by snapshots and the WAL.

    Pool workers forked afterwards start an empty log and write it to
    ``dump_dir`` when they exit.  Returns a function that removes the
    wrappers again.
    """
    import repro.core.native.engine as engine
    import repro.server.app as app
    from repro.api.estimator import SimRankEstimator
    from repro.api.service import QueryServiceBase, SimRankService
    from repro.core.native import resolve_impl
    from repro.core.walk_trie import WalkTrie
    from repro.graph.csr import CSRGraph
    from repro.parallel.pool import ParallelSimRankService
    from repro.parallel.shm import SharedCSRGraph
    from repro.server.coalesce import Coalescer
    from repro.storage import store as store_module
    from repro.storage.store import PersistentGraphStore
    from repro.storage.wal import RECORD_BYTES, WriteAheadLog

    TRACER.dump_dir = Path(dump_dir)
    impl = resolve_impl()
    originals: list[tuple[object, str, object]] = []

    def _patch(owner, attr: str, make) -> None:
        raw = inspect.getattr_static(owner, attr)
        originals.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def walks_call(args):
        _query.set(int(args[4]))
        TRACER.count("core.queries")
        TRACER.count("core.walks.count", len(args[3]))

    def trie_done(span, trie):
        TRACER.count("core.trie.nodes", trie.num_tree_nodes)

    _patch(impl, "sample_walks", lambda f: spanned("core.walks", f, on_call=walks_call))
    _patch(WalkTrie, "from_walk_arrays", lambda f: spanned("core.trie", f, on_result=trie_done))
    _patch(engine, "build_trie_kernel", lambda f: spanned("core.trie", f, on_result=trie_done))
    _patch(engine, "probe_trie", lambda f: spanned("core.sweep", f))
    _patch(engine, "make_context", lambda f: spanned(
        "core.context", f, on_call=lambda args: TRACER.count("core.context.builds")))
    for dense in ("dense_level", "dense_propagate"):
        _patch(impl, dense, lambda f: counted("core.sweep.dense_levels", f))
    _patch(impl, "sparse_propagate_zero", lambda f: counted("core.sweep.sparse_levels", f))

    def own_results(span, results):
        for result in results:
            TRACER.result_owner[id(result)] = span.sid

    _patch(SimRankService, "single_source_many",
           lambda f: spanned("api.query", f, on_result=own_results))
    _patch(QueryServiceBase, "topk_many",
           lambda f: spanned("api.query", f, on_result=own_results))
    _patch(SimRankEstimator, "topk", lambda f: spanned("api.query", f))

    # the front door: one span per request, from the parsed request to
    # the rendered response, in the connection's own task
    front: contextvars.ContextVar[tuple | None] = contextvars.ContextVar(
        "servebench_front", default=None
    )

    def request_read(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            request = await fn(*args, **kwargs)
            rid = None if request is None else request.headers.get("x-request-id")
            _request.set(None if rid is None else int(rid))
            if rid is not None:
                sid = TRACER.new_id()
                front.set((sid, now_ns()))
                _current.set(sid)
            return request
        return wrapper

    def rendered(fn):
        traced = spanned("server.serialize", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = traced(*args, **kwargs)
            opened = front.get()
            if opened is not None:
                sid, start = opened
                TRACER.spans.append(Span("server.frontdoor", start, now_ns(), sid,
                                         None, _request.get(), TRACER.pid))
                front.set(None)
                _current.set(None)
            return result
        return wrapper

    def link_batch(span, result):
        span.link = TRACER.result_owner.get(id(result))

    _patch(app, "read_request", request_read)
    _patch(app, "render_response", rendered)
    _patch(app, "serialize_result", lambda f: spanned("server.serialize", f))
    _patch(app, "serialize_topk", lambda f: spanned("server.serialize", f))
    _patch(Coalescer, "submit", lambda f: spanned("server.coalesce", f, on_result=link_batch))

    _patch(ParallelSimRankService, "topk", lambda f: spanned("parallel.rpc", f))
    _patch(ParallelSimRankService, "apply_update_stream", lambda f: spanned("api.update", f))
    _patch(ParallelSimRankService, "sync", lambda f: spanned("parallel.sync", f))
    _patch(SharedCSRGraph, "publish", lambda f: spanned("parallel.publish", f))
    _patch(CSRGraph, "from_digraph", lambda f: spanned("graph.csr_build", f))
    _patch(PersistentGraphStore, "checkpoint", lambda f: spanned("storage.checkpoint", f))
    _patch(store_module, "write_snapshot", lambda f: counted(
        "storage.bytes_written", f, lambda args, header: header.file_bytes))
    _patch(WriteAheadLog, "create", lambda f: counted(
        "storage.bytes_written", f, lambda args, wal: os.path.getsize(wal.path)))

    def wal_appended(fn):
        @functools.wraps(fn)
        def wrapper(self, updates, *args, **kwargs):
            before = self.records
            records = fn(self, updates, *args, **kwargs)
            if records > before:
                TRACER.count("storage.wal.appends")
                TRACER.count("storage.bytes_written", (records - before) * RECORD_BYTES)
            return records
        return wrapper

    _patch(WriteAheadLog, "append", wal_appended)

    def uninstall() -> None:
        for owner, attr, raw in reversed(originals):
            setattr(owner, attr, raw)
        TRACER.dump_dir = None

    return uninstall


# --------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------- #


def covered(intervals) -> int:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time of each span: its duration minus the union of its children.

    Children are the spans naming it as parent, clipped to its interval, so
    overlapping children (two tasks awaited at once) are not charged twice.
    """
    by_id = {span.sid: span for span in spans}
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None:
            start, end = max(span.start, parent.start), min(span.end, parent.end)
            if end > start:
                children[parent.sid].append((start, end))
    return {span.sid: span.duration - covered(children[span.sid]) for span in spans}


@dataclass
class Op:
    """One operation the caller timed: a request, a query call or an update."""

    rid: int
    kind: str
    start: int
    end: int
    spans: list[Span] = field(default_factory=list)
    #: the query node a request asked for (where the caller knows it)
    query: int | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


def attach(ops: list[Op], spans: list[Span], window_pids=frozenset()) -> None:
    """Hand each span to the operation it served.

    - A span carrying a request id joins that op.
    - A span from a process in ``window_pids`` (a pool worker serving one
      caller in order) joins the op whose window holds its start; a root
      span there hangs under the op's coordinator call that encloses it.
    - A service call without a request id (the HTTP dispatch thread) is
      copied, with its subtree, under every ``server.coalesce`` span that
      links to it: each coalesced request waited for the whole batch.
    """
    by_rid = {op.rid: op for op in ops}
    by_sid = {span.sid: span for span in spans}
    order = sorted(range(len(ops)), key=lambda i: ops[i].start)
    starts = [ops[i].start for i in order]
    kids: dict[int, list[Span]] = defaultdict(list)
    window_roots: list[tuple[Span, Op]] = []
    for span in spans:
        if span.rid is not None and span.rid in by_rid:
            by_rid[span.rid].spans.append(span)
        elif span.pid in window_pids:
            i = bisect.bisect_right(starts, span.start) - 1
            if i >= 0 and span.start <= ops[order[i]].end:
                op = ops[order[i]]
                op.spans.append(span)
                if span.parent not in by_sid:
                    window_roots.append((span, op))
        elif span.rid is None and span.parent is not None:
            kids[span.parent].append(span)
    for span, op in window_roots:
        hosts = [host for host in op.spans
                 if host.pid != span.pid and host.start <= span.start <= host.end]
        if hosts:  # the innermost enclosing call
            span.parent = max(hosts, key=lambda host: host.start).sid

    def subtree(root: Span) -> list[Span]:
        out = [root]
        for child in kids[root.sid]:
            out.extend(subtree(child))
        return out

    for op in ops:
        copies = []
        for span in op.spans:
            if span.name == "server.coalesce" and span.link in by_sid:
                tree = [Span(**vars(s)) for s in subtree(by_sid[span.link])]
                tree[0].parent = span.sid
                copies.extend(tree)
        op.spans.extend(copies)


def op_layers(op: Op, root_name: str) -> dict[str, int]:
    """Self time (ns) per layer of one op; the parts sum to its duration.

    The op is the root span, so time no traced span covers is charged to
    ``root_name``.  A ``server.coalesce`` span's self time splits into the
    wait before its batch's service call began (``server.coalesce.wait``)
    and the hand-back after it (``server.frontdoor``).
    """
    root = Span(root_name, op.start, op.end, -1)
    ids = {span.sid for span in op.spans}
    spans = [root] + [
        span if span.parent in ids else Span(**{**vars(span), "parent": -1})
        for span in op.spans
    ]
    selfs = self_times(spans)
    first_child = {}
    for span in spans:
        first_child.setdefault(span.parent, span)
    layers: dict[str, int] = defaultdict(int)
    for span in spans:
        own = selfs[span.sid]
        name = span.name
        if name == "server.coalesce":
            batch = first_child.get(span.sid)
            wait = 0 if batch is None else min(max(batch.start - span.start, 0), own)
            layers["server.coalesce.wait"] += wait
            own -= wait
            name = "server.frontdoor"
        layers[name] += own
    return layers


def breakdown(ops: list[Op], root_name: str) -> tuple[dict[str, float], float]:
    """Mean self time (ms) per layer over the ops nearest the median duration.

    Returns the layer means and the mean duration (ms) of those ops; the
    means add up to it, and it sits next to the median duration.
    """
    if not ops:
        return {}, 0.0
    chosen = around_median([op.duration for op in ops])
    totals: dict[str, int] = defaultdict(int)
    for i in chosen:
        for name, ns in op_layers(ops[i], root_name).items():
            totals[name] += ns
    mean = sum(ops[i].duration for i in chosen) / len(chosen) / 1e6
    return {name: ns / len(chosen) / 1e6 for name, ns in totals.items()}, mean


def _inside(windows: list[tuple[int, int]]):
    """A test for whether a time falls inside any of ``windows``."""
    windows = sorted(windows)
    starts = [start for start, _ in windows]

    def test(when: int) -> bool:
        i = bisect.bisect_right(starts, when) - 1
        return i >= 0 and when <= windows[i][1]
    return test


def events_within(events, windows: list[tuple[int, int]]):
    """Counter events recorded inside any of the measured ``windows``.

    Returns the totals by name, and the totals by engine query and name.
    """
    inside = _inside(windows)
    totals: dict[str, float] = defaultdict(float)
    by_query: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for name, when, query, amount in events:
        if inside(when):
            totals[name] += amount
            if query is not None:
                by_query[query][name] += amount
    return totals, by_query


def spans_within(spans: list[Span], windows: list[tuple[int, int]]) -> list[Span]:
    """The spans that start inside any of the measured ``windows``."""
    inside = _inside(windows)
    return [span for span in spans if inside(span.start)]
