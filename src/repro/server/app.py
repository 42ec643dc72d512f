"""The asyncio HTTP application fronting a SimRank query service.

:class:`SimRankHTTPApp` glues the tier together: the wire format from
:mod:`repro.server.http`, bounded lanes from
:mod:`repro.server.admission`, micro-batching from
:mod:`repro.server.coalesce`, and the shared Prometheus formatter from
:mod:`repro.eval.metrics_export`.  It serves any object speaking the
:class:`repro.api.service.QueryServiceBase` surface — the in-process
:class:`~repro.api.service.SimRankService`, the process-parallel
:class:`~repro.parallel.pool.ParallelSimRankService`, or a test stub.

Endpoints (all JSON)::

    GET  /healthz                liveness + mounted methods
    GET  /metrics                Prometheus text exposition
    POST /v1/single_source       {"query": 3, "method"?: ..., "limit"?: 10}
    POST /v1/topk                {"query": 3, "k"?: 10, "method"?: ...}
    POST /v1/single_source_many  {"queries": [...], "method"?, "limit"?}
    POST /v1/topk_many           {"queries": [...], "k"?, "method"?}
    POST /v1/apply_edges         {"added": [[s, t], ...], "removed": [...]}

The query API is versioned under ``/v1``; the ops probes (``/healthz``,
``/metrics``) are unversioned.  The pre-2.0 bare paths
(``/single_source`` etc.) remain as aliases that answer **byte-identically**
to their ``/v1`` twin, plus two response headers announcing the move:
``Deprecation: true`` and ``Link: </v1/...>; rel="successor-version"``.

Every 4xx/5xx answers a uniform machine-readable envelope::

    {"error": {"code": "<stable-slug>", "message": "...", "retry_after"?: s}}

with one stable slug per status — ``bad_request`` (400), ``not_found``
(404), ``method_not_allowed`` (405), ``payload_too_large`` (413),
``internal`` (500), ``overloaded`` (503, carries ``retry_after``), and
``deadline_exceeded`` (504) — so clients branch on ``error.code``, never
on message prose.

Request handling order is deliberate: parse → route → **admission** →
coalesce/dispatch.  A request shed by a full lane is answered ``503``
with ``Retry-After`` *before* it reaches a coalescing bucket or the
service — overload handling must be the cheap path.  Admitted requests
run under their deadline via ``asyncio.wait_for``; expiry answers
``504`` and, mid-coalesce, removes only the expired waiter from its
bucket.

Service calls execute on a dedicated single-thread executor: the
services allow concurrent queries only when each estimator is driven by
one thread at a time, and a single dispatch thread both satisfies that
contract and serializes batches in submission order.

Response bodies are deterministic — query, method, walk count, and the
score pairs, never wall-clock — so a response can be compared **byte for
byte** against an oracle's answer for the same query.  The serving tests
and :mod:`benchmarks.bench_http_serving` hold coalesced responses to
exactly that standard (native engines with an integer seed; see
:mod:`repro.server.coalesce`).
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    GraphError,
    ProtocolError,
    QueryError,
)
from repro.eval.metrics_export import render_prometheus, service_metrics
from repro.server.admission import AdmissionController, Deadline
from repro.server.coalesce import Coalescer
from repro.server.http import read_request, render_response

__all__ = ["ServerConfig", "SimRankHTTPApp", "serialize_result", "serialize_topk"]


def _json_bytes(payload: object) -> bytes:
    """Canonical JSON encoding: sorted keys, no whitespace, ascii-safe.

    One encoder for responses *and* oracles — byte-level comparability of
    the two is the bit-exactness contract of the coalescing tier.
    """
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("ascii")


def serialize_result(result, limit: int) -> bytes:
    """Deterministic body for one single-source answer.

    ``scores`` carries the top-``limit`` ``[node, estimate]`` pairs under
    the result's deterministic tie-break (full score vectors are O(n) per
    response; the pairs are what a ranking consumer reads).  Timing never
    enters the body.
    """
    return _json_bytes({
        "query": int(result.query),
        "method": result.method,
        "num_walks": int(result.num_walks),
        "limit": int(limit),
        "scores": result.topk(limit).as_pairs(),
    })


def serialize_topk(result) -> bytes:
    """Deterministic body for one top-k answer."""
    return _json_bytes({
        "query": int(result.query),
        "method": result.method,
        "k": int(result.k),
        "scores": result.as_pairs(),
    })


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of the HTTP front door.

    Parameters
    ----------
    host / port:
        Bind address; port ``0`` asks the OS for a free port (tests and
        the in-process benchmark use this).
    coalesce:
        Micro-batch concurrent ``/single_source`` and ``/topk`` requests
        (see :mod:`repro.server.coalesce`).  Off, every request
        dispatches individually.
    coalesce_window:
        Collection window in seconds from a bucket's first request.
    coalesce_max_batch:
        Distinct-query cap per bucket (full buckets dispatch early).
    admission_capacity:
        Per-lane in-flight bound (int for all lanes, or ``{lane: int}``).
    retry_after:
        Seconds advertised in ``Retry-After`` on a 503 shed.
    deadline_s:
        Default per-request deadline; a request body may lower (not
        raise) it with ``"deadline_s"``.  ``None`` disables deadlines.
    scores_limit:
        Default number of ``[node, score]`` pairs in single-source
        bodies (bodies stay O(limit), not O(n)).
    max_body:
        Request-body byte cap (oversized requests answer 413).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    coalesce: bool = True
    coalesce_window: float = 0.002
    coalesce_max_batch: int = 64
    admission_capacity: int | dict[str, int] | None = None
    retry_after: float = 1.0
    deadline_s: float | None = 30.0
    scores_limit: int = 10
    max_body: int = 1_048_576

    def __post_init__(self) -> None:
        if self.scores_limit <= 0:
            raise ConfigurationError(
                f"scores_limit must be positive, got {self.scores_limit!r}"
            )
        if self.max_body <= 0:
            raise ConfigurationError(
                f"max_body must be positive, got {self.max_body!r}"
            )


class SimRankHTTPApp:
    """Route table + lifecycle for serving one query service over HTTP."""

    def __init__(self, service, config: ServerConfig | None = None) -> None:
        self.service = service
        self.config = config or ServerConfig()
        self.admission = AdmissionController(
            self.config.admission_capacity, retry_after=self.config.retry_after
        )
        self.coalescer = Coalescer(
            self._dispatch_batch,
            window=self.config.coalesce_window,
            max_batch=self.config.coalesce_max_batch,
        ) if self.config.coalesce else None
        # One dispatch thread: the services' thread model allows concurrent
        # queries only with one driving thread per estimator replica.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._requests_total = 0  # guarded-by: event-loop
        self._responses_by_status: dict[int, int] = {}  # guarded-by: event-loop

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind and start accepting connections (idempotent)."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the OS-assigned one)."""
        if self._server is None:
            raise ConfigurationError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        await self.start()
        await self._server.serve_forever()

    async def aclose(self, close_service: bool = True) -> None:
        """Stop accepting, flush coalescing buckets, tear down the executor.

        ``close_service`` also closes the underlying service (the CLI owns
        its service; tests that inject one may want to keep it).
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # parked keep-alive connections are blocked in read_request; unpark
        # them so shutdown is clean rather than relying on loop teardown
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        if self.coalescer is not None:
            await self.coalescer.flush()
        self._executor.shutdown(wait=True)
        if close_service:
            self.service.close()

    # ------------------------------------------------------------------ #
    # dispatch plumbing
    # ------------------------------------------------------------------ #

    async def _run_blocking(self, fn, *args, **kwargs):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, partial(fn, *args, **kwargs)
        )

    async def _dispatch_batch(self, key, queries):
        """Coalescer dispatch target: one batched service call per bucket."""
        route, method, k = key
        if route == "topk":
            return await self._run_blocking(
                self.service.topk_many, queries, k, method=method
            )
        return await self._run_blocking(
            self.service.single_source_many, queries, method=method
        )

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader, self.config.max_body)
                except ProtocolError as exc:
                    status = 413 if "exceeds cap" in str(exc) else 400
                    writer.write(self._error_response(status, str(exc),
                                                      keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return
                self._requests_total += 1
                payload = await self._respond(request)
                writer.write(payload)
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass  # client went away (or shutdown); nothing to answer
        finally:
            if task is not None:
                self._connections.discard(task)
            # close() alone: awaiting wait_closed() in a finally re-raises
            # CancelledError during shutdown; the transport closes regardless
            writer.close()

    def _count(self, status: int) -> None:
        self._responses_by_status[status] = (
            self._responses_by_status.get(status, 0) + 1
        )

    def _error_response(self, status: int, message: str,
                        keep_alive: bool = True,
                        extra: tuple[tuple[str, str], ...] = (),
                        retry_after: float | None = None) -> bytes:
        """Uniform error envelope: ``{"error": {"code", "message", ...}}``.

        ``code`` is the stable slug clients branch on (:data:`_ERROR_CODES`);
        ``retry_after`` mirrors the ``Retry-After`` header into the body so
        JSON-only clients need not parse headers to back off.
        """
        self._count(status)
        error: dict[str, object] = {
            "code": _ERROR_CODES[status], "message": message,
        }
        if retry_after is not None:
            error["retry_after"] = retry_after
        return render_response(
            status, _json_bytes({"error": error}),
            extra_headers=extra, keep_alive=keep_alive,
        )

    def _ok(self, body: bytes, content_type: str = "application/json",
            keep_alive: bool = True,
            extra: tuple[tuple[str, str], ...] = ()) -> bytes:
        self._count(200)
        return render_response(200, body, content_type=content_type,
                               extra_headers=extra, keep_alive=keep_alive)

    async def _respond(self, request) -> bytes:
        """Route one request to its handler and map errors to statuses."""
        keep_alive = request.keep_alive
        # Deprecated bare aliases answer byte-identical bodies; only these
        # two headers distinguish them from their /v1 successor.
        alias = _alias_headers(request.path)
        route = _ROUTES.get(request.path)
        if route is None:
            return self._error_response(404, f"no route {request.path!r}",
                                        keep_alive=keep_alive)
        verb, handler_name, lane = route
        if request.method != verb:
            return self._error_response(
                405, f"{request.path} expects {verb}", keep_alive=keep_alive,
                extra=(("Allow", verb), *alias),
            )
        handler = getattr(self, handler_name)
        try:
            if lane is None:
                body, content_type = await handler(request)
                return self._ok(body, content_type, keep_alive=keep_alive,
                                extra=alias)
            with self.admission.admit(lane) as permit:
                deadline = self._deadline(request)
                try:
                    body, content_type = await asyncio.wait_for(
                        handler(request), timeout=deadline.remaining()
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    permit.record_timeout()
                    return self._error_response(
                        504, f"deadline of {deadline.seconds:g}s expired",
                        keep_alive=keep_alive, extra=alias,
                    )
            return self._ok(body, content_type, keep_alive=keep_alive,
                            extra=alias)
        except AdmissionError as exc:
            return self._error_response(
                503, str(exc), keep_alive=keep_alive,
                extra=(("Retry-After", f"{exc.retry_after:g}"), *alias),
                retry_after=exc.retry_after,
            )
        except (ProtocolError, QueryError, ConfigurationError, GraphError) as exc:
            return self._error_response(400, str(exc), keep_alive=keep_alive,
                                        extra=alias)
        except Exception as exc:  # noqa: BLE001 — a handler bug must not kill the loop
            return self._error_response(
                500, f"{type(exc).__name__}: {exc}", keep_alive=keep_alive,
                extra=alias,
            )

    def _deadline(self, request) -> Deadline:
        payload = request.json()
        seconds = self.config.deadline_s
        if isinstance(payload, dict) and payload.get("deadline_s") is not None:
            requested = payload["deadline_s"]
            if not isinstance(requested, (int, float)) or requested <= 0:
                raise ProtocolError(
                    f"deadline_s must be a positive number, got {requested!r}"
                )
            # clients may tighten the budget, never widen the server's
            seconds = (
                float(requested) if seconds is None
                else min(float(requested), seconds)
            )
        return Deadline(seconds)

    # ------------------------------------------------------------------ #
    # request-body helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _body_dict(request) -> dict:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        return payload

    @staticmethod
    def _get_query(payload: dict) -> int:
        query = payload.get("query")
        if isinstance(query, bool) or not isinstance(query, int):
            raise ProtocolError(f"'query' must be an integer, got {query!r}")
        return query

    @staticmethod
    def _get_queries(payload: dict) -> list[int]:
        queries = payload.get("queries")
        if not isinstance(queries, list) or not queries or any(
            isinstance(q, bool) or not isinstance(q, int) for q in queries
        ):
            raise ProtocolError(
                "'queries' must be a non-empty list of integers"
            )
        return queries

    def _get_k(self, payload: dict) -> int:
        k = payload.get("k", self.config.scores_limit)
        if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
            raise ProtocolError(f"'k' must be a positive integer, got {k!r}")
        return k

    def _get_limit(self, payload: dict) -> int:
        limit = payload.get("limit", self.config.scores_limit)
        if isinstance(limit, bool) or not isinstance(limit, int) or limit <= 0:
            raise ProtocolError(
                f"'limit' must be a positive integer, got {limit!r}"
            )
        return limit

    @staticmethod
    def _get_method(payload: dict) -> str | None:
        method = payload.get("method")
        if method is not None and not isinstance(method, str):
            raise ProtocolError(f"'method' must be a string, got {method!r}")
        return method

    @staticmethod
    def _get_edges(payload: dict, field: str) -> list[tuple[int, int]]:
        edges = payload.get(field, [])
        if not isinstance(edges, list):
            raise ProtocolError(f"{field!r} must be a list of [source, target]")
        pairs = []
        for edge in edges:
            if (not isinstance(edge, (list, tuple)) or len(edge) != 2 or any(
                    isinstance(v, bool) or not isinstance(v, int) for v in edge)):
                raise ProtocolError(
                    f"{field!r} entries must be [source, target] ints, "
                    f"got {edge!r}"
                )
            pairs.append((edge[0], edge[1]))
        return pairs

    # ------------------------------------------------------------------ #
    # handlers (each returns (body, content_type))
    # ------------------------------------------------------------------ #

    async def _handle_healthz(self, request) -> tuple[bytes, str]:
        payload: dict[str, object] = {
            "status": "ok",
            "methods": self.service.methods,
            "coalesce": self.coalescer is not None,
        }
        epoch = getattr(self.service, "epoch", None)
        if isinstance(epoch, int):
            payload["epoch"] = epoch
        return _json_bytes(payload), "application/json"

    async def _handle_metrics(self, request) -> tuple[bytes, str]:
        extra = {
            "http_requests_total": self._requests_total,
            **{
                f"http_responses_{status}": count
                for status, count in self._responses_by_status.items()
            },
            **self.admission.metrics(),
        }
        if self.coalescer is not None:
            extra.update(self.coalescer.stats.metrics())
        cache = getattr(self.service, "cache", None)
        snapshot = (
            cache.snapshot() if cache is not None and cache.enabled else None
        )
        text = render_prometheus(
            service_metrics(self.service.stats, cache=snapshot, extra=extra)
        )
        return text.encode("utf-8"), "text/plain; version=0.0.4"

    async def _handle_single_source(self, request) -> tuple[bytes, str]:
        payload = self._body_dict(request)
        query = self._get_query(payload)
        method = self._get_method(payload)
        limit = self._get_limit(payload)
        if self.coalescer is not None:
            result = await self.coalescer.submit(
                ("single_source", method, None), query
            )
        else:
            result = await self._run_blocking(
                self.service.single_source, query, method=method
            )
        return serialize_result(result, limit), "application/json"

    async def _handle_topk(self, request) -> tuple[bytes, str]:
        payload = self._body_dict(request)
        query = self._get_query(payload)
        method = self._get_method(payload)
        k = self._get_k(payload)
        if self.coalescer is not None:
            result = await self.coalescer.submit(("topk", method, k), query)
        else:
            result = await self._run_blocking(
                self.service.topk, query, k, method=method
            )
        return serialize_topk(result), "application/json"

    async def _handle_single_source_many(self, request) -> tuple[bytes, str]:
        payload = self._body_dict(request)
        queries = self._get_queries(payload)
        method = self._get_method(payload)
        limit = self._get_limit(payload)
        results = await self._run_blocking(
            self.service.single_source_many, queries, method=method
        )
        body = b'{"results":[' + b",".join(
            serialize_result(result, limit) for result in results
        ) + b"]}"
        return body, "application/json"

    async def _handle_topk_many(self, request) -> tuple[bytes, str]:
        payload = self._body_dict(request)
        queries = self._get_queries(payload)
        method = self._get_method(payload)
        k = self._get_k(payload)
        results = await self._run_blocking(
            self.service.topk_many, queries, k, method=method
        )
        body = b'{"results":[' + b",".join(
            serialize_topk(result) for result in results
        ) + b"]}"
        return body, "application/json"

    async def _handle_apply_edges(self, request) -> tuple[bytes, str]:
        payload = self._body_dict(request)
        added = self._get_edges(payload, "added")
        removed = self._get_edges(payload, "removed")
        if not added and not removed:
            raise ProtocolError("apply_edges needs 'added' and/or 'removed'")
        applied = await self._run_blocking(
            self.service.apply_edges, added=added, removed=removed
        )
        return _json_bytes({"applied": int(applied)}), "application/json"


#: stable machine-readable slugs of the error envelope, keyed by status.
#: Slugs are API surface: clients branch on them, so renaming one is a
#: breaking change even though the human-readable message may evolve freely.
_ERROR_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    413: "payload_too_large",
    500: "internal",
    503: "overloaded",
    504: "deadline_exceeded",
}

#: the versioned query API: bare path -> (verb, handler attribute, admission
#: lane).  Canonical routes live under ``/v1``; the bare paths stay mounted
#: as deprecated aliases (same handler, same lane, byte-identical bodies).
_API_ROUTES = {
    "/single_source": ("POST", "_handle_single_source", "single_source"),
    "/topk": ("POST", "_handle_topk", "topk"),
    "/single_source_many": ("POST", "_handle_single_source_many", "batch"),
    "/topk_many": ("POST", "_handle_topk_many", "batch"),
    "/apply_edges": ("POST", "_handle_apply_edges", "update"),
}

#: path -> (verb, handler attribute, admission lane or None for ops routes).
#: Ops probes are unversioned — scrapers and orchestrators address them by
#: convention, not through the API's compatibility contract.
_ROUTES = {
    "/healthz": ("GET", "_handle_healthz", None),
    "/metrics": ("GET", "_handle_metrics", None),
}
for _path, _spec in _API_ROUTES.items():
    _ROUTES["/v1" + _path] = _spec
    _ROUTES[_path] = _spec
del _path, _spec


def _alias_headers(path: str) -> tuple[tuple[str, str], ...]:
    """Deprecation headers for a bare (unversioned) API path, else ``()``.

    RFC 8594 ``Deprecation: true`` plus a ``Link`` naming the successor —
    the alias contract is "same bytes, plus a forwarding address".
    """
    if path in _API_ROUTES:
        return (
            ("Deprecation", "true"),
            ("Link", f'</v1{path}>; rel="successor-version"'),
        )
    return ()
