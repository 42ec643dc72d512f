"""End-to-end tests of the HTTP app over real sockets.

The cheap paths (routing, validation, admission, deadlines) run against
the recording stub service from ``conftest``; the bit-exactness contract
runs against the native engine with an integer seed.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.api.service import SimRankService
from repro.errors import ConfigurationError
from repro.server import ServerConfig, SimRankHTTPApp, serialize_result, serialize_topk


class TestOpsRoutes:
    def test_healthz(self, harness):
        service = harness.StubService(epoch=3)

        async def scenario(app):
            async with harness.Client(app.port) as client:
                return await client.request("GET", "/healthz")

        response = harness.serve(service, scenario)
        assert response.status == 200
        payload = json.loads(response.body)
        assert payload == {
            "status": "ok", "methods": ["stub"], "coalesce": True, "epoch": 3,
        }

    def test_metrics_exposition(self, harness):
        service = harness.StubService()

        async def scenario(app):
            async with harness.Client(app.port) as client:
                ok = await client.request(
                    "POST", "/single_source", {"query": 4}
                )
                assert ok.status == 200
                return await client.request("GET", "/metrics")

        response = harness.serve(service, scenario)
        assert response.status == 200
        assert response.headers["content-type"].startswith("text/plain")
        text = response.body.decode()
        assert "# TYPE repro_http_requests_total gauge" in text
        assert "repro_http_responses_200 1" in text
        assert "repro_admission_single_source_admitted 1" in text
        assert "repro_coalesce_batches 1" in text
        assert "repro_queries" in text  # ServiceStats rows come through

    def test_port_before_start_is_an_error(self, harness):
        app = SimRankHTTPApp(harness.StubService(), ServerConfig(port=0))
        with pytest.raises(ConfigurationError, match="not started"):
            app.port


class TestQueryRoutes:
    def test_single_source_body_is_the_canonical_serialization(self, harness):
        service = harness.StubService()

        async def scenario(app):
            async with harness.Client(app.port) as client:
                return await client.request(
                    "POST", "/single_source", {"query": 7, "limit": 5}
                )

        response = harness.serve(service, scenario)
        assert response.status == 200
        assert response.body == serialize_result(harness.FakeResult(7), 5)

    def test_topk_body_is_the_canonical_serialization(self, harness):
        service = harness.StubService()

        async def scenario(app):
            async with harness.Client(app.port) as client:
                return await client.request(
                    "POST", "/topk", {"query": 2, "k": 3}
                )

        response = harness.serve(service, scenario)
        assert response.status == 200
        assert response.body == serialize_topk(harness.FakeTopK(2, 3))

    def test_batch_routes_wrap_results(self, harness):
        service = harness.StubService()

        async def scenario(app):
            async with harness.Client(app.port) as client:
                many = await client.request(
                    "POST", "/single_source_many", {"queries": [1, 2]}
                )
                topk = await client.request(
                    "POST", "/topk_many", {"queries": [3], "k": 2}
                )
                return many, topk

        many, topk = harness.serve(service, scenario)
        assert many.status == 200
        expected = b'{"results":[%s,%s]}' % (
            serialize_result(harness.FakeResult(1), 10),
            serialize_result(harness.FakeResult(2), 10),
        )
        assert many.body == expected
        assert topk.status == 200
        assert json.loads(topk.body)["results"][0]["k"] == 2
        assert ("topk_many", (3,), 2) in service.calls

    def test_apply_edges(self, harness):
        service = harness.StubService()

        async def scenario(app):
            async with harness.Client(app.port) as client:
                return await client.request(
                    "POST", "/apply_edges",
                    {"added": [[1, 2]], "removed": [[3, 4]]},
                )

        response = harness.serve(service, scenario)
        assert response.status == 200
        assert json.loads(response.body) == {"applied": 2}
        assert ("apply_edges", ((1, 2),), ((3, 4),)) in service.calls

    def test_keep_alive_serves_multiple_requests(self, harness):
        service = harness.StubService()

        async def scenario(app):
            async with harness.Client(app.port) as client:
                first = await client.request("POST", "/topk", {"query": 1})
                second = await client.request("POST", "/topk", {"query": 2})
                return first, second

        first, second = harness.serve(service, scenario)
        assert first.status == second.status == 200
        assert json.loads(second.body)["query"] == 2


class TestErrorMapping:
    def _one(self, harness, service, *request_args, **request_kwargs):
        async def scenario(app):
            async with harness.Client(app.port) as client:
                return await client.request(*request_args, **request_kwargs)

        return harness.serve(service, scenario)

    def test_unknown_route_is_404(self, harness):
        response = self._one(harness, harness.StubService(), "GET", "/nope")
        assert response.status == 404

    def test_wrong_verb_is_405_with_allow(self, harness):
        response = self._one(harness, harness.StubService(), "GET", "/topk")
        assert response.status == 405
        assert response.headers["allow"] == "POST"

    def test_invalid_json_is_400(self, harness):
        response = self._one(
            harness, harness.StubService(), "POST", "/topk", body=b"{nope"
        )
        assert response.status == 400
        error = json.loads(response.body)["error"]
        assert error["code"] == "bad_request"
        assert "JSON" in error["message"]

    @pytest.mark.parametrize("payload", [
        {},                       # missing query
        {"query": "three"},       # wrong type
        {"query": True},          # bool is not an int here
        {"query": 1, "k": 0},     # non-positive k
        {"query": 1, "method": 7},
        {"query": 1, "deadline_s": -1},
    ])
    def test_bad_payloads_are_400(self, harness, payload):
        response = self._one(
            harness, harness.StubService(), "POST", "/topk", payload
        )
        assert response.status == 400

    def test_empty_queries_list_is_400(self, harness):
        response = self._one(
            harness, harness.StubService(),
            "POST", "/single_source_many", {"queries": []},
        )
        assert response.status == 400

    def test_apply_edges_without_edges_is_400(self, harness):
        response = self._one(
            harness, harness.StubService(), "POST", "/apply_edges", {}
        )
        assert response.status == 400

    def test_oversized_body_is_413(self, harness):
        async def scenario(app):
            async with harness.Client(app.port) as client:
                return await client.request("POST", "/topk", body=b"x" * 200)

        response = harness.serve(
            harness.StubService(), scenario, max_body=64
        )
        assert response.status == 413
        assert response.headers["connection"] == "close"

    def test_service_bug_is_500_not_a_dead_loop(self, harness):
        class ExplodingService(harness.StubService):
            def topk(self, query, k, method=None):
                raise RuntimeError("boom")

        service = ExplodingService()

        async def scenario(app):
            async with harness.Client(app.port) as client:
                failed = await client.request("POST", "/topk", {"query": 1})
                alive = await client.request("GET", "/healthz")
                return failed, alive

        failed, alive = harness.serve(service, scenario, coalesce=False)
        assert failed.status == 500
        error = json.loads(failed.body)["error"]
        assert error["code"] == "internal"
        assert "RuntimeError" in error["message"]
        assert alive.status == 200


class TestAPIVersioning:
    """/v1 is canonical; bare paths are byte-identical deprecated aliases."""

    ALIAS_LINK = '</v1/topk>; rel="successor-version"'

    def test_v1_and_alias_answer_identical_bytes(self, harness):
        service = harness.StubService()
        routes = [
            ("/single_source", {"query": 7, "limit": 5}),
            ("/topk", {"query": 2, "k": 3}),
            ("/single_source_many", {"queries": [1, 2]}),
            ("/topk_many", {"queries": [3], "k": 2}),
            ("/apply_edges", {"added": [[1, 2]]}),
        ]

        async def scenario(app):
            async with harness.Client(app.port) as client:
                pairs = []
                for path, payload in routes:
                    versioned = await client.request(
                        "POST", "/v1" + path, payload
                    )
                    alias = await client.request("POST", path, payload)
                    pairs.append((path, versioned, alias))
                return pairs

        for path, versioned, alias in harness.serve(
            service, scenario, coalesce=False
        ):
            assert versioned.status == alias.status == 200, path
            assert versioned.body == alias.body, path

    def test_alias_announces_its_successor(self, harness):
        service = harness.StubService()

        async def scenario(app):
            async with harness.Client(app.port) as client:
                alias = await client.request("POST", "/topk", {"query": 1})
                versioned = await client.request(
                    "POST", "/v1/topk", {"query": 1}
                )
                return alias, versioned

        alias, versioned = harness.serve(service, scenario, coalesce=False)
        assert alias.headers["deprecation"] == "true"
        assert alias.headers["link"] == self.ALIAS_LINK
        assert "deprecation" not in versioned.headers
        assert "link" not in versioned.headers

    def test_alias_errors_also_announce_the_successor(self, harness):
        # the forwarding address rides on error responses too — a client
        # seeing only failures still learns where the API moved
        service = harness.StubService()

        async def scenario(app):
            async with harness.Client(app.port) as client:
                return await client.request("GET", "/topk")

        response = harness.serve(service, scenario)
        assert response.status == 405
        assert response.headers["allow"] == "POST"
        assert response.headers["deprecation"] == "true"
        assert response.headers["link"] == self.ALIAS_LINK

    def test_ops_routes_are_unversioned(self, harness):
        service = harness.StubService()

        async def scenario(app):
            async with harness.Client(app.port) as client:
                bare = await client.request("GET", "/healthz")
                versioned = await client.request("GET", "/v1/healthz")
                return bare, versioned

        bare, versioned = harness.serve(service, scenario)
        assert bare.status == 200
        assert "deprecation" not in bare.headers
        assert versioned.status == 404


class TestErrorEnvelope:
    """Every 4xx/5xx answers ``{"error": {"code", "message", ...}}``."""

    @staticmethod
    def check_envelope(response, code):
        payload = json.loads(response.body)
        assert set(payload) == {"error"}
        error = payload["error"]
        assert error["code"] == code
        assert isinstance(error["message"], str) and error["message"]
        assert set(error) <= {"code", "message", "retry_after"}
        return error

    @pytest.mark.parametrize("method, path, kwargs, status, code", [
        ("GET", "/nope", {}, 404, "not_found"),
        ("GET", "/v1/topk", {}, 405, "method_not_allowed"),
        ("POST", "/v1/topk", {"body": b"{nope"}, 400, "bad_request"),
        ("POST", "/v1/topk", {"payload": {"query": "x"}}, 400, "bad_request"),
    ])
    def test_envelope_shape(self, harness, method, path, kwargs, status, code):
        async def scenario(app):
            async with harness.Client(app.port) as client:
                return await client.request(method, path, **kwargs)

        response = harness.serve(harness.StubService(), scenario)
        assert response.status == status
        self.check_envelope(response, code)

    def test_oversized_body_envelope(self, harness):
        async def scenario(app):
            async with harness.Client(app.port) as client:
                return await client.request(
                    "POST", "/v1/topk", body=b"x" * 200
                )

        response = harness.serve(
            harness.StubService(), scenario, max_body=64
        )
        assert response.status == 413
        self.check_envelope(response, "payload_too_large")


class TestAdmission:
    def test_full_lane_sheds_503_before_touching_the_pool(self, harness):
        gate = threading.Event()
        service = harness.StubService(gate=gate)

        async def scenario(app):
            async with harness.Client(app.port) as first, \
                    harness.Client(app.port) as second:
                holder = asyncio.ensure_future(
                    first.request("POST", "/single_source", {"query": 1})
                )
                # wait until request 1 is actually occupying the lane
                while not service.calls:
                    await asyncio.sleep(0.005)
                shed = await second.request(
                    "POST", "/single_source", {"query": 2}
                )
                assert shed.status == 503
                assert shed.headers["retry-after"] == "1"
                # the shed request never reached the service: the only
                # dispatched call is still the lane holder's
                assert service.calls == [("single_source", 1)]
                gate.set()
                held = await holder
                assert held.status == 200
                return shed

        shed = harness.serve(
            service, scenario, coalesce=False, admission_capacity=1
        )
        error = json.loads(shed.body)["error"]
        assert error["code"] == "overloaded"
        assert "admission lane 'single_source' is full" in error["message"]
        # the Retry-After header is mirrored into the body for JSON-only
        # clients
        assert error["retry_after"] == 1.0

    def test_lanes_shed_independently(self, harness):
        gate = threading.Event()
        service = harness.StubService(gate=gate)

        async def scenario(app):
            async with harness.Client(app.port) as first, \
                    harness.Client(app.port) as second:
                holder = asyncio.ensure_future(
                    first.request("POST", "/single_source", {"query": 1})
                )
                while not service.calls:
                    await asyncio.sleep(0.005)
                # single_source lane is full; the topk lane is not.  The
                # topk request completes only after the gate opens (one
                # dispatch thread), so release the gate first.
                gate.set()
                other_lane = await second.request(
                    "POST", "/topk", {"query": 3}
                )
                assert other_lane.status == 200
                assert (await holder).status == 200

        harness.serve(service, scenario, coalesce=False, admission_capacity=1)


class TestDeadlines:
    def test_expired_deadline_is_504_and_counted(self, harness):
        service = harness.StubService(delay=0.3)

        async def scenario(app):
            async with harness.Client(app.port) as client:
                response = await client.request(
                    "POST", "/topk", {"query": 1, "deadline_s": 0.05}
                )
            assert app.admission.lanes["topk"].timeouts == 1
            return response

        response = harness.serve(service, scenario, coalesce=False)
        assert response.status == 504
        error = json.loads(response.body)["error"]
        assert error["code"] == "deadline_exceeded"
        assert "deadline of 0.05s expired" in error["message"]

    def test_client_may_tighten_but_not_widen_the_deadline(self, harness):
        service = harness.StubService(delay=0.3)

        async def scenario(app):
            async with harness.Client(app.port) as client:
                return await client.request(
                    "POST", "/topk", {"query": 1, "deadline_s": 60.0}
                )

        response = harness.serve(
            service, scenario, coalesce=False, deadline_s=0.05
        )
        assert response.status == 504
        # the server budget won, not the client's 60s
        assert "0.05s" in json.loads(response.body)["error"]["message"]

    def test_deadline_mid_coalesce_cancels_only_the_expired_request(
        self, harness
    ):
        service = harness.StubService()

        async def scenario(app):
            async with harness.Client(app.port) as doomed_client, \
                    harness.Client(app.port) as survivor_client:
                doomed = asyncio.ensure_future(doomed_client.request(
                    "POST", "/single_source",
                    {"query": 1, "deadline_s": 0.05},
                ))
                survivor = asyncio.ensure_future(survivor_client.request(
                    "POST", "/single_source", {"query": 2}
                ))
                responses = await asyncio.gather(doomed, survivor)
            # the expired request was answered 504 without ever reaching
            # the service; its batch-mate was dispatched undisturbed
            assert app.coalescer.stats.dropped_cancelled == 1
            assert app.coalescer.dispatch_log == [
                (("single_source", None, None), (2,)),
            ]
            return responses

        # window longer than the doomed request's deadline: it expires
        # while its bucket is still collecting
        doomed, survivor = harness.serve(
            service, scenario, coalesce_window=0.3
        )
        assert doomed.status == 504
        assert survivor.status == 200
        assert json.loads(survivor.body)["query"] == 2
        assert service.calls == [("single_source_many", (2,))]


class TestLifecycle:
    def test_aclose_closes_the_service_when_asked(self, harness):
        service = harness.StubService()

        async def main():
            app = SimRankHTTPApp(service, ServerConfig(port=0))
            await app.start()
            await app.aclose(close_service=True)

        asyncio.run(main())
        assert service.closed == 1


CFG = {"eps_a": 0.2, "delta": 0.1, "num_walks": 80, "seed": 7}


class TestBitExactness:
    """Coalesced HTTP answers must equal a sequential oracle, byte for byte."""

    def test_coalesced_responses_match_sequential_oracle(self, harness, tiny_wiki):
        service = SimRankService(
            tiny_wiki, methods=["probesim-native"],
            configs={"probesim-native": CFG},
        )
        # duplicates included: dedup must not perturb anyone's answer
        queries = [3, 11, 3, 25, 40, 57, 11, 64, 81, 99]

        async def scenario(app):
            async def one(kind, query):
                async with harness.Client(app.port) as client:
                    if kind == "topk":
                        return await client.request(
                            "POST", "/topk", {"query": query, "k": 5}
                        )
                    return await client.request(
                        "POST", "/single_source", {"query": query}
                    )

            responses = await asyncio.gather(*(
                [one("single_source", q) for q in queries]
                + [one("topk", q) for q in queries]
            ))
            # real coalescing happened (the whole point of the tier)
            assert app.coalescer.stats.batches < app.coalescer.stats.requests
            assert app.coalescer.stats.dedup_saved > 0
            return responses

        responses = harness.serve(service, scenario, coalesce_window=0.25)
        service.close()

        oracle = SimRankService(
            tiny_wiki, methods=["probesim-native"],
            configs={"probesim-native": CFG},
        )
        single, topk = responses[:len(queries)], responses[len(queries):]
        for query, response in zip(queries, single):
            assert response.status == 200
            assert response.body == serialize_result(
                oracle.single_source(query), 10
            )
        for query, response in zip(queries, topk):
            assert response.status == 200
            assert response.body == serialize_topk(oracle.topk(query, 5))


class TestShardedService:
    """The front door speaks the same protocol over the sharded router."""

    def test_sharded_service_behind_the_app(self, harness, tiny_wiki):
        from repro.parallel.sharded import ShardedSimRankService

        service = ShardedSimRankService(
            tiny_wiki.copy(), methods=("probesim-native",),
            configs={"probesim-native": {
                "eps_a": 0.3, "num_walks": 40, "seed": 11,
            }},
            shards=2, workers=1, executor="sequential", cache_size=8,
        )

        async def scenario(app):
            async with harness.Client(app.port) as client:
                single = await client.request(
                    "POST", "/single_source", {"query": 3}
                )
                update = await client.request(
                    "POST", "/apply_edges", {"added": [[0, 9]]}
                )
                health = await client.request("GET", "/healthz")
                metrics = await client.request("GET", "/metrics")
                return single, update, health, metrics

        single, update, health, metrics = harness.serve(service, scenario)
        service.close()
        assert single.status == 200
        assert update.status == 200
        payload = json.loads(health.body)
        assert payload["status"] == "ok"
        # the router's epoch (summed shard epochs) is a plain int for /healthz
        assert isinstance(payload["epoch"], int)
        assert payload["epoch"] >= 1
        text = metrics.body.decode()
        assert "repro_cache_hits" in text  # merged shard cache snapshot
        assert "repro_updates 1" in text  # the router's logical update count
        assert "repro_syncs 1" in text
