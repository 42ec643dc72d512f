"""Span self time, per-op attribution and the layer breakdown."""

from servebench.tracing import Op, Span, attach, breakdown, covered, op_layers, self_times


def test_covered_merges_overlaps():
    assert covered([(0, 10), (5, 15), (20, 25)]) == 20
    assert covered([(0, 10), (2, 3), (4, 5)]) == 10
    assert covered([]) == 0


def test_self_time_subtracts_union_of_overlapping_children():
    parent = Span("api.query", 0, 100, 1)
    spans = [
        parent,
        Span("core.walks", 10, 50, 2, parent=1),
        Span("core.trie", 30, 70, 3, parent=1),  # overlaps the walks span
        Span("core.sweep", 90, 130, 4, parent=1),  # runs past its parent
        Span("core.sweep", 40, 45, 5, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs[1] == 100 - (60 + 10)
    assert selfs[2] == 40 - 5
    assert selfs[3] == 40
    assert selfs[5] == 5


def test_op_layers_sum_to_the_op_and_split_coalesce_wait():
    op = Op(7, "query", 0, 1000)
    op.spans = [
        Span("server.frontdoor", 100, 900, 1, rid=7),
        Span("server.coalesce", 150, 800, 2, parent=1, rid=7),
        Span("api.query", 400, 700, 3, parent=2),
        Span("core.sweep", 450, 650, 4, parent=3),
        Span("server.serialize", 820, 850, 5, parent=1, rid=7),
    ]
    layers = op_layers(op, "query.unattributed")
    assert sum(layers.values()) == 1000
    assert layers["query.unattributed"] == 200
    assert layers["server.coalesce.wait"] == 250
    assert layers["core.sweep"] == 200
    assert layers["api.query"] == 100
    assert layers["server.serialize"] == 30
    assert layers["server.frontdoor"] == (800 - 650 - 30) + (650 - 250 - 300)


def test_attach_by_request_window_and_link():
    ops = [Op(1, "query", 0, 100), Op(2, "query", 200, 300)]
    worker = 99
    spans = [
        Span("parallel.rpc", 10, 90, 1, rid=1, pid=1),
        Span("api.query", 20, 80, 2, pid=worker),  # worker root, no request id
        Span("core.walks", 30, 40, 3, parent=2, pid=worker),
        Span("server.coalesce", 210, 290, 4, rid=2, pid=1, link=5),
        Span("api.query", 220, 280, 5, pid=2),  # dispatch thread, no request id
        Span("core.sweep", 230, 270, 6, parent=5, pid=2),
    ]
    attach(ops, spans, window_pids={worker})
    assert {s.sid for s in ops[0].spans} == {1, 2, 3}
    assert next(s for s in ops[0].spans if s.sid == 2).parent == 1
    assert {s.sid for s in ops[1].spans} == {4, 5, 6}
    layers = op_layers(ops[0], "query.unattributed")
    assert layers["parallel.rpc"] == 20 and layers["core.walks"] == 10
    parts, mean = breakdown(ops, "query.unattributed")
    assert abs(sum(parts.values()) - mean) < 1e-9
