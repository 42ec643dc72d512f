"""Input generators: same seed, same inputs; another seed, other inputs."""

import numpy as np

from servebench import inputs


def _all(seed: int) -> list[str]:
    web = inputs.web_graph_edges(seed, 400, 6)
    queries, routes = inputs.http_trace(seed, web, 400, 500)
    trace = inputs.read_write_trace(seed, web, 400, 500)
    return [inputs.digest(web), inputs.digest(queries, routes), inputs.digest(*trace),
            str(inputs.engine_seed(seed))]


def test_same_seed_same_digests_other_seed_other_digests():
    first, again, other = _all(3), _all(3), _all(4)
    assert first == again
    assert all(a != b for a, b in zip(first, other))


def test_graph_is_simple():
    edges = inputs.web_graph_edges(5, 400, 6)
    pairs = set(map(tuple, edges.tolist()))
    assert len(pairs) == len(edges)
    assert all(s != t for s, t in pairs)


def test_http_trace_splits_routes_exactly():
    _, routes = inputs.http_trace(2, inputs.web_graph_edges(2, 400, 6), 400, 500)
    assert int(routes.sum()) == round(inputs.TOPK_SHARE * 500)


def test_read_write_trace_updates_are_valid_in_order():
    edges = inputs.web_graph_edges(7, 400, 6)
    kinds, a, b = inputs.read_write_trace(7, edges, 400, 2000)
    present = set(map(tuple, edges.tolist()))
    for kind, s, t in zip(kinds.tolist(), a.tolist(), b.tolist()):
        if kind == 1:
            assert s != t and (s, t) not in present
            present.add((s, t))
        elif kind == 2:
            present.remove((s, t))
    share = float(np.mean(kinds > 0))
    assert 0.10 < share < 0.20
    assert 0.3 < float(np.mean(kinds[kinds > 0] == 1)) < 0.7
