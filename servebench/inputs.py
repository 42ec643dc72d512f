"""Seeded input generators of the serving benchmark.

Everything a workload feeds the program is made here, from ``--seed``
alone, with this directory's own code: the graph, the query traces and
the update streams.  Nothing is drawn through
``repro.graph.generators``, ``repro.datasets`` or ``repro.workloads``, so a
change to those modules cannot change what the benchmark measures.  Each
input has a digest (:func:`digest`) that a run prints, which shows that a
parent run and a change run replayed identical inputs.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: copying-model web graph shaped like the ``it-2004`` stand-in
WEB_NODES = 12_000
WEB_OUT_DEGREE = 6
WEB_COPY_PROBABILITY = 0.65
ZIPF_EXPONENT = 1.0
#: popularity orders per query trace, and in-degree strata per order
POPULARITY_EPOCHS = 40
QUERY_STRATA = 20
#: share of HTTP requests sent to ``/v1/topk`` (the rest to ``/v1/single_source``)
TOPK_SHARE = 0.5
#: share of read-write trace operations that are updates, and of those inserts
UPDATE_SHARE = 0.15
INSERT_SHARE = 0.5


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """An independent generator per (run seed, input name)."""
    words = np.frombuffer(hashlib.blake2b(tag.encode(), digest_size=8).digest(), np.uint32)
    return np.random.default_rng(np.random.SeedSequence([int(seed), *words.tolist()]))


def engine_seed(seed: int) -> int:
    """The engine's ``seed`` config, derived from the run seed."""
    return int(rng_for(seed, "engine").integers(1, 2**31 - 1))


def digest(*arrays) -> str:
    """A short hex digest over arrays (or nested lists) of integers/floats."""
    hasher = hashlib.blake2b(digest_size=8)
    for array in arrays:
        array = np.ascontiguousarray(np.asarray(array))
        hasher.update(str(array.dtype).encode())
        hasher.update(np.asarray(array.shape, dtype=np.int64).tobytes())
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def web_graph_edges(seed: int, num_nodes: int = WEB_NODES,
                    out_degree: int = WEB_OUT_DEGREE) -> np.ndarray:
    """Copying-model web graph as an ``(m, 2)`` int64 edge array.

    Every new page links to ``out_degree`` targets; each target is copied
    from a random earlier page's links with :data:`WEB_COPY_PROBABILITY`, else
    drawn uniformly from the earlier pages.  Repeats and self-links are
    dropped, so the edge count lands somewhat below ``n * out_degree``.
    """
    rng = rng_for(seed, "web-graph")
    out: list[list[int]] = [[] for _ in range(num_nodes)]
    start = min(out_degree + 1, num_nodes)
    for node in range(1, start):
        out[node].append(int(rng.integers(node)))
    for node in range(start, num_nodes):
        proto_links = out[int(rng.integers(node))]
        coins = rng.random(out_degree)
        picks = rng.integers(0, 1 << 62, size=out_degree)
        chosen: list[int] = []
        for coin, pick in zip(coins, picks):
            if proto_links and coin < WEB_COPY_PROBABILITY:
                target = proto_links[int(pick) % len(proto_links)]
            else:
                target = int(pick) % node
            if target not in chosen:
                chosen.append(target)
        out[node] = chosen
    return np.array(
        [(s, t) for s, targets in enumerate(out) for t in targets], dtype=np.int64
    ).reshape(-1, 2)


def in_degrees(edges: np.ndarray, num_nodes: int) -> np.ndarray:
    return np.bincount(edges[:, 1], minlength=num_nodes)


def stratified_order(rng: np.random.Generator, key: np.ndarray, strata: int) -> np.ndarray:
    """Every node once, dealt round-robin from ``strata`` quantile groups of ``key``.

    Nodes are ranked by ``key`` (ties broken at random), cut into equal
    groups, each group shuffled; position ``j * strata + s`` of the result
    is the ``j``-th node of group ``s``.  Any run of ``strata`` consecutive
    positions therefore holds one node of every group: each seed draws
    different nodes, but with the same in-degree profile.
    """
    ranked = np.lexsort((rng.random(len(key)), key))
    groups = [rng.permutation(group) for group in np.array_split(ranked, strata)]
    width = min(len(group) for group in groups)
    dealt = np.stack([group[:width] for group in groups], axis=1).ravel()
    rest = np.concatenate([group[width:] for group in groups])
    return np.concatenate([dealt, rng.permutation(rest)]).astype(np.int64)


def zipf_queries(seed: int, tag: str, edges: np.ndarray, num_nodes: int,
                 count: int) -> np.ndarray:
    """``count`` query nodes drawn Zipf(:data:`ZIPF_EXPONENT`) over popularity ranks.

    The trace runs in :data:`POPULARITY_EPOCHS` equal slices, each with its own popularity
    order (the hot set shifts between slices).  An order deals ranks
    round-robin over in-degree strata (:func:`stratified_order`), so the hot
    queries of every seed have the same in-degree profile; the cost of a
    query follows its in-degree, so this keeps one seed's hot set from
    being much dearer than another's.
    """
    rng = rng_for(seed, tag)
    weights = np.arange(1, num_nodes + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    cdf = np.cumsum(weights / weights.sum())
    key = in_degrees(edges, num_nodes)
    out = []
    bounds = np.linspace(0, count, POPULARITY_EPOCHS + 1).round().astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        order = stratified_order(rng, key, QUERY_STRATA)
        picks = np.searchsorted(cdf, rng.random(hi - lo), side="right")
        out.append(order[np.minimum(picks, num_nodes - 1)])
    return np.concatenate(out).astype(np.int64)


def exact_share(rng: np.random.Generator, count: int, share: float) -> np.ndarray:
    """A boolean mask with exactly ``round(share * count)`` seeded positions set."""
    mask = np.zeros(count, dtype=bool)
    mask[rng.permutation(count)[: round(share * count)]] = True
    return mask


def http_trace(seed: int, edges: np.ndarray, num_nodes: int,
               count: int) -> tuple[np.ndarray, np.ndarray]:
    """Queries plus a route per request: 1 = ``/v1/topk``, 0 = single source.

    Exactly :data:`TOPK_SHARE` of the requests go to ``/v1/topk``, in seeded order.
    """
    queries = zipf_queries(seed, "http-queries", edges, num_nodes, count)
    routes = exact_share(rng_for(seed, "http-routes"), count, TOPK_SHARE).astype(np.int64)
    return queries, routes


def read_write_trace(seed: int, edges: np.ndarray, num_nodes: int, count: int):
    """An ordered mixed trace of top-k queries and valid single-edge updates.

    Returns ``(kinds, a, b)``: ``kinds[i]`` is 0 for a query of node
    ``a[i]``, 1 for inserting edge ``a[i] -> b[i]`` and 2 for deleting it.
    Exactly :data:`UPDATE_SHARE` of the operations are updates and exactly
    :data:`INSERT_SHARE` of those are inserts, at seeded positions.  Validity
    is tracked against the evolving edge set: an insert never duplicates
    an edge or loops, a delete always removes a present edge.
    """
    rng = rng_for(seed, "read-write-trace")
    a = zipf_queries(seed, "read-write-queries", edges, num_nodes, count)
    updates = np.flatnonzero(exact_share(rng, count, UPDATE_SHARE))
    inserts = exact_share(rng, len(updates), INSERT_SHARE)
    present = [(int(s), int(t)) for s, t in edges]
    where = {edge: i for i, edge in enumerate(present)}
    kinds = np.zeros(count, dtype=np.int64)
    b = np.full(count, -1, dtype=np.int64)
    for i, insert in zip(updates.tolist(), inserts.tolist()):
        if insert:
            while True:
                s, t = (int(x) for x in rng.integers(0, num_nodes, size=2))
                if s != t and (s, t) not in where:
                    break
            where[(s, t)] = len(present)
            present.append((s, t))
            kinds[i] = 1
        else:
            slot = int(rng.integers(len(present)))
            s, t = present[slot]
            last = present.pop()
            if slot < len(present):
                present[slot] = last
                where[last] = slot
            del where[(s, t)]
            kinds[i] = 2
        a[i], b[i] = s, t
    return kinds, a, b


def probe_node(edges: np.ndarray, num_nodes: int) -> int:
    """The set-up probe query: the lowest node id of least in-degree.

    Set-up time runs to the first answered query; probing a node with no
    in-links keeps that query's own (input-dependent) cost out of it,
    while the engine still builds everything a first query needs.
    """
    return int(np.argmin(in_degrees(edges, num_nodes)))
