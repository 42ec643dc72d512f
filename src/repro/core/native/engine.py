"""Native-engine orchestration: context, trie build, and the hybrid sweep.

The per-level control flow (which levels run sparse, which dense) lives
here, *outside* both backends: the switch is a deterministic integer cost
model over ``(graph, trie)``, so the numba kernels and the numpy fallback
always execute the same step sequence and differ only in how each step is
computed — which the parity suite pins down to byte-identical scores.

Cost model: a sparse level transition costs roughly its matmat flops
(bounded by ``sum(out_degree[row] * row_nnz)``) plus a handful of full
passes over the level's entries; a dense one costs ``m * k_next`` fused
multiply-adds in one compiled ``csr @ dense`` product.  Once column
supports grow past a few percent of ``n`` (shallow levels — ball unions),
dense wins decisively; before that (deep levels — a few hundred touched
nodes across all columns), sparse wins by orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.walk_trie import TrieLevel, WalkTrie

#: weights of the sparse-cost proxy (flops, per-entry passes) against the
#: dense cost ``m * k_next``; tuned on the bench_native_engine preset.
SWITCH_FLOP_WEIGHT = 9
SWITCH_PASS_WEIGHT = 10


@dataclass
class NativeContext:
    """Per-(graph, sqrt_c) state shared by every native query.

    ``op`` is the probe operator ``sqrt_c * B`` (``B[v, x] = 1/|I(v)|``
    for every edge ``x -> v``) materialized once as a CSR whose rows are
    the in-adjacency slices — both backends iterate these exact arrays,
    which is what anchors their float accumulation orders to each other.
    """

    graph: object
    n: int
    m: int
    in_indptr: np.ndarray
    in_indices: np.ndarray
    in_degrees: np.ndarray
    out_indptr: np.ndarray
    out_indices: np.ndarray
    out_degrees: np.ndarray
    target_weights: np.ndarray
    op: sparse.csr_matrix


def make_context(csr, sqrt_c: float) -> NativeContext:
    """Build the native query context for one CSR snapshot."""
    n = csr.num_nodes
    target_weights = sqrt_c * csr.inv_in_degrees
    op = sparse.csr_matrix(
        (
            np.repeat(target_weights, csr.in_degrees),
            csr.in_indices.astype(np.int64),
            csr.in_indptr.astype(np.int64),
        ),
        shape=(n, n),
    )
    return NativeContext(
        graph=csr,
        n=n,
        m=csr.num_edges,
        in_indptr=csr.in_indptr,
        in_indices=csr.in_indices,
        in_degrees=csr.in_degrees,
        out_indptr=csr.out_indptr,
        out_indices=csr.out_indices,
        out_degrees=csr.out_degrees,
        target_weights=target_weights,
        op=op,
    )


def context_for(csr, sqrt_c: float) -> NativeContext:
    """:func:`make_context`, cached on the CSR snapshot (keyed by ``sqrt_c``).

    CSR snapshots are immutable, so a context built once is valid for the
    snapshot's whole lifetime — mirroring how the snapshot caches its
    ``backward_operator``.  Caching here means short-lived engines (one per
    benchmark round, one per service worker epoch) share the operator build.
    """
    cache = getattr(csr, "_native_contexts", None)
    if cache is None:
        cache = {}
        csr._native_contexts = cache
    ctx = cache.get(sqrt_c)
    if ctx is None:
        ctx = cache[sqrt_c] = make_context(csr, sqrt_c)
    return ctx


def build_trie_kernel(nodes: np.ndarray, lengths: np.ndarray) -> WalkTrie:
    """Kernel-backed twin of :meth:`WalkTrie.from_walk_arrays`.

    The canonical trie is integer-valued and per-level sorted, so parity
    only needs the same *spec* — sorted distinct ``(parent, node)`` keys
    with multiplicities — which :func:`kernels.unique_counts` reproduces.
    """
    from repro.core.native import kernels

    count = len(nodes)
    root = int(nodes[0, 0])
    levels: list[TrieLevel] = []
    stride = int(nodes.max()) + 2
    parent_of_walk = np.zeros(count, dtype=np.int64)
    for depth in range(2, int(lengths.max()) + 1):
        alive = lengths >= depth
        if not np.any(alive):
            break
        keys = parent_of_walk[alive] * stride + nodes[alive, depth - 1]
        distinct, inverse, counts = kernels.unique_counts(keys)
        levels.append(
            TrieLevel(
                nodes=distinct % stride,
                parents=distinct // stride,
                weights=counts.astype(np.int64),
            )
        )
        parent_of_walk = np.full(count, -1, dtype=np.int64)
        parent_of_walk[alive] = inverse
    return WalkTrie(root=root, num_walks=count, levels=levels)


def probe_trie(ctx: NativeContext, trie: WalkTrie, impl) -> np.ndarray:
    """Run the hybrid level sweep for one trie; returns unnormalized scores."""
    n = ctx.n
    if trie.max_depth < 2:
        return np.zeros(n, dtype=np.float64)
    levels = trie.levels
    cur = None  # sparse phase state: (keys, data), key = row * k + col
    acc = None  # dense phase state: (n, k) float64
    dense = False
    for depth in range(trie.max_depth, 1, -1):
        level = levels[depth - 2]
        k = len(level)
        parents = level.parents
        if depth == 2:
            k_next = 1
            next_nodes = np.array([trie.root], dtype=np.int64)
        else:
            nxt = levels[depth - 3]
            k_next = len(nxt)
            next_nodes = nxt.nodes
        switching = False
        if not dense and cur is not None:
            flops = int(ctx.out_degrees[cur[0] // k].sum())
            passes = len(cur[0])
            if (
                SWITCH_FLOP_WEIGHT * flops + SWITCH_PASS_WEIGHT * passes
                >= ctx.m * k_next
            ):
                dense = True
                switching = True
        weights = level.weights.astype(np.float64)
        if dense and not switching:
            acc = impl.dense_level(
                acc, level.nodes, weights, parents, ctx.op, next_nodes, k_next
            )
        else:
            # seeds, sorted by flat (row, parent-column) key; trie nodes are
            # unique per (parent, node) so the keys are strictly increasing.
            seed_keys = level.nodes * k_next + parents
            order = np.argsort(seed_keys, kind="stable")
            merged = impl.sparse_merge_seed(
                cur, k, parents, seed_keys[order], weights[order], k_next
            )
            if switching:
                # merge while still sparse (cheap), densify the narrower
                # merged matrix, and only propagate dense from here on.
                acc = impl.sparse_to_dense(merged, n, k_next)
                acc = impl.dense_propagate(acc, ctx.op, next_nodes)
                cur = None
            else:
                cur = impl.sparse_propagate_zero(
                    ctx.out_indptr,
                    ctx.out_indices,
                    ctx.target_weights,
                    merged,
                    k_next,
                    next_nodes,
                )
    if dense:
        return np.ascontiguousarray(acc[:, 0])
    scores = np.zeros(n, dtype=np.float64)
    keys, data = cur
    scores[keys] = data  # k_next == 1 at the last level: key == row
    return scores


def run_query(
    ctx: NativeContext,
    query: int,
    num_walks: int,
    sqrt_c: float,
    max_len: int,
    base: int,
    impl,
    kernel_trie: bool,
) -> tuple[np.ndarray, WalkTrie]:
    """Walks -> trie -> sweep for one query; returns unnormalized scores."""
    from repro.core.native.rng import walk_bases

    bases = walk_bases(base, num_walks)
    nodes, lengths = impl.sample_walks(
        ctx.in_indptr, ctx.in_indices, ctx.in_degrees,
        bases, query, sqrt_c, max_len,
    )
    if kernel_trie:
        trie = build_trie_kernel(nodes, lengths)
    else:
        trie = WalkTrie.from_walk_arrays(nodes, lengths)
    return probe_trie(ctx, trie, impl), trie
