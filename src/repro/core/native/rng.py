"""Counter-based RNG for the native engine (splitmix64 streams).

The loop engine threads one ``numpy.random.Generator`` through a
whole walk batch, so a walk's randomness depends on every draw made before
it — correct, but inherently sequential and batch-shaped.  The native
engine instead derives every random draw from a *counter*: a 64-bit key
built from ``(seed, query, walk_id, step, lane)`` and pushed through the
splitmix64 finalizer.  Consequences:

- bit-reproducible per ``(seed, query)`` — a query's walks are a pure
  function of the key material, independent of batch composition, call
  order, and of whether the walks were sampled by the vectorized fallback
  or the numba kernels;
- embarrassingly parallel — any walk or step can be drawn in isolation,
  which is what lets the numba kernel and the vectorized fallback consume
  keys in different iteration orders yet emit identical walks.

Key schedule (all arithmetic mod 2^64)::

    base     = mix64(mix64(seed + GOLDEN) ^ mix64(query * GOLDEN + SALT))
    walk[i]  = base + (i + 1) * GOLDEN          # per-walk sub-stream
    draw     = mix64(walk[i] + (2*step + lane + 1) * GOLDEN)
    uniform  = (draw >> 11) * 2.0**-53          # [0, 1), 53 mantissa bits

``lane`` 0 is the geometric continue/stop test, lane 1 the in-neighbour
pick — mirroring the two draws per step of the sequential sampler.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
#: splitmix64 stream increment (golden-ratio constant).
GOLDEN = 0x9E3779B97F4A7C15
#: splitmix64 finalizer multipliers.
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
#: salt separating the query word from the seed word in the stream base.
SALT = 0xD1B54A32D192ED03
#: 2^-53: maps the top 53 bits of a draw onto [0, 1).
U53 = 2.0**-53


def mix64(z: int) -> int:
    """splitmix64 finalizer on a python int (setup-time scalar path)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def stream_base(seed: int, query: int) -> int:
    """The per-``(seed, query)`` stream base (a pure int function)."""
    return mix64(mix64(seed + GOLDEN) ^ mix64(query * GOLDEN + SALT))


def walk_bases(base: int, count: int) -> np.ndarray:
    """Per-walk sub-stream bases as a uint64 array (shared by both backends)."""
    steps = (np.arange(1, count + 1, dtype=np.uint64)) * np.uint64(GOLDEN)
    return np.uint64(base) + steps


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    return z ^ (z >> np.uint64(31))


def uniform_array(keys: np.ndarray) -> np.ndarray:
    """Map uint64 draw keys to float64 uniforms in [0, 1)."""
    return (mix64_array(keys) >> np.uint64(11)).astype(np.float64) * U53


def draw_keys(bases: np.ndarray, step: int, lane: int) -> np.ndarray:
    """Draw-key array for one ``(step, lane)`` across all walk bases."""
    # the per-step offset is formed in python ints (masked) so the scalar
    # product can't raise a numpy overflow warning; the array add wraps
    # silently, which is the intended mod-2^64 stream arithmetic.
    return bases + np.uint64(((2 * step + lane + 1) * GOLDEN) & MASK64)
