"""Random-number-generator plumbing.

Every randomized component in the library accepts a ``seed`` argument that may
be ``None`` (fresh OS entropy), an ``int``, or an existing
:class:`numpy.random.Generator`.  Routing all of them through
:func:`as_generator` keeps the whole library reproducible from a single seed
while still allowing callers to share one generator across components.
"""

from __future__ import annotations

import numpy as np

SeedLike = "int | np.random.Generator | np.random.SeedSequence | None"


def as_generator(seed=None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged (no copy), so state is
    shared with the caller; anything else is fed to ``numpy.random.default_rng``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_generator(rng: np.random.Generator) -> np.random.Generator:
    """Derive an independent child generator from ``rng``.

    Used when a component needs its own stream (e.g. one per trial batch)
    whose draws do not perturb the parent's sequence.
    """
    seed = rng.integers(0, 2**63 - 1, dtype=np.int64)
    return np.random.default_rng(int(seed))

