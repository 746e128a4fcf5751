"""Deterministic random-number streams.

Every stochastic routine in this package draws from a stream created here.
Streams are built on numpy's Philox bit generator, which is counter-based:
the numbers a stream yields are a pure function of its (seed, index) key, so
any trial can be reproduced in isolation and neither execution order nor
worker count can change what a given trial sees.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "stream", "IDX_SCENARIO", "IDX_ERASER_A", "IDX_ERASER_B", "IDX_REPEAT", "IDX_CONFIGS",
    "IDX_BRANCH", "IDX_CHSH",
]

# The first stream index of each purpose.  A purpose draws from the indices
# below the next block, so no two consumers share a (seed, index) key.
IDX_SCENARIO = 0  # grid-scenario ensembles; +1 for the continuum claim
IDX_ERASER_A = 100  # eraser chunks, one index per chunk (at most 100)
IDX_ERASER_B = 200  # the second eraser ensemble of the claims suite
IDX_REPEAT = 300  # repeatability with collapse; +1 without
IDX_CONFIGS = 400  # hidden configurations of the setting-dependence claim
IDX_BRANCH = 500  # branch/collapse pairs, one index per pair
IDX_CHSH = 600  # Monte-Carlo CHSH, one index per correlator


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator keyed by (seed, index).

    `seed` is the 64-bit master seed of a run; `index` names a substream
    (scenario stage or trial block). Same key, same numbers, always.
    """
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    if not 0 <= int(index) < 2**64:
        raise ValueError(f"stream index must fit in an unsigned 64-bit integer, got {index}")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
