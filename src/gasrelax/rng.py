"""Reproducible random streams built on the Philox counter-based generator.

Every stochastic routine in this package derives its stream from an integer
seed plus a tuple of stream ids (shard index, purpose tag, ...).  Streams
with distinct ids are statistically independent, and the mapping
(seed, ids) -> stream does not depend on execution order or on how work is
split across processes.

philox_key is the one place a stream's key is derived.  substream wraps the
key in NumPy's Philox Generator; the C kernel reads the same stream from the
key alone (gibbs.norm0_mc), so a caller that needs only uniforms never
imports numpy.random.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _fold_ids(ids: tuple[int, ...]) -> int:
    # 64-bit polynomial fold; id order matters, (3,) != (0, 3).
    acc = 0x9E3779B97F4A7C15
    for v in ids:
        acc = (acc * 0x100000001B3 + (int(v) + 1)) & _MASK64
    return acc


def philox_key(seed: int, *ids: int) -> np.ndarray:
    """The two 64-bit Philox key words of stream `ids` of the experiment
    keyed by `seed`."""
    return np.array([int(seed) & _MASK64, _fold_ids(ids)], dtype=np.uint64)


def substream(seed: int, *ids: int) -> np.random.Generator:
    """Return the Generator for stream `ids` of the experiment keyed by `seed`."""
    return np.random.Generator(np.random.Philox(key=philox_key(seed, *ids)))
