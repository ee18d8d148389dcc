"""Reproducible random streams built on the Philox counter-based generator.

Every stochastic routine in this package derives its stream from an integer
seed plus a tuple of stream ids (shard index, purpose tag, ...).  Streams
with distinct ids are statistically independent, and the mapping
(seed, ids) -> stream does not depend on execution order or on how work is
split across processes.

philox_key is the one place a stream's key is derived.  The C kernel reads
NumPy's Philox stream from a philox_state of the key alone, finds where
each draw starts, and draws its uniforms, heights and normals (NumPy's own
ziggurat) from it, so `bounds` and `simulate` never import numpy.random.
substream wraps the key in NumPy's Philox Generator; only the benchmark and
the tests use it.
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


def philox_state(key, counter: int = 0) -> np.ndarray:
    """The kernel's Philox state of the stream of (key, counter), as NumPy's
    Philox(key=key, counter=counter) starts it: 11 words, the key, the
    256-bit counter (low word first), a 4-word buffer and the position of
    the buffer's next word, 4 as the buffer is spent.  The kernels that draw
    from it leave it past what they read."""
    key = np.ascontiguousarray(key, dtype=np.uint64)
    if key.shape != (2,):
        raise ValueError("a Philox key is two 64-bit words")
    state = np.zeros(11, dtype=np.uint64)
    state[:2] = key
    state[2:6] = [(counter >> shift) & _MASK64 for shift in (0, 64, 128, 192)]
    state[10] = 4
    return state


def substream(seed: int, *ids: int) -> np.random.Generator:
    """Return the Generator for stream `ids` of the experiment keyed by `seed`."""
    return np.random.Generator(np.random.Philox(key=philox_key(seed, *ids)))
