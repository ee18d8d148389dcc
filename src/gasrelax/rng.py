"""Reproducible random streams built on the Philox counter-based generator.

Every stochastic routine in this package derives its generator from an
integer seed plus a tuple of stream ids (shard index, purpose tag, ...).
Streams with distinct ids are statistically independent, and the mapping
(seed, ids) -> stream does not depend on execution order or on how work is
split across processes.

`ahead` gives a second generator on the same stream, a fixed number of
values further on, so that two consecutive parts of one stream can be drawn
side by side, a block of each at a time.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# 64-bit outputs per Philox4x64 counter value
_PHILOX_BUFFER = 4


def _fold_ids(ids: tuple[int, ...]) -> int:
    # 64-bit polynomial fold; id order matters, (3,) != (0, 3).
    acc = 0x9E3779B97F4A7C15
    for v in ids:
        acc = (acc * 0x100000001B3 + (int(v) + 1)) & _MASK64
    return acc


def substream(seed: int, *ids: int) -> np.random.Generator:
    """Return the Generator for stream `ids` of the experiment keyed by `seed`."""
    key = np.array([int(seed) & _MASK64, _fold_ids(ids)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def ahead(rng: np.random.Generator, count: int) -> np.random.Generator:
    """A new Generator whose stream starts `count` 64-bit values after rng's.

    rng.random takes one such value per double, so the new Generator draws
    what rng would after `count` doubles; rng itself does not move.  The
    copy first uses up the outputs that rng still holds in its buffer, then
    skips whole counter values: Philox.advance empties the buffer, so it
    runs only once the buffer is spent.
    """
    if not isinstance(rng.bit_generator, np.random.Philox):
        raise TypeError("ahead needs a Philox stream, as substream makes")
    state = rng.bit_generator.state
    twin = np.random.Philox(key=state["state"]["key"])
    twin.state = state
    buffered = min(count, _PHILOX_BUFFER - state["buffer_pos"])
    twin.random_raw(buffered)
    rest = count - buffered
    if rest:
        twin.advance(rest // _PHILOX_BUFFER)
        twin.random_raw(rest % _PHILOX_BUFFER)
    return np.random.Generator(twin)
