import numpy as np
import pytest

from gasrelax.rng import substream


def _skip(rng, count):
    # the skip make_relaxation_report and helpers.skip_heights make: whole
    # Philox counter values of 4 doubles each, then the rest drawn
    rng.bit_generator.advance(count // 4)
    rng.bit_generator.random_raw(count % 4)
    return rng


@pytest.mark.parametrize("drawn", range(5))
@pytest.mark.parametrize("count", [*range(10), 1_280_000, 1_280_003])
def test_ahead_equals_drawing_and_discarding(drawn, count):
    # `drawn` whole counter values used first leave rng's 4-value buffer
    # empty or spent, as at the start of a substream or after a batch of
    # 20000 N heights
    skipped = substream(30, drawn)
    skipped.random(4 * drawn)
    _skip(skipped, count)
    rng = substream(30, drawn)
    rng.random(4 * drawn + count)
    assert np.array_equal(skipped.bit_generator.random_raw(9),
                          rng.bit_generator.random_raw(9))


def test_ahead_gives_the_doubles_after_count():
    rng = substream(31, 0)
    skipped = _skip(substream(31, 0), 1001)
    assert np.array_equal(skipped.random(7), rng.random(1008)[1001:])
