import numpy as np
import pytest

from gasrelax.rng import ahead, substream


@pytest.mark.parametrize("drawn", range(5))
@pytest.mark.parametrize("count", [*range(10), 1_280_000, 1_280_003])
def test_ahead_equals_drawing_and_discarding(drawn, count):
    # 0 to 4 values drawn leave rng's 4-value Philox buffer empty,
    # part-used or spent
    rng = substream(30, drawn)
    rng.random(drawn)
    before = str(rng.bit_generator.state)
    skipped = ahead(rng, count)
    assert str(rng.bit_generator.state) == before
    rng.bit_generator.random_raw(count)
    assert np.array_equal(skipped.bit_generator.random_raw(9),
                          rng.bit_generator.random_raw(9))


def test_ahead_gives_the_doubles_after_count():
    rng = substream(31, 0)
    skipped = ahead(rng, 1001)
    assert np.array_equal(skipped.random(7), rng.random(1008)[1001:])


def test_ahead_rejects_other_streams():
    with pytest.raises(TypeError, match="Philox"):
        ahead(np.random.default_rng(1), 10)
