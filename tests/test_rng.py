import functools

import numpy as np
import pytest

import helpers
from gasrelax import gibbs
from gasrelax.model import ModelParams
from gasrelax.rng import philox_key, philox_state, substream


def _skip(rng, count):
    # skips count doubles as the kernel's philox_skip moves past a batch's
    # heights: whole Philox counter values of 4 doubles each, then the rest
    # of one drawn
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


def test_substream_is_philox_of_its_key():
    key = philox_key(31, 4, 7)
    assert key.dtype == np.uint64 and key.shape == (2,)
    assert int(key[0]) == 31
    assert not np.array_equal(key, philox_key(31, 7, 4))
    mine = np.random.Generator(np.random.Philox(key=key)).random(9)
    assert np.array_equal(substream(31, 4, 7).random(9), mine)
    # the seed is folded mod 2^64
    assert np.array_equal(philox_key(-1, 2), philox_key(2 ** 64 - 1, 2))


_MAX64 = 2 ** 64 - 1


@functools.cache
def _one_particle():
    """The marginal of rows of one particle: a row's height is one value
    of the stream."""
    return gibbs.build_marginal(ModelParams(1, 1.0, 1.0, 10.0),
                                grid_size=256)


@pytest.mark.parametrize("ids", [(0,), (101,), (7, 3)])
@pytest.mark.parametrize("counter", [
    0, 5, _MAX64, _MAX64 - 2, 2 ** 128 - 1, 2 ** 192 - 3, 2 ** 256 - 1],
    ids=["0", "5", "2^64-1", "2^64-3", "2^128-1", "2^192-3", "2^256-1"])
def test_kernel_stream_is_numpys(ids, counter):
    # word 0 at or near 2^64 - 1 carries into the next words as the counter
    # is raised; 2^256 - 1 wraps to 0.  Lengths of whole and part blocks,
    # drawn as the heights of n rows of one particle, then their momenta;
    # the state is left where NumPy's is.
    key = philox_key(20260808, *ids)
    for n in (1, 3, 4, 9, 1027):
        want = np.random.Generator(np.random.Philox(key=key,
                                                    counter=counter))
        state = philox_state(key, counter)
        got = gibbs._states(_one_particle(), n, state)
        for mine, theirs in zip(got, helpers.sample_batch_reference(
                _one_particle(), want, n)):
            assert np.array_equal(mine.view(np.uint64),
                                  theirs.view(np.uint64))
        assert np.array_equal(state, helpers.kernel_state(want))


def test_planted_zero_is_numpys_zero():
    # the counter the Philox rounds run backwards give: NumPy draws 0.0 at
    # the planted index (the kernel skips it: test_gibbs' test_planted_zero)
    key = philox_key(5, 101)
    for index in (0, 3, 4101):
        counter = helpers.philox_counter_with_zeros(key, [index])
        u = np.random.Generator(np.random.Philox(
            key=key, counter=counter)).random(index + 5)
        assert np.flatnonzero(u == 0.0).tolist() == [index]
