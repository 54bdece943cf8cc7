import numpy as np
import pytest

from deathlab.rng import RngError, RngStream, make_stream


def draws(stream, n=100):
    return stream.generator.random(n)


def test_same_seed_and_stream_replays_exactly():
    a = draws(make_stream(42, 0))
    b = draws(make_stream(42, 0))
    assert np.array_equal(a, b)


def test_distinct_stream_ids_differ():
    a = draws(make_stream(42, 0))
    b = draws(make_stream(42, 1))
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    assert not np.array_equal(draws(make_stream(1, 0)), draws(make_stream(2, 0)))


def test_substreams_are_independent_and_reproducible():
    root = make_stream(9, 2)
    s0, s1 = root.substream(0), root.substream(1)
    assert not np.array_equal(draws(s0), draws(s1))
    assert np.array_equal(draws(make_stream(9, 2).substream(0)), draws(RngStream(9, 2, (2, 0))))


def test_substream_statistical_independence():
    # correlation across 200 substreams stays at noise level
    root = make_stream(123, 0)
    block = np.stack([root.substream(i).generator.random(500) for i in range(200)])
    corr = np.corrcoef(block)
    off_diag = corr[~np.eye(200, dtype=bool)]
    assert np.max(np.abs(off_diag)) < 0.25  # ~4.5 sigma for 500 points


@pytest.mark.parametrize(
    "seed,stream_id",
    [(-1, 0), (2**64, 0), (0, -1)],
)
def test_invalid_construction_rejected(seed, stream_id):
    with pytest.raises(RngError):
        make_stream(seed, stream_id)


def _key(stream):
    state = stream.generator.bit_generator.state["state"]
    assert state["counter"].tolist() == [0, 0, 0, 0]
    return state["key"].tolist()


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize(
    "parent",
    [
        lambda seed: make_stream(seed, 0),  # a path of length 1
        lambda seed: make_stream(seed, 2**32 + 3),  # ... whose id takes two words
        lambda seed: make_stream(seed, 4).substream(9),  # a path of length 2
        lambda seed: RngStream(seed, 5, ()),  # no path: the children's is the index alone
    ],
    ids=["path_1", "two_word_id", "path_2", "empty_path"],
)
def test_bulk_keys_are_numpys_substream_keys(seed, parent):
    stream = parent(seed)
    keys = stream.substream_keys(70)
    assert keys.dtype == np.uint64 and keys.shape == (70, 2)
    assert keys.tolist() == [_key(stream.substream(i)) for i in range(70)]
    assert stream.substream_keys(0).shape == (0, 2)


@pytest.mark.parametrize("count", [-1, 2**32 + 1, 2**64])
def test_bulk_keys_refuse_an_index_of_two_words(count):
    # an index of 2**32 or more would need a second 32-bit word
    with pytest.raises(RngError):
        make_stream(0, 0).substream_keys(count)
