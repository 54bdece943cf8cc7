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
