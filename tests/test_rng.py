import math

import numpy as np
import pytest

from deathlab import _parallel, rng
from deathlab.process import extinction_time_batch
from deathlab.regimes import Constant
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
    [(-1, 0), (2**64, 0), (0, -1), (True, 0), (0, True), (2.5, 0), (0, 2.5), ("3", 0), (math.nan, 0),
     (math.inf, 0), (0, -math.inf), (float(2**64), 0)],
)
def test_invalid_construction_rejected(monkeypatch, seed, stream_id):
    # the count rule refuses the identifiers before a generator is made
    made = []
    monkeypatch.setattr(rng, "_make_generator", lambda *args: made.append(args))
    with pytest.raises(RngError):
        make_stream(seed, stream_id)
    assert made == []


@pytest.mark.parametrize("index", [-1, True, 1.5, "1", math.nan])
def test_invalid_derivation_rejected(monkeypatch, index):
    root = make_stream(3, 1)
    made = []
    monkeypatch.setattr(rng, "_make_generator", lambda *args: made.append(args))
    with pytest.raises(RngError):
        root.substream(index)
    assert made == []


def test_identifiers_are_counts():
    # numpy integers and integral floats name the same stream as the int
    expected = draws(make_stream(2**64 - 1, 3).substream(4))
    for seed, stream_id, index in [(np.uint64(2**64 - 1), np.int64(3), np.int32(4)), (2**64 - 1, 3.0, 4.0)]:
        stream = make_stream(seed, stream_id).substream(index)
        assert (stream.seed, stream.stream_id, stream.path) == (2**64 - 1, 3, (3, 4))
        assert np.array_equal(draws(stream), expected)



def _counting(monkeypatch):
    made = []
    build = rng._make_generator
    monkeypatch.setattr(rng, "_make_generator", lambda *args: made.append(args) or build(*args))
    return made


def test_a_stream_builds_its_generator_on_first_draw(monkeypatch):
    made = _counting(monkeypatch)
    stream = make_stream(5, 2).substream(3)
    assert made == []
    first = stream.generator
    assert stream.generator is first
    assert made == [(5, (2, 3))]
    assert np.array_equal(draws(stream), draws(RngStream(5, 2, (2, 3))))


def test_a_chunked_batch_builds_no_generator_for_its_root(monkeypatch):
    made = _counting(monkeypatch)
    monkeypatch.setattr(_parallel, "CHUNK_SIZE", 4)
    extinction_time_batch(5, Constant(0.5), make_stream(6, 1), 10)
    assert made == [(6, (1, 0)), (6, (1, 1)), (6, (1, 2))]
