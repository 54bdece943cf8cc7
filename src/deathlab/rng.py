"""Reproducible random number streams with explicit substream derivation.

Streams are backed by the counter-based Philox generator.  A stream is
identified by ``(seed, stream_id)`` plus an optional derivation path, so
parallel work can carve out statistically independent substreams whose
output never depends on the number of workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .regimes import check_count


class RngError(ValueError):
    """Invalid stream construction."""


def _make_generator(seed: int, path: tuple[int, ...]) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=path)
    return np.random.Generator(np.random.Philox(seq))


@dataclass
class RngStream:
    """A single-owner random stream.

    Identical ``(seed, stream_id)`` (and derivation path) always replays the
    identical draw sequence; distinct ids give independent streams.  Never
    share one stream between concurrent consumers: derive substreams instead.
    """

    seed: int
    stream_id: int
    path: tuple[int, ...] = None  # defaults to (stream_id,)
    _generator: np.random.Generator | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.seed = check_count(self.seed, "seed", 0, RngError, 2**64 - 1)
        self.stream_id = check_count(self.stream_id, "stream_id", 0, RngError)
        if self.path is None:
            self.path = (self.stream_id,)

    @property
    def generator(self) -> np.random.Generator:
        """The stream's Philox generator, built on first use: a stream that
        only derives substreams, such as a chunked batch's root, never
        pays for one."""
        if self._generator is None:
            self._generator = _make_generator(self.seed, self.path)
        return self._generator

    def substream(self, index: int) -> "RngStream":
        """Derive the ``index``-th child stream; independent of this one."""
        index = check_count(index, "substream index", 0, RngError)
        return RngStream(self.seed, self.stream_id, self.path + (index,))


def make_stream(seed: int, stream_id: int = 0) -> RngStream:
    """Create the stream identified by ``(seed, stream_id)``."""
    return RngStream(seed, stream_id)
