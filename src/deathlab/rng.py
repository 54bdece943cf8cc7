"""Reproducible random number streams with explicit substream derivation.

Streams are backed by the counter-based Philox generator.  A stream is
identified by ``(seed, stream_id)`` plus an optional derivation path, so
parallel work can carve out statistically independent substreams whose
output never depends on the number of workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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
    generator: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise RngError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.stream_id < 0:
            raise RngError(f"stream_id must be nonnegative, got {self.stream_id}")
        if self.path is None:
            self.path = (self.stream_id,)
        self.generator = _make_generator(self.seed, self.path)

    def substream(self, index: int) -> "RngStream":
        """Derive the ``index``-th child stream; independent of this one."""
        if index < 0:
            raise RngError(f"substream index must be nonnegative, got {index}")
        return RngStream(self.seed, self.stream_id, self.path + (index,))


def make_stream(seed: int, stream_id: int = 0) -> RngStream:
    """Create the stream identified by ``(seed, stream_id)``."""
    return RngStream(seed, stream_id)
