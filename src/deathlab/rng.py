"""Reproducible random number streams with explicit substream derivation.

Streams are backed by the counter-based Philox generator.  A stream is
identified by ``(seed, stream_id)`` plus an optional derivation path, so
parallel work can carve out statistically independent substreams whose
output never depends on the number of workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

STATE_FORMAT_VERSION = 1


class RngError(ValueError):
    """Invalid stream construction or a corrupt serialized state."""


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

    def serialize(self) -> bytes:
        """Stable byte-string snapshot of the stream, continuation included."""
        state = self.generator.bit_generator.state
        payload = {
            "format": STATE_FORMAT_VERSION,
            "seed": self.seed,
            "stream_id": self.stream_id,
            "path": list(self.path),
            "philox": {
                "counter": [int(v) for v in state["state"]["counter"]],
                "key": [int(v) for v in state["state"]["key"]],
                "buffer": [int(v) for v in state["buffer"]],
                "buffer_pos": int(state["buffer_pos"]),
                "has_uint32": int(state["has_uint32"]),
                "uinteger": int(state["uinteger"]),
            },
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def deserialize(cls, blob: bytes) -> "RngStream":
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RngError(f"unreadable stream state: {exc}") from exc
        if payload.get("format") != STATE_FORMAT_VERSION:
            raise RngError(f"unsupported stream state format: {payload.get('format')!r}")
        stream = cls(payload["seed"], payload["stream_id"], tuple(payload["path"]))
        ph = payload["philox"]
        stream.generator.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.array(ph["counter"], dtype=np.uint64),
                "key": np.array(ph["key"], dtype=np.uint64),
            },
            "buffer": np.array(ph["buffer"], dtype=np.uint64),
            "buffer_pos": ph["buffer_pos"],
            "has_uint32": ph["has_uint32"],
            "uinteger": ph["uinteger"],
        }
        return stream


def make_stream(seed: int, stream_id: int = 0) -> RngStream:
    """Create the stream identified by ``(seed, stream_id)``."""
    return RngStream(seed, stream_id)
