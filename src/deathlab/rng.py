"""Reproducible random number streams with explicit substream derivation.

Streams are backed by the counter-based Philox generator.  A stream is
identified by ``(seed, stream_id)`` plus an optional derivation path, so
parallel work can carve out statistically independent substreams whose
output never depends on the number of workers.

Philox is counter-based (Salmon et al., SC'11): a stream's draws are fixed
by its 128-bit key, with the counter at 0.  ``RngStream.substream_keys``
derives the keys of many substreams at once, with numpy's ``SeedSequence``
mixing vectorised over the spawn index, for callers that set one
generator to each key in turn instead of building a stream per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class RngError(ValueError):
    """Invalid stream construction."""


# numpy's SeedSequence constants: hash multipliers of the entropy pool (A)
# and of the output words (B), the pool mixer, and the pool size in words
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _words(value: int) -> list[int]:
    """The 32-bit words of a nonnegative integer, least significant first;
    one word for 0."""
    out = [value & _MASK32]
    value >>= 32
    while value:
        out.append(value & _MASK32)
        value >>= 32
    return out


# Both helpers take a Python int or a uint64 array of 32-bit values.
def _hashmix(value, const: int):
    """SeedSequence's hashmix of ``value``; returns it and the next hash
    constant."""
    value = value ^ const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    """SeedSequence's mix of pool word ``x`` with hashed word ``y``."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


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

    def substream_keys(self, count: int) -> np.ndarray:
        """The Philox keys of ``substream(0)``, ..., ``substream(count - 1)``,
        one uint64 pair per row: a generator set to key i with its counter
        at 0 draws what ``substream(i).generator`` draws.

        This is ``SeedSequence``'s mixing of the child's entropy (the seed's
        words padded to the pool size, then the words of the path and of
        the index) and its ``generate_state(2, uint64)``.  The mixing up to
        the index is the same for every child and runs once; the index word
        is mixed in for all children at once.  An index of two words would
        take other hash constants, so ``count`` stops at 2**32.
        """
        if not 0 <= count <= 2**32:
            raise RngError(f"substream count must lie in [0, 2**32], got {count}")
        seed = _words(self.seed)
        entropy = seed + [0] * (_POOL - len(seed)) + [w for p in self.path for w in _words(p)]
        pool, const = [], _INIT_A
        for word in entropy[:_POOL]:
            word, const = _hashmix(word, const)
            pool.append(word)
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    word, const = _hashmix(pool[src], const)
                    pool[dst] = _mix(pool[dst], word)
        # the path's words, then the index word of every child at once
        for word in entropy[_POOL:]:
            for dst in range(_POOL):
                hashed, const = _hashmix(word, const)
                pool[dst] = _mix(pool[dst], hashed)
        index = np.arange(count, dtype=np.uint64)
        pool = [np.full(count, word, dtype=np.uint64) for word in pool]
        for dst in range(_POOL):
            hashed, const = _hashmix(index, const)
            pool[dst] = _mix(pool[dst], hashed)
        # generate_state: four 32-bit words, paired little-endian
        state, const = [], _INIT_B
        for word in pool:
            word = word ^ const
            const = const * _MULT_B & _MASK32
            word = word * const & _MASK32
            state.append(word ^ word >> 16)
        return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def make_stream(seed: int, stream_id: int = 0) -> RngStream:
    """Create the stream identified by ``(seed, stream_id)``."""
    return RngStream(seed, stream_id)
