"""Deterministic chunked execution for Monte Carlo batches.

Work is split into fixed-size chunks, each driven by its own substream
derived from the batch's root stream, so merged results are identical for
any worker count.  Threads scale only where the work releases the GIL: the
numba kernels and numpy's vectorised draws do.  The pure-Python kernel
build holds it in its scalar loops, and its array entry points release it
only inside numpy calls, with interpreter work between them, so there
``workers > 1`` gives little or no speed-up.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

from .rng import RngStream

T = TypeVar("T")

CHUNK_SIZE = 16384


def chunk_sizes(total: int) -> list[int]:
    """Split ``total`` items into fixed chunks (worker-count independent)."""
    if total < 0:
        raise ValueError(f"total must be nonnegative, got {total}")
    full, rest = divmod(total, CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rest] if rest else [])


def run_chunked(
    root: RngStream,
    total: int,
    task: Callable[[RngStream, int], T],
    workers: int = 1,
) -> list[T]:
    """Run ``task(substream, chunk_len)`` per chunk; results in chunk order."""
    sizes = chunk_sizes(total)
    streams = [root.substream(i) for i in range(len(sizes))]
    if workers <= 1 or len(sizes) <= 1:
        return [task(s, m) for s, m in zip(streams, sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, streams, sizes))
