"""Deterministic chunked execution for Monte Carlo batches.

Work is split into chunks whose length the caller fixes, each driven by
its own substream of the batch's root stream, so merged results are
identical for any worker count.  A task never opens a pool of its own, so
pools never nest.  Threads scale only where the work releases the GIL:
the numba kernels and numpy's vectorised draws and reductions do, so work
scales the better the more each numpy call does.  The pure-Python kernel
build holds the GIL in its scalar loops, so there ``workers > 1`` gives
little or no speed-up.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

from .regimes import check_count
from .rng import RngStream

T = TypeVar("T")

CHUNK_SIZE = 16384


def run_chunked(
    root: RngStream,
    total: int,
    task: Callable[[RngStream, int], T],
    chunk: int,
    workers: int,
    error: type[ValueError],
) -> list[T]:
    """Run ``task(substream, chunk_len)`` per chunk of ``chunk`` items, on
    up to ``workers`` threads; results in chunk order, the last chunk short.
    The batch size ``total`` and ``workers`` are counts, checked before any
    stream is made; the caller's ``error`` says where one is not."""
    total = check_count(total, "batch size", 0, error)
    workers = check_count(workers, "workers", 1, error)
    full, rest = divmod(total, chunk)
    sizes = [chunk] * full + ([rest] if rest else [])
    streams = [root.substream(i) for i in range(len(sizes))]
    if workers == 1 or len(sizes) <= 1:
        return [task(s, m) for s, m in zip(streams, sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, streams, sizes))
