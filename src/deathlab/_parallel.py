"""Deterministic chunked execution for Monte Carlo batches.

Work is split into fixed-size chunks, each driven by its own substream
derived from the batch's root stream, so merged results are identical for
any worker count.  A batch smaller than one chunk of implosion runs also
splits its stages into segments (``limits.implosion_batch``); every piece
of work runs through ``run_ordered``, the one pool.  Threads scale only
where the work releases the GIL: the numba kernels and numpy's vectorised
draws and reductions do.  Between numpy calls the interpreter holds it,
so work scales the better the more each call does: an implosion segment
draws several stages per call, 4 of a full chunk, into one block.  The
pure-Python kernel build holds the GIL in its scalar loops, and its array
entry points release it only inside numpy calls, with interpreter work
between them, so there ``workers > 1`` gives little or no speed-up.
"""

from __future__ import annotations

import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

from .regimes import check_count
from .rng import RngStream

T = TypeVar("T")

CHUNK_SIZE = 16384

POOL_THREAD = "deathlab-pool"  # name prefix of the pool's threads


def run_ordered(calls: list[Callable[[], T]], workers: int) -> list[T]:
    """Call each of ``calls`` on up to ``workers`` threads, ``workers`` a
    checked count; results in list order.  Calls made from a pool thread
    run in that thread, in order, so pools never nest."""
    if workers == 1 or len(calls) <= 1 or threading.current_thread().name.startswith(POOL_THREAD):
        return [call() for call in calls]
    with ThreadPoolExecutor(max_workers=workers, thread_name_prefix=POOL_THREAD) as pool:
        return list(pool.map(lambda call: call(), calls))


def chunk_sizes(total: int, error: type[ValueError] = ValueError) -> list[int]:
    """Split ``total`` items, a count, into fixed chunks (worker-count
    independent); a ``total`` that is not raises ``error``."""
    total = check_count(total, "batch size", 0, error)
    full, rest = divmod(total, CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rest] if rest else [])


def run_chunked(
    root: RngStream,
    total: int,
    task: Callable[[RngStream, int], T],
    workers: int,
    error: type[ValueError],
) -> list[T]:
    """Run ``task(substream, chunk_len)`` per chunk; results in chunk order.
    The batch size ``total`` and ``workers`` are counts, checked before any
    stream is made; the caller's ``error`` says where one is not."""
    sizes = chunk_sizes(total, error)
    workers = check_count(workers, "workers", 1, error)
    streams = [root.substream(i) for i in range(len(sizes))]
    return run_ordered([functools.partial(task, s, m) for s, m in zip(streams, sizes)], workers)
