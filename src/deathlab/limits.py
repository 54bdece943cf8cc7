"""Scaling-limit experiments: exponential passage limits and implosion.

Two regimes admit exponential limits for the scaled passage time from k
on the event that the passage happens: initial-state scaling with
a_n c_n -> lam (limit rate k*lam, realized here with a_n = lam/c_n so the
product is exact for every n), and the joint-power family with a_n = n^beta
(limit rate k^(alpha+1)).  The limiting chain built from independent
level-k Exponential(k^(alpha+1)) passage times crosses every level from a
truncation K down to 0 in a time whose expectation stays bounded as K
grows: the implosion signature.  ``scaled_passage_batch`` draws scaled
passage times, and ``implosion_batch`` draws traversal totals of the
limiting chain by chunks of runs, each on its own substream: a quarter
of the runs, rounded up, but at most ``CHUNK_SIZE`` (``MIN_CHUNKS``), so
every batch has chunks for ``workers`` to share.  A chunk draws several
stages per call into one block it reuses, and adds them to its running
sum one stage at a time, so the totals do not depend on the block size.
The truncation sweep draws nothing of its own: a run's total at a level
L <= K is the sum of its stages k <= L, so ``implosion_batch`` reads the
moments of every sweep level, and of the gap between two levels, off the
runs of the totals, and ``implosion_truncation_sweep`` compares them with
the certified partial sums.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._parallel import CHUNK_SIZE, run_chunked
# single_drop_prob and mortality stay importable here: perfbench/spans.py
# wraps them by these names
from .analytics import (  # noqa: F401
    AnalyticsError, check_alpha, implosion_expected_time, scaling_constant, single_drop_prob,
)
from .process import first_passage_batch
from .regimes import MortalityRegime, check_count, mortality  # noqa: F401
from .rng import RngStream
from .samplers import sample_exponential_batch
from . import kernels


@dataclass(frozen=True)
class ScaledPassageBatch:
    """Monte Carlo batch of scaled passage times T/a_n from state k: the
    ``finite_count`` of ``num_samples`` passages that land at k-1, and
    their times."""

    k: int
    n: int
    a_n: float
    num_samples: int
    finite_count: int
    scaled_times: np.ndarray


def scaled_passage_batch(
    k: int,
    n: int,
    regime: MortalityRegime,
    num_samples: int,
    rng: RngStream,
    lam: float | None = None,
    workers: int = 1,
) -> ScaledPassageBatch:
    """Sample T_k under the given scale n and divide finite times by a_n."""
    a_n = scaling_constant(regime, k, n, lam)
    times, codes = first_passage_batch(k, regime, rng, num_samples, n=n, workers=workers)
    finite = codes == kernels.FINITE
    scaled = times[finite].astype(np.float64) / a_n
    return ScaledPassageBatch(k, n, a_n, num_samples, int(np.count_nonzero(finite)), scaled)


# a batch under MIN_CHUNKS full chunks splits into chunks of
# ceil(runs / MIN_CHUNKS) runs: at 4, two workers share every batch of
# two runs or more, and 4 full chunks or more keep their draws
MIN_CHUNKS = 4

# doubles per exponential block where that makes 4 stages or more (65 of
# verify's 2000 runs, chunks of 500); a full chunk draws 4 stages per
# block, so no block holds more than 4 * CHUNK_SIZE doubles.  Blocks
# start at the chunk's first stage, whatever the sweep, and the totals do
# not depend on them.  2^15 halves a short chunk's sampler calls against
# 2^14 for 256 KB of block; 2^16 would save a little more time for twice
# the memory.
STAGE_BLOCK = 2**15


def _stage_rates(alpha: float, K: int) -> np.ndarray:
    # traversal order: level K first, then down to 1.  A rate that
    # overflows to inf is a stage of zero duration, the float limit of
    # its mean k^-(alpha+1), so the overflow is not worth a warning.
    with np.errstate(over="ignore"):
        return np.arange(K, 0, -1, dtype=np.float64) ** (check_alpha(alpha) + 1.0)


def _add_rows(block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sum of ``block``'s rows, added one row at a time in order.  numpy's
    axis-0 sum adds whole rows so, but sums a single column pairwise; there
    the last running sum is the total."""
    if block.shape[1] > 1:
        return np.add.reduce(block, axis=0, out=out)
    out = np.empty(1, dtype=np.float64) if out is None else out
    out[0] = np.cumsum(block)[-1]
    return out


def check_sweep_levels(levels: Sequence[int], K: int | None = None) -> list[int]:
    """Sweep levels as a list: counts >= 1, strictly increasing, and at
    most K where K is given."""
    levels = [check_count(level, "sweep level", 1, AnalyticsError) for level in levels]
    if levels and K is not None and levels[-1] > K:
        raise AnalyticsError(f"sweep levels must lie in [1, K={K}], got {levels}")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise AnalyticsError(f"sweep levels must be strictly increasing, got {levels}")
    return levels


# (count, mean, sum of squared deviations from the mean) of a sample
Moments = tuple[int, float, float]


def _moments(values: np.ndarray) -> Moments:
    """The moments of ``values``, which this overwrites."""
    count = values.size
    mean = float(values.sum()) / count
    values -= mean
    np.square(values, out=values)
    return count, mean, float(values.sum())


def _merge(a: Moments, b: Moments) -> Moments:
    # Chan, Golub & LeVeque's pairwise update
    count = a[0] + b[0]
    delta = b[1] - a[1]
    return count, a[1] + delta * b[0] / count, a[2] + b[2] + delta * delta * a[0] * b[0] / count


def _stderr(m: Moments) -> float:
    count, _, m2 = m
    return math.sqrt(m2 / (count - 1)) / math.sqrt(count) if count > 1 else 0.0


def implosion_batch(
    alpha: float,
    K: int,
    runs: int,
    rng: RngStream,
    workers: int = 1,
    levels: Sequence[int] = (),
) -> tuple[np.ndarray, tuple[Moments, list[Moments], list[Moments]]]:
    """Total implosion times for many runs (stage-vectorized), and the
    moments of the totals and of the sweep ``levels``, read off the same
    runs.

    The runs split into chunks of ``min(CHUNK_SIZE, ceil(runs /
    MIN_CHUNKS))``, chunk i on ``rng.substream(i)``, so the chunks depend
    on ``runs`` alone and a small batch still splits across ``workers``.
    Each chunk draws its stages level K first.  A chunk of ``m`` runs
    allocates one block of ``max(4, STAGE_BLOCK // m)`` stages and fills it
    with one sampler call per block: 4 stages of a full chunk, 65 of a
    chunk of 500, so the draws equal one call per stage.  The running sum
    goes into the block's first row and the block's rows are then added in
    order, so a chunk adds its stages one at a time from zero, whatever
    the block size.  The moments are ``(total, level, gap)``: ``total``
    those of the totals, ``level[i]`` those of the runs' totals over the
    stages k <= ``levels[i]``, ``gap[i]`` those of the paired difference
    ``level[i + 1]`` minus ``level[i]``, the stages in (``levels[i]``,
    ``levels[i + 1]``].  A level below K costs
    one copy of the running totals: the sum of its block's rows before it.
    Chunks are merged in chunk order, so neither the totals nor the
    moments depend on ``workers``.
    """
    K = check_count(K, "K", 1, AnalyticsError)
    rates = _stage_rates(alpha, K)
    levels = check_sweep_levels(levels, K)
    runs = check_count(runs, "runs", 1, AnalyticsError)
    workers = check_count(workers, "workers", 1, AnalyticsError)
    # stage i is level K - i: the totals before stage K - L are the stages above L
    cuts = [K - L for L in reversed(levels)]

    def task(stream: RngStream, m: int):
        totals = np.zeros(m, dtype=np.float64)
        above = [0.0] * cuts.count(0)  # per cut, the stages above its level
        rows = min(max(4, STAGE_BLOCK // m), K)
        buffer = np.empty((rows, m), dtype=np.float64)
        for start in range(0, K, rows):
            end = min(start + rows, K)
            block = buffer[: end - start]
            sample_exponential_batch(stream, rates[start:end], m, out=block)
            block[0] += totals  # so each row adds one stage to the running sum
            above += [_add_rows(block[: cut - start]) for cut in cuts if start < cut <= end]
            _add_rows(block, out=totals)
        above.reverse()
        scratch = buffer[0]  # the block is drawn: its first row is free

        def moments(a, b) -> Moments:
            np.subtract(a, b, out=scratch)
            return _moments(scratch)

        level = [moments(totals, prefix) for prefix in above]
        gap = [moments(low, high) for low, high in zip(above, above[1:])]
        whole = level[-1] if K in levels[-1:] else moments(totals, 0.0)  # a sweep of K reads the totals
        return totals, whole, level, gap

    chunk = min(CHUNK_SIZE, -(-runs // MIN_CHUNKS))
    parts = run_chunked(rng, runs, task, chunk, workers, AnalyticsError)

    def merged(j: int) -> list[Moments]:
        return [functools.reduce(_merge, chunks) for chunks in zip(*(part[j] for part in parts))]

    whole = functools.reduce(_merge, (part[1] for part in parts))
    return np.concatenate([part[0] for part in parts]), (whole, merged(2), merged(3))


@dataclass(frozen=True)
class SweepRow:
    """One truncation level of the implosion sweep.  ``gap_mean`` and
    ``gap_stderr`` describe the runs' paired gap from the previous level
    (``None`` at the first level)."""

    K: int
    runs: int
    mean: float
    stderr: float
    partial_sum: float
    tail_bound: float
    gap_mean: float | None
    gap_stderr: float | None


def implosion_truncation_sweep(
    alpha: float,
    levels: list[int],
    moments: tuple[Moments, list[Moments], list[Moments]],
) -> list[SweepRow]:
    """The moments ``implosion_batch`` read at ``levels``, against the
    certified partial sums.  Draws nothing."""
    _, level, gap = moments
    rows = []
    for K, m, g in zip(levels, level, [None] + gap):
        partial, tail = implosion_expected_time(alpha, K)
        gap_mean, gap_stderr = (None, None) if g is None else (g[1], _stderr(g))
        rows.append(SweepRow(K, m[0], m[1], _stderr(m), partial, tail, gap_mean, gap_stderr))
    return rows
