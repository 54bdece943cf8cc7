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
mean of every sweep level off the runs of the totals, and
``implosion_truncation_sweep`` compares the means, and their differences
between levels, with the certified partial sums, each within standard
errors from the law: a sum of stages has variance sum k^-2(alpha+1).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._parallel import CHUNK_SIZE, run_chunked
# single_drop_prob and mortality stay importable here: perfbench/spans.py
# wraps them by these names
from .analytics import (  # noqa: F401
    AnalyticsError, block_sum, check_alpha, implosion_cumulants, implosion_expected_time, scaling_constant,
    single_drop_prob,
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


def implosion_batch(
    alpha: float,
    K: int,
    runs: int,
    rng: RngStream,
    workers: int = 1,
    levels: Sequence[int] = (),
) -> tuple[np.ndarray, tuple[Moments, list[float]]]:
    """Total implosion times for many runs (stage-vectorized), the moments
    of the totals, and the runs' mean at each sweep level.

    The runs split into chunks of ``min(CHUNK_SIZE, ceil(runs /
    MIN_CHUNKS))``, chunk i on ``rng.substream(i)``, so the chunks depend
    on ``runs`` alone and a small batch still splits across ``workers``.
    Each chunk draws its stages level K first.  A chunk of ``m`` runs
    allocates one block of ``max(4, STAGE_BLOCK // m)`` stages and fills it
    with one sampler call per block: 4 stages of a full chunk, 65 of a
    chunk of 500, so the draws equal one call per stage.  The running sum
    goes into the block's first row and the block's rows are then added in
    order, so a chunk adds its stages one at a time from zero, whatever
    the block size.  ``means[i]`` is the mean of the runs' totals over the
    stages k <= ``levels[i]``; a level below K costs one copy of the
    running totals, the sum of its block's rows before it.  Each chunk
    sums its runs at every level and at K; the sums are added over the
    chunks by ``math.fsum``, and the totals' squared deviations from their
    mean in one pass, so nothing depends on ``workers``.
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
        # the sums at the levels, then at K
        return totals, [float(np.subtract(totals, prefix, out=scratch).sum()) for prefix in above + [0.0]]

    chunk = min(CHUNK_SIZE, -(-runs // MIN_CHUNKS))
    totals, sums = zip(*run_chunked(rng, runs, task, chunk, workers, AnalyticsError))
    totals = np.concatenate(totals)  # frees the chunks' totals before the deviations are made
    *means, mean = [math.fsum(level) / runs for level in zip(*sums)]
    deviations = totals - mean
    np.square(deviations, out=deviations)
    return totals, ((runs, mean, float(deviations.sum())), means)


@dataclass(frozen=True)
class SweepRow:
    """One truncation level of the implosion sweep: the runs' mean over the
    stages k <= K with the law's standard error sqrt(Var T_K / runs), and
    ``gap_*`` the same for the stages after the previous level (``None`` at
    the first)."""

    K: int
    runs: int
    mean: float
    stderr: float
    partial_sum: float
    tail_bound: float
    gap_mean: float | None
    gap_stderr: float | None


def implosion_truncation_sweep(alpha: float, levels: list[int], means: list[float], runs: int) -> list[SweepRow]:
    """The means of ``runs`` runs that ``implosion_batch`` read at
    ``levels``, against the certified partial sums.  A level's variance is
    the partial sum of k^-2(alpha+1); a gap's is the same sum over its own
    stages.  Draws nothing."""
    power = 2.0 * check_alpha(alpha) + 2.0
    rows = []
    for K, mean in zip(levels, means):
        partial, tail = implosion_expected_time(alpha, K)
        stderr = math.sqrt(implosion_cumulants(alpha, K)[0] / runs)
        gap_mean = gap_stderr = None
        if rows:
            gap_mean = mean - rows[-1].mean
            gap_stderr = math.sqrt(block_sum(lambda k: k**-power, rows[-1].K + 1, K + 1) / runs)
        rows.append(SweepRow(K, runs, mean, stderr, partial, tail, gap_mean, gap_stderr))
    return rows
