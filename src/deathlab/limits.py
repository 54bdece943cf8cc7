"""Scaling-limit experiments: exponential passage limits and implosion.

Two regimes admit exponential limits for the scaled passage time from k
on the event that the passage happens: initial-state scaling with
a_n c_n -> lam (limit rate k*lam, realized here with a_n = lam/c_n so the
product is exact for every n), and the joint-power family with a_n = n^beta
(limit rate k^(alpha+1)).  The limiting chain built from independent
level-k Exponential(k^(alpha+1)) passage times crosses every level from a
truncation K down to 0 in a time whose expectation stays bounded as K
grows: the implosion signature.  ``scaled_passage_batch`` draws scaled
passage times, ``implosion_batch`` draws traversal totals of the limiting
chain, and ``implosion_truncation_sweep`` compares their means with the
certified partial sums as K grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import run_chunked
# single_drop_prob stays importable here: perfbench/spans.py wraps it by this name
from .analytics import AnalyticsError, implosion_expected_time, single_drop_prob  # noqa: F401
from .process import first_passage_batch
from .regimes import InitialPower, JointPower, MortalityRegime, mortality
from .rng import RngStream
from .samplers import sample_exponential_batch
from . import kernels


@dataclass(frozen=True)
class ScaledPassageBatch:
    """Monte Carlo batch of scaled passage times T/a_n from state k."""

    k: int
    n: int
    a_n: float
    num_samples: int
    finite_fraction: float
    scaled_times: np.ndarray


def scaling_constant(regime: MortalityRegime, k: int, n: int, lam: float | None = None) -> float:
    """The deterministic scale a_n that renders passage times order one."""
    if isinstance(regime, InitialPower):
        if lam is None or lam <= 0:
            raise AnalyticsError("initial-state scaling needs lam > 0")
        return lam / mortality(regime, k, n)
    if isinstance(regime, JointPower):
        return float(n) ** regime.beta
    raise AnalyticsError(f"no scaling limit implemented for {type(regime).__name__}")


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
    fraction = float(np.count_nonzero(finite)) / num_samples if num_samples else 0.0
    scaled = times[finite].astype(np.float64) / a_n
    return ScaledPassageBatch(k, n, a_n, num_samples, fraction, scaled)


def _stage_rates(alpha: float, K: int) -> np.ndarray:
    if alpha <= 0:
        raise AnalyticsError(f"implosion needs alpha > 0, got {alpha}")
    if K < 1:
        raise AnalyticsError(f"truncation level must be >= 1, got {K}")
    # traversal order: level K first, then down to 1
    return np.arange(K, 0, -1, dtype=np.float64) ** (alpha + 1.0)


def implosion_batch(
    alpha: float,
    K: int,
    runs: int,
    rng: RngStream,
    workers: int = 1,
) -> np.ndarray:
    """Total implosion times for many runs (stage-vectorized)."""
    rates = _stage_rates(alpha, K)

    def task(stream: RngStream, m: int) -> np.ndarray:
        totals = np.zeros(m, dtype=np.float64)
        for rate in rates:
            totals += sample_exponential_batch(stream, float(rate), m)
        return totals

    parts = run_chunked(rng, runs, task, workers)
    return np.concatenate(parts) if parts else np.empty(0)


@dataclass(frozen=True)
class SweepRow:
    """One truncation level of the implosion sweep."""

    K: int
    runs: int
    mean: float
    stderr: float
    partial_sum: float
    tail_bound: float


def implosion_truncation_sweep(
    alpha: float,
    K_sweep: list[int],
    runs_per_K: int,
    rng: RngStream,
    workers: int = 1,
) -> list[SweepRow]:
    """Empirical implosion times against the certified partial sums."""
    rows = []
    for i, K in enumerate(K_sweep):
        totals = implosion_batch(alpha, K, runs_per_K, rng.substream(i), workers)
        partial, tail = implosion_expected_time(alpha, K)
        mean = float(totals.mean())
        stderr = float(totals.std(ddof=1) / math.sqrt(runs_per_K)) if runs_per_K > 1 else 0.0
        rows.append(SweepRow(K, runs_per_K, mean, stderr, partial, tail))
    return rows
