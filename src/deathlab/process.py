"""The discrete-time pure death process and its observables.

One time step from state x removes a Binomial(x, c) batch of individuals,
with c supplied by a mortality regime that may depend on the current and
initial states; 0 is absorbing.  This module simulates trajectories, a
batch of runs on consecutive substreams, and draws the derived quantities
of interest in batches: extinction times, the single-drop extinction
event, and first-passage outcomes for one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._parallel import run_chunked
from .regimes import MortalityRegime, mortality, prepare
from .rng import RngStream
from .samplers import MAX_EXACT_COUNT, _check_prob

# simulate_trajectory records its path up front; refuse absurd buffers
MAX_RECORDED_STEPS = 10**8

# the default horizon censors a run with at most this chance
CENSOR_TARGET = 1e-9

# the stepped first-passage reference gives up after this many steps
STEPPED_T_MAX = 10**6


class ProcessError(ValueError):
    """Invalid simulation parameters."""


@dataclass(frozen=True)
class TrajectoryBatch:
    """Realized paths of several runs from n, end to end in ``states``: run
    i has ``lengths[i]`` entries and is absorbed at 0 at
    ``extinction_times[i]``, or censored at t_max where that is -1."""

    initial_n: int
    states: np.ndarray
    lengths: np.ndarray
    extinction_times: np.ndarray
    t_max: int

    def __post_init__(self) -> None:
        states, lengths, times = self.states, self.lengths, self.extinction_times
        if lengths.size != times.size or np.any(lengths < 1) or lengths.sum() != states.size:
            raise ProcessError("a batch needs one extinction time and a nonempty path per run")
        ends = np.cumsum(lengths)
        starts = ends - lengths
        rises = states[1:] > states[:-1]
        rises[starts[1:] - 1] = False  # from one run's end to the next run's start
        if np.any(states[starts] != self.initial_n) or rises.any():
            raise ProcessError("trajectory must start at n and never increase")
        extinct = times >= 0
        if np.any(lengths[extinct] != times[extinct] + 1) or np.any(lengths[~extinct] != self.t_max + 1):
            raise ProcessError("a path ends at its extinction time, or at t_max when censored")
        if not np.array_equal(np.flatnonzero(states == 0), ends[extinct] - 1):
            raise ProcessError("an extinct path holds one 0, at its end, and a censored one none")


def _check_n(n: int, minimum: int = 1) -> int:
    if isinstance(n, bool) or not (
        isinstance(n, (int, np.integer)) or (isinstance(n, (float, np.floating)) and float(n).is_integer())
    ):
        raise ProcessError(f"population must be an integer, got {n}")
    n = int(n)
    if n < minimum:
        raise ProcessError(f"population must be >= {minimum}, got {n}")
    if n > MAX_EXACT_COUNT:
        raise ProcessError(f"population above 2**53 loses exactness, got {n}")
    return n


def _censor_horizon(cs: np.ndarray, n: int) -> int:
    """Steps needed to push the censoring probability below CENSOR_TARGET.

    P(alive at t) <= n * (1 - c_min)**t, with c_min the smallest mortality
    on the way down; invert that bound.
    """
    c_min = float(cs.min())
    if c_min >= 1.0:
        return max(n, 1)
    t = (math.log(CENSOR_TARGET) - math.log(n)) / math.log1p(-c_min)
    return max(1, math.ceil(t))


def step(x: int, c: float, rng: RngStream) -> int:
    """One transition: x minus a Binomial(x, c) batch of deaths."""
    x = _check_n(x)
    c = _check_prob(c, allow_zero=True, allow_one=True)
    return x - int(kernels.binomial_draw(rng.generator, x, c))


def _prepare_run(regime: MortalityRegime, n: int, t_max: int | None) -> tuple[np.ndarray, int]:
    """Mortality array and censoring horizon of a run from n, before any draw."""
    cs = prepare(regime, n)
    if t_max is None:
        return cs, _censor_horizon(cs, n)
    if t_max < 1:
        raise ProcessError(f"t_max must be >= 1, got {t_max}")
    return cs, int(t_max)


def simulate_trajectory(
    n: int,
    regime: MortalityRegime,
    rng: RngStream,
    t_max: int | None = None,
    *,
    runs: int,
) -> TrajectoryBatch:
    """Run the process from n until absorption at 0 or censoring at t_max,
    once on each of the substreams 0, ..., runs-1 of ``rng``.

    Run i draws what ``rng.substream(i).generator`` would; ``rng`` itself
    draws nothing.  The runs share the mortality array and the horizon,
    which are built once.
    """
    n = _check_n(n)
    cs, t_max = _prepare_run(regime, n, t_max)
    if t_max > MAX_RECORDED_STEPS:
        raise ProcessError(
            f"recording {t_max} steps would need too much memory; lower t_max"
        )
    states, lengths, times = kernels.trajectory_batch(rng.substream_keys(runs), cs, n, t_max)
    return TrajectoryBatch(n, states, lengths, times, t_max)


def extinction_time_batch(
    n: int,
    regime: MortalityRegime,
    rng: RngStream,
    samples: int,
    t_max: int | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Extinction times for ``samples`` independent runs (-1 = censored)."""
    n = _check_n(n)
    cs, t_max = _prepare_run(regime, n, t_max)
    if samples == 0:
        return np.empty(0, dtype=np.int64)

    def task(stream: RngStream, m: int) -> np.ndarray:
        out = np.empty(m, dtype=np.int64)
        kernels.extinction_batch(stream.generator, out, cs, n, t_max)
        return out

    return np.concatenate(run_chunked(rng, samples, task, workers))


def single_drop_batch(
    n: int,
    regime: MortalityRegime,
    rng: RngStream,
    samples: int,
    workers: int = 1,
) -> np.ndarray:
    """Boolean single-drop outcomes for ``samples`` independent runs."""
    n = _check_n(n, minimum=0)
    if n == 0:
        return np.ones(samples, dtype=bool)
    cs = prepare(regime, n)
    if samples == 0:
        return np.empty(0, dtype=bool)

    def task(stream: RngStream, m: int) -> np.ndarray:
        out = np.empty(m, dtype=np.uint8)
        kernels.single_drop_batch(stream.generator, out, cs, n)
        return out

    return np.concatenate(run_chunked(rng, samples, task, workers)).astype(bool)


def drop_distribution(k: int, c: float) -> np.ndarray:
    """Landing law of the first departure from k: entry j is the chance of
    landing at state j, i.e. C(k, k-j) c^(k-j) (1-c)^j / (1 - (1-c)^k)."""
    k = _check_n(k)
    if not 0.0 < c < 1.0:
        raise ProcessError(f"drop distribution needs c in (0,1), got {c}")
    lnc, lnq = math.log(c), math.log1p(-c)
    log_norm = math.log(-math.expm1(k * lnq))
    out = np.empty(k, dtype=np.float64)
    for j in range(k):
        d = k - j  # number dying in the departure step
        log_comb = math.lgamma(k + 1) - math.lgamma(d + 1) - math.lgamma(j + 1)
        out[j] = math.exp(log_comb + d * lnc + j * lnq - log_norm)
    return out


def first_passage_batch(
    k: int,
    regime: MortalityRegime,
    rng: RngStream,
    samples: int,
    n: int | None = None,
    workers: int = 1,
    stepped: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """First-passage outcomes for ``samples`` fresh starts at k.

    Returns ``(times, codes)`` with codes ``kernels.FINITE`` (the first
    departure landed at k-1, after ``times`` steps) and ``JUMPED_OVER`` (it
    landed below k-1).  Each draw is exact but O(1): the holding time at k
    is Geometric with success 1-(1-c)^k, independent of the landing state,
    which follows the departure jump law.  ``stepped=True`` realizes the
    same law by raw stepping, the reference the tests compare against; it
    gives up with code ``CENSORED`` after ``STEPPED_T_MAX`` steps at k.
    """
    k = _check_n(k)
    n = k if n is None else _check_n(n)
    if not k <= n:
        raise ProcessError(f"need k <= n, got k={k}, n={n}")
    c = mortality(regime, k, n)
    if samples == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    def task(stream: RngStream, m: int) -> tuple[np.ndarray, np.ndarray]:
        out_j = np.empty(m, dtype=np.int64)
        out_code = np.empty(m, dtype=np.int64)
        if stepped:
            kernels.first_passage_stepped_batch(stream.generator, k, c, STEPPED_T_MAX, out_j, out_code)
        else:
            kernels.first_passage_batch(stream.generator, k, c, out_j, out_code)
        return out_j, out_code

    parts = run_chunked(rng, samples, task, workers)
    times = np.concatenate([p[0] for p in parts])
    codes = np.concatenate([p[1] for p in parts])
    return times, codes
