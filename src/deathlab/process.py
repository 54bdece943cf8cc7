"""The discrete-time pure death process and its observables.

One time step from state x removes a Binomial(x, c) batch of individuals,
with c supplied by a mortality regime that may depend on the current and
initial states; 0 is absorbing.  This module simulates trajectories and
measures the derived quantities of interest: extinction times, the
single-drop extinction event, and first-passage outcomes for one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import kernels
from ._parallel import run_chunked
from .regimes import MortalityRegime, mortality, prepare
from .rng import RngStream
from .samplers import MAX_EXACT_COUNT, sample_binomial

# simulate_trajectory records its path up front; refuse absurd buffers
MAX_RECORDED_STEPS = 10**8

CENSOR_TARGET = 1e-9


class ProcessError(ValueError):
    """Invalid simulation parameters."""


@dataclass(frozen=True)
class Trajectory:
    """A realized nonincreasing path, absorbed at 0 or censored at t_max."""

    initial_n: int
    states: np.ndarray
    extinction_time: int | None
    t_max: int

    def __post_init__(self) -> None:
        states = self.states
        if states[0] != self.initial_n or np.any(np.diff(states) > 0):
            raise ProcessError("trajectory must start at n and never increase")
        if self.extinction_time is not None:
            if states[self.extinction_time] != 0 or np.any(states[: self.extinction_time] == 0):
                raise ProcessError("extinction_time must index the first 0 entry")
            if self.extinction_time != states.size - 1:
                raise ProcessError("no entries may follow absorption")
        elif np.any(states == 0):
            raise ProcessError("censored trajectory must not contain 0")

    @property
    def censored(self) -> bool:
        return self.extinction_time is None

    def to_csv_rows(self, run_id: int) -> list[tuple[int, int, int]]:
        return [(run_id, t, int(s)) for t, s in enumerate(self.states)]


@dataclass(frozen=True)
class Finite:
    """The first departure from k landed at k-1, after j steps."""

    j: int


@dataclass(frozen=True)
class JumpedOver:
    """The process left k to a state below k-1; the passage never happens."""


@dataclass(frozen=True)
class Censored:
    """Still at k after t_max steps."""

    t_max: int


FirstPassageOutcome = Union[Finite, JumpedOver, Censored]


def _check_n(n: int, minimum: int = 1) -> int:
    if n != int(n):
        raise ProcessError(f"population must be an integer, got {n}")
    n = int(n)
    if n < minimum:
        raise ProcessError(f"population must be >= {minimum}, got {n}")
    if n > MAX_EXACT_COUNT:
        raise ProcessError(f"population above 2**53 loses exactness, got {n}")
    return n


def default_t_max(regime: MortalityRegime, n: int, target: float = CENSOR_TARGET) -> int:
    """Steps needed to push the censoring probability below ``target``.

    P(alive at t) <= n * (1 - c_min)**t, with c_min the smallest mortality
    on the way down; invert that bound.
    """
    return _censor_horizon(prepare(regime, n), n, target)


def _censor_horizon(cs: np.ndarray, n: int, target: float = CENSOR_TARGET) -> int:
    c_min = float(cs.min())
    if c_min >= 1.0:
        return max(n, 1)
    t = (math.log(target) - math.log(n)) / math.log1p(-c_min)
    return max(1, math.ceil(t))


def step(x: int, c: float, rng: RngStream) -> int:
    """One transition: x minus a Binomial(x, c) batch of deaths."""
    x = _check_n(x)
    return x - sample_binomial(rng, x, c)


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
) -> Trajectory:
    """Run the process from n until absorption at 0 or censoring at t_max."""
    n = _check_n(n)
    cs, t_max = _prepare_run(regime, n, t_max)
    if t_max > MAX_RECORDED_STEPS:
        raise ProcessError(
            f"recording {t_max} steps would need too much memory; lower t_max"
        )
    buf = np.empty(t_max + 1, dtype=np.int64)
    ext = int(kernels.trajectory_fill(rng.generator, buf, cs, n, t_max))
    if ext >= 0:
        return Trajectory(n, buf[: ext + 1].copy(), ext, t_max)
    return Trajectory(n, buf.copy(), None, t_max)


def extinction_time_sample(
    n: int,
    regime: MortalityRegime,
    rng: RngStream,
    t_max: int | None = None,
) -> int | None:
    """Absorption time of one run; None when censored at t_max."""
    n = _check_n(n)
    cs, t_max = _prepare_run(regime, n, t_max)
    ext = int(kernels.extinction_time_draw(rng.generator, cs, n, t_max))
    return ext if ext >= 0 else None


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


def observe_single_drop_path(n: int, regime: MortalityRegime, rng: RngStream) -> bool:
    """Did one realized extinction lose exactly one individual per drop?

    Simulation stops early at the first drop of two or more.  Runs are
    almost surely finite for mortalities in (0, 1), so there is no cap.
    """
    n = _check_n(n, minimum=0)
    if n == 0:
        return True
    return bool(kernels.single_drop_draw(rng.generator, prepare(regime, n), n))


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


def _passage_mortality(k: int, regime: MortalityRegime, n: int | None) -> tuple[int, float]:
    k = _check_n(k)
    n = k if n is None else _check_n(n)
    if not k <= n:
        raise ProcessError(f"need k <= n, got k={k}, n={n}")
    return n, mortality(regime, k, n)


def _outcome(j: int, code: int, t_max: int | None) -> FirstPassageOutcome:
    if code == kernels.FINITE:
        return Finite(int(j))
    if code == kernels.JUMPED_OVER:
        return JumpedOver()
    return Censored(int(t_max))


def first_passage_sample(
    k: int,
    regime: MortalityRegime,
    rng: RngStream,
    t_max: int | None = None,
    n: int | None = None,
) -> FirstPassageOutcome:
    """Watch state k (fresh start) until its first departure.

    The draw is exact but O(1): the holding time at k is Geometric with
    success 1-(1-c)^k, independent of the landing state, which follows the
    departure jump law.  ``first_passage_sample_stepped`` realizes the same
    law by raw stepping and is cross-checked against this in the tests.
    ``t_max=None`` disables censoring (safe: the draw never iterates).
    """
    n, c = _passage_mortality(k, regime, n)
    j, code = kernels.first_passage_draw(rng.generator, k, c, 0 if t_max is None else int(t_max))
    return _outcome(j, code, t_max)


def first_passage_sample_stepped(
    k: int,
    regime: MortalityRegime,
    rng: RngStream,
    t_max: int,
    n: int | None = None,
) -> FirstPassageOutcome:
    """Reference first-passage draw by stepping the raw process at k."""
    if t_max < 1:
        raise ProcessError(f"stepped passage needs t_max >= 1, got {t_max}")
    n, c = _passage_mortality(k, regime, n)
    j, code = kernels.first_passage_stepped_draw(rng.generator, k, c, int(t_max))
    return _outcome(j, code, t_max)


def first_passage_batch(
    k: int,
    regime: MortalityRegime,
    rng: RngStream,
    samples: int,
    t_max: int | None = None,
    n: int | None = None,
    workers: int = 1,
    stepped: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """First-passage outcomes for ``samples`` fresh starts at k.

    Returns ``(times, codes)`` with codes 0=finite, 1=jumped over,
    2=censored; times are meaningful for finite outcomes.
    """
    n, c = _passage_mortality(k, regime, n)
    kernel = kernels.first_passage_stepped_batch if stepped else kernels.first_passage_batch
    if stepped and (t_max is None or t_max < 1):
        raise ProcessError("stepped passage needs an explicit t_max >= 1")
    tm = 0 if t_max is None else int(t_max)
    if samples == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    def task(stream: RngStream, m: int) -> tuple[np.ndarray, np.ndarray]:
        out_j = np.empty(m, dtype=np.int64)
        out_code = np.empty(m, dtype=np.int64)
        kernel(stream.generator, k, c, tm, out_j, out_code)
        return out_j, out_code

    parts = run_chunked(rng, samples, task, workers)
    times = np.concatenate([p[0] for p in parts])
    codes = np.concatenate([p[1] for p in parts])
    return times, codes

