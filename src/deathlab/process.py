"""The discrete-time pure death process and its observables.

One time step from state x removes a Binomial(x, c) batch of individuals,
with c supplied by a mortality regime that may depend on the current and
initial states; 0 is absorbing.  This module draws the quantities of
interest in batches, each chunk of a batch on its own substream:
extinction times, trajectories (the same extinction walk with each run's
holds recorded), the single-drop extinction event, and first-passage
outcomes for one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _parallel, kernels
from ._parallel import run_chunked
from .regimes import MortalityRegime, check_count, check_probability, mortality, prepare
from .rng import RngStream
from .samplers import MAX_EXACT_COUNT, SamplerError

# simulate_trajectory records paths up to t_max; refuse absurd horizons
MAX_RECORDED_STEPS = 10**8

# the default horizon censors a run with at most this chance
CENSOR_TARGET = 1e-9

# the stepped first-passage reference gives up after this many steps
STEPPED_T_MAX = 10**6

# a censoring horizon is an int64
MAX_HORIZON = np.iinfo(np.int64).max

# a level whose departure rate -ln(1-p) lies below this reaches the
# kernels' cap on a hold with chance exp(-rate * HOLD_CAP) above 2^-53
_MIN_DEPARTURE_RATE = 53 * math.log(2) / kernels.HOLD_CAP


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


def _censor_horizon(cs: np.ndarray, n: int) -> float:
    """Steps needed to push the censoring probability below CENSOR_TARGET,
    not rounded, and infinite where the mortality underflows the bound.

    P(alive at t) <= n * (1 - c_min)**t, with c_min the smallest mortality
    on the way down; invert that bound.
    """
    c_min = float(cs.min())
    if c_min >= 1.0:
        return max(n, 1)
    return max(1.0, (math.log(CENSOR_TARGET) - math.log(n)) / math.log1p(-c_min))


def check_departure(k: int, c: float) -> None:
    """Refuse level k at mortality c where a hold, Geometric(p) with
    departure chance p = 1-(1-c)^k, reaches the cap of
    ``kernels.HOLD_CAP`` steps with chance above 2^-53: p below about
    8e-18."""
    rate = math.inf if c >= 1.0 else -k * math.log1p(-c)  # -ln(1-p)
    if rate < _MIN_DEPARTURE_RATE:
        raise ProcessError(
            f"departure chance {-math.expm1(-rate):.3g} from k={k} (c={c:g}) lies below 8e-18: "
            f"holds would reach the cap of {kernels.HOLD_CAP:g} steps"
        )


def _run_batch(rng: RngStream, samples: int, dtypes, kernel, workers: int = 1) -> list:
    """Chunk i of the runs on ``rng.substream(i)``, into fresh arrays of
    ``dtypes`` filled by ``kernel(generator, *arrays)``: each array joined
    in chunk order (empty at 0 samples, nothing drawn), then what ``kernel``
    returned per chunk.  ``run_chunked``, ``kernels`` and ``CHUNK_SIZE`` are
    looked up per call, where ``perfbench/spans.py`` and tests patch them."""

    def task(stream: RngStream, m: int):
        outs = [np.empty(m, dtype=dtype) for dtype in dtypes]
        return outs, kernel(stream.generator, *outs)

    parts = run_chunked(rng, samples, task, _parallel.CHUNK_SIZE, workers, ProcessError)
    joined = [np.concatenate([np.empty(0, dtype)] + [outs[i] for outs, _ in parts])
              for i, dtype in enumerate(dtypes)]
    return [*joined, [returned for _, returned in parts]]


def step(x: int, c: float, rng: RngStream) -> int:
    """One transition: x minus a Binomial(x, c) batch of deaths.  A
    mortality outside [0,1] is the sampler's domain error."""
    x = check_count(x, "population", 1, ProcessError, MAX_EXACT_COUNT)
    c = check_probability(c, "[0,1]", SamplerError)
    return x - int(kernels.binomial_draw(rng.generator, x, c))


def prepare_run(
    regime: MortalityRegime, n: int, t_max: int | None, record: bool = False
) -> tuple[np.ndarray, int]:
    """Mortality array and censoring horizon of a run from n, before any
    draw.  The horizon stays an int64.  Where a hold capped at
    ``kernels.HOLD_CAP`` would end before it, every level's departure must
    be likely enough that no hold reaches the cap; below the cap a capped
    hold is censored, as the hold it stands for would be.  A run whose
    path is recorded (``record``) may not last beyond
    ``MAX_RECORDED_STEPS``."""
    cs = prepare(regime, n)
    if t_max is None:
        t_max = _censor_horizon(cs, n)
    else:
        t_max = check_count(t_max, "t_max", 1, ProcessError)
    t_max = math.ceil(min(t_max, MAX_HORIZON))
    if t_max >= kernels.HOLD_CAP:
        levels = np.arange(1, cs.size)  # the levels above share the last entry's c and depart faster
        with np.errstate(divide="ignore"):  # certain death departs at rate inf
            k = int(np.argmin(levels * -np.log1p(-cs[1:]))) + 1
        check_departure(k, float(cs[k]))
    if record and t_max > MAX_RECORDED_STEPS:
        raise ProcessError(f"recording {t_max} steps would need too much memory; lower t_max")
    return cs, t_max


def simulate_trajectory(
    n: int,
    regime: MortalityRegime,
    rng: RngStream,
    t_max: int | None = None,
    *,
    runs: int,
    prepared: tuple[np.ndarray, int] | None = None,
) -> TrajectoryBatch:
    """Run the process from n until absorption at 0 or censoring at t_max,
    ``runs`` times: the extinction walk of ``extinction_time_batch``, with
    each run's holds written down.

    Chunk i of the runs draws on ``rng.substream(i)``, and a run's path
    depends on the other runs of its chunk; ``rng`` itself draws nothing.
    The runs share the mortality array and the horizon, which are built
    once: here, or by the caller, who passes what
    ``prepare_run(regime, n, t_max, record=True)`` returned as ``prepared``.
    """
    n = check_count(n, "population", 1, ProcessError, MAX_EXACT_COUNT)
    cs, t_max = prepare_run(regime, n, t_max, record=True) if prepared is None else prepared

    times, parts = _run_batch(
        rng, runs, [np.int64],
        lambda gen, out: (out.size, kernels.extinction_batch(gen, out, cs, n, t_max, True)),
    )
    # the pieces (run, state, steps) of every chunk, its runs numbered on
    # from the chunk before
    starts = np.cumsum([0] + [size for size, _ in parts])
    empty = np.empty(0, dtype=np.int64)
    run = np.concatenate([empty] + [pieces[0] + start for (_, pieces), start in zip(parts, starts)])
    state, steps = (np.concatenate([empty] + [pieces[j] for _, pieces in parts]) for j in (1, 2))
    order = np.argsort(run, kind="stable")
    lengths = np.bincount(run, weights=steps, minlength=times.size).astype(np.int64)
    return TrajectoryBatch(n, np.repeat(state[order], steps[order]), lengths, times, t_max)


def extinction_time_batch(
    n: int,
    regime: MortalityRegime,
    rng: RngStream,
    samples: int,
    t_max: int | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Extinction times for ``samples`` independent runs (-1 = censored)."""
    n = check_count(n, "population", 1, ProcessError, MAX_EXACT_COUNT)
    cs, t_max = prepare_run(regime, n, t_max)
    times, _ = _run_batch(
        rng, samples, [np.int64], lambda gen, out: kernels.extinction_batch(gen, out, cs, n, t_max), workers
    )
    return times


def single_drop_batch(
    n: int,
    regime: MortalityRegime,
    rng: RngStream,
    samples: int,
    workers: int = 1,
) -> np.ndarray:
    """Boolean single-drop outcomes for ``samples`` independent runs.  From
    n = 0 the empty path is one, and nothing is drawn."""
    n = check_count(n, "population", 0, ProcessError, MAX_EXACT_COUNT)
    cs = prepare(regime, n) if n else None

    def kernel(gen, out) -> None:
        if n:
            kernels.single_drop_batch(gen, out, cs, n)
        else:
            out.fill(1)

    flags, _ = _run_batch(rng, samples, [np.uint8], kernel, workers)
    return flags.astype(bool)


def drop_distribution(k: int, c: float) -> np.ndarray:
    """Landing law of the first departure from k: entry j is the chance of
    landing at state j, i.e. C(k, k-j) c^(k-j) (1-c)^j / (1 - (1-c)^k)."""
    k = check_count(k, "population", 1, ProcessError, MAX_EXACT_COUNT)
    c = check_probability(c, "(0,1)", ProcessError, "drop distribution needs c in")
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
    which follows the departure jump law.  Each chunk draws every
    sample's hold in order, then one uniform per sample, in order, for
    whether its departure kills exactly one; no landing is drawn.
    ``stepped=True`` realizes the same law by raw stepping, the reference the tests compare against; it
    gives up with code ``CENSORED`` after ``STEPPED_T_MAX`` steps at k.
    """
    k = check_count(k, "population", 1, ProcessError, MAX_EXACT_COUNT)
    n = k if n is None else check_count(n, "population", 1, ProcessError, MAX_EXACT_COUNT)
    if not k <= n:
        raise ProcessError(f"need k <= n, got k={k}, n={n}")
    c = mortality(regime, k, n)
    if not stepped:
        check_departure(k, c)

    def kernel(gen, out_j, out_code) -> None:
        if stepped:
            kernels.first_passage_stepped_batch(gen, k, c, STEPPED_T_MAX, out_j, out_code)
        else:
            kernels.first_passage_batch(gen, k, c, out_j, out_code)

    times, codes, _ = _run_batch(rng, samples, [np.int64, np.int64], kernel, workers)
    return times, codes
