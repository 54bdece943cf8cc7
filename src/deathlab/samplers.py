"""Exact-distribution samplers on top of reproducible streams.

Each sampler validates its parameters and fills an array of ``size``
independent draws, taking them in order from the stream: the geometric
and max-of-geometrics batches run the kernels of :mod:`deathlab.kernels`,
the exponential batch inverts numpy uniforms.  Given an array of rates,
it draws ``size`` per rate, rate by rate, with one ``gen.random`` call
transformed in place, into the caller's buffer where one is given, so a
block of stages costs one call, not one per rate, and no allocation.  A
mortality outside [0,1] given to ``process.step`` is this module's
``SamplerError`` too.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .regimes import check_count, check_probability
from .rng import RngStream

# counts above 2**53 would break exact float cross-checks downstream
MAX_EXACT_COUNT = 2**53


class SamplerError(ValueError):
    """Parameter outside a sampler's domain."""


def sample_geometric_batch(rng: RngStream, c: float, size: int) -> np.ndarray:
    """Geometric(c) draws on {1, 2, ...}: P(t) = (1-c)^(t-1) c."""
    c = check_probability(c, "(0,1]", SamplerError)
    out = np.empty(check_count(size, "size", 0, SamplerError), dtype=np.int64)
    kernels.geometric_batch(rng.generator, c, out)
    return out


def sample_max_geometric_batch(rng: RngStream, n: int, c: float, size: int) -> np.ndarray:
    """Draws of the maximum of n iid Geometric(c) variables.

    Each is one uniform inverted through the CDF (1-(1-c)^t)^n in log
    space, so n = 10**6 costs the same as n = 1.
    """
    n = check_count(n, "n", 1, SamplerError, MAX_EXACT_COUNT)
    c = check_probability(c, "(0,1]", SamplerError)
    out = np.empty(check_count(size, "size", 0, SamplerError), dtype=np.int64)
    kernels.max_geometric_batch(rng.generator, n, c, out)
    return out


def sample_exponential_batch(
    rng: RngStream, rate: float | np.ndarray, size: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Exponential(rate) draws by inversion, ``size`` per rate: for an array
    of rates, one flat array holding each rate's draws in rate order.  The
    draws equal one call per rate, in that order, bit for bit.

    A rate is a real number > 0 by the test of ``regimes.is_real``: an int
    or a float, never a bool, a string or NaN, and an array of rates has
    an integer or float dtype.  ``+inf`` is a rate, whose draws are 0: a
    stage whose rate overflowed lasts no time.  With ``out``, a
    C-contiguous float64 array of ``size`` doubles per rate, the draws
    fill it in place, and the flat array returned is a view of it."""
    rates = np.asarray(rate)
    if rates.dtype.kind not in "iuf" or not (rates > 0).all():
        raise SamplerError(f"rate must be a real number > 0, got {rate!r}")
    rates = rates.astype(np.float64, copy=False).reshape(-1)
    shape = (rates.size, check_count(size, "size", 0, SamplerError))
    if out is None:
        draws = rng.generator.random(shape)
    elif (
        isinstance(out, np.ndarray) and out.dtype == np.float64 and out.flags.c_contiguous
        and out.flags.writeable and out.size == shape[0] * shape[1]
    ):
        draws = rng.generator.random(out=out.reshape(shape))
    else:
        raise SamplerError(f"out must be a writeable C-contiguous float64 array of {shape[0] * shape[1]} doubles")
    np.negative(draws, out=draws)
    np.log1p(draws, out=draws)
    # log1p(-u) / -rate is -log1p(-u) / rate to the bit: rounding is sign-symmetric
    draws /= -rates[:, None]
    return draws.reshape(-1)
