"""Exact-distribution samplers on top of reproducible streams.

Each sampler validates its parameters and fills an array of ``size``
independent draws, taking them in order from the stream: the geometric
and max-of-geometrics batches run the kernels of :mod:`deathlab.kernels`,
the exponential batch inverts numpy uniforms.  Given an array of rates,
it draws ``size`` per rate, rate by rate, with one ``gen.random`` call
transformed in place, so a block of stages costs one call, not one per
rate.  ``process.step`` checks its mortality with this module's
``_check_prob``.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .rng import RngStream

# counts above 2**53 would break exact float cross-checks downstream
MAX_EXACT_COUNT = 2**53


class SamplerError(ValueError):
    """Parameter outside a sampler's domain."""


def _check_prob(c: float, *, allow_zero: bool, allow_one: bool, name: str = "c") -> float:
    c = float(c)
    low_ok = c > 0.0 or (allow_zero and c == 0.0)
    high_ok = c < 1.0 or (allow_one and c == 1.0)
    if not (low_ok and high_ok):
        lo = "[0" if allow_zero else "(0"
        hi = "1]" if allow_one else "1)"
        raise SamplerError(f"{name} must lie in {lo},{hi}, got {c}")
    return c


def _check_count(x: int, name: str, minimum: int = 0) -> int:
    # int() of infinity or nan raises, but not this module's domain error
    if x != x or x in (float("inf"), float("-inf")) or x != int(x):
        raise SamplerError(f"{name} must be an integer, got {x}")
    x = int(x)
    if x < minimum:
        raise SamplerError(f"{name} must be >= {minimum}, got {x}")
    if x > MAX_EXACT_COUNT:
        raise SamplerError(f"{name} above 2**53 loses exactness, got {x}")
    return x


def sample_geometric_batch(rng: RngStream, c: float, size: int) -> np.ndarray:
    """Geometric(c) draws on {1, 2, ...}: P(t) = (1-c)^(t-1) c."""
    c = _check_prob(c, allow_zero=False, allow_one=True)
    out = np.empty(size, dtype=np.int64)
    kernels.geometric_batch(rng.generator, c, out)
    return out


def sample_max_geometric_batch(rng: RngStream, n: int, c: float, size: int) -> np.ndarray:
    """Draws of the maximum of n iid Geometric(c) variables.

    Each is one uniform inverted through the CDF (1-(1-c)^t)^n in log
    space, so n = 10**6 costs the same as n = 1.
    """
    n = _check_count(n, "n", minimum=1)
    c = _check_prob(c, allow_zero=False, allow_one=True)
    out = np.empty(size, dtype=np.int64)
    kernels.max_geometric_batch(rng.generator, n, c, out)
    return out


def sample_exponential_batch(rng: RngStream, rate: float | np.ndarray, size: int) -> np.ndarray:
    """Exponential(rate) draws by inversion, ``size`` per rate: for an array
    of rates, one flat array holding each rate's draws in rate order.  The
    draws equal one call per rate, in that order, bit for bit."""
    rates = np.asarray(rate, dtype=np.float64).reshape(-1)
    if not (rates > 0.0).all():
        raise SamplerError(f"rate must be positive, got {rates.min()}")
    draws = rng.generator.random((rates.size, size))
    np.negative(draws, out=draws)
    np.log1p(draws, out=draws)
    # log1p(-u) / -rate is -log1p(-u) / rate to the bit: rounding is sign-symmetric
    draws /= -rates[:, None]
    return draws.reshape(-1)
