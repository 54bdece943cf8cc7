"""Hot Monte Carlo loops, JIT-compiled with numba when available.

Every kernel exists in two builds sharing one source: a numba ``@njit``
build (default) and a pure-Python build.  Both consume the same uniform
stream from a ``numpy.random.Generator``, so for a given stream they
produce bit-identical draws.  Set ``DEATHLAB_NO_NUMBA=1`` to force the
Python build (it is also selected automatically when numba cannot be
imported).  ``perfbench/run.py --trace 1`` measures the kernel layer of
the active build; run it with and without ``DEATHLAB_NO_NUMBA=1`` to
compare the two.

The process kernels take the mortality as an array ``cs`` prepared by
``regimes.prepare``: ``cs[k]`` is the per-individual death probability at
state k, and its last entry holds for every state above it.

All samplers here are exact: the binomial draw uses a Bernoulli sum for
tiny x, CDF inversion by the pmf recurrence while x*min(c,1-c) is small,
and the transformed-rejection method of Hormann (1993) above that.  The
cutover points affect speed only, never the distribution.
"""

from __future__ import annotations

import math
import os
from types import SimpleNamespace

import numpy as np

try:
    from numba import njit as _njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via the env flag instead
    _HAVE_NUMBA = False

_ENV_FLAG = "DEATHLAB_NO_NUMBA"

# first-passage outcome codes
FINITE = 0
JUMPED_OVER = 1
CENSORED = 2

# Correction tail of the Stirling series: ln k! minus the continuous
# approximation; exact values below 10, asymptotic series above.
_STIRLING_TAIL = np.array(
    [
        0.08106146679532726,
        0.04134069595540929,
        0.02767792568499834,
        0.02079067210376509,
        0.01664469118982119,
        0.01387612882307075,
        0.01189670994589177,
        0.01041126526197209,
        0.009255462182712733,
        0.008330563433362871,
    ]
)


def numba_disabled() -> bool:
    return os.environ.get(_ENV_FLAG, "").strip().lower() in {"1", "true", "yes", "on"}


def _build_backend(jit: bool) -> SimpleNamespace:
    if jit:
        wrap = _njit(nogil=True)
    else:

        def wrap(f):
            return f

    stirling_table = _STIRLING_TAIL

    @wrap
    def _stirling_tail(k):
        if k < 10.0:
            return stirling_table[np.int64(k)]
        kp1 = k + 1.0
        kp1sq = kp1 * kp1
        return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / kp1sq) / kp1sq) / kp1

    @wrap
    def _binomial_bernoulli_sum(gen, n, p):
        # tiny n: count n individual coin flips
        k = 0
        for _ in range(n):
            if gen.random() < p:
                k += 1
        return k

    @wrap
    def _binomial_inversion(gen, n, p):
        # CDF inversion by the pmf recurrence; requires n*p small enough
        # that (1-p)^n stays far from the underflow threshold.
        s = p / (1.0 - p)
        pmf = math.exp(n * math.log1p(-p))
        cdf = pmf
        u = gen.random()
        k = 0
        while u > cdf and k < n:
            k += 1
            pmf *= s * (n - k + 1) / k
            cdf += pmf
        return k

    @wrap
    def _binomial_btrs(gen, n, p):
        # Transformed rejection with squeeze (Hormann 1993); exact for
        # p <= 0.5 and n*p >= 10.
        nf = float(n)
        stddev = math.sqrt(nf * p * (1.0 - p))
        b = 1.15 + 2.53 * stddev
        a = -0.0873 + 0.0248 * b + 0.01 * p
        c = nf * p + 0.5
        v_r = 0.92 - 4.2 / b
        r = p / (1.0 - p)
        alpha = (2.83 + 5.1 / b) * stddev
        m = math.floor((nf + 1.0) * p)
        while True:
            u = gen.random() - 0.5
            v = gen.random()
            us = 0.5 - abs(u)
            kf = math.floor((2.0 * a / us + b) * u + c)
            if kf < 0.0 or kf > nf:
                continue
            if us >= 0.07 and v <= v_r:
                return np.int64(kf)
            v2 = math.log(v * alpha / (a / (us * us) + b))
            bound = (
                (m + 0.5) * math.log((m + 1.0) / (r * (nf - m + 1.0)))
                + (nf + 1.0) * math.log((nf - m + 1.0) / (nf - kf + 1.0))
                + (kf + 0.5) * math.log(r * (nf - kf + 1.0) / (kf + 1.0))
                + _stirling_tail(m)
                + _stirling_tail(nf - m)
                - _stirling_tail(kf)
                - _stirling_tail(nf - kf)
            )
            if v2 <= bound:
                return np.int64(kf)

    @wrap
    def binomial_draw(gen, x, c):
        # exact Binomial(x, c) deviate for x >= 0, 0 <= c <= 1
        if x == 0 or c <= 0.0:
            return np.int64(0)
        if c >= 1.0:
            return np.int64(x)
        p = c
        flipped = False
        if c > 0.5:
            p = 1.0 - c
            flipped = True
        if x * p <= 14.0:
            if x <= 16:
                k = _binomial_bernoulli_sum(gen, x, p)
            else:
                k = _binomial_inversion(gen, x, p)
        else:
            k = _binomial_btrs(gen, x, p)
        if flipped:
            return np.int64(x - k)
        return np.int64(k)

    @wrap
    def geometric_draw(gen, c):
        # Geometric on {1,2,...} with P(t) = (1-c)^(t-1) c, by inversion
        if c >= 1.0:
            return np.int64(1)
        jf = math.floor(math.log1p(-gen.random()) / math.log1p(-c)) + 1.0
        if jf > 4.6e18:
            jf = 4.6e18
        return np.int64(jf)

    @wrap
    def max_geometric_draw(gen, n, c):
        # max of n iid Geometric(c): invert CDF (1-(1-c)^t)^n in log space
        if c >= 1.0:
            return np.int64(1)
        u = gen.random()
        if u <= 0.0:
            return np.int64(1)
        z = math.expm1(math.log(u) / n)  # u^(1/n) - 1, stays accurate for huge n
        tf = math.ceil(math.log(-z) / math.log1p(-c))
        if tf < 1.0:
            return np.int64(1)
        if tf > 4.6e18:
            tf = 4.6e18
        return np.int64(tf)

    @wrap
    def extinction_time_draw(gen, cs, n, t_max):
        # first hitting time of 0 from n; -1 when censored at t_max
        last = cs.shape[0] - 1
        k = n
        t = np.int64(0)
        while k > 0 and t < t_max:
            k -= binomial_draw(gen, k, cs[min(k, last)])
            t += 1
        if k == 0:
            return t
        return np.int64(-1)

    @wrap
    def trajectory_fill(gen, out, cs, n, t_max):
        # writes the path into out (out[0] = n); returns extinction index or -1
        last = cs.shape[0] - 1
        out[0] = n
        k = n
        t = np.int64(0)
        while k > 0 and t < t_max:
            k -= binomial_draw(gen, k, cs[min(k, last)])
            t += 1
            out[t] = k
        if k == 0:
            return t
        return np.int64(-1)

    @wrap
    def single_drop_draw(gen, cs, n):
        # True iff the realized path loses exactly one individual per drop
        last = cs.shape[0] - 1
        k = n
        while k > 0:
            d = binomial_draw(gen, k, cs[min(k, last)])
            if d > 1:
                return False
            k -= d
        return True

    @wrap
    def _conditional_deaths(gen, k, c):
        # Binomial(k, c) conditioned on >= 1, i.e. the departure jump law.
        qk = math.exp(k * math.log1p(-c))
        if qk < 0.5:
            # departure is likely per step: rejection on the raw binomial
            while True:
                d = binomial_draw(gen, k, c)
                if d >= 1:
                    return d
        # staying is likely: walk the conditional pmf from one death upward
        ratio = c / (1.0 - c)
        mass = k * ratio * qk  # k * c * (1-c)^(k-1)
        total = -math.expm1(k * math.log1p(-c))  # 1 - (1-c)^k, no cancellation
        u = gen.random() * total
        b = np.int64(1)
        acc = mass
        while u > acc and b < k:
            mass *= ratio * (k - b) / (b + 1.0)
            b += 1
            acc += mass
        return b

    @wrap
    def first_passage_draw(gen, k, c, t_max):
        # Exact two-stage draw of the first departure from state k: the
        # holding time is Geometric(1-(1-c)^k), independent of the landing
        # state, whose law is the jump law given departure.  t_max <= 0
        # disables censoring.
        if c >= 1.0:
            if k == 1:
                return np.int64(1), np.int64(FINITE)
            return np.int64(1), np.int64(JUMPED_OVER)
        jf = math.floor(math.log1p(-gen.random()) / (k * math.log1p(-c))) + 1.0
        if t_max > 0 and jf > t_max:
            return np.int64(t_max), np.int64(CENSORED)
        if jf > 4.6e18:
            jf = 4.6e18
        d = _conditional_deaths(gen, k, c)
        if d == 1:
            return np.int64(jf), np.int64(FINITE)
        return np.int64(jf), np.int64(JUMPED_OVER)

    @wrap
    def first_passage_stepped_draw(gen, k, c, t_max):
        # reference implementation: step the raw process until it leaves k
        t = np.int64(0)
        while True:
            t += 1
            d = binomial_draw(gen, k, c)
            if d >= 1:
                if d == 1:
                    return t, np.int64(FINITE)
                return t, np.int64(JUMPED_OVER)
            if t_max > 0 and t >= t_max:
                return np.int64(t_max), np.int64(CENSORED)

    @wrap
    def binomial_batch(gen, x, c, out):
        for i in range(out.shape[0]):
            out[i] = binomial_draw(gen, x, c)

    @wrap
    def geometric_batch(gen, c, out):
        for i in range(out.shape[0]):
            out[i] = geometric_draw(gen, c)

    @wrap
    def max_geometric_batch(gen, n, c, out):
        for i in range(out.shape[0]):
            out[i] = max_geometric_draw(gen, n, c)

    @wrap
    def extinction_batch(gen, out, cs, n, t_max):
        for i in range(out.shape[0]):
            out[i] = extinction_time_draw(gen, cs, n, t_max)

    @wrap
    def single_drop_batch(gen, out, cs, n):
        for i in range(out.shape[0]):
            out[i] = 1 if single_drop_draw(gen, cs, n) else 0

    @wrap
    def first_passage_batch(gen, k, c, t_max, out_j, out_code):
        for i in range(out_j.shape[0]):
            j, code = first_passage_draw(gen, k, c, t_max)
            out_j[i] = j
            out_code[i] = code

    @wrap
    def first_passage_stepped_batch(gen, k, c, t_max, out_j, out_code):
        for i in range(out_j.shape[0]):
            j, code = first_passage_stepped_draw(gen, k, c, t_max)
            out_j[i] = j
            out_code[i] = code

    return SimpleNamespace(
        name="numba" if jit else "python",
        binomial_draw=binomial_draw,
        geometric_draw=geometric_draw,
        max_geometric_draw=max_geometric_draw,
        extinction_time_draw=extinction_time_draw,
        trajectory_fill=trajectory_fill,
        single_drop_draw=single_drop_draw,
        first_passage_draw=first_passage_draw,
        first_passage_stepped_draw=first_passage_stepped_draw,
        binomial_batch=binomial_batch,
        geometric_batch=geometric_batch,
        max_geometric_batch=max_geometric_batch,
        extinction_batch=extinction_batch,
        single_drop_batch=single_drop_batch,
        first_passage_batch=first_passage_batch,
        first_passage_stepped_batch=first_passage_stepped_batch,
    )


_BACKENDS: dict[bool, SimpleNamespace] = {}


def get_backend(jit: bool) -> SimpleNamespace:
    """Build (once) and return the requested backend."""
    if jit and not _HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is not importable")
    if jit not in _BACKENDS:
        _BACKENDS[jit] = _build_backend(jit)
    return _BACKENDS[jit]


_active = get_backend(_HAVE_NUMBA and not numba_disabled())

BACKEND = _active.name

# Every kernel of the active build is a module attribute, read at call
# time (``kernels.extinction_batch``), so the build is chosen in one place.
globals().update({name: kernel for name, kernel in vars(_active).items() if callable(kernel)})


def warmup() -> None:
    """Trigger JIT compilation of every kernel on a throwaway stream."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    out_i = np.empty(2, dtype=np.int64)
    out_b = np.empty(2, dtype=np.uint8)
    out_c = np.empty(2, dtype=np.int64)
    cs = np.array([0.5, 0.5])
    binomial_draw(gen, 10, 0.3)
    binomial_draw(gen, 100, 0.3)
    binomial_draw(gen, 5, 0.9)
    geometric_draw(gen, 0.5)
    max_geometric_draw(gen, 10, 0.5)
    extinction_time_draw(gen, cs, 5, 1000)
    trajectory_fill(gen, np.empty(1001, dtype=np.int64), cs, 5, 1000)
    single_drop_draw(gen, cs, 5)
    first_passage_draw(gen, 3, 0.3, 0)
    first_passage_stepped_draw(gen, 3, 0.3, 10**6)
    binomial_batch(gen, 10, 0.3, out_i)
    geometric_batch(gen, 0.5, out_i)
    max_geometric_batch(gen, 10, 0.5, out_i)
    extinction_batch(gen, out_i, cs, 5, 1000)
    single_drop_batch(gen, out_b, cs, 5)
    first_passage_batch(gen, 3, 0.3, 0, out_i, out_c)
    first_passage_stepped_batch(gen, 3, 0.3, 10**6, out_i, out_c)
