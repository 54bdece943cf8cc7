"""Hot Monte Carlo loops, JIT-compiled with numba when available.

Every kernel exists in two builds of one scalar source: a numba ``@njit``
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

The process kernels simulate the chain one level at a time, not one time
step at a time.  Given the state k the chain is time-homogeneous: it stays
at k for a Geometric(1-(1-c)^k) number of steps, independent of where it
lands, and the landing follows the departure jump law, Binomial(k, c)
deaths conditioned on at least one.  ``trajectory_fill`` draws the hold
and then the landing at each level and stops past ``t_max`` without
drawing the landing.  The landing draw inverts the conditional pmf from
one death upward while that walk is expected to take at most 14 steps
(the inversion cutover of the binomial draw) and rejects zero-death
binomial draws above that.  A level costs about two uniforms, however
long the chain holds there.

``extinction_batch`` draws the same holds and landings for a whole batch,
round-major: each round draws the hold of every live run, in run order,
and censors a run whose hold outlasts ``t_max``; then one landing uniform
for each departing run whose level walks the pmf, in run order; then the
rejection landings, by run index.  A lone individual and certain death
land at 0 without a draw.

``single_drop_batch`` and ``first_passage_batch`` only ask whether a
departure kills exactly one.  Where the landing draw would walk the pmf,
that is its first test, u (1-(1-c)^k) <= k c (1-c)^(k-1), so the answer
costs the walk's one uniform and one comparison; where it would reject,
the first accepted binomial draw is compared with 1.  The uniforms and so
the draws are those of the full landing draw.  ``single_drop_batch`` walks
the jump chain alone, level-major like ``extinction_batch``: at each level
n, n-1, ..., 2 every run still dropping one at a time takes that level's
test, in run order, and a run that fails drops out.  Certain death ends
every live run without a draw, and no run draws at state 1.
``first_passage_batch`` draws the hold and then the test for one level,
uncensored, with the level's constants computed once per batch.

``trajectory_batch`` runs ``trajectory_fill`` once per Philox key, on a
generator set to that key with its counter at 0 (the draws of the
substream the key came from, ``rng.RngStream.substream_keys``), and
returns the paths end to end with their lengths and extinction times.

Each build exports ``binomial_draw`` (the primitive of ``process.step``
and of the stepping references in the tests), ``trajectory_fill`` and the
seven ``*_batch`` entry points; the per-sample draws behind the batches
are private.  The numba build compiles the shared scalar source of every
batch but ``trajectory_batch``, a Python loop over the compiled
``trajectory_fill`` because it sets the generator's state.  The Python
build keeps each batch's source as the entry point's ``__wrapped__`` and
wraps it in one of two ways; either way the entry point draws the same
doubles in the same order and leaves the generator where the source's
own ``gen.random()`` calls would, so every report, stream position and
uniform count is the source's.

- Six entry points are array code.  They take the uniforms of a round,
  or of the whole batch, as ``gen.random(size)`` blocks and do the
  arithmetic in numpy with the source's own float operations; the pmf
  walk runs on the live runs of a round together.  A logarithm or
  ``expm1`` is ``math``'s, mapped over a list, and a level's constants
  come from ``math`` once per level and round or batch, because numpy's
  ``log``, ``log1p``, ``expm1`` and ``exp`` are not libm's and differ in
  the last bit on a few percent of inputs.  Temporaries are O(live runs)
  or O(one block), never O(n).  Rejection landings, which take a varying
  number of uniforms, run the scalar binomial draw on the block source
  below, as do the single-death tests of ``single_drop_batch`` and
  ``first_passage_batch`` at a rejection level.
- ``geometric_batch`` and ``max_geometric_batch`` invert one block of
  uniforms, one per draw.
- ``single_drop_batch`` draws one block of uniforms per level, one for
  each live run, and compares them with the level's constants.
- ``trajectory_batch`` sets one generator to each run's key in turn and
  draws a row of uniforms for the run, two per level up to 64.  It then
  walks all the runs round-major, a hold and a landing per live run and
  round, each from its own row; a run that uses up its row gets the
  next, by setting the generator to the run's key and the row's counter.
  The runs that reach a rejection level are redone from their start by
  the scalar source, on their own keys.  The paths are kept as (run, state,
  steps) pieces and expanded once at the end.
- ``first_passage_stepped_batch`` runs the scalar source on a block
  source instead of the generator.  The source still sees
  ``gen.random()`` calls and answers with the same Philox doubles as
  Python floats.  It saves the generator state and hands out doubles from
  ``gen.random(size)`` blocks (64 long, doubling up to 1024), which cost a
  fraction of a scalar call each.  When the call ends, by return or by
  raise, the source rewinds: it restores the saved state and skips one
  word per double consumed (``bit_generator.random_raw(used,
  output=False)``).

``binomial_draw``, ``trajectory_fill``, calls from one kernel to another
and the numba build take the generator itself.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from types import SimpleNamespace

import numpy as np

try:
    from numba import njit as _njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via the env flag instead
    _HAVE_NUMBA = False

_ENV_FLAG = "DEATHLAB_NO_NUMBA"

# Longest expected pmf walk of the landing draw, the cutover binomial_draw
# also uses for inversion; longer walks give way to rejection.
_WALK_MAX = 14.0

# first-passage outcome codes; only the stepped reference censors
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


# The block source of the Python build draws blocks that start this long
# and double up to _MAX_BLOCK.
_FIRST_BLOCK = 64
_MAX_BLOCK = 1024


def _level_constants(k, c):
    """The constants of state k at mortality c < 1, with the expressions of
    the landing draw: lq = ln (1-c)^k, the departure chance total =
    1-(1-c)^k and the single-death chance mass = k c (1-c)^(k-1)."""
    lq = k * math.log1p(-c)
    return lq, -math.expm1(lq), k * (c / (1.0 - c)) * math.exp(lq)


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
                return int(kf)
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
                return int(kf)

    @wrap
    def binomial_draw(gen, x, c):
        # exact Binomial(x, c) deviate for x >= 0, 0 <= c <= 1
        if x == 0 or c <= 0.0:
            return 0
        if c >= 1.0:
            return x
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
            return x - k
        return k

    @wrap
    def _hold(gen, lq):
        # Geometric holding time on {1,2,...} with stay chance e^lq < 1 per
        # step, by inversion; lq = k ln(1-c).  A float, capped at 4.6e18.
        x = math.log1p(-gen.random()) / lq
        if x >= 4.6e18:
            return 4.6e18
        return math.floor(x) + 1.0

    @wrap
    def _geometric(gen, c):
        # Geometric on {1,2,...} with P(t) = (1-c)^(t-1) c, by inversion
        if c >= 1.0:
            return np.int64(1)
        return np.int64(_hold(gen, math.log1p(-c)))

    @wrap
    def _max_geometric(gen, n, c):
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
    def _conditional_deaths(gen, k, c):
        # Binomial(k, c) conditioned on >= 1, i.e. the departure jump law;
        # a lone individual and certain death both land at 0 without a draw
        if k == 1 or c >= 1.0:
            return k
        lq = k * math.log1p(-c)
        total = -math.expm1(lq)  # 1 - (1-c)^k, no cancellation
        if k * c > _WALK_MAX * total:
            # the walk below would be long: rejection on the raw binomial,
            # which departs with chance total, close to 1 here
            while True:
                d = binomial_draw(gen, k, c)
                if d >= 1:
                    return d
        # invert the conditional pmf from one death upward; the walk takes
        # k*c / total steps on average
        ratio = c / (1.0 - c)
        mass = k * ratio * math.exp(lq)  # k * c * (1-c)^(k-1)
        u = gen.random() * total
        b = 1
        acc = mass
        while u > acc and b < k:
            mass *= ratio * (k - b) / (b + 1.0)
            b += 1
            acc += mass
        return b

    _level = wrap(_level_constants)

    @wrap
    def _single_death(gen, k, c, total, mass):
        # _conditional_deaths(gen, k, c) == 1 for c < 1, on the same draws,
        # with total and mass from _level(k, c): where that walks the pmf,
        # it lands on one death exactly when its first test, u <= mass, holds
        if k == 1:
            return True
        if k * c > _WALK_MAX * total:
            while True:
                d = binomial_draw(gen, k, c)
                if d >= 1:
                    return d == 1
        return gen.random() * total <= mass

    @wrap
    def trajectory_fill(gen, out, cs, n, t_max):
        # Extinction time from n, or -1 when censored at t_max; writes the
        # path into out[0 : t_max+1] unless out is empty.  Per state it
        # draws the geometric hold and then the landing state.
        last = cs.shape[0] - 1
        record = out.shape[0] > 0
        if record:
            out[0] = n
        k = n
        t = 0
        while k > 0 and t < t_max:
            c = float(cs[min(k, last)])
            # ln (1-c)^k; certain death holds for exactly one step
            lq = -math.inf if c >= 1.0 else k * math.log1p(-c)
            j = _hold(gen, lq)
            if j > t_max - t:
                if record:
                    out[t + 1 : t_max + 1] = k
                return np.int64(-1)
            d = _conditional_deaths(gen, k, c)
            hold = int(j)
            if record:
                out[t + 1 : t + hold] = k
                out[t + hold] = k - d
            t += hold
            k -= d
        if k == 0:
            return np.int64(t)
        return np.int64(-1)

    def trajectory_batch(keys, cs, n, t_max):
        # The path of one run per Philox key, each drawn by trajectory_fill
        # on a generator set to that key with its counter at 0: the paths
        # end to end, their lengths and the extinction times, -1 when
        # censored at t_max.  Plain Python in both builds, because it sets
        # the generator's state.
        gen = np.random.Generator(np.random.Philox(0))
        state = gen.bit_generator.state
        buf = np.empty(t_max + 1, dtype=np.int64)
        paths, times = [], []
        for key in keys:
            _seek(gen.bit_generator, state, key)
            ext = int(trajectory_fill(gen, buf, cs, n, t_max))
            paths.append(buf[: ext + 1].copy() if ext >= 0 else buf.copy())
            times.append(ext)
        lengths = np.array([path.size for path in paths], dtype=np.int64)
        return np.concatenate([np.empty(0, dtype=np.int64)] + paths), lengths, np.array(times, dtype=np.int64)

    @wrap
    def _first_passage_stepped(gen, k, c, t_max):
        # reference implementation: step the raw process until it leaves k,
        # censored after t_max steps
        t = np.int64(0)
        while True:
            t += 1
            d = binomial_draw(gen, k, c)
            if d >= 1:
                if d == 1:
                    return t, np.int64(FINITE)
                return t, np.int64(JUMPED_OVER)
            if t >= t_max:
                return np.int64(t_max), np.int64(CENSORED)

    @wrap
    def geometric_batch(gen, c, out):
        for i in range(out.shape[0]):
            out[i] = _geometric(gen, c)

    @wrap
    def max_geometric_batch(gen, n, c, out):
        for i in range(out.shape[0]):
            out[i] = _max_geometric(gen, n, c)

    @wrap
    def extinction_batch(gen, out, cs, n, t_max):
        # First hitting times of 0 from n, -1 when censored at t_max, drawn
        # round-major: each round draws the hold of every live run, in run
        # order, and censors a run whose hold outlasts t_max; then one
        # landing uniform for each departing run whose level walks the pmf,
        # in run order; then the rejection landings, by run index.  k = 1
        # and certain death land at 0 without a draw.
        m = out.shape[0]
        last = cs.shape[0] - 1
        ks = np.full(m, n, dtype=np.int64)  # 0 once extinct or censored
        ts = np.zeros(m, dtype=np.int64)
        lands = np.zeros(m, dtype=np.int64)  # this round: 1 walks or needs no draw, 2 rejects
        out[:] = 0 if n == 0 else -1
        live = m if n > 0 and t_max > 0 else 0
        while live > 0:
            for i in range(m):
                lands[i] = 0
                k = int(ks[i])
                if k > 0:
                    c = float(cs[min(k, last)])
                    # ln (1-c)^k; certain death holds for exactly one step
                    lq = -math.inf if c >= 1.0 else k * math.log1p(-c)
                    hold = int(_hold(gen, lq))
                    if hold > t_max - ts[i]:
                        ks[i] = 0
                        live -= 1
                    else:
                        ts[i] += hold
                        lands[i] = 2 if k > 1 and c < 1.0 and k * c > _WALK_MAX * -math.expm1(lq) else 1
            for branch in (1, 2):
                for i in range(m):
                    if lands[i] == branch:
                        k = int(ks[i])
                        k -= _conditional_deaths(gen, k, float(cs[min(k, last)]))
                        ks[i] = k
                        if k == 0:
                            out[i] = ts[i]
                            live -= 1
                        elif ts[i] >= t_max:
                            ks[i] = 0
                            live -= 1

    @wrap
    def single_drop_batch(gen, out, cs, n):
        # 1 where the jump chain from n loses exactly one individual per
        # departure, drawn level-major: at each level k = n, ..., 2 every
        # run still dropping one at a time takes the level's single-death
        # test, in run order, and a run that fails drops out.  Holding times
        # do not matter, state 1 can only drop to 0, and certain death takes
        # all k >= 2 at once.
        out[:] = 0
        last = cs.shape[0] - 1
        live = np.arange(out.shape[0])  # the runs still in, in live[:count]
        count = live.shape[0]
        for k in range(n, 1, -1):
            if count == 0:
                return
            c = float(cs[min(k, last)])
            if c >= 1.0:
                return
            _, total, mass = _level(k, c)
            kept = 0
            for j in range(count):
                if _single_death(gen, k, c, total, mass):
                    live[kept] = live[j]
                    kept += 1
            count = kept
        out[live[:count]] = 1

    @wrap
    def first_passage_batch(gen, k, c, out_j, out_code):
        # Exact two-stage draw of the first departure from state k: the
        # holding time is Geometric(1-(1-c)^k), independent of the landing
        # state, whose law is the jump law given departure.  Certain death
        # leaves after one step, without a draw.
        if c >= 1.0:
            out_j[:] = 1
            out_code[:] = FINITE if k == 1 else JUMPED_OVER
            return
        lq, total, mass = _level(k, c)
        for i in range(out_j.shape[0]):
            out_j[i] = int(_hold(gen, lq))
            out_code[i] = FINITE if _single_death(gen, k, c, total, mass) else JUMPED_OVER

    @wrap
    def first_passage_stepped_batch(gen, k, c, t_max, out_j, out_code):
        for i in range(out_j.shape[0]):
            j, code = _first_passage_stepped(gen, k, c, t_max)
            out_j[i] = j
            out_code[i] = code

    return SimpleNamespace(
        name="numba" if jit else "python",
        binomial_draw=binomial_draw,
        trajectory_fill=trajectory_fill,
        trajectory_batch=trajectory_batch,
        geometric_batch=geometric_batch,
        max_geometric_batch=max_geometric_batch,
        extinction_batch=extinction_batch,
        single_drop_batch=single_drop_batch,
        first_passage_batch=first_passage_batch,
        first_passage_stepped_batch=first_passage_stepped_batch,
    )


def _seek(bitgen: np.random.Philox, state: dict, key: np.ndarray, word: int = 0) -> None:
    """Set ``bitgen`` to the stream of Philox key ``key``, to hand out its
    word ``word``, a multiple of 4, next: the first word of the block at
    counter word / 4 + 1.  ``state`` is a Philox state dict whose buffer is
    empty, reused from call to call."""
    state["state"]["key"] = key
    state["state"]["counter"][0] = word // 4
    bitgen.state = state


def _uniforms(gen: np.random.Generator):
    """The doubles ``gen.random()`` would return, as Python floats, in order.

    The state is saved and the doubles come from ``gen.random(size)``
    blocks, which run ahead of what is consumed.  Closing the iterator
    rewinds: it restores the saved state and skips one Philox word per
    double consumed.  Either way ``gen`` ends where the same number of
    ``gen.random()`` calls leaves it.
    """
    bitgen = gen.bit_generator
    saved = bitgen.state
    drawn = 0  # doubles taken from gen in blocks since saved
    block = iter(())
    size = _FIRST_BLOCK
    try:
        while True:
            block = iter(gen.random(size).tolist())
            drawn += size
            yield from block
            size = min(2 * size, _MAX_BLOCK)
    finally:
        bitgen.state = saved
        bitgen.random_raw(drawn - operator.length_hint(block), output=False)


def _buffered(kernel):
    """Run ``kernel(gen, ...)`` on a block source over ``gen``; on return or
    raise, ``gen`` stands where the kernel's own draws leave it."""

    @functools.wraps(kernel)
    def entry(gen, *args):
        draws = _uniforms(gen)
        try:
            # the kernel only ever calls gen.random()
            return kernel(SimpleNamespace(random=draws.__next__), *args)
        finally:
            draws.close()

    return entry


def _mapped(f, x):
    """``f`` of each entry of the float array ``x``, by ``math`` over a
    list: numpy's ``log``, ``log1p`` and ``expm1`` are not libm's."""
    return np.fromiter(map(f, x.tolist()), np.float64, x.size)


def _holds(u, lq):
    """``int(_hold)`` for each uniform of the array ``u``, at ``lq`` (one
    value, or one per uniform): the logarithm is ``math.log1p``, mapped
    over a list, and the rest exact IEEE operations in numpy."""
    with np.errstate(over="ignore"):  # a hold past the cap may divide to inf
        x = _mapped(math.log1p, -u) / lq
    return np.where(x >= 4.6e18, 4.6e18, np.floor(x) + 1.0).astype(np.int64)


def _walk(target, mass, ratio, k):
    """The pmf walk of the landing draw, one per entry: the deaths b, from
    one upward while target > acc and b < k, with the walk's own products,
    quotients and sums.  Every walk still going stands at the same b."""
    deaths = np.ones(k.size, dtype=np.int64)
    at = np.arange(k.size)
    acc = mass
    b = 1
    on = (target > acc) & (b < k)
    while True:
        if not on.all():
            at, target, acc, mass, ratio, k = at[on], target[on], acc[on], mass[on], ratio[on], k[on]
            if not at.size:
                return deaths
        mass = mass * (ratio * (k - b) / (b + 1.0))
        b += 1
        acc = acc + mass
        deaths[at] = b
        on = (target > acc) & (b < k)


# what a departure from a level draws for its landing
_NO_DRAW, _WALKS, _REJECTS = 0, 1, 2


def _level_table(k, cs):
    """The constants of the levels that the runs at states ``k`` stand at:
    each run's index into them, and per level c, lq (-inf at certain death,
    which holds one step), total, mass, ratio = c/(1-c) and what its
    landing draws, from ``_level_constants`` once per level."""
    last = cs.shape[0] - 1
    levels, at = np.unique(k, return_inverse=True)
    c = np.array([float(cs[min(j, last)]) for j in levels.tolist()])
    lq = np.full(c.size, -np.inf)
    total, mass, ratio = np.ones(c.size), np.zeros(c.size), np.zeros(c.size)
    kind = np.full(c.size, _NO_DRAW)
    for i, (j, cj) in enumerate(zip(levels.tolist(), c.tolist())):
        if cj < 1.0:
            lq[i], total[i], mass[i] = _level_constants(j, cj)
            ratio[i] = cj / (1.0 - cj)
            if j > 1:
                kind[i] = _REJECTS if j * cj > _WALK_MAX * total[i] else _WALKS
    return at, c, lq, total, mass, ratio, kind


# trajectory_batch draws rows of at most _MAX_ROW uniforms per run, for at
# most _PATH_RUNS runs at a time
_MAX_ROW = 64
_PATH_RUNS = 1 << 12


def _array_entries(py: SimpleNamespace) -> dict:
    """The Python build's array entry points: every ``*_batch`` but
    ``first_passage_stepped_batch``.

    Each draws what its scalar source (``__wrapped__``) draws, in the same
    order, but takes the uniforms of a round, a batch or a run's row as
    ``gen.random(size)`` blocks and does the arithmetic on arrays.  Only
    the rejection landings, a varying number of uniforms each, run the
    scalar binomial draw on the block source; the paths that reach one are
    redone by the scalar ``trajectory_batch``.
    """
    draw = py.binomial_draw

    def rejection_deaths(gen, ks, cs):
        # the rejection branch of the landing draw, for each (k, c) in order
        out = []
        for k, c in zip(ks, cs):
            d = draw(gen, k, c)
            while d < 1:
                d = draw(gen, k, c)
            out.append(d)
        return out

    rejections = _buffered(rejection_deaths)
    scalar_passage = _buffered(py.first_passage_batch)
    # read now: get_backend replaces py.trajectory_batch with the entry below
    scalar_paths = py.trajectory_batch

    @functools.wraps(py.extinction_batch)
    def extinction_batch(gen, out, cs, n, t_max):
        out[:] = 0 if n == 0 else -1
        if n == 0:
            return
        t_max = min(t_max, np.iinfo(np.int64).max)  # times stay int64
        run = np.arange(out.shape[0] if t_max > 0 else 0)  # live runs, in run order
        k = np.full(run.size, n, dtype=np.int64)
        t = np.zeros(run.size, dtype=np.int64)
        while run.size:
            at, c, lq, total, mass, ratio, kind = _level_table(k, cs)
            # holds, then the departures that land by t_max
            hold = _holds(gen.random(run.size), lq[at])
            go = hold <= t_max - t
            run, k, t, at = run[go], k[go], t[go] + hold[go], at[go]
            deaths = k.copy()
            walks = np.flatnonzero(kind[at] == _WALKS)
            if walks.size:
                w = at[walks]
                deaths[walks] = _walk(gen.random(walks.size) * total[w], mass[w], ratio[w], k[walks])
            rejects = np.flatnonzero(kind[at] == _REJECTS)
            if rejects.size:
                deaths[rejects] = rejections(gen, k[rejects].tolist(), c[at[rejects]].tolist())
            k -= deaths
            gone = k == 0
            out[run[gone]] = t[gone]
            stay = ~gone & (t < t_max)
            run, k, t = run[stay], k[stay], t[stay]

    @functools.wraps(py.single_drop_batch)
    def single_drop_batch(gen, out, cs, n):
        out[:] = 0
        last = cs.shape[0] - 1
        live = np.arange(out.shape[0])  # the runs still in, in run order
        for k in range(n, 1, -1):
            if not live.size:
                return
            c = float(cs[min(k, last)])
            if c >= 1.0:
                return
            _, total, mass = _level_constants(k, c)
            if k * c > _WALK_MAX * total:
                passed = np.equal(rejections(gen, [k] * live.size, [c] * live.size), 1)
            else:
                passed = gen.random(live.size) * total <= mass
            live = live[passed]
        out[live] = 1

    @functools.wraps(py.first_passage_batch)
    def first_passage_batch(gen, k, c, out_j, out_code):
        if c >= 1.0:
            return scalar_passage(gen, k, c, out_j, out_code)
        lq, total, mass = _level_constants(k, c)
        if k == 1:
            out_j[:] = _holds(gen.random(out_j.shape[0]), lq)
            out_code[:] = FINITE
        elif k * c > _WALK_MAX * total:
            return scalar_passage(gen, k, c, out_j, out_code)
        else:
            # hold, test, hold, test, ...: one block, split into two columns
            u = gen.random(2 * out_j.shape[0])
            out_j[:] = _holds(u[0::2], lq)
            out_code[:] = np.where(u[1::2] * total <= mass, FINITE, JUMPED_OVER)

    @functools.wraps(py.geometric_batch)
    def geometric_batch(gen, c, out):
        if c >= 1.0:
            out[:] = 1
        else:
            out[:] = _holds(gen.random(out.shape[0]), math.log1p(-c))

    @functools.wraps(py.max_geometric_batch)
    def max_geometric_batch(gen, n, c, out):
        if c >= 1.0:
            out[:] = 1
            return
        u = gen.random(out.shape[0])
        drawn = u > 0.0  # u = 0 gives 1 without a logarithm
        log_u = _mapped(math.log, u[drawn])
        z = _mapped(math.expm1, log_u / float(n))  # u^(1/n) - 1
        tf = np.ceil(_mapped(math.log, -z) / math.log1p(-c))
        out[:] = 1
        out[drawn] = np.where(tf < 1.0, 1.0, np.minimum(tf, 4.6e18))

    def paths(keys, cs, n, t_max):
        # trajectory_batch over one slice of the keys
        m = keys.shape[0]
        width = 4 * min(-(-n // 2), _MAX_ROW // 4)  # two uniforms a level, a multiple of four
        gen = np.random.Generator(np.random.Philox(0))
        bitgen = gen.bit_generator
        state = bitgen.state
        rows = np.empty((m, width))
        for r, key in enumerate(keys):
            _seek(bitgen, state, key)
            gen.random(out=rows[r])
        start = np.zeros(m, dtype=np.int64)  # the word of each row's first uniform
        used = np.zeros(m, dtype=np.int64)  # the words each run has taken
        times = np.full(m, -1, dtype=np.int64)
        # each run's path as pieces (run, state, steps), in time order per run
        empty = np.empty(0, dtype=np.int64)
        pieces = [(empty, empty, empty)]
        redo = []
        run = np.arange(m)
        k = np.full(m, n, dtype=np.int64)
        t = np.zeros(m, dtype=np.int64)
        while run.size:
            at, _, lq, total, mass, ratio, kind = _level_table(k, cs)
            # a rejection landing takes a varying number of uniforms: the
            # scalar source redoes the run from its start
            rejects = kind[at] == _REJECTS
            if rejects.any():
                redo += run[rejects].tolist()
                keep = ~rejects
                run, k, t, at = run[keep], k[keep], t[keep], at[keep]
            # A live run takes two uniforms a round, a hold and a landing:
            # at a level where it takes one it dies or is censored.  So a
            # run uses up its row at the row's end, and its next row starts
            # at a multiple of the width, a multiple of four.
            for r in run[used[run] - start[run] == width].tolist():
                start[r] = used[r]
                _seek(bitgen, state, keys[r], int(start[r]))
                gen.random(out=rows[r])
            # the hold, then the landing of each run whose hold ends by t_max;
            # a run censored here holds its level to t_max
            col = used[run] - start[run]
            hold = _holds(rows[run, col], lq[at])
            go = hold <= t_max - t
            pieces.append((run, k, np.where(go, hold, t_max + 1 - t)))
            t = t + hold
            deaths = k.copy()
            walks = go & (kind[at] == _WALKS)
            w = np.flatnonzero(walks)
            if w.size:
                a = at[w]
                deaths[w] = _walk(rows[run[w], col[w] + 1] * total[a], mass[a], ratio[a], k[w])
            used[run] += 1 + walks
            k = k - deaths
            gone = go & (k == 0)
            times[run[gone]] = t[gone]
            # extinct: state 0, once; a run that lands at t_max is censored
            # by the next round's hold, which is longer than the 0 steps left
            pieces.append((run[gone], k[gone], np.ones(np.count_nonzero(gone), dtype=np.int64)))
            stay = go & ~gone
            run, k, t = run[stay], k[stay], t[stay]
        runs, states, steps = map(np.concatenate, zip(*pieces))
        if redo:
            # the scalar source redraws those runs from their keys, counter
            # at 0; their partial walks keep no steps
            redone, sizes, times[redo] = scalar_paths(keys[redo], cs, n, t_max)
            steps[np.isin(runs, redo)] = 0
            pieces = [(runs, states, steps), (np.repeat(redo, sizes), redone, np.ones_like(redone))]
            runs, states, steps = map(np.concatenate, zip(*pieces))
        order = np.argsort(runs, kind="stable")
        lengths = np.bincount(runs, weights=steps, minlength=m).astype(np.int64)
        return np.repeat(states[order], steps[order]), lengths, times

    @functools.wraps(py.trajectory_batch)
    def trajectory_batch(keys, cs, n, t_max):
        parts = [paths(keys[lo : lo + _PATH_RUNS], cs, n, t_max) for lo in range(0, max(len(keys), 1), _PATH_RUNS)]
        if len(parts) == 1:
            # no copy: one made while the walk's temporaries are alive
            # raised the peak memory of a simulate command by about 0.7 MB
            return parts[0]
        return tuple(map(np.concatenate, zip(*parts)))

    return {
        "extinction_batch": extinction_batch,
        "single_drop_batch": single_drop_batch,
        "first_passage_batch": first_passage_batch,
        "geometric_batch": geometric_batch,
        "max_geometric_batch": max_geometric_batch,
        "trajectory_batch": trajectory_batch,
    }


_BACKENDS: dict[bool, SimpleNamespace] = {}


def get_backend(jit: bool) -> SimpleNamespace:
    """Build (once) and return the requested backend."""
    if jit and not _HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is not importable")
    if jit not in _BACKENDS:
        backend = _build_backend(jit)
        if not jit:
            arrays = _array_entries(backend)
            for name, kernel in list(vars(backend).items()):
                if name.endswith("_batch"):
                    setattr(backend, name, arrays.get(name) or _buffered(kernel))
        _BACKENDS[jit] = backend
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
    trajectory_fill(gen, np.empty(1001, dtype=np.int64), cs, 5, 1000)
    geometric_batch(gen, 0.5, out_i)
    max_geometric_batch(gen, 10, 0.5, out_i)
    extinction_batch(gen, out_i, cs, 5, 1000)
    single_drop_batch(gen, out_b, cs, 5)
    first_passage_batch(gen, 3, 0.3, out_i, out_c)
    first_passage_stepped_batch(gen, 3, 0.3, 10**6, out_i, out_c)
