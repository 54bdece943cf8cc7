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

All samplers here are exact.  The binomial draw counts in p = min(c, 1-c)
the way the chain moves: a departure, one uniform u below 1-(1-p)^x, and
then the landing walk below on that same u; where x*p passes
``_WALK_MAX`` it takes the transformed-rejection method of Hormann (1993)
instead.  The cutover affects speed only, never the distribution.

The process kernels simulate the chain one level at a time, not one time
step at a time.  Given the state k the chain is time-homogeneous: it stays
at k for a Geometric(1-(1-c)^k) number of steps, independent of where it
lands, and the landing follows the departure jump law, Binomial(k, c)
deaths conditioned on at least one.  One landing draw serves the
extinction walk: the landing walk inverts the conditional pmf from one
death upward while it is expected to take at most ``_WALK_MAX`` = 14
steps, and zero-death binomial draws are rejected above that.  A lone
individual and certain death land at 0 without a draw; certain death
holds one step, on a uniform of its own.  A level costs about two
uniforms, however long the chain holds there.  These landing rules are
stated once, in ``_level_constants(k, c)``: the level's constants and
what its landing draws, which every kernel of both builds reads (the
Python build's ``_level_table`` is that function over the levels of a
round).

``extinction_batch`` is the one walk of the chain, round-major: each round
draws the hold of every live run, in run order, and censors a run whose
hold outlasts ``t_max``; then one landing uniform for each departing run
whose level walks the pmf, in run order; then the rejection landings, by
run index.  With ``record`` it also returns the paths, on the same draws,
as pieces (run, state, steps) in time order per run: each hold, cut at
``t_max``; state 0 for one step at extinction; and the state a run lands
at at ``t_max``, for one step.  The scalar source writes them to an int64
buffer that doubles when full; without ``record`` the pieces are empty.
``trajectory_fill``, outside both builds, is one recorded run of it.

``single_drop_batch`` and ``first_passage_batch`` only ask whether a
departure kills exactly one, and never draw the landing: at every level
that draws, one uniform u answers, by the landing walk's first test,
u (1-(1-c)^k) <= k c (1-c)^(k-1), which holds with chance P(one death |
a departure) whether the full landing would walk or reject
(``_single_death``).  So rejection serves ``extinction_batch`` alone.
``single_drop_batch`` walks the jump chain alone, level-major like
``extinction_batch``: at each level n, n-1, ..., 2 every run still
dropping one at a time takes that level's test, in run order, and a run
that fails drops out.  Certain death fails every live run without a
draw, and no run draws at state 1.  ``first_passage_batch`` draws every
sample's hold in order, then every sample's test in order: two uniforms
a sample at a level that draws.  Both take a level's constants once per
level or batch.

Each build exports ``binomial_draw`` (the primitive of ``process.step``
and of the stepping references in the tests) and the six ``*_batch``
entry points; the draws behind the batches are private.  The numba build
compiles the shared scalar source of every batch; where numba is not
installed, no test checks that source's numba typing.  In the Python
build ``binomial_draw`` is its scalar source, called on the generator.
The six batch entry points are array code: each keeps its source as
``__wrapped__``, draws the same doubles in the same order and, on a call
that completes, leaves the generator where the source's own
``gen.random()`` calls would, so every report, stream position, uniform
count and recorded path is the source's.  A call that raises may stop
elsewhere: ``first_passage_stepped_batch`` writes a round's samples as
one slice, so where the source fails mid-round the array entry has drawn
the whole round.

- They take the uniforms of a round, or of the whole batch, as
  ``gen.random(size)`` blocks and do the arithmetic in numpy with the
  source's own float operations.  The pmf walk runs on the levels of a
  round: each level's running sums once, and for each run the number of
  them its target passes.  numpy's ``log``, ``log1p``, ``expm1`` and
  ``exp`` are not libm's and differ in the last bit on a few percent of
  inputs, so a level's constants come from ``math`` once per level and
  batch, and ``max_geometric_batch`` maps ``math``'s logarithms and
  ``expm1`` over a list.  ``extinction_batch`` reads them from a table of
  every state, indexed by state, where n is at most 4 runs; from a larger
  n it takes each round's levels with ``np.unique`` and computes theirs.
  A hold takes numpy's ``log1p`` and recomputes with ``math.log1p`` only
  where the floor could differ: x = log1p(-u) / lq within 2^-40 relative
  of an integer, at least 2^40, or infinite.  Temporaries are O(live
  runs), O(one block) or the table, so never O(n) at a huge n.
- Rejection landings, which take a varying number of uniforms, run the
  scalar binomial draw on the generator's doubles, taken in blocks of one
  per landing still to draw.  Every landing takes at least one, the one
  being drawn included, so no block runs past the doubles the draws
  consume and the generator never needs rewinding.
- ``first_passage_stepped_batch`` takes the same care at a level whose
  step walks: each round draws one step per sample still to draw, counts
  each step's deaths with the walk, and cuts the steps into samples at
  each departure and after ``t_max`` steps without one, carrying a sample
  under way into the next round.  A level whose step runs transformed
  rejection, draws nothing or takes no step calls the scalar source.
- ``single_drop_batch`` and ``first_passage_batch`` share one step, the
  single-death tests of a level's departures as one block of uniforms.
  ``extinction_batch`` joins the recorded pieces once at the end; their
  order across runs may differ from the source's, their order within a
  run does not.
"""

from __future__ import annotations

import functools
import itertools
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

# Longest expected pmf walk of a landing, and of binomial_draw's walk;
# longer walks give way to rejection.
_WALK_MAX = 14.0

# what a departure from a level draws for its landing
_NO_DRAW, _WALKS, _REJECTS = 0, 1, 2

# the most steps one drawn hold or maximum of geometrics can take; the
# number stays an exact float and an int64
HOLD_CAP = 4.6e18

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


def _level_constants(k, c):
    """The landing rules of state k at mortality c in (0, 1], stated once
    for every kernel: lq = ln (1-c)^k, the departure chance total =
    1-(1-c)^k, the single-death chance mass = k c (1-c)^(k-1), ratio =
    c/(1-c), and what a landing draws.  Certain death holds one step (lq =
    -inf) and lands at 0 without a draw, as a lone individual does; any
    other level walks the pmf unless that walk would be long, and rejects
    there."""
    if c >= 1.0:
        return -math.inf, 1.0, 0.0, 0.0, _NO_DRAW
    lq = k * math.log1p(-c)
    total = -math.expm1(lq)
    ratio = c / (1.0 - c)
    kind = _WALKS
    if k == 1:
        kind = _NO_DRAW
    elif k * c > _WALK_MAX * total:
        kind = _REJECTS
    return lq, total, k * ratio * math.exp(lq), ratio, kind


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
            if us == 0.0:
                # u = -0.5, from a uniform of 0, lies outside the method's
                # open domain
                continue
            kf = math.floor((2.0 * a / us + b) * u + c)
            if kf < 0.0 or kf > nf:
                continue
            if us >= 0.07 and v <= v_r:
                return int(kf)
            v2 = math.log(v * alpha / (a / (us * us) + b)) if v > 0.0 else -math.inf
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

    _level = wrap(_level_constants)

    @wrap
    def _landing(u, k, mass, ratio):
        # the pmf walk from one death upward, with mass = P(one death) and
        # ratio = c/(1-c): the least b with u <= P(1 <= deaths <= b), at
        # most k
        b = 1
        acc = mass
        while u > acc and b < k:
            mass *= ratio * (k - b) / (b + 1.0)
            b += 1
            acc += mass
        return b

    @wrap
    def _thin(u, x, c, total, mass, ratio):
        # the walk branch of binomial_draw on its one uniform u, with the
        # constants of _level(x, p) at p = min(c, 1-c): the count in p is
        # 0 at u >= total, else the landing walk on u; x minus it at c > 1/2
        k = 0 if u >= total else _landing(u, x, mass, ratio)
        return x - k if c > 0.5 else k

    @wrap
    def binomial_draw(gen, x, c):
        # exact Binomial(x, c) deviate for x >= 0, 0 <= c <= 1, counted in
        # p = min(c, 1-c): a departure, u < 1-(1-p)^x, then the landing
        # walk on u while it is short, rejection beyond
        if x == 0 or c <= 0.0:
            return 0
        if c >= 1.0:
            return x
        p = min(c, 1.0 - c)
        if x * p > _WALK_MAX:
            k = _binomial_btrs(gen, x, p)
            return x - k if c > 0.5 else k
        _, total, mass, ratio, _ = _level(x, p)
        return _thin(gen.random(), x, c, total, mass, ratio)

    @wrap
    def _hold(gen, lq):
        # Geometric holding time on {1,2,...} with stay chance e^lq < 1 per
        # step, by inversion; lq = k ln(1-c).  A float, capped at HOLD_CAP.
        x = math.log1p(-gen.random()) / lq
        if x >= HOLD_CAP:
            return HOLD_CAP
        return math.floor(x) + 1.0

    @wrap
    def _conditional_deaths(gen, k, c, level):
        # deaths in a departure from k by the jump law, Binomial(k, c)
        # conditioned on >= 1, with level = _level(k, c)
        _, total, mass, ratio, kind = level
        if kind == _NO_DRAW:
            return k
        if kind == _REJECTS:
            # the walk would be long: rejection on the raw binomial,
            # which departs with chance total, close to 1 here
            while True:
                d = binomial_draw(gen, k, c)
                if d >= 1:
                    return d
        # the landing walk on a departure's u; it takes k*c / total steps
        # on average, and lands on one death exactly when its first test,
        # u <= mass, holds
        return _landing(gen.random() * total, k, mass, ratio)

    @wrap
    def _single_death(gen, k, level):
        # whether a departure from k, with level = _level(k, c), kills
        # exactly one: certain death and a lone individual land without a
        # draw, and elsewhere the landing walk's first test on one uniform
        # holds with chance mass/total, P(one death | a departure), whether
        # the full landing would walk or reject.  At a huge k, mass
        # underflows to 0 and no test holds; the exact chance there is
        # below 1e-300.
        _, total, mass, _, kind = level
        if kind == _NO_DRAW:
            return k == 1
        return gen.random() * total <= mass

    @wrap
    def geometric_batch(gen, c, out):
        # Geometric on {1,2,...} with P(t) = (1-c)^(t-1) c, by inversion:
        # the hold of a lone individual
        lq = _level(1, c)[0]
        for i in range(out.shape[0]):
            out[i] = int(_hold(gen, lq))

    @wrap
    def max_geometric_batch(gen, n, c, out):
        # max of n iid Geometric(c): invert CDF (1-(1-c)^t)^n in log space
        lq = _level(1, c)[0]
        for i in range(out.shape[0]):
            tf = 1.0
            u = gen.random()
            if u > 0.0:
                z = math.expm1(math.log(u) / n)  # u^(1/n) - 1, stays accurate for huge n
                tf = math.ceil(math.log(-z) / lq)
                if tf < 1.0:
                    tf = 1.0
                elif tf > HOLD_CAP:
                    tf = HOLD_CAP
            out[i] = int(tf)

    @wrap
    def _put(pieces, used, run, state, steps):
        # append the piece (run, state, steps) to the flat buffer, which
        # doubles when full; returns the buffer
        if 3 * used == pieces.shape[0]:
            grown = np.empty(2 * pieces.shape[0], dtype=np.int64)
            grown[: pieces.shape[0]] = pieces
            pieces = grown
        pieces[3 * used] = run
        pieces[3 * used + 1] = state
        pieces[3 * used + 2] = steps
        return pieces

    @wrap
    def extinction_batch(gen, out, cs, n, t_max, record=False):
        # First hitting times of 0 from n, -1 when censored at t_max, drawn
        # round-major: each round draws the hold of every live run, in run
        # order, and censors a run whose hold outlasts t_max; then one
        # landing uniform for each departing run whose level walks the pmf,
        # in run order; then the rejection landings, by run index.  With
        # record, also
        # the paths, as pieces (run, state, steps) in time order per run:
        # each hold, cut at t_max; state 0 once at extinction; and the
        # state a run lands at at t_max.
        m = out.shape[0]
        last = cs.shape[0] - 1
        ks = np.full(m, n, dtype=np.int64)  # 0 once extinct or censored
        ts = np.zeros(m, dtype=np.int64)
        lands = np.zeros(m, dtype=np.int64)  # this round: 1 walks or needs no draw, 2 rejects
        pieces = np.empty(48 if record else 0, dtype=np.int64)
        used = 0
        out[:] = 0 if n == 0 else -1
        live = m if n > 0 and t_max > 0 else 0
        while live > 0:
            for i in range(m):
                lands[i] = 0
                k = int(ks[i])
                if k > 0:
                    level = _level(k, float(cs[min(k, last)]))
                    hold = int(_hold(gen, level[0]))
                    if record:
                        pieces = _put(pieces, used, i, k, min(hold, t_max + 1 - ts[i]))
                        used += 1
                    if hold > t_max - ts[i]:
                        ks[i] = 0
                        live -= 1
                    else:
                        ts[i] += hold
                        lands[i] = 2 if level[4] == _REJECTS else 1
            for branch in (1, 2):
                for i in range(m):
                    if lands[i] == branch:
                        k = int(ks[i])
                        c = float(cs[min(k, last)])
                        k -= _conditional_deaths(gen, k, c, _level(k, c))
                        ks[i] = k
                        if k == 0:
                            out[i] = ts[i]
                            live -= 1
                        elif ts[i] >= t_max:
                            ks[i] = 0
                            live -= 1
                        if record and (k == 0 or ts[i] >= t_max):
                            pieces = _put(pieces, used, i, k, 1)
                            used += 1
        return pieces[0 : 3 * used : 3], pieces[1 : 3 * used : 3], pieces[2 : 3 * used : 3]

    @wrap
    def single_drop_batch(gen, out, cs, n):
        # 1 where the jump chain from n loses exactly one individual per
        # departure, drawn level-major: at each level k = n, ..., 2 every
        # run still dropping one at a time takes the level's single-death
        # test, in run order, and a run that fails drops out.  Holding times
        # do not matter, and state 1 can only drop to 0.
        out[:] = 0
        last = cs.shape[0] - 1
        live = np.arange(out.shape[0])  # the runs still in, in live[:count]
        count = live.shape[0]
        for k in range(n, 1, -1):
            if count == 0:
                return
            level = _level(k, float(cs[min(k, last)]))
            kept = 0
            for j in range(count):
                if _single_death(gen, k, level):
                    live[kept] = live[j]
                    kept += 1
            count = kept
        out[live[:count]] = 1

    @wrap
    def first_passage_batch(gen, k, c, out_j, out_code):
        # The first departure from state k: every sample's hold,
        # Geometric(1-(1-c)^k), in order, then whether each departure kills
        # exactly one, in order.
        level = _level(k, c)
        for i in range(out_j.shape[0]):
            out_j[i] = int(_hold(gen, level[0]))
        for i in range(out_j.shape[0]):
            out_code[i] = FINITE if _single_death(gen, k, level) else JUMPED_OVER

    @wrap
    def first_passage_stepped_batch(gen, k, c, t_max, out_j, out_code):
        # reference implementation: step the raw process until it leaves k,
        # censored after t_max steps.  Each step is binomial_draw(gen, k, c);
        # where that walks, the level's constants come once per batch.
        p = min(c, 1.0 - c)
        walks = k > 0 and 0.0 < c < 1.0 and k * p <= _WALK_MAX
        _, total, mass, ratio, _ = _level(k, p)
        for i in range(out_j.shape[0]):
            t = 0
            code = CENSORED
            while True:
                t += 1
                if walks:
                    d = _thin(gen.random(), k, c, total, mass, ratio)
                else:
                    d = binomial_draw(gen, k, c)
                if d >= 1:
                    code = FINITE if d == 1 else JUMPED_OVER
                    break
                if t >= t_max:
                    t = t_max
                    break
            out_j[i] = t
            out_code[i] = code

    return SimpleNamespace(
        name="numba" if jit else "python",
        binomial_draw=binomial_draw,
        geometric_batch=geometric_batch,
        max_geometric_batch=max_geometric_batch,
        extinction_batch=extinction_batch,
        single_drop_batch=single_drop_batch,
        first_passage_batch=first_passage_batch,
        first_passage_stepped_batch=first_passage_stepped_batch,
    )


def _mapped(f, x):
    """``f`` of each entry of the float array ``x``, by ``math`` over a
    list, for the logarithms and ``expm1`` that must be libm's."""
    return np.fromiter(map(f, x.tolist()), np.float64, x.size)


# x (1 - 2^-40) and x (1 + 2^-40) bracket x far wider than numpy's log1p
# strays from libm's (an ulp); from x = 2^40 up they hold an integer
_BRACKET = np.array([[1.0 - 2.0**-40], [1.0 + 2.0**-40]])


def _holds(u, lq):
    """``int(_hold)`` for each uniform of the array ``u``, at ``lq`` (one
    value, or one per uniform).  x = log1p(-u) / lq comes from numpy's
    ``log1p``; where the bracket x (1 -+ 2^-40) holds no integer, libm's x
    has the same floor.  The rest, x near an integer, at or past
    ``HOLD_CAP`` or infinite, are recomputed with ``math.log1p``.  u = 0
    and lq = -inf give x = +0.0 either way: a hold of 1."""
    with np.errstate(over="ignore"):  # a hold past the cap may divide to inf
        x = np.log1p(-u) / lq
        lo, hi = np.floor(x * _BRACKET)
        hold = lo + 1.0
        near = np.flatnonzero(hold <= hi)  # inf <= inf: infinite x too
        if near.size:
            x = _mapped(math.log1p, -u[near]) / (lq[near] if np.ndim(lq) else lq)
            hold[near] = np.where(x >= HOLD_CAP, HOLD_CAP, np.floor(x) + 1.0)
    return hold.astype(np.int64)


def _walk(target, at, mass, ratio, k):
    """The pmf walk of the landing draw, run on levels: each run's target
    and index ``at`` into the levels' ``mass``, ``ratio`` and ``k``.  Each
    level's running sums acc_b, b = 1, 2, ..., come from the walk's own
    products, quotients and sums.  acc never falls (it adds masses >= 0,
    zeros past b = k), so the b where target > acc_b run from 1 up, and
    the scalar walk's deaths are 1 plus their number, at most k."""
    deaths = np.ones(target.size, dtype=np.int64)
    acc = mass
    last = int(k.max())
    for b in range(1, last):
        more = target > acc[at]
        if not more.any():
            break
        deaths += more
        mass = mass * (ratio * (k - b) / (b + 1.0))
        acc = acc + mass
    return np.minimum(deaths, k[at])


def _level_table(k, cs):
    """The levels that the runs at states ``k`` stand at: each run's index
    into them, and per level its state, c and the constants lq, total,
    mass, ratio and kind of ``_level_constants``."""
    last = cs.shape[0] - 1
    levels, at = np.unique(k, return_inverse=True)
    c = [float(cs[min(j, last)]) for j in levels.tolist()]
    columns = zip(*map(_level_constants, levels.tolist(), c))
    return (at, levels, np.array(c), *map(np.array, columns))


def _array_entries(py: SimpleNamespace) -> dict:
    """The Python build's array entry points: every ``*_batch``.

    Each draws what its scalar source (``__wrapped__``) draws, in the same
    order, but takes the uniforms of a round or a batch as
    ``gen.random(size)`` blocks and does the arithmetic on arrays.  Only
    the extinction walk's rejection landings, a varying number of uniforms
    each, run the scalar binomial draw, on blocks of one double per
    landing still to draw; the stepped reference at a level that does not
    walk is its scalar source.
    """
    draw = py.binomial_draw

    def rejections(gen, ks, cs):
        # the rejection branch of the landing draw, for each (k, c) in
        # order, on the generator's doubles in blocks of one per landing
        # still to draw: each takes at least one, the one being drawn too,
        # so no block runs past the last double the draws take
        out = []
        blocks = iter(lambda: gen.random(len(ks) - len(out)).tolist(), None)
        doubles = SimpleNamespace(random=itertools.chain.from_iterable(blocks).__next__)
        for k, c in zip(ks, cs):
            d = draw(doubles, k, c)
            while d < 1:
                d = draw(doubles, k, c)
            out.append(d)
        return out

    def single_deaths(gen, k, c, m):
        # _single_death for each of m departures from k at mortality c, in
        # order
        _, total, mass, _, kind = _level_constants(k, c)
        if kind == _NO_DRAW:
            return np.full(m, k == 1)
        return gen.random(m) * total <= mass

    @functools.wraps(py.extinction_batch)
    def extinction_batch(gen, out, cs, n, t_max, record=False):
        out[:] = 0 if n == 0 else -1
        run = np.arange(out.shape[0] if n > 0 and t_max > 0 else 0)  # live runs, in run order
        k = np.full(run.size, n, dtype=np.int64)
        t = np.zeros(run.size, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        pieces = [(empty, empty, empty)]  # (run, state, steps), in time order per run
        # every level's constants once per batch, indexed by state, where
        # that table is no longer than the batch; else the round's levels
        table = _level_table(np.arange(n + 1), cs)[1:] if run.size and n <= 4 * run.size else None
        while run.size:
            at, levels, c, lq, total, mass, ratio, kind = (k, *table) if table else _level_table(k, cs)
            # holds, then the departures that land by t_max
            hold = _holds(gen.random(run.size), lq[at])
            if record:
                pieces.append((run, k, np.minimum(hold, t_max - t + 1)))
            go = hold <= t_max - t
            run, k, t, at = run[go], k[go], t[go] + hold[go], at[go]
            deaths = k.copy()
            walks = np.flatnonzero(kind[at] == _WALKS)
            if walks.size:
                w = at[walks]
                deaths[walks] = _walk(gen.random(walks.size) * total[w], w, mass, ratio, levels)
            rejects = np.flatnonzero(kind[at] == _REJECTS)
            if rejects.size:
                deaths[rejects] = rejections(gen, k[rejects].tolist(), c[at[rejects]].tolist())
            k -= deaths
            gone = k == 0
            out[run[gone]] = t[gone]
            stay = ~gone & (t < t_max)
            if record:
                # extinct, or landed at t_max: one step at the new state
                end = ~stay
                pieces.append((run[end], k[end], np.ones(np.count_nonzero(end), dtype=np.int64)))
            run, k, t = run[stay], k[stay], t[stay]
        return tuple(map(np.concatenate, zip(*pieces)))

    @functools.wraps(py.single_drop_batch)
    def single_drop_batch(gen, out, cs, n):
        out[:] = 0
        last = cs.shape[0] - 1
        live = np.arange(out.shape[0])  # the runs still in, in run order
        for k in range(n, 1, -1):
            if not live.size:
                return
            live = live[single_deaths(gen, k, float(cs[min(k, last)]), live.size)]
        out[live] = 1

    @functools.wraps(py.first_passage_batch)
    def first_passage_batch(gen, k, c, out_j, out_code):
        m = out_j.shape[0]
        out_j[:] = _holds(gen.random(m), _level_constants(k, c)[0])
        out_code[:] = np.where(single_deaths(gen, k, c, m), FINITE, JUMPED_OVER)

    @functools.wraps(py.first_passage_stepped_batch)
    def first_passage_stepped_batch(gen, k, c, t_max, out_j, out_code):
        m, p = out_j.shape[0], min(c, 1.0 - c)
        if not (k > 0 and 0.0 < c < 1.0 and k * p <= _WALK_MAX and t_max > 0):
            # transformed rejection, no draw or no step: the scalar source
            return first_passage_stepped_batch.__wrapped__(gen, k, c, t_max, out_j, out_code)
        _, total, mass, ratio, _ = _level_constants(k, p)
        level = (np.array([mass]), np.array([ratio]), np.array([k]))
        done, carry = 0, 0  # carry: steps of the sample under way
        while done < m:
            # one step per sample still to draw: each takes one at least
            u = gen.random(m - done)
            count = np.zeros(u.size, dtype=np.int64)  # deaths counted in p, as _thin
            walks = np.flatnonzero(u < total)
            count[walks] = _walk(u[walks], np.zeros(walks.size, dtype=np.int64), *level)
            deaths = k - count if c > 0.5 else count
            # cut the steps into samples: at each departure, and after
            # t_max steps without one
            departs = np.flatnonzero(deaths >= 1)
            idle = np.diff(departs, prepend=-1) - 1  # steps before each departure
            idle[:1] += carry
            tail = u.size - 1 - departs[-1] if departs.size else carry + u.size
            censored = idle // t_max
            ends = np.cumsum(censored + 1) - 1  # each departure's sample
            size = (ends[-1] + 1 if ends.size else 0) + tail // t_max
            j = np.full(size, t_max, dtype=np.int64)
            code = np.full(size, CENSORED, dtype=np.int64)
            j[ends] = idle % t_max + 1
            code[ends] = np.where(deaths[departs] == 1, FINITE, JUMPED_OVER)
            out_j[done : done + size] = j
            out_code[done : done + size] = code
            done, carry = done + size, tail % t_max

    @functools.wraps(py.geometric_batch)
    def geometric_batch(gen, c, out):
        out[:] = _holds(gen.random(out.shape[0]), _level_constants(1, c)[0])

    @functools.wraps(py.max_geometric_batch)
    def max_geometric_batch(gen, n, c, out):
        u = gen.random(out.shape[0])
        drawn = u > 0.0  # u = 0 gives 1 without a logarithm
        log_u = _mapped(math.log, u[drawn])
        z = _mapped(math.expm1, log_u / float(n))  # u^(1/n) - 1
        tf = np.ceil(_mapped(math.log, -z) / _level_constants(1, c)[0])
        out[:] = 1
        out[drawn] = np.where(tf < 1.0, 1.0, np.minimum(tf, HOLD_CAP))

    return {
        "extinction_batch": extinction_batch,
        "single_drop_batch": single_drop_batch,
        "first_passage_batch": first_passage_batch,
        "first_passage_stepped_batch": first_passage_stepped_batch,
        "geometric_batch": geometric_batch,
        "max_geometric_batch": max_geometric_batch,
    }


_BACKENDS: dict[bool, SimpleNamespace] = {}


def get_backend(jit: bool) -> SimpleNamespace:
    """Build (once) and return the requested backend."""
    if jit and not _HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is not importable")
    if jit not in _BACKENDS:
        backend = _build_backend(jit)
        if not jit:
            vars(backend).update(_array_entries(backend))
        _BACKENDS[jit] = backend
    return _BACKENDS[jit]


_active = get_backend(_HAVE_NUMBA and not numba_disabled())

BACKEND = _active.name

# Every kernel of the active build is a module attribute, read at call
# time (``kernels.extinction_batch``), so the build is chosen in one place.
globals().update({name: kernel for name, kernel in vars(_active).items() if callable(kernel)})


def trajectory_fill(gen, out, cs, n, t_max):
    """One run of the active ``extinction_batch`` with its path recorded.

    Writes the path into ``out`` (``out[0] = n``, then the state at each
    step up to extinction or ``t_max``) and nothing past it; returns the
    extinction time, or -1 when censored at ``t_max``.
    """
    time = np.empty(1, dtype=np.int64)
    _, state, steps = extinction_batch(gen, time, cs, n, t_max, True)
    path = np.repeat(state, steps)
    out[0] = n
    out[: path.size] = path
    return int(time[0])


def warmup() -> None:
    """Trigger JIT compilation of every kernel on a throwaway stream."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    out_i = np.empty(2, dtype=np.int64)
    out_b = np.empty(2, dtype=np.uint8)
    out_c = np.empty(2, dtype=np.int64)
    cs = np.array([0.5, 0.5])
    binomial_draw(gen, 10, 0.3)
    geometric_batch(gen, 0.5, out_i)
    max_geometric_batch(gen, 10, 0.5, out_i)
    extinction_batch(gen, out_i, cs, 5, 1000)
    extinction_batch(gen, out_i, cs, 5, 1000, True)
    single_drop_batch(gen, out_b, cs, 5)
    first_passage_batch(gen, 3, 0.3, out_i, out_c)
    first_passage_stepped_batch(gen, 3, 0.3, 10**6, out_i, out_c)
