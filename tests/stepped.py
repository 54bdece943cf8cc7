"""Stepping references for the law tests of the jump-chain kernels.

Each function steps the raw process one time step at a time, drawing a
Binomial(k, c_k) batch of deaths per step with ``kernels.binomial_draw``:
the per-step loops the extinction, trajectory and single-drop kernels ran
before they moved to one exact core per level visited.  They are slow on
purpose, and they share no code with those cores except the binomial draw.
"""

from __future__ import annotations

from deathlab import kernels


def extinction_time(gen, cs, n, t_max):
    """First hitting time of 0 from n, or -1 when censored at t_max."""
    last = cs.shape[0] - 1
    k, t = n, 0
    while k > 0 and t < t_max:
        k -= kernels.binomial_draw(gen, k, float(cs[min(k, last)]))
        t += 1
    return t if k == 0 else -1


def trajectory_fill(gen, out, cs, n, t_max):
    """Write the path into out (out[0] = n); return the extinction index or -1.

    Like the kernel, a censored path fills out up to index t_max.
    """
    last = cs.shape[0] - 1
    out[0] = n
    k, t = n, 0
    while k > 0 and t < t_max:
        k -= kernels.binomial_draw(gen, k, float(cs[min(k, last)]))
        t += 1
        out[t] = k
    return t if k == 0 else -1


def single_drop(gen, cs, n):
    """True iff the stepped path never loses two or more in one step."""
    last = cs.shape[0] - 1
    k = n
    while k > 0:
        d = kernels.binomial_draw(gen, k, float(cs[min(k, last)]))
        if d > 1:
            return False
        k -= d
    return True
