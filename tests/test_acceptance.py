"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a pass/fail line with its runtime.  Runtime caps are
asserted on the JIT backend only (the pure-Python fallback is a
correctness path, not a performance path).

Criterion 3 checks the law tau_n / d_n -> 1 in probability at c = 0.1.
Its first contracted form -- fewer than 1% of draws with
|tau/d_n - 1| > 0.1 at the single scale n = 10^6 -- asks for a rate the
law does not have: the exact exceedance probability there, computed from
the extinction CDF, is 0.2456.  It is still 0.0265 at n = 2^53, the
largest count the samplers accept, and first drops below 0.01 between
n = 10^20 (0.0108) and 10^21 (0.0086).  The maximum of n geometrics
fluctuates by O(1) time steps around d_n with a Gumbel-type law, so the
spread of the ratio shrinks only like 1/ln n.  The criterion therefore
keeps both contracted numbers where the law can meet them: eps = 0.1 is
checked against the exact exceedance probability on a ladder of n, and
the 0.01 level is checked at the spread 5/ln n the law actually has.

Criteria 4 and 5 each check a family of Monte Carlo rows, 12 and 18 of
them with a probability strictly between 0 and 1.  Each family is held to
a 1% family-wise level (``gof.family_misses``: Bonferroni over those rows),
so a correct sampler fails it on about one seed in a hundred; at a 99%
level per row, criterion 5 would fail on about one seed in six.  A row
whose probability is 1 must show every run.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
from click.testing import CliRunner

import deathlab as dl
from deathlab import kernels
from deathlab.cli import main as cli_main
from deathlab.analytics import exceedance_probability
from gof import family_misses

SEED = 20250809
# Stream ids are distinct across criteria, so no two criteria share draws:
# 2-8 (criteria 2 and 3), 70-72 (7, 8), 80 (9), 400-442 (4), 501-530 (5).
RUNTIME_ENFORCED = kernels.BACKEND == "numba"


@contextmanager
def criterion(number, label, budget_s):
    state = {"passed": False}
    start = time.perf_counter()
    try:
        yield state
        state["passed"] = True
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if state["passed"] else "FAIL"
        print(f"ACCEPTANCE {number:>2}: {verdict}  ({elapsed:6.2f}s / {budget_s}s)  {label}")
        state["elapsed"] = elapsed
    if RUNTIME_ENFORCED:
        assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_01_extinction_law_dp_grid():
    with criterion(1, "extinction CDF equals DP mass at 0 on the full grid", 5):
        for c in (0.05, 0.1, 0.3, 0.5, 0.9):
            for n in range(1, 21):
                curve = dl.exact_extinction_curve(n, dl.Constant(c), 60)
                closed = np.array([dl.extinction_cdf(n, c, t) for t in range(61)])
                worst = float(np.max(np.abs(curve - closed)))
                assert worst <= 1e-12, f"n={n}, c={c}: max deviation {worst}"


def test_criterion_02_max_of_geometrics_identity():
    with criterion(2, "extinction times match max-of-geometrics (two-sample KS)", 10):
        m = 10**4
        ext = dl.extinction_time_batch(50, dl.Constant(0.2), dl.make_stream(SEED, 2), m)
        maxg = dl.sample_max_geometric_batch(dl.make_stream(SEED, 3), 50, 0.2, m)
        dist = dl.ks_two_sample(ext, maxg)
        crit = dl.ks_two_sample_critical(m, m, 0.01)
        assert dist < crit, f"KS {dist:.5f} >= critical {crit:.5f}"


def test_criterion_03_ratio_law_exceedance():
    """tau_n / d_n -> 1 in probability at c = 0.1, checked on a ladder of n.

    (a) At eps = 0.1 the sampled exceedance fraction agrees with the exact
    P(|tau/d_n - 1| > 0.1) at every rung (99% Wilson interval), and it
    falls strictly as n grows: exact 0.534, 0.246, 0.123, 0.064, 0.033.

    (b) Fewer than 1% of draws have |tau/d_n - 1| > 5/ln n at every rung
    (exact 0.0067-0.0072).  This part rests on the extreme-value limit of
    the geometric maximum (Anderson 1970): (tau - d_n) |ln(1-c)| is
    asymptotically Gumbel, so tau/d_n - 1 scales like G / ln n and the
    exceedance tends to 1 - exp(-e^-5) ~= 0.0067; 5 is the smallest integer
    spread whose limit lies below 0.01 (spread 4 gives 0.018).
    """
    with criterion(3, "tau/d_n -> 1: eps=0.1 on the n ladder, < 0.01 at spread 5/ln n", 5):
        c, m = 0.1, 10**4
        # n -> stream id; stream 4 is the n = 10^6 rung the companion test shares
        ladder = {10**3: 5, 10**6: 4, 10**9: 6, 10**12: 7, 10**15: 8}
        rows = []  # (n, exceed count at eps=0.1, its exact law, spread fraction, its exact law)
        for n, stream_id in ladder.items():
            d = dl.typical_extinction_time(n, c)
            draws = dl.sample_max_geometric_batch(dl.make_stream(SEED, stream_id), n, c, m)
            deviation = np.abs(draws / d - 1.0)
            spread = 5.0 / math.log(n)
            rows.append(
                (
                    n,
                    int(np.count_nonzero(deviation > 0.1)),
                    exceedance_probability(n, c, 0.1),
                    float(np.mean(deviation > spread)),
                    exceedance_probability(n, c, spread),
                )
            )
        table = "\n".join(
            f"  n=1e{round(math.log10(n))}: eps=0.1 exact {p:.4f} observed {k / m:.4f}; "
            f"spread 5/ln n exact {p_spread:.4f} observed {f_spread:.4f}"
            for n, k, p, f_spread, p_spread in rows
        )
        for n, k, p, f_spread, _ in rows:
            low, high = dl.wilson_interval(k, m, 0.99)
            assert low <= p <= high, f"n={n}: eps=0.1 fraction disagrees with the law\n{table}"
            assert f_spread < 0.01, f"n={n}: fraction beyond 5/ln n is not below 0.01\n{table}"
        counts = [k for _, k, _, _, _ in rows]
        assert all(b < a for a, b in zip(counts, counts[1:])), (
            f"eps=0.1 fractions do not fall along the ladder\n{table}"
        )


def test_criterion_03_sample_agrees_with_exact_law():
    # the mathematically sound version of the same experiment: the sample
    # exceedance matches the exact probability computed from the CDF
    n, c, m = 10**6, 0.1, 10**4
    d = dl.typical_extinction_time(n, c)
    draws = dl.sample_max_geometric_batch(dl.make_stream(SEED, 4), n, c, m)
    exceed = int(np.count_nonzero(np.abs(draws / d - 1.0) > 0.1))
    low, high = dl.wilson_interval(exceed, m, 0.99)
    assert low <= exceedance_probability(n, c, 0.1) <= high


def test_criterion_04_first_drop_triple_agreement():
    with criterion(4, "single-drop prob: closed = oracle = Monte Carlo on the grid", 60):
        rows = {}
        for i, k in enumerate((1, 2, 3, 5, 10)):
            for j, c in enumerate((0.1, 0.3, 0.5)):
                closed = dl.single_drop_prob(k, c)
                oracle = float(dl.exact_jump_law(k, c)[0])
                assert abs(closed - oracle) <= 1e-12, (k, c)
                _, codes = dl.first_passage_batch(
                    k, dl.Constant(c), dl.make_stream(SEED, 400 + 10 * i + j), 10**5
                )
                rows[f"k={k}, c={c}"] = (int(np.count_nonzero(codes == kernels.FINITE)), closed)
        misses = family_misses(rows, 10**5)
        assert not misses, "\n".join(misses)


def test_criterion_05_single_drop_path_and_bounds():
    with criterion(5, "single-drop path prob, bounds, and joint-regime sweep", 90):
        rows = {}
        for i, c in enumerate((0.05, 0.1)):
            for n in range(1, 11):
                closed = dl.single_drop_path_prob(n, [c] * n)
                oracle = dl.exact_single_drop_path_prob(n, dl.Constant(c))
                assert abs(closed - oracle) <= 1e-12, (n, c)
                assert dl.path_prob_lower_bound_constant(n, c) <= closed + 1e-15
                flags = dl.single_drop_batch(
                    n, dl.Constant(c), dl.make_stream(SEED, 500 + 20 * i + n), 10**5
                )
                rows[f"n={n}, c={c}"] = (int(np.count_nonzero(flags)), closed)
        misses = family_misses(rows, 10**5)
        assert not misses, "\n".join(misses)
        # state- and joint-dependent bounds stay below their exact values
        for n in range(1, 11):
            state_mort = [0.5 * k**-3.0 for k in range(1, n + 1)]
            assert dl.path_prob_lower_bound_state(n, state_mort) <= dl.single_drop_path_prob(
                n, state_mort
            ) + 1e-15
            if n >= 2:
                joint_mort = [k / n**4 for k in range(1, n + 1)]
                assert dl.path_prob_lower_bound_joint(n, 1.0, 4.0) <= dl.single_drop_path_prob(
                    n, joint_mort
                ) + 1e-15
        sweep = [dl.path_prob_lower_bound_joint(n, 1.0, 4.0) for n in (10, 100, 1000, 10**4)]
        assert all(b > a for a, b in zip(sweep, sweep[1:])), sweep
        assert sweep[-1] > 0.995, sweep[-1]


def test_criterion_06_mgf_identities():
    with criterion(6, "passage MGF identities against the series oracle", 5):
        for k in (1, 2, 3, 5, 10):
            for c in (0.1, 0.3, 0.5):
                mass = dl.passage_mgf(k, c, 0.0)
                assert abs(mass - dl.single_drop_prob(k, c)) <= 1e-12, (k, c)
                s_mid = 0.5 * dl.passage_mgf_domain(k, c)
                assert abs(
                    dl.passage_mgf(k, c, s_mid) - dl.mgf_by_summation(k, c, s_mid, tol=1e-13)
                ) <= 1e-12, (k, c, "mid")
                s_edge = 0.99 * dl.passage_mgf_domain(k, c)
                assert abs(
                    dl.passage_mgf(k, c, s_edge) - dl.mgf_by_summation(k, c, s_edge, tol=1e-10)
                ) <= 1e-9, (k, c, "edge")


def test_criterion_07_exponential_limit_initial_scaling():
    with criterion(7, "scaled passage times converge to Exp(k*lam), lam=1, n=10^4", 60):
        regime = dl.InitialPower(1.0, 1.0)  # c_n = 1/n, so a_n = lam/c_n = n
        for i, k in enumerate((1, 3)):
            batch = dl.scaled_passage_batch(
                k, 10**4, regime, 2 * 10**4, dl.make_stream(SEED, 70 + i), lam=1.0
            )
            rate = dl.limit_passage_rate(regime, k, lam=1.0)
            summary = dl.SampleSummary.from_samples(batch.scaled_times)
            dist = dl.ks_statistic(summary, lambda x, r=rate: -np.expm1(-r * np.asarray(x)))
            crit = dl.ks_critical_value(batch.scaled_times.size, 0.01)
            assert crit <= 1.628 / math.sqrt(2 * 10**4) * 1.01  # the stated 0.0115
            assert dist < crit, f"k={k}: KS {dist:.5f} >= {crit:.5f}"


def test_criterion_08_exponential_limit_joint_scaling():
    with criterion(8, "scaled passage times converge to Exp(4), alpha=1, beta=3, n=10^3", 120):
        regime = dl.JointPower(1.0, 3.0)
        k, n, m = 2, 10**3, 2 * 10**4
        batch = dl.scaled_passage_batch(k, n, regime, m, dl.make_stream(SEED, 72))
        assert batch.a_n == float(n) ** 3
        rate = dl.limit_passage_rate(regime, k)
        assert rate == 4.0
        summary = dl.SampleSummary.from_samples(batch.scaled_times)
        dist = dl.ks_statistic(summary, lambda x: -np.expm1(-rate * np.asarray(x)))
        crit = dl.ks_critical_value(batch.scaled_times.size, 0.01)
        assert dist < crit, f"KS {dist:.5f} >= {crit:.5f}"
        c_kn = dl.mortality(regime, k, n)
        low, high = dl.wilson_interval(batch.finite_count, m, 0.99)
        assert low <= dl.single_drop_prob(k, c_kn) <= high


def test_criterion_09_implosion_moments_and_sweep():
    with criterion(9, "implosion time moments and truncation sweep, alpha=1, K=10^4", 60):
        alpha, K, runs = 1.0, 10**4, 10**5
        levels = [10, 100, 1000, 10**4]
        totals, (_, means) = dl.implosion_batch(alpha, K, runs, dl.make_stream(SEED, 80), workers=4, levels=levels)
        partial, _ = dl.implosion_expected_time(alpha, K)
        se_mean = float(totals.std(ddof=1)) / math.sqrt(runs)
        assert abs(float(totals.mean()) - partial) <= 3 * se_mean
        var_expected, _ = dl.implosion_expected_time(2 * alpha + 1, K)  # sum k^-4
        sample_var = float(totals.var(ddof=1))
        m4 = float(np.mean((totals - totals.mean()) ** 4))
        se_var = math.sqrt(max(m4 - sample_var**2 * (runs - 3) / (runs - 1), 0.0) / runs)
        assert abs(sample_var - var_expected) <= 3 * se_var
        # the sweep levels are read off the same runs
        sweep = dl.implosion_truncation_sweep(alpha, levels, means, runs)
        assert [row.runs for row in sweep] == [runs] * len(levels)
        # partial-sum differences sit inside the smaller level's tail bound,
        # and the runs' paired gaps track them within the law's standard
        # error of the stages between the two levels
        for small, big in zip(sweep, sweep[1:]):
            gap = big.partial_sum - small.partial_sum
            assert 0 < gap <= 1.0 / small.K
            assert abs(big.gap_mean - gap) <= 3 * big.gap_stderr, (small.K, big.K)


def test_criterion_10_verify_determinism_across_workers(tmp_path):
    with criterion(10, "cmd_verify byte-identical across runs and workers {1,4,8}", 120):
        runner = CliRunner()
        blobs = {}
        for workers in (1, 4, 8):
            out = tmp_path / f"verify_w{workers}.json"
            result = runner.invoke(
                cli_main,
                ["verify", "--seed", "0", "--workers", str(workers), "--out", str(out)],
                catch_exceptions=False,
            )
            assert result.exit_code == 0, result.output
            blobs[workers] = out.read_bytes()
        assert blobs[1] == blobs[4] == blobs[8]
        rerun = tmp_path / "verify_rerun.json"
        result = runner.invoke(
            cli_main,
            ["verify", "--seed", "0", "--workers", "1", "--out", str(rerun)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        assert rerun.read_bytes() == blobs[1]
        payload = json.loads(blobs[1])
        assert payload["pass"] is True
        assert payload["meta"]["seed"] == 0
