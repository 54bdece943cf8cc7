import math
import tracemalloc

import numpy as np
import pytest

from deathlab import (
    AnalyticsError,
    Constant,
    InitialPower,
    JointPower,
    implosion_batch,
    implosion_expected_time,
    implosion_truncation_sweep,
    ks_critical_value,
    ks_statistic,
    limit_passage_rate,
    make_stream,
    scaled_passage_batch,
    scaling_constant,
    wilson_interval,
)
from deathlab import limits
from deathlab._parallel import CHUNK_SIZE, run_chunked
from deathlab.analytics import implosion_cumulants
from deathlab.samplers import sample_exponential_batch
from deathlab.stats import SampleSummary


def exp_cdf(rate):
    return lambda x: -np.expm1(-rate * np.asarray(x, dtype=float))


def test_scaling_constant():
    regime = InitialPower(1.0, 1.0)
    assert scaling_constant(regime, 3, 10**4, lam=1.0) == pytest.approx(10**4)
    assert scaling_constant(regime, 3, 10**4, lam=2.0) == pytest.approx(2 * 10**4)
    assert scaling_constant(JointPower(1.0, 3.0), 2, 10**3) == 10**9
    with pytest.raises(AnalyticsError):
        scaling_constant(regime, 3, 10, lam=None)
    with pytest.raises(AnalyticsError):
        scaling_constant(Constant(0.3), 3, 10)


def test_scaled_passage_from_one_is_always_finite():
    batch = scaled_passage_batch(1, 10**4, InitialPower(1.0, 1.0), 10**4, make_stream(20, 0), lam=1.0)
    low, high = wilson_interval(batch.finite_count, 10**4, 0.99)
    assert low <= 1.0 <= high
    assert batch.finite_count == 10**4
    assert batch.scaled_times.size == 10**4
    assert np.all(batch.scaled_times > 0)


def test_scaled_passage_exponential_limit_initial_scaling():
    m = 10**4
    batch = scaled_passage_batch(3, 10**4, InitialPower(1.0, 1.0), m, make_stream(20, 1), lam=1.0)
    rate = limit_passage_rate(InitialPower(1.0, 1.0), 3, lam=1.0)
    assert rate == 3.0
    dist = ks_statistic(SampleSummary.from_samples(batch.scaled_times), exp_cdf(rate))
    assert dist < ks_critical_value(batch.scaled_times.size, 0.01)
    # empirical mean approaches 1/rate
    se = batch.scaled_times.std(ddof=1) / math.sqrt(batch.scaled_times.size)
    assert abs(batch.scaled_times.mean() - 1 / rate) < 4 * se


def test_scaled_passage_exponential_limit_joint_scaling():
    m = 10**4
    batch = scaled_passage_batch(2, 10**3, JointPower(1.0, 3.0), m, make_stream(20, 2))
    assert batch.a_n == 10**9
    dist = ks_statistic(SampleSummary.from_samples(batch.scaled_times), exp_cdf(4.0))
    assert dist < ks_critical_value(batch.scaled_times.size, 0.01)


def test_simulate_implosion_single_stage():
    # K=1 totals are a plain Exponential(1): unit mean and sd
    totals, _ = implosion_batch(1.0, 1, 10**5, make_stream(22, 50))
    assert abs(float(totals.mean()) - 1.0) < 3 / math.sqrt(10**5)


def test_implosion_batch_moments():
    # both standard errors from the law: Var T_K, and the sample variance's
    # own variance kappa4/n + 2 Var^2/(n-1)
    alpha, K, runs = 1.0, 1000, 2 * 10**4
    totals, (whole, _) = implosion_batch(alpha, K, runs, make_stream(22, 100))
    partial, _ = implosion_expected_time(alpha, K)
    variance, kappa4 = implosion_cumulants(alpha, K)
    assert variance == implosion_expected_time(2 * alpha + 1, K)[0]  # sum of rate^-2
    assert whole[0] == runs
    assert whole[1] == pytest.approx(totals.mean(), rel=1e-14)
    assert whole[2] / (runs - 1) == pytest.approx(totals.var(ddof=1), rel=1e-12)
    assert abs(whole[1] - partial) < 4 * math.sqrt(variance / runs)
    var_se = math.sqrt(kappa4 / runs + 2 * variance**2 / (runs - 1))
    assert abs(whole[2] / (runs - 1) - variance) < 4 * var_se


def test_implosion_errors():
    with pytest.raises(AnalyticsError):
        implosion_batch(0.0, 10, 100, make_stream(0, 0))
    with pytest.raises(AnalyticsError):
        implosion_batch(1.0, 0, 100, make_stream(0, 0))


def _sweep(alpha, K, levels, runs, rng, workers=1):
    _, (_, means) = implosion_batch(alpha, K, runs, rng, workers, levels=levels)
    return implosion_truncation_sweep(alpha, levels, means, runs)


def test_truncation_sweep_tracks_partial_sums():
    rows = _sweep(1.0, 1000, [10, 100, 1000], 5000, make_stream(23, 0))
    partials = [r.partial_sum for r in rows]
    assert all(b > a for a, b in zip(partials, partials[1:]))
    assert [r.runs for r in rows] == [5000] * 3
    for r in rows:
        assert r.stderr == math.sqrt(implosion_cumulants(1.0, r.K)[0] / 5000)
        assert abs(r.mean - r.partial_sum) < 4 * r.stderr
        assert r.tail_bound == pytest.approx(1.0 / r.K, rel=1e-12)
    assert rows[0].gap_mean is None and rows[0].gap_stderr is None
    for prev, r in zip(rows, rows[1:]):
        # a gap's stages k in (prev.K, r.K]: far tighter than the levels' own errors
        gap_variance = math.fsum(k**-4.0 for k in range(prev.K + 1, r.K + 1))
        assert r.gap_stderr == pytest.approx(math.sqrt(gap_variance / 5000), rel=1e-14)
        assert r.gap_mean == r.mean - prev.mean
        assert abs(r.gap_mean - (r.partial_sum - prev.partial_sum)) < 4 * r.gap_stderr
        assert r.gap_stderr < prev.stderr
    # faster stabilization at alpha = 2: smaller tail at equal K
    rows2 = _sweep(2.0, 100, [10, 100], 2000, make_stream(23, 1))
    assert rows2[0].tail_bound < rows[0].tail_bound


def test_sweep_levels_leave_the_totals_alone():
    plain, moments = implosion_batch(1.0, 300, 20000, make_stream(25, 0))
    assert moments[1] == []
    swept, _ = implosion_batch(1.0, 300, 20000, make_stream(25, 0), levels=[3, 30, 300])
    assert np.array_equal(plain, swept)
    below_k, _ = implosion_batch(1.0, 300, 20000, make_stream(25, 0), levels=[1, 299])
    assert np.array_equal(plain, below_k)


def test_level_means_match_a_reference_loop():
    alpha, K, levels, runs = 1.0, 40, [1, 5, 17, 40], 2 * CHUNK_SIZE + 7
    root = make_stream(25, 1)
    totals, (whole, means) = implosion_batch(alpha, K, runs, root, workers=2, levels=levels)
    # rebuild each run's stages chunk by chunk, level K first, on the same substreams
    rates = np.arange(K, 0, -1, dtype=np.float64) ** (alpha + 1.0)
    chunks = []
    for i, m in enumerate(_chunks(runs)):
        stream = root.substream(i)
        chunks.append(np.array([sample_exponential_batch(stream, float(rate), m) for rate in rates]))
    stages = np.concatenate(chunks, axis=1)
    assert np.array_equal(stages.sum(axis=0), totals)
    assert whole[0] == runs
    assert whole[1] == pytest.approx(totals.mean(), rel=1e-12)
    assert whole[2] / (runs - 1) == pytest.approx(totals.var(ddof=1), rel=1e-12)
    assert means[-1] == whole[1]  # the top level is K: the same sums
    for L, mean in zip(levels, means):
        assert mean == pytest.approx(stages[K - L :].sum(axis=0).mean(), rel=1e-12)  # the stages k <= L


def _chunks(runs):
    # a quarter of a batch under four full chunks, rounded up, else full chunks
    chunk = min(CHUNK_SIZE, math.ceil(runs / 4))
    return [chunk] * (runs // chunk) + ([runs % chunk] if runs % chunk else [])


def _stage_by_stage(alpha, K, runs, root, levels):
    """Reference for implosion_batch: chunk i of ``_chunks(runs)`` on
    substream i, one exponential call per stage, level K first; each chunk
    adds its stages one at a time from zero and sums its runs at each level
    and at K, and ``math.fsum`` adds each sum over the chunks.  A sweep
    level's prefix is the running sum before its stage."""
    rates = np.arange(K, 0, -1, dtype=np.float64) ** (alpha + 1.0)
    parts = []
    for i, m in enumerate(_chunks(runs)):
        stream = root.substream(i)
        totals = np.zeros(m)
        above = {}  # level -> the stages above it
        for j, rate in enumerate(rates):  # stage j is level K - j
            if K - j in levels:
                above[K - j] = totals.copy()
            totals += sample_exponential_batch(stream, float(rate), m)
        parts.append((totals, [float((totals - above[L]).sum()) for L in levels] + [float(totals.sum())]))
    *means, mean = [math.fsum(sums) / runs for sums in zip(*(p[1] for p in parts))]
    totals = np.concatenate([p[0] for p in parts])
    return totals, ((runs, mean, float(((totals - mean) ** 2).sum())), means)


@pytest.mark.parametrize("runs, lengths", [
    (1, [1]),
    (3, [1, 1, 1]),
    (2000, [500] * 4),  # verify's implosion
    (3 * CHUNK_SIZE + 11, [12291] * 3 + [12290]),
    (4 * CHUNK_SIZE, [CHUNK_SIZE] * 4),  # the implode benchmark: full chunks
    (10**5, [CHUNK_SIZE] * 6 + [1696]),
])
def test_blocked_stages_equal_one_call_per_stage(monkeypatch, runs, lengths):
    # chunks of 500 runs draw all 40 stages in one block, and levels 37, 20
    # and 3 cut inside it; a full chunk draws 4, and level 20 cuts between two
    alpha, K, levels = 1.0, 40, [3, 20, 37, 40]
    seen = []

    def recorded(root, total, task, *args):
        def chunk(stream, m):
            seen.append((stream.path[-1], m))
            return task(stream, m)
        return run_chunked(root, total, chunk, *args)

    monkeypatch.setattr(limits, "run_chunked", recorded)
    assert _chunks(runs) == lengths
    ref_totals, ref_moments = _stage_by_stage(alpha, K, runs, make_stream(25, 4), levels)
    for workers in (1, 2, 8):
        seen.clear()
        totals, moments = implosion_batch(alpha, K, runs, make_stream(25, 4), workers=workers, levels=levels)
        assert sorted(seen) == list(enumerate(lengths))
        assert np.array_equal(totals, ref_totals)
        assert moments == ref_moments


@pytest.mark.parametrize("runs, K, levels", [
    (1, 50, [1, 9, 40, 50]),  # one column of 50 stages, which numpy's axis-0 sum would add pairwise
    (12, 50, [1, 9, 40, 50]),  # chunks of 3 runs
    (3000, 43, [1, 3, 20, 43]),  # chunks of 750 in one block of 43 stages
    (CHUNK_SIZE, 37, [2, 9, 30]),  # chunks of 4096 in blocks of 8; levels 30, 9 and 2 cut inside one
])
def test_a_chunk_adds_its_stages_one_at_a_time(runs, K, levels):
    # numpy's axis-0 sum of two columns or more adds the rows in order
    totals, moments = implosion_batch(1.0, K, runs, make_stream(25, 7), levels=levels)
    ref_totals, ref_moments = _stage_by_stage(1.0, K, runs, make_stream(25, 7), levels)
    assert np.array_equal(totals, ref_totals)
    assert moments == ref_moments


@pytest.mark.parametrize("K, runs, levels", [(300, 2000, [1, 7, 150, 300]), (120, 3000, [2, 60, 119]),
                                             (40, 8000, [3, 21, 40])])
def test_the_totals_do_not_depend_on_the_block_size(monkeypatch, K, runs, levels):
    # chunks of 500 in blocks of 8, 32 and 131 stages, of 750 in 5, 21 and 87,
    # of 2000 in 4, 8 and 32
    results = []
    for block in (2**12, 2**14, 2**16):
        monkeypatch.setattr(limits, "STAGE_BLOCK", block)
        results.append(implosion_batch(1.0, K, runs, make_stream(25, 8), levels=levels))
    for totals, moments in results[1:]:
        assert np.array_equal(totals, results[0][0])
        assert moments == results[0][1]


def test_a_full_chunk_draws_into_one_reused_block():
    column = CHUNK_SIZE * 8  # bytes of one double per run
    tracemalloc.start()
    try:
        implosion_batch(1.0, 1000, 4 * CHUNK_SIZE, make_stream(25, 9), levels=(10, 100, 1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # in the last of four full chunks: the block of 4 stages, the running
    # sum and the stages above levels 100 and 10, the three earlier chunks'
    # totals, and less than half a column besides; a second block alive,
    # or a larger one, goes over
    assert peak < (4 + 3 + 3) * column + column // 2


def test_sweep_rows_do_not_depend_on_workers():
    rows = [_sweep(1.0, 500, [10, 100, 500], 3 * CHUNK_SIZE + 11, make_stream(25, 2), w) for w in (1, 2, 8)]
    assert rows[0] == rows[1] == rows[2]


@pytest.mark.parametrize("levels", [[100, 10], [10, 10], [10, 201], [0, 10]])
def test_sweep_levels_out_of_order_or_range_are_rejected(levels):
    with pytest.raises(AnalyticsError):
        implosion_batch(1.0, 200, 100, make_stream(25, 3), levels=levels)


def test_batches_are_deterministic_and_worker_invariant():
    a = scaled_passage_batch(3, 100, JointPower(1.0, 3.0), 5000, make_stream(24, 0), workers=1)
    b = scaled_passage_batch(3, 100, JointPower(1.0, 3.0), 5000, make_stream(24, 0), workers=4)
    assert a.finite_count == b.finite_count
    assert np.array_equal(a.scaled_times, b.scaled_times)
    ta, ma = implosion_batch(1.0, 200, 10**5, make_stream(24, 1), workers=1, levels=[10, 200])
    tb, mb = implosion_batch(1.0, 200, 10**5, make_stream(24, 1), workers=8, levels=[10, 200])
    assert np.array_equal(ta, tb)
    assert ma == mb
