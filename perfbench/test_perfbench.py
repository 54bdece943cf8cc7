"""Tests of the benchmark itself.

Run with: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer, words_drawn  # noqa: E402


def _philox(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@pytest.mark.parametrize("m", [0, 1, 3, 4, 5, 8, 9, 1001])
def test_uniform_counter_reads_m_after_m_draws(m):
    gen = _philox()
    before = words_drawn(gen)
    for _ in range(m):
        gen.random()
    assert words_drawn(gen) - before == m


def test_uniform_counter_across_a_buffer_boundary_from_mid_block():
    gen = _philox(3)
    for _ in range(3):  # leave the first block of four one word short
        gen.random()
    before = words_drawn(gen)
    for _ in range(6):  # crosses into the next two blocks
        gen.random()
    assert words_drawn(gen) - before == 6
    gen.random(10)  # array draws take one word each as well
    assert words_drawn(gen) - before == 16


def test_reference_values_match_hand_computed_cases():
    assert ref.extinction_cdf(2, "0.5", 1) == 0.25
    assert ref.extinction_cdf(1, "0.5", 2) == 0.75
    assert ref.extinction_cdf(3, "0.1", 2) == pytest.approx(0.19**3, rel=1e-15)
    assert ref.single_drop_prob(1, "0.3") == 1.0
    assert ref.single_drop_prob(2, "0.5") == pytest.approx(2 / 3, rel=1e-15)
    assert ref.single_drop_prob(3, "0.5") == pytest.approx(3 / 7, rel=1e-15)
    assert ref.single_drop_path_prob(["0.5"] * 3) == pytest.approx(2 / 7, rel=1e-15)
    assert ref.path_lower_bound_constant(3, "0.5") == 0.125
    cs = [Fraction(1), Fraction(1, 8), Fraction(1, 27)]
    assert ref.path_lower_bound_state(cs) == pytest.approx(7 / 8 * (26 / 27) ** 2, rel=1e-15)
    assert ref.passage_pmf(2, "0.5", 1) == 0.5
    assert ref.passage_pmf(2, "0.5", 2) == 0.125
    assert ref.implosion_mean(1.0, 2) == 1.25
    assert ref.implosion_variance(1.0, 2) == 1.0625
    # n=2, c=1/2: d_n = 1, and |tau - 1| > 1/2 means tau != 1, of chance 1 - 1/4
    assert ref.exceedance(2, 0.5, 0.5) == pytest.approx(0.75, rel=1e-15)
    mean, var = ref.extinction_moments(1, 0.5)  # Geometric(1/2) on {1, 2, ...}
    assert mean == pytest.approx(2.0, rel=1e-12)
    assert var == pytest.approx(2.0, rel=1e-12)


def test_decimal_mortality_is_taken_as_an_exact_rational():
    assert ref.rational("0.02") == Fraction(1, 50)
    # 2 (49/50) (1/50) / (1 - (49/50)^2) = 98/99
    assert ref.single_drop_prob(2, "0.02") == float(Fraction(98, 99))


def _inputs(workload: str, seed: int):
    return [(op.name, op.argv, op.parallel, op.out_file) for op in workloads.ops(workload, seed)]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_equal_seeds_give_identical_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


def test_low_mortality_table_is_the_constant_regime():
    table = json.loads(workloads.LOW_TABLE)
    assert sorted(table["values"]) == [[k, 10, 0.02] for k in range(1, 11)]


def test_row_checker_flags_a_wrong_closed_form_and_a_missing_row():
    good = ref.single_drop_prob(3, "0.3")
    rows = [{"label": "P(single drop from k=3) MC [c=0.3]", "closed_form": good,
             "oracle": None, "monte_carlo": {"estimate": good + 0.01, "half_width": 0.02}}]
    forms = [workloads.VERIFY_FORMS[6]]
    assert workloads._check_rows(rows, forms, "t") == []
    rows[0]["closed_form"] = good * (1 + 1e-9)
    assert len(workloads._check_rows(rows, forms, "t")) == 1
    rows[0]["closed_form"] = good
    rows[0]["monte_carlo"]["half_width"] = 0.005
    assert len(workloads._check_rows(rows, forms, "t")) == 1
    assert len(workloads._check_rows([], forms, "t")) == 1


def _traced(argv):
    import deathlab.cli

    tracer = Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        call = tracer.span("cli", deathlab.cli.main)
        start = perf_counter()
        call(argv, standalone_mode=False)
        wall = perf_counter() - start
    return tracer, wall


def test_tracer_self_times_sum_to_the_traced_time_and_restore_originals():
    import deathlab.experiments
    import deathlab.kernels

    original = (deathlab.experiments.first_passage_batch, deathlab.kernels.first_passage_batch)
    argv = ["path", "--n", "3", "--samples", "200", "--seed", "5"]
    tracer, wall = _traced(argv)
    metrics = tracer.metrics(wall)
    attributed = sum(tracer.self_s[layer] for layer in LAYERS)
    assert math.isclose(attributed + metrics["trace.unattributed_s"][0], wall, rel_tol=1e-12)
    assert 0.0 <= metrics["trace.unattributed_s"][0] < 0.05 * wall
    assert metrics["kernels.single_drop_batch.uniforms_per_sample"][0] > 0
    assert metrics["parallel.chunks"][0] == 4  # three levels and the whole path, one chunk each
    assert (deathlab.experiments.first_passage_batch, deathlab.kernels.first_passage_batch) == original
    again, _ = _traced(argv)
    assert again.functions["kernels.single_drop_batch"][1:] == tracer.functions["kernels.single_drop_batch"][1:]
