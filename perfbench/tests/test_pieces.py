"""Tests of the benchmark's own pieces: run with

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from perfbench import check, inputs, layers, probe, stats


# -- percentiles ----------------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(ValueError, match="need at least 10"):
        stats.percentile(list(range(99)), 90)
    with pytest.raises(ValueError, match="need at least 10"):
        stats.percentile(list(range(19)), 50)
    assert stats.percentile(list(range(100)), 90) == pytest.approx(89.5, abs=1e-6)
    assert stats.percentile(list(range(20)), 50) == pytest.approx(9.5, abs=1e-6)


def test_percentile_is_a_smooth_order_statistic():
    assert stats.percentile([3.0] * 40, 50) == pytest.approx(3.0)
    values = list(np.random.default_rng(0).random(150))
    p50, p90 = stats.percentile(values, 50), stats.percentile(values, 90)
    assert min(values) < p50 < p90 < max(values)
    ordered = sorted(values)
    assert ordered[130] < p90 < ordered[140]


def test_beta_cdf_matches_known_values():
    # Beta(1, 1) is uniform and Beta(2, 1) has CDF x^2.
    points = np.array([0.0, 0.25, 0.5, 1.0])
    assert np.allclose(stats._beta_cdf(1.0, 1.0, points), points, atol=1e-9)
    assert np.allclose(stats._beta_cdf(2.0, 1.0, points), points**2, atol=1e-9)


def test_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile(list(range(100)), 100)


def test_relative_iqr():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, median, q3 = 1.5, 3.0, 4.5
    assert stats.relative_iqr(values) == pytest.approx((q3 - q1) / median)


# -- normalisation ------------------------------------------------------------------------
def test_normalise_scales_by_reference_over_observed():
    assert probe.normalise(2.0, probe.P_REF_MS) == pytest.approx(2.0)
    # A host running twice as slow as the reference halves every timing.
    assert probe.normalise(2.0, 2 * probe.P_REF_MS) == pytest.approx(1.0)
    assert probe.normalise(1.0, probe.P_REF_MS / 4) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        probe.normalise(1.0, 0.0)


def test_window_median_clips_to_the_list():
    probes = [5.0, 1.0, 9.0, 3.0]
    assert probe.window_median(probes, -3, 2) == 3.0
    assert probe.window_median(probes, 2, 99) == 6.0
    with pytest.raises(ValueError):
        probe.window_median(probes, 4, 9)


def test_probe_reports_milliseconds():
    value = probe.probe_once()
    assert 0.1 < value < 1000.0


# -- independent checker ------------------------------------------------------------------
PINNED = "p cnf 3 4\n1 0\n-2 0\n3 0\n1 2 3 0\n"


def test_checker_accepts_a_solution_and_catches_every_flipped_bit():
    checker = check.ClauseChecker(PINNED)
    solution = np.array([[True, False, True]])
    assert checker.violations(solution) == 0
    for column in range(3):
        flipped = solution.copy()
        flipped[0, column] ^= True
        assert checker.violations(flipped) == 1


def _naive_ok(clauses, row) -> bool:
    return all(any(row[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in clauses)


def test_checker_agrees_with_naive_evaluation_on_program_output():
    from repro import SamplerConfig, sample_cnf

    text = inputs.formula_text(3, "or-50-10-7-UC-10", 0)
    _, clauses = check.read_dimacs(text)
    matrix = sample_cnf(text, 40, SamplerConfig(seed=1, store_dir="off")).sample.solution_matrix()
    checker = check.ClauseChecker(text)
    assert matrix.shape[0] >= 40
    assert checker.violations(matrix) == 0
    rng = random.Random(0)
    caught = 0
    for _ in range(60):
        row, column = rng.randrange(matrix.shape[0]), rng.randrange(matrix.shape[1])
        flipped = matrix.copy()
        flipped[row, column] ^= True
        expected = 0 if _naive_ok(clauses, flipped[row]) else 1
        assert checker.violations(flipped) == expected
        caught += expected
    assert caught > 0


def test_checker_handles_rows_not_a_multiple_of_eight():
    checker = check.ClauseChecker("p cnf 2 1\n1 2 0\n")
    rows = np.array([[True, False]] * 9 + [[False, False]])
    assert checker.violations(rows) == 1


def test_duplicates_and_digest():
    rows = np.array([[True, False], [False, True], [True, False]])
    assert check.duplicate_rows(rows) == 1
    first, second = check.Digest(), check.Digest()
    first.add(0, rows)
    second.add(0, rows)
    assert first.hexdigest() == second.hexdigest()
    second.add(1, rows[:1])
    assert first.hexdigest() != second.hexdigest()


# -- inputs -------------------------------------------------------------------------------
def test_same_seed_gives_byte_identical_dimacs():
    assert inputs.table2_set(11) == inputs.table2_set(11)
    assert inputs.table2_set(11) != inputs.table2_set(12)


def test_job_indices_give_distinct_formula_signatures():
    from repro.cnf.dimacs import parse_dimacs
    from repro.core.signatures import formula_signature

    for name in inputs.table2_names():
        signatures = {
            formula_signature(parse_dimacs(inputs.formula_text(5, name, index)))
            for index in range(3)
        }
        assert len(signatures) == 3, name


# -- layer tracer -------------------------------------------------------------------------
def test_self_times_partition_nested_spans():
    tracer = layers.Tracer()

    def inner():
        time.sleep(0.01)

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    traced_outer = tracer.wrap("outer", outer)
    start = time.perf_counter()
    traced_outer()
    wall = time.perf_counter() - start
    bucket = tracer.reset()
    assert bucket.calls == {"inner": 2, "outer": 1}
    assert bucket.attributed == pytest.approx(bucket.top_level_seconds, abs=1e-9)
    assert bucket.inclusive_seconds["outer"] == pytest.approx(bucket.top_level_seconds)
    assert bucket.self_seconds["inner"] >= 0.02
    assert 0.0 <= wall - bucket.attributed < 0.005
    assert tracer.reset().attributed == 0.0


def test_install_rebinds_imported_copies_and_uninstall_restores():
    import repro.core.pipeline as pipeline
    import repro.cnf.dimacs as dimacs

    original = dimacs.parse_dimacs
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        assert pipeline.parse_dimacs is not original
        assert pipeline.parse_dimacs.__wrapped__ is original
        pipeline.parse_dimacs("p cnf 1 1\n1 0\n")
        assert tracer.reset().calls["cnf.parse"] == 1
    finally:
        layers.uninstall()
    assert pipeline.parse_dimacs is original
    assert dimacs.parse_dimacs is original
