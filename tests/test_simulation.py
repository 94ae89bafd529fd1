"""Coverage-harness tests: sampling, scenarios, policies, and determinism."""

import concurrent.futures
import contextlib
import hashlib
import io
import math
import re

import numpy as np
import pytest

import multimcc.simulate as simulate
from multimcc import (
    CIMethod,
    CoverageResult,
    DegeneracyPolicy,
    InvalidProbabilitiesError,
    MetricKind,
    ProbTable2,
    Scenario,
    ScenarioKind,
    ValidationError,
    builtin_scenarios,
    coverage_report,
    run_coverage,
    run_coverage_grid,
    sample_multinomial,
    scenario_by_name,
)
from multimcc.cli import main
from helpers import reference_coverage, sequential_multinomial

FREQ_SIGMA = 4.0
EXACT_TOL = 1e-12

SINGLE_NAMES = ("single-1", "single-2", "single-3", "single-4")
PAIRED_NAMES = ("paired-1", "paired-2", "paired-3", "paired-4")

SINGLE_CELLS = tuple((m, c) for m in MetricKind for c in (CIMethod.WALD, CIMethod.FISHER_Z))
PAIRED_CELLS = tuple((m, c) for m in MetricKind
                     for c in (CIMethod.WALD_DIFF, CIMethod.G_TRANSFORM))
EQUIVALENCE_N = (1, 2, 5, 50, 800)


def test_multinomial_sums_to_n():
    rng = np.random.default_rng(20260430)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    for n in (1, 7, 100, 12345):
        counts = sample_multinomial(p, n, rng)
        assert counts.sum() == n
        assert counts.dtype == np.int64
        assert np.all(counts >= 0)


def test_multinomial_is_deterministic_for_a_seeded_generator():
    p = np.array([0.25, 0.25, 0.5])
    a = sample_multinomial(p, 1000, np.random.default_rng(99))
    b = sample_multinomial(p, 1000, np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_multinomial_zero_probability_cell_never_drawn():
    rng = np.random.default_rng(20260431)
    p = np.array([0.5, 0.0, 0.5])
    for _ in range(50):
        assert sample_multinomial(p, 200, rng)[1] == 0


def test_multinomial_single_cell_takes_everything():
    counts = sample_multinomial(np.array([1.0]), 17, np.random.default_rng(0))
    assert counts.tolist() == [17]


def test_multinomial_frequencies_match_probabilities():
    rng = np.random.default_rng(20260432)
    p = np.array([0.2, 0.3, 0.5])
    n = 100000
    counts = sample_multinomial(p, n, rng)
    for i in range(3):
        sigma = math.sqrt(p[i] * (1.0 - p[i]) / n)
        assert abs(counts[i] / n - p[i]) < FREQ_SIGMA * sigma


def test_multinomial_validates_inputs():
    rng = np.random.default_rng(0)
    cases = (
        (np.array([]), 10, InvalidProbabilitiesError, "^need at least one cell probability$"),
        (np.array([0.5, np.nan]), 10, InvalidProbabilitiesError,
         "^cell probabilities must be finite and non-negative$"),
        (np.array([-0.1, 1.1]), 10, InvalidProbabilitiesError,
         "^cell probabilities must be finite and non-negative$"),
        (np.array([0.5, 0.6]), 10, InvalidProbabilitiesError,
         r"^cell probabilities sum to 1\.1, not 1$"),
        (np.array([0.5, 0.5]), 0, ValidationError, "^sample size must be at least 1, got 0$"),
    )
    for p, n, error, text in cases:
        with pytest.raises(error, match=text):
            sample_multinomial(p, n, rng)
        if n >= 1:      # a coverage block checks its truth vector the same way
            with pytest.raises(error, match=text):
                simulate._replicate_sampler(p, n, 0)


def test_multinomial_matches_sequential_binomials():
    for scenario in builtin_scenarios():
        flat = scenario.truth.pi.ravel()
        for n in EQUIVALENCE_N:
            for rep in range(200):
                got = sample_multinomial(flat, n, simulate._replicate_rng(17, rep))
                want = sequential_multinomial(flat, n, simulate._replicate_rng(17, rep))
                assert np.array_equal(got, want), (scenario.name, n, rep)
    # A cell may exceed 1 by rounding and still pass the sum check.
    edge = np.array([1.0 + 5e-13, 0.0])
    got = sample_multinomial(edge, 5, simulate._replicate_rng(17, 0))
    assert got.tolist() == sequential_multinomial(edge, 5, simulate._replicate_rng(17, 0)).tolist()


REKEY_SEEDS = (0, 17, 2 ** 64 - 1)


def test_rekeyed_draws_match_fresh_generators():
    """One re-keyed generator draws what a new (seed, rep) generator draws."""
    for scenario in builtin_scenarios():
        flat = scenario.truth.pi.ravel()
        for n in EQUIVALENCE_N:
            for seed in REKEY_SEEDS:
                draw = simulate._replicate_sampler(scenario.truth.pi, n, seed)
                # Out of order, repeated, and across the chunk size.
                reps = [*range(40), 3, 0, *range(simulate.CHUNK_REPS - 5,
                                                simulate.CHUNK_REPS + 5)]
                got = np.concatenate([draw(range(r, r + 1)) for r in reps])
                want = [sample_multinomial(flat, n, simulate._replicate_rng(seed, r))
                        for r in reps]
                assert np.array_equal(got, np.stack(want)), (scenario.name, n, seed)
                span = range(simulate.CHUNK_REPS - 20, simulate.CHUNK_REPS + 20)
                assert np.array_equal(draw(span), np.stack(
                    [sample_multinomial(flat, n, simulate._replicate_rng(seed, r))
                     for r in span])), (scenario.name, n, seed)


def test_blocks_draw_each_replicate_from_its_own_stream(monkeypatch):
    """Across chunk boundaries and uneven worker splits, replicate rep is the (seed, rep) draw."""
    drawn: dict[int, list[np.ndarray]] = {}
    sampler = simulate._replicate_sampler

    def recording(probabilities, n, seed):
        draw = sampler(probabilities, n, seed)

        def record(reps):
            out = draw(reps)
            for rep, row in zip(reps, out):
                drawn.setdefault(rep, []).append(row.copy())
            return out
        return record

    monkeypatch.setattr(simulate, "_replicate_sampler", recording)
    monkeypatch.setattr(simulate, "CHUNK_REPS", 7)
    reps, n, seed = 53, 5, 21
    z = simulate._two_sided_z(0.05)
    for name in ("single-3", "paired-4"):
        scenario = scenario_by_name(name)
        cells = SINGLE_CELLS if scenario.kind is ScenarioKind.SINGLE else PAIRED_CELLS
        flat = scenario.truth.pi.ravel()
        serial = None
        for workers in (1, 2, 4, 5, 10, 53):
            # The split run_coverage_grid hands its workers.
            size = -(-reps // workers)
            drawn.clear()
            blocks = [simulate._coverage_block(scenario, n, start, min(size, reps - start),
                                               cells, z, seed)
                      for start in range(0, reps, size)]
            assert sorted(drawn) == list(range(reps))
            for rep, rows in drawn.items():
                want = sample_multinomial(flat, n, simulate._replicate_rng(seed, rep))
                assert len(rows) == 1 and np.array_equal(rows[0], want), (name, workers, rep)
            tally = [(sum(b[i][0] for b in blocks), sum(b[i][1] for b in blocks),
                      [w for b in blocks for w in b[i][2]]) for i in range(len(cells))]
            serial = serial or tally
            assert tally == serial, (name, workers)


# sha256 of the 576 ``simulate --format json`` documents below, each with its
# version field emptied, as a new Philox generator per replicate drew them
# before the blocks re-keyed one.  Any change to a draw or an interval moves it.
SIMULATE_DOCUMENTS_SHA256 = "4d2653c36c28cde60c21993a41d4f96c4251bfdd6403589dd86fe87add4d85ef"


def test_simulate_documents_hash_is_frozen():
    digest = hashlib.sha256()
    for name in SINGLE_NAMES + PAIRED_NAMES:
        for n in (1, 2, 5, 20, 50, 800):
            for seed in range(6):
                for policy in DegeneracyPolicy:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = main(["simulate", "--scenario", name, "--n", str(n),
                                     "--reps", "200", "--seed", str(seed),
                                     "--policy", policy.value, "--format", "json"])
                    assert code == 0
                    text = re.sub(r'"version": "[^"]*"', '"version": ""', out.getvalue(),
                                  count=1)
                    digest.update(text.encode())
    assert digest.hexdigest() == SIMULATE_DOCUMENTS_SHA256


def test_builtin_scenarios_inventory():
    scenarios = builtin_scenarios()
    assert len(scenarios) == 8
    by_name = {s.name: s for s in scenarios}
    for name in SINGLE_NAMES:
        assert by_name[name].kind is ScenarioKind.SINGLE
        assert by_name[name].r == 3
        assert by_name[name].description
    for name in PAIRED_NAMES:
        assert by_name[name].kind is ScenarioKind.PAIRED
        assert by_name[name].r == 3
        assert by_name[name].description


def test_builtin_truth_cells_are_exact_fractions():
    truth = scenario_by_name("single-1").truth
    assert np.array_equal(
        truth.pi, np.array([[28, 2, 3], [3, 28, 2], [2, 3, 29]]) / 100.0)
    cube = scenario_by_name("paired-1").truth.pi
    assert math.isclose(float(cube.sum()), 1.0, abs_tol=EXACT_TOL)
    assert math.isclose(float(cube[0, 0, 0]), 40.0 / 300.0, abs_tol=EXACT_TOL)


def test_scenario_rejects_tampered_true_value():
    truth = scenario_by_name("single-1").truth
    with pytest.raises(ValidationError):
        Scenario("tampered", ScenarioKind.SINGLE, truth, 0.5, 0.775,
                 0.7749774977497751)


def test_scenario_rejects_mismatched_table_kind():
    truth = scenario_by_name("single-1").truth
    with pytest.raises(ValidationError):
        Scenario("bad-kind", ScenarioKind.PAIRED, truth, 0.0, 0.0, 0.0)


def test_scenario_by_name_rejects_unknown():
    with pytest.raises(ValidationError, match="builtin scenarios: paired-1, "):
        scenario_by_name("single-9")


def test_scenario_by_name_matches_builtin_scenarios():
    for builtin in builtin_scenarios():
        scenario = scenario_by_name(builtin.name)
        assert scenario.kind is builtin.kind
        assert scenario.description == builtin.description
        assert np.array_equal(scenario.truth.pi, builtin.truth.pi)
        for metric in MetricKind:
            assert scenario.true_value(metric) == builtin.true_value(metric)


def test_scenario_by_name_builds_one_scenario(monkeypatch):
    built = []
    check = Scenario.__post_init__
    def counting(self):
        built.append(self.name)
        check(self)
    monkeypatch.setattr(Scenario, "__post_init__", counting)
    for name in SINGLE_NAMES + PAIRED_NAMES:
        built.clear()
        scenario_by_name(name)
        assert built == [name]


def test_grid_rows_equal_separate_runs():
    scenario = scenario_by_name("single-1")
    cells = [(MetricKind.MACRO, CIMethod.WALD), (MetricKind.MICRO, CIMethod.FISHER_Z)]
    grid = run_coverage_grid(scenario, 50, 300, cells, seed=5)
    for (metric, method), row in zip(cells, grid):
        single = run_coverage(scenario, 50, 300, metric, method, seed=5)
        assert single == row


def test_policies_share_counts_and_differ_only_in_denominator():
    scenario = scenario_by_name("single-3")
    kwargs = dict(n=20, reps=500, kind=MetricKind.MACRO,
                  ci_method=CIMethod.WALD, seed=3)
    miss = run_coverage(scenario, policy=DegeneracyPolicy.COUNT_AS_MISS, **kwargs)
    excl = run_coverage(scenario, policy=DegeneracyPolicy.EXCLUDE, **kwargs)
    assert miss.degenerate > 0
    assert miss.covered == excl.covered
    assert miss.degenerate == excl.degenerate
    assert math.isclose(miss.coverage, miss.covered / 500, abs_tol=EXACT_TOL)
    assert math.isclose(excl.coverage, excl.covered / (500 - excl.degenerate),
                        abs_tol=EXACT_TOL)
    assert miss.mean_width == excl.mean_width


def test_tiny_alpha_covers_everything():
    result = run_coverage(scenario_by_name("single-1"), 400, 200,
                          MetricKind.MICRO_STAR, CIMethod.WALD, alpha=1e-6,
                          seed=2, policy=DegeneracyPolicy.EXCLUDE)
    assert result.coverage == 1.0


def test_worker_partition_does_not_change_results():
    scenario = scenario_by_name("single-1")
    cells = [(m, c) for m in MetricKind
             for c in (CIMethod.WALD, CIMethod.FISHER_Z)]
    serial = run_coverage_grid(scenario, 50, 200, cells, seed=11, workers=1)
    forked = run_coverage_grid(scenario, 50, 200, cells, seed=11, workers=3)
    for a, b in zip(serial, forked):
        assert a == b


def record_pool_sizes(monkeypatch) -> list[int]:
    """Swap in a process pool that records its size, maps serially, starts nothing."""
    sizes: list[int] = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_worker_pool_is_sized_by_blocks_and_cpus(monkeypatch):
    sizes = record_pool_sizes(monkeypatch)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 4)
    scenario = scenario_by_name("single-1")
    cells = [(MetricKind.MICRO, CIMethod.WALD)]
    serial = {reps: run_coverage_grid(scenario, 20, reps, cells, seed=3)
              for reps in (1, 50)}
    for reps, workers, size in ((1, 100_000, 1), (50, 100_000, 4), (50, 3, 3)):
        sizes.clear()
        got = run_coverage_grid(scenario, 20, reps, cells, seed=3, workers=workers)
        assert sizes == [size]
        assert got == serial[reps]


def test_cli_simulate_with_huge_worker_count_starts_one_worker(monkeypatch, capsys):
    sizes = record_pool_sizes(monkeypatch)
    argv = ["simulate", "--scenario", "single-1", "--n", "20", "--reps", "1",
            "--format", "json"]
    assert main(argv + ["--workers", "100000"]) == 0
    forked = capsys.readouterr().out
    assert sizes == [1]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert '"workers": 100000' in forked
    assert forked.replace('"workers": 100000', '"workers": null') == serial


def assert_matches_reference(scenario, n, reps, cells, seed):
    want = reference_coverage(scenario, n, reps, cells, seed)
    for policy in DegeneracyPolicy:
        got = run_coverage_grid(scenario, n, reps, cells, seed=seed, policy=policy)
        for row, (covered, degenerate, mean_width) in zip(got, want):
            where = (scenario.name, n, row.metric.value, row.ci_method.value, policy.value)
            assert row.covered == covered, where
            assert row.degenerate == degenerate, where
            assert (row.mean_width == mean_width
                    or math.isnan(row.mean_width) and math.isnan(mean_width)), where


def test_batched_grid_matches_per_replicate_reference():
    for scenario in builtin_scenarios():
        cells = SINGLE_CELLS if scenario.kind is ScenarioKind.SINGLE else PAIRED_CELLS
        for n in EQUIVALENCE_N:
            assert_matches_reference(scenario, n, 100, cells, seed=n)


def test_batched_grid_matches_reference_across_chunks(monkeypatch):
    assert_matches_reference(scenario_by_name("single-3"), 20,
                             simulate.CHUNK_REPS + 37, SINGLE_CELLS, seed=5)
    monkeypatch.setattr(simulate, "CHUNK_REPS", 7)
    for name in ("single-1", "paired-4"):
        scenario = scenario_by_name(name)
        cells = SINGLE_CELLS if scenario.kind is ScenarioKind.SINGLE else PAIRED_CELLS
        assert_matches_reference(scenario, 5, 45, cells, seed=9)


def test_all_degenerate_replicates_yield_nan_under_exclude():
    result = run_coverage(scenario_by_name("single-1"), 1, 10,
                          MetricKind.MACRO, CIMethod.WALD, seed=1,
                          policy=DegeneracyPolicy.EXCLUDE)
    assert result.degenerate == 10
    assert math.isnan(result.coverage)
    assert math.isnan(result.mean_width)


def test_small_sample_degeneracy_never_aborts():
    result = run_coverage(scenario_by_name("single-3"), 8, 50,
                          MetricKind.MACRO, CIMethod.FISHER_Z, seed=4)
    assert result.degenerate > 0
    assert result.covered <= result.reps - result.degenerate


def test_grid_validates_arguments():
    single = scenario_by_name("single-1")
    paired = scenario_by_name("paired-1")
    cell = [(MetricKind.MACRO, CIMethod.WALD)]
    with pytest.raises(ValidationError):
        run_coverage_grid(single, 50, 0, cell)
    with pytest.raises(ValidationError):
        run_coverage_grid(single, 0, 10, cell)
    with pytest.raises(ValidationError):
        run_coverage_grid(single, 50, 10, cell, seed=-1)
    with pytest.raises(ValidationError):
        run_coverage_grid(single, 50, 10, cell, policy="exclude")
    with pytest.raises(ValidationError):
        run_coverage_grid(single, 50, 10, [])
    with pytest.raises(ValidationError):
        run_coverage_grid(single, 50, 10, [(MetricKind.MACRO, CIMethod.WALD_DIFF)])
    with pytest.raises(ValidationError):
        run_coverage_grid(paired, 50, 10, [(MetricKind.MACRO, CIMethod.FISHER_Z)])
    with pytest.raises(ValidationError):
        run_coverage_grid(single, 50, 10, [("mam", CIMethod.WALD)])


def test_coverage_result_validates_consistency():
    with pytest.raises(ValidationError):
        CoverageResult("x", 50, 100, MetricKind.MACRO, CIMethod.WALD, 0.05,
                       covered=90, degenerate=0, coverage=0.5, mean_width=0.1,
                       seed=0, policy=DegeneracyPolicy.COUNT_AS_MISS)


def test_coverage_report_layout():
    assert len(coverage_report([]).splitlines()) == 2
    result = run_coverage(scenario_by_name("single-2"), 50, 40,
                          MetricKind.MICRO, CIMethod.WALD, seed=8)
    report = coverage_report([result])
    lines = report.splitlines()
    assert lines[0].split() == ["scenario", "n", "reps", "metric", "ci",
                                "alpha", "coverage", "mean-width",
                                "degenerate", "seed", "policy"]
    row = lines[2].split()
    assert row[0] == "single-2"
    assert row[3] == "mim"
    assert row[6] == f"{result.coverage:.4f}"


def test_paired_coverage_smoke():
    result = run_coverage(scenario_by_name("paired-2"), 60, 80,
                          MetricKind.MICRO, CIMethod.G_TRANSFORM, seed=6)
    assert 0.5 < result.coverage <= 1.0
