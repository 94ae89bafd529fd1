"""End-to-end acceptance checks.

One test per named criterion; the conftest prints a PASS/FAIL summary line
for each after the run.  Published reference values are rounded, so point
comparisons use half an ulp of the printed precision plus a small float
slack (0.78 - 0.775 is already above 0.005 in binary floating point).
"""

import math
import time

import numpy as np
import pytest

from multimcc import (
    CIMethod,
    ConfusionCounts2,
    DegeneracyPolicy,
    JointCounts3,
    MetricKind,
    PairedCovBlock,
    ProbTable2,
    ProbTable3,
    ValidationError,
    asymptotic_variance,
    binary_mcc,
    diff_variance,
    estimate,
    fisher_z_ci,
    grad_macro,
    grad_micro,
    gradient,
    macro_mcc,
    marginalize,
    micro_mcc,
    micro_star_mcc,
    normalize_counts,
    paired_cov_block,
    paired_inference,
    run_coverage_grid,
    scenario_by_name,
    single_inference,
)
from multimcc.formats import parse_matrix_csv
from helpers import (
    fd_gradient,
    fd_relative_error,
    lift_marginal_gradient,
    project_gradient,
    random_paired_table,
    random_single_table,
)
from _report import criterion
from pathlib import Path

DATA = Path(__file__).parent / "data"

POINT_TOL = 0.005 + 1e-9
REAL_VALUE_TOL = 0.0005 + 1e-9
REAL_DIFF_TOL = 0.001 + 1e-9

COVERAGE_REPS = 10_000
COVERAGE_SEED = 7
COVERAGE_TOL_LARGE = 0.012
COVERAGE_TOL_SMALL = 0.02
SINGLE_BUDGET_S = 120.0
PAIRED_BUDGET_S = 180.0

FD_MAX_REL = 1e-5
FD_TABLES_PER_R = 50
CLOSED_FORM_TOL = 1e-12

CONSISTENCY_REPS = 100_000
CONSISTENCY_N = 800
VARIANCE_REL_TOL = 0.05

EXACT_TOL = 1e-12
AFFINE_TOL = 1e-15

PRINTED_SINGLE = {
    "single-1": (0.77, 0.78, 0.77),
    "single-2": (0.01, 0.01, 0.01),
    "single-3": (0.59, 0.81, 0.67),
    "single-4": (0.00, 0.01, 0.00),
}

PRINTED_PAIRED = {
    "paired-1": ((0.40, 0.40, 0.40), (0.40, 0.40, 0.40)),
    "paired-2": ((0.40, 0.40, 0.40), (0.25, 0.25, 0.25)),
    "paired-3": ((0.37, 0.40, 0.37), (0.37, 0.40, 0.37)),
    "paired-4": ((0.48, 0.73, 0.53), (0.20, 0.27, 0.20)),
}

PRINTED_FRCNN = (0.812, 0.834, 0.788)
PRINTED_BCD = (0.723, 0.754, 0.708)
PRINTED_DIFF = (0.089, 0.080, 0.079)

# Published coverage of the 95% intervals, 6 columns per row in the order
# (mam wald, mam fisher-z, mim wald, mim fisher-z, mim-star wald,
# mim-star fisher-z); the paired grid swaps in (wald, g) per metric.
COVERAGE_SINGLE = {
    "single-1": {
        50: (0.9230, 0.9541, 0.9412, 0.9563, 0.9282, 0.9565),
        100: (0.9326, 0.9505, 0.9329, 0.9482, 0.9323, 0.9510),
        400: (0.9449, 0.9491, 0.9450, 0.9484, 0.9448, 0.9492),
        800: (0.9496, 0.9486, 0.9510, 0.9467, 0.9499, 0.9482),
    },
    "single-2": {
        50: (0.9315, 0.9385, 0.9258, 0.9400, 0.9349, 0.9418),
        100: (0.9418, 0.9444, 0.9424, 0.9424, 0.9431, 0.9457),
        400: (0.9471, 0.9482, 0.9478, 0.9478, 0.9474, 0.9483),
        800: (0.9489, 0.9492, 0.9480, 0.9480, 0.9489, 0.9493),
    },
    "single-3": {
        50: (0.8349, 0.8501, 0.8943, 0.9756, 0.9143, 0.9528),
        100: (0.8723, 0.8820, 0.9390, 0.9481, 0.9319, 0.9505),
        400: (0.9396, 0.9416, 0.9426, 0.9560, 0.9460, 0.9506),
        800: (0.9445, 0.9450, 0.9523, 0.9485, 0.9475, 0.9495),
    },
    "single-4": {
        50: (0.9055, 0.9109, 0.9247, 0.9391, 0.9228, 0.9283),
        100: (0.9287, 0.9315, 0.9411, 0.9411, 0.9382, 0.9408),
        400: (0.9455, 0.9463, 0.9474, 0.9474, 0.9472, 0.9479),
        800: (0.9481, 0.9483, 0.9469, 0.9469, 0.9485, 0.9489),
    },
}

COVERAGE_PAIRED = {
    "paired-1": {
        50: (0.9360, 0.9387, 0.9462, 0.9467, 0.9381, 0.9409),
        100: (0.9431, 0.9443, 0.9458, 0.9458, 0.9442, 0.9455),
        400: (0.9478, 0.9481, 0.9486, 0.9487, 0.9482, 0.9484),
        800: (0.9488, 0.9489, 0.9491, 0.9493, 0.9487, 0.9489),
    },
    "paired-2": {
        50: (0.9361, 0.9393, 0.9440, 0.9443, 0.9386, 0.9417),
        100: (0.9440, 0.9454, 0.9458, 0.9484, 0.9447, 0.9463),
        400: (0.9486, 0.9490, 0.9492, 0.9498, 0.9489, 0.9494),
        800: (0.9490, 0.9493, 0.9493, 0.9496, 0.9490, 0.9494),
    },
    "paired-3": {
        50: (0.9301, 0.9331, 0.9458, 0.9463, 0.9359, 0.9387),
        100: (0.9420, 0.9432, 0.9478, 0.9478, 0.9446, 0.9460),
        400: (0.9490, 0.9494, 0.9492, 0.9493, 0.9488, 0.9491),
        800: (0.9489, 0.9490, 0.9498, 0.9500, 0.9491, 0.9493),
    },
    "paired-4": {
        50: (0.8974, 0.9010, 0.9393, 0.9443, 0.9211, 0.9249),
        100: (0.9275, 0.9293, 0.9451, 0.9461, 0.9360, 0.9375),
        400: (0.9465, 0.9467, 0.9499, 0.9505, 0.9476, 0.9483),
        800: (0.9484, 0.9486, 0.9489, 0.9490, 0.9491, 0.9491),
    },
}

CELLS_SINGLE = tuple(
    (kind, method) for kind in MetricKind
    for method in (CIMethod.WALD, CIMethod.FISHER_Z))
CELLS_PAIRED = tuple(
    (kind, method) for kind in MetricKind
    for method in (CIMethod.WALD_DIFF, CIMethod.G_TRANSFORM))

METRIC_FNS = {
    MetricKind.MACRO: macro_mcc,
    MetricKind.MICRO: micro_mcc,
    MetricKind.MICRO_STAR: micro_star_mcc,
}


def test_criterion_1_single_scenario_points():
    with criterion("single-scenario point values"):
        start = time.perf_counter()
        for name, printed in PRINTED_SINGLE.items():
            truth = scenario_by_name(name).truth
            for kind, expected in zip(MetricKind, printed):
                got = estimate(truth, kind)
                assert abs(got - expected) <= POINT_TOL, (name, kind, got)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_paired_scenario_points():
    with criterion("paired-scenario point values"):
        start = time.perf_counter()
        for name, per_method in PRINTED_PAIRED.items():
            scenario = scenario_by_name(name)
            tables = (marginalize(scenario.truth, 1), marginalize(scenario.truth, 2))
            for table, printed in zip(tables, per_method):
                for kind, expected in zip(MetricKind, printed):
                    got = estimate(table, kind)
                    assert abs(got - expected) <= POINT_TOL, (name, kind, got)
            for kind in MetricKind:
                diff = estimate(tables[0], kind) - estimate(tables[1], kind)
                assert abs(diff - scenario.true_value(kind)) <= EXACT_TOL
        assert time.perf_counter() - start < 1.0


def test_criterion_3_real_data():
    with criterion("real-data values and differences"):
        start = time.perf_counter()
        frcnn = normalize_counts(parse_matrix_csv((DATA / "frcnn.csv").read_text()))
        bcd = normalize_counts(parse_matrix_csv((DATA / "bcd.csv").read_text()))
        for kind, pf, pb, pd in zip(MetricKind, PRINTED_FRCNN, PRINTED_BCD,
                                    PRINTED_DIFF):
            ef = estimate(frcnn, kind)
            eb = estimate(bcd, kind)
            assert abs(ef - pf) <= REAL_VALUE_TOL, (kind, ef)
            assert abs(eb - pb) <= REAL_VALUE_TOL, (kind, eb)
            assert abs((ef - eb) - pd) <= REAL_DIFF_TOL, (kind, ef - eb)
        assert time.perf_counter() - start < 1.0


def run_coverage_table(table, cells, budget_s):
    start = time.perf_counter()
    for name, by_n in table.items():
        scenario = scenario_by_name(name)
        for n, expected_row in by_n.items():
            results = run_coverage_grid(scenario, n, COVERAGE_REPS, cells,
                                        seed=COVERAGE_SEED,
                                        policy=DegeneracyPolicy.EXCLUDE)
            tol = COVERAGE_TOL_LARGE if n >= 400 else COVERAGE_TOL_SMALL
            for result, expected in zip(results, expected_row):
                assert abs(result.coverage - expected) <= tol, (
                    name, n, result.metric.value, result.ci_method.value,
                    result.coverage, expected)
    assert time.perf_counter() - start < budget_s


def test_criterion_4_single_coverage_grid():
    with criterion("single coverage grid"):
        run_coverage_table(COVERAGE_SINGLE, CELLS_SINGLE, SINGLE_BUDGET_S)


def test_criterion_5_paired_coverage_grid():
    with criterion("paired coverage grid"):
        run_coverage_table(COVERAGE_PAIRED, CELLS_PAIRED, PAIRED_BUDGET_S)


def test_criterion_6_gradient_oracle():
    with criterion("gradient finite-difference oracle"):
        rng = np.random.default_rng(20260450)
        worst = 0.0
        for r in (2, 3, 4, 6):
            for _ in range(FD_TABLES_PER_R):
                pi = random_single_table(rng, r)
                p = ProbTable2(pi)
                for kind, fn in METRIC_FNS.items():
                    err = fd_relative_error(lambda m, fn=fn: fn(ProbTable2(m)),
                                            gradient(p, kind).values, pi)
                    worst = max(worst, err)
                acc = float(pi.trace())
                closed = (r / (r - 1.0)) ** 2 * acc * (1.0 - acc)
                got = asymptotic_variance(grad_micro(p), p)
                assert abs(got - closed) <= CLOSED_FORM_TOL
        for r in (2, 3, 4, 6):
            for _ in range(FD_TABLES_PER_R):
                cube = random_paired_table(rng, r)
                p3 = ProbTable3(cube)
                for kind, fn in METRIC_FNS.items():
                    for method, axis in ((1, 1), (2, 0)):
                        analytic = lift_marginal_gradient(
                            gradient(marginalize(p3, method), kind).values, method)
                        projected = project_gradient(analytic, cube)
                        fd = fd_gradient(
                            lambda m, fn=fn, axis=axis: fn(ProbTable2(m.sum(axis=axis))),
                            cube)
                        err = float(np.max(np.abs(fd - projected))
                                    / np.max(np.abs(projected)))
                        worst = max(worst, err)
                block = paired_cov_block(
                    gradient(marginalize(p3, 1), MetricKind.MICRO),
                    gradient(marginalize(p3, 2), MetricKind.MICRO), p3)
                c = r / (r - 1.0)
                acc1 = float(np.einsum("iji->", cube))
                acc2 = float(np.einsum("ijj->", cube))
                triple = float(np.einsum("iii->", cube))
                assert abs(block.var_1 - c * c * acc1 * (1.0 - acc1)) <= CLOSED_FORM_TOL
                assert abs(block.var_2 - c * c * acc2 * (1.0 - acc2)) <= CLOSED_FORM_TOL
                assert abs(block.cov - c * c * (triple - acc1 * acc2)) <= CLOSED_FORM_TOL
        assert worst < FD_MAX_REL, worst


def batch_metrics(tables):
    """All three metrics of a (replicates, r, r) probability stack at once."""
    r = tables.shape[1]
    u = tables.sum(axis=2)
    v = tables.sum(axis=1)
    diag = np.einsum("bii->bi", tables)
    q = u * v * (1.0 - u) * (1.0 - v)
    assert np.all(q > 0.0)
    mam = ((diag - u * v) / np.sqrt(q)).mean(axis=1)
    acc = diag.sum(axis=1)
    mim = (r * acc - 1.0) / (r - 1.0)
    var_pred = 1.0 - (u * u).sum(axis=1)
    var_truth = 1.0 - (v * v).sum(axis=1)
    assert np.all(var_pred > 0.0) and np.all(var_truth > 0.0)
    mims = (acc - (u * v).sum(axis=1)) / np.sqrt(var_pred * var_truth)
    return {MetricKind.MACRO: mam, MetricKind.MICRO: mim,
            MetricKind.MICRO_STAR: mims}


def test_criterion_7_variance_consistency():
    with criterion("variance consistency at scale"):
        rng = np.random.default_rng(COVERAGE_SEED)
        single = scenario_by_name("single-1").truth
        draws = rng.multinomial(CONSISTENCY_N, single.pi.ravel(),
                                size=CONSISTENCY_REPS)
        tables = draws.reshape(-1, 3, 3) / CONSISTENCY_N
        estimates = batch_metrics(tables)
        for kind in MetricKind:
            analytic = asymptotic_variance(gradient(single, kind), single)
            empirical = CONSISTENCY_N * float(np.var(estimates[kind], ddof=1))
            assert abs(empirical / analytic - 1.0) < VARIANCE_REL_TOL, (
                kind, empirical, analytic)

        paired = scenario_by_name("paired-1").truth
        draws = rng.multinomial(CONSISTENCY_N, paired.pi.ravel(),
                                size=CONSISTENCY_REPS)
        cubes = draws.reshape(-1, 3, 3, 3) / CONSISTENCY_N
        est_1 = batch_metrics(cubes.sum(axis=2))
        est_2 = batch_metrics(cubes.sum(axis=1))
        for kind in MetricKind:
            block = paired_cov_block(gradient(marginalize(paired, 1), kind),
                                     gradient(marginalize(paired, 2), kind), paired)
            analytic = diff_variance(block)
            diffs = est_1[kind] - est_2[kind]
            empirical = CONSISTENCY_N * float(np.var(diffs, ddof=1))
            assert abs(empirical / analytic - 1.0) < VARIANCE_REL_TOL, (
                kind, empirical, analytic)


def test_criterion_8_structural_invariants():
    with criterion("structural invariants"):
        rng = np.random.default_rng(20260460)
        for _ in range(50):
            p = ProbTable2(random_single_table(rng, 2))
            b = binary_mcc(p)
            assert abs(macro_mcc(p) - b) <= EXACT_TOL
            assert abs(micro_star_mcc(p) - b) <= EXACT_TOL
        for r in (2, 3, 5):
            for _ in range(30):
                p = ProbTable2(random_single_table(rng, r))
                acc = float(p.pi.trace())
                assert abs(micro_mcc(p) - (r * acc - 1.0) / (r - 1.0)) <= AFFINE_TOL
        for _ in range(20):
            pi = random_single_table(rng, 4)
            perm = rng.permutation(4)
            views = (ProbTable2(pi), ProbTable2(pi[np.ix_(perm, perm)]),
                     ProbTable2(pi.T.copy()))
            for fn in METRIC_FNS.values():
                values = [fn(view) for view in views]
                assert max(values) - min(values) <= EXACT_TOL

        for _ in range(20):
            counts = ConfusionCounts2(
                np.rint(random_single_table(rng, 3) * 5000).astype(np.int64) + 1)
            for kind in MetricKind:
                ci = single_inference(counts, kind, CIMethod.FISHER_Z)
                assert -1.0 < ci.lower <= ci.upper < 1.0
        healthy = normalize_counts(ConfusionCounts2(
            np.array([[28, 2, 3], [3, 28, 2], [2, 3, 29]])))
        saturated = fisher_z_ci(0.999999, grad_macro(healthy), healthy, 1)
        assert -1.0 < saturated.lower <= saturated.upper < 1.0
        boundary_est = fisher_z_ci(1.0, grad_macro(healthy), healthy, 100)
        assert boundary_est.flags == ("degenerate_estimate",)
        assert -1.0 < boundary_est.lower <= boundary_est.upper < 1.0

        for _ in range(20):
            cube = np.rint(random_paired_table(rng, 3) * 5000).astype(np.int64) + 1
            result = paired_inference(JointCounts3(cube), MetricKind.MACRO,
                                      method=CIMethod.G_TRANSFORM)
            assert -2.0 < result.interval.lower <= result.interval.upper < 2.0
        boundary = np.zeros((2, 2, 2), dtype=np.int64)
        boundary[0, 1, 0] = 50
        boundary[1, 0, 1] = 50
        clamped = paired_inference(JointCounts3(boundary), MetricKind.MACRO,
                                   method=CIMethod.G_TRANSFORM)
        assert clamped.interval.flags == ("degenerate_estimate",)
        assert -2.0 < clamped.interval.lower <= clamped.interval.upper < 2.0

        for _ in range(30):
            p3 = ProbTable3(random_paired_table(rng, 3))
            for kind in MetricKind:
                block = paired_cov_block(gradient(marginalize(p3, 1), kind),
                                         gradient(marginalize(p3, 2), kind), p3)
                assert abs(block.cov) <= math.sqrt(block.var_1 * block.var_2) + 1e-10
        with pytest.raises(ValidationError):
            PairedCovBlock(1.0, 1.0, 1.5)

        scenario = scenario_by_name("single-3")
        serial = run_coverage_grid(scenario, 50, 400, CELLS_SINGLE,
                                   seed=COVERAGE_SEED, workers=1)
        forked = run_coverage_grid(scenario, 50, 400, CELLS_SINGLE,
                                   seed=COVERAGE_SEED, workers=8)
        assert serial == forked
