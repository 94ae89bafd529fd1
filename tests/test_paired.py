"""Joint-table tests: broadcast gradients, covariance blocks, difference intervals."""

import math

import numpy as np
import pytest

from multimcc import (
    CIMethod,
    JointCounts3,
    MetricKind,
    PairedCovBlock,
    ProbTable3,
    ValidationError,
    ZeroTotalError,
    diff_g_ci,
    diff_variance,
    diff_wald_ci,
    estimate,
    gradient,
    macro_mcc,
    marginalize,
    micro_mcc,
    micro_star_mcc,
    normal_quantile,
    normalize_joint_counts,
    paired_cov_block,
    paired_inference,
    variance_quadratic,
    wald_ci,
)
from multimcc.metrics import ProbTable2
from helpers import (
    fd_gradient,
    lift_marginal_gradient,
    project_gradient,
    random_paired_table,
)

EXACT_TOL = 1e-12
FD_TOL = 1e-6
FD_SWEEP = 6

METRIC_FNS = {
    MetricKind.MACRO: macro_mcc,
    MetricKind.MICRO: micro_mcc,
    MetricKind.MICRO_STAR: micro_star_mcc,
}


def marginal_gradients(p3: ProbTable3, kind: MetricKind):
    return (gradient(marginalize(p3, 1), kind), gradient(marginalize(p3, 2), kind))


def lifted(p3: ProbTable3, kind: MetricKind, method: int) -> np.ndarray:
    return lift_marginal_gradient(gradient(marginalize(p3, method), kind).values, method)


def perfect_vs_wrong_counts() -> JointCounts3:
    """Method 1 always right, method 2 always wrong; difference hits +2."""
    cells = np.zeros((2, 2, 2), dtype=np.int64)
    cells[0, 1, 0] = 50
    cells[1, 0, 1] = 50
    return JointCounts3(cells)


def test_joint_counts_reject_bad_shapes():
    with pytest.raises(ValidationError):
        JointCounts3(np.zeros((2, 2), dtype=int))
    with pytest.raises(ValidationError):
        JointCounts3(np.zeros((2, 2, 3), dtype=int))
    with pytest.raises(ValidationError):
        JointCounts3(np.zeros((1, 1, 1), dtype=int))


def test_joint_counts_reject_class_count_above_limit():
    cells = np.zeros((201, 201, 201), dtype=np.int8)
    cells[0, 0, 0] = 1
    with pytest.raises(ValidationError):
        JointCounts3(cells)


def test_joint_counts_reject_negative_and_fractional():
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = -1.0
    with pytest.raises(ValidationError):
        JointCounts3(bad)
    bad2 = np.zeros((2, 2, 2))
    bad2[0, 0, 0] = 1.5
    with pytest.raises(ValidationError):
        JointCounts3(bad2)


def test_joint_counts_reject_all_zero():
    with pytest.raises(ZeroTotalError):
        JointCounts3(np.zeros((2, 2, 2), dtype=int))


def test_joint_counts_reject_mismatched_labels():
    cells = np.zeros((2, 2, 2), dtype=int)
    cells[0, 0, 0] = 1
    with pytest.raises(ValidationError):
        JointCounts3(cells, labels=("only-one",))


def test_joint_prob_table_rejects_bad_sum():
    with pytest.raises(ValidationError):
        ProbTable3(np.full((2, 2, 2), 0.25))


def test_joint_prob_table_rejects_nan_cell():
    cube = np.full((2, 2, 2), 0.125)
    cube[1, 0, 1] = math.nan
    with pytest.raises(ValidationError, match=r"^cell probabilities must lie in \[0, 1\]$"):
        ProbTable3(cube)


def test_marginalize_hand_sums():
    cube = np.arange(8, dtype=float).reshape(2, 2, 2)
    cube /= cube.sum()
    p3 = ProbTable3(cube)
    m1 = marginalize(p3, 1)
    m2 = marginalize(p3, 2)
    assert np.allclose(m1.pi, cube.sum(axis=1), atol=EXACT_TOL)
    assert np.allclose(m2.pi, cube.sum(axis=0), atol=EXACT_TOL)
    with pytest.raises(ValidationError):
        marginalize(p3, 3)


def test_paired_gradients_match_finite_differences():
    rng = np.random.default_rng(20260420)
    for r in (2, 3, 4):
        for _ in range(FD_SWEEP):
            cube = random_paired_table(rng, r)
            p3 = ProbTable3(cube)
            for kind, fn in METRIC_FNS.items():
                for method, axis in ((1, 1), (2, 0)):
                    analytic = lifted(p3, kind, method)
                    projected = project_gradient(analytic, cube)
                    fd = fd_gradient(
                        lambda m, fn=fn, axis=axis: fn(ProbTable2(m.sum(axis=axis))),
                        cube)
                    err = float(np.max(np.abs(fd - projected))
                                / np.max(np.abs(projected)))
                    assert err < FD_TOL


def test_micro_cov_block_closed_form():
    rng = np.random.default_rng(20260421)
    for r in (2, 3, 4):
        for _ in range(10):
            cube = random_paired_table(rng, r)
            p3 = ProbTable3(cube)
            block = paired_cov_block(*marginal_gradients(p3, MetricKind.MICRO), p3)
            c = r / (r - 1.0)
            acc1 = float(np.einsum("iji->", cube))
            acc2 = float(np.einsum("ijj->", cube))
            triple = float(np.einsum("iii->", cube))
            assert math.isclose(block.var_1, c * c * acc1 * (1.0 - acc1),
                                abs_tol=EXACT_TOL)
            assert math.isclose(block.var_2, c * c * acc2 * (1.0 - acc2),
                                abs_tol=EXACT_TOL)
            assert math.isclose(block.cov, c * c * (triple - acc1 * acc2),
                                abs_tol=EXACT_TOL)


def test_cov_block_matches_lifted_quadratic_forms():
    rng = np.random.default_rng(20260426)
    for r in (2, 3, 4):
        for _ in range(5):
            cube = random_paired_table(rng, r)
            p3 = ProbTable3(cube)
            for kind in MetricKind:
                block = paired_cov_block(*marginal_gradients(p3, kind), p3)
                a = lifted(p3, kind, 1)
                b = lifted(p3, kind, 2)
                mean_a = float((cube * a).sum())
                mean_b = float((cube * b).sum())
                assert math.isclose(block.var_1, variance_quadratic(a, cube),
                                    abs_tol=EXACT_TOL)
                assert math.isclose(block.var_2, variance_quadratic(b, cube),
                                    abs_tol=EXACT_TOL)
                assert math.isclose(block.cov,
                                    float((cube * a * b).sum()) - mean_a * mean_b,
                                    abs_tol=EXACT_TOL)


def test_cov_block_rejects_mismatched_class_count():
    p3 = ProbTable3(random_paired_table(np.random.default_rng(20260423), 3))
    grad_1, _ = marginal_gradients(p3, MetricKind.MICRO)
    small = gradient(marginalize(ProbTable3(np.full((2, 2, 2), 0.125)), 2),
                     MetricKind.MICRO)
    with pytest.raises(ValidationError):
        paired_cov_block(grad_1, small, p3)


def test_cov_block_validates_cauchy_schwarz():
    with pytest.raises(ValidationError):
        PairedCovBlock(1.0, 1.0, 1.5)
    with pytest.raises(ValidationError):
        PairedCovBlock(-0.1, 1.0, 0.0)
    PairedCovBlock(1.0, 1.0, 1.0)


def test_diff_variance_arithmetic():
    block = PairedCovBlock(0.9, 0.4, 0.3)
    assert math.isclose(diff_variance(block), 0.9 + 0.4 - 0.6, abs_tol=EXACT_TOL)
    assert math.isclose(diff_variance(block, independent=True), 1.3,
                        abs_tol=EXACT_TOL)


def test_diff_wald_carries_its_own_method_tag():
    ci = diff_wald_ci(0.2, 0.5, 250)
    base = wald_ci(0.2, 0.5, 250)
    assert ci.method is CIMethod.WALD_DIFF
    assert ci.lower == base.lower and ci.upper == base.upper


def test_diff_wald_flags_boundary_differences():
    assert diff_wald_ci(2.0, 0.0, 10).flags == ("degenerate_estimate",)
    assert diff_wald_ci(-2.0, 0.3, 10).flags == ("degenerate_estimate",)
    assert diff_wald_ci(1.5, 0.3, 10).flags == ()
    result = paired_inference(perfect_vs_wrong_counts(), MetricKind.MACRO)
    assert result.difference == 2.0
    assert result.interval.flags == ("degenerate_estimate",)


def test_g_transform_identity_and_recompute():
    rng = np.random.default_rng(20260422)
    for _ in range(10):
        cube = random_paired_table(rng, 3)
        p3 = ProbTable3(cube)
        diff = macro_mcc(marginalize(p3, 1)) - macro_mcc(marginalize(p3, 2))
        grad_diff = lifted(p3, MetricKind.MACRO, 1) - lifted(p3, MetricKind.MACRO, 2)
        var_diff = variance_quadratic(grad_diff, cube)
        ci = diff_g_ci(diff, var_diff, 300)
        var_g = var_diff * (2.0 / (4.0 - diff * diff)) ** 2
        half = normal_quantile(0.975) * math.sqrt(var_g / 300.0)
        center = 0.5 * math.log((2.0 + diff) / (2.0 - diff))
        assert math.isclose(2.0 * math.tanh(center), diff, abs_tol=EXACT_TOL)
        assert math.isclose(ci.lower, 2.0 * math.tanh(center - half),
                            abs_tol=EXACT_TOL)
        assert math.isclose(ci.upper, 2.0 * math.tanh(center + half),
                            abs_tol=EXACT_TOL)
        assert -2.0 < ci.lower <= ci.upper < 2.0


def test_g_transform_flags_boundary_difference():
    result = paired_inference(perfect_vs_wrong_counts(), MetricKind.MACRO,
                              method=CIMethod.G_TRANSFORM)
    assert result.difference == 2.0
    assert result.interval.flags == ("degenerate_estimate",)
    assert -2.0 < result.interval.lower <= result.interval.upper < 2.0


def test_diff_g_ci_rejects_negative_variance():
    with pytest.raises(ValidationError):
        diff_g_ci(0.1, -1e-3, 100)


def test_paired_inference_composes_the_pipeline():
    rng = np.random.default_rng(20260424)
    cube = np.round(random_paired_table(rng, 3) * 600).astype(np.int64)
    cube[cube == 0] = 1
    counts = JointCounts3(cube)
    p3 = normalize_joint_counts(counts)
    for kind in MetricKind:
        result = paired_inference(counts, kind)
        est_1 = estimate(marginalize(p3, 1), kind)
        est_2 = estimate(marginalize(p3, 2), kind)
        assert result.estimate_1 == est_1
        assert result.estimate_2 == est_2
        assert math.isclose(result.difference, est_1 - est_2, abs_tol=EXACT_TOL)
        assert result.block == paired_cov_block(*marginal_gradients(p3, kind), p3)
        grad_diff = lifted(p3, kind, 1) - lifted(p3, kind, 2)
        direct = diff_wald_ci(result.difference, variance_quadratic(grad_diff, p3.pi),
                              counts.n)
        assert result.interval.variance == direct.variance
        assert result.interval.lower == direct.lower
        assert result.interval.upper == direct.upper


def test_paired_inference_independent_drops_covariance():
    rng = np.random.default_rng(20260425)
    cube = np.round(random_paired_table(rng, 3) * 600).astype(np.int64)
    cube[cube == 0] = 1
    counts = JointCounts3(cube)
    for method in (CIMethod.WALD_DIFF, CIMethod.G_TRANSFORM):
        paired = paired_inference(counts, MetricKind.MICRO, method=method)
        indep = paired_inference(counts, MetricKind.MICRO, method=method,
                                 independent=True)
        sign = 1.0 if paired.block.cov > 0.0 else -1.0
        assert sign * (indep.interval.width - paired.interval.width) > 0.0


def test_wald_and_g_share_the_difference_variance():
    rng = np.random.default_rng(20260427)
    for r in (2, 3, 4):
        for _ in range(5):
            cube = np.round(random_paired_table(rng, r) * 400 * r).astype(np.int64) + 1
            counts = JointCounts3(cube)
            for kind in MetricKind:
                for independent in (False, True):
                    wald = paired_inference(counts, kind, CIMethod.WALD_DIFF,
                                            independent=independent)
                    g = paired_inference(counts, kind, CIMethod.G_TRANSFORM,
                                         independent=independent)
                    var_diff = wald.interval.variance
                    if independent:
                        assert var_diff == diff_variance(wald.block, independent=True)
                    d = g.difference
                    assert g.interval.variance == var_diff * (2.0 / (4.0 - d * d)) ** 2


def test_paired_inference_rejects_single_table_methods():
    counts = perfect_vs_wrong_counts()
    for method in (CIMethod.WALD, CIMethod.FISHER_Z):
        with pytest.raises(ValidationError):
            paired_inference(counts, MetricKind.MICRO, method=method)
