"""Gradient, variance, and interval tests for single-table inference."""

import math

import numpy as np
import pytest
import scipy.stats

from multimcc import (
    CIMethod,
    ConfusionCounts2,
    DegenerateMarginalError,
    Gradient2,
    IntervalEstimate,
    InvalidAlphaError,
    MetricKind,
    ProbTable2,
    ValidationError,
    asymptotic_variance,
    fisher_z_ci,
    grad_macro,
    grad_micro,
    gradient,
    macro_mcc,
    micro_mcc,
    micro_star_mcc,
    normal_quantile,
    normalize_counts,
    single_inference,
    variance_quadratic,
    wald_ci,
)
from multimcc.inference import MIN_ALPHA, _two_sided_z
from helpers import fd_relative_error, random_single_table

QUANTILE_TOL = 1e-9
FD_TOL = 1e-6
CLOSED_FORM_TOL = 1e-12
EXACT_TOL = 1e-12
FD_SWEEP = 12

Z_975 = 1.9599639845400538


def test_normal_quantile_matches_scipy_on_grid():
    grid = (1e-10, 1e-6, 0.001, 0.02425, 0.025, 0.05, 0.1, 0.3, 0.5,
            0.7, 0.9, 0.95, 0.975, 0.999, 1.0 - 1e-6, 1.0 - 1e-10)
    for q in grid:
        assert math.isclose(normal_quantile(q), float(scipy.stats.norm.ppf(q)),
                            abs_tol=QUANTILE_TOL)


def test_normal_quantile_matches_scipy_on_random_sweep():
    rng = np.random.default_rng(20260410)
    for q in rng.uniform(1e-6, 1.0 - 1e-6, size=500):
        assert math.isclose(normal_quantile(float(q)),
                            float(scipy.stats.norm.ppf(q)), abs_tol=QUANTILE_TOL)


def test_normal_quantile_half_is_zero():
    assert normal_quantile(0.5) == 0.0


def test_normal_quantile_reference_point():
    assert math.isclose(normal_quantile(0.975), Z_975, abs_tol=QUANTILE_TOL)


def test_normal_quantile_rejects_out_of_range():
    for q in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValidationError):
            normal_quantile(q)


def test_two_sided_z_keeps_its_bits_at_common_levels():
    pinned = {0.5: 0.674489750196082, 0.1: 1.6448536269514726, 0.05: Z_975}
    for alpha, z in pinned.items():
        assert _two_sided_z(alpha) == z == normal_quantile(1.0 - alpha / 2.0)


def test_two_sided_z_matches_scipy_in_the_far_tail():
    for alpha in (1e-10, 1e-100, 1e-300, MIN_ALPHA):
        want = float(scipy.stats.norm.isf(alpha / 2.0))
        assert math.isclose(_two_sided_z(alpha), want, rel_tol=1e-15, abs_tol=0.0), alpha


def test_tiny_alpha_intervals():
    ci = wald_ci(0.5, 1.0, 400, alpha=1e-300)
    half = float(scipy.stats.norm.isf(0.5e-300)) / 20.0
    assert math.isclose(ci.upper - ci.estimate, half, rel_tol=1e-14)
    with pytest.raises(InvalidAlphaError):
        wald_ci(0.5, 1.0, 400, alpha=MIN_ALPHA / 4.0)
    with pytest.raises(InvalidAlphaError):
        wald_ci(0.5, 1.0, 400, alpha=5e-324)


def test_wald_flags_boundary_estimates():
    assert wald_ci(1.0, 0.0, 10).flags == ("degenerate_estimate",)
    assert wald_ci(-1.0, 0.5, 10).flags == ("degenerate_estimate",)
    assert wald_ci(0.999, 0.5, 10).flags == ()
    perfect = ConfusionCounts2(np.array([[5, 0], [0, 5]]))
    for kind in MetricKind:
        ci = single_inference(perfect, kind)
        assert (ci.lower, ci.upper) == (1.0, 1.0)
        assert ci.flags == ("degenerate_estimate",)


def test_gradient_wrapper_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        Gradient2(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        Gradient2(np.array([[0.0, np.inf], [0.0, 0.0]]))


def test_macro_gradient_matches_finite_differences():
    rng = np.random.default_rng(20260411)
    for r in (2, 3, 4, 6):
        for _ in range(FD_SWEEP):
            pi = random_single_table(rng, r)
            p = ProbTable2(pi)
            err = fd_relative_error(lambda m: macro_mcc(ProbTable2(m)),
                                    grad_macro(p).values, pi)
            assert err < FD_TOL


def test_micro_gradient_matches_finite_differences():
    rng = np.random.default_rng(20260412)
    for r in (2, 3, 4, 6):
        for _ in range(FD_SWEEP):
            pi = random_single_table(rng, r)
            p = ProbTable2(pi)
            err = fd_relative_error(lambda m: micro_mcc(ProbTable2(m)),
                                    grad_micro(p).values, pi)
            assert err < FD_TOL


def test_micro_star_gradient_matches_finite_differences():
    rng = np.random.default_rng(20260413)
    for r in (2, 3, 4, 6):
        for _ in range(FD_SWEEP):
            pi = random_single_table(rng, r)
            p = ProbTable2(pi)
            err = fd_relative_error(lambda m: micro_star_mcc(ProbTable2(m)),
                                    gradient(p, MetricKind.MICRO_STAR).values, pi)
            assert err < FD_TOL


def test_macro_gradient_rejects_zero_marginal():
    p = normalize_counts(ConfusionCounts2(np.array([[5, 1, 0], [1, 5, 0], [0, 0, 0]])))
    with pytest.raises(DegenerateMarginalError):
        grad_macro(p)


def test_micro_star_gradient_rejects_saturated_row():
    p = normalize_counts(ConfusionCounts2(np.array([[5, 5], [0, 0]])))
    with pytest.raises(DegenerateMarginalError):
        gradient(p, MetricKind.MICRO_STAR)


def test_gradient_dispatch_rejects_unknown_kind():
    p = normalize_counts(ConfusionCounts2(np.eye(3, dtype=int) * 5))
    with pytest.raises(ValidationError):
        gradient(p, "mim")


def test_micro_variance_closed_form():
    rng = np.random.default_rng(20260414)
    for r in (2, 3, 5):
        for _ in range(20):
            pi = random_single_table(rng, r)
            p = ProbTable2(pi)
            acc = float(pi.trace())
            expected = (r / (r - 1.0)) ** 2 * acc * (1.0 - acc)
            got = asymptotic_variance(grad_micro(p), p)
            assert math.isclose(got, expected, abs_tol=CLOSED_FORM_TOL)


def test_variance_quadratic_clamps_rounding_noise():
    pi = np.full((2, 2), 0.25)
    constant = np.full((2, 2), 0.1)
    got = variance_quadratic(constant, pi)
    assert 0.0 <= got < 1e-15


def test_asymptotic_variance_rejects_shape_mismatch():
    p = normalize_counts(ConfusionCounts2(np.eye(3, dtype=int) * 5))
    with pytest.raises(ValidationError):
        asymptotic_variance(Gradient2(np.eye(2)), p)


def test_wald_interval_hand_value():
    ci = wald_ci(0.5, 1.0, 400)
    assert math.isclose(ci.lower, 0.5 - Z_975 / 20.0, abs_tol=EXACT_TOL)
    assert math.isclose(ci.upper, 0.5 + Z_975 / 20.0, abs_tol=EXACT_TOL)
    assert ci.method is CIMethod.WALD
    assert math.isclose(ci.width, 2.0 * Z_975 / 20.0, abs_tol=EXACT_TOL)


def test_wald_interval_can_leave_unit_range():
    ci = wald_ci(0.99, 2.0, 50)
    assert ci.upper > 1.0


def test_wald_rejects_bad_alpha_and_variance():
    with pytest.raises(InvalidAlphaError):
        wald_ci(0.0, 1.0, 100, alpha=0.0)
    with pytest.raises(InvalidAlphaError):
        wald_ci(0.0, 1.0, 100, alpha=1.0)
    with pytest.raises(ValidationError):
        wald_ci(0.0, -0.5, 100)


def test_fisher_interval_recomputes_from_definition():
    rng = np.random.default_rng(20260415)
    for _ in range(20):
        pi = random_single_table(rng, 3)
        p = ProbTable2(pi)
        est = macro_mcc(p)
        grad = grad_macro(p)
        ci = fisher_z_ci(est, grad, p, 200)
        base = asymptotic_variance(grad, p)
        var_z = base / (1.0 - est * est) ** 2
        half = Z_975 * math.sqrt(var_z / 200.0)
        assert math.isclose(ci.lower, math.tanh(math.atanh(est) - half),
                            abs_tol=QUANTILE_TOL)
        assert math.isclose(ci.upper, math.tanh(math.atanh(est) + half),
                            abs_tol=QUANTILE_TOL)
        assert ci.flags == ()
        assert -1.0 < ci.lower <= ci.upper < 1.0


def test_fisher_interval_flags_boundary_estimate():
    p = normalize_counts(ConfusionCounts2(np.array([[50, 0], [0, 50]])))
    est = macro_mcc(p)
    assert est == 1.0
    ci = fisher_z_ci(est, grad_macro(p), p, 100)
    assert ci.flags == ("degenerate_estimate",)
    assert abs(ci.estimate) < 1.0
    assert -1.0 < ci.lower <= ci.upper < 1.0


def test_fisher_interval_survives_tanh_saturation():
    # An extreme interior estimate blows the transformed variance up by
    # 1/(1-est^2)^2, the half-width passes the point where tanh returns
    # exactly 1.0, and the bounds must still land strictly inside (-1, 1).
    p = normalize_counts(ConfusionCounts2(np.array([[28, 2, 3], [3, 28, 2],
                                                    [2, 3, 29]])))
    ci = fisher_z_ci(0.999999, grad_macro(p), p, 1)
    assert ci.flags == ()
    assert -1.0 < ci.lower <= ci.upper < 1.0
    assert ci.upper == math.nextafter(1.0, 0.0)
    assert ci.lower == -math.nextafter(1.0, 0.0)


def test_interval_estimate_validates_fields():
    with pytest.raises(InvalidAlphaError):
        IntervalEstimate(0.0, 1.0, 100, 1.5, -0.1, 0.1, CIMethod.WALD)
    with pytest.raises(ValidationError):
        IntervalEstimate(0.0, 1.0, 0, 0.05, -0.1, 0.1, CIMethod.WALD)
    with pytest.raises(ValidationError):
        IntervalEstimate(0.0, -1.0, 100, 0.05, -0.1, 0.1, CIMethod.WALD)
    with pytest.raises(ValidationError):
        IntervalEstimate(0.5, 1.0, 100, 0.05, -0.1, 0.1, CIMethod.WALD)
    with pytest.raises(ValidationError):
        IntervalEstimate(0.0, 1.0, 100, 0.05, -1.5, 0.1, CIMethod.FISHER_Z)


def test_single_inference_composes_the_pipeline():
    counts = ConfusionCounts2(np.array([[28, 2, 3], [3, 28, 2], [2, 3, 29]]))
    p = normalize_counts(counts)
    for kind in MetricKind:
        est = {MetricKind.MACRO: macro_mcc, MetricKind.MICRO: micro_mcc,
               MetricKind.MICRO_STAR: micro_star_mcc}[kind](p)
        grad = gradient(p, kind)
        direct = wald_ci(est, asymptotic_variance(grad, p), counts.n)
        via = single_inference(counts, kind)
        assert via.estimate == direct.estimate
        assert via.lower == direct.lower
        assert via.upper == direct.upper
        fz = single_inference(counts, kind, method=CIMethod.FISHER_Z)
        assert fz.method is CIMethod.FISHER_Z
        assert -1.0 < fz.lower <= fz.upper < 1.0


def test_single_inference_propagates_degeneracy():
    counts = ConfusionCounts2(np.array([[5, 1, 0], [1, 5, 0], [0, 0, 0]]))
    with pytest.raises(DegenerateMarginalError):
        single_inference(counts, MetricKind.MACRO)


def test_single_inference_rejects_paired_methods():
    counts = ConfusionCounts2(np.array([[40, 10], [5, 45]]))
    with pytest.raises(ValidationError):
        single_inference(counts, MetricKind.MICRO, method=CIMethod.G_TRANSFORM)
