"""Point-estimator tests: validation, hand values, and algebraic identities."""

import math

import numpy as np
import pytest

from multimcc import (
    ConfusionCounts2,
    DegenerateMarginalError,
    MetricKind,
    ProbTable2,
    ValidationError,
    ZeroTotalError,
    binary_mcc,
    degenerate_classes,
    estimate,
    macro_mcc,
    micro_mcc,
    micro_star_mcc,
    normalize_counts,
)
from helpers import classwise_rates, micro_mcc_pooled, random_single_table

EXACT_TOL = 1e-12
AFFINE_TOL = 1e-14
SWEEP_COUNT = 50

BALANCED_COUNTS = np.array([[28, 2, 3], [3, 28, 2], [2, 3, 29]])
BALANCED_MACRO = 0.7749665221131418
BALANCED_MICRO = 0.775
BALANCED_MICRO_STAR = 0.7749774977497751


def balanced_table() -> ProbTable2:
    return normalize_counts(ConfusionCounts2(BALANCED_COUNTS))


def test_counts_reject_negative_cells():
    with pytest.raises(ValidationError):
        ConfusionCounts2(np.array([[3, -1], [0, 2]]))


def test_counts_reject_non_square():
    with pytest.raises(ValidationError):
        ConfusionCounts2(np.zeros((2, 3), dtype=int))


def test_counts_reject_single_class():
    with pytest.raises(ValidationError):
        ConfusionCounts2(np.array([[4]]))


def test_counts_reject_class_count_above_limit():
    with pytest.raises(ValidationError):
        ConfusionCounts2(np.eye(1001, dtype=np.int64))


def test_counts_accept_whole_floats():
    counts = ConfusionCounts2(np.array([[3.0, 1.0], [0.0, 2.0]]))
    assert counts.cells.dtype == np.int64
    assert counts.n == 6


def test_counts_reject_fractional_floats():
    with pytest.raises(ValidationError):
        ConfusionCounts2(np.array([[3.5, 1.0], [0.0, 2.0]]))


def test_counts_reject_all_zero_table():
    with pytest.raises(ZeroTotalError):
        ConfusionCounts2(np.zeros((2, 2), dtype=int))


def test_counts_reject_mismatched_labels():
    with pytest.raises(ValidationError):
        ConfusionCounts2(np.eye(3, dtype=int), labels=("a", "b"))


def test_counts_cells_are_frozen():
    counts = ConfusionCounts2(np.array([[3, 1], [0, 2]]))
    with pytest.raises(ValueError):
        counts.cells[0, 0] = 9


def test_prob_table_rejects_bad_sum():
    with pytest.raises(ValidationError):
        ProbTable2(np.array([[0.5, 0.2], [0.1, 0.1]]))


def test_prob_table_rejects_negative_probability():
    with pytest.raises(ValidationError):
        ProbTable2(np.array([[0.6, -0.1], [0.3, 0.2]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_prob_table_rejects_nan_and_infinite_cells(bad):
    with pytest.raises(ValidationError, match=r"^cell probabilities must lie in \[0, 1\]$"):
        ProbTable2(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_normalize_counts_matches_manual_division():
    counts = ConfusionCounts2(BALANCED_COUNTS)
    p = normalize_counts(counts)
    assert np.array_equal(p.pi, BALANCED_COUNTS / 100.0)
    assert math.isclose(float(p.row_marginals.sum()), 1.0, abs_tol=EXACT_TOL)
    assert math.isclose(float(p.col_marginals.sum()), 1.0, abs_tol=EXACT_TOL)


def test_classwise_rates_hand_check():
    rates = classwise_rates(balanced_table())
    assert math.isclose(rates.tp[0], 0.28, abs_tol=EXACT_TOL)
    assert math.isclose(rates.fp[0], 0.05, abs_tol=EXACT_TOL)
    assert math.isclose(rates.fn[0], 0.05, abs_tol=EXACT_TOL)
    assert math.isclose(rates.tn[0], 0.62, abs_tol=EXACT_TOL)


def test_binary_mcc_hand_value():
    p = normalize_counts(ConfusionCounts2(np.array([[40, 10], [5, 45]])))
    expected = 0.175 / math.sqrt(0.061875)
    assert math.isclose(binary_mcc(p), expected, abs_tol=EXACT_TOL)


def test_binary_mcc_rejects_three_classes():
    with pytest.raises(ValidationError):
        binary_mcc(balanced_table())


def test_two_class_estimators_coincide():
    rng = np.random.default_rng(20260401)
    for _ in range(SWEEP_COUNT):
        p = ProbTable2(random_single_table(rng, 2))
        b = binary_mcc(p)
        assert math.isclose(macro_mcc(p), b, abs_tol=EXACT_TOL)
        assert math.isclose(micro_star_mcc(p), b, abs_tol=EXACT_TOL)


def test_micro_is_affine_in_accuracy():
    rng = np.random.default_rng(20260402)
    for r in (2, 3, 5):
        for _ in range(SWEEP_COUNT):
            p = ProbTable2(random_single_table(rng, r))
            acc = float(p.pi.trace())
            assert math.isclose(micro_mcc(p), (r * acc - 1.0) / (r - 1.0),
                                abs_tol=AFFINE_TOL)


def test_micro_matches_pooled_route():
    rng = np.random.default_rng(20260403)
    for r in (2, 3, 4, 6):
        for _ in range(SWEEP_COUNT):
            p = ProbTable2(random_single_table(rng, r))
            assert math.isclose(micro_mcc(p), micro_mcc_pooled(p), abs_tol=EXACT_TOL)


def test_unseen_class_contributes_zero_to_macro():
    p = normalize_counts(ConfusionCounts2(np.array([[5, 1, 0], [1, 5, 0], [0, 0, 0]])))
    # Classes 0 and 1 each have one-vs-rest MCC (5/12 - 1/4) / (1/4) = 2/3.
    assert degenerate_classes(p) == (2,)
    assert math.isclose(macro_mcc(p), (2.0 / 3.0 + 2.0 / 3.0 + 0.0) / 3.0, abs_tol=EXACT_TOL)


def test_micro_star_rejects_single_row_mass():
    p = normalize_counts(ConfusionCounts2(np.array([[5, 5], [0, 0]])))
    with pytest.raises(DegenerateMarginalError):
        micro_star_mcc(p)


def test_metrics_invariant_under_class_permutation():
    rng = np.random.default_rng(20260404)
    for r in (3, 4, 6):
        for _ in range(10):
            pi = random_single_table(rng, r)
            perm = rng.permutation(r)
            p = ProbTable2(pi)
            q = ProbTable2(pi[np.ix_(perm, perm)])
            assert math.isclose(macro_mcc(p), macro_mcc(q), abs_tol=EXACT_TOL)
            assert math.isclose(micro_mcc(p), micro_mcc(q), abs_tol=EXACT_TOL)
            assert math.isclose(micro_star_mcc(p), micro_star_mcc(q),
                                abs_tol=EXACT_TOL)


def test_metrics_invariant_under_transpose():
    rng = np.random.default_rng(20260405)
    for r in (2, 3, 5):
        for _ in range(10):
            pi = random_single_table(rng, r)
            p = ProbTable2(pi)
            q = ProbTable2(pi.T.copy())
            assert math.isclose(macro_mcc(p), macro_mcc(q), abs_tol=EXACT_TOL)
            assert math.isclose(micro_mcc(p), micro_mcc(q), abs_tol=EXACT_TOL)
            assert math.isclose(micro_star_mcc(p), micro_star_mcc(q),
                                abs_tol=EXACT_TOL)


def test_estimate_dispatch_matches_direct_calls():
    p = balanced_table()
    assert estimate(p, MetricKind.MACRO) == macro_mcc(p)
    assert estimate(p, MetricKind.MICRO) == micro_mcc(p)
    assert estimate(p, MetricKind.MICRO_STAR) == micro_star_mcc(p)


def test_estimate_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        estimate(balanced_table(), "mam")


def test_balanced_scenario_point_values():
    p = balanced_table()
    assert math.isclose(macro_mcc(p), BALANCED_MACRO, abs_tol=EXACT_TOL)
    assert math.isclose(micro_mcc(p), BALANCED_MICRO, abs_tol=EXACT_TOL)
    assert math.isclose(micro_star_mcc(p), BALANCED_MICRO_STAR, abs_tol=EXACT_TOL)
