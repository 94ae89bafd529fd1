"""Stacked kernels against the frozen one-table scalar functions, bit for bit.

The package has one implementation of each estimator, gradient, quadratic
form, paired moment and transformed interval: a kernel over a stack, which
the one-table API runs on a stack of one.  Every stacked entry must equal the frozen
``ref_*`` function's result on that table exactly (``np.array_equal``), and
an "undefined" mask must be true exactly where the reference raises
DegenerateMarginalError.
"""

import numpy as np
import pytest

from multimcc import (
    CIMethod,
    ConfusionCounts2,
    DegenerateMarginalError,
    JointCounts3,
    MetricKind,
    ProbTable2,
    ProbTable3,
    ValidationError,
    diff_g_ci,
    estimate,
    gradient,
    marginalize,
    paired_cov_block,
    paired_inference,
    single_inference,
)
from multimcc.inference import (
    _gradient_stack,
    _transformed_bounds,
    _transformed_ci,
    _two_sided_z,
    _variance_stack,
)
from multimcc.metrics import _estimate_stack, _stack_marginals
from multimcc.paired import _joint_marginals, _paired_moments_stack
from helpers import (
    ref_asymptotic_variance,
    ref_estimate,
    ref_fisher_z_bounds,
    ref_g_bounds,
    ref_gradient,
    ref_paired_cov_block,
    ref_paired_moments,
)

RANDOM_TABLES = 40
SAMPLED_TABLES = 40

# The class counts of the benchmark's large inputs, with fewer tables.
LARGE_SINGLE_R = 240
LARGE_PAIRED_R = 64


def table_stack(rng, r, rank, random_tables=RANDOM_TABLES, sampled_tables=SAMPLED_TABLES):
    """Random tables plus small-n sample tables with empty or saturated marginals."""
    shape = (r,) * rank
    tables = [rng.dirichlet(np.ones(r ** rank)).reshape(shape) for _ in range(random_tables)]
    weights = rng.dirichlet(np.ones(r ** rank))
    for n in (1, 2, 3, 7):
        for _ in range(sampled_tables // 4):
            tables.append(rng.multinomial(n, weights).reshape(shape) / n)
    one_column = np.zeros(shape)
    one_column[..., 0] = rng.dirichlet(np.ones(r ** (rank - 1))).reshape(shape[:-1])
    empty_row = rng.dirichlet(np.ones(r ** rank)).reshape(shape)
    empty_row[0] = 0.0
    tables += [one_column, empty_row / empty_row.sum()]
    return np.stack(tables)


INVALID = "invalid"


def reference_outcome(fn):
    """The reference result; None where it is undefined, INVALID where it fails a check."""
    try:
        return fn()
    except DegenerateMarginalError:
        return None
    except ValidationError:
        return INVALID


def split_invalid(outcomes, kernel, *stacks):
    """Drop the entries the reference rejects; the kernel must reject the whole stack.

    A marginal a rounding error away from saturation passes the undefined
    checks and makes the quadratic forms fail theirs, in the reference and
    the kernels alike.
    """
    valid = np.array([outcome is not INVALID for outcome in outcomes], dtype=bool)
    if not valid.all():
        with pytest.raises(ValidationError):
            kernel(*stacks)
    kept = [outcome for outcome in outcomes if outcome is not INVALID]
    return kept, [s[valid] for s in stacks]


def check_single_kernels(stack):
    tables = [ProbTable2(pi) for pi in stack]
    for kind in MetricKind:
        estimates = [reference_outcome(lambda p=p: ref_estimate(p, kind)) for p in tables]
        grads = [reference_outcome(lambda p=p: ref_gradient(p, kind)) for p in tables]
        raised = np.array([g is None for g in grads])
        assert not raised.all() and raised.any() == (kind is not MetricKind.MICRO)

        got_est, est_undefined = _estimate_stack(_stack_marginals(stack), kind)
        has_est = np.array([e is not None for e in estimates])
        assert np.array_equal(est_undefined, ~has_est), kind
        assert np.array_equal(got_est[has_est],
                              np.array([e for e in estimates if e is not None]))

        values, undefined = _gradient_stack(_stack_marginals(stack), kind)
        assert np.array_equal(undefined, raised), kind
        assert not np.any(~has_est & ~undefined)
        kept = [(p, g) for p, g in zip(tables, grads) if g is not None]
        assert np.array_equal(values[~undefined], np.stack([g.values for _, g in kept]))
        variances = [reference_outcome(lambda p=p, g=g: ref_asymptotic_variance(g, p))
                     for p, g in kept]
        variances, stacks = split_invalid(variances, _variance_stack,
                                          values[~undefined], stack[~undefined])
        assert np.array_equal(_variance_stack(*stacks), np.array(variances))

        # The one-table API is the kernel on a stack of one.
        for p, g in kept[:3]:
            assert estimate(p, kind) == ref_estimate(p, kind)
            assert np.array_equal(gradient(p, kind).values, g.values)


def check_paired_kernel(stack):
    for kind in MetricKind:
        moments = [reference_outcome(lambda pi=pi: ref_paired_moments(ProbTable3(pi), kind))
                   for pi in stack]
        moments, (valid_stack,) = split_invalid(
            moments, lambda s: _paired_moments_stack(s, _joint_marginals(s), kind), stack)
        raised = np.array([m is None for m in moments])
        assert not raised.all() and raised.any() == (kind is not MetricKind.MICRO)
        undefined, est_1, est_2, block, var_diff = _paired_moments_stack(
            valid_stack, _joint_marginals(valid_stack), kind)
        assert np.array_equal(undefined, raised), kind
        kept = [m for m in moments if m is not None]
        assert np.array_equal(est_1, np.array([e1 for e1, _, _, _ in kept]))
        assert np.array_equal(est_2, np.array([e2 for _, e2, _, _ in kept]))
        for got, field in zip(block, ("var_1", "var_2", "cov")):
            assert np.array_equal(got, np.array([getattr(b, field) for _, _, b, _ in kept]))
        assert np.array_equal(var_diff, np.array([v for _, _, _, v in kept]))

        # paired_cov_block is the kernel's quadratic forms on a stack of one.
        for pi in valid_stack[~undefined][:3]:
            p3 = ProbTable3(pi)
            grads = [gradient(marginalize(p3, method), kind) for method in (1, 2)]
            assert paired_cov_block(*grads, p3) == ref_paired_cov_block(*grads, p3)


def test_single_kernels_match_scalar_functions():
    rng = np.random.default_rng(20261018)
    for r in (2, 3, 4, 6):
        check_single_kernels(table_stack(rng, r, 2))
    check_single_kernels(table_stack(rng, LARGE_SINGLE_R, 2, random_tables=3, sampled_tables=4))


def test_paired_kernel_matches_scalar_core():
    rng = np.random.default_rng(20261019)
    for r in (2, 3, 4):
        check_paired_kernel(table_stack(rng, r, 3))
    check_paired_kernel(table_stack(rng, LARGE_PAIRED_R, 3, random_tables=2, sampled_tables=4))


def test_pipelines_match_frozen_reference_on_count_tables():
    rng = np.random.default_rng(20261020)
    for r in (3, 16):
        counts = rng.multinomial(50 * r * r, rng.dirichlet(np.ones(r * r))).reshape(r, r) + 1
        p = ProbTable2(counts / counts.sum())
        for kind in MetricKind:
            ci = single_inference(ConfusionCounts2(counts), kind)
            assert ci.estimate == ref_estimate(p, kind)
            assert ci.variance == ref_asymptotic_variance(ref_gradient(p, kind), p)
    for r in (3, 16):
        cube = rng.multinomial(20 * r ** 3, rng.dirichlet(np.ones(r ** 3))).reshape(r, r, r) + 1
        p3 = ProbTable3(cube / cube.sum())
        for kind in MetricKind:
            result = paired_inference(JointCounts3(cube), kind)
            est_1, est_2, block, var_diff = ref_paired_moments(p3, kind)
            assert (result.estimate_1, result.estimate_2) == (est_1, est_2)
            assert result.block == block
            assert result.interval.variance == var_diff


DEGENERATE_TEXTS = {
    MetricKind.MACRO: "macro gradient requires every marginal strictly inside (0, 1)",
    MetricKind.MICRO_STAR: "correlation undefined: all mass in a single row or column",
}


def test_degenerate_marginal_messages():
    saturated = ConfusionCounts2(np.array([[5, 5], [0, 0]]))
    p = ProbTable2(saturated.cells / saturated.n)
    with pytest.raises(DegenerateMarginalError, match=r"^correlation undefined: all mass"):
        estimate(p, MetricKind.MICRO_STAR)
    with pytest.raises(DegenerateMarginalError,
                       match=r"^correlation gradient undefined: all mass"):
        gradient(p, MetricKind.MICRO_STAR)
    with pytest.raises(DegenerateMarginalError, match=r"^macro gradient requires"):
        gradient(p, MetricKind.MACRO)
    cube = np.zeros((2, 2, 2), dtype=np.int64)
    cube[0, 0, 0] = cube[0, 1, 1] = 5
    for kind, text in DEGENERATE_TEXTS.items():
        with pytest.raises(DegenerateMarginalError) as single:
            single_inference(saturated, kind)
        with pytest.raises(DegenerateMarginalError) as joint:
            paired_inference(JointCounts3(cube), kind)
        assert str(single.value) == str(joint.value) == text


def test_kernels_accept_an_empty_stack():
    for kind in MetricKind:
        values, undefined = _gradient_stack(_stack_marginals(np.zeros((0, 3, 3))), kind)
        assert values.shape == (0, 3, 3) and undefined.shape == (0,)
        assert _variance_stack(values, np.zeros((0, 3, 3))).shape == (0,)
        empty = np.zeros((0, 3, 3, 3))
        undefined, est_1, est_2, block, var_diff = _paired_moments_stack(
            empty, _joint_marginals(empty), kind)
        assert undefined.shape == est_1.shape == est_2.shape == var_diff.shape == (0,)
        assert all(part.shape == (0,) for part in block)
    for method in (CIMethod.FISHER_Z, CIMethod.G_TRANSFORM):
        parts = _transformed_bounds(method, np.zeros(0), np.zeros(0), 5, 1.96)
        assert all(part.shape == (0,) for part in parts)


# Each transformed-interval reference with the edge of its estimate's range.
BOUND_REFERENCES = {CIMethod.FISHER_Z: (ref_fisher_z_bounds, 1.0),
                    CIMethod.G_TRANSFORM: (ref_g_bounds, 2.0)}
BOUND_SETTINGS = ((1, 0.05), (7, 0.5), (250, 1e-10), (2000, 0.05), (10 ** 6, 0.2))
BOUND_INPUTS = 25_000


def bound_inputs(rng, limit):
    """Random estimates and variances, with the boundary, the clamp and the digits near it."""
    est = rng.uniform(-limit, limit, BOUND_INPUTS)
    var = 10.0 ** rng.uniform(-12.0, 2.0, BOUND_INPUTS)
    var[::97] = 0.0
    near = 1000
    est[:near] = limit * (1.0 - 10.0 ** rng.uniform(-16.0, -1.0, near)) * rng.choice([-1, 1], near)
    edges = [limit, -limit, np.nextafter(limit, 0.0), -np.nextafter(limit, 0.0),
             limit * (1.0 - 1e-10), -limit * (1.0 - 1e-10), 1.5 * limit, -3.0 * limit,
             0.0, -0.0, 1e-300, 0.5]
    est[near:near + len(edges)] = edges
    return est, var


def test_transformed_bounds_match_frozen_scalar_formulas():
    rng = np.random.default_rng(20261018)
    for method, (reference, limit) in BOUND_REFERENCES.items():
        for n, alpha in BOUND_SETTINGS:
            est, var = bound_inputs(rng, limit)
            z = _two_sided_z(alpha)
            got = _transformed_bounds(method, est, var, n, z)
            rows = [reference(e, v, n, z) for e, v in zip(est.tolist(), var.tolist())]
            for index, part in enumerate(got):
                want = np.array([row[index] for row in rows])
                assert np.array_equal(part, want), (method, n, alpha, index)
            assert got[4].dtype == bool and got[4].sum() >= 4


def test_transformed_intervals_match_frozen_scalar_formulas():
    rng = np.random.default_rng(20261019)
    for method, (reference, limit) in BOUND_REFERENCES.items():
        est, var = bound_inputs(rng, limit)
        for e, v in zip(est[::50].tolist(), var[::50].tolist()):
            for n, alpha in BOUND_SETTINGS:
                want = reference(e, v, n, _two_sided_z(alpha))
                if method is CIMethod.G_TRANSFORM:
                    ci = diff_g_ci(e, v, n, alpha)
                else:
                    ci = _transformed_ci(method, e, v, n, alpha)
                assert (ci.estimate, ci.variance, ci.lower, ci.upper) == want[:4]
                assert ci.flags == (("degenerate_estimate",) if want[4] else ())
                assert all(type(x) is float for x in (ci.estimate, ci.variance, ci.lower))
