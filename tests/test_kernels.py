"""Stacked kernels against the scalar functions they twin, bit for bit.

The coverage harness runs each pipeline stage once over a stack of tables.
Every stacked entry must equal the scalar function's result on that table
exactly (``np.array_equal``), and a stacked "undefined" mask must be true
exactly where the scalar call raises DegenerateMarginalError.
"""

import numpy as np

from multimcc import (
    DegenerateMarginalError,
    MetricKind,
    ProbTable2,
    ProbTable3,
    asymptotic_variance,
    estimate,
    gradient,
)
from multimcc.inference import _gradient_stack, _variance_stack
from multimcc.metrics import _estimate_stack
from multimcc.paired import _paired_moments, _paired_moments_stack

RANDOM_TABLES = 40
SAMPLED_TABLES = 40


def table_stack(rng, r, rank):
    """Random tables plus small-n sample tables with empty or saturated marginals."""
    shape = (r,) * rank
    tables = [rng.dirichlet(np.ones(r ** rank)).reshape(shape) for _ in range(RANDOM_TABLES)]
    weights = rng.dirichlet(np.ones(r ** rank))
    for n in (1, 2, 3, 7):
        for _ in range(SAMPLED_TABLES // 4):
            tables.append(rng.multinomial(n, weights).reshape(shape) / n)
    one_column = np.zeros(shape)
    one_column[..., 0] = rng.dirichlet(np.ones(r ** (rank - 1))).reshape(shape[:-1])
    empty_row = rng.dirichlet(np.ones(r ** rank)).reshape(shape)
    empty_row[0] = 0.0
    tables += [one_column, empty_row / empty_row.sum()]
    return np.stack(tables)


def scalar_or_none(fn):
    try:
        return fn()
    except DegenerateMarginalError:
        return None


def test_single_kernels_match_scalar_functions():
    rng = np.random.default_rng(20261018)
    for r in (2, 3, 4, 6):
        stack = table_stack(rng, r, 2)
        tables = [ProbTable2(pi) for pi in stack]
        for kind in MetricKind:
            estimates = [scalar_or_none(lambda p=p: estimate(p, kind)) for p in tables]
            grads = [scalar_or_none(lambda p=p: gradient(p, kind)) for p in tables]
            raised = np.array([g is None for g in grads])
            assert not raised.all() and raised.any() == (kind is not MetricKind.MICRO)

            got_est = _estimate_stack(stack, kind)
            has_est = np.array([e is not None for e in estimates])
            assert np.array_equal(got_est[has_est],
                                  np.array([e for e in estimates if e is not None]))

            values, undefined = _gradient_stack(stack, kind)
            assert np.array_equal(undefined, raised), (r, kind)
            assert not np.any(~has_est & ~undefined)
            kept = [(p, g) for p, g in zip(tables, grads) if g is not None]
            assert np.array_equal(values[~undefined], np.stack([g.values for _, g in kept]))
            variance = _variance_stack(values[~undefined], stack[~undefined])
            assert np.array_equal(
                variance, np.array([asymptotic_variance(g, p) for p, g in kept]))


def test_paired_kernel_matches_scalar_core():
    rng = np.random.default_rng(20261019)
    for r in (2, 3, 4):
        stack = table_stack(rng, r, 3)
        tables = [ProbTable3(pi) for pi in stack]
        for kind in MetricKind:
            moments = [scalar_or_none(lambda p=p: _paired_moments(p, kind)) for p in tables]
            raised = np.array([m is None for m in moments])
            assert not raised.all() and raised.any() == (kind is not MetricKind.MICRO)
            undefined, diff, var_diff = _paired_moments_stack(stack, kind)
            assert np.array_equal(undefined, raised), (r, kind)
            kept = [m for m in moments if m is not None]
            assert np.array_equal(diff, np.array([e1 - e2 for e1, e2, _, _ in kept]))
            assert np.array_equal(var_diff, np.array([v for _, _, _, v in kept]))


def test_kernels_accept_an_empty_stack():
    for kind in MetricKind:
        values, undefined = _gradient_stack(np.zeros((0, 3, 3)), kind)
        assert values.shape == (0, 3, 3) and undefined.shape == (0,)
        assert _variance_stack(values, np.zeros((0, 3, 3))).shape == (0,)
        undefined, diff, var_diff = _paired_moments_stack(np.zeros((0, 3, 3, 3)), kind)
        assert undefined.shape == diff.shape == var_diff.shape == (0,)
