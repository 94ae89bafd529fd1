"""Difference inference for two classifiers scored on the same subjects.

The joint outcome of one subject is a triple (method-1 prediction, method-2
prediction, truth), so the data form an r*r*r table with cells
``pi[i, j, k] = P(X1 = i, X2 = j, Y = k)``.  ``JointCounts3`` and
``ProbTable3`` are the rank-3 tables of :mod:`multimcc.metrics`, re-exported
here: one implementation serves both ranks, and ``normalize_joint_counts`` is
:func:`~multimcc.metrics.normalize_counts` itself.

Each method's own confusion table is a linear marginal of the joint table
(sum out the other method's axis), which has two consequences used
throughout:

* a metric of method m is the single-table metric composed with a linear
  map, so its gradient in the joint cells is the r*r gradient of the
  marginal table broadcast over the summed-out axis.  The broadcast stays a
  view: no r*r*r gradient is ever stored, and the single-table
  :func:`~multimcc.inference.gradient` is the only gradient code;
* the two sqrt(n)-scaled metric estimates are jointly normal with a
  covariance ``cov`` that the difference variance must subtract twice.

Intervals for the difference come as plain Wald or as Wald on the
g(x) = 0.5*log((2+x)/(2-x)) scale, the analogue of the atanh transform for a
quantity that lives in (-2, 2).  Both take the same raw-scale difference
variance and differ only in the scale the interval is built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMarginalError, ValidationError
from .inference import (
    VARIANCE_CLAMP,
    CIMethod,
    Gradient2,
    IntervalEstimate,
    _PIPELINE_UNDEFINED,
    _gradient_stack,
    _stack_sum,
    _transformed_ci,
    _variance_stack,
    _wald_ci,
)
from .metrics import (
    MAX_JOINT_CLASSES,
    JointCounts3,
    MetricKind,
    ProbTable2,
    ProbTable3,
    _estimate_stack,
    _stack_marginals,
    normalize_counts,
)

__all__ = [
    "MAX_JOINT_CLASSES",
    "JointCounts3",
    "ProbTable3",
    "PairedCovBlock",
    "PairedResult",
    "normalize_joint_counts",
    "marginalize",
    "paired_cov_block",
    "diff_variance",
    "diff_wald_ci",
    "diff_g_ci",
    "paired_inference",
]

normalize_joint_counts = normalize_counts

CS_SLACK = 1e-10


@dataclass(frozen=True)
class PairedCovBlock:
    """Asymptotic second moments of the two sqrt(n)-scaled method metrics.

    ``var_1`` and ``var_2`` are the per-method variances, ``cov`` their
    covariance; all exclude the 1/n factor, which interval constructors apply
    last.
    """

    var_1: float
    var_2: float
    cov: float

    def __post_init__(self) -> None:
        if self.var_1 < 0.0 or self.var_2 < 0.0:
            raise ValidationError("variances must be non-negative")
        if abs(self.cov) > math.sqrt(self.var_1 * self.var_2) + CS_SLACK:
            raise ValidationError(
                f"covariance {self.cov!r} violates the Cauchy-Schwarz bound")


@dataclass(frozen=True)
class PairedResult:
    """Per-method estimates, their difference, and the difference interval."""

    estimate_1: float
    estimate_2: float
    difference: float
    interval: IntervalEstimate
    block: PairedCovBlock


def marginalize(p3: ProbTable3, method: int) -> ProbTable2:
    """Confusion table of one method: sum the other method's axis out."""
    if method not in (1, 2):
        raise ValidationError(f"method must be 1 or 2, got {method!r}")
    cells = p3.pi.sum(axis=1) if method == 1 else p3.pi.sum(axis=0)
    return ProbTable2(cells)


def _joint_views(grad_1: np.ndarray, grad_2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint-cell gradients of two (m, r, r) marginal gradient stacks, as views.

    Marginalization is linear, so the joint-cell partial at (i, j, k) equals
    the marginal-table partial at (i, k) for method 1, or (j, k) for method 2.
    """
    return grad_1[:, :, None, :], grad_2[:, None, :, :]


def _cov_block_stack(a: np.ndarray, b: np.ndarray, p3: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """var_1, var_2 and cov of joint gradients ``a`` and ``b`` over an (m, r, r, r) stack."""
    # pi * a and pi * b are each formed once, and only one is held at a time:
    # the same float operations as summing pi * a * b, with fewer r**3 products.
    weighted = p3 * a
    mean_a = _stack_sum(weighted)
    var_1 = _stack_sum(weighted * a) - mean_a * mean_a
    cross = _stack_sum(weighted * b)
    weighted = p3 * b
    mean_b = _stack_sum(weighted)
    var_2 = _stack_sum(weighted * b) - mean_b * mean_b
    cov = cross - mean_a * mean_b
    if np.any(var_1 < -VARIANCE_CLAMP) or np.any(var_2 < -VARIANCE_CLAMP):
        raise ValidationError("variance quadratic form went negative")
    var_1 = np.where(0.0 > var_1, 0.0, var_1)
    var_2 = np.where(0.0 > var_2, 0.0, var_2)
    if np.any(np.abs(cov) > np.sqrt(var_1 * var_2) + CS_SLACK):
        raise ValidationError("covariance violates the Cauchy-Schwarz bound")
    return var_1, var_2, cov


def paired_cov_block(grad_1: Gradient2, grad_2: Gradient2, p3: ProbTable3) -> PairedCovBlock:
    """Variances and covariance of the two metrics under joint sampling.

    ``grad_1`` and ``grad_2`` are the r*r gradients of each method's metric in
    its own marginal table, as :func:`~multimcc.inference.gradient` returns them.
    """
    if not grad_1.r == grad_2.r == p3.r:
        raise ValidationError("gradients and table must share a class count")
    a, b = _joint_views(grad_1.values[None], grad_2.values[None])
    var_1, var_2, cov = _cov_block_stack(a, b, p3.pi[None])
    return PairedCovBlock(float(var_1[0]), float(var_2[0]), float(cov[0]))


def diff_variance(block: PairedCovBlock, independent: bool = False) -> float:
    """Asymptotic variance of the sqrt(n)-scaled difference.

    ``independent`` drops the covariance term, for two methods evaluated on
    unrelated samples of the same size.
    """
    v = block.var_1 + block.var_2
    if not independent:
        v -= 2.0 * block.cov
    if v < -VARIANCE_CLAMP:
        raise ValidationError(f"difference variance came out {v!r}")
    return max(v, 0.0)


def _joint_marginals(p3: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """:func:`_stack_marginals` of each method's confusion tables in an (m, r, r, r) stack."""
    return [_stack_marginals(p3.sum(axis=2)), _stack_marginals(p3.sum(axis=1))]


def _paired_moments_stack(p3: np.ndarray, marginals: list[tuple[np.ndarray, ...]],
                          kind: MetricKind):
    """Both estimates, their covariance block and the difference variance of a stack.

    ``p3`` is an (m, r, r, r) stack and ``marginals`` its
    :func:`_joint_marginals`.  Returns ``(undefined, est_1, est_2, (var_1,
    var_2, cov), var_diff)``: ``undefined[k]`` is true where either method's
    gradient is undefined on table k, and the other arrays hold the remaining
    tables, in order.  The difference variance is the quadratic form of the
    difference gradient itself, which avoids the cancellation in
    var_1 + var_2 - 2*cov.
    """
    (grad_1, bad_1), (grad_2, bad_2) = (_gradient_stack(m, kind) for m in marginals)
    undefined = bad_1 | bad_2
    if undefined.any():
        keep = ~undefined
        p3, grad_1, grad_2 = p3[keep], grad_1[keep], grad_2[keep]
        marginals = [tuple(x[keep] for x in m) for m in marginals]
    est_1, est_2 = (_estimate_stack(m, kind)[0] for m in marginals)
    a, b = _joint_views(grad_1, grad_2)
    return undefined, est_1, est_2, _cov_block_stack(a, b, p3), _variance_stack(a - b, p3)


def diff_wald_ci(diff: float, variance: float, n: int, alpha: float = 0.05) -> IntervalEstimate:
    """Plain Wald interval for the difference; |diff| >= 2 is flagged ``degenerate_estimate``."""
    return _wald_ci(diff, variance, n, alpha, CIMethod.WALD_DIFF)


def diff_g_ci(diff: float, variance: float, n: int, alpha: float = 0.05) -> IntervalEstimate:
    """Wald interval on the g scale, mapped back through 2*tanh.

    ``variance`` is the raw-scale difference variance, as for
    :func:`diff_wald_ci`; the reported variance is its g-scale image.
    """
    return _transformed_ci(CIMethod.G_TRANSFORM, diff, variance, n, alpha)


def paired_inference(counts: JointCounts3, kind: MetricKind,
                     method: CIMethod = CIMethod.WALD_DIFF, alpha: float = 0.05,
                     independent: bool = False) -> PairedResult:
    """Full pipeline from joint counts to a difference interval."""
    p3 = normalize_counts(counts)
    return _joint_inference(p3, _joint_marginals(p3.pi[None]), counts.n, kind, method,
                            alpha, independent)


def _joint_inference(p3: ProbTable3, marginals: list[tuple[np.ndarray, ...]], n: int,
                     kind: MetricKind, method: CIMethod, alpha: float,
                     independent: bool) -> PairedResult:
    """:func:`paired_inference` on counts of total ``n`` already normalized to ``p3``.

    ``marginals`` is :func:`_joint_marginals` of ``p3`` as a stack of one.
    """
    if method not in (CIMethod.WALD_DIFF, CIMethod.G_TRANSFORM):
        raise ValidationError(
            f"paired inference supports WALD_DIFF or G_TRANSFORM, got {method!r}")
    undefined, est_1, est_2, (var_1, var_2, cov), var_diff = _paired_moments_stack(
        p3.pi[None], marginals, kind)
    if undefined[0]:
        raise DegenerateMarginalError(_PIPELINE_UNDEFINED[kind])
    est_1, est_2 = float(est_1[0]), float(est_2[0])
    block = PairedCovBlock(float(var_1[0]), float(var_2[0]), float(cov[0]))
    diff = est_1 - est_2
    var_diff = diff_variance(block, independent=True) if independent else float(var_diff[0])
    interval = diff_wald_ci if method is CIMethod.WALD_DIFF else diff_g_ci
    ci = interval(diff, var_diff, n, alpha)
    return PairedResult(est_1, est_2, diff, ci, block)
