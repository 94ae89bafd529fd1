"""Delta-method variances and confidence intervals for a single table.

The sampling model is multinomial over the r*r cells: with ``phat`` the
vector of observed cell proportions, sqrt(n) * (phat - pi) is asymptotically
normal with covariance diag(pi) - pi pi^T.  A differentiable metric therefore
has asymptotic variance

    sum_ij pi_ij * A_ij**2 - (sum_ij pi_ij * A_ij)**2

where A holds the partial derivatives of the metric with all r*r cells
treated as free coordinates (the covariance absorbs the sum-to-one
constraint).  Two interval constructions are provided per metric: plain Wald
on the raw scale, and Wald on the atanh scale mapped back through tanh, which
keeps the bounds inside (-1, 1).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMarginalError, InvalidAlphaError, ValidationError
from .metrics import (
    ConfusionCounts2,
    MetricKind,
    ProbTable2,
    _CORRELATION_UNDEFINED,
    _estimate_stack,
    _lookup,
    _macro_terms,
    _micro_star_terms,
    _table_marginals,
    normalize_counts,
)

__all__ = [
    "CIMethod",
    "Gradient2",
    "IntervalEstimate",
    "normal_quantile",
    "grad_macro",
    "grad_micro",
    "gradient",
    "variance_quadratic",
    "asymptotic_variance",
    "wald_ci",
    "fisher_z_ci",
    "single_inference",
]

# Quadratic forms in exact arithmetic are variances and cannot go negative;
# anything below this is rounding noise, anything beyond it is a bug.
VARIANCE_CLAMP = 1e-12

# atanh blows up at +-1, and g at +-2; estimates on the boundary are moved
# just inside.
ESTIMATE_CLAMP = 1.0 - 1e-10
DIFF_CLAMP = 2.0 - 1e-10

_BOUND_SLACK = 1e-12

# tanh saturates to exactly 1.0 in floating point once its argument passes
# ~19; mapped-back interval bounds are pulled to the last double inside the
# open interval so that they honor the strict containment invariant.
TANH_INTERIOR = math.nextafter(1.0, 0.0)


class CIMethod(enum.Enum):
    """Interval construction; the value doubles as the CLI token."""

    WALD = "wald"
    FISHER_Z = "fisher-z"
    WALD_DIFF = "wald-diff"
    G_TRANSFORM = "g"


@dataclass(frozen=True, eq=False)
class Gradient2:
    """Partial derivatives of a metric in the r*r table cells."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValidationError(f"gradient must be square, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("gradient entries must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def r(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class IntervalEstimate:
    """A confidence interval together with the variance that produced it.

    ``variance`` is the asymptotic variance of the sqrt(n)-scaled quantity the
    interval is built on; for FISHER_Z and G_TRANSFORM that is the transformed
    scale.  ``flags`` records degeneracy notes such as ``degenerate_estimate``
    (the point estimate sat on the boundary and was nudged inside before
    transforming).
    """

    estimate: float
    variance: float
    n: int
    alpha: float
    lower: float
    upper: float
    method: CIMethod
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise InvalidAlphaError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if self.n < 1:
            raise ValidationError(f"sample size must be at least 1, got {self.n}")
        if not self.variance >= 0.0:
            raise ValidationError(f"variance must be non-negative, got {self.variance!r}")
        if not (self.lower - _BOUND_SLACK <= self.estimate <= self.upper + _BOUND_SLACK):
            raise ValidationError("interval does not bracket its estimate")
        if self.method is CIMethod.FISHER_Z and not (-1.0 < self.lower <= self.upper < 1.0):
            raise ValidationError("atanh-scale intervals must stay inside (-1, 1)")
        if self.method is CIMethod.G_TRANSFORM and not (-2.0 < self.lower <= self.upper < 2.0):
            raise ValidationError("difference-scale intervals must stay inside (-2, 2)")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _check_interval_stack(estimate: np.ndarray, variance: np.ndarray, lower: np.ndarray,
                          upper: np.ndarray, method: CIMethod) -> None:
    """The checks of :class:`IntervalEstimate` on arrays of intervals.

    Alpha and n are the same for the whole stack and are checked by the caller.
    """
    if not np.all(variance >= 0.0):
        raise ValidationError("variance must be non-negative")
    if not np.all((lower - _BOUND_SLACK <= estimate) & (estimate <= upper + _BOUND_SLACK)):
        raise ValidationError("interval does not bracket its estimate")
    limit = {CIMethod.FISHER_Z: 1.0, CIMethod.G_TRANSFORM: 2.0}.get(method)
    if limit is not None and not np.all((-limit < lower) & (lower <= upper) & (upper < limit)):
        raise ValidationError(f"transformed intervals must stay inside (-{limit:g}, {limit:g})")


# Rational approximation of the normal inverse CDF (Acklam's coefficients),
# accurate to ~1.1e-9 on its own; one Halley step against erfc takes the
# absolute error to ~1e-13, comfortably past the 1e-9 requirement.
_Q_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
        1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_Q_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
        6.680131188771972e+01, -1.328068155288572e+01)
_Q_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
        -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_Q_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
        3.754408661907416e+00)
_Q_SPLIT = 0.02425


def _quantile_tail(q: float) -> float:
    t = math.sqrt(-2.0 * math.log(q))
    a, b, c, d, e, f = _Q_C
    num = ((((a * t + b) * t + c) * t + d) * t + e) * t + f
    g, h, i, j = _Q_D
    den = (((g * t + h) * t + i) * t + j) * t + 1.0
    return num / den


def _halley(x: float, q: float) -> float:
    """One Halley step on Phi(x) = q, with Phi through erfc."""
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - q
    step = err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - step / (1.0 + 0.5 * x * step)


def normal_quantile(q: float) -> float:
    """Standard-normal inverse CDF at ``q`` in (0, 1)."""
    if not 0.0 < q < 1.0:
        raise ValidationError(f"quantile argument must be in (0, 1), got {q!r}")
    if q < _Q_SPLIT:
        x = _quantile_tail(q)
    elif q <= 1.0 - _Q_SPLIT:
        u = q - 0.5
        t = u * u
        a, b, c, d, e, f = _Q_A
        num = (((((a * t + b) * t + c) * t + d) * t + e) * t + f) * u
        g, h, i, j, k = _Q_B
        den = ((((g * t + h) * t + i) * t + j) * t + k) * t + 1.0
        x = num / den
    else:
        x = -_quantile_tail(1.0 - q)
    return _halley(x, q)


# Below twice the smallest normal double the tail probability alpha/2 loses
# precision and the Halley step overflows.
MIN_ALPHA = 2.0 * sys.float_info.min


def _two_sided_z(alpha: float) -> float:
    """The z with P(|Z| > z) = alpha, for the intervals at level 1 - alpha.

    The tail probability alpha/2 goes to the quantile as it is: taking
    1 - alpha/2 first would round away every digit of a tiny alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidAlphaError(f"alpha must be in (0, 1), got {alpha!r}")
    q = alpha / 2.0
    if q >= _Q_SPLIT:
        return normal_quantile(1.0 - q)
    if alpha < MIN_ALPHA:
        raise InvalidAlphaError(f"alpha must be at least {MIN_ALPHA!r}, got {alpha!r}")
    return -_halley(_quantile_tail(q), q)


def _grad_macro(u: np.ndarray, v: np.ndarray, diag: np.ndarray):
    """Gradient of the macro average.

    Each per-class term is a quotient N_a / sqrt(Q_a) with
    N_a = pi_aa - u_a v_a and Q_a = u_a v_a (1-u_a)(1-v_a), where u and v are
    the prediction and truth marginals.  Cell (i, j) moves N and Q for class i
    (through u_i) and class j (through v_j), plus N_i directly when i = j.
    """
    m, r = u.shape
    undefined = ((u <= 0.0) | (u >= 1.0) | (v <= 0.0) | (v >= 1.0)).any(axis=-1)
    num, q = _macro_terms(u, v, diag)
    scale = 1.0 / np.sqrt(q)
    curv = num / (2.0 * q * np.sqrt(q))
    row_part = -v * scale - curv * v * (1.0 - v) * (1.0 - 2.0 * u)
    col_part = -u * scale - curv * u * (1.0 - u) * (1.0 - 2.0 * v)
    on_diag = np.zeros((m, r, r))
    on_diag.reshape(m, r * r)[:, ::r + 1] = scale
    return (row_part[:, :, None] + col_part[:, None, :] + on_diag) / r, undefined


def _grad_micro(u: np.ndarray, v: np.ndarray, diag: np.ndarray):
    """Gradient of the pooled micro average: r/(r-1) on the diagonal, else 0."""
    m, r = u.shape
    return np.broadcast_to(np.eye(r) * (r / (r - 1.0)), (m, r, r)), np.zeros(m, dtype=bool)


def _grad_micro_star(u: np.ndarray, v: np.ndarray, diag: np.ndarray):
    """Gradient of the indicator-correlation form."""
    r = u.shape[-1]
    var_pred, var_truth, cov, undefined = _micro_star_terms(u, v, diag)
    cov = cov[:, None, None]
    denom = np.sqrt(var_pred * var_truth)[:, None, None]
    base = (np.eye(r) - v[:, :, None] - u[:, None, :]) / denom
    bulge = cov * (u[:, :, None] / (denom * var_pred[:, None, None])
                   + v[:, None, :] / (denom * var_truth[:, None, None]))
    return base + bulge, undefined


_GRADIENTS = {
    MetricKind.MACRO: _grad_macro,
    MetricKind.MICRO: _grad_micro,
    MetricKind.MICRO_STAR: _grad_micro_star,
}

# What :func:`gradient` says where a gradient kernel marks a table undefined.
_GRADIENT_UNDEFINED = {
    MetricKind.MACRO: "macro gradient requires every marginal strictly inside (0, 1)",
    MetricKind.MICRO_STAR: "correlation gradient undefined: all mass in a single row or column",
}

# What the pipelines say: the estimator's complaint where it has one, since
# it runs first, else the gradient's.
_PIPELINE_UNDEFINED = {
    MetricKind.MACRO: _GRADIENT_UNDEFINED[MetricKind.MACRO],
    MetricKind.MICRO_STAR: _CORRELATION_UNDEFINED,
}


def _gradient_stack(marginals: tuple[np.ndarray, ...],
                    kind: MetricKind) -> tuple[np.ndarray, np.ndarray]:
    """:func:`gradient` of every table of a stack, given its :func:`_stack_marginals`.

    Returns ``(values, undefined)``.  ``undefined[k]`` is true exactly where
    the gradient is not defined on table k (which covers every table the
    estimator rejects), and ``values[k]`` then means nothing.
    """
    kernel = _lookup(_GRADIENTS, kind)
    with np.errstate(divide="ignore", invalid="ignore"):
        values, undefined = kernel(*marginals)
    if not np.all(np.isfinite(values[~undefined] if undefined.any() else values)):
        raise ValidationError("gradient entries must be finite")
    return values, undefined


def gradient(p: ProbTable2, kind: MetricKind) -> Gradient2:
    """The gradient of the estimator selected by ``kind``, on one table."""
    values, undefined = _gradient_stack(_table_marginals(p), kind)
    if undefined[0]:
        raise DegenerateMarginalError(_GRADIENT_UNDEFINED[kind])
    return Gradient2(values[0])


def grad_macro(p: ProbTable2) -> Gradient2:
    """Gradient of the macro average."""
    return gradient(p, MetricKind.MACRO)


def grad_micro(p: ProbTable2) -> Gradient2:
    """Gradient of the pooled micro average."""
    return gradient(p, MetricKind.MICRO)


def _stack_sum(x: np.ndarray) -> np.ndarray:
    """``x[k].sum()`` for every k: one contiguous row each, summed in the same order."""
    return x.reshape(x.shape[0], math.prod(x.shape[1:])).sum(axis=1)


def _variance_stack(values: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """The multinomial sandwich sum(pi a^2) - (sum(pi a))^2 of every entry, clamped at 0.

    ``values`` broadcasts against ``pi``, whose first axis indexes the stack;
    the tables may be r*r or r*r*r.
    """
    mean = _stack_sum(pi * values)
    raw = _stack_sum(pi * values * values) - mean * mean
    if np.any(raw < -VARIANCE_CLAMP):
        raise ValidationError(f"variance quadratic form produced {float(raw.min())!r}")
    return np.where(0.0 > raw, 0.0, raw)


def variance_quadratic(values: np.ndarray, pi: np.ndarray) -> float:
    """The multinomial sandwich of one gradient and one r*r or r*r*r table."""
    return float(_variance_stack(np.asarray(values)[None], np.asarray(pi)[None])[0])


def asymptotic_variance(grad: Gradient2, p: ProbTable2) -> float:
    """Asymptotic variance of the sqrt(n)-scaled metric (no 1/n factor)."""
    if grad.r != p.r:
        raise ValidationError(f"gradient is {grad.r}x{grad.r} but table is {p.r}x{p.r}")
    return variance_quadratic(grad.values, p.pi)


def _single_moments_stack(p: np.ndarray, marginals: tuple[np.ndarray, ...], kind: MetricKind
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(undefined, estimate, variance) of an (m, r, r) stack and its marginals.

    Estimates and variances cover only the tables that are not undefined,
    in order.
    """
    grad, undefined = _gradient_stack(marginals, kind)
    if undefined.any():
        keep = ~undefined
        p, grad, marginals = p[keep], grad[keep], tuple(x[keep] for x in marginals)
    return undefined, _estimate_stack(marginals, kind)[0], _variance_stack(grad, p)


def _wald_degenerate(estimate: float | np.ndarray, method: CIMethod) -> bool | np.ndarray:
    """Whether a Wald estimate sits on or past the edge of its range.

    The range is (-1, 1) for one table's metric and (-2, 2) for a
    difference; works on floats and on arrays alike.
    """
    return abs(estimate) >= (2.0 if method is CIMethod.WALD_DIFF else 1.0)


def _wald_ci(estimate: float, variance: float, n: int, alpha: float,
             method: CIMethod) -> IntervalEstimate:
    z = _two_sided_z(alpha)
    if variance < 0.0:
        raise ValidationError(f"variance must be non-negative, got {variance!r}")
    est = float(estimate)
    half = z * math.sqrt(variance / n)
    flags = ("degenerate_estimate",) if _wald_degenerate(est, method) else ()
    return IntervalEstimate(est, float(variance), int(n), float(alpha),
                            est - half, est + half, method, flags)


def wald_ci(estimate: float, variance: float, n: int, alpha: float = 0.05) -> IntervalEstimate:
    """Plain Wald interval; bounds are deliberately not clipped to [-1, 1].

    An estimate on the boundary, |estimate| >= 1, is flagged
    ``degenerate_estimate``.
    """
    return _wald_ci(estimate, variance, n, alpha, CIMethod.WALD)


def fisher_z_ci(estimate: float, grad: Gradient2, p: ProbTable2, n: int,
                alpha: float = 0.05) -> IntervalEstimate:
    """Wald interval on the atanh scale, mapped back through tanh."""
    return _transformed_ci(CIMethod.FISHER_Z, estimate, asymptotic_variance(grad, p), n, alpha)


def _transformed_ci(method: CIMethod, estimate: float, variance: float, n: int,
                    alpha: float) -> IntervalEstimate:
    """One FISHER_Z or G_TRANSFORM interval: :func:`_transformed_bounds` on a stack of one."""
    z = _two_sided_z(alpha)
    if variance < 0.0:
        raise ValidationError(f"variance must be non-negative, got {variance!r}")
    est, var_t, lower, upper, clamped = (
        x.item() for x in _transformed_bounds(method, np.array([float(estimate)]),
                                              np.array([float(variance)]), n, z))
    flags = ("degenerate_estimate",) if clamped else ()
    return IntervalEstimate(est, var_t, int(n), float(alpha), lower, upper, method, flags)


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` of each element of a 1-D array, taken as a Python float."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def _transformed_bounds(method: CIMethod, est: np.ndarray, variance: np.ndarray, n: int,
                        z: float) -> tuple[np.ndarray, ...]:
    """Intervals on the atanh scale (FISHER_Z) or the g scale (G_TRANSFORM), mapped back.

    ``est`` and ``variance`` are 1-D arrays of raw-scale estimates and
    variances.  Returns the estimates (clamped inside (-1, 1), or (-2, 2) for
    a difference, where they sat on the boundary), the transformed-scale
    variances, both bounds, and where the clamp applied.  Every element gets
    the float operations of the one-interval formula: numpy rounds each
    arithmetic step as Python floats do, squares go through ``float_power``,
    which calls C ``pow`` as ``x ** 2`` does (``np.square`` multiplies, and
    differs in the last bit on some inputs), and atanh, log and tanh stay in
    ``math``, since numpy's differ from it in the last bit.
    """
    fisher = method is CIMethod.FISHER_Z
    limit, clamp = (1.0, ESTIMATE_CLAMP) if fisher else (2.0, DIFF_CLAMP)
    clamped = np.abs(est) >= limit
    est = np.where(clamped, np.copysign(clamp, est), est)
    if fisher:
        var_t = variance / np.float_power(1.0 - est * est, 2.0)
        center = _elementwise(math.atanh, est)
    else:
        var_t = variance * np.float_power(2.0 / (4.0 - est * est), 2.0)
        center = 0.5 * _elementwise(math.log, (2.0 + est) / (2.0 - est))
    half = z * np.sqrt(var_t / n)
    lower = np.maximum(limit * _elementwise(math.tanh, center - half), -limit * TANH_INTERIOR)
    upper = np.minimum(limit * _elementwise(math.tanh, center + half), limit * TANH_INTERIOR)
    return est, var_t, lower, upper, clamped


def single_inference(counts: ConfusionCounts2, kind: MetricKind,
                     method: CIMethod = CIMethod.WALD,
                     alpha: float = 0.05) -> IntervalEstimate:
    """Full pipeline: normalize, estimate, gradient, variance, interval.

    Tables on which the selected gradient is undefined (a zero marginal for
    MACRO, a saturated row or column for MICRO_STAR) raise
    :class:`DegenerateMarginalError`.
    """
    return _table_inference(normalize_counts(counts), counts.n, kind, method, alpha)


def _table_inference(p: ProbTable2, n: int, kind: MetricKind, method: CIMethod,
                     alpha: float) -> IntervalEstimate:
    """:func:`single_inference` on counts of total ``n`` already normalized to ``p``."""
    undefined, est, var = _single_moments_stack(p.pi[None], _table_marginals(p), kind)
    if undefined[0]:
        raise DegenerateMarginalError(_PIPELINE_UNDEFINED[kind])
    if method is CIMethod.WALD:
        return wald_ci(float(est[0]), float(var[0]), n, alpha)
    if method is CIMethod.FISHER_Z:
        return _transformed_ci(method, float(est[0]), float(var[0]), n, alpha)
    raise ValidationError(
        f"single-table inference supports WALD or FISHER_Z, got {method!r}")
