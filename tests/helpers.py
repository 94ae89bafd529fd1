"""Oracles, generators and a frozen reference shared across test modules.

The finite-difference oracle perturbs one cell and renormalizes the table,
so the directional derivative it measures is the raw partial minus the
probability-weighted mean of all partials.  Analytic gradients are projected
the same way before comparison.

The ``ref_*`` functions are the one-table estimators, gradients, quadratic
forms, paired moments and transformed interval bounds as the package wrote
them before the stacked kernels became its only implementation, copied
verbatim apart from the ``ref_`` prefix.  The kernels must equal them bit for
bit, so they stay frozen: do not edit them to follow a change in ``src/``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from multimcc import (
    CIMethod,
    ConfusionCounts2,
    DegenerateMarginalError,
    Gradient2,
    JointCounts3,
    MetricKind,
    PairedCovBlock,
    ParseError,
    ProbTable2,
    ProbTable3,
    ScenarioKind,
    ValidationError,
    diff_g_ci,
    diff_wald_ci,
    marginalize,
    normalize_counts,
    normalize_joint_counts,
    wald_ci,
)
from multimcc.formats import ResultDocument
from multimcc.inference import (
    DIFF_CLAMP,
    ESTIMATE_CLAMP,
    TANH_INTERIOR,
    VARIANCE_CLAMP,
    _two_sided_z,
)
from multimcc.metrics import PROB_SUM_TOL
from multimcc.simulate import _replicate_rng

FD_STEP = 1e-6


def fd_gradient(metric_fn, pi: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of metric_fn along renormalized cell bumps."""
    flat = pi.ravel()
    out = np.empty(flat.size)
    for idx in range(flat.size):
        bump = np.zeros(flat.size)
        bump[idx] = 1.0
        plus = (flat + step * bump) / (1.0 + step)
        minus = (flat - step * bump) / (1.0 - step)
        out[idx] = (metric_fn(plus.reshape(pi.shape))
                    - metric_fn(minus.reshape(pi.shape))) / (2.0 * step)
    return out.reshape(pi.shape)


def project_gradient(values: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Remove the direction normal to the simplex, matching the FD oracle."""
    return values - float((pi * values).sum())


def lift_marginal_gradient(values: np.ndarray, method: int) -> np.ndarray:
    """Joint-cell gradient of one method's metric from its r*r marginal gradient.

    Method 1's table sums out axis 1 of the joint table and method 2's sums
    out axis 0, so cell (i, j, k) gets the marginal partial at (i, k) or
    (j, k).  Built as an explicit copy, one slice per summed-out index.
    """
    r = values.shape[0]
    axis = 1 if method == 1 else 0
    return np.stack([values] * r, axis=axis)


def fd_relative_error(metric_fn, analytic: np.ndarray, pi: np.ndarray) -> float:
    projected = project_gradient(analytic, pi)
    fd = fd_gradient(metric_fn, pi)
    return float(np.max(np.abs(fd - projected)) / np.max(np.abs(projected)))


def random_single_table(rng: np.random.Generator, r: int,
                        min_marginal: float = 0.03) -> np.ndarray:
    """A random r*r probability table whose marginals stay off the boundary."""
    while True:
        pi = rng.dirichlet(np.ones(r * r)).reshape(r, r)
        u = pi.sum(axis=1)
        v = pi.sum(axis=0)
        if (u.min() > min_marginal and v.min() > min_marginal
                and u.max() < 1.0 - min_marginal and v.max() < 1.0 - min_marginal):
            return pi


def random_paired_table(rng: np.random.Generator, r: int,
                        min_marginal: float = 0.03) -> np.ndarray:
    """A random r*r*r joint table with both method marginals nondegenerate."""
    while True:
        pi = rng.dirichlet(np.ones(r ** 3)).reshape(r, r, r)
        ok = True
        for table in (pi.sum(axis=1), pi.sum(axis=0)):
            u = table.sum(axis=1)
            v = table.sum(axis=0)
            if (u.min() <= min_marginal or v.min() <= min_marginal
                    or u.max() >= 1.0 - min_marginal or v.max() >= 1.0 - min_marginal):
                ok = False
                break
        if ok:
            return pi


# The pooled route to the micro average, an oracle independent of the package's
# estimator.

@dataclass(frozen=True, eq=False)
class ClasswiseRates:
    """One-vs-rest probability rates, one entry per class."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray

    def __post_init__(self) -> None:
        arrays = {}
        for name in ("tp", "fp", "fn", "tn"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.shape != np.shape(self.tp):
                raise ValidationError("rate vectors must be 1-D and share a length")
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise ValidationError(f"{name} rates must lie in [0, 1]")
            arr.flags.writeable = False
            arrays[name] = arr
        total = arrays["tp"] + arrays["fp"] + arrays["fn"] + arrays["tn"]
        if np.any(np.abs(total - 1.0) > PROB_SUM_TOL):
            raise ValidationError("per-class rates must sum to 1")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @property
    def r(self) -> int:
        return int(self.tp.shape[0])


def classwise_rates(p: ProbTable2) -> ClasswiseRates:
    """One-vs-rest TP/FP/FN/TN probabilities for every class."""
    tp = p.pi.diagonal().copy()
    fp = p.row_marginals - tp
    fn = p.col_marginals - tp
    tn = 1.0 - tp - fp - fn
    # tn is a complement, so rounding can push it an ulp outside [0, 1]
    np.clip(tn, 0.0, 1.0, out=tn)
    return ClasswiseRates(tp, fp, fn, tn)


def micro_mcc_pooled(p: ProbTable2) -> float:
    """Binary MCC of the class-pooled one-vs-rest rates.

    Algebraically identical to :func:`micro_mcc`; kept as an independent
    computation so each route checks the other.
    """
    rates = classwise_rates(p)
    tp = float(rates.tp.sum())
    fp = float(rates.fp.sum())
    fn = float(rates.fn.sum())
    tn = float(rates.tn.sum())
    num = tp * tn - fp * fn
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    return float(num / math.sqrt(denom))



def sequential_multinomial(p: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial(n, p) as one binomial draw per cell, conditional on the cells before.

    Each cell takes its binomial share of what is left, with the conditional
    probability clamped into [0, 1] against rounding; the last cell takes the
    rest.
    """
    counts = np.zeros(p.size, dtype=np.int64)
    remaining = int(n)
    mass_left = 1.0
    for i in range(p.size - 1):
        if remaining == 0:
            break
        share = p[i] / mass_left if mass_left > 0.0 else 1.0
        share = min(max(share, 0.0), 1.0)
        drawn = int(rng.binomial(remaining, share))
        counts[i] = drawn
        remaining -= drawn
        mass_left -= p[i]
    counts[-1] += remaining
    return counts


def ref_per_class_mcc(p: ProbTable2) -> np.ndarray:
    """One-vs-rest binary MCC per class.

    A class that is never predicted or never true (or always one of the two)
    has a zero-variance indicator and no defined correlation; such classes
    contribute 0.  ``degenerate_classes`` reports which ones they were.
    """
    u, v = p.row_marginals, p.col_marginals
    num = p.pi.diagonal() - u * v
    q = u * v * (1.0 - u) * (1.0 - v)
    out = np.zeros(p.r)
    ok = q > 0.0
    out[ok] = num[ok] / np.sqrt(q[ok])
    return out


def ref_macro_mcc(p: ProbTable2) -> float:
    """Unweighted mean of the per-class one-vs-rest MCCs."""
    return float(ref_per_class_mcc(p).mean())


def ref_micro_mcc(p: ProbTable2) -> float:
    """Pooled micro average: (r * accuracy - 1) / (r - 1)."""
    return float((p.r * p.pi.trace() - 1.0) / (p.r - 1.0))


def ref_micro_star_mcc(p: ProbTable2) -> float:
    """Correlation between prediction and truth class indicators."""
    u, v = p.row_marginals, p.col_marginals
    var_pred = 1.0 - float(u @ u)
    var_truth = 1.0 - float(v @ v)
    if var_pred <= 0.0 or var_truth <= 0.0:
        raise DegenerateMarginalError(
            "correlation undefined: all mass in a single row or column")
    cov = float(p.pi.trace() - u @ v)
    return cov / math.sqrt(var_pred * var_truth)


def ref_estimate(p: ProbTable2, kind: MetricKind) -> float:
    """Dispatch to the estimator selected by ``kind``."""
    if kind is MetricKind.MACRO:
        return ref_macro_mcc(p)
    if kind is MetricKind.MICRO:
        return ref_micro_mcc(p)
    if kind is MetricKind.MICRO_STAR:
        return ref_micro_star_mcc(p)
    raise ValidationError(f"unknown metric kind: {kind!r}")


def ref_grad_macro(p: ProbTable2) -> Gradient2:
    """Gradient of the macro average.

    Each per-class term is a quotient N_a / sqrt(Q_a) with
    N_a = pi_aa - u_a v_a and Q_a = u_a v_a (1-u_a)(1-v_a), where u and v are
    the prediction and truth marginals.  Cell (i, j) moves N and Q for class i
    (through u_i) and class j (through v_j), plus N_i directly when i = j.
    """
    u, v = p.row_marginals, p.col_marginals
    if np.any(u <= 0.0) or np.any(u >= 1.0) or np.any(v <= 0.0) or np.any(v >= 1.0):
        raise DegenerateMarginalError(
            "macro gradient requires every marginal strictly inside (0, 1)")
    num = p.pi.diagonal() - u * v
    q = u * v * (1.0 - u) * (1.0 - v)
    scale = 1.0 / np.sqrt(q)
    curv = num / (2.0 * q * np.sqrt(q))
    row_part = -v * scale - curv * v * (1.0 - v) * (1.0 - 2.0 * u)
    col_part = -u * scale - curv * u * (1.0 - u) * (1.0 - 2.0 * v)
    values = row_part[:, None] + col_part[None, :] + np.diag(scale)
    return Gradient2(values / p.r)


def ref_grad_micro(p: ProbTable2) -> Gradient2:
    """Gradient of the pooled micro average: r/(r-1) on the diagonal, else 0."""
    return Gradient2(np.eye(p.r) * (p.r / (p.r - 1.0)))


def ref_grad_micro_star(p: ProbTable2) -> Gradient2:
    """Gradient of the indicator-correlation form."""
    u, v = p.row_marginals, p.col_marginals
    var_pred = 1.0 - float(u @ u)
    var_truth = 1.0 - float(v @ v)
    if var_pred <= 0.0 or var_truth <= 0.0:
        raise DegenerateMarginalError(
            "correlation gradient undefined: all mass in a single row or column")
    cov = float(p.pi.trace() - u @ v)
    denom = math.sqrt(var_pred * var_truth)
    base = (np.eye(p.r) - v[:, None] - u[None, :]) / denom
    bulge = cov * (u[:, None] / (denom * var_pred) + v[None, :] / (denom * var_truth))
    return Gradient2(base + bulge)


def ref_gradient(p: ProbTable2, kind: MetricKind) -> Gradient2:
    """Dispatch to the gradient matching ``kind``."""
    if kind is MetricKind.MACRO:
        return ref_grad_macro(p)
    if kind is MetricKind.MICRO:
        return ref_grad_micro(p)
    if kind is MetricKind.MICRO_STAR:
        return ref_grad_micro_star(p)
    raise ValidationError(f"unknown metric kind: {kind!r}")


def ref_variance_quadratic(values: np.ndarray, pi: np.ndarray) -> float:
    """The multinomial sandwich sum(pi a^2) - (sum(pi a))^2, clamped at 0.

    Shape-agnostic: used for both r*r and r*r*r tables.
    """
    mean = float((pi * values).sum())
    raw = float((pi * values * values).sum()) - mean * mean
    if raw < -VARIANCE_CLAMP:
        raise ValidationError(f"variance quadratic form produced {raw!r}")
    return max(raw, 0.0)


def ref_asymptotic_variance(grad: Gradient2, p: ProbTable2) -> float:
    """Asymptotic variance of the sqrt(n)-scaled metric (no 1/n factor)."""
    if grad.r != p.r:
        raise ValidationError(f"gradient is {grad.r}x{grad.r} but table is {p.r}x{p.r}")
    return ref_variance_quadratic(grad.values, p.pi)


def ref_joint_views(grad_1: Gradient2, grad_2: Gradient2,
                    p3: ProbTable3) -> tuple[np.ndarray, np.ndarray]:
    # Marginalization is linear, so the joint-cell partial at (i, j, k) equals
    # the marginal-table partial at (i, k) for method 1, or (j, k) for method 2.
    if not grad_1.r == grad_2.r == p3.r:
        raise ValidationError("gradients and table must share a class count")
    return grad_1.values[:, None, :], grad_2.values[None, :, :]


def ref_paired_cov_block(grad_1: Gradient2, grad_2: Gradient2, p3: ProbTable3) -> PairedCovBlock:
    """Variances and covariance of the two metrics under joint sampling.

    ``grad_1`` and ``grad_2`` are the r*r gradients of each method's metric in
    its own marginal table, as :func:`~multimcc.inference.gradient` returns them.
    """
    a, b = ref_joint_views(grad_1, grad_2, p3)
    pi = p3.pi
    mean_a = float((pi * a).sum())
    mean_b = float((pi * b).sum())
    var_1 = float((pi * a * a).sum()) - mean_a * mean_a
    var_2 = float((pi * b * b).sum()) - mean_b * mean_b
    cov = float((pi * a * b).sum()) - mean_a * mean_b
    if var_1 < -VARIANCE_CLAMP or var_2 < -VARIANCE_CLAMP:
        raise ValidationError("variance quadratic form went negative")
    return PairedCovBlock(max(var_1, 0.0), max(var_2, 0.0), cov)


def ref_paired_moments(p3: ProbTable3,
                       kind: MetricKind) -> tuple[float, float, PairedCovBlock, float]:
    """Both estimates, their covariance block, and the difference variance.

    The difference variance is the quadratic form of the difference gradient
    itself, which avoids the cancellation in var_1 + var_2 - 2*cov.
    """
    table_1 = marginalize(p3, 1)
    table_2 = marginalize(p3, 2)
    est_1 = ref_estimate(table_1, kind)
    est_2 = ref_estimate(table_2, kind)
    grad_1 = ref_gradient(table_1, kind)
    grad_2 = ref_gradient(table_2, kind)
    a, b = ref_joint_views(grad_1, grad_2, p3)
    return (est_1, est_2, ref_paired_cov_block(grad_1, grad_2, p3),
            ref_variance_quadratic(a - b, p3.pi))


def ref_fisher_z_bounds(est: float, base: float, n: int,
                        z: float) -> tuple[float, float, float, float, bool]:
    """One atanh-scale interval in plain floats.

    Returns the estimate (clamped inside (-1, 1) when it sat on the
    boundary), the atanh-scale variance, both bounds, and whether the clamp
    applied.  ``math`` rather than numpy: their atanh and tanh differ in the
    last bit on many inputs.
    """
    clamped = abs(est) >= 1.0
    if clamped:
        est = math.copysign(ESTIMATE_CLAMP, est)
    var_z = base / (1.0 - est * est) ** 2
    half = z * math.sqrt(var_z / n)
    center = math.atanh(est)
    lower = max(math.tanh(center - half), -TANH_INTERIOR)
    upper = min(math.tanh(center + half), TANH_INTERIOR)
    return est, var_z, lower, upper, clamped


def ref_g_bounds(d: float, variance: float, n: int,
                 z: float) -> tuple[float, float, float, float, bool]:
    """One g-scale interval in plain floats.

    Returns the difference (clamped inside (-2, 2) when it sat on the
    boundary), the g-scale variance, both bounds, and whether the clamp
    applied.  ``math`` rather than numpy, whose log and tanh differ from it
    in the last bit on some inputs.
    """
    clamped = abs(d) >= 2.0
    if clamped:
        d = math.copysign(DIFF_CLAMP, d)
    var_g = variance * (2.0 / (4.0 - d * d)) ** 2
    half = z * math.sqrt(var_g / n)
    center = 0.5 * math.log((2.0 + d) / (2.0 - d))
    lower = max(2.0 * math.tanh(center - half), -2.0 * TANH_INTERIOR)
    upper = min(2.0 * math.tanh(center + half), 2.0 * TANH_INTERIOR)
    return d, var_g, lower, upper, clamped


def reference_interval(method: CIMethod, est: float, variance: float, n: int,
                       alpha: float) -> tuple[float, float, bool]:
    """Bounds of one interval and whether its estimate was flagged degenerate."""
    if method is CIMethod.FISHER_Z:
        _, _, lower, upper, clamped = ref_fisher_z_bounds(est, variance, n, _two_sided_z(alpha))
        return lower, upper, clamped
    if method is CIMethod.G_TRANSFORM:
        _, _, lower, upper, clamped = ref_g_bounds(est, variance, n, _two_sided_z(alpha))
        return lower, upper, clamped
    build = {CIMethod.WALD: wald_ci, CIMethod.WALD_DIFF: diff_wald_ci}[method]
    ci = build(est, variance, n, alpha)
    return ci.lower, ci.upper, "degenerate_estimate" in ci.flags


def reference_coverage(scenario, n: int, reps: int, cells, seed: int,
                       alpha: float = 0.05) -> list[tuple[int, int, float]]:
    """(covered, degenerate, mean_width) per cell, one replicate at a time.

    Replicate ``rep`` draws its table on the ``(seed, rep)`` stream with
    :func:`sequential_multinomial`, takes its estimate and variance from the
    frozen ``ref_*`` functions, and builds its interval one table at a time.
    A replicate is degenerate when the reference raises
    :class:`DegenerateMarginalError` or when its estimate lies on the boundary
    (|estimate| >= 1 for one table, |difference| >= 2 for a paired one); the
    interval must carry the ``degenerate_estimate`` flag exactly then.
    """
    paired = scenario.kind is ScenarioKind.PAIRED
    boundary = 2.0 if paired else 1.0
    flat = scenario.truth.pi.ravel()
    shape = scenario.truth.pi.shape
    covered = [0] * len(cells)
    degenerate = [0] * len(cells)
    widths: list[list[float]] = [[] for _ in cells]
    for rep in range(reps):
        table = sequential_multinomial(flat, n, _replicate_rng(seed, rep)).reshape(shape)
        for idx, (metric, method) in enumerate(cells):
            try:
                if paired:
                    p3 = normalize_joint_counts(JointCounts3(table))
                    est_1, est_2, _, variance = ref_paired_moments(p3, metric)
                    est = est_1 - est_2
                else:
                    p = normalize_counts(ConfusionCounts2(table))
                    est = ref_estimate(p, metric)
                    variance = ref_asymptotic_variance(ref_gradient(p, metric), p)
            except DegenerateMarginalError:
                degenerate[idx] += 1
                continue
            lower, upper, flagged = reference_interval(method, est, variance, n, alpha)
            assert flagged == (abs(est) >= boundary), (rep, metric, method, est)
            if flagged:
                degenerate[idx] += 1
                continue
            true = scenario.true_value(metric)
            covered[idx] += lower <= true <= upper
            widths[idx].append(upper - lower)
    return [(covered[i], degenerate[i],
             math.fsum(widths[i]) / len(widths[i]) if widths[i] else math.nan)
            for i in range(len(cells))]


def result_document_from_json(text: str) -> ResultDocument:
    """Read back a document that :meth:`ResultDocument.to_json` wrote."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("malformed_document", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("malformed_document", "expected a JSON object")
    try:
        labels = doc.get("labels")
        return ResultDocument(doc["command"], doc["version"], doc["config"], doc["results"],
                              tuple(labels) if labels is not None else None, doc.get("n"))
    except KeyError as exc:
        raise ParseError("malformed_document", f"missing key: {exc}") from exc
