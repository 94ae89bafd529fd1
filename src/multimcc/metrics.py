"""Confusion tables and multiclass Matthews correlation point estimators.

The convention throughout is ``pi[i, j] = P(prediction = i, truth = j)`` with
classes indexed 0..r-1, so rows are what the classifier said and columns are
what was actually there.  Three summaries generalize the binary MCC to r > 2
classes:

* ``macro_mcc`` -- mean of the r one-vs-rest binary MCCs, weighting every
  class equally regardless of prevalence;
* ``micro_mcc`` -- binary MCC of the pooled one-vs-rest counts, which
  collapses to an affine function of accuracy with range [-1/(r-1), 1];
* ``micro_star_mcc`` -- covariance between the prediction and truth class
  indicators divided by the product of their standard deviations, the
  correlation-style generalization with the full [-1, 1] range.

All operations are pure functions over immutable tables and are safe to share
across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMarginalError, ValidationError, ZeroTotalError

__all__ = [
    "MAX_CLASSES",
    "ConfusionCounts2",
    "ProbTable2",
    "ClasswiseRates",
    "MetricKind",
    "normalize_counts",
    "classwise_rates",
    "binary_mcc",
    "per_class_mcc",
    "degenerate_classes",
    "macro_mcc",
    "micro_mcc",
    "micro_mcc_pooled",
    "micro_star_mcc",
    "estimate",
]

# Dense r*r (and r**3 in the paired module) storage stops being sane past this.
MAX_CLASSES = 1000

PROB_SUM_TOL = 1e-12


def _checked_square(cells: np.ndarray, what: str) -> np.ndarray:
    if cells.ndim != 2 or cells.shape[0] != cells.shape[1]:
        raise ValidationError(f"{what} must be a square matrix, got shape {cells.shape}")
    r = cells.shape[0]
    if r < 2:
        raise ValidationError(f"{what} needs at least 2 classes, got {r}")
    if r > MAX_CLASSES:
        raise ValidationError(f"{what} with r={r} exceeds the dense-table limit of {MAX_CLASSES}")
    return cells


@dataclass(frozen=True, eq=False)
class ConfusionCounts2:
    """Raw confusion counts; rows index predictions, columns index truth."""

    cells: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        cells = _checked_square(np.asarray(self.cells), "a counts table")
        if not np.issubdtype(cells.dtype, np.integer):
            as_float = np.asarray(cells, dtype=float)
            if not np.all(np.isfinite(as_float)) or np.any(as_float != np.floor(as_float)):
                raise ValidationError("counts must be whole numbers")
            cells = as_float
        cells = cells.astype(np.int64)
        if np.any(cells < 0):
            raise ValidationError("counts must be non-negative")
        if int(cells.sum()) < 1:
            raise ZeroTotalError("counts table is all zeros")
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != cells.shape[0]:
                raise ValidationError(
                    f"expected {cells.shape[0]} class labels, got {len(labels)}")
            object.__setattr__(self, "labels", labels)

    @property
    def r(self) -> int:
        return int(self.cells.shape[0])

    @property
    def n(self) -> int:
        return int(self.cells.sum())


@dataclass(frozen=True, eq=False)
class ProbTable2:
    """Joint cell probabilities of a prediction/truth table.

    Row and column marginals are computed once at construction and exposed as
    ``row_marginals`` (prediction distribution) and ``col_marginals`` (truth
    distribution).
    """

    pi: np.ndarray

    def __post_init__(self) -> None:
        pi = _checked_square(np.array(self.pi, dtype=float), "a probability table")
        if np.any(pi < 0.0) or np.any(pi > 1.0):
            raise ValidationError("cell probabilities must lie in [0, 1]")
        total = float(pi.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"cell probabilities sum to {total!r}, not 1")
        pi.flags.writeable = False
        row = pi.sum(axis=1)
        col = pi.sum(axis=0)
        row.flags.writeable = False
        col.flags.writeable = False
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "row_marginals", row)
        object.__setattr__(self, "col_marginals", col)

    @property
    def r(self) -> int:
        return int(self.pi.shape[0])


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


class MetricKind(enum.Enum):
    """Selects one of the three multiclass MCC estimators."""

    MACRO = "mam"
    MICRO = "mim"
    MICRO_STAR = "mim-star"


def normalize_counts(counts: ConfusionCounts2) -> ProbTable2:
    """Maximum-likelihood cell probabilities: each count divided by the total."""
    if counts.n == 0:
        raise ZeroTotalError("cannot normalize a table with zero total")
    return ProbTable2(counts.cells / counts.n)


def classwise_rates(p: ProbTable2) -> ClasswiseRates:
    """One-vs-rest TP/FP/FN/TN probabilities for every class."""
    tp = p.pi.diagonal().copy()
    fp = p.row_marginals - tp
    fn = p.col_marginals - tp
    tn = 1.0 - tp - fp - fn
    # tn is a complement, so rounding can push it an ulp outside [0, 1]
    np.clip(tn, 0.0, 1.0, out=tn)
    return ClasswiseRates(tp, fp, fn, tn)


def binary_mcc(p: ProbTable2) -> float:
    """MCC of a 2x2 probability table."""
    if p.r != 2:
        raise ValidationError(f"binary_mcc requires r=2, got r={p.r}")
    u, v = p.row_marginals, p.col_marginals
    denom = v[0] * u[0] * v[1] * u[1]
    if denom <= 0.0:
        raise DegenerateMarginalError("binary MCC undefined: a marginal is zero")
    num = p.pi[0, 0] * p.pi[1, 1] - p.pi[0, 1] * p.pi[1, 0]
    return float(num / math.sqrt(denom))


def per_class_mcc(p: ProbTable2) -> np.ndarray:
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


def degenerate_classes(p: ProbTable2) -> tuple[int, ...]:
    """Indices of classes whose one-vs-rest MCC denominator vanishes."""
    u, v = p.row_marginals, p.col_marginals
    q = u * v * (1.0 - u) * (1.0 - v)
    return tuple(int(a) for a in np.flatnonzero(q <= 0.0))


def macro_mcc(p: ProbTable2) -> float:
    """Unweighted mean of the per-class one-vs-rest MCCs."""
    return float(per_class_mcc(p).mean())


def micro_mcc(p: ProbTable2) -> float:
    """Pooled micro average: (r * accuracy - 1) / (r - 1)."""
    return float((p.r * p.pi.trace() - 1.0) / (p.r - 1.0))


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


def micro_star_mcc(p: ProbTable2) -> float:
    """Correlation between prediction and truth class indicators."""
    u, v = p.row_marginals, p.col_marginals
    var_pred = 1.0 - float(u @ u)
    var_truth = 1.0 - float(v @ v)
    if var_pred <= 0.0 or var_truth <= 0.0:
        raise DegenerateMarginalError(
            "correlation undefined: all mass in a single row or column")
    cov = float(p.pi.trace() - u @ v)
    return cov / math.sqrt(var_pred * var_truth)


def estimate(p: ProbTable2, kind: MetricKind) -> float:
    """Dispatch to the estimator selected by ``kind``."""
    if kind is MetricKind.MACRO:
        return macro_mcc(p)
    if kind is MetricKind.MICRO:
        return micro_mcc(p)
    if kind is MetricKind.MICRO_STAR:
        return micro_star_mcc(p)
    raise ValidationError(f"unknown metric kind: {kind!r}")


# Stacked twins of the estimators, for many tables at once.  They share no
# code with the scalar functions above (which stay cheap for one table) but
# repeat each of their float operations in the same order, so every entry is
# bit-identical to the scalar result on that table.

def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[k] @ b[k]`` for every row k, through the same BLAS dot as ``@``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _stack_marginals(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row marginals, column marginals and diagonal of an (m, r, r) stack."""
    return p.sum(axis=-1), p.sum(axis=-2), p.diagonal(axis1=-2, axis2=-1)


def _estimate_stack(p: np.ndarray, kind: MetricKind) -> np.ndarray:
    """:func:`estimate` of every table in an (m, r, r) probability stack.

    Where the scalar estimator raises (MICRO_STAR on a saturated row or
    column) the entry is NaN or infinite.
    """
    r = p.shape[-1]
    u, v, diag = _stack_marginals(p)
    if kind is MetricKind.MACRO:
        num = diag - u * v
        q = u * v * (1.0 - u) * (1.0 - v)
        with np.errstate(divide="ignore", invalid="ignore"):
            per_class = np.where(q > 0.0, num / np.sqrt(q), 0.0)
        return per_class.mean(axis=-1)
    trace = diag.sum(axis=-1)
    if kind is MetricKind.MICRO:
        return (r * trace - 1.0) / (r - 1.0)
    if kind is MetricKind.MICRO_STAR:
        var_pred = 1.0 - _row_dot(u, u)
        var_truth = 1.0 - _row_dot(v, v)
        cov = trace - _row_dot(u, v)
        with np.errstate(divide="ignore", invalid="ignore"):
            return cov / np.sqrt(var_pred * var_truth)
    raise ValidationError(f"unknown metric kind: {kind!r}")
