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
from typing import Mapping

import numpy as np

from .errors import DegenerateMarginalError, ValidationError, ZeroTotalError

__all__ = [
    "MAX_CLASSES",
    "ConfusionCounts2",
    "ProbTable2",
    "MetricKind",
    "normalize_counts",
    "binary_mcc",
    "degenerate_classes",
    "macro_mcc",
    "micro_mcc",
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


def _store_counts(table, cells: np.ndarray, what: str) -> None:
    """Validate whole non-negative counts and set them, frozen, on ``table`` with its labels.

    A read-only int64 array that owns its memory, as the parsers hand over,
    is kept; anything else is copied, so a caller's array never becomes
    read-only.
    """
    if not np.issubdtype(cells.dtype, np.integer):
        as_float = np.asarray(cells, dtype=float)
        if not np.all(np.isfinite(as_float)) or np.any(as_float != np.floor(as_float)):
            raise ValidationError("counts must be whole numbers")
        cells = as_float
    if cells.dtype != np.int64 or cells.flags.writeable or not cells.flags.owndata:
        cells = cells.astype(np.int64)
    if np.any(cells < 0):
        raise ValidationError("counts must be non-negative")
    if int(cells.sum()) < 1:
        raise ZeroTotalError(f"{what} is all zeros")
    cells.flags.writeable = False
    object.__setattr__(table, "cells", cells)
    if table.labels is not None:
        labels = tuple(str(x) for x in table.labels)
        if len(labels) != cells.shape[0]:
            raise ValidationError(f"expected {cells.shape[0]} class labels, got {len(labels)}")
        object.__setattr__(table, "labels", labels)


def _checked_probabilities(pi: np.ndarray) -> np.ndarray:
    """``pi``, frozen, once its cells lie in [0, 1] and sum to 1."""
    if not (pi.min() >= 0.0 and pi.max() <= 1.0):     # written so that a NaN fails
        raise ValidationError("cell probabilities must lie in [0, 1]")
    total = float(pi.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"cell probabilities sum to {total!r}, not 1")
    pi.flags.writeable = False
    return pi


@dataclass(frozen=True, eq=False)
class ConfusionCounts2:
    """Raw confusion counts; rows index predictions, columns index truth."""

    cells: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        _store_counts(self, _checked_square(np.asarray(self.cells), "a counts table"),
                      "counts table")

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
        pi = _checked_probabilities(
            _checked_square(np.array(self.pi, dtype=float), "a probability table"))
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


def _lookup(table: Mapping, kind: MetricKind):
    """The registry entry for ``kind``; an unknown kind is a ValidationError."""
    try:
        return table[kind]
    except (KeyError, TypeError):
        raise ValidationError(f"unknown metric kind: {kind!r}") from None


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[k] @ b[k]`` for every row k, through the same BLAS dot as ``@``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _stack_marginals(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row marginals, column marginals and diagonal of an (m, r, r) stack."""
    return p.sum(axis=-1), p.sum(axis=-2), p.diagonal(axis1=-2, axis2=-1)


def _table_marginals(p: ProbTable2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_stack_marginals` of one table as a stack of one, from the sums it holds."""
    return p.row_marginals[None], p.col_marginals[None], p.pi.diagonal()[None]


# Every estimator and gradient is written once, as a kernel over an (m, r, r)
# stack of tables given by its marginals u, v and its diagonal (the caller
# computes them once for all the kernels it runs); a kernel returns its
# values and the mask of tables it is not defined on.  The one-table
# functions run the kernels on a stack of one, so the coverage harness and
# the library share every float operation.

def _macro_terms(u: np.ndarray, v: np.ndarray,
                 diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerator pi_aa - u_a v_a and squared denominator of each one-vs-rest MCC."""
    return diag - u * v, u * v * (1.0 - u) * (1.0 - v)


def _micro_star_terms(u: np.ndarray, v: np.ndarray, diag: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Indicator variances, covariance, and where a variance vanishes."""
    var_pred = 1.0 - _row_dot(u, u)
    var_truth = 1.0 - _row_dot(v, v)
    cov = diag.sum(axis=-1) - _row_dot(u, v)
    return var_pred, var_truth, cov, (var_pred <= 0.0) | (var_truth <= 0.0)


def _macro(u: np.ndarray, v: np.ndarray, diag: np.ndarray):
    """Unweighted mean of the per-class one-vs-rest MCCs.

    A class that is never predicted or never true (or always one of the two)
    has a zero-variance indicator and no defined correlation; such classes
    contribute 0.  ``degenerate_classes`` reports which ones they were.
    """
    num, q = _macro_terms(u, v, diag)
    per_class = np.where(q > 0.0, num / np.sqrt(q), 0.0)
    return per_class.mean(axis=-1), np.zeros(len(u), dtype=bool)


def _micro(u: np.ndarray, v: np.ndarray, diag: np.ndarray):
    """Pooled micro average: (r * accuracy - 1) / (r - 1)."""
    r = u.shape[-1]
    return (r * diag.sum(axis=-1) - 1.0) / (r - 1.0), np.zeros(len(u), dtype=bool)


def _micro_star(u: np.ndarray, v: np.ndarray, diag: np.ndarray):
    """Correlation between prediction and truth class indicators."""
    var_pred, var_truth, cov, undefined = _micro_star_terms(u, v, diag)
    return cov / np.sqrt(var_pred * var_truth), undefined


_ESTIMATORS = {
    MetricKind.MACRO: _macro,
    MetricKind.MICRO: _micro,
    MetricKind.MICRO_STAR: _micro_star,
}

# The only estimator that can be undefined is MICRO_STAR's.
_CORRELATION_UNDEFINED = "correlation undefined: all mass in a single row or column"


def _estimate_stack(marginals: tuple[np.ndarray, ...],
                    kind: MetricKind) -> tuple[np.ndarray, np.ndarray]:
    """:func:`estimate` of every table of a stack, given its :func:`_stack_marginals`.

    Returns ``(values, undefined)``; ``undefined[k]`` is true where the
    estimator is not defined on table k (MICRO_STAR on a saturated row or
    column), and ``values[k]`` then means nothing.
    """
    estimator = _lookup(_ESTIMATORS, kind)
    with np.errstate(divide="ignore", invalid="ignore"):
        return estimator(*marginals)


def estimate(p: ProbTable2, kind: MetricKind) -> float:
    """The estimator selected by ``kind`` on one table."""
    values, undefined = _estimate_stack(_table_marginals(p), kind)
    if undefined[0]:
        raise DegenerateMarginalError(_CORRELATION_UNDEFINED)
    return float(values[0])


def macro_mcc(p: ProbTable2) -> float:
    """Unweighted mean of the per-class one-vs-rest MCCs."""
    return estimate(p, MetricKind.MACRO)


def micro_mcc(p: ProbTable2) -> float:
    """Pooled micro average: (r * accuracy - 1) / (r - 1)."""
    return estimate(p, MetricKind.MICRO)


def micro_star_mcc(p: ProbTable2) -> float:
    """Correlation between prediction and truth class indicators."""
    return estimate(p, MetricKind.MICRO_STAR)


def degenerate_classes(p: ProbTable2) -> tuple[int, ...]:
    """Indices of classes whose one-vs-rest MCC denominator vanishes."""
    _, q = _macro_terms(p.row_marginals, p.col_marginals, p.pi.diagonal())
    return tuple(int(a) for a in np.flatnonzero(q <= 0.0))
