"""Oracles and generators shared across test modules.

The finite-difference oracle perturbs one cell and renormalizes the table,
so the directional derivative it measures is the raw partial minus the
probability-weighted mean of all partials.  Analytic gradients are projected
the same way before comparison.
"""

from __future__ import annotations

import math

import numpy as np

from multimcc import (
    ConfusionCounts2,
    DegenerateMarginalError,
    JointCounts3,
    ScenarioKind,
    paired_inference,
    single_inference,
)
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


def reference_coverage(scenario, n: int, reps: int, cells, seed: int,
                       alpha: float = 0.05) -> list[tuple[int, int, float]]:
    """(covered, degenerate, mean_width) per cell, one replicate at a time.

    Replicate ``rep`` draws its table on the ``(seed, rep)`` stream with
    :func:`sequential_multinomial` and runs the public ``single_inference`` or
    ``paired_inference`` on it.  A replicate is degenerate when that raises
    :class:`DegenerateMarginalError` or when its estimate lies on the boundary
    (|estimate| >= 1 for one table, |difference| >= 2 for a paired one, which
    the transformed intervals flag as ``degenerate_estimate``).
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
                    ci = paired_inference(JointCounts3(table), metric, method, alpha).interval
                else:
                    ci = single_inference(ConfusionCounts2(table), metric, method, alpha)
            except DegenerateMarginalError:
                degenerate[idx] += 1
                continue
            if abs(ci.estimate) >= boundary or "degenerate_estimate" in ci.flags:
                degenerate[idx] += 1
                continue
            true = scenario.true_value(metric)
            covered[idx] += ci.lower <= true <= ci.upper
            widths[idx].append(ci.width)
    return [(covered[i], degenerate[i],
             math.fsum(widths[i]) / len(widths[i]) if widths[i] else math.nan)
            for i in range(len(cells))]
