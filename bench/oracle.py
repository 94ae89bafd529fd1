"""Independent numpy reference for every output the benchmark checks.

Nothing here imports multimcc.  The formulas are the closed forms of the
three multiclass MCC estimators, their gradients in the r*r cells and the
multinomial delta-method variance, written over a stack of tables so that a
whole coverage row is one vectorised pass.

Two kinds of check use this module:

* coverage rows must match ``degenerate`` exactly, and ``covered`` exactly
  on every replicate whose outcome does not hinge on rounding.  The
  degenerate decisions (a zero or saturated marginal, an estimate on the
  +-1 or +-2 boundary) are thresholds, so the estimates are computed with
  the same reduction layout the library uses (row sums over the last axis,
  column sums over the first, the trace as a diagonal reduce, dot products
  through BLAS); that makes an estimate that lands exactly on 1.0 land there
  in both.  A replicate whose estimate is not exactly the true value is
  *ambiguous* when a bound lies within ``BOUND_EPS`` of the true value, or
  when its variance is rounding noise (below ``NOISE_SHARE`` of the terms
  it was computed from) and its estimate is within ``NEAR_TRUTH`` of the
  true value.  Then a zero-width
  interval around an estimate one ulp off the truth decides coverage, and
  the library's summation order and this one's may legitimately disagree.
  ``covered`` may differ from the oracle's count only by ambiguous
  replicates.
* real-data and large-table documents must agree with the closed forms to
  ``TOL``.  The paired variance block is computed from the r*r marginal
  gradients and the sparse joint cells, never from an r*r*r cube.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

TOL = 1e-9
BOUND_EPS = 1e-9
NOISE_SHARE = 1e-12
NEAR_TRUTH = 1e-6

# Bounds mapped back through tanh stop at the last double inside (-1, 1).
TANH_INTERIOR = math.nextafter(1.0, 0.0)

METRICS = ("mam", "mim", "mim-star")


def z_value(alpha: float) -> float:
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def replicate_tables(flat_pi: np.ndarray, n: int, reps: int, seed: int) -> np.ndarray:
    """Replicate ``rep`` is one multinomial draw from Philox keyed (seed, rep)."""
    out = np.empty((reps, flat_pi.size), dtype=np.int64)
    for rep in range(reps):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, rep], dtype=np.uint64)))
        out[rep] = rng.multinomial(n, flat_pi)
    return out


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (m,1,r) @ (m,r,1) runs the same BLAS dot as a 1-D ``u @ v``.
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def table_stats(p: np.ndarray) -> dict[str, dict[str, np.ndarray]]:
    """Estimate, gradient and "undefined" mask of each metric on a (m, r, r) stack.

    ``p[b, i, j]`` is P(prediction i, truth j) in table b.  Where a metric is
    undefined (``bad``) its estimate and gradient entries are meaningless.
    """
    m, r, _ = p.shape
    u = p.sum(axis=2)
    v = p.sum(axis=1)
    diag = np.einsum("bii->bi", p)
    trace = diag.sum(axis=1)
    eye = np.eye(r)
    out: dict[str, dict[str, np.ndarray]] = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        # Macro: mean over classes of (pi_aa - u_a v_a) / sqrt(u_a v_a (1-u_a)(1-v_a)).
        bad = ((u <= 0.0) | (u >= 1.0) | (v <= 0.0) | (v >= 1.0)).any(axis=1)
        num = diag - u * v
        q = u * v * (1.0 - u) * (1.0 - v)
        root = np.sqrt(q)
        est = (num / root).mean(axis=1)
        scale = 1.0 / root
        curv = num / (2.0 * q * root)
        row = -v * scale - curv * v * (1.0 - v) * (1.0 - 2.0 * u)
        col = -u * scale - curv * u * (1.0 - u) * (1.0 - 2.0 * v)
        grad = (row[:, :, None] + col[:, None, :] + scale[:, :, None] * eye) / r
        out["mam"] = {"est": est, "grad": grad, "bad": bad}

        # Micro: (r * accuracy - 1) / (r - 1), gradient r/(r-1) on the diagonal.
        est = (r * trace - 1.0) / (r - 1.0)
        grad = np.broadcast_to(eye * (r / (r - 1.0)), (m, r, r))
        out["mim"] = {"est": est, "grad": grad, "bad": np.zeros(m, dtype=bool)}

        # Micro-star: correlation of the prediction and truth class indicators.
        var_pred = 1.0 - _rowdot(u, u)
        var_truth = 1.0 - _rowdot(v, v)
        bad = (var_pred <= 0.0) | (var_truth <= 0.0)
        cov = trace - _rowdot(u, v)
        denom = np.sqrt(var_pred * var_truth)
        est = cov / denom
        base = (eye - v[:, :, None] - u[:, None, :]) / denom[:, None, None]
        bulge = cov[:, None, None] * (u[:, :, None] / (denom * var_pred)[:, None, None]
                                      + v[:, None, :] / (denom * var_truth)[:, None, None])
        out["mim-star"] = {"est": est, "grad": base + bulge, "bad": bad}
    return out


def _moments(p: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, variance and second moment of the gradient under the cell probabilities."""
    m = p.shape[0]
    mean = (p * grad).reshape(m, -1).sum(axis=1)
    second = (p * grad * grad).reshape(m, -1).sum(axis=1)
    return mean, np.maximum(second - mean * mean, 0.0), second


def _wald(est, var, n, z):
    half = z * np.sqrt(var / n)
    return est - half, est + half


def _fisher_z(est, var, n, z):
    var_z = var / (1.0 - est * est) ** 2
    half = z * np.sqrt(var_z / n)
    center = np.arctanh(est)
    lower = np.maximum(np.tanh(center - half), -TANH_INTERIOR)
    upper = np.minimum(np.tanh(center + half), TANH_INTERIOR)
    return lower, upper, var_z


def _g(diff, var_diff, n, z):
    var_g = var_diff * (2.0 / (4.0 - diff * diff)) ** 2
    half = z * np.sqrt(var_g / n)
    center = 0.5 * np.log((2.0 + diff) / (2.0 - diff))
    lower = np.maximum(2.0 * np.tanh(center - half), -2.0 * TANH_INTERIOR)
    upper = np.minimum(2.0 * np.tanh(center + half), 2.0 * TANH_INTERIOR)
    return lower, upper, var_g


def _tally(degenerate, lower, upper, truth, center, noise):
    ok = ~degenerate
    near = (np.abs(lower - truth) <= BOUND_EPS) | (np.abs(upper - truth) <= BOUND_EPS)
    # An estimate equal to the truth is covered by any interval around it.
    off = np.abs(center - truth)
    ambiguous = ok & (off > 0.0) & (near | (noise & (off <= NEAR_TRUTH)))
    widths = (upper - lower)[ok]
    covered = int(((lower <= truth) & (truth <= upper) & ok & ~ambiguous).sum())
    mean_width = math.fsum(widths.tolist()) / widths.size if widths.size else math.nan
    return {"covered": covered, "ambiguous": int(ambiguous.sum()),
            "degenerate": int(degenerate.sum()), "mean_width": mean_width}


def coverage_single(truth: np.ndarray, true_values: dict[str, float], n: int,
                    reps: int, seed: int, alpha: float,
                    cis: tuple[str, ...]) -> dict[tuple[str, str], dict]:
    """Covered/degenerate/mean width per (metric, ci) for a single-table row."""
    r = truth.shape[0]
    counts = replicate_tables(truth.ravel(), n, reps, seed).reshape(reps, r, r)
    p = counts / n
    stats = table_stats(p)
    z = z_value(alpha)
    out = {}
    for metric in METRICS:
        s = stats[metric]
        est = np.where(s["bad"], 0.0, s["est"])
        _, var, second = _moments(p, np.where(s["bad"][:, None, None], 0.0, s["grad"]))
        degenerate = s["bad"] | (np.abs(est) >= 1.0)
        safe = np.where(degenerate, 0.0, est)
        noise = var <= NOISE_SHARE * second
        for ci in cis:
            if ci == "wald":
                lower, upper = _wald(safe, var, n, z)
            else:
                lower, upper, _ = _fisher_z(safe, var, n, z)
            out[(metric, ci)] = _tally(degenerate, lower, upper, true_values[metric],
                                       safe, noise)
    return out


def _paired_block(p3: np.ndarray, metric: str, stats_1, stats_2):
    """Per-method estimates and the variance block of a (m, r, r, r) stack."""
    s1, s2 = stats_1[metric], stats_2[metric]
    bad = s1["bad"] | s2["bad"]
    a = np.where(bad[:, None, None], 0.0, s1["grad"])
    b = np.where(bad[:, None, None], 0.0, s2["grad"])
    t1 = p3.sum(axis=2)
    t2 = p3.sum(axis=1)
    mean_1, var_1, _ = _moments(t1, a)
    mean_2, var_2, _ = _moments(t2, b)
    cov = np.einsum("bijk,bik,bjk->b", p3, a, b) - mean_1 * mean_2
    return bad, s1["est"], s2["est"], var_1, var_2, cov


def coverage_paired(truth: np.ndarray, true_values: dict[str, float], n: int,
                    reps: int, seed: int, alpha: float,
                    cis: tuple[str, ...]) -> dict[tuple[str, str], dict]:
    """Covered/degenerate/mean width per (metric, ci) for a paired row."""
    r = truth.shape[0]
    counts = replicate_tables(truth.ravel(), n, reps, seed).reshape(reps, r, r, r)
    p3 = counts / n
    stats_1 = table_stats(p3.sum(axis=2))
    stats_2 = table_stats(p3.sum(axis=1))
    z = z_value(alpha)
    out = {}
    for metric in METRICS:
        bad, est_1, est_2, var_1, var_2, cov = _paired_block(p3, metric, stats_1, stats_2)
        diff = np.where(bad, 0.0, est_1 - est_2)
        var_diff = np.maximum(var_1 + var_2 - 2.0 * cov, 0.0)
        degenerate = bad | (np.abs(diff) >= 2.0)
        safe = np.where(degenerate, 0.0, diff)
        noise = var_diff <= NOISE_SHARE * (var_1 + var_2 + 2.0 * np.abs(cov))
        for ci in cis:
            if ci == "wald":
                lower, upper = _wald(safe, var_diff, n, z)
            else:
                lower, upper, _ = _g(safe, var_diff, n, z)
            out[(metric, ci)] = _tally(degenerate, lower, upper, true_values[metric],
                                       safe, noise)
    return out


def single_document_rows(counts: np.ndarray, ci: str, alpha: float) -> dict[str, dict]:
    """Expected ``estimate`` rows for one r*r counts table."""
    n = int(counts.sum())
    p = (counts / n)[None]
    stats = table_stats(p)
    z = z_value(alpha)
    rows = {}
    for metric in METRICS:
        s = stats[metric]
        if s["bad"][0]:
            raise ValueError(f"{metric} is undefined on this table")
        est = s["est"]
        _, var, _ = _moments(p, s["grad"])
        flags: list[str] = []
        if ci == "wald":
            lower, upper = _wald(est, var, n, z)
        else:
            if abs(est[0]) >= 1.0:
                raise ValueError("estimate on the boundary")
            lower, upper, var = _fisher_z(est, var, n, z)
        rows[metric] = {"estimate": float(est[0]), "variance": float(var[0]),
                        "lower": float(lower[0]), "upper": float(upper[0]),
                        "flags": flags}
    return rows


def paired_document_rows(cells: np.ndarray, r: int, ci: str,
                         alpha: float) -> dict[str, dict]:
    """Expected ``paired-diff`` rows from sparse (i, j, k, count) cells, 0-based.

    The covariance is sum over listed cells of pi_ijk A_ik B_jk minus the
    product of the means, so nothing r*r*r is built.
    """
    i, j, k, c = (cells[:, col] for col in range(4))
    n = int(c.sum())
    pi = c / n
    t1 = np.zeros((r, r))
    t2 = np.zeros((r, r))
    np.add.at(t1, (i, k), pi)
    np.add.at(t2, (j, k), pi)
    stats_1 = table_stats(t1[None])
    stats_2 = table_stats(t2[None])
    z = z_value(alpha)
    rows = {}
    for metric in METRICS:
        s1, s2 = stats_1[metric], stats_2[metric]
        if s1["bad"][0] or s2["bad"][0]:
            raise ValueError(f"{metric} is undefined on this table")
        a, b = s1["grad"][0], s2["grad"][0]
        mean_1, var_1, _ = _moments(t1[None], a[None])
        mean_2, var_2, _ = _moments(t2[None], b[None])
        cov = float((pi * a[i, k] * b[j, k]).sum() - mean_1[0] * mean_2[0])
        est_1, est_2 = float(s1["est"][0]), float(s2["est"][0])
        diff = est_1 - est_2
        var_diff = max(float(var_1[0] + var_2[0]) - 2.0 * cov, 0.0)
        d = np.array([diff])
        if ci == "wald":
            lower, upper = _wald(d, var_diff, n, z)
        else:
            lower, upper, _ = _g(d, var_diff, n, z)
        rows[metric] = {"estimate_1": est_1, "estimate_2": est_2, "difference": diff,
                        "lower": float(lower[0]), "upper": float(upper[0]),
                        "var_1": float(var_1[0]), "var_2": float(var_2[0]),
                        "cov": cov, "flags": []}
    return rows


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))
