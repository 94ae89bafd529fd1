"""Monte Carlo coverage harness for the interval constructors.

A scenario fixes a true cell-probability table (single r*r or paired r*r*r)
whose metric values are known analytically.  Each replicate draws one
multinomial table of size n from the truth, runs the full estimation and
interval pipeline, and records whether the interval contains the true value.
Coverage close to the nominal level over many replicates is the end-to-end
check that the estimators, gradients, and interval transforms agree.

Replicates run in chunks of ``CHUNK_REPS``: the chunk's tables are drawn into
one (reps, r, r) or (reps, r, r, r) stack, and each pipeline stage runs once
over the stack through the same kernels that ``single_inference`` and
``paired_inference`` run on a stack of one (``_single_moments_stack``,
``_paired_moments_stack``).  The transformed interval bounds go through the
same stacked helper as ``fisher_z_ci`` and ``diff_g_ci``, and a Wald estimate
on the boundary is degenerate by the rule that flags it in ``wald_ci``, so
every replicate's interval is bit-identical to what the library returns for
its table.

Replicates are mutually independent: replicate index ``rep`` always uses the
counter-based stream keyed by ``(seed, rep)``, so any partition of the index
range into chunks or over any number of worker processes reproduces the
serial run bit for bit.  A block builds one generator and re-keys it per
replicate rather than building one per replicate.

Sampled tables can be degenerate (an empty class, or an estimate pinned to
the boundary).  Such replicates never abort a run; they are tallied and
handled per ``DegeneracyPolicy``: CountAsMiss treats them as non-covering,
Exclude drops them from the denominator.  Mean interval width is always
taken over the non-degenerate replicates.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidProbabilitiesError, ValidationError
from .inference import (
    CIMethod,
    _check_interval_stack,
    _single_moments_stack,
    _transformed_bounds,
    _two_sided_z,
    _wald_degenerate,
)
from .metrics import MetricKind, ProbTable2, _lookup, _stack_marginals, estimate
from .paired import ProbTable3, _joint_marginals, _paired_moments_stack, marginalize

__all__ = [
    "ScenarioKind",
    "DegeneracyPolicy",
    "Scenario",
    "CoverageResult",
    "sample_multinomial",
    "builtin_scenarios",
    "scenario_by_name",
    "run_coverage",
    "run_coverage_grid",
]

TRUE_VALUE_TOL = 1e-12

MAX_SEED = 2 ** 64

# Replicates per vectorised pass; bounds the stack temporaries at large reps.
CHUNK_REPS = 4096


class ScenarioKind(enum.Enum):
    SINGLE = "single"
    PAIRED = "paired"


class DegeneracyPolicy(enum.Enum):
    COUNT_AS_MISS = "count-as-miss"
    EXCLUDE = "exclude"


_TRUE_FIELDS = {
    MetricKind.MACRO: "true_macro",
    MetricKind.MICRO: "true_micro",
    MetricKind.MICRO_STAR: "true_micro_star",
}


@dataclass(frozen=True, eq=False)
class Scenario:
    """A named truth table with its analytically known metric values.

    For a paired scenario the three stored values are the true differences
    (method 1 minus method 2), since those are what the difference intervals
    must cover.
    """

    name: str
    kind: ScenarioKind
    truth: ProbTable2 | ProbTable3
    true_macro: float
    true_micro: float
    true_micro_star: float
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind is ScenarioKind.SINGLE:
            if not isinstance(self.truth, ProbTable2):
                raise ValidationError("a single scenario needs an r*r truth table")
        elif self.kind is ScenarioKind.PAIRED:
            if not isinstance(self.truth, ProbTable3):
                raise ValidationError("a paired scenario needs an r*r*r truth table")
        else:
            raise ValidationError(f"unknown scenario kind: {self.kind!r}")
        for metric in MetricKind:
            stored = self.true_value(metric)
            recomputed = self._recompute(metric)
            if abs(stored - recomputed) > TRUE_VALUE_TOL:
                raise ValidationError(
                    f"scenario {self.name!r}: stored true {metric.value} value "
                    f"{stored!r} disagrees with the truth table ({recomputed!r})")

    def _recompute(self, metric: MetricKind) -> float:
        if self.kind is ScenarioKind.SINGLE:
            return estimate(self.truth, metric)
        table_1 = marginalize(self.truth, 1)
        table_2 = marginalize(self.truth, 2)
        return estimate(table_1, metric) - estimate(table_2, metric)

    def true_value(self, metric: MetricKind) -> float:
        return getattr(self, _lookup(_TRUE_FIELDS, metric))

    @property
    def r(self) -> int:
        return self.truth.r


@dataclass(frozen=True)
class CoverageResult:
    """Outcome of one (scenario, n, metric, interval method) coverage cell."""

    scenario: str
    n: int
    reps: int
    metric: MetricKind
    ci_method: CIMethod
    alpha: float
    covered: int
    degenerate: int
    coverage: float
    mean_width: float
    seed: int
    policy: DegeneracyPolicy

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ValidationError("reps must be at least 1")
        if not 0 <= self.covered <= self.reps:
            raise ValidationError("covered count out of range")
        if not 0 <= self.degenerate <= self.reps:
            raise ValidationError("degenerate count out of range")
        denominator = (self.reps if self.policy is DegeneracyPolicy.COUNT_AS_MISS
                       else self.reps - self.degenerate)
        if denominator > 0:
            expected = self.covered / denominator
            if not math.isclose(self.coverage, expected, rel_tol=0.0, abs_tol=1e-12):
                raise ValidationError(
                    f"coverage {self.coverage!r} inconsistent with "
                    f"covered={self.covered}, reps={self.reps}, "
                    f"degenerate={self.degenerate}, policy={self.policy.value}")
            if not 0.0 <= self.coverage <= 1.0:
                raise ValidationError("coverage must lie in [0, 1]")
        elif not math.isnan(self.coverage):
            raise ValidationError("coverage must be NaN when no replicates count")


def sample_multinomial(probabilities: np.ndarray, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    """One Multinomial(n, probabilities) draw as an int64 count vector.

    ``Generator.multinomial`` walks the cells once, drawing each count from
    the binomial conditional on what earlier cells consumed; this is the
    exact joint distribution, not an approximation.
    """
    p = _checked_cells(probabilities)
    if n < 1:
        raise ValidationError(f"sample size must be at least 1, got {n}")
    return rng.multinomial(int(n), p)


def _checked_cells(probabilities: np.ndarray) -> np.ndarray:
    """The cell vector :func:`sample_multinomial` draws from, after its checks."""
    p = np.asarray(probabilities, dtype=float).ravel()
    if p.size < 1:
        raise InvalidProbabilitiesError("need at least one cell probability")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise InvalidProbabilitiesError("cell probabilities must be finite and non-negative")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-12:
        raise InvalidProbabilitiesError(f"cell probabilities sum to {total!r}, not 1")
    # A cell inside the sum tolerance can exceed 1 by an ulp; numpy rejects that.
    return np.minimum(p, 1.0)


def _replicate_rng(seed: int, rep: int) -> np.random.Generator:
    # Counter-based keying: stream identity depends only on (seed, rep), so
    # serial and parallel schedules draw identical tables per replicate.
    return np.random.Generator(np.random.Philox(key=np.array([seed, rep], dtype=np.uint64)))


def _replicate_sampler(probabilities: np.ndarray, n: int,
                       seed: int) -> Callable[[range], np.ndarray]:
    """A function that draws the tables of a range of replicates, one int64 row each.

    The row of replicate ``rep`` is
    ``sample_multinomial(probabilities, n, _replicate_rng(seed, rep))``.  One
    Philox generator serves every replicate.  Before each draw it is re-keyed
    to ``(seed, rep)`` with counter 0 and an empty buffer (buffer position 4
    of 4, no half-used 32-bit word): the state a new generator starts in, so
    the draws are those of the fresh stream, at a fraction of the cost of
    building one.  The probabilities are checked once, here.
    """
    cells, n = _checked_cells(probabilities), int(n)
    key = np.array([seed, 0], dtype=np.uint64)
    # Philox copies the state in, so the arrays can be updated and set again.
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    bit_generator = np.random.Philox(key=key)
    rng = np.random.Generator(bit_generator)

    def draw(reps: range) -> np.ndarray:
        out = np.empty((len(reps), cells.size), dtype=np.int64)
        for row, rep in enumerate(reps):
            key[1] = rep
            bit_generator.state = state
            out[row] = rng.multinomial(n, cells)
        return out

    return draw


_SINGLE_TRUTH = {
    "single-1": ([[28, 2, 3], [3, 28, 2], [2, 3, 29]], 100,
                 (0.7749665221131418, 0.775, 0.7749774977497751),
                 "balanced classes, strong diagonal"),
    "single-2": ([[11, 11, 11], [11, 11, 11], [11, 11, 12]], 100,
                 (0.009852697297824595, 0.01, 0.009900990099009892),
                 "near-uniform cells, metrics close to zero"),
    "single-3": ([[2, 5, 0], [2, 70, 2], [2, 2, 15]], 100,
                 (0.5882703405033923, 0.805, 0.6717290022503466),
                 "imbalanced truth dominated by the middle class"),
    "single-4": ([[2, 25, 6], [2, 26, 6], [2, 25, 6]], 100,
                 (0.0043402938618542775, 0.01, 0.004728898888290464),
                 "imbalanced truth, nearly uninformative predictions"),
}

# Joint truth blocks listed per true class k; cell [k][i][j] is the count for
# (method-1 prediction i, method-2 prediction j, truth k) over the denominator.
_PAIRED_TRUTH = {
    "paired-1": ([
        [[40, 10, 10], [10, 5, 5], [10, 5, 5]],
        [[5, 10, 5], [10, 40, 10], [5, 10, 5]],
        [[5, 5, 10], [5, 5, 10], [10, 10, 40]],
    ], 300, (0.0, 0.0, 0.0), "equally strong methods, balanced classes"),
    "paired-2": ([
        [[30, 15, 15], [10, 5, 5], [10, 5, 5]],
        [[5, 10, 5], [15, 30, 15], [5, 10, 5]],
        [[5, 5, 10], [5, 5, 10], [15, 15, 30]],
    ], 300, (0.15, 0.15, 0.15), "method 1 stronger, balanced classes"),
    "paired-3": ([
        [[120, 30, 30], [30, 15, 15], [30, 15, 15]],
        [[5, 10, 5], [10, 40, 10], [5, 10, 5]],
        [[5, 5, 10], [5, 5, 10], [10, 10, 40]],
    ], 500, (0.0, 0.0, 0.0), "equally strong methods, imbalanced classes"),
    "paired-4": ([
        [[190, 80, 90], [5, 5, 5], [0, 5, 5]],
        [[5, 5, 0], [5, 10, 5], [5, 5, 5]],
        [[5, 5, 5], [5, 5, 15], [5, 5, 20]],
    ], 500, (0.2848282174513212, 0.465, 0.32855741387298865),
        "method 1 stronger, imbalanced classes"),
}


def _build_scenario(name: str) -> Scenario:
    if name in _SINGLE_TRUTH:
        cells, denom, (mam, mim, mim_star), blurb = _SINGLE_TRUTH[name]
        truth = ProbTable2(np.array(cells, dtype=float) / denom)
        return Scenario(name, ScenarioKind.SINGLE, truth, mam, mim, mim_star, blurb)
    blocks, denom, (mam, mim, mim_star), blurb = _PAIRED_TRUTH[name]
    cube = np.stack([np.array(b, dtype=float) for b in blocks], axis=-1) / denom
    truth = ProbTable3(cube)
    return Scenario(name, ScenarioKind.PAIRED, truth, mam, mim, mim_star, blurb)


def builtin_scenarios() -> tuple[Scenario, ...]:
    """The four single and four paired reference scenarios."""
    return tuple(_build_scenario(name) for name in (*_SINGLE_TRUTH, *_PAIRED_TRUTH))


def scenario_by_name(name: str) -> Scenario:
    """Build and validate the one builtin scenario called ``name``."""
    if name in _SINGLE_TRUTH or name in _PAIRED_TRUTH:
        return _build_scenario(name)
    known = ", ".join(sorted(list(_SINGLE_TRUTH) + list(_PAIRED_TRUTH)))
    raise ValidationError(f"unknown scenario {name!r}; builtin scenarios: {known}")


_SINGLE_METHODS = frozenset({CIMethod.WALD, CIMethod.FISHER_Z})
_PAIRED_METHODS = frozenset({CIMethod.WALD_DIFF, CIMethod.G_TRANSFORM})


def _interval_stack(method: CIMethod, est: np.ndarray, var: np.ndarray, n: int,
                    z: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounds of each replicate's interval and whether its estimate hit the boundary."""
    if method in (CIMethod.WALD, CIMethod.WALD_DIFF):
        half = z * np.sqrt(var / n)
        lower, upper = est - half, est + half
        flagged = _wald_degenerate(est, method)
        center, var_ci = est, var
    else:
        center, var_ci, lower, upper, flagged = _transformed_bounds(method, est, var, n, z)
    _check_interval_stack(center, var_ci, lower, upper, method)
    return lower, upper, flagged


def _coverage_block(scenario: Scenario, n: int, start: int, count: int,
                    cells: tuple[tuple[MetricKind, CIMethod], ...],
                    z: float, seed: int) -> list[tuple[int, int, list[float]]]:
    """Tally replicates [start, start+count); policy-independent raw counts."""
    shape = scenario.truth.pi.shape
    draw = _replicate_sampler(scenario.truth.pi, n, seed)
    single = scenario.kind is ScenarioKind.SINGLE
    covered = [0] * len(cells)
    degenerate = [0] * len(cells)
    widths: list[list[float]] = [[] for _ in cells]
    stop = start + count
    for first in range(start, stop, CHUNK_REPS):
        p = draw(range(first, min(first + CHUNK_REPS, stop))).reshape(-1, *shape) / n
        marginals = _stack_marginals(p) if single else _joint_marginals(p)
        by_metric = {}
        for idx, (metric, method) in enumerate(cells):
            if metric in by_metric:
                undefined, est, var = by_metric[metric]
            elif single:
                undefined, est, var = _single_moments_stack(p, marginals, metric)
            else:
                undefined, est_1, est_2, _, var = _paired_moments_stack(p, marginals, metric)
                est = est_1 - est_2
            by_metric[metric] = undefined, est, var
            lower, upper, flagged = _interval_stack(method, est, var, n, z)
            true = scenario.true_value(metric)
            kept = ~flagged
            degenerate[idx] += int(np.count_nonzero(undefined)) + int(np.count_nonzero(flagged))
            covered[idx] += int(np.count_nonzero((lower <= true) & (true <= upper) & kept))
            widths[idx].extend((upper - lower)[kept].tolist())
    return [(covered[i], degenerate[i], widths[i]) for i in range(len(cells))]


def run_coverage_grid(scenario: Scenario, n: int, reps: int,
                      cells: Sequence[tuple[MetricKind, CIMethod]],
                      alpha: float = 0.05, seed: int = 0,
                      policy: DegeneracyPolicy = DegeneracyPolicy.COUNT_AS_MISS,
                      workers: int | None = None) -> list[CoverageResult]:
    """Coverage for several (metric, interval method) cells in one sampling pass.

    Every cell sees the same replicate tables, so each entry of the result
    equals what a separate run_coverage call with the same seed returns; the
    grid just avoids drawing the tables once per cell.
    """
    z = _two_sided_z(alpha)
    if reps < 1:
        raise ValidationError(f"reps must be at least 1, got {reps}")
    if n < 1:
        raise ValidationError(f"sample size must be at least 1, got {n}")
    if not 0 <= seed < MAX_SEED:
        raise ValidationError(f"seed must fit an unsigned 64-bit integer, got {seed}")
    if not isinstance(policy, DegeneracyPolicy):
        raise ValidationError(f"unknown degeneracy policy: {policy!r}")
    cells = tuple(cells)
    if not cells:
        raise ValidationError("need at least one (metric, interval method) cell")
    allowed = (_SINGLE_METHODS if scenario.kind is ScenarioKind.SINGLE
               else _PAIRED_METHODS)
    for metric, method in cells:
        if not isinstance(metric, MetricKind):
            raise ValidationError(f"unknown metric kind: {metric!r}")
        if method not in allowed:
            raise ValidationError(
                f"interval method {method.value!r} does not apply to a "
                f"{scenario.kind.value} scenario")

    if workers is None or workers <= 1:
        blocks = [_coverage_block(scenario, n, 0, reps, cells, z, seed)]
    else:
        # Imported here: the process machinery adds ~13 ms to every start-up
        # of the package and only this path uses it.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        block_size = -(-reps // workers)
        starts = list(range(0, reps, block_size))
        counts = [min(block_size, reps - s) for s in starts]
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = multiprocessing.get_context()
        # The fork context starts every worker up front, so ask for no more
        # processes than there are CPUs (there are at most `workers` blocks).
        pool_size = min(len(starts), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=pool_size, mp_context=context) as pool:
            blocks = list(pool.map(_coverage_block, repeat(scenario), repeat(n),
                                   starts, counts, repeat(cells), repeat(z),
                                   repeat(seed)))

    results = []
    for idx, (metric, method) in enumerate(cells):
        covered = sum(block[idx][0] for block in blocks)
        bad = sum(block[idx][1] for block in blocks)
        all_widths = [w for block in blocks for w in block[idx][2]]
        denominator = reps if policy is DegeneracyPolicy.COUNT_AS_MISS else reps - bad
        coverage = covered / denominator if denominator > 0 else math.nan
        mean_width = math.fsum(all_widths) / len(all_widths) if all_widths else math.nan
        results.append(CoverageResult(scenario.name, n, reps, metric, method,
                                      alpha, covered, bad, coverage, mean_width,
                                      seed, policy))
    return results


def run_coverage(scenario: Scenario, n: int, reps: int, kind: MetricKind,
                 ci_method: CIMethod, alpha: float = 0.05, seed: int = 0,
                 policy: DegeneracyPolicy = DegeneracyPolicy.COUNT_AS_MISS,
                 workers: int | None = None) -> CoverageResult:
    """Coverage of one interval constructor for one metric on one scenario."""
    return run_coverage_grid(scenario, n, reps, [(kind, ci_method)], alpha,
                             seed, policy, workers)[0]
