"""Command-line entry point.

Three subcommands: ``estimate`` reads a confusion-matrix CSV and prints each
selected metric with its confidence interval; ``paired-diff`` reads a joint
r*r*r table as JSON and prints the difference between the two methods with a
paired interval; ``simulate`` runs the Monte Carlo coverage harness on a
builtin scenario.

Exit codes: 0 on success, 2 for any input problem (unreadable file, parse
error, bad flag combination), 3 when the input is well formed but the
requested quantity is undefined on it (a degenerate marginal).  Warnings and
error text go to stderr; in JSON mode a machine-readable error document also
goes to stdout.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .errors import DegenerateMarginalError, ParseError, ValidationError
from .inference import CIMethod, _table_inference
from .metrics import ConfusionCounts2, MetricKind, normalize_counts
from .paired import _joint_inference, _joint_marginals, normalize_joint_counts
from .formats import (
    METRIC_TOKENS,
    RunConfig,
    coverage_report,
    error_document,
    estimate_document,
    paired_document,
    parse_joint_json,
    parse_matrix_csv,
    render_error,
    render_estimate_table,
    render_paired_table,
    simulate_document,
)
from .simulate import (
    DegeneracyPolicy,
    ScenarioKind,
    run_coverage_grid,
    scenario_by_name,
)

__all__ = ["main", "build_parser"]

SEED_ENV_VAR = "MCC_SEED"

_SINGLE_CI_TOKENS = {"wald": CIMethod.WALD, "fisher-z": CIMethod.FISHER_Z}
_PAIRED_CI_TOKENS = {"wald": CIMethod.WALD_DIFF, "g": CIMethod.G_TRANSFORM}


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the three subcommands."""
    parser = argparse.ArgumentParser(
        prog="multimcc",
        description="Multiclass Matthews correlation coefficients with "
                    "delta-method confidence intervals.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--metric", action="append", choices=list(METRIC_TOKENS),
                         help="metric to report; repeatable, default all three")
        cmd.add_argument("--alpha", type=float, default=0.05,
                         help="two-sided significance level (default 0.05)")
        cmd.add_argument("--format", choices=["table", "json"], default="table",
                         help="output format (default table)")

    est = sub.add_parser("estimate",
                         help="metrics of one confusion matrix, with intervals")
    est.add_argument("--input", required=True, metavar="CSV",
                     help="confusion matrix; rows are predictions, columns truth")
    est.add_argument("--ci", choices=["wald", "fisher-z"], default="wald",
                     help="interval construction (default wald)")
    est.add_argument("--transpose", action="store_true",
                     help="input has truth in rows and predictions in columns")
    common(est)

    paired = sub.add_parser("paired-diff",
                            help="difference between two methods on the same subjects")
    paired.add_argument("--input", required=True, metavar="JSON",
                        help="joint table document; see the README for the schema")
    paired.add_argument("--ci", choices=["wald", "g"], default="wald",
                        help="interval construction for the difference (default wald)")
    paired.add_argument("--independent", action="store_true",
                        help="treat the two methods as independently sampled "
                             "(drops the covariance term)")
    common(paired)

    sim = sub.add_parser("simulate", help="Monte Carlo coverage of the intervals")
    sim.add_argument("--scenario", required=True,
                     help="builtin scenario name, e.g. single-1 or paired-3")
    sim.add_argument("--n", type=int, required=True, help="sample size per replicate")
    sim.add_argument("--reps", type=int, default=10000,
                     help="number of replicates (default 10000)")
    sim.add_argument("--ci", action="append", choices=["wald", "fisher-z", "g"],
                     help="interval construction; repeatable, default all that "
                          "apply to the scenario")
    sim.add_argument("--seed", type=int, default=None,
                     help=f"RNG seed (default ${SEED_ENV_VAR} or 0)")
    sim.add_argument("--policy", choices=[p.value for p in DegeneracyPolicy],
                     default=DegeneracyPolicy.COUNT_AS_MISS.value,
                     help="how degenerate replicates enter coverage "
                          "(default count-as-miss)")
    sim.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: run in-process)")
    common(sim)
    return parser


# Built on the first call to main and reused: parse_args keeps no state between
# calls (each returns a new namespace, and the append options default to None),
# and building the parser costs more than a whole estimate on a small table.
_shared_parser = functools.cache(build_parser)


def _dedupe(tokens: Sequence[str]) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for token in tokens:
        seen.setdefault(token)
    return tuple(seen)


def _seed_from_env() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(
            f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    metrics = _dedupe(args.metric) if args.metric else METRIC_TOKENS
    shared = dict(metrics=metrics, alpha=args.alpha, output_format=args.format)
    if args.command == "estimate":
        return RunConfig("estimate", input_path=args.input, ci=args.ci,
                         transpose=args.transpose, **shared)
    if args.command == "paired-diff":
        return RunConfig("paired-diff", input_path=args.input, ci=args.ci,
                         independent=args.independent, **shared)
    seed = args.seed if args.seed is not None else _seed_from_env()
    ci = ",".join(_dedupe(args.ci)) if args.ci else "all"
    return RunConfig("simulate", ci=ci, scenario=args.scenario, n=args.n,
                     reps=args.reps, seed=seed, policy=args.policy,
                     workers=args.workers, **shared)


def _read_input(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def cmd_estimate(config: RunConfig) -> int:
    counts = parse_matrix_csv(_read_input(config.input_path))
    if config.transpose:
        counts = ConfusionCounts2(counts.cells.T, labels=counts.labels)
    # Normalized once; every metric runs on the same table.
    p, n, method = normalize_counts(counts), counts.n, _SINGLE_CI_TOKENS[config.ci]
    intervals = {MetricKind(token): _table_inference(p, n, MetricKind(token), method,
                                                     config.alpha)
                 for token in config.metrics}
    doc = estimate_document(config, counts, intervals, __version__)
    if config.output_format == "json":
        sys.stdout.write(doc.to_json())
    else:
        print(render_estimate_table(doc))
    return 0


def cmd_paired_diff(config: RunConfig) -> int:
    counts = parse_joint_json(_read_input(config.input_path))
    # Normalized and marginalized once; every metric runs on the same tables.
    p3 = normalize_joint_counts(counts)
    marginals, method = _joint_marginals(p3.pi[None]), _PAIRED_CI_TOKENS[config.ci]
    results = {MetricKind(token): _joint_inference(p3, marginals, counts.n, MetricKind(token),
                                                   method, config.alpha, config.independent)
               for token in config.metrics}
    doc = paired_document(config, counts, results, __version__)
    if config.output_format == "json":
        sys.stdout.write(doc.to_json())
    else:
        print(render_paired_table(doc))
    return 0


def cmd_simulate(config: RunConfig) -> int:
    scenario = scenario_by_name(config.scenario)
    token_map = (_SINGLE_CI_TOKENS if scenario.kind is ScenarioKind.SINGLE
                 else _PAIRED_CI_TOKENS)
    if config.ci == "all":
        tokens = tuple(token_map)
    else:
        tokens = config.ci.split(",")
        for token in tokens:
            if token not in token_map:
                raise ValidationError(
                    f"interval method {token!r} does not apply to a "
                    f"{scenario.kind.value} scenario")
    cells = [(MetricKind(m), token_map[t]) for m in config.metrics for t in tokens]
    results = run_coverage_grid(scenario, config.n, config.reps, cells,
                                config.alpha, config.seed,
                                DegeneracyPolicy(config.policy), config.workers)
    doc = simulate_document(config, results, __version__)
    if config.output_format == "json":
        sys.stdout.write(doc.to_json())
    else:
        print(coverage_report(results))
    return 0


_COMMANDS = {"estimate": cmd_estimate, "paired-diff": cmd_paired_diff,
             "simulate": cmd_simulate}


def main(argv: Sequence[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    wants_json = getattr(args, "format", "table") == "json"
    try:
        config = _config_from_args(args)
        return _COMMANDS[args.command](config)
    except ParseError as exc:
        print(render_error(exc), file=sys.stderr)
        if wants_json:
            sys.stdout.write(error_document(exc.code, str(exc), exc.line, exc.column))
        return 2
    except DegenerateMarginalError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        if wants_json:
            sys.stdout.write(error_document("degenerate_marginal", str(exc)))
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if wants_json:
            sys.stdout.write(error_document("invalid_input", str(exc)))
        return 2


if __name__ == "__main__":
    sys.exit(main())
