"""Property tests: the parsers raise only the package's own errors, the
command line exits only with its documented codes, intervals bracket their
estimates inside the transformed ranges, and the estimates do not depend on
how the classes are numbered or which axis holds the truth."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from multimcc import (
    CIMethod,
    ConfusionCounts2,
    DegenerateMarginalError,
    JointCounts3,
    MccError,
    MetricKind,
    ValidationError,
    estimate,
    normalize_counts,
    paired_inference,
    single_inference,
)
from multimcc.cli import main
from multimcc.inference import _BOUND_SLACK
from multimcc.formats import parse_joint_json, parse_matrix_csv

# Few examples and no example database, so the suite's run time and its
# working tree stay as they are.
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None,
                             suppress_health_check=[HealthCheck.too_slow])

counts = st.integers(min_value=-5, max_value=2 ** 70) | st.integers()

csv_documents = st.lists(st.lists(counts, min_size=1, max_size=4),
                         min_size=1, max_size=4).map(
    lambda rows: "\n".join(",".join(map(str, row)) for row in rows))

joint_documents = st.builds(
    lambda r, entries: json.dumps({"r": r, "counts": entries}),
    st.integers(min_value=1, max_value=3),
    st.lists(st.lists(counts, min_size=4, max_size=4), max_size=6))

nested_documents = st.integers(min_value=1, max_value=100_000).map(lambda k: "[" * k)

documents = st.text() | csv_documents | joint_documents | nested_documents


def parses_or_raises_mcc_error(parser, text):
    try:
        parser(text)
    except MccError:
        pass


@PROPERTY_SETTINGS
@given(documents)
@example("1,1\n99999999999999999999,1\n")
@example("9223372036854775807,1\n1,1\n")
def test_matrix_csv_raises_only_mcc_errors(text):
    parses_or_raises_mcc_error(parse_matrix_csv, text)


@PROPERTY_SETTINGS
@given(documents)
@example('{"r": 2, "counts": [[1, 1, 1, 99999999999999999999]]}')
@example('{"r": 2, "counts": [[1, 1, 1, 9223372036854775807], [2, 2, 2, 1]]}')
@example("[" * 200_000)
def test_joint_json_raises_only_mcc_errors(text):
    parses_or_raises_mcc_error(parse_joint_json, text)


small_grids = st.integers(min_value=2, max_value=4).flatmap(
    lambda r: st.lists(st.lists(st.integers(min_value=0, max_value=6), min_size=r, max_size=r),
                       min_size=r, max_size=r))
perfect_grids = st.builds(
    lambda r, k: [[k if i == j else 0 for j in range(r)] for i in range(r)],
    st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=9))
csv_inputs = (small_grids | perfect_grids).map(
    lambda rows: "\n".join(",".join(map(str, row)) for row in rows) + "\n")

joint_inputs = st.integers(min_value=2, max_value=3).flatmap(
    lambda r: st.lists(st.tuples(*[st.integers(min_value=1, max_value=r)] * 3,
                                 st.integers(min_value=0, max_value=6)), max_size=12)
    .map(lambda cells, r=r: json.dumps(
        {"r": r, "counts": [list(c) for c in {c[:3]: c for c in cells}.values()]})))
perfect_joint = st.integers(min_value=2, max_value=3).map(lambda r: json.dumps(
    {"r": r, "counts": [[k, k, k, 4] for k in range(1, r + 1)]}))

alphas = (st.sampled_from([0.05, 0.5, 1e-10, 1e-300, 5e-324, 0.0, 1.0, -0.1, 2.0])
          | st.floats(allow_nan=True, allow_infinity=True)
          | st.floats(min_value=0.0, max_value=1.0))


def exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:       # argparse usage errors
            return exc.code


CI_TOKENS = {"estimate": ("wald", "fisher-z"), "paired-diff": ("wald", "g")}
FLAGS = {"estimate": "--transpose", "paired-diff": "--independent"}

inputs = (csv_inputs.map(lambda text: ("estimate", text))
          | (joint_inputs | perfect_joint).map(lambda text: ("paired-diff", text)))


@PROPERTY_SETTINGS
@given(inputs, alphas, st.sampled_from([0, 1]), st.sampled_from(["table", "json"]),
       st.booleans())
@example(("estimate", "5,0\n0,5\n"), 1e-300, 0, "json", False)
@example(("paired-diff", json.dumps({"r": 2, "counts": [[1, 2, 1, 3], [2, 1, 2, 3]]})),
         5e-324, 1, "table", True)
def test_cli_exits_only_with_documented_codes(command_input, alpha, ci, fmt, flag):
    command, text = command_input
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text)
        argv = [command, "--input", str(path), "--ci", CI_TOKENS[command][ci],
                "--alpha", repr(alpha), "--format", fmt]
        code = exit_code(argv + [FLAGS[command]] if flag else argv)
    assert code in (0, 2, 3), (argv, text)


# Criterion 8's tolerance for the structural invariants.
INVARIANT_TOL = 1e-12

count_tables = st.integers(min_value=2, max_value=5).flatmap(
    lambda r: st.lists(st.lists(st.integers(min_value=0, max_value=60), min_size=r, max_size=r),
                       min_size=r, max_size=r)).filter(lambda rows: sum(map(sum, rows)) > 0)
joint_tables = st.integers(min_value=2, max_value=3).flatmap(
    lambda r: st.lists(st.integers(min_value=0, max_value=40), min_size=r ** 3,
                       max_size=r ** 3).map(lambda cells, r=r: np.reshape(cells, (r, r, r)))
).filter(lambda cube: cube.sum() > 0)
alpha_levels = st.sampled_from([0.5, 0.2, 0.05, 0.01, 1e-6])


@PROPERTY_SETTINGS
@given(count_tables, st.sampled_from(list(MetricKind)),
       st.sampled_from([CIMethod.WALD, CIMethod.FISHER_Z]), alpha_levels)
def test_single_intervals_bracket_their_estimates(rows, kind, method, alpha):
    try:
        ci = single_inference(ConfusionCounts2(np.array(rows)), kind, method, alpha)
    except DegenerateMarginalError:
        return
    assert ci.lower - _BOUND_SLACK <= ci.estimate <= ci.upper + _BOUND_SLACK
    assert ci.lower <= ci.upper
    if method is CIMethod.FISHER_Z:
        assert -1.0 < ci.lower <= ci.upper < 1.0


def has_saturated_marginal(cube: np.ndarray) -> bool:
    """Whether one class takes every truth, or every prediction of one method."""
    return any(np.count_nonzero(cube.sum(axis=axes)) == 1 for axes in ((0, 1), (1, 2), (0, 2)))


@pytest.mark.xfail(strict=True, raises=ValidationError,
                   reason="a marginal whose cells/n sum to 1 - 1 ulp passes the MICRO_STAR "
                          "undefined check, and the covariance block then fails its own "
                          "variance check (ROADMAP open item 5)")
def test_near_saturated_marginal_is_degenerate():
    cube = np.zeros((3, 3, 3), dtype=np.int64)
    cube[0, 0, 0], cube[1, 1, 0], cube[2, 2, 0] = 11, 9, 4     # every truth is class 1
    with pytest.raises(DegenerateMarginalError):
        paired_inference(JointCounts3(cube), MetricKind.MICRO_STAR)


@PROPERTY_SETTINGS
@given(joint_tables, st.sampled_from(list(MetricKind)),
       st.sampled_from([CIMethod.WALD_DIFF, CIMethod.G_TRANSFORM]), alpha_levels,
       st.booleans())
def test_paired_intervals_bracket_their_differences(cube, kind, method, alpha, independent):
    if kind is MetricKind.MICRO_STAR and has_saturated_marginal(cube):
        return      # the known defect pinned by test_near_saturated_marginal_is_degenerate
    try:
        result = paired_inference(JointCounts3(cube), kind, method, alpha, independent)
    except DegenerateMarginalError:
        return
    ci = result.interval
    assert ci.lower - _BOUND_SLACK <= ci.estimate <= ci.upper + _BOUND_SLACK
    assert ci.lower <= ci.upper
    if method is CIMethod.G_TRANSFORM:
        assert -2.0 < ci.lower <= ci.upper < 2.0


def estimates_or_degenerate(table: np.ndarray) -> list:
    p = normalize_counts(ConfusionCounts2(table))
    values = []
    for kind in MetricKind:
        try:
            values.append(estimate(p, kind))
        except DegenerateMarginalError:
            values.append(None)
    return values


@PROPERTY_SETTINGS
@given(count_tables.flatmap(lambda rows: st.tuples(
    st.just(np.array(rows)), st.permutations(range(len(rows))))))
def test_estimates_survive_relabelling_and_transposing(table_and_perm):
    table, perm = table_and_perm
    base = estimates_or_degenerate(table)
    for view in (table[np.ix_(perm, perm)], table.T):
        for want, got in zip(base, estimates_or_degenerate(view)):
            if want is None or got is None:
                assert want is got
            else:
                assert abs(got - want) <= INVARIANT_TOL
