"""Property tests: the parsers raise only the package's own errors, and the
command line exits only with its documented codes."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from multimcc import MccError
from multimcc.cli import main
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
