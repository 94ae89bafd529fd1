"""Property tests: the parsers raise only the package's own errors."""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from multimcc import MccError
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
