"""Parsing and document-rendering tests for the CLI surface."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from multimcc import (
    CIMethod,
    JointCounts3,
    MetricKind,
    ParseError,
    ValidationError,
    micro_mcc,
    normalize_joint_counts,
    marginalize,
    paired_inference,
    scenario_by_name,
    single_inference,
)
from multimcc import formats
from multimcc.formats import (
    ResultDocument,
    RunConfig,
    error_document,
    estimate_document,
    parse_joint_json,
    parse_matrix_csv,
    render_error,
    render_estimate_table,
    render_paired_table,
    paired_document,
)
from helpers import result_document_from_json

EXACT_TOL = 1e-12

DATA = Path(__file__).parent / "data"


def parse_error(code, fn, *args):
    with pytest.raises(ParseError) as excinfo:
        fn(*args)
    assert excinfo.value.code == code
    return excinfo.value


def test_csv_happy_path_with_header():
    counts = parse_matrix_csv("# classes: a, b\n1, 2\n3, 4\n")
    assert counts.labels == ("a", "b")
    assert np.array_equal(counts.cells, [[1, 2], [3, 4]])
    assert counts.n == 10


def test_csv_without_header_and_with_blank_lines():
    counts = parse_matrix_csv("\n1,0\n\n0,1\n\n")
    assert counts.labels is None
    assert np.array_equal(counts.cells, np.eye(2, dtype=int))


def test_csv_non_integer_cell_location():
    err = parse_error("non_integer", parse_matrix_csv, "1,x\n2,3\n")
    assert err.line == 1 and err.column == 2


def test_csv_float_cell_is_rejected():
    err = parse_error("non_integer", parse_matrix_csv, "1,2\n3,4.5\n")
    assert err.line == 2 and err.column == 2


def test_csv_negative_cell_location():
    err = parse_error("negative_cell", parse_matrix_csv, "1,-2\n3,4\n")
    assert err.line == 1 and err.column == 2


def test_csv_ragged_row_location():
    err = parse_error("ragged_rows", parse_matrix_csv, "1,2\n3\n")
    assert err.line == 2


def test_csv_non_square_is_ragged_at_last_row():
    err = parse_error("ragged_rows", parse_matrix_csv, "1,2,3\n4,5,6\n")
    assert err.line == 2


def test_csv_empty_input():
    err = parse_error("empty_input", parse_matrix_csv, "\n  \n")
    assert err.line == 1


def test_csv_header_variants_rejected():
    assert parse_error("malformed_document", parse_matrix_csv,
                       "# labels: a,b\n1,0\n0,1\n").line == 1
    assert parse_error("malformed_document", parse_matrix_csv,
                       "# classes: a,b\n# classes: c,d\n1,0\n0,1\n").line == 2
    assert parse_error("malformed_document", parse_matrix_csv,
                       "1,0\n# classes: a,b\n0,1\n").line == 2
    parse_error("malformed_document", parse_matrix_csv,
                "# classes: a,b,c\n1,0\n0,1\n")


def test_csv_fixture_parses_to_known_shape():
    counts = parse_matrix_csv((DATA / "frcnn.csv").read_text())
    assert counts.r == 6
    assert counts.n == 2000
    assert counts.labels == ("MM", "BCC", "Nevus", "SK", "H/H", "SL")


def test_joint_json_happy_path():
    doc = json.dumps({"r": 2, "labels": ["x", "y"],
                      "counts": [[1, 1, 1, 5], [2, 2, 2, 7], [1, 2, 1, 3]]})
    counts = parse_joint_json(doc)
    assert counts.r == 2
    assert counts.labels == ("x", "y")
    assert counts.cells[0, 0, 0] == 5
    assert counts.cells[1, 1, 1] == 7
    assert counts.cells[0, 1, 0] == 3
    assert counts.cells[1, 0, 1] == 0
    assert counts.n == 15


def test_joint_json_fixture_parses():
    counts = parse_joint_json((DATA / "joint_example.json").read_text())
    assert counts.r == 3
    assert counts.n == 500
    assert counts.labels == ("c1", "c2", "c3")


def test_joint_json_error_codes():
    parse_error("malformed_document", parse_joint_json, "{not json")
    parse_error("malformed_document", parse_joint_json, "[1, 2]")
    parse_error("malformed_document", parse_joint_json,
                json.dumps({"r": 2, "counts": [], "extra": 1}))
    for bad_r in (1, 201, "3", True, None):
        parse_error("malformed_document", parse_joint_json,
                    json.dumps({"r": bad_r, "counts": []}))
    parse_error("malformed_document", parse_joint_json,
                json.dumps({"r": 2, "labels": ["only"], "counts": []}))
    parse_error("malformed_document", parse_joint_json,
                json.dumps({"r": 2, "counts": {"a": 1}}))
    parse_error("malformed_document", parse_joint_json,
                json.dumps({"r": 2, "counts": [[1, 1, 1]]}))
    parse_error("malformed_document", parse_joint_json,
                json.dumps({"r": 2, "counts": [[1, 1, 1, 2.5]]}))
    parse_error("index_out_of_range", parse_joint_json,
                json.dumps({"r": 2, "counts": [[0, 1, 1, 5]]}))
    parse_error("index_out_of_range", parse_joint_json,
                json.dumps({"r": 2, "counts": [[1, 1, 3, 5]]}))
    parse_error("negative_cell", parse_joint_json,
                json.dumps({"r": 2, "counts": [[1, 1, 1, -5]]}))
    parse_error("duplicate_cell", parse_joint_json,
                json.dumps({"r": 2, "counts": [[1, 1, 1, 5], [1, 1, 1, 6]]}))


def test_joint_json_deep_nesting_is_malformed():
    parse_error("malformed_document", parse_joint_json, "[" * 200000)


def test_parsers_reject_counts_beyond_int64():
    parse_error("count_overflow", parse_matrix_csv, "1," + "9" * 5000 + "\n1,1\n")
    parse_error("count_overflow", parse_joint_json,
                json.dumps({"r": 2, "counts": [[1, 1, 1, 2 ** 62], [1, 1, 2, 2 ** 62]]}))
    with pytest.raises(ParseError):     # json refuses the literal on Python >= 3.11
        parse_joint_json('{"r": 2, "counts": [[1, 1, 1, ' + "9" * 5000 + ']]}')
    largest = parse_matrix_csv(f"{2 ** 63 - 2},0\n0,1\n")
    assert largest.n == 2 ** 63 - 1


def test_joint_json_hands_its_cube_to_the_table_without_a_copy():
    doc = json.dumps({"r": 200, "counts": [[1, 1, 1, 5]]})
    tracemalloc.start()
    try:
        counts = parse_joint_json(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One dense 200**3 int64 cube is 64 MB; a second copy would pass 128 MB.
    assert peak < 100e6, peak
    assert counts.n == 5 and not counts.cells.flags.writeable


def test_joint_counts_never_freeze_the_callers_array():
    cells = np.zeros((2, 2, 2), dtype=np.int64)
    cells[0, 0, 0] = 3
    counts = JointCounts3(cells)
    assert cells.flags.writeable
    cells[0, 0, 0] = 7
    assert counts.cells[0, 0, 0] == 3
    assert not counts.cells.flags.writeable
    frozen_view = cells.view()
    frozen_view.flags.writeable = False
    shared = JointCounts3(frozen_view)
    cells[1, 1, 1] = 4
    assert shared.cells[1, 1, 1] == 0


def test_joint_json_round_trip_through_inference():
    cube = np.rint(scenario_by_name("paired-1").truth.pi * 300).astype(int)
    entries = [[i + 1, j + 1, k + 1, int(cube[i, j, k])]
               for i in range(3) for j in range(3) for k in range(3)]
    counts = parse_joint_json(json.dumps({"r": 3, "counts": entries}))
    assert counts.n == 300
    p3 = normalize_joint_counts(counts)
    assert math.isclose(micro_mcc(marginalize(p3, 1)), 0.40, abs_tol=EXACT_TOL)
    result = paired_inference(counts, MetricKind.MICRO)
    assert math.isclose(result.difference, 0.0, abs_tol=EXACT_TOL)


def test_fast_paths_parse_large_and_fixture_inputs_alone(monkeypatch):
    """Inputs shaped like the benchmark's large tables and the bundled
    fixtures parse, to the checked parsers' tables, with those parsers off."""
    rng = np.random.default_rng(20261020)
    grid = rng.poisson(17.0, size=(240, 240))
    r = 64
    cube = np.zeros(r ** 3, dtype=np.int64)
    cube[rng.choice(r ** 3, size=22_000, replace=False)] = rng.integers(1, 40, size=22_000)
    cube = cube.reshape(r, r, r)
    entries = np.column_stack([np.argwhere(cube) + 1, cube[cube > 0]]).tolist()
    csv_texts = ["\n".join(",".join(map(str, row)) for row in grid.tolist()) + "\n",
                 (DATA / "frcnn.csv").read_text(), (DATA / "bcd.csv").read_text()]
    joint_texts = [json.dumps({"r": r, "counts": entries}),
                   (DATA / "joint_example.json").read_text()]

    with monkeypatch.context() as patched:
        patched.setattr(formats, "_accepted_matrix", lambda text: None)
        patched.setattr(formats, "_accepted_joint_cells", lambda *args: None)
        want = [parse_matrix_csv(text) for text in csv_texts]
        want += [parse_joint_json(text) for text in joint_texts]
    assert np.array_equal(want[0].cells, grid) and np.array_equal(want[3].cells, cube)

    def refuse(*args):
        raise AssertionError("the fast path declined a plain input")

    monkeypatch.setattr(formats, "_checked_matrix", refuse)
    monkeypatch.setattr(formats, "_checked_joint_cells", refuse)
    got = [parse_matrix_csv(text) for text in csv_texts]
    got += [parse_joint_json(text) for text in joint_texts]
    for table, expected in zip(got, want):
        assert np.array_equal(table.cells, expected.cells)
        assert table.labels == expected.labels


@pytest.mark.parametrize("pattern", [formats._INT_RE, formats._FAST_ROW_RE])
def test_cell_patterns_use_no_python_3_11_syntax(pattern):
    """Possessive quantifiers and atomic groups need Python 3.11; the package
    supports 3.10, where such a pattern fails at import."""
    for newer in ("*+", "++", "?+", "}+", "(?>"):
        assert newer not in pattern.pattern


def test_run_config_validation():
    with pytest.raises(ValidationError):
        RunConfig("analyze")
    with pytest.raises(ValidationError):
        RunConfig("estimate", alpha=0.0)
    with pytest.raises(ValidationError):
        RunConfig("estimate", output_format="yaml")
    with pytest.raises(ValidationError):
        RunConfig("estimate", metrics=())
    with pytest.raises(ValidationError):
        RunConfig("estimate", metrics=("mam", "accuracy"))
    with pytest.raises(ValidationError):
        RunConfig("estimate", policy="drop")
    with pytest.raises(ValidationError):
        RunConfig("estimate", ci="g")
    with pytest.raises(ValidationError):
        RunConfig("paired-diff", ci="fisher-z")
    with pytest.raises(ValidationError):
        RunConfig("simulate", ci="wald,bogus", scenario="single-1", n=50)
    with pytest.raises(ValidationError):
        RunConfig("simulate", scenario="single-1")
    with pytest.raises(ValidationError):
        RunConfig("simulate", scenario="single-1", n=50, reps=0)
    RunConfig("simulate", ci="wald,fisher-z", scenario="single-1", n=50)
    RunConfig("simulate", ci="all", scenario="paired-1", n=100)


def test_run_config_dict_shape_depends_on_command():
    est = RunConfig("estimate", input_path="m.csv", transpose=True).to_dict()
    assert est["input"] == "m.csv" and est["transpose"] is True
    assert "scenario" not in est and "command" not in est
    sim = RunConfig("simulate", scenario="single-1", n=50, ci="all").to_dict()
    assert sim["scenario"] == "single-1" and sim["reps"] == 10000
    assert "input" not in sim


def test_result_document_round_trips_awkward_floats():
    awkward = [0.1 + 0.2, 1e-17, 2.0 - 1e-10, -0.9999999999999999]
    doc = ResultDocument("estimate", "0.1.0", {"alpha": 0.05},
                         [{"values": awkward}], labels=("a", "b"), n=7)
    back = result_document_from_json(doc.to_json())
    assert back.command == doc.command
    assert back.version == doc.version
    assert back.labels == doc.labels
    assert back.n == 7
    assert back.results[0]["values"] == awkward


def test_result_document_json_text_shape():
    doc = ResultDocument("estimate", "0.1.0", {}, [])
    text = doc.to_json()
    assert text.endswith("\n")
    assert json.loads(text)["command"] == "estimate"


def test_result_document_from_json_errors():
    parse_error("malformed_document", result_document_from_json, "{oops")
    parse_error("malformed_document", result_document_from_json, "[]")
    parse_error("malformed_document", result_document_from_json,
                json.dumps({"command": "estimate"}))


def test_error_document_shape():
    payload = json.loads(error_document("ragged_rows", "bad row", line=3))
    assert payload["error"]["code"] == "ragged_rows"
    assert payload["error"]["line"] == 3
    assert payload["error"]["column"] is None


def test_render_error_places_location_first():
    err = ParseError("non_integer", "cell 'x' is not an integer", line=2, column=5)
    assert render_error(err) == "line 2, column 5: cell 'x' is not an integer [non_integer]"
    bare = ParseError("empty_input", "no matrix rows found")
    assert render_error(bare) == "no matrix rows found [empty_input]"


def test_render_estimate_table_layout():
    counts = parse_matrix_csv("# classes: a, b\n40, 10\n5, 45\n")
    config = RunConfig("estimate", input_path="m.csv")
    intervals = {kind: single_inference(counts, kind) for kind in MetricKind}
    doc = estimate_document(config, counts, intervals, "0.1.0")
    text = render_estimate_table(doc)
    lines = text.splitlines()
    assert lines[0] == "classes: a, b"
    assert lines[1] == "n: 100"
    assert lines[3].split() == ["metric", "estimate", "lower", "upper", "ci",
                                "alpha", "flags"]
    mam_row = next(line for line in lines if line.startswith("mam"))
    est = intervals[MetricKind.MACRO].estimate
    assert f"{est:.3f}" in mam_row
    assert mam_row.split()[-1] == "-"


def test_render_paired_table_layout():
    cube = np.rint(scenario_by_name("paired-2").truth.pi * 300).astype(int)
    entries = [[i + 1, j + 1, k + 1, int(cube[i, j, k])]
               for i in range(3) for j in range(3) for k in range(3)]
    counts = parse_joint_json(json.dumps({"r": 3, "counts": entries}))
    config = RunConfig("paired-diff", input_path="j.json", ci="g")
    results = {MetricKind.MICRO: paired_inference(
        counts, MetricKind.MICRO, method=CIMethod.G_TRANSFORM)}
    doc = paired_document(config, counts, results, "0.1.0")
    lines = render_paired_table(doc).splitlines()
    assert lines[0] == "n: 300"
    assert lines[2].split() == ["metric", "method-1", "method-2", "difference",
                                "lower", "upper", "ci", "alpha", "flags"]
    row = lines[4].split()
    assert row[0] == "mim"
    assert row[1] == "0.400" and row[2] == "0.250" and row[3] == "0.150"
    assert row[6] == "g"
