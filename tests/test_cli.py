"""End-to-end command-line tests: exit codes, output documents, golden files."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from multimcc import (
    CIMethod,
    MetricKind,
    __version__,
    run_coverage,
    scenario_by_name,
    single_inference,
)
import multimcc.cli as cli
from multimcc.cli import main
from multimcc.formats import parse_matrix_csv

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

VERSION_RE = re.compile(r'"version": "[^"]*"')
INPUT_RE = re.compile(r'"input": "[^"]*"')

FRCNN = str(DATA / "frcnn.csv")
BCD = str(DATA / "bcd.csv")
JOINT = str(DATA / "joint_example.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_table_output(capsys):
    code, out, err = run(capsys, "estimate", "--input", FRCNN)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "classes: MM, BCC, Nevus, SK, H/H, SL"
    assert lines[1] == "n: 2000"
    mam_row = next(line for line in lines if line.startswith("mam"))
    assert "0.812" in mam_row


def test_estimate_json_matches_library(capsys):
    code, out, _ = run(capsys, "estimate", "--input", FRCNN, "--format", "json",
                       "--ci", "fisher-z", "--alpha", "0.01")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "estimate"
    assert doc["version"] == __version__
    assert doc["config"]["ci"] == "fisher-z"
    assert doc["n"] == 2000
    counts = parse_matrix_csv(Path(FRCNN).read_text())
    for row in doc["results"]:
        ci = single_inference(counts, MetricKind(row["metric"]),
                              CIMethod.FISHER_Z, 0.01)
        assert row["estimate"] == ci.estimate
        assert row["lower"] == ci.lower
        assert row["upper"] == ci.upper
        assert row["alpha"] == 0.01


def test_estimate_metric_selection_preserves_order(capsys):
    code, out, _ = run(capsys, "estimate", "--input", FRCNN, "--format", "json",
                       "--metric", "mim", "--metric", "mam", "--metric", "mim")
    assert code == 0
    doc = json.loads(out)
    assert [row["metric"] for row in doc["results"]] == ["mim", "mam"]


def test_estimate_transpose_equals_pretransposed_file(capsys, tmp_path):
    asymmetric = "5,1,0\n2,6,1\n3,0,7\n"
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(asymmetric)
    cells = parse_matrix_csv(asymmetric).cells
    b.write_text("\n".join(",".join(str(x) for x in row) for row in cells.T) + "\n")
    _, out_a, _ = run(capsys, "estimate", "--input", str(a), "--transpose",
                      "--format", "json")
    _, out_b, _ = run(capsys, "estimate", "--input", str(b), "--format", "json")
    assert json.loads(out_a)["results"] == json.loads(out_b)["results"]


def test_paired_diff_table_output(capsys):
    code, out, err = run(capsys, "paired-diff", "--input", JOINT)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "classes: c1, c2, c3"
    assert lines[1] == "n: 500"
    mim_row = next(line for line in lines if line.startswith("mim ")).split()
    assert mim_row[1] == "0.730"
    assert mim_row[2] == "0.265"
    assert mim_row[3] == "0.465"
    assert mim_row[6] == "wald-diff"


def test_paired_diff_independent_widens_with_positive_covariance(capsys):
    _, out_paired, _ = run(capsys, "paired-diff", "--input", JOINT,
                           "--format", "json", "--metric", "mim")
    _, out_indep, _ = run(capsys, "paired-diff", "--input", JOINT,
                          "--format", "json", "--metric", "mim", "--independent")
    row_p = json.loads(out_paired)["results"][0]
    row_i = json.loads(out_indep)["results"][0]
    assert row_p["cov"] > 0.0
    assert row_p["cov"] == row_i["cov"]
    width_p = row_p["upper"] - row_p["lower"]
    width_i = row_i["upper"] - row_i["lower"]
    assert width_i > width_p


def test_paired_diff_g_interval_stays_inside_range(capsys):
    code, out, _ = run(capsys, "paired-diff", "--input", JOINT, "--ci", "g",
                       "--format", "json")
    assert code == 0
    for row in json.loads(out)["results"]:
        assert -2.0 < row["lower"] <= row["upper"] < 2.0
        assert row["method"] == "g"


def test_simulate_table_row_count(capsys):
    code, out, _ = run(capsys, "simulate", "--scenario", "single-1",
                       "--n", "50", "--reps", "40", "--seed", "9")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 + 3 * 2
    assert lines[0].split()[0] == "scenario"


def test_simulate_json_matches_library(capsys):
    code, out, _ = run(capsys, "simulate", "--scenario", "paired-2",
                       "--n", "60", "--reps", "50", "--seed", "6",
                       "--metric", "mim", "--ci", "g", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["policy"] == "count-as-miss"
    row = doc["results"][0]
    direct = run_coverage(scenario_by_name("paired-2"), 60, 50,
                          MetricKind.MICRO, CIMethod.G_TRANSFORM, seed=6)
    assert row["covered"] == direct.covered
    assert row["coverage"] == direct.coverage
    assert row["mean_width"] == direct.mean_width
    assert row["seed"] == 6


def test_simulate_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("MCC_SEED", "42")
    _, out_env, _ = run(capsys, "simulate", "--scenario", "single-2",
                        "--n", "30", "--reps", "30", "--metric", "mim",
                        "--ci", "wald", "--format", "json")
    monkeypatch.delenv("MCC_SEED")
    _, out_flag, _ = run(capsys, "simulate", "--scenario", "single-2",
                         "--n", "30", "--reps", "30", "--metric", "mim",
                         "--ci", "wald", "--seed", "42", "--format", "json")
    assert json.loads(out_env) == json.loads(out_flag)


def test_simulate_rejects_bad_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("MCC_SEED", "not-a-number")
    code, _, err = run(capsys, "simulate", "--scenario", "single-1",
                       "--n", "30", "--reps", "10")
    assert code == 2
    assert "MCC_SEED" in err


def test_parse_error_exit_code_and_json_document(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    code, out, err = run(capsys, "estimate", "--input", str(bad))
    assert code == 2
    assert "[ragged_rows]" in err
    assert out == ""
    code, out, err = run(capsys, "estimate", "--input", str(bad),
                         "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["code"] == "ragged_rows"
    assert payload["error"]["line"] == 2


def test_missing_input_file_is_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "estimate", "--input", str(tmp_path / "nope.csv"))
    assert code == 2
    assert "cannot read" in err


def test_non_utf8_input_file_is_exit_2(capsys, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("# classes: caf\xe9, th\xe9\n1,2\n3,4\n".encode("latin-1"))
    code, out, err = run(capsys, "estimate", "--input", str(path))
    assert code == 2
    assert "cannot read" in err
    assert out == ""


def assert_count_overflow(capsys, command, path, line=None, column=None):
    code, out, err = run(capsys, command, "--input", str(path), "--format", "json")
    assert code == 2
    assert "[count_overflow]" in err
    error = json.loads(out)["error"]
    assert (error["code"], error["line"], error["column"]) == (
        "count_overflow", line, column)


def test_csv_cell_above_int64_is_exit_2(capsys, tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("1,1\n99999999999999999999,1\n")
    assert_count_overflow(capsys, "estimate", path, line=2, column=1)


def test_csv_total_above_int64_is_exit_2(capsys, tmp_path):
    path = tmp_path / "wraps.csv"
    path.write_text("9223372036854775807,1\n1,1\n")
    assert_count_overflow(capsys, "estimate", path, line=1, column=2)


def test_joint_count_above_int64_is_exit_2(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"r": 2, "counts": [[1, 1, 1, 99999999999999999999],
                                                   [2, 2, 2, 1]]}))
    assert_count_overflow(capsys, "paired-diff", path)


def test_degenerate_marginal_is_exit_3(capsys, tmp_path):
    path = tmp_path / "deg.csv"
    path.write_text("5,0,0\n0,5,0\n0,0,0\n")
    code, out, err = run(capsys, "estimate", "--input", str(path),
                         "--metric", "mam")
    assert code == 3
    assert "degenerate" in err
    code, out, _ = run(capsys, "estimate", "--input", str(path),
                       "--metric", "mam", "--format", "json")
    assert code == 3
    assert json.loads(out)["error"]["code"] == "degenerate_marginal"


def test_unknown_scenario_is_exit_2(capsys):
    code, _, err = run(capsys, "simulate", "--scenario", "single-9", "--n", "50")
    assert code == 2
    assert "unknown scenario" in err


def test_single_scenario_rejects_g_interval(capsys):
    code, _, err = run(capsys, "simulate", "--scenario", "single-1",
                       "--n", "50", "--reps", "10", "--ci", "g")
    assert code == 2
    assert "does not apply" in err


def test_bad_alpha_is_exit_2(capsys):
    code, _, err = run(capsys, "estimate", "--input", FRCNN, "--alpha", "1.5")
    assert code == 2
    assert "alpha" in err


def test_tiny_alpha_is_accepted(capsys):
    code, out, err = run(capsys, "estimate", "--input", FRCNN, "--alpha", "1e-300",
                         "--format", "json")
    assert code == 0 and err == ""
    for row in json.loads(out)["results"]:
        assert row["alpha"] == 1e-300
        assert row["lower"] < row["estimate"] < row["upper"]


def test_perfect_table_is_flagged_under_both_constructions(capsys, tmp_path):
    path = tmp_path / "perfect.csv"
    path.write_text("5,0\n0,5\n")
    for ci in ("wald", "fisher-z"):
        code, out, err = run(capsys, "estimate", "--input", str(path), "--ci", ci,
                             "--format", "json")
        assert code == 0 and err == ""
        rows = json.loads(out)["results"]
        assert [row["flags"] for row in rows] == [["degenerate_estimate"]] * 3
    code, out, _ = run(capsys, "estimate", "--input", str(path))
    assert code == 0
    assert all(line.endswith("degenerate_estimate") for line in out.splitlines()[-3:])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"multimcc {__version__}"


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def run_or_exit(capsys, argv):
    """(exit code, stdout, stderr) of one call, argparse exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARSER_SEQUENCE = (
    ("estimate", "--input", FRCNN, "--metric", "mam", "--format", "json"),
    ("estimate", "--input", FRCNN, "--ci", "g"),                    # usage error, exit 2
    ("estimate", "--input", FRCNN, "--metric", "mim", "--metric", "mam", "--format", "json"),
    ("estimate", "--input", FRCNN, "--format", "json"),
    ("paired-diff", "--input", JOINT, "--ci", "g", "--metric", "mim-star"),
    ("simulate", "--scenario", "single-1", "--n", "5", "--reps", "40",
     "--ci", "fisher-z", "--metric", "mim", "--format", "json"),
    ("simulate", "--scenario", "paired-2"),                         # usage error, exit 2
    ("simulate", "--scenario", "paired-2", "--n", "20", "--reps", "40",
     "--ci", "g", "--ci", "wald", "--format", "json"),
    ("simulate", "--scenario", "paired-2", "--n", "20", "--reps", "40", "--format", "json"),
    ("--version",),
    ("paired-diff", "--input", JOINT, "--independent"),
    ("estimate", "--input", BCD, "--transpose", "--metric", "mim"),
)


def test_cached_parser_gives_the_bytes_of_a_fresh_one(capsys, monkeypatch):
    assert cli._shared_parser() is cli._shared_parser()
    assert cli.build_parser() is not cli.build_parser()
    cached = [run_or_exit(capsys, argv) for argv in PARSER_SEQUENCE * 2]
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = [run_or_exit(capsys, argv) for argv in PARSER_SEQUENCE * 2]
    assert cached == fresh
    assert [code for code, _, _ in cached[:len(PARSER_SEQUENCE)]] == [
        0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0]


def test_repeated_options_do_not_pile_up_across_calls(capsys):
    def config(*argv):
        code, out, _ = run_or_exit(capsys, argv)
        assert code == 0
        return json.loads(out)["config"]

    for _ in range(3):
        assert config("estimate", "--input", FRCNN, "--metric", "mam", "--metric", "mim",
                      "--format", "json")["metrics"] == ["mam", "mim"]
        assert config("estimate", "--input", FRCNN, "--format", "json")["metrics"] == [
            "mam", "mim", "mim-star"]
        sim = ("simulate", "--scenario", "single-2", "--n", "10", "--reps", "5",
               "--format", "json")
        assert config(*sim, "--ci", "wald", "--ci", "fisher-z")["ci"] == "wald,fisher-z"
        assert config(*sim, "--ci", "wald")["ci"] == "wald"
        assert config(*sim)["ci"] == "all"


def golden_check(capsys, golden_name, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    expected = (GOLDEN / golden_name).read_text()

    def normalize(text: str) -> str:
        return INPUT_RE.sub('"input": "X"', VERSION_RE.sub('"version": "X"', text))

    assert normalize(out) == normalize(expected)


def test_golden_estimate_document(capsys):
    golden_check(capsys, "estimate_frcnn_wald.json",
                 "estimate", "--input", FRCNN, "--format", "json")


def test_golden_paired_document(capsys):
    golden_check(capsys, "paired_joint_g.json",
                 "paired-diff", "--input", JOINT, "--ci", "g", "--format", "json")


def test_golden_simulate_document(capsys):
    golden_check(capsys, "simulate_single1.json",
                 "simulate", "--scenario", "single-1", "--n", "50",
                 "--reps", "200", "--seed", "11", "--format", "json")
