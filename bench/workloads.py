"""The four benchmark workloads: their inputs, their call mix and their checks.

Every workload is a closed loop with one client.  A *round* is one pass over
the workload's fixed list of command-line calls; each call is exactly the
argv a user would pass to ``multimcc``.  A *unit* is what the workload's
throughput counts: one replicate on the coverage workloads, one call on the
CLI workloads.

Inputs come only from the benchmark seed: the coverage workloads derive each
round's ``--seed`` from it, cli-small shuffles its call order with it, and
cli-large-r draws its tables from it.  Every output is checked against
``oracle`` (or against a golden document) before it counts as a success.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

ALPHA = 0.05
N_VALUES = (5, 50, 800)
VERSION_RE = re.compile(r'"version": "[^"]*"')
INPUT_RE = re.compile(r'"input": "[^"]*"')


@dataclass(frozen=True)
class Call:
    kind: str           # "estimate", "paired" or "simulate"
    argv: tuple[str, ...]
    units: int          # replicates for simulate, 1 for the other commands
    row: str = ""       # coverage row label, e.g. "n5"


def golden_normalize(text: str) -> str:
    """The version and input-path normalisation the CLI golden tests apply."""
    return INPUT_RE.sub('"input": "X"', VERSION_RE.sub('"version": "X"', text))


def _compare_rows(got: list[dict], want: dict[str, dict], fields: tuple[str, ...]) -> str | None:
    if [row.get("metric") for row in got] != list(want):
        return f"metrics {[row.get('metric') for row in got]} != {list(want)}"
    for row in got:
        ref = want[row["metric"]]
        for field in fields:
            if not oracle.close(row[field], ref[field]):
                return f"{row['metric']}.{field}: {row[field]!r} != {ref[field]!r}"
        if row["flags"] != ref["flags"]:
            return f"{row['metric']}.flags: {row['flags']} != {ref['flags']}"
    return None


def _check_table(out: str, want: dict[str, dict], value_cols: tuple[str, ...],
                 labels: list[str] | None, n: int) -> str | None:
    """Check a fixed-width table: header lines and every 3-decimal cell."""
    lines = out.rstrip("\n").split("\n")
    head = []
    if labels:
        head.append("classes: " + ", ".join(labels))
    head += [f"n: {n}", ""]
    if lines[:len(head)] != head:
        return f"table header {lines[:len(head)]!r}"
    body = [line.split() for line in lines[len(head) + 2:]]
    if [cells[0] for cells in body] != list(want):
        return f"table rows {[cells[0] for cells in body]}"
    for cells in body:
        ref = want[cells[0]]
        expected = [f"{ref[col]:.3f}" for col in value_cols]
        if cells[1:1 + len(value_cols)] != expected:
            return f"table row {cells} != {expected}"
    return None


class Coverage:
    """``simulate`` rows: two builtin scenarios at n in N_VALUES, all 3 metrics."""

    def __init__(self, name: str, scenarios: tuple[str, str], cis: tuple[str, str],
                 reps: int, why: str) -> None:
        self.name = name
        self.scenarios = scenarios
        self.cis = cis
        self.reps = reps
        self.why = why

    def setup(self, mm, root: Path, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.truth = {}
        for name in self.scenarios:
            scenario = mm.scenario_by_name(name)
            self.truth[name] = (np.array(scenario.truth.pi),
                                {k.value: scenario.true_value(k) for k in mm.MetricKind})
        self.single = scenario.kind is mm.ScenarioKind.SINGLE

    def params(self) -> dict:
        return {"scenarios": list(self.scenarios), "n": list(N_VALUES), "reps_per_call": self.reps,
                "ci": list(self.cis), "metrics": list(oracle.METRICS), "policy": "exclude",
                "calls_per_round": len(self.scenarios) * len(N_VALUES)}

    def round(self, index: int) -> list[Call]:
        sim_seed = (self.seed * 1_000_003 + index) % 2**64
        calls = []
        for scenario in self.scenarios:
            for n in N_VALUES:
                argv = ["simulate", "--scenario", scenario, "--n", str(n),
                        "--reps", str(self.reps), "--seed", str(sim_seed),
                        "--policy", "exclude", "--format", "json"]
                for ci in self.cis:
                    argv += ["--ci", ci]
                calls.append(Call("simulate", tuple(argv), self.reps, f"n{n}"))
        return calls

    def check(self, call: Call, out: str) -> str | None:
        argv = call.argv
        scenario, n, seed = argv[2], int(argv[4]), int(argv[8])
        pi, true_values = self.truth[scenario]
        reference = oracle.coverage_single if self.single else oracle.coverage_paired
        want = reference(pi, true_values, n, self.reps, seed, ALPHA, self.cis)
        doc = json.loads(out)
        rows = doc["results"]
        if [(row["metric"], row["ci"]) for row in rows] != [
                (m, c if c != "wald" or self.single else "wald-diff")
                for m in oracle.METRICS for c in self.cis]:
            return f"unexpected rows {[(row['metric'], row['ci']) for row in rows]}"
        for row, key in zip(rows, [(m, c) for m in oracle.METRICS for c in self.cis]):
            ref = want[key]
            if (row["scenario"], row["n"], row["reps"], row["seed"], row["policy"]) != (
                    scenario, n, self.reps, seed, "exclude"):
                return f"row echo {row}"
            low, high = ref["covered"], ref["covered"] + ref["ambiguous"]
            if row["degenerate"] != ref["degenerate"] or not low <= row["covered"] <= high:
                return (f"{scenario} n={n} seed={seed} {key}: covered/degenerate "
                        f"{row['covered']}/{row['degenerate']} != "
                        f"{low}..{high}/{ref['degenerate']}")
            kept = self.reps - ref["degenerate"]
            coverage = row["covered"] / kept if kept else None
            if row["coverage"] != coverage:
                return f"{key}: coverage {row['coverage']!r} != {coverage!r}"
            width = ref["mean_width"]
            if math.isnan(width):
                if row["mean_width"] is not None:
                    return f"{key}: mean_width should be null"
            elif not math.isclose(row["mean_width"], width, rel_tol=1e-6, abs_tol=1e-12):
                return f"{key}: mean_width {row['mean_width']!r} != {width!r}"
        return None


class _Deterministic:
    """Checks each distinct call once; repeats must print the same bytes."""

    verified: dict[tuple[str, ...], str]

    def check(self, call: Call, out: str) -> str | None:
        seen = self.verified.get(call.argv)
        if seen is not None:
            return None if seen == out else "output changed between identical calls"
        error = self._check_new(call, out)
        if error is None:
            self.verified[call.argv] = out
        return error

    def _check_new(self, call: Call, out: str) -> str | None:
        raise NotImplementedError


class CliSmall(_Deterministic):
    """``estimate`` and ``paired-diff`` on the repository's real-data files."""

    name = "cli-small"
    why = ("real-data estimate and paired-diff calls of ~2 ms, dominated by fixed "
           "per-call cost (argparse, config, documents, renderers)")

    def setup(self, mm, root: Path, seed: int, workdir: Path) -> None:
        data = root / "tests" / "data"
        self.golden = data / "golden"
        self.files = {"frcnn": data / "frcnn.csv", "bcd": data / "bcd.csv",
                      "joint": data / "joint_example.json"}
        self.calls = []
        for name in ("frcnn", "bcd"):
            for ci in ("wald", "fisher-z"):
                for fmt in ("table", "json"):
                    self.calls.append(Call("estimate", (
                        "estimate", "--input", str(self.files[name]), "--ci", ci,
                        "--format", fmt), 1))
        for ci in ("wald", "g"):
            for fmt in ("table", "json"):
                self.calls.append(Call("paired", (
                    "paired-diff", "--input", str(self.files["joint"]), "--ci", ci,
                    "--format", fmt), 1))
        self.rng = random.Random(seed)
        self.verified: dict[tuple[str, ...], str] = {}

    def params(self) -> dict:
        return {"inputs": ["tests/data/frcnn.csv", "tests/data/bcd.csv",
                           "tests/data/joint_example.json"],
                "estimate_calls_per_round": 8, "paired_calls_per_round": 4,
                "order": "shuffled per round from the seed"}

    def round(self, index: int) -> list[Call]:
        calls = list(self.calls)
        self.rng.shuffle(calls)
        return calls

    def golden_simulate_check(self, run) -> str | None:
        argv = ("simulate", "--scenario", "single-1", "--n", "50", "--reps", "200",
                "--seed", "11", "--format", "json")
        code, out = run(argv)
        want = (self.golden / "simulate_single1.json").read_text()
        if code != 0 or golden_normalize(out) != golden_normalize(want):
            return "simulate single-1 differs from tests/data/golden/simulate_single1.json"
        return None

    def _check_new(self, call: Call, out: str) -> str | None:
        argv = call.argv
        path, ci, fmt = Path(argv[2]), argv[4], argv[6]
        golden = {("frcnn.csv", "wald"): "estimate_frcnn_wald.json",
                  ("joint_example.json", "g"): "paired_joint_g.json"}.get((path.name, ci))
        if golden and fmt == "json":
            want = (self.golden / golden).read_text()
            return None if golden_normalize(out) == golden_normalize(want) else f"{golden} differs"
        if call.kind == "estimate":
            labels, counts = read_csv(path)
            want = oracle.single_document_rows(counts, ci, ALPHA)
            n, cols = int(counts.sum()), ("estimate", "lower", "upper")
            fields = ("estimate", "variance", "lower", "upper")
        else:
            doc = json.loads(path.read_text())
            labels, r = doc.get("labels"), doc["r"]
            cells = np.array(doc["counts"], dtype=np.int64) - np.array([1, 1, 1, 0])
            want = oracle.paired_document_rows(cells, r, ci, ALPHA)
            n, cols = int(cells[:, 3].sum()), ("estimate_1", "estimate_2", "difference",
                                               "lower", "upper")
            fields = cols + ("var_1", "var_2", "cov")
        if fmt == "table":
            return _check_table(out, want, cols, labels, n)
        doc = json.loads(out)
        if doc.get("n") != n or doc.get("labels") != labels:
            return "document n or labels differ"
        return _compare_rows(doc["results"], want, fields)


def read_csv(path: Path) -> tuple[list[str] | None, np.ndarray]:
    labels = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("# classes:"):
            labels = [part.strip() for part in line[len("# classes:"):].split(",")]
        elif line.strip():
            rows.append([int(x) for x in line.split(",")])
    return labels, np.array(rows, dtype=np.int64)


def _conditional(r: int, rng: np.random.Generator, floor: float) -> np.ndarray:
    """P(prediction i | truth k): per-class accuracy, errors mostly to near classes."""
    acc = rng.uniform(0.6, 0.85, r)
    out = np.empty((r, r))
    for k in range(r):
        w = np.full(r, floor / r)
        for d in (-2, -1, 1, 2):
            w[(k + d) % r] += rng.uniform(0.2, 1.0)
        w[k] = 0.0
        w *= (1.0 - acc[k]) / w.sum()
        w[k] = acc[k]
        out[:, k] = w
    return out


class CliLargeR(_Deterministic):
    """One large ``estimate`` CSV and one large sparse ``paired-diff`` JSON."""

    name = "cli-large-r"
    why = ("large generated tables: parsing throughput and the dense r^3 paired "
           "gradients dominate; the only workload where O(r^2) paired math and "
           "overflow-checked parsing show")
    CSV_R = 240
    CSV_N = 1_000_000
    JOINT_R = 64
    JOINT_N = 60 * 64 * 64

    def setup(self, mm, root: Path, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed % 2**64)
        r = self.CSV_R
        prev = rng.dirichlet(np.full(r, 3.0))
        table = _conditional(r, rng, 0.5) * prev
        counts = rng.multinomial(self.CSV_N, (table / table.sum()).ravel()).reshape(r, r)
        counts += np.eye(r, dtype=np.int64)      # every marginal strictly inside (0, 1)
        self.csv = workdir / "large.csv"
        self.csv.write_text("\n".join(",".join(map(str, row)) for row in counts.tolist()) + "\n")
        self.csv_counts = counts

        r = self.JOINT_R
        prev = rng.dirichlet(np.full(r, 3.0))
        cube = np.einsum("ik,jk,k->ijk", _conditional(r, rng, 4.0),
                         _conditional(r, rng, 4.0), prev)
        joint = rng.multinomial(self.JOINT_N, (cube / cube.sum()).ravel()).reshape(r, r, r)
        joint[np.arange(r), np.arange(r), np.arange(r)] += 1
        idx = np.argwhere(joint > 0)
        self.cells = np.column_stack([idx, joint[joint > 0]])
        self.joint = workdir / "large_joint.json"
        entries = np.column_stack([idx + 1, joint[joint > 0]]).tolist()
        self.joint.write_text(json.dumps({"r": r, "counts": entries}))
        self.verified: dict[tuple[str, ...], str] = {}

    def params(self) -> dict:
        return {"estimate": {"r": self.CSV_R, "n": int(self.csv_counts.sum()),
                             "bytes": self.csv.stat().st_size, "ci": "wald"},
                "paired": {"r": self.JOINT_R, "n": int(self.cells[:, 3].sum()),
                           "nonzero_cells": len(self.cells),
                           "bytes": self.joint.stat().st_size, "ci": "g"},
                "calls_per_round": 2}

    def round(self, index: int) -> list[Call]:
        return [Call("estimate", ("estimate", "--input", str(self.csv), "--format", "json"), 1),
                Call("paired", ("paired-diff", "--input", str(self.joint), "--ci", "g",
                                "--format", "json"), 1)]

    def _check_new(self, call: Call, out: str) -> str | None:
        rows = json.loads(out)["results"]
        if call.kind == "estimate":
            want = oracle.single_document_rows(self.csv_counts, "wald", ALPHA)
            return _compare_rows(rows, want, ("estimate", "variance", "lower", "upper"))
        want = oracle.paired_document_rows(self.cells, self.JOINT_R, "g", ALPHA)
        return _compare_rows(rows, want, ("estimate_1", "estimate_2", "difference",
                                          "var_1", "var_2", "cov", "lower", "upper"))


def make(name: str):
    if name == "coverage-single":
        return Coverage(name, ("single-1", "single-3"), ("wald", "fisher-z"), 60,
                        "scalar per-replicate coverage pipeline on r=3 single tables; "
                        "n=5 rows mostly take the degenerate-marginal path")
    if name == "coverage-paired":
        return Coverage(name, ("paired-1", "paired-4"), ("wald", "g"), 25,
                        "per-replicate paired pipeline on r=3 joint tables: lifted r^3 "
                        "gradients and the covariance block")
    if name == "cli-small":
        return CliSmall()
    if name == "cli-large-r":
        return CliLargeR()
    raise KeyError(name)


NAMES = ("coverage-single", "coverage-paired", "cli-small", "cli-large-r")
