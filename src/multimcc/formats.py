"""Input parsing and output documents for the command-line surface.

Two input formats: a confusion matrix as CSV (rows are predictions, columns
are truth; optional leading ``# classes: a,b,c`` line naming the classes) and
a paired joint table as JSON holding sparse 1-based ``[i, j, k, count]``
entries.  Parse failures raise :class:`~multimcc.errors.ParseError` with a
stable code and, for the CSV grammar, a 1-based line and column.

Output is a ResultDocument rendered either as indented JSON (floats in
shortest round-trip form, so a reader recovers them bit-exactly) or as a
fixed-width text table (estimates at 3 decimals, coverage at 4).  Both views
are generated from the same underlying values.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .inference import IntervalEstimate
from .metrics import ConfusionCounts2, MetricKind
from .paired import MAX_JOINT_CLASSES, JointCounts3, PairedResult
from .simulate import CoverageResult

__all__ = [
    "RunConfig",
    "ResultDocument",
    "parse_matrix_csv",
    "parse_joint_json",
    "estimate_document",
    "paired_document",
    "simulate_document",
    "error_document",
    "render_error",
    "render_estimate_table",
    "render_paired_table",
    "coverage_report",
]

METRIC_TOKENS = tuple(kind.value for kind in MetricKind)

_INT_RE = re.compile(r"[+-]?\d+\Z")

_LABEL_PREFIX = "# classes:"

# Counts are stored as int64, so the table total (and with it every cell,
# none being negative) must fit.
MAX_COUNT = int(np.iinfo(np.int64).max)


def _count_overflow(where: str = "", **location: int) -> ParseError:
    return ParseError("count_overflow",
                      f"{where}counts add up past the int64 limit {MAX_COUNT}", **location)


@dataclass(frozen=True)
class RunConfig:
    """Echo of one command-line invocation; exactly one command per run."""

    command: str
    input_path: str | None = None
    metrics: tuple[str, ...] = METRIC_TOKENS
    ci: str = "wald"
    alpha: float = 0.05
    output_format: str = "table"
    transpose: bool = False
    independent: bool = False
    scenario: str | None = None
    n: int | None = None
    reps: int = 10000
    seed: int = 0
    policy: str = "count-as-miss"
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.command not in ("estimate", "paired-diff", "simulate"):
            raise ValidationError(f"unknown command: {self.command!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must lie strictly inside (0, 1), got {self.alpha!r}")
        if self.output_format not in ("table", "json"):
            raise ValidationError(f"unknown output format: {self.output_format!r}")
        if not self.metrics:
            raise ValidationError("at least one metric must be selected")
        for token in self.metrics:
            if token not in METRIC_TOKENS:
                raise ValidationError(f"unknown metric: {token!r}")
        if self.policy not in ("count-as-miss", "exclude"):
            raise ValidationError(f"unknown degeneracy policy: {self.policy!r}")
        if self.command == "estimate":
            allowed = ("wald", "fisher-z")
        elif self.command == "paired-diff":
            allowed = ("wald", "g")
        else:
            allowed = ("wald", "fisher-z", "g", "all")
        for token in (self.ci.split(",") if self.command == "simulate" else [self.ci]):
            if token not in allowed:
                raise ValidationError(
                    f"interval method {token!r} is not valid for {self.command}")
        if self.command == "simulate":
            if self.reps < 1:
                raise ValidationError(f"reps must be at least 1, got {self.reps}")
            if self.n is None or self.n < 1:
                raise ValidationError("simulate needs a sample size of at least 1")

    def to_dict(self) -> dict[str, object]:
        base: dict[str, object] = {
            "metrics": list(self.metrics),
            "ci": self.ci,
            "alpha": self.alpha,
            "format": self.output_format,
        }
        if self.command == "estimate":
            base["input"] = self.input_path
            base["transpose"] = self.transpose
        elif self.command == "paired-diff":
            base["input"] = self.input_path
            base["independent"] = self.independent
        else:
            base.update({"scenario": self.scenario, "n": self.n, "reps": self.reps,
                         "seed": self.seed, "policy": self.policy,
                         "workers": self.workers})
        return base


@dataclass(frozen=True)
class ResultDocument:
    """Everything one invocation reports: config echo, rows, tool version."""

    command: str
    version: str
    config: dict[str, object]
    results: list[dict[str, object]]
    labels: tuple[str, ...] | None = None
    n: int | None = None

    def to_dict(self) -> dict[str, object]:
        doc: dict[str, object] = {
            "command": self.command,
            "version": self.version,
            "config": dict(self.config),
        }
        if self.labels is not None:
            doc["labels"] = list(self.labels)
        if self.n is not None:
            doc["n"] = self.n
        doc["results"] = [dict(row) for row in self.results]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"


# At most 18 digits per cell keeps each cell below 10**18, so the int64
# conversion cannot overflow.  Blanks, digits and commas are disjoint, so the
# greedy quantifiers cannot backtrack badly.
_FAST_ROW_RE = re.compile(r"(?:[ \t]*[0-9]{1,18}[ \t]*,)*[ \t]*[0-9]{1,18}[ \t]*")


def _class_labels(header: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in header[len(_LABEL_PREFIX):].split(","))


def parse_matrix_csv(text: str) -> ConfusionCounts2:
    """Parse a square confusion matrix; rows are predictions, columns truth.

    A vectorised fast path accepts plain input; it never raises a
    :class:`ParseError`.  Anything it does not accept goes to the per-cell
    checked parser, which decides it and raises every error.
    """
    accepted = _accepted_matrix(text)
    return _checked_matrix(text) if accepted is None else accepted


def _accepted_matrix(text: str) -> ConfusionCounts2 | None:
    """The table, if ``text`` is an optional ``# classes:`` first line and
    square rows of plain digit cells; otherwise None."""
    labels = None
    body = text
    if text.startswith(_LABEL_PREFIX):
        header, _, body = text.partition("\n")
        if header.splitlines() != [header]:     # another line break, e.g. \r or \x85
            return None
        labels = _class_labels(header.strip())
    body = body.rstrip("\n")
    lines = body.split("\n")
    r = len(lines)
    if labels is not None and len(labels) != r:
        return None
    for line in lines:
        if line.count(",") != r - 1 or not _FAST_ROW_RE.fullmatch(line):
            return None
    # The cells were matched above, so the text parser reads each in full.
    cells = np.fromstring(body.replace("\n", ","), dtype=np.int64, sep=",")
    if int(cells.max()) * cells.size > MAX_COUNT:   # the total might not fit
        return None
    return ConfusionCounts2(cells.reshape(r, r), labels=labels)


def _checked_matrix(text: str) -> ConfusionCounts2:
    """The per-cell parser: decides any text and locates every error."""
    labels: tuple[str, ...] | None = None
    rows: list[list[int]] = []
    row_lines: list[int] = []
    total = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if not line.startswith(_LABEL_PREFIX):
                raise ParseError("malformed_document",
                                 "the only recognized header line is '# classes: ...'",
                                 line=lineno)
            if labels is not None:
                raise ParseError("malformed_document", "duplicate class header",
                                 line=lineno)
            if rows:
                raise ParseError("malformed_document",
                                 "class header must come before the matrix rows",
                                 line=lineno)
            labels = _class_labels(line)
            continue
        cells = []
        for colno, cell in enumerate(line.split(","), start=1):
            token = cell.strip()
            if not _INT_RE.match(token):
                raise ParseError("non_integer",
                                 f"cell {token!r} is not an integer",
                                 line=lineno, column=colno)
            try:
                value = int(token)
            except ValueError:      # more digits than int() converts
                raise _count_overflow(line=lineno, column=colno) from None
            if value < 0:
                raise ParseError("negative_cell",
                                 f"cell value {value} is negative",
                                 line=lineno, column=colno)
            total += value
            if total > MAX_COUNT:
                raise _count_overflow(line=lineno, column=colno)
            cells.append(value)
        if rows and len(cells) != len(rows[0]):
            raise ParseError("ragged_rows",
                             f"row has {len(cells)} cells, expected {len(rows[0])}",
                             line=lineno)
        rows.append(cells)
        row_lines.append(lineno)
    if not rows:
        raise ParseError("empty_input", "no matrix rows found", line=1)
    if len(rows) != len(rows[0]):
        raise ParseError("ragged_rows",
                         f"{len(rows)} rows of {len(rows[0])} cells do not form "
                         "a square matrix", line=row_lines[-1])
    if labels is not None and len(labels) != len(rows):
        raise ParseError("malformed_document",
                         f"{len(labels)} class labels for {len(rows)} classes",
                         line=1)
    return ConfusionCounts2(np.array(rows, dtype=np.int64), labels=labels)


def _joint_entry(entry: object, position: int, r: int) -> tuple[int, int, int, int]:
    where = f"counts[{position}]"
    if (not isinstance(entry, list) or len(entry) != 4
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)):
        raise ParseError("malformed_document",
                         f"{where} must be an [i, j, k, count] list of integers")
    i, j, k, count = entry
    for axis, index in (("i", i), ("j", j), ("k", k)):
        if not 1 <= index <= r:
            raise ParseError("index_out_of_range",
                             f"{where}: {axis}={index} outside 1..{r}")
    if count < 0:
        raise ParseError("negative_cell", f"{where}: count {count} is negative")
    return i, j, k, count


def parse_joint_json(text: str) -> JointCounts3:
    """Parse a sparse joint table document into dense counts.

    Expected shape: ``{"r": int, "labels": [...], "counts": [[i, j, k, count],
    ...]}`` with 1-based indices; cells not listed are zero.  A vectorised
    fast path accepts plain entries; it never raises a :class:`ParseError`.
    Entries it does not accept go to the per-entry checked parser, which
    decides them and raises every error.
    """
    r, entries, labels = _joint_document(text)
    cells = _accepted_joint_cells(text, entries, r)
    if cells is None:
        cells = _checked_joint_cells(entries, r)
    cells.flags.writeable = False      # handed to the table without a copy
    return JointCounts3(cells, labels=labels)


def _joint_document(text: str) -> tuple[int, list, tuple[str, ...] | None]:
    """``r``, the raw entries and the labels of a joint table document."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError("malformed_document", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("malformed_document", "expected a JSON object at top level")
    unknown = set(doc) - {"r", "labels", "counts"}
    if unknown:
        raise ParseError("malformed_document",
                         f"unknown keys: {', '.join(sorted(unknown))}")
    r = doc.get("r")
    if not isinstance(r, int) or isinstance(r, bool) or not 2 <= r <= MAX_JOINT_CLASSES:
        raise ParseError("malformed_document",
                         f"'r' must be an integer between 2 and {MAX_JOINT_CLASSES}")
    entries = doc.get("counts")
    if not isinstance(entries, list):
        raise ParseError("malformed_document", "'counts' must be a list of entries")
    labels = doc.get("labels")
    if labels is not None:
        if (not isinstance(labels, list) or len(labels) != r
                or not all(isinstance(x, str) for x in labels)):
            raise ParseError("malformed_document", f"'labels' must list {r} strings")
        labels = tuple(labels)
    return r, entries, labels


def _accepted_joint_cells(text: str, entries: list, r: int) -> np.ndarray | None:
    """The dense cube, if every entry is four int64 integers, in range, with a
    non-negative count, no cell is listed twice and the total surely fits;
    otherwise None."""
    if "true" in text or "false" in text:   # np.array would read true as 1
        return None
    try:
        stacked = np.array(entries)
    except (ValueError, OverflowError):     # ragged or nested entries
        return None
    # Floats, strings, nulls and integers past int64 give another dtype.
    if stacked.dtype != np.int64 or stacked.ndim != 2 or stacked.shape[1] != 4:
        return None
    index, count = stacked[:, :3], stacked[:, 3]
    if index.min() < 1 or index.max() > r or count.min() < 0:
        return None
    flat = (index - 1) @ np.array([r * r, r, 1])
    ordered = np.sort(flat)
    if np.any(ordered[1:] == ordered[:-1]) or int(count.max()) * count.size > MAX_COUNT:
        return None
    cells = np.zeros((r, r, r), dtype=np.int64)
    np.put(cells, flat, count)
    return cells


def _checked_joint_cells(entries: list, r: int) -> np.ndarray:
    """The per-entry parser: decides any entries and names every error."""
    cells = np.zeros((r, r, r), dtype=np.int64)
    seen: set[tuple[int, int, int]] = set()
    total = 0
    for position, entry in enumerate(entries):
        i, j, k, count = _joint_entry(entry, position, r)
        if (i, j, k) in seen:
            raise ParseError("duplicate_cell",
                             f"counts[{position}]: cell ({i}, {j}, {k}) listed twice")
        seen.add((i, j, k))
        total += count
        if total > MAX_COUNT:
            raise _count_overflow(f"counts[{position}]: ")
        cells[i - 1, j - 1, k - 1] = count
    return cells


def _finite_or_none(x: float) -> float | None:
    return float(x) if math.isfinite(x) else None


def _interval_row(metric: MetricKind, ci: IntervalEstimate) -> dict[str, object]:
    return {
        "metric": metric.value,
        "estimate": ci.estimate,
        "variance": ci.variance,
        "lower": ci.lower,
        "upper": ci.upper,
        "method": ci.method.value,
        "alpha": ci.alpha,
        "flags": list(ci.flags),
    }


def estimate_document(config: RunConfig, counts: ConfusionCounts2,
                      intervals: Mapping[MetricKind, IntervalEstimate],
                      version: str) -> ResultDocument:
    rows = [_interval_row(metric, ci) for metric, ci in intervals.items()]
    return ResultDocument("estimate", version, config.to_dict(), rows,
                          labels=counts.labels, n=counts.n)


def paired_document(config: RunConfig, counts: JointCounts3,
                    results: Mapping[MetricKind, PairedResult],
                    version: str) -> ResultDocument:
    rows = []
    for metric, res in results.items():
        ci = res.interval
        rows.append({
            "metric": metric.value,
            "estimate_1": res.estimate_1,
            "estimate_2": res.estimate_2,
            "difference": res.difference,
            "lower": ci.lower,
            "upper": ci.upper,
            "method": ci.method.value,
            "alpha": ci.alpha,
            "flags": list(ci.flags),
            "var_1": res.block.var_1,
            "var_2": res.block.var_2,
            "cov": res.block.cov,
        })
    return ResultDocument("paired-diff", version, config.to_dict(), rows,
                          labels=counts.labels, n=counts.n)


def simulate_document(config: RunConfig, results: Sequence[CoverageResult],
                      version: str) -> ResultDocument:
    rows = []
    for res in results:
        rows.append({
            "scenario": res.scenario,
            "n": res.n,
            "reps": res.reps,
            "metric": res.metric.value,
            "ci": res.ci_method.value,
            "alpha": res.alpha,
            "covered": res.covered,
            "degenerate": res.degenerate,
            "coverage": _finite_or_none(res.coverage),
            "mean_width": _finite_or_none(res.mean_width),
            "seed": res.seed,
            "policy": res.policy.value,
        })
    return ResultDocument("simulate", version, config.to_dict(), rows)


def error_document(code: str, message: str, line: int | None = None,
                   column: int | None = None) -> str:
    doc = {"error": {"code": code, "message": message, "line": line, "column": column}}
    return json.dumps(doc, indent=2) + "\n"


def render_error(exc: ParseError) -> str:
    place = ""
    if exc.line is not None:
        place = f"line {exc.line}"
        if exc.column is not None:
            place += f", column {exc.column}"
        place += ": "
    return f"{place}{exc} [{exc.code}]"


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [max(len(header), max((len(row[i]) for row in rows), default=0))
              for i, header in enumerate(headers)]
    def line(parts: Sequence[str]) -> str:
        return "  ".join(part.ljust(widths[i]) for i, part in enumerate(parts)).rstrip()
    out = [line(headers), line(tuple("-" * w for w in widths))]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def _document_table(doc: ResultDocument, headers: Sequence[str],
                    rows: Sequence[Sequence[str]]) -> str:
    """:func:`_table` under the document's class labels and sample size, if any."""
    lines = []
    if doc.labels:
        lines.append("classes: " + ", ".join(doc.labels))
    if doc.n is not None:
        lines.append(f"n: {doc.n}")
    if lines:
        lines.append("")
    return "\n".join(lines + [_table(headers, rows)])


def _fmt3(x: object) -> str:
    return f"{x:.3f}" if isinstance(x, float) else str(x)


def _flags_cell(flags: Sequence[str]) -> str:
    return ",".join(flags) if flags else "-"


def render_estimate_table(doc: ResultDocument) -> str:
    """Fixed-width view of an estimate document; 3-decimal estimates."""
    headers = ("metric", "estimate", "lower", "upper", "ci", "alpha", "flags")
    rows = [(row["metric"], _fmt3(row["estimate"]), _fmt3(row["lower"]),
             _fmt3(row["upper"]), str(row["method"]), f"{row['alpha']:g}",
             _flags_cell(row["flags"])) for row in doc.results]
    return _document_table(doc, headers, rows)


def render_paired_table(doc: ResultDocument) -> str:
    """Fixed-width view of a paired-diff document; 3-decimal estimates."""
    headers = ("metric", "method-1", "method-2", "difference", "lower", "upper",
               "ci", "alpha", "flags")
    rows = [(row["metric"], _fmt3(row["estimate_1"]), _fmt3(row["estimate_2"]),
             _fmt3(row["difference"]), _fmt3(row["lower"]), _fmt3(row["upper"]),
             str(row["method"]), f"{row['alpha']:g}", _flags_cell(row["flags"]))
            for row in doc.results]
    return _document_table(doc, headers, rows)


def _fmt4(x: float) -> str:
    return "nan" if math.isnan(x) else f"{x:.4f}"


def coverage_report(results: Sequence[CoverageResult]) -> str:
    """Plain-text table, one row per CoverageResult, 4-decimal coverage."""
    headers = ("scenario", "n", "reps", "metric", "ci", "alpha",
               "coverage", "mean-width", "degenerate", "seed", "policy")
    rows = [(r.scenario, str(r.n), str(r.reps), r.metric.value, r.ci_method.value,
             f"{r.alpha:g}", _fmt4(r.coverage), _fmt4(r.mean_width),
             str(r.degenerate), str(r.seed), r.policy.value) for r in results]
    return _table(headers, rows)
