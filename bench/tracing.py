"""Traced run: the real ``cli.main`` with a span around each call into a module.

The benchmark cannot see inside ``cli.main`` or ``run_coverage_grid``.  The
package's functions find their callees through module globals (``estimate``
in ``multimcc.simulate``, ``parse_matrix_csv`` in ``multimcc.cli``, ...), so
for the length of one traced call every such name listed in ``STAGES`` is
replaced, in every package module that holds it, by a wrapper that records a
span.  The program then runs its own path; whatever it no longer calls
simply records no spans, and a listed name the package no longer has is
reported as missing.  The caller compares the traced call's output with the
untraced call's, so the per-layer numbers are known to describe the same
computation.

Spans are kept in flat arrays (name id, start, end, parent) and written
when the run ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# Span name "<module>.<qualified name>" of each traced function -> the
# pipeline stage its self time counts towards.
STAGES = {
    "cli.build_parser": "argparse",
    "cli.parse_args": "argparse",               # parse_args of the parser built
    "cli._read_input": "input",
    "formats.parse_matrix_csv": "input",
    "formats.parse_joint_json": "input",
    "simulate._replicate_rng": "input",
    "simulate.sample_multinomial": "input",
    "metrics.normalize_counts": "normalize",
    "paired.normalize_joint_counts": "normalize",
    "paired.marginalize": "normalize",
    "metrics.estimate": "estimate",
    "inference.gradient": "gradient",
    "paired.paired_gradient": "gradient",
    "inference.asymptotic_variance": "variance",
    "paired.paired_cov_block": "variance",
    "paired.diff_variance": "variance",
    "inference.wald_ci": "interval",
    "inference.fisher_z_ci": "interval",
    "paired.diff_wald_ci": "interval",
    "paired.diff_g_ci": "interval",
    "formats.estimate_document": "document",
    "formats.paired_document": "document",
    "formats.simulate_document": "document",
    "formats.ResultDocument.to_json": "render",
    "formats.render_estimate_table": "render",
    "formats.render_paired_table": "render",
    "simulate.coverage_report": "render",
    "cli.main": "glue",
    "cli._config_from_args": "glue",
    "inference.single_inference": "glue",
    "paired.paired_inference": "glue",
    "simulate.scenario_by_name": "glue",
    "simulate.run_coverage_grid": "glue",
    "simulate._coverage_block": "glue",
    "simulate._single_replicate": "glue",
    "simulate._paired_replicate": "glue",
}
STAGE_ORDER = ("argparse", "input", "normalize", "estimate", "gradient", "variance",
               "interval", "document", "render", "glue")
MODULES = ("cli", "formats", "metrics", "inference", "paired", "simulate")
PACKAGE = "multimcc."


def _count_parse(tracer: "Tracer", args: tuple, result) -> None:
    tracer.count("parse_chars", len(args[0]))


def _count_gradient(tracer: "Tracer", args: tuple, result) -> None:
    values = getattr(result, "values", None)
    tracer.count("gradient_bytes", getattr(values, "nbytes", 0))
    tracer.count("gradients_returned")


def _trace_parse_args(tracer: "Tracer", args: tuple, parser) -> None:
    parser.parse_args = tracer.wrap(parser.parse_args, "cli.parse_args")


# Run after a traced call returns, outside its span.
AFTER = {
    "cli.build_parser": _trace_parse_args,
    "formats.parse_matrix_csv": _count_parse,
    "formats.parse_joint_json": _count_parse,
    "paired.paired_gradient": _count_gradient,
}


def _span_name(obj) -> str | None:
    module = getattr(obj, "__module__", None)
    if not inspect.isfunction(obj) or not module or not module.startswith(PACKAGE):
        return None
    return f"{module[len(PACKAGE):]}.{obj.__qualname__}"


def _targets() -> tuple[list[tuple[object, str, object, str]], list[str]]:
    """(owner, attribute, function, span name) for every traced name, and the missing names.

    An owner is a package module, whose global the callers in it resolve, or
    a package class, for methods.
    """
    found = []
    for short in MODULES:
        module = importlib.import_module(PACKAGE + short)
        for attr, obj in list(vars(module).items()):
            owners = [(module, attr, obj)]
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                owners += [(obj, name, method) for name, method in vars(obj).items()]
            for owner, name, fn in owners:
                span = _span_name(fn)
                if span in STAGES:
                    found.append((owner, name, fn, span))
    seen = {span for *_, span in found} | {"cli.parse_args"}
    return found, sorted(set(STAGES) - seen)


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._last_raised: BaseException | None = None
        self.counters: dict[str, float] = {}
        targets, self.missing = _targets()
        self._patches = [(owner, attr, fn, self.wrap(fn, span, AFTER.get(span)))
                         for owner, attr, fn, span in targets]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, after=None):
        """``fn`` with a span named ``name`` around each call.

        An exception counts once, in ``raised.<type>``, at the innermost span
        it leaves.
        """
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if exc is not self._last_raised:
                    self._last_raised = exc
                    self.count(f"raised.{type(exc).__name__}")
                raise
            self._close(idx)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced name for the length of the block; yields the traced ``main``."""
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        try:
            yield importlib.import_module(PACKAGE + "cli").main
        finally:
            for owner, attr, fn, _ in self._patches:
                setattr(owner, attr, fn)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def calls(self) -> dict[str, int]:
        """Number of spans per span name."""
        counts = np.bincount(np.frombuffer(self.name, dtype=np.uint16),
                             minlength=len(self.names))
        return dict(zip(self.names, counts.tolist()))

    def self_ns(self) -> dict[str, float]:
        """Total self time in ns per span name."""
        if not len(self.name):
            return {}
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.frombuffer(self.parent, dtype=np.dtype(f"i{self.parent.itemsize}"))
        has = parent >= 0
        children = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        own = dur - children
        per_name = np.bincount(np.frombuffer(self.name, dtype=np.uint16), weights=own,
                               minlength=len(self.names))
        return dict(zip(self.names, per_name.tolist()))

    def write(self, path: Path, header: dict) -> None:
        """gzip JSON lines: a header, then [name, start_ns, end_ns, parent] per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "names": self.names}) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent):
                fh.write("[%d,%d,%d,%d]\n" % row)


def layer_metrics(tracer: Tracer, units: int) -> dict[str, tuple[float, str]]:
    """Per-stage self time per unit, and each module's share of the self time."""
    own = tracer.self_ns()
    stage = dict.fromkeys(STAGE_ORDER, 0.0)
    module = dict.fromkeys(MODULES, 0.0)
    for name, ns in own.items():
        stage[STAGES[name]] += ns
        module[name.split(".", 1)[0]] += ns
    total = sum(own.values())
    out = {f"stage.{s}_us": (stage[s] / 1e3 / units, "us") for s in STAGE_ORDER}
    out.update({f"layer.{m}_share": (module[m] / total, "share") for m in MODULES})
    return out
