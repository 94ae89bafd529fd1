"""Benchmark of the multimcc command line, end to end and stage by stage.

Run from the root of a checkout:

    python3 bench/run.py --workload coverage-single --seed 1 --seconds 20 --trace 0

Each workload (see ``workloads.py``) is a closed loop with one client that
calls ``multimcc.cli.main(argv)`` in-process with stdout captured, so a call
is exactly what a user's invocation runs minus interpreter start-up.  The
package is imported from ``src/`` of the checkout; nothing is installed.

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` runs each call twice, untraced and then with spans around the
package's internal calls (``tracing.py``), and reports the per-layer
metrics.  Both modes check every output (``oracle.py``, golden documents)
and print, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it are a readable
report with provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# setup_s is the median of this many set-ups, each in a fresh interpreter.
# They are spread evenly over the measuring window: consecutive set-ups share
# the host's speed of the moment, spaced ones sample the whole run.
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 120
MAX_REPORTED_ERRORS = 5

# Gated times are scaled to a reference host speed at which the calibration
# loop below takes exactly this long.
REFERENCE_CALIBRATION_S = 1e-3
CALIBRATION_REPEATS = 5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def require_source() -> None:
    package = SRC / "multimcc" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"bench: {package} not found; run from the root of a "
                         "multimcc checkout")
    sys.path.insert(0, str(SRC))


def setup(name: str, seed: int, workdir: Path):
    """Import the package, build the workload's scenarios and write its inputs."""
    import multimcc
    from multimcc.cli import main
    if Path(multimcc.__file__).resolve().parent != (SRC / "multimcc").resolve():
        raise SystemExit(f"bench: imported {multimcc.__file__}, not the checkout's source")
    workload = workloads.make(name)
    workload.setup(multimcc, ROOT, seed, workdir)
    return workload, main


# Run by fresh_setup_seconds as ``python3 -c SETUP_PROBE <src> <bench> <workload>
# <seed>``.  The clock starts before numpy or anything else the package
# imports is loaded, so the timed import is the package's whole import cost.
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import multimcc.cli
imported = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import run
print(repr(run.probe_setup(sys.argv[3], int(sys.argv[4]), imported)))
"""


def probe_setup(name: str, seed: int, import_s: float) -> float:
    """The rest of a fresh set-up, after SETUP_PROBE timed the import; total seconds."""
    workdir = make_workdir(name, seed)
    try:
        start = time.perf_counter()
        setup(name, seed, workdir)
        elapsed = import_s + time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return elapsed


def make_workdir(name: str, seed: int) -> Path:
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    return workdir


def calibration_seconds() -> float:
    """Wall time of a fixed loop of small-object Python and tiny numpy work.

    The host this benchmark was tuned on switches, for seconds at a time,
    between speeds up to 1.8x apart, and the switches slow this loop and the
    package alike.  Dividing a round's time by the time of this loop, run
    right before and after the round, removes most of that drift while
    leaving any change in the package's own cost in place.  The loop calls
    nothing from multimcc.
    """
    table = np.arange(9.0).reshape(3, 3)
    start = time.perf_counter()
    total = 0.0
    seen: dict[str, list[float]] = {}
    for i in range(150):
        total += float((table * table).sum()) + i * 0.5
        seen[str(i)] = [i, total]
        total += len(sorted(seen)[:3])
    return time.perf_counter() - start


def fresh_setup_seconds(name: str, seed: int) -> float:
    """Set-up seconds measured in a new interpreter (SETUP_PROBE)."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(Path(__file__).resolve().parent),
         name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_call(main, argv) -> tuple[int, str, float]:
    """One in-process CLI call: exit code, captured stdout, wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed call, not a crashed benchmark
            code = -1
            err.write(repr(exc))
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


class Tally:
    """Attempted and failed calls, and the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, call, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.fail(f"{' '.join(call.argv)}: {error}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(message)


def checked_call(main, workload, call, tally: Tally) -> tuple[str, float]:
    code, out, elapsed = run_call(main, call.argv)
    if code != 0:
        error = f"exit code {code}"
    else:
        try:
            error = workload.check(call, out)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            error = f"unreadable output: {exc!r}"
    tally.record(call, error)
    return out, elapsed


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def tail_percentile(count: int) -> int:
    """The highest of p99 and p90 that leaves at least ten samples beyond it."""
    return 99 if count >= 1000 else 90


def measure(main, workload, seconds: float, tally: Tally, fresh_setup) -> tuple[dict, dict]:
    """Untraced closed loop: whole rounds until ``seconds`` of wall time pass.

    A calibration loop runs between rounds; each round's gated time is
    scaled to the reference speed by the mean of the calibrations on either
    side of it.  ``fresh_setup`` runs SETUP_RUNS times between rounds, spaced
    evenly over the window, which is extended by the time they take; each
    set-up is scaled the same way by the calibrations around it.  Raw times,
    rates and per-command latencies go in the readable report.
    """
    for call in workload.round(0):                      # warm-up, checked, not timed
        checked_call(main, workload, call, tally)
    rounds: list[float] = []
    calibrations = [calibration_seconds()]
    per_kind: dict[str, list[float]] = {}
    units = 0
    setups: list[float] = []
    probing = 0.0                                       # seconds spent in fresh_setup

    def probe() -> None:
        nonlocal probing
        before = calibrations[-1]
        began = time.perf_counter()
        raw = fresh_setup()
        probing += time.perf_counter() - began
        calibrations[-1] = calibration_seconds()
        setups.append(raw * 2.0 * REFERENCE_CALIBRATION_S / (before + calibrations[-1]))

    start = time.perf_counter()
    index = 1
    while not rounds or time.perf_counter() - start - probing < seconds:
        if len(setups) < SETUP_RUNS and (
                time.perf_counter() - start - probing >= len(setups) * seconds / SETUP_RUNS):
            probe()
        busy = 0.0
        for call in workload.round(index):
            _, elapsed = checked_call(main, workload, call, tally)
            busy += elapsed
            units += call.units
            per_kind.setdefault(call.kind, []).append(elapsed)
        rounds.append(busy)
        calibrations.append(calibration_seconds())
        index += 1
    while len(setups) < SETUP_RUNS:
        probe()
    scaled = [busy * 2.0 * REFERENCE_CALIBRATION_S / (before + after)
              for busy, before, after in zip(rounds, calibrations, calibrations[1:])]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "round_ms_p50": (statistics.median(scaled) * 1e3, "ms"),
        "round_ms_p90": (percentile(scaled, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    count = f"{len(rounds)} rounds"
    report = {
        "setup_s_max": (max(setups), f"s scaled, median reported of {len(setups)}"),
        "calibration_ms_p50": (statistics.median(calibrations) * 1e3, "ms raw"),
        "raw_round_ms_p10": (percentile(rounds, 10) * 1e3, f"ms raw, {count}"),
        "raw_round_ms_p50": (statistics.median(rounds) * 1e3, f"ms raw, {count}"),
        "raw_round_ms_p90": (percentile(rounds, 90) * 1e3, f"ms raw, {count}"),
    }
    if "simulate" in per_kind:
        report["reps_per_s"] = (units / sum(rounds), "replicates/s raw")
    else:
        report["calls_per_s"] = (units / sum(rounds), "calls/s raw")
    for kind in ("estimate", "paired"):
        times = per_kind.get(kind)
        if times:
            tail = tail_percentile(len(times))
            calls = f"ms raw, {len(times)} calls"
            report[f"{kind}_ms_p50"] = (statistics.median(times) * 1e3, calls)
            report[f"{kind}_ms_p{tail}"] = (percentile(times, tail) * 1e3, calls)
    return metrics, report


def measure_traced(main, workload, seconds: float, tally: Tally, trace_path: Path,
                   header: dict) -> tuple[dict, dict]:
    """Each call untraced, then traced; the two must print the same bytes."""
    for call in workload.round(0):
        checked_call(main, workload, call, tally)
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    units = 0
    row_time: dict[str, float] = {}
    cells = degenerate = 0
    deadline = time.perf_counter() + seconds
    index = 1
    while not units or time.perf_counter() < deadline:
        for call in workload.round(index):
            out, elapsed = checked_call(main, workload, call, tally)
            untraced += elapsed
            units += call.units
            if call.kind == "simulate":
                row_time[call.row] = row_time.get(call.row, 0.0) + elapsed
                rows = json.loads(out)["results"]
                cells += sum(row["reps"] for row in rows)
                degenerate += sum(row["degenerate"] for row in rows)
            with tracer.installed() as traced_main:
                code, traced_out, traced_elapsed = run_call(traced_main, call.argv)
            traced += traced_elapsed
            if code != 0 or traced_out != out:
                tally.fail(f"{' '.join(call.argv)}: traced call differs from the untraced one")
        index += 1

    metrics = tracing.layer_metrics(tracer, units)
    counters = tracer.counters
    calls = tracer.calls()
    simulate_time = sum(row_time.values())
    for n in workloads.N_VALUES:
        share = row_time.get(f"n{n}", 0.0) / simulate_time if simulate_time else 0.0
        metrics[f"simulate.row_share.n{n}"] = (share, "share")
    metrics["simulate.degenerate_share"] = (degenerate / cells if cells else 0.0, "share")
    metrics["inference.degenerate_raises"] = (
        counters.get("raised.DegenerateMarginalError", 0.0), "count")
    metrics["metrics.calls_per_unit"] = (calls.get("metrics.estimate", 0) / units, "count")
    grads = counters.get("gradients_returned", 0.0)
    metrics["paired.gradient_bytes"] = (
        counters.get("gradient_bytes", 0.0) / grads if grads else 0.0, "bytes")
    own = tracer.self_ns()
    parse_ns = own.get("formats.parse_matrix_csv", 0.0) + own.get("formats.parse_joint_json", 0.0)
    metrics["formats.parse_mb_per_s"] = (
        counters.get("parse_chars", 0.0) / 1e6 / (parse_ns / 1e9) if parse_ns else 0.0, "MB/s")
    metrics["trace.overhead_share"] = (traced / untraced - 1.0, "share")
    tracer.write(trace_path, header)
    report = {"units": (units, "replicates or calls"),
              "spans": (len(tracer.name), str(trace_path.relative_to(ROOT)))}
    for name in tracer.missing:
        print(f"# trace: {name} is not in the package; no spans for it")
    return metrics, report


def provenance(args: argparse.Namespace) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = ((ROOT / ".git" / head[5:]).read_text().strip()
                  if head.startswith("ref: ") else head)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu": cpu, "commit": commit, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    require_source()
    workdir = make_workdir(args.workload, args.seed)
    try:
        workload, program = setup(args.workload, args.seed, workdir)
        tally = Tally()
        info = provenance(args)
        info["params"] = workload.params()
        print(f"# {args.workload}: {workload.why}")
        print("# provenance " + json.dumps(info, sort_keys=True))

        golden = getattr(workload, "golden_simulate_check", None)
        if golden is not None:                          # untimed, part of set-up
            error = golden(lambda argv: run_call(program, argv)[:2])
            tally.attempted += 1
            if error:
                tally.fail(error)

        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            metrics, report = measure_traced(program, workload, args.seconds, tally,
                                             trace_path, info)
        else:
            metrics, report = measure(program, workload, args.seconds, tally,
                                      lambda: fresh_setup_seconds(args.workload, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:16.6f} {unit}")
    for name, (value, unit) in report.items():
        print(f"# {name:30s} {value:16.6f} {unit}")
    print(f"{'error_rate':32s} {tally.failed:>9d}/{tally.attempted:<6d} failed/attempted")
    for error in tally.errors:
        print(f"# FAILED {error}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
