"""cuspzeta benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  The seed
generates the workload's graph JSON files (see ``workloads.py``); each pass
then calls ``cuspzeta.cli.main`` in-process once per operation, one caller
after the other (a closed loop with one client and no threads), with stdout
captured.  Passes repeat until ``--seconds`` is used up.  Every output is
checked by ``checks.py`` after its pass, outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced passes with passes traced by ``spans.py`` and prints the per-layer
metrics.  The last stdout line is the JSON result; a summary, including the
name of every failed operation, goes to stderr, and the spans and per-pass
details go to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"
SETUP_REPEATS = 5
MIN_PASSES = 2  # per kind: untraced, and traced too under --trace 1


@dataclass
class OpResult:
    op: workloads.Op
    code: int | None
    stdout: str
    stderr: str
    seconds: float


def fresh_import_and_build(name: str, seed: int, workdir: Path):
    """One timed set-up: import cuspzeta from scratch, then write the inputs."""
    for module in [m for m in sys.modules if m == "cuspzeta" or m.startswith("cuspzeta.")]:
        del sys.modules[module]
    start = time.perf_counter()
    cli = importlib.import_module("cuspzeta.cli")
    ops = workloads.build(name, seed, workdir)
    return time.perf_counter() - start, cli.main, ops


def run_op(main, op: workloads.Op, tracer: spans.Tracer | None) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = main(list(op.argv))
            else:
                code = tracer.call("cli.main", main, list(op.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed operation, not a benchmark crash
            code = None
            err.write(traceback.format_exc())
    return OpResult(op, code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def run_pass(main, ops, tracer: spans.Tracer | None = None) -> tuple[float, list[OpResult]]:
    start = time.perf_counter()
    results = [run_op(main, op, tracer) for op in ops]
    return time.perf_counter() - start, results


class Checker:
    """Checks every result; a later pass must repeat the first pass's output byte for byte."""

    def __init__(self) -> None:
        self.refs: dict = {}
        self.first: dict[str, tuple] = {}
        self.verdicts: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failures: list[tuple[int, str, str]] = []

    def record(self, pass_index: int, results: list[OpResult]) -> None:
        for r in results:
            self.attempted += r.op.weight
            output = (r.code, checks.comparable(r.op, r.stdout))
            if self.first.setdefault(r.op.name, output) != output:
                reasons = ["output differs from the first pass"] * r.op.weight
            else:
                key = (r.op.name, *output)
                if key not in self.verdicts:
                    self.verdicts[key] = checks.check(r.op, r.code, r.stdout, r.stderr, self.refs)
                reasons = self.verdicts[key]
            self.failures.extend((pass_index, r.op.name, reason) for reason in reasons)


def measure(main, ops, seconds: float, traced: bool, checker: Checker):
    """Alternate untraced and (if ``traced``) traced passes until the time is used."""
    untraced: list[tuple[float, list[OpResult]]] = []
    traced_passes: list[tuple[float, list[spans.Span]]] = []
    start = time.perf_counter()
    while True:
        if traced and len(traced_passes) < len(untraced):
            tracer = spans.Tracer()
            tracer.install()
            try:
                total, results = run_pass(main, ops, tracer)
            finally:
                tracer.restore()
            traced_passes.append((total, tracer.spans))
        else:
            total, results = run_pass(main, ops)
            untraced.append((total, results))
        checker.record(len(untraced) + len(traced_passes) - 1, results)
        balanced = not traced or len(traced_passes) == len(untraced)
        enough = len(untraced) >= MIN_PASSES and balanced
        if enough and time.perf_counter() - start + total > seconds:
            return untraced, traced_passes


def command_seconds(results: list[OpResult]) -> dict[str, float]:
    sums: dict[str, float] = {}
    for r in results:
        sums[r.op.command] = sums.get(r.op.command, 0.0) + r.seconds
    return sums


def layer_metrics(untraced, traced_passes) -> tuple[dict, list[str]]:
    """Per-layer metrics: median times over traced passes, counts that must repeat."""
    layers = [spans.per_layer(s) for _, s in traced_passes]
    problems = []
    counts = layers[0][1]
    for _, other in layers[1:]:
        if other != counts:
            problems.append(f"per-layer counts differ between traced passes: {counts} vs {other}")
    values: dict[str, float] = dict(counts)
    for metric in layers[0][0]:
        values[metric] = statistics.median(times[metric] for times, _ in layers)
    values["trace.overhead_frac"] = (
        statistics.median(t for t, _ in traced_passes) / statistics.median(t for t, _ in untraced)
        - 1
    )
    return values, problems


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="cuspzeta benchmark (one workload, one seed)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "cuspzeta" / "cli.py").is_file():
        print(f"error: no cuspzeta sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            seconds, cli_main, ops = fresh_import_and_build(args.workload, args.seed, workdir)
            setup_times.append(seconds)
        imported = Path(sys.modules["cuspzeta"].__file__).resolve()
        if SRC.resolve() not in imported.parents:
            print(f"error: imported cuspzeta from {imported}, not {SRC}", file=sys.stderr)
            return 2
        checker = Checker()
        untraced, traced_passes = measure(cli_main, ops, args.seconds, bool(args.trace), checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(checker.failures)
    problems = []
    if args.trace:
        values, problems = layer_metrics(untraced, traced_passes)
        leaked = spans.bound_wrappers()
        if leaked:
            problems.append(f"span wrappers left bound: {leaked}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spans.PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": statistics.median(t for t, _ in untraced), "unit": "s"},
            "ok_frac": {"value": 1 - failed / checker.attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_times,
        "untraced_pass_s": [t for t, _ in untraced],
        "traced_pass_s": [t for t, _ in traced_passes],
        "command_s": [command_seconds(results) for _, results in untraced],
        "failures": checker.failures,
        "problems": problems,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(details, indent=1))
    if traced_passes:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            [[vars(s) for s in pass_spans] for _, pass_spans in traced_passes]))

    summary: dict[tuple[str, str], int] = {}
    for _, name, reason in checker.failures:
        summary[(name, reason)] = summary.get((name, reason), 0) + 1
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced_passes)} traced passes, {failed} of {checker.attempted} "
          f"checked operations failed", file=sys.stderr)
    for (name, reason), times in summary.items():
        print(f"FAIL {name}: {reason} (x{times})", file=sys.stderr)
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
