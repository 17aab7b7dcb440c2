"""funnelkit benchmark: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run from anywhere inside a funnelkit checkout; the package is imported from
the checkout's ``src/``, never from an installed copy, and nothing is read or
written outside the checkout.  Workloads: large-linear, desk-grid,
hard-cells (see README.md).

The run repeats passes until the next would end after ``--seconds``,
checking every answer, and repeats the set-up in between until set-up
samples take about ``SETUP_SHARE`` of the pass time; ``setup_s`` and
``wall_s`` are the medians of their samples.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it sets up once, traced, then
alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead, writing the spans to
``.perfbench/spans-<workload>-seed<N>.jsonl``.  The line before the last is
the run's ledger record: machine, commit, seed, instances and the
workload-specific figures.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Untraced, set-up is repeated until its samples take this share of the time
# the passes take.
SETUP_SHARE = 0.15


def _import_funnelkit() -> None:
    """Import the checkout's own funnelkit; exit non-zero when there is none."""
    if not (SRC / "funnelkit" / "__init__.py").is_file():
        sys.exit(f"error: no funnelkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import funnelkit

    if Path(funnelkit.__file__).resolve().parent != SRC / "funnelkit":
        sys.exit(f"error: imported funnelkit from {funnelkit.__file__}, not {SRC}")


def git_commit(root: Path) -> str:
    """The checkout's commit, or "unknown" when it is no git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _median_figures(outcomes) -> dict:
    """Median of each float figure over passes; other figures from the last pass."""
    figures = dict(outcomes[-1].figures)
    for key, value in figures.items():
        if isinstance(value, float):
            figures[key] = statistics.median(o.figures[key] for o in outcomes)
    return figures


def measure(workload, seconds: float, trace: bool, spans_path: Path) -> tuple[dict, dict]:
    """Run for ``seconds``, gate every answer.  Returns (result, ledger figures)."""
    null = tracing.NullTracer()
    tracer = tracing.Tracer()
    setups, outcomes, traced_outcomes, traced_ranges = [], [], [], []
    crashed = 0
    if trace:
        first = tracer.mark()
        with tracing.installed(tracer):
            workload.setup(traced=True)
        setup_range = (first, tracer.mark())
    start = time.perf_counter()
    last = {}  # duration of the last step of each kind
    while True:
        # Untraced, each step is a set-up or a pass: a set-up whenever set-up
        # samples have fallen below their share of the time, so that both
        # kinds of sample spread over the whole run.  Traced, each step is an
        # untraced and a traced pass.
        kind = "setup" if not trace and sum(setups) <= SETUP_SHARE * sum(
            o.wall_s for o in outcomes) else "pass"
        if outcomes and time.perf_counter() - start + last.get(kind, 0.0) > seconds:
            break
        step_start = time.perf_counter()
        try:
            if kind == "setup":
                workload.release()
                workload.setup()
                setups.append(time.perf_counter() - step_start)
            else:
                outcomes.append(workload.run_pass(null))
                if trace:
                    first = tracer.mark()
                    with tracing.installed(tracer):
                        traced_outcomes.append(workload.run_pass(tracer))
                    traced_ranges.append((first, tracer.mark()))
        except Exception:
            traceback.print_exc()
            crashed = 1
            break
        last[kind] = time.perf_counter() - step_start
    try:
        gated, gate_failed = workload.finish()
    except Exception:
        traceback.print_exc()
        gated, gate_failed = 1, 1
    passes = outcomes + traced_outcomes
    attempted = crashed + gated + sum(o.attempted for o in passes)
    failed = crashed + gate_failed + sum(o.failed for o in passes)

    figures = _median_figures(outcomes) if outcomes else {}
    if crashed or not outcomes:
        metrics = {}
    elif trace:
        counts = [
            (o.counts, tracing.span_counts(tracer.spans, *bounds))
            for o, bounds in zip(traced_outcomes, traced_ranges)
        ]
        if any(c != counts[0] for c in counts):
            failed += 1  # counts must repeat exactly between passes
        metrics = tracing.layer_metrics(
            tracer,
            setup_range,
            traced_ranges,
            traced_outcomes[0].counts,
            [o.wall_s for o in outcomes],
            [o.wall_s for o in traced_outcomes],
        )
        write_spans(tracer, setup_range, traced_ranges, spans_path)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(o.wall_s for o in outcomes), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "distance_arcs": (statistics.median_low(o.distance_arcs for o in outcomes), "arcs"),
        }
        figures["passes"] = len(outcomes)
        figures["setups"] = len(setups)
        figures["setup_samples_s"] = setups
        figures["wall_samples_s"] = [o.wall_s for o in outcomes]
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, figures


def write_spans(tracer, setup_range, traced_ranges, path: Path) -> None:
    phases = [("setup", setup_range)] + [
        (f"pass{i}", bounds) for i, bounds in enumerate(traced_ranges)
    ]
    with path.open("w", encoding="utf-8") as out:
        for phase, (first, end) in phases:
            for index in range(first, end):
                span = tracer.spans[index]
                record = {"id": index, "phase": phase, "name": span.name,
                          "start": span.start, "end": span.end, "parent": span.parent}
                if span.counts:
                    record["counts"] = span.counts
                out.write(json.dumps(record) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("large-linear", "desk-grid", "hard-cells"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_funnelkit()
    import workloads

    outdir = ROOT / ".perfbench"
    outdir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=outdir))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        spans_path = outdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result, figures = measure(workload, args.seconds, bool(args.trace), spans_path)
        if args.trace:
            figures["spans"] = str(spans_path.relative_to(ROOT))
        ledger = {
            "workload": args.workload,
            "trace": args.trace,
            "environment": environment(args.seed),
            "instances": workload.instances(),
            "figures": figures,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"ledger": ledger}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
