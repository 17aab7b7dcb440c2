"""The three workloads, their correctness gates and the node-budget stopper.

Why each workload exists, and the figures it was sized from, are in
README.md.  A workload's timed calls go through module attributes
(``cli.main``, ``bench.run_grid``, ...), so that a traced pass sees them
through the wrappers of ``tracing.installed``.  Gates call the functions
imported by name below, which are never wrapped: checking an answer is not
work of the layer that produced it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import funnelkit.analysis as analysis
import funnelkit.approx as approx
import funnelkit.bench as bench
import funnelkit.cli as cli
import funnelkit.exact as exact
import funnelkit.generator as generator
import funnelkit.graph as graph
from funnelkit.analysis import is_funnel_degree
from funnelkit.approx import approximate_addf
from funnelkit.exact import solve_addf
from funnelkit.generator import GenParams, derive_seed
from funnelkit.graph import Dag, delete_arcs, read_arc_list

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DESK_PINS = HERE / "desk_optima.json"


@dataclass
class PassOutcome:
    """One pass: the time of its timed calls, its gate results and counts."""

    wall_s: float
    attempted: int
    failed: int
    distance_arcs: int  # the deletion distances the pass's answers report, summed
    counts: dict = field(default_factory=dict)  # per-layer counts the spans cannot see
    figures: dict = field(default_factory=dict)  # workload-specific end-to-end figures


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def fresh_import() -> None:
    """Import the package in a new interpreter, as every CLI call does."""
    subprocess.run(
        [sys.executable, "-c", "import funnelkit"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )  # no timeout: with one, wait() polls in steps of up to 50 ms


def _planted(n: int, p: float, s: int, seed: int):
    """A planted funnel plus ``s`` noise arcs, seeded the way a bench row is."""
    funnel, _ = generator.generate_planted_funnel(GenParams(n=n, p=p, s=s, seed=seed))
    return generator.add_noise_arcs(funnel, s, derive_seed(seed, 1))


# ---- large-linear -------------------------------------------------------------

# The criterion-8 instance of the acceptance tests, whatever the benchmark seed.
LL_PARAMS = GenParams(n=100_000, p=0.00008, s=0, seed=12)
LL_NOISE, LL_NOISE_SEED = 2000, 13
LL_COMMANDS = (
    ("check", ["check"]),
    ("approx", ["distance", "--mode", "approx"]),
    ("lower", ["distance", "--mode", "lower"]),
)


def in_fresh_interpreter(command: str, path: Path, payload=None) -> dict:
    """Run ``command`` of this file's ``main`` in a new interpreter; its JSON reply."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), command, str(path)],
        input=json.dumps(payload),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )  # no timeout: with one, wait() polls in steps of up to 50 ms
    if proc.returncode != 0:
        raise RuntimeError(f"{command} {path} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def build_large_linear(path: Path) -> dict:
    """Write the instance to ``path`` as an edge list; its size and reference verdict."""
    funnel, _ = generator.generate_planted_funnel(LL_PARAMS)
    dag = generator.add_noise_arcs(funnel, LL_NOISE, LL_NOISE_SEED)
    path.write_text(graph.emit_edge_list(dag), encoding="utf-8")
    # The reference verdict comes from the other recognizer.
    return {"n": dag.vertex_count, "m": dag.arc_count,
            "is_funnel": analysis.is_funnel_private_arc(dag)}


def gate_large_linear(path: Path, witness, approx_size: int) -> dict:
    """The answers that need the graph: is the witness real, is the approximation feasible?"""
    count, arcs = read_arc_list(path.read_text(encoding="utf-8"))
    dag = Dag(count, arcs)
    result = approximate_addf(dag)
    return {
        "witness_ok": witness_is_obstruction([tuple(arc) for arc in witness], dag.arc_set),
        "approx_ok": result.size == approx_size
        and is_funnel_degree(delete_arcs(dag, result.deletion_set)),
    }


def witness_is_obstruction(arcs, arc_set) -> bool:
    """True when every arc is in the graph and together they are no funnel.

    Funnels are closed under arc deletion, so a non-funnel subgraph proves
    the whole graph is no funnel.
    """
    if not arcs or any(arc not in arc_set for arc in arcs):
        return False
    ids = {v: i for i, v in enumerate(sorted({x for arc in arcs for x in arc}))}
    sub = Dag(len(ids), {(ids[u], ids[v]) for u, v in arcs})
    return not is_funnel_degree(sub)


def check_witness(code: int, text: str, expect_funnel: bool) -> Optional[list]:
    """The witness arcs a ``funnelkit check`` report gives ([] for a funnel).

    None when the verdict or the report's form is wrong; whether the
    witness arcs are real is for :func:`witness_is_obstruction`.
    """
    lines = text.splitlines()
    if expect_funnel:
        return [] if code == 0 and lines[:1] == ["funnel"] else None
    if code != 1 or len(lines) != 2 or lines[0] != "not a funnel":
        return None
    head, _, body = lines[1].partition(" ")
    if head != "witness:":
        return None
    try:
        arcs = [tuple(int(x) for x in token.split("->")) for token in body.split()]
    except ValueError:
        return None
    return arcs if arcs and all(len(arc) == 2 for arc in arcs) else None


def distance_value(code: int, text: str, key: str, n: int, m: int) -> Optional[int]:
    """The ``key`` figure of a ``funnelkit distance`` report, or None if malformed."""
    try:
        report = json.loads(text)
    except ValueError:
        return None
    if code != 0 or not isinstance(report, dict):
        return None
    if report.get("n") != n or report.get("m") != m or report.get("is_funnel") is not False:
        return None
    value = report.get(key)
    return value if isinstance(value, int) and not isinstance(value, bool) else None


def distance_failures(approx_size, lower, noise: int) -> int:
    """Failed distance commands of one pass: needs lower <= approx <= noise."""
    failed = int(approx_size is None or approx_size > noise)
    failed += int(lower is None or (approx_size is not None and lower > approx_size))
    return failed


class LargeLinear:
    """``check``, ``distance --mode approx`` and ``--mode lower`` on an n=10^5 file.

    Set-up and the graph-sized gates run in their own interpreters, so that
    the measuring process holds no graph and its peak memory is the CLI's.
    """

    name = "large-linear"

    def __init__(self, seed: int, workdir: Path):
        self.path = workdir / "large-linear.edges"
        self.meta: dict = {}
        self.first: Optional[tuple] = None
        self.witness: Optional[list] = None
        self.witness_passes = 0  # passes whose check output passed its own gate

    def release(self) -> None:
        pass

    def setup(self, traced: bool = False) -> None:
        # A traced set-up runs in this process, where its layer calls get spans;
        # an untraced one pays the interpreter start of a CLI call.
        if traced:
            self.meta = build_large_linear(self.path)
        else:
            self.meta = in_fresh_interpreter("build", self.path)

    def run_pass(self, tracer) -> PassOutcome:
        outputs, seconds = {}, {}
        for op, argv in LL_COMMANDS:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                code, seconds[op] = _timed(cli.main, [*argv, str(self.path)])
            outputs[op] = (code, sink.getvalue())
        n, m = self.meta["n"], self.meta["m"]
        approx_size = distance_value(*outputs["approx"], "approx_size", n, m)
        lower = distance_value(*outputs["lower"], "lower_bound", n, m)
        witness = check_witness(*outputs["check"], self.meta["is_funnel"])
        failed = int(witness is None)
        self.witness_passes += int(witness is not None)
        failed += distance_failures(approx_size, lower, LL_NOISE)
        answers = (outputs["check"][1], approx_size, lower)
        if self.first is None:
            self.first = answers
            self.witness = witness
        elif answers != self.first:
            failed = max(failed, 1)  # the same file must give the same answers
        return PassOutcome(
            wall_s=sum(seconds.values()),
            attempted=len(LL_COMMANDS),
            distance_arcs=approx_size or 0,
            failed=min(failed, len(LL_COMMANDS)),
            figures={f"{op}_s": s for op, s in seconds.items()},
        )

    def finish(self) -> tuple[int, int]:
        """Once per run, untimed: the witness is real, and deleting the
        approximation's set leaves a funnel.

        Every pass printed the first pass's witness (or failed), so a false
        witness fails each pass's ``check``.
        """
        if self.first is None or self.first[1] is None:
            return 1, 1
        report = in_fresh_interpreter(
            "gate", self.path, {"witness": self.witness or [], "approx_size": self.first[1]}
        )
        failed = int(not report["approx_ok"])
        if self.witness and not report["witness_ok"]:
            failed += self.witness_passes
        return 1, failed

    def instances(self) -> list:
        return [{"name": self.name, "n": self.meta.get("n"), "m": self.meta.get("m"),
                 "gen_seed": LL_PARAMS.seed, "p": LL_PARAMS.p,
                 "noise": LL_NOISE, "noise_seed": LL_NOISE_SEED}]


# ---- desk-grid ----------------------------------------------------------------

PIN_SEEDS = 32  # grid seeds 0..31 have pinned optima; the benchmark seed is taken mod 32


def desk_row_failures(reports, pinned: list[int]) -> int:
    """Rows that did not solve, or whose distance differs from the pinned optimum."""
    if len(reports) != len(pinned):
        return max(len(reports), len(pinned))
    return sum(
        1
        for report, optimum in zip(reports, pinned)
        if report.timed_out or report.exact_size != optimum
    )


def desk_optima(grid_seed: int) -> list[int]:
    """Optimal distance of every row of the default grid with this seed."""
    reports = bench.run_grid(bench.GridSpec(seed=grid_seed), workers=1)
    if any(r.timed_out for r in reports):
        raise RuntimeError(f"grid seed {grid_seed}: a row timed out, nothing to pin")
    return [r.exact_size for r in reports]


class DeskGrid:
    """The default 270-instance ``GridSpec`` through ``run_grid`` and ``write_csv``."""

    name = "desk-grid"

    def __init__(self, seed: int, workdir: Path):
        self.grid_seed = seed % PIN_SEEDS
        self.spec = None
        self.pinned: list[int] = []
        self.reports = []

    def release(self) -> None:
        self.spec = None

    def setup(self, traced: bool = False) -> None:
        if not traced:  # untraced set-up pays the interpreter start of a CLI call
            fresh_import()
        self.spec = bench.GridSpec(seed=self.grid_seed)
        pins = json.loads(DESK_PINS.read_text(encoding="utf-8"))
        self.pinned = pins["optima"][str(self.grid_seed)]

    def run_pass(self, tracer) -> PassOutcome:
        start = time.perf_counter()
        reports = bench.run_grid(self.spec, workers=1)
        csv_text = bench.write_csv(reports)
        wall = time.perf_counter() - start
        self.reports = reports
        solved = sum(1 for r in reports if not r.timed_out)
        return PassOutcome(
            wall_s=wall,
            attempted=len(self.pinned),
            distance_arcs=sum(r.exact_size or 0 for r in reports),
            failed=desk_row_failures(reports, self.pinned),
            counts={
                "exact.solved": solved,
                "exact.gap_arcs": sum(r.exact_size - r.lower_bound for r in reports),
            },
            figures={
                "instances_per_s": len(reports) / wall,
                "solved": solved,
                "csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
            },
        )

    def finish(self) -> tuple[int, int]:
        return 0, 0

    def instances(self) -> list:
        return [[r.instance, r.n, r.m, r.seed] for r in self.reports]


# ---- hard-cells ---------------------------------------------------------------

# (n, p, s, node budget): ROADMAP's large-grid cells.  Budgets were sized at
# the seed commit to about 1 s per cell, so that a run holds several passes.
HARD_CELLS = (
    (250, 0.15, 125, 1000),
    (250, 0.85, 125, 500),
    (500, 0.5, 150, 200),
    (1000, 0.5, 175, 50),
)
# The cells are pinned to the instances ROADMAP measured (base seed 1), so
# node counts and gaps repeat exactly whatever the benchmark seed.
HARD_BASE_SEED = 1


class NodeBudgetSpent(Exception):
    """Raised from the solver's trace hook once the node budget is used up."""


class SearchCounter:
    """Reads the solver's ``trace=`` lines; the only code that knows their format.

    ``br1 v L`` and ``br2 v keep u->w`` announce a child node; ``rr1 v L`` and
    ``rr2 u->w`` are reduction firings; ``prune ...`` and ``leaf k`` end a
    node; ``best k`` lowers the incumbent.  The root node is never announced.
    With a budget of N nodes the counter raises :class:`NodeBudgetSpent`
    instead of letting node N+1 start.
    """

    EVENTS = {"br1": "br1", "br2": "br2", "rr1": "rr1", "rr2": "rr2",
              "prune": "pruned", "leaf": "leaves"}

    def __init__(self, budget: Optional[int], incumbent: int):
        self.budget = budget
        self.incumbent = incumbent
        self.nodes = 1
        self.counts = dict.fromkeys(self.EVENTS.values(), 0)

    def __call__(self, line: str) -> None:
        kind, _, rest = line.partition(" ")
        if kind == "best":
            self.incumbent = int(rest)
            return
        if kind not in self.EVENTS:
            raise ValueError(f"unknown solver trace line {line!r}")
        if kind in ("br1", "br2"):
            if self.budget is not None and self.nodes >= self.budget:
                raise NodeBudgetSpent
            self.nodes += 1
        self.counts[self.EVENTS[kind]] += 1

    def matches(self, stats) -> bool:
        """Cross-check against ``ExactResult.stats`` of a completed search."""
        return self.nodes == stats.nodes and all(
            getattr(stats, key) == value for key, value in self.counts.items()
        )

    def signature(self) -> tuple:
        return (self.nodes, self.incumbent, *self.counts.values())


def run_budgeted(dag: Dag, budget: Optional[int], incumbent: int):
    """``solve_addf`` under a node budget: (counter, result or None if stopped)."""
    counter = SearchCounter(budget, incumbent)
    try:
        return counter, solve_addf(dag, trace=counter)
    except NodeBudgetSpent:
        return counter, None


def cell_ok(dag: Dag, root_lower: int, approx_size: int, budget: int, counter, result) -> bool:
    """Gate for one budgeted solve."""
    if not root_lower <= counter.incumbent <= approx_size:
        return False
    if result is None:
        return counter.nodes == budget
    return (
        result.distance == counter.incumbent
        and counter.matches(result.stats)
        and len(result.deletion_set) == result.distance
        and is_funnel_degree(delete_arcs(dag, result.deletion_set))
    )


class HardCells:
    """``solve_addf`` on four large-grid cells, each under a fixed node budget."""

    name = "hard-cells"

    def __init__(self, seed: int, workdir: Path):
        self.cells: list = []
        self.first: dict = {}

    def release(self) -> None:
        self.cells = []

    def setup(self, traced: bool = False) -> None:
        if not traced:  # untraced set-up pays the interpreter start of a CLI call
            fresh_import()
        gen_seed = derive_seed(HARD_BASE_SEED, 0)
        for n, p, s, budget in HARD_CELLS:
            dag = _planted(n, p, s, gen_seed)
            root = exact.lower_bound(dag)
            upper = approx.approximate_addf(dag).size
            self.cells.append((f"n{n}-p{p}-s{s}", dag, root, upper, budget))

    def run_pass(self, tracer) -> PassOutcome:
        wall = 0.0
        failed = solved = gap = incumbents = 0
        figures = []
        for name, dag, root, upper, budget in self.cells:
            with tracer.span("exact.solve_addf") as span:
                (counter, result), seconds = _timed(run_budgeted, dag, budget, upper)
                for key, value in counter.counts.items():
                    span.count(f"exact.{key}", value)
                span.count("exact.nodes", counter.nodes)
            wall += seconds
            ok = cell_ok(dag, root, upper, budget, counter, result)
            if self.first.setdefault(name, counter.signature()) != counter.signature():
                ok = False  # a node budget makes the search repeat exactly
            failed += int(not ok)
            solved += int(result is not None)
            gap += counter.incumbent - root
            incumbents += counter.incumbent
            figures.append({"cell": name, "budget": budget, "nodes": counter.nodes,
                              "root_lower": root, "incumbent": counter.incumbent,
                              "solved": result is not None, "seconds": seconds})
        return PassOutcome(
            wall_s=wall,
            attempted=len(self.cells),
            distance_arcs=incumbents,
            failed=failed,
            counts={"exact.solved": solved, "exact.gap_arcs": gap},
            figures={"solved": solved, "gap_arcs": gap, "cells": figures},
        )

    def finish(self) -> tuple[int, int]:
        return 0, 0

    def instances(self) -> list:
        return [{"name": name, "n": dag.vertex_count, "m": dag.arc_count,
                 "gen_seed": derive_seed(HARD_BASE_SEED, 0), "node_budget": budget}
                for name, dag, _, _, budget in self.cells]


WORKLOADS = {cls.name: cls for cls in (LargeLinear, DeskGrid, HardCells)}



def main(argv: list[str]) -> int:
    """``workloads.py build|gate PATH``: large-linear's steps that hold the graph.

    Reads a JSON payload on stdin (for ``gate``) and prints a JSON reply.
    """
    command, path = argv[0], Path(argv[1])
    if command == "build":
        reply = build_large_linear(path)
    elif command == "gate":
        payload = json.loads(sys.stdin.read())
        reply = gate_large_linear(path, payload["witness"], payload["approx_size"])
    else:
        raise SystemExit(f"unknown command {command!r}")
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
