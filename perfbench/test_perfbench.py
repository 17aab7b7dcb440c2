"""Tests of the benchmark itself: stopper, tracing, repeatability and gates.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from funnelkit import (  # noqa: E402
    add_noise_arcs,
    approximate_addf,
    bench,
    derive_seed,
    emit_edge_list,
    find_forbidden_witness,
    generate_planted_funnel,
    GenParams,
)

SMALL_CELLS = ((70, 0.4, 30, 40), (80, 0.5, 30, 25))


def planted(n=70, p=0.4, s=30, seed=2):
    funnel, _ = generate_planted_funnel(GenParams(n=n, p=p, s=s, seed=seed))
    return add_noise_arcs(funnel, s, derive_seed(seed, 1))


@pytest.fixture
def small_cells(monkeypatch):
    monkeypatch.setattr(workloads, "HARD_CELLS", SMALL_CELLS)


@pytest.mark.parametrize("budget", [1, 2, 7, 30])
def test_stopper_halts_after_exactly_n_nodes(budget):
    dag = planted()
    counter, result = workloads.run_budgeted(dag, budget, approximate_addf(dag).size)
    assert result is None
    assert counter.nodes == budget
    assert counter.counts["br1"] + counter.counts["br2"] == budget - 1


def test_counts_match_solver_stats_when_the_search_completes():
    dag = planted()
    upper = approximate_addf(dag).size
    counter, result = workloads.run_budgeted(dag, None, upper)
    assert result is not None and counter.nodes > 30
    assert counter.matches(result.stats)
    assert counter.incumbent == result.distance <= upper
    # a budget the search never reaches changes nothing
    again, finished = workloads.run_budgeted(dag, counter.nodes, upper)
    assert finished is not None and again.signature() == counter.signature()


def test_unknown_trace_line_is_an_error():
    with pytest.raises(ValueError):
        workloads.SearchCounter(None, 3)("split 4")


def test_two_traced_runs_give_identical_counts(small_cells, tmp_path):
    runs = []
    for index in range(2):
        workload = workloads.HardCells(seed=index, workdir=tmp_path)
        result, figures = run.measure(workload, 0.0, True, tmp_path / f"{index}.jsonl")
        assert result["correct"] and result["failed"] == 0
        counts = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
        runs.append((counts, figures["gap_arcs"]))
    assert runs[0] == runs[1]
    counts, gap = runs[0]
    assert counts["exact.nodes"] == sum(cell[3] for cell in SMALL_CELLS)
    assert counts["exact.gap_arcs"] == gap > 0
    spans = [json.loads(line) for line in (tmp_path / "0.jsonl").read_text().splitlines()]
    assert {"exact.solve_addf", "approx.approximate_addf", "exact.lower_bound"} <= {
        s["name"] for s in spans
    }


def test_untraced_run_reports_end_to_end_metrics(small_cells, tmp_path):
    result, figures = run.measure(workloads.HardCells(0, tmp_path), 0.0, False, tmp_path / "x")
    assert result["correct"]
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb", "distance_arcs"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert figures["passes"] == 1
    assert result["metrics"]["distance_arcs"]["value"] == sum(
        cell["incumbent"] for cell in figures["cells"]
    )


def test_installed_wraps_and_restores_layers():
    import funnelkit.approx as approx
    import funnelkit.exact as exact

    original = exact.approximate_addf
    dag = planted(n=20, s=4)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert exact.approximate_addf is not original
        exact.solve_addf(dag)
    assert exact.approximate_addf is original is approx.approximate_addf
    names = [span.name for span in tracer.spans]
    assert names[:3] == [
        "exact.solve_addf",
        "approx.approximate_addf",
        "approx.assign_labels_greedy",
    ]
    assert tracer.spans[1].parent == 0 and tracer.spans[2].parent == 1
    assert tracer.spans[0].counts["exact.nodes"] >= 1


def test_self_time_subtracts_children_only():
    tracer = tracing.Tracer()
    spans = tracer.spans
    for name, start, end, parent in [
        ("a", 0.0, 10.0, None),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
    ]:
        span = tracing.Span(name, start, parent)
        span.end = end
        spans.append(span)
    assert tracing.self_times(spans, 0, 4) == {"a": 6.0, "b": 3.0, "c": 1.0}
    # a range that starts inside the tree keeps the whole of its top spans
    assert tracing.self_times(spans, 1, 3) == {"b": 2.0, "c": 1.0}


def test_witness_gate_rejects_a_witness_missing_one_arc():
    dag = planted(n=40, s=10)
    arcs = sorted(find_forbidden_witness(dag).arcs())
    text = "not a funnel\nwitness: " + " ".join(f"{u}->{v}" for u, v in arcs) + "\n"
    assert workloads.check_witness(1, text, expect_funnel=False) == arcs
    assert workloads.check_witness(0, text, expect_funnel=False) is None
    assert workloads.check_witness(1, text, expect_funnel=True) is None
    assert workloads.check_witness(1, "not a funnel\nwitness: 1-2\n", False) is None
    assert workloads.check_witness(0, "funnel\n", expect_funnel=True) == []
    assert workloads.witness_is_obstruction(arcs, dag.arc_set)
    for dropped in arcs:
        kept = [arc for arc in arcs if arc != dropped]
        assert not workloads.witness_is_obstruction(kept, dag.arc_set)
    absent = next((u, v) for u in range(dag.vertex_count) for v in range(u + 1, dag.vertex_count)
                  if (u, v) not in dag.arc_set)
    assert not workloads.witness_is_obstruction(arcs + [absent], dag.arc_set)


def test_large_linear_gate_runs_in_its_own_interpreter(tmp_path):
    dag = planted(n=60, s=12)
    path = tmp_path / "g.edges"
    path.write_text(emit_edge_list(dag))
    witness = [list(arc) for arc in sorted(find_forbidden_witness(dag).arcs())]
    size = approximate_addf(dag).size
    reply = workloads.in_fresh_interpreter("gate", path, {"witness": witness, "approx_size": size})
    assert reply == {"witness_ok": True, "approx_ok": True}
    reply = workloads.in_fresh_interpreter(
        "gate", path, {"witness": witness[1:], "approx_size": size + 1})
    assert reply == {"witness_ok": False, "approx_ok": False}


class _Timed:
    """A workload whose set-up and pass take fixed times."""

    def __init__(self, setup_s, pass_s):
        self.setup_s, self.pass_s = setup_s, pass_s
        self.steps = []

    def release(self):
        pass

    def setup(self, traced=False):
        self.steps.append("setup")
        time.sleep(self.setup_s)

    def run_pass(self, tracer):
        self.steps.append("pass")
        time.sleep(self.pass_s)
        return workloads.PassOutcome(wall_s=self.pass_s, attempted=1, failed=0,
                                     distance_arcs=1)

    def finish(self):
        return 0, 0


def test_set_up_is_repeated_at_its_share_of_the_run(tmp_path):
    workload = _Timed(setup_s=0.03, pass_s=0.05)
    result, figures = run.measure(workload, 1.5, False, tmp_path / "x")
    assert result["correct"] and workload.steps[:2] == ["setup", "pass"]
    # 0.03 s of set-up per 0.2 s of passes at a share of 0.15
    assert figures["setups"] >= 3 and figures["passes"] >= 12
    setup_s = figures["setups"] * 0.03
    assert setup_s <= run.SETUP_SHARE * figures["passes"] * 0.05 + 0.03
    assert "setup" in workload.steps[len(workload.steps) // 2:]  # spread, not all up front


def test_distance_gate_needs_lower_at_most_approx_at_most_noise():
    report = json.dumps({"n": 5, "m": 7, "is_funnel": False, "approx_size": 3})
    assert workloads.distance_value(0, report, "approx_size", 5, 7) == 3
    assert workloads.distance_value(0, report, "approx_size", 5, 8) is None
    assert workloads.distance_value(2, report, "approx_size", 5, 7) is None
    assert workloads.distance_value(0, "oops", "approx_size", 5, 7) is None
    assert workloads.distance_failures(3, 2, noise=4) == 0
    assert workloads.distance_failures(3, 4, noise=4) == 1
    assert workloads.distance_failures(5, 2, noise=4) == 1
    assert workloads.distance_failures(None, None, noise=4) == 2


def test_desk_gate_rejects_a_row_off_by_one():
    spec = bench.GridSpec(ns=(20,), ps=(0.5,), ss=(4,), replicates=3, seed=2)
    reports = bench.run_grid(spec, workers=1)
    pinned = [r.exact_size for r in reports]
    assert workloads.desk_row_failures(reports, pinned) == 0
    assert workloads.desk_row_failures(reports, [pinned[0] + 1, *pinned[1:]]) == 1
    assert workloads.desk_row_failures(reports, pinned[:-1]) == len(reports)
    reports[2].timed_out = True
    assert workloads.desk_row_failures(reports, pinned) == 1


def test_desk_pins_cover_the_default_grid():
    pins = json.loads(workloads.DESK_PINS.read_text())["optima"]
    assert sorted(map(int, pins)) == list(range(workloads.PIN_SEEDS))
    rows = sum(1 for _ in bench.GridSpec().instances())
    assert all(len(optima) == rows for optima in pins.values())


def test_cell_gate_rejects_wrong_answers():
    dag = planted()
    upper = approximate_addf(dag).size
    stopped, none = workloads.run_budgeted(dag, 10, upper)
    assert workloads.cell_ok(dag, 0, upper, 10, stopped, none)
    assert not workloads.cell_ok(dag, 0, upper, 11, stopped, none)  # node count off
    assert not workloads.cell_ok(dag, 0, upper - 1, 10, stopped, none)  # above approx
    assert not workloads.cell_ok(dag, upper + 1, upper + 2, 10, stopped, none)  # below lower
    done, result = workloads.run_budgeted(dag, None, upper)
    assert workloads.cell_ok(dag, 0, upper, 10, done, result)
    done.counts["leaves"] += 1
    assert not workloads.cell_ok(dag, 0, upper, 10, done, result)


def test_desk_grid_rejects_an_unpinned_answer(tmp_path, monkeypatch):
    spec = bench.GridSpec(ns=(20,), ps=(0.5,), ss=(4,), replicates=2, seed=0)
    optima = [r.exact_size for r in bench.run_grid(spec, workers=1)]
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({"optima": {"0": [optima[0] + 1, *optima[1:]]}}))
    monkeypatch.setattr(workloads, "DESK_PINS", pins)
    monkeypatch.setattr(bench, "GridSpec", lambda seed: spec)
    result, _ = run.measure(workloads.DeskGrid(0, tmp_path), 0.0, False, tmp_path / "x")
    assert not result["correct"] and result["failed"] == 1 and result["attempted"] == 2


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
