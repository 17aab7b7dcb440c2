import dataclasses
import json

import pytest

import funnelkit.bench as bench
from funnelkit import (
    GenParams,
    GridSpec,
    Solver,
    SplitMix64,
    analyze,
    approximate_addf,
    derive_seed,
    is_funnel_degree,
    lower_bound,
    planted_instance,
    run_grid,
    summarize,
    write_csv,
)
from funnelkit.bench import Report
from samples import D0, DIAMOND, G8, TIGHT_12


def test_analyze_modes():
    full = analyze(D0, "d0")
    assert full.lower_bound == 1
    assert full.approx_size == 1
    assert full.exact_size == 1
    assert full.approx_ratio == 1.0
    assert not full.is_funnel

    lone = analyze(DIAMOND, "diamond", mode="lower")
    assert lone.is_funnel
    assert lone.lower_bound == 0
    assert lone.approx_size is None and lone.exact_size is None

    apx = analyze(D0, "d0", mode="approx")
    assert apx.approx_size == 1 and apx.exact_size is None

    with pytest.raises(ValueError):
        analyze(D0, "d0", mode="everything")


def test_analyze_ratio_on_funnel_is_one():
    report = analyze(DIAMOND, "diamond")
    assert report.exact_size == 0
    assert report.approx_ratio == 1.0


def test_report_check_rejects_impossible_numbers():
    good = analyze(TIGHT_12, "t")
    with pytest.raises(RuntimeError):
        dataclasses.replace(good, lower_bound=good.exact_size + 1).check()
    with pytest.raises(RuntimeError):
        dataclasses.replace(good, approx_size=2 * good.exact_size + 1).check()


def test_report_json_shape():
    report = analyze(D0, "d0", seed=3, gen=GenParams(n=5, p=0.1, s=0, seed=3))
    data = report.to_json_dict()
    assert data["schema"] == "funnelkit-report/1"
    assert data["n"] == 5 and data["m"] == 4
    assert data["gen"] == {"n": 5, "p": 0.1, "s": 0, "seed": 3}
    assert "timings_ms" not in data
    assert "timings_ms" in report.to_json_dict(with_times=True)
    # json round trip works
    json.loads(json.dumps(data))


def test_grid_spec_instances_are_seeded_apart():
    spec = GridSpec(ns=(5, 6), ps=(0.5,), ss=(1,), replicates=2, seed=7)
    rows = list(spec.instances())
    assert [name for name, _ in rows] == [
        "n5-p0.5-s1-r0",
        "n5-p0.5-s1-r1",
        "n6-p0.5-s1-r0",
        "n6-p0.5-s1-r1",
    ]
    seeds = {params.seed for _, params in rows}
    assert len(seeds) == len(rows)


def test_grid_spec_from_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text('{"ns": [4], "ps": [0.5], "ss": [0], "replicates": 3}')
    spec = GridSpec.from_file(str(path))
    assert spec.ns == (4,)
    assert spec.replicates == 3
    assert spec.seed == GridSpec().seed  # default survives

    path.write_text('{"sizes": [4]}')
    with pytest.raises(ValueError, match="unknown grid keys"):
        GridSpec.from_file(str(path))

    path.write_text("[1, 2]")
    with pytest.raises(ValueError):
        GridSpec.from_file(str(path))


SMALL = GridSpec(ns=(8, 12), ps=(0.3, 0.7), ss=(0, 2), replicates=2, seed=5)


def test_run_grid_is_deterministic_and_order_preserving():
    first = run_grid(SMALL)
    second = run_grid(SMALL)
    assert len(first) == 16
    assert [r.instance for r in first] == [name for name, _ in SMALL.instances()]
    assert write_csv(first) == write_csv(second)


def test_run_grid_parallel_matches_sequential():
    sequential = run_grid(SMALL, workers=1)
    parallel = run_grid(SMALL, workers=3)
    assert write_csv(sequential) == write_csv(parallel)


def test_noise_free_grid_instances_are_funnels():
    spec = GridSpec(ns=(10,), ps=(0.5,), ss=(0,), replicates=4, seed=2)
    for report in run_grid(spec):
        assert report.is_funnel
        assert report.exact_size == 0


def test_csv_header_is_pinned():
    # schema contract: column order is part of the output format
    text = write_csv([analyze(D0, "d0")])
    assert text.splitlines()[0] == (
        "instance,n,m,seed,gen_n,gen_p,gen_s,is_funnel,lower_bound,"
        "approx_size,exact_size,timed_out,approx_ratio,lower_ms,approx_ms,"
        "exact_ms"
    )


# The keys each mode adds to the common ones, with their values on D0.
_MODE_FIELDS = {
    "all": {
        "lower_bound": 1,
        "approx_size": 1,
        "exact_size": 1,
        "timed_out": False,
        "approx_ratio": 1.0,
    },
    "exact": {"exact_size": 1, "timed_out": False},
    "approx": {"approx_size": 1},
    "lower": {"lower_bound": 1},
}
_MODE_PHASES = {"all": {"lower", "approx", "exact"}}


@pytest.mark.parametrize("mode", list(_MODE_FIELDS))
@pytest.mark.parametrize("with_times", [False, True])
def test_json_report_is_pinned(mode, with_times):
    gen = GenParams(n=5, p=0.1, s=2, seed=3)
    report = analyze(D0, "d0", mode=mode, seed=3, gen=gen)
    data = report.to_json_dict(with_times=with_times)
    if with_times:
        times = data.pop("timings_ms")
        assert set(times) == _MODE_PHASES.get(mode, {mode})
        assert all(value == round(value, 3) for value in times.values())
    assert data == {
        "schema": "funnelkit-report/1",
        "instance": "d0",
        "n": 5,
        "m": 4,
        "is_funnel": False,
        "seed": 3,
        "gen": {"n": 5, "p": 0.1, "s": 2, "seed": 3},
        **_MODE_FIELDS[mode],
    }
    if mode == "all" and not with_times:
        assert json.dumps(data, sort_keys=True) == (
            '{"approx_ratio": 1.0, "approx_size": 1, "exact_size": 1, '
            '"gen": {"n": 5, "p": 0.1, "s": 2, "seed": 3}, "instance": "d0", '
            '"is_funnel": false, "lower_bound": 1, "m": 4, "n": 5, '
            '"schema": "funnelkit-report/1", "seed": 3, "timed_out": false}'
        )


def test_summarize_and_csv():
    reports = run_grid(SMALL)
    stats = summarize(reports)
    assert stats["instances"] == 16
    assert 0 <= stats["solved"] <= 16
    assert stats["ratio_histogram"][0][0] == 1.0

    text = write_csv(reports)
    lines = text.splitlines()
    assert lines[0].startswith("instance,n,m,seed,")
    body = [line for line in lines if line and not line.startswith("#")]
    assert len(body) == 17  # header + one row per instance
    tail = [line for line in lines if line.startswith("#")]
    assert any("instances=16" in line for line in tail)
    # timing columns stay empty unless asked for
    assert lines[1].endswith(",,,")
    timed = write_csv(reports, with_times=True).splitlines()
    assert not timed[1].endswith(",,,")


# ---- certified rows: lower bound == approximation ----


def reference_analyze(dag, instance, time_limit_ms=None, seed=None, gen=None):
    """``analyze(mode="all")`` as it was before certified rows skipped the
    search: the solver runs on every instance."""
    report = Report(
        instance=instance,
        n=dag.vertex_count,
        m=dag.arc_count,
        is_funnel=is_funnel_degree(dag),
        seed=seed,
        gen=gen,
    )
    report.lower_bound = lower_bound(dag)
    approx = approximate_addf(dag)
    report.approx_size = approx.size
    result = Solver(dag, incumbent=approx, time_limit_ms=time_limit_ms).run()
    report.exact_size = result.distance
    report.timed_out = result.stats.timed_out
    if not report.timed_out:
        report.approx_ratio = approx.size / result.distance if result.distance else 1.0
    return report.check()


def random_planted_params(count):
    rng = SplitMix64(2024)
    for i in range(count):
        n = 6 + rng.below(35)
        p = rng.below(11) / 10
        s = rng.below(n) if i % 4 else 0
        yield f"r{i}", GenParams(n=n, p=p, s=s, seed=derive_seed(9, i))


@pytest.mark.parametrize("time_limit_ms", [None, 0.0])
def test_certified_rows_match_a_full_search_on_random_instances(time_limit_ms):
    # Planted instances rarely leave the approximation above the optimum;
    # the hand-made samples do.
    instances = [("tight12", TIGHT_12, None), ("g8", G8, None)] + [
        (name, planted_instance(params)[0], params)
        for name, params in random_planted_params(200)
    ]
    new, old = [], []
    for name, dag, params in instances:
        seed = params.seed if params else None
        new.append(analyze(dag, name, "all", time_limit_ms, seed, params))
        old.append(reference_analyze(dag, name, time_limit_ms, seed, params))
        assert new[-1].to_json_dict() == old[-1].to_json_dict(), name
    assert write_csv(new) == write_csv(old)
    # Both sides of the shortcut are covered, and so is an open gap.
    gaps = [r for r in new if r.lower_bound < r.approx_size]
    assert 20 <= len(gaps) <= len(new) - 100
    if time_limit_ms is None:
        assert any(r.exact_size < r.approx_size for r in gaps)
    else:
        assert any(r.timed_out for r in gaps)


@pytest.mark.parametrize("time_limit_ms", [None, 0.0])
def test_certified_rows_match_a_full_search_on_a_grid(time_limit_ms):
    spec = dataclasses.replace(
        SMALL, ns=(12, 30), ss=(0, 12), time_limit_ms=time_limit_ms
    )
    reports = run_grid(spec)
    reference = [
        reference_analyze(planted_instance(p)[0], name, time_limit_ms, p.seed, p)
        for name, p in spec.instances()
    ]
    assert [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in reference]
    assert write_csv(reports) == write_csv(reference)
    assert any(r.lower_bound < r.approx_size for r in reports)


def test_solver_is_built_only_for_an_open_gap(monkeypatch):
    class SolverBuilt(Exception):
        pass

    def no_solver(*args, **kwargs):
        raise SolverBuilt

    monkeypatch.setattr(bench, "Solver", no_solver)
    gaps = 0
    for dag in [D0, DIAMOND, TIGHT_12] + [
        planted_instance(params)[0] for _, params in random_planted_params(60)
    ]:
        lower, approx = lower_bound(dag), approximate_addf(dag).size
        for limit in (None, 0.0):
            if lower == approx:
                report = analyze(dag, "x", time_limit_ms=limit)
                assert report.exact_size == approx and not report.timed_out
                assert report.approx_ratio == 1.0
                assert "exact" in report.timings_ms
            else:
                with pytest.raises(SolverBuilt):
                    analyze(dag, "x", time_limit_ms=limit)
        gaps += lower < approx
    assert gaps
    # Without both numbers there is no certificate, so mode "exact" searches.
    with pytest.raises(SolverBuilt):
        analyze(D0, "d0", mode="exact")
