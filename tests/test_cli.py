import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import funnelkit.bench
import funnelkit.cli as cli
from funnelkit import (
    Dag,
    GenParams,
    GridSpec,
    SplitMix64,
    emit_edge_list,
    parse_edge_list,
    planted_instance,
    solve_addf,
)
from funnelkit.cli import main
from funnelkit.graph import MAX_GRID_ROWS
from samples import D0, DIAMOND, FUNNEL_8, G8, NEAR_FUNNEL_8, disjoint_copies, mutate


@pytest.fixture
def d0_file(tmp_path):
    path = tmp_path / "d0.edges"
    path.write_text(emit_edge_list(D0))
    return str(path)


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.edges"
    path.write_text(emit_edge_list(DIAMOND))
    return str(path)


# ---- check ----


def test_check_accepts_funnel(diamond_file, capsys):
    assert main(["check", diamond_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "funnel"
    assert "0 F" in out and "3 M" in out


def test_check_rejects_with_witness(d0_file, capsys):
    assert main(["check", d0_file]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "not a funnel"
    assert "witness: 0->2 1->2 2->3 2->4" in out


def test_check_missing_file(capsys):
    assert main(["check", "/no/such/file"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_cycle_needs_condense(tmp_path, capsys):
    path = tmp_path / "cyc.edges"
    path.write_text("0 1\n1 0\n1 2\n")
    assert main(["check", str(path)]) == 2
    assert "cycle" in capsys.readouterr().err
    assert main(["check", str(path), "--condense"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "funnel"


def test_check_malformed_line_reported(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\nnot numbers\n")
    assert main(["check", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line",
    [
        ("p 1000000000000 0\n", "line 1"),
        ("p -5 0\n", "line 1"),
        ("0 1\n0 99999999999\n", "line 2"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [["check"], ["check", "--condense"], ["distance"], ["distance", "--condense"]],
)
def test_vertex_count_is_bounded_before_allocating(tmp_path, capsys, text, line, argv):
    # Declared by the header or implied by an id: either way rejected before
    # any per-vertex table exists, so the call returns at once.  A negative
    # count is rejected there too.
    path = tmp_path / "huge.edges"
    path.write_text(text)
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert line in err


@pytest.mark.parametrize("command", ["check", "distance", "generate"])
def test_non_utf8_input_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"0 1\n\xff\n")
    argv = [command, str(path)]
    if command == "generate":
        argv = [command, "--cnf", str(path), "--out", str(tmp_path / "inst")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "UTF-8" in err


def test_loading_a_file_drops_its_text_before_the_build(tmp_path, monkeypatch):
    # The planted n = 20,000 file (m = 40,452, about 11 bytes per arc):
    # when the build starts, the load holds the two id arrays the reader
    # made (8 bytes per arc) and no longer the text.
    dag, _ = planted_instance(GenParams(n=20_000, p=0.0004, s=400, seed=12))
    path = tmp_path / "planted.edges"
    path.write_text(emit_edge_list(dag))
    held = []
    build = Dag._build

    def traced_build(self, *args):
        held.append(tracemalloc.get_traced_memory()[0])
        return build(self, *args)

    monkeypatch.setattr(Dag, "_build", traced_build)
    tracemalloc.start()
    try:
        loaded = cli._load_dag(str(path), condense=False)
    finally:
        tracemalloc.stop()
    assert loaded == dag and dag.arc_count == 40_452
    assert len(held) == 1 and held[0] < path.stat().st_size


_FUZZ_ARGVS = [
    ["check"],
    ["check", "--condense"],
    ["distance", "--mode", "approx"],
    ["distance", "--mode", "lower"],
    ["distance", "--mode", "exact", "--time-limit-ms", "50"],
]


def test_mutated_edge_lists_never_raise(tmp_path, capsys):
    # Every outcome is an answer (0 or 1) or a one-line input error (2).
    text = emit_edge_list(NEAR_FUNNEL_8)
    bases = [text.encode(), text.split("\n", 1)[1].encode()]  # with and without header
    rng = SplitMix64(77)
    path = tmp_path / "fuzz.edges"
    for i in range(300):
        path.write_bytes(mutate(rng, bases[i % 2]))
        for argv in _FUZZ_ARGVS:
            code = main([*argv, str(path)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2)
            assert code != 2 or (err.startswith("error: ") and err.count("\n") == 1)



def _answers_or_one_error_line(code, err) -> bool:
    return code == 0 or code == 2 and err.startswith("error: ") and err.count("\n") == 1


# Values that make a grid key invalid or keep the grid tiny, whatever the key.
_GRID_VALUES = [None, True, "8", [], {}, -1, 0, 2, 2.5, float("inf"), float("nan"),
                [-1], [0], [2], [8], [1.0], [1.5], [99999999999], [[8]]]


def test_mutated_grid_files_never_raise(tmp_path, capsys):
    # A tiny grid (n <= 8, one replicate, 20 ms per search): even rounds
    # edit its bytes, odd rounds set one or two keys to a _GRID_VALUES
    # entry.  Every run writes its CSV or names one input error.  Byte edits
    # could make a valid but huge grid, so an accepted grid is checked to be
    # tiny before it runs.
    base = {"ns": [6, 8], "ps": [0.4], "ss": [0, 2], "replicates": 1, "seed": 3,
            "time_limit_ms": 20}
    keys = sorted(base)
    rng = SplitMix64(91)
    path = tmp_path / "fuzz.json"
    for i in range(200):
        if i % 2:
            spec = dict(base)
            for _ in range(1 + rng.below(2)):
                spec[keys[rng.below(len(keys))]] = _GRID_VALUES[rng.below(len(_GRID_VALUES))]
            path.write_text(json.dumps(spec))
        else:
            path.write_bytes(mutate(rng, json.dumps(base).encode()))
        try:
            grid = GridSpec.from_file(str(path))
        except (ValueError, KeyError, TypeError):
            pass
        else:
            size = len(grid.ns) * len(grid.ps) * len(grid.ss) * grid.replicates
            assert size <= 8 and max(grid.ns) <= 99 and grid.time_limit_ms <= 50
        code = main(["bench", "--grid", str(path)])
        assert _answers_or_one_error_line(code, capsys.readouterr().err)


def test_mutated_cnf_files_never_raise(tmp_path, capsys):
    cnf = b"c tiny\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
    rng = SplitMix64(92)
    path = tmp_path / "fuzz.cnf"
    for _ in range(300):
        path.write_bytes(mutate(rng, cnf))
        code = main(["generate", "--cnf", str(path), "--out", str(tmp_path / "inst")])
        assert _answers_or_one_error_line(code, capsys.readouterr().err)


# ---- distance ----


def test_distance_json(d0_file, capsys):
    assert main(["distance", d0_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == "funnelkit-report/1"
    assert data["exact_size"] == 1
    assert data["approx_size"] == 1
    assert data["lower_bound"] == 1
    assert data["approx_ratio"] == 1.0
    assert data["timed_out"] is False
    assert "timings_ms" not in data


def test_zero_time_limit_with_nothing_left_to_search(tmp_path, capsys):
    # One arc is a funnel: the root settles it, so no search was cut short.
    path = tmp_path / "one.edges"
    path.write_text("0 1\n")
    assert main(["distance", str(path), "--mode", "exact", "--time-limit-ms", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["exact_size"] == 0
    assert data["timed_out"] is False


def test_exact_mode_certifies_the_root_under_a_zero_time_limit(tmp_path, capsys):
    # The root bound 8 meets the approximation's 8: the answer is proven
    # before any search, so the zero limit cuts nothing short.
    prefix = str(tmp_path / "g")
    argv = ["generate", "--n", "40", "--p", "0.4", "--s", "10", "--seed", "2", "--out", prefix]
    assert main(argv) == 0
    capsys.readouterr()
    argv = ["distance", "--mode", "exact", "--time-limit-ms", "0", prefix + ".edges"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["exact_size"] == 8 and data["timed_out"] is False
    assert "lower_bound" not in data and "approx_size" not in data
    with open(prefix + ".edges", encoding="utf-8") as handle:
        result = solve_addf(parse_edge_list(handle.read()), time_limit_ms=0)
    assert result.distance == 8 and not result.stats.timed_out


def test_distance_mode_approx_only(d0_file, capsys):
    assert main(["distance", d0_file, "--mode", "approx"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["approx_size"] == 1
    assert "exact_size" not in data
    assert "lower_bound" not in data


def test_distance_times_flag(d0_file, capsys):
    assert main(["distance", d0_file, "--times"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data["timings_ms"]) == {"lower", "approx", "exact"}


def test_distance_output_is_reproducible(d0_file, capsys):
    assert main(["distance", d0_file]) == 0
    first = capsys.readouterr().out
    assert main(["distance", d0_file]) == 0
    assert capsys.readouterr().out == first


# ---- generate ----


def test_generate_planted_writes_three_files(tmp_path, capsys):
    prefix = str(tmp_path / "inst")
    assert main(["generate", "--n", "12", "--p", "0.5", "--seed", "6", "--out", prefix]) == 0
    meta = json.loads((tmp_path / "inst.json").read_text())
    assert meta["schema"] == "funnelkit-gen/2"
    assert meta["kind"] == "planted"
    assert meta["seed"] == 6
    assert meta["tool"].startswith("funnelkit ")
    edges = (tmp_path / "inst.edges").read_text()
    assert edges.startswith("p 12 ")
    labels = (tmp_path / "inst.labels").read_text()
    assert labels.count("\n") == 12
    # a noise-free instance must pass check
    assert main(["check", str(tmp_path / "inst.edges")]) == 0


def test_generate_with_noise_omits_labels(tmp_path):
    prefix = str(tmp_path / "noisy")
    assert main(["generate", "--n", "12", "--s", "3", "--seed", "6", "--out", prefix]) == 0
    assert not (tmp_path / "noisy.labels").exists()


def test_generate_reruns_are_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for prefix in (a, b):
        assert (
            main(["generate", "--n", "20", "--p", "0.3", "--s", "2", "--seed", "9", "--out", prefix])
            == 0
        )
    assert (tmp_path / "a.edges").read_bytes() == (tmp_path / "b.edges").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_generate_writes_the_instance_of_the_bench_row(tmp_path, monkeypatch):
    # Row n200-p0.5-s25-r0 of the default grid, as the bench analyzes it.
    name, params = next(
        (name, params)
        for name, params in GridSpec().instances()
        if name == "n200-p0.5-s25-r0"
    )
    analyzed = []
    monkeypatch.setattr(
        funnelkit.bench, "analyze", lambda dag, *args, **kwargs: analyzed.append(dag)
    )
    funnelkit.bench._bench_task((name, params, 0.0))
    prefix = str(tmp_path / "row")
    argv = ["--n", "200", "--p", "0.5", "--s", "25", "--seed", str(params.seed)]
    assert main(["generate", *argv, "--out", prefix]) == 0
    assert parse_edge_list((tmp_path / "row.edges").read_text()) == analyzed[0]


def test_generate_cnf(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 -2 3 0\n")
    prefix = str(tmp_path / "gadget")
    assert main(["generate", "--cnf", str(cnf), "--out", prefix]) == 0
    meta = json.loads((tmp_path / "gadget.json").read_text())
    assert meta["kind"] == "cnf3"
    assert meta["target"] == 5
    capsys.readouterr()
    assert main(["distance", prefix + ".edges", "--mode", "exact"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["exact_size"] == 5


def test_generate_cnf_reads_satlib_files(tmp_path, capsys):
    # A SATLIB random 3-SAT file ends with "%" and "0"; it makes the same
    # gadget as the formula without that trailer.
    clauses = " 1 -2 3 0\n-1 2 -3 0\n2 3 -1 0\n"
    (tmp_path / "uf3.cnf").write_text("c uf3\np cnf 3  3\n" + clauses + "%\n0\n\n")
    (tmp_path / "plain.cnf").write_text("p cnf 3 3\n" + clauses)
    for name in ("uf3", "plain"):
        argv = ["generate", "--cnf", str(tmp_path / f"{name}.cnf"), "--out", str(tmp_path / name)]
        assert main(argv) == 0
    assert capsys.readouterr().err == ""
    for suffix in (".edges", ".json"):
        assert (tmp_path / f"uf3{suffix}").read_text() == (tmp_path / f"plain{suffix}").read_text()


def test_generate_bad_cnf(tmp_path, capsys):
    cnf = tmp_path / "bad.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    assert main(["generate", "--cnf", str(cnf), "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


def test_generate_cnf_non_integer_literal(tmp_path, capsys):
    cnf = tmp_path / "bad.cnf"
    cnf.write_text("p cnf 3 1\n1 x 3 0\n")
    assert main(["generate", "--cnf", str(cnf), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-integer" in err


def _assert_input_error(argv, capsys, tmp_path, needle):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err
    assert [p.name for p in tmp_path.iterdir() if p.suffix != ".cnf"] == []


def test_generate_rejects_too_many_vertices(tmp_path, capsys):
    # Rejected before the generator allocates; never run at this size.
    argv = ["generate", "--n", "10000001", "--out", str(tmp_path / "x")]
    _assert_input_error(argv, capsys, tmp_path, "vertex count")


@pytest.mark.parametrize(
    "flags",
    [
        ["--n", "100000", "--p", "1"],  # 1,244,293,113 cross arcs
        ["--n", "20000", "--p", "0", "--s", "100000000"],
    ],
)
def test_generate_bounds_the_arcs_it_draws(tmp_path, capsys, flags):
    # Rejected before the pool of candidate pairs is built.
    argv = ["generate", *flags, "--out", str(tmp_path / "x")]
    _assert_input_error(argv, capsys, tmp_path, "cap of 10000000")


def test_generate_rejects_a_too_large_cnf_gadget(tmp_path, capsys):
    cnf = tmp_path / "big.cnf"
    cnf.write_text("p cnf 1666667 0\n")  # 10,000,002 gadget vertices
    argv = ["generate", "--cnf", str(cnf), "--out", str(tmp_path / "x")]
    _assert_input_error(argv, capsys, tmp_path, "exceed")


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_generate_rejects_seeds_outside_64_bits(tmp_path, capsys, seed):
    # SplitMix64 would mask them onto the seeds 2**64 - 1 and 0.
    argv = ["generate", "--n", "5", "--seed", seed, "--out", str(tmp_path / "x")]
    _assert_input_error(argv, capsys, tmp_path, "seed must lie in 0..2**64-1")


def test_generate_needs_some_source(capsys):
    assert main(["generate", "--out", "/tmp/never"]) == 2
    assert "--n or --cnf" in capsys.readouterr().err


# ---- bench ----


def test_bench_small_grid(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(
        '{"ns": [8, 10], "ps": [0.4], "ss": [0, 1], "replicates": 2, "seed": 3}'
    )
    out = tmp_path / "report.csv"
    assert main(["bench", "--grid", str(grid), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "instances=8" in stdout
    lines = out.read_text().splitlines()
    assert lines[0].startswith("instance,")
    assert len([l for l in lines if l and not l.startswith("#")]) == 9

    # rerun: identical bytes
    out2 = tmp_path / "report2.csv"
    assert main(["bench", "--grid", str(grid), "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_bench_seed_override_changes_rows(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text('{"ns": [8], "ps": [0.4], "ss": [1], "replicates": 2, "seed": 3}')
    assert main(["bench", "--grid", str(grid)]) == 0
    base = capsys.readouterr().out
    assert main(["bench", "--grid", str(grid), "--seed", "4"]) == 0
    assert capsys.readouterr().out != base


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_bench_rejects_seeds_outside_64_bits(tmp_path, capsys, seed):
    # derive_seed would mask them onto the seeds 2**64 - 1 and 0.
    grid = tmp_path / "grid.json"
    spec = {"ns": [8], "ps": [0.4], "ss": [1], "replicates": 1}
    grid.write_text(json.dumps(spec))
    assert "seed" in _bench_error(["--grid", str(grid), "--seed", str(seed)], capsys)
    grid.write_text(json.dumps({**spec, "seed": seed}))
    assert "seed" in _bench_error(["--grid", str(grid)], capsys)


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
def test_bench_accepts_the_extreme_seeds(tmp_path, capsys, seed):
    grid = tmp_path / "grid.json"
    spec = {"ns": [8], "ps": [0.4], "ss": [1], "replicates": 1}
    grid.write_text(json.dumps(spec))
    assert main(["bench", "--grid", str(grid), "--seed", str(seed)]) == 0
    from_flag = capsys.readouterr().out
    grid.write_text(json.dumps({**spec, "seed": seed}))
    assert main(["bench", "--grid", str(grid)]) == 0
    assert capsys.readouterr().out == from_flag


def test_bench_rejects_a_grid_over_the_row_cap(tmp_path, capsys):
    # Checked before any row is listed: listing 10^8 rows would need gigabytes.
    grid = tmp_path / "grid.json"
    spec = {"ns": [6], "ps": [0.4], "ss": [0], "replicates": 100_000_000,
            "time_limit_ms": 20}
    grid.write_text(json.dumps(spec))
    assert "rows" in _bench_error(["--grid", str(grid)], capsys)
    # The large preset stays far below the cap; a grid at the cap is allowed.
    large = GridSpec.large_scale()
    assert len(large.ns) * len(large.ps) * len(large.ss) * large.replicates == 1080
    GridSpec(ns=(6,), ps=(0.4,), ss=(0,), replicates=MAX_GRID_ROWS)
    with pytest.raises(ValueError, match="rows"):
        GridSpec(ns=(6,), ps=(0.4,), ss=(0, 1), replicates=MAX_GRID_ROWS // 2 + 1)


def test_bench_unknown_grid_key(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text('{"sizes": [8]}')
    assert main(["bench", "--grid", str(grid)]) == 2
    assert "unknown grid keys" in capsys.readouterr().err


def _bench_error(argv, capsys) -> str:
    assert main(["bench", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_bench_density_out_of_range(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text('{"ns": [8], "ps": [1.5], "ss": [1], "replicates": 1}')
    assert "density" in _bench_error(["--grid", str(grid)], capsys)


def test_bench_noise_beyond_free_slots(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text('{"ns": [4], "ps": [0.5], "ss": [50], "replicates": 1}')
    assert "slots" in _bench_error(["--grid", str(grid)], capsys)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"ns": ["a"]}', "ns"),
        ('{"ns": [20.5]}', "ns"),
        ('{"ps": ["x"]}', "ps"),
        ('{"ss": [true]}', "ss"),
    ],
)
def test_bench_non_numeric_grid_value(tmp_path, capsys, text, key):
    grid = tmp_path / "grid.json"
    grid.write_text(text)
    assert f"'{key}'" in _bench_error(["--grid", str(grid)], capsys)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"seed": 1.5}', "seed"),
        ('{"seed": true}', "seed"),
        ('{"seed": "1"}', "seed"),
        ('{"replicates": -1}', "replicates"),
        ('{"replicates": 0}', "replicates"),
        ('{"replicates": "2"}', "replicates"),
        ('{"replicates": 2.0}', "replicates"),
        ('{"ns": []}', "ns"),
        ('{"ns": 5}', "ns"),
        ('{"ps": []}', "ps"),
        ('{"ss": {"a": 1}}', "ss"),
    ],
)
def test_bench_grid_shape_is_validated(tmp_path, capsys, text, key):
    grid = tmp_path / "grid.json"
    grid.write_text(text)
    assert f"'{key}'" in _bench_error(["--grid", str(grid)], capsys)


def test_bench_rejects_too_many_vertices(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text('{"ns": [10000001], "replicates": 1}')
    out = tmp_path / "report.csv"
    assert "vertex count" in _bench_error(["--grid", str(grid), "--out", str(out)], capsys)
    assert not out.exists()


def test_bench_bounds_the_arcs_a_row_draws(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text('{"ns": [100000], "ps": [1], "ss": [0], "replicates": 1}')
    out = tmp_path / "report.csv"
    err = _bench_error(["--grid", str(grid), "--out", str(out)], capsys)
    assert "cap of 10000000" in err
    assert not out.exists()


def test_bench_time_limit_overrides_the_grid_file(tmp_path, capsys):
    # Row r1's bound (3) is below its approximation (4), so it needs a
    # search below the root, which a zero limit cuts off.
    grid = tmp_path / "grid.json"
    grid.write_text('{"ns": [20], "ps": [0.4], "ss": [6], "replicates": 3, "seed": 6}')
    assert main(["bench", "--grid", str(grid)]) == 0
    assert "instances=3 solved=3" in capsys.readouterr().out
    assert main(["bench", "--grid", str(grid), "--time-limit-ms", "0"]) == 0
    assert "instances=3 solved=2" in capsys.readouterr().out


def test_bench_integer_density_keeps_its_row_names(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text('{"ns": [8], "ps": [1], "ss": [1], "replicates": 1}')
    assert main(["bench", "--grid", str(grid)]) == 0
    assert "\nn8-p1-s1-r0," in capsys.readouterr().out


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bench_bad_worker_count(tmp_path, capsys, monkeypatch, value):
    grid = tmp_path / "grid.json"
    grid.write_text('{"ns": [8], "ps": [0.4], "ss": [1], "replicates": 1}')
    monkeypatch.setenv("FUNNELKIT_WORKERS", value)
    assert "FUNNELKIT_WORKERS" in _bench_error(["--grid", str(grid)], capsys)


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "-5", "abc"])
@pytest.mark.parametrize("command", ["distance", "bench"])
def test_time_limit_must_be_finite_and_non_negative(d0_file, capsys, command, value):
    # NaN never expires and a negative limit expires at once.
    argv = [command, f"--time-limit-ms={value}"]
    with pytest.raises(SystemExit) as stop:
        main(argv + [d0_file] if command == "distance" else argv)
    assert stop.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--time-limit-ms" in errors[0]


@pytest.mark.parametrize(
    "value", ["NaN", "Infinity", "-Infinity", "-5", '"nan"', "true", '"7"']
)
def test_grid_time_limit_must_be_finite_and_non_negative(tmp_path, capsys, value):
    grid = tmp_path / "grid.json"
    grid.write_text('{"ns": [8], "replicates": 1, "time_limit_ms": %s}' % value)
    assert "time limit" in _bench_error(["--grid", str(grid)], capsys)


def test_exact_distance_on_a_deep_search_meets_its_time_limit(tmp_path, capsys):
    # 1,000 copies of G8 leave a root gap of 2,000 arcs, so the search keeps
    # going deeper until the deadline stops it.
    path = tmp_path / "g8x1000.edges"
    path.write_text(emit_edge_list(disjoint_copies(G8, 1000)))
    argv = ["distance", "--mode", "exact", "--time-limit-ms", "3000", str(path)]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 8000 and report["timed_out"]
    assert report["exact_size"] <= 3000


def test_zero_time_limit_is_accepted(d0_file, capsys):
    assert main(["distance", "--mode", "exact", "--time-limit-ms", "0", d0_file]) == 0
    assert "exact_size" in json.loads(capsys.readouterr().out)


# ---- the installed entry point ----


def test_console_script_runs(tmp_path):
    path = tmp_path / "f8.edges"
    path.write_text(emit_edge_list(FUNNEL_8))
    proc = subprocess.run(
        [sys.executable, "-m", "funnelkit.cli", "check", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "funnel"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_ends_quietly(tmp_path, unbuffered):
    # The reader is gone before the first write, so every write fails, with
    # stdout buffered until exit or written line by line.
    path = tmp_path / "f8.edges"
    path.write_text(emit_edge_list(FUNNEL_8))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "funnelkit.cli", "check", str(path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 141


def test_stdin_input(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "funnelkit.cli", "check", "-"],
        input="0 1\n1 2\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_check_and_distance_read_stdin(monkeypatch, capsys):
    text = emit_edge_list(D0)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["check", "-"]) == 1
    assert "witness: 0->2 1->2 2->3 2->4" in capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["distance", "--mode", "approx", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["instance"] == "-" and report["approx_size"] == 1
