"""End-to-end acceptance gate.

Nine criteria, one test each, covering: agreement of the three recognizers,
exact-solver correctness against brute force, the factor-2 guarantee, that
the solver's labeling regenerates its own deletion set, the 3-SAT gadget,
the bounds chain, sharpness of the arc-count bound, a desk-scale benchmark
grid, and byte-level determinism.  Each test contributes one PASS/FAIL line
to the terminal summary (see conftest).

The expensive corpora are built once and shared by the later criteria.
"""

import hashlib
import itertools
import json
import time

import conftest

from funnelkit import (
    CnfFormula,
    Dag,
    GenParams,
    GridSpec,
    SplitMix64,
    add_noise_arcs,
    approximate_addf,
    arc_deletion_set,
    brute_force_addf,
    delete_arcs,
    extremal_funnel,
    find_forbidden_witness,
    generate_planted_funnel,
    is_funnel_by_path_enumeration,
    is_funnel_degree,
    is_funnel_private_arc,
    lower_bound,
    max_arc_bound,
    reduce_3sat,
    run_grid,
    sat_oracle,
    solve_addf,
    write_csv,
)

_cache: dict[str, object] = {}

DESK_CSV_SHA256 = "c643eaff4cf16645f64e0c8b68281f0308307dda049646cd8a3b43ca2b75abfd"
# The desk CSV of grid seed 3, whose searches prune on the node bound: a
# bound that moved an answer would change it.
DESK_CSV_SHA256_SEED_3 = "e355d5475973f6f5f5530c2522e2fc99d75853297cc5b5cfe5e912ea34d99f7b"
# Desk rows of grid seed 1 whose lower bound meets the approximation, so
# that bench reports them optimal without a search.
DESK_CERTIFIED = 201


def all_dags_up_to(max_n: int) -> list[Dag]:
    """One representative per isomorphism class of DAGs with <= max_n vertices.

    Every DAG is isomorphic to one whose arcs all run forward in the vertex
    order, so enumerating subsets of the forward pairs covers every class;
    the minimum relabeling of the sorted arc tuple serves as canonical form.
    """
    reps = []
    for n in range(max_n + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        perms = list(itertools.permutations(range(n)))
        seen = set()
        for bits in range(1 << len(pairs)):
            arcs = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            canon = min(
                tuple(sorted((p[u], p[v]) for u, v in arcs)) for p in perms
            )
            if canon not in seen:
                seen.add(canon)
                reps.append(Dag(n, canon))
    return reps


def random_corpus_40() -> list[Dag]:
    if "rand40" not in _cache:
        rng = SplitMix64(101)
        dags = []
        for _ in range(1000):
            n = 1 + rng.below(40)
            pct = 5 + rng.below(70)
            arcs = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.below(100) < pct
            ]
            dags.append(Dag(n, arcs))
        _cache["rand40"] = dags
    return _cache["rand40"]


def small_corpus():
    """(dag, exact result) pairs: named graphs, unions, 500+ random DAGs."""
    if "small" not in _cache:
        d0 = Dag(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
        d1 = Dag(6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)])
        diamond = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])

        def union(*parts):
            arcs, shift = [], 0
            for part in parts:
                arcs += [(u + shift, v + shift) for u, v in part.arcs]
                shift += part.vertex_count
            return Dag(shift, arcs)

        dags = [
            d0,
            d1,
            diamond,
            union(d0, d0),
            union(d0, d1),
            union(d0, diamond),
            union(d1, diamond),
            union(d0, d1, diamond),
        ]
        rng = SplitMix64(20)
        sparse, dense = 0, 0
        while sparse < 260:
            n = 2 + rng.below(7)
            pct = 10 + rng.below(55)
            arcs = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.below(100) < pct
            ]
            if len(arcs) <= 14:
                dags.append(Dag(n, arcs))
                sparse += 1
        while dense < 260:
            n = 5 + rng.below(3)
            pct = 60 + rng.below(36)
            arcs = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.below(100) < pct
            ]
            if len(arcs) <= 14:
                dags.append(Dag(n, arcs))
                dense += 1
        _cache["small"] = [(dag, solve_addf(dag)) for dag in dags]
    return _cache["small"]


def planted_corpus():
    """(dag, lower, approx, exact) for 200 planted funnels plus noise."""
    if "planted" not in _cache:
        rows = []
        for i in range(200):
            n = 10 + (i * 7) % 51
            p = ((i * 13) % 10 + 1) / 10
            s = i % 11
            params = GenParams(n=n, p=p, s=0, seed=3000 + i)
            funnel, _ = generate_planted_funnel(params)
            dag = add_noise_arcs(funnel, s, seed=4000 + i)
            rows.append(
                (dag, lower_bound(dag), approximate_addf(dag), solve_addf(dag))
            )
        _cache["planted"] = rows
    return _cache["planted"]


def assert_feasible(dag, deletion_set):
    assert is_funnel_degree(delete_arcs(dag, deletion_set))


def test_criterion_1_recognizers_agree():
    start = time.perf_counter()
    exhaustive = all_dags_up_to(5)
    assert len(exhaustive) == 343  # 1 + 1 + 2 + 6 + 31 + 302 classes
    for dag in exhaustive:
        verdicts = {
            is_funnel_degree(dag),
            is_funnel_private_arc(dag),
            find_forbidden_witness(dag) is None,
            is_funnel_by_path_enumeration(dag),
        }
        assert len(verdicts) == 1, f"recognizers disagree on {dag!r}"
    randoms = random_corpus_40()
    assert len(randoms) >= 1000
    for dag in randoms:
        a = is_funnel_degree(dag)
        b = is_funnel_private_arc(dag)
        c = find_forbidden_witness(dag) is None
        assert a == b == c, f"recognizers disagree on {dag!r}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    conftest.note(
        1,
        f"3 recognizers agree on {len(exhaustive)} exhaustive + "
        f"{len(randoms)} random DAGs in {elapsed:.1f}s",
    )


def test_criterion_2_exact_matches_brute_force():
    start = time.perf_counter()
    corpus = small_corpus()
    assert len(corpus) >= 500 + 8
    for dag, result in corpus:
        reference = brute_force_addf(dag)
        assert result.distance == reference.distance, f"disagree on {dag!r}"
        assert_feasible(dag, result.deletion_set)
        assert result.distance == len(result.deletion_set)
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    conftest.note(
        2,
        f"search matches brute force on {len(corpus)} instances "
        f"in {elapsed:.1f}s",
    )


def test_criterion_3_factor_two_guarantee():
    checked = 0
    for dag, result in small_corpus():
        approx = approximate_addf(dag)
        assert approx.size <= 2 * result.distance, f"factor 2 broken on {dag!r}"
        assert_feasible(dag, approx.deletion_set)
        checked += 1
    for dag, _, approx, exact in planted_corpus():
        assert approx.size <= 2 * exact.distance, f"factor 2 broken on {dag!r}"
        assert_feasible(dag, approx.deletion_set)
        assert_feasible(dag, exact.deletion_set)
        checked += 1
    conftest.note(
        3, f"approximation within factor 2 and feasible on {checked} instances"
    )


def test_criterion_4_solver_labeling_regenerates_its_set():
    corpus = small_corpus()
    for dag, result in corpus:
        regenerated = arc_deletion_set(dag, result.labeling)
        assert len(regenerated) == result.distance, f"labeling loose on {dag!r}"
        assert_feasible(dag, regenerated)
    conftest.note(
        4,
        f"optimal labeling reproduces the optimal set size on "
        f"{len(corpus)} instances",
    )


def test_criterion_5_sat_gadget():
    start = time.perf_counter()
    # every 3-clause over variables {1,2,3}
    all_clauses = [
        tuple(v * s for v, s in zip((1, 2, 3), signs))
        for signs in itertools.product((1, -1), repeat=3)
    ]
    formulas = [CnfFormula(n, ()) for n in range(4)]
    formulas += [CnfFormula(3, (c,)) for c in all_clauses]
    formulas += [
        CnfFormula(3, pair)
        for pair in itertools.combinations_with_replacement(all_clauses, 2)
    ]
    for formula in formulas:
        dag, target = reduce_3sat(formula)
        result = solve_addf(dag, initial_upper_bound=target)
        satisfiable = result.distance <= target
        assert satisfiable == sat_oracle(formula), f"gadget wrong on {formula}"
        if satisfiable:
            assert result.distance == target

    # with <= 2 clauses every formula is satisfiable, so the unsatisfiable
    # direction needs a bigger formula: all eight sign patterns at once
    unsat = CnfFormula(3, tuple(all_clauses))
    assert not sat_oracle(unsat)
    dag, target = reduce_3sat(unsat)
    assert solve_addf(dag, initial_upper_bound=target).distance > target

    # worked example: (x1 or not x2 or x3) needs exactly 2m + n = 5 deletions
    example, target = reduce_3sat(CnfFormula(3, ((1, -2, 3),)))
    assert target == 5
    assert solve_addf(example).distance == 5

    elapsed = time.perf_counter() - start
    assert elapsed < 300
    conftest.note(
        5,
        f"gadget distance tracks satisfiability on {len(formulas)} + 1 "
        f"formulas in {elapsed:.1f}s",
    )


def test_criterion_6_bounds_chain():
    for dag, result in small_corpus():
        lo = lower_bound(dag)
        approx = approximate_addf(dag)
        assert lo <= result.distance <= approx.size
        assert (lo == 0) == is_funnel_degree(dag)
    for dag, lo, approx, exact in planted_corpus():
        assert lo <= exact.distance <= approx.size
        assert (lo == 0) == is_funnel_degree(dag)
    extra = sum(
        1
        for dag in random_corpus_40()
        if (lower_bound(dag) == 0) == is_funnel_degree(dag)
    )
    assert extra == len(random_corpus_40())
    conftest.note(
        6,
        f"lower <= exact <= approx on {len(small_corpus()) + 200} instances; "
        f"lower bound vanishes exactly on funnels",
    )


def test_criterion_7_arc_bound_sharpness():
    for n in (4, 6, 8, 10):
        dag = extremal_funnel(n)
        assert is_funnel_degree(dag)
        assert dag.arc_count == n * n // 4 + n - 2
    checked = 0
    for dag in random_corpus_40():
        if dag.vertex_count >= 2 and is_funnel_degree(dag):
            assert dag.arc_count <= max_arc_bound(dag.vertex_count)
            checked += 1
    for i in range(50):
        dag, _ = generate_planted_funnel(
            GenParams(n=2 + i, p=(i % 10 + 1) / 10, s=0, seed=7000 + i)
        )
        assert dag.arc_count <= max_arc_bound(dag.vertex_count)
        checked += 1
    conftest.note(
        7,
        f"extremal funnels hit the bound for even n in 4..10; "
        f"{checked} random funnels stay below it",
    )


def test_criterion_8_desk_grid_and_linear_time():
    start = time.perf_counter()
    reports = run_grid(GridSpec())
    assert len(reports) == 270
    solved = [r for r in reports if not r.timed_out]
    for report in reports:
        # the hard guarantee: never more than twice optimal
        if not report.timed_out:
            assert report.approx_size <= 2 * report.exact_size
    solved_pct = 100.0 * len(solved) / len(reports)
    assert solved_pct >= 95.0
    ratios = [r.approx_ratio for r in solved]
    mean_ratio = sum(ratios) / len(ratios)
    eq1_pct = 100.0 * sum(1 for r in ratios if r == 1.0) / len(ratios)
    grid_elapsed = time.perf_counter() - start
    # A weaker bound would send these rows back to the solver.
    certified = sum(r.lower_bound == r.approx_size for r in reports)
    assert certified == DESK_CERTIFIED
    # The desk CSV of grid seed 1, byte for byte.
    csv_sha = hashlib.sha256(write_csv(reports).encode()).hexdigest()
    assert csv_sha == DESK_CSV_SHA256
    csv_sha = hashlib.sha256(write_csv(run_grid(GridSpec(seed=3))).encode()).hexdigest()
    assert csv_sha == DESK_CSV_SHA256_SEED_3

    # linear-time sanity: a hundred-thousand-vertex instance in < 2 s
    funnel, _ = generate_planted_funnel(
        GenParams(n=100_000, p=0.00008, s=0, seed=12)
    )
    big = add_noise_arcs(funnel, 2000, seed=13)
    t0 = time.perf_counter()
    result = approximate_addf(big)
    big_elapsed = time.perf_counter() - t0
    assert big_elapsed < 2.0
    assert result.size <= 2000  # noise arcs are always a feasible deletion

    conftest.note(
        8,
        f"grid: {solved_pct:.1f}% of 270 solved in {grid_elapsed:.0f}s, "
        f"mean ratio {mean_ratio:.3f} (target <= 1.25), "
        f"ratio 1 on {eq1_pct:.0f}% (target >= 40%), "
        f"{certified} certified without a search; "
        f"n=100000 approx in {big_elapsed:.2f}s",
    )


def test_criterion_9_byte_identical_reruns(tmp_path):
    spec = GridSpec(ns=(20, 40), ps=(0.3, 0.7), ss=(0, 4), replicates=3, seed=11)
    first = write_csv(run_grid(spec), with_times=False)
    second = write_csv(run_grid(spec), with_times=False)
    assert first == second

    first_json = json.dumps(
        [r.to_json_dict() for r in run_grid(spec)], sort_keys=True
    )
    second_json = json.dumps(
        [r.to_json_dict() for r in run_grid(spec)], sort_keys=True
    )
    assert first_json == second_json

    from funnelkit.cli import main

    for prefix in ("a", "b"):
        code = main(
            [
                "generate",
                "--n", "30", "--p", "0.4", "--s", "3", "--seed", "21",
                "--out", str(tmp_path / prefix),
            ]
        )
        assert code == 0
    assert (tmp_path / "a.edges").read_bytes() == (tmp_path / "b.edges").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    conftest.note(
        9, "grid CSV, report JSON and generated files identical across reruns"
    )
