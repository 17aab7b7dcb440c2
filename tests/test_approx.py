from pathlib import Path

import pytest

from funnelkit import (
    Dag,
    Label,
    Labeling,
    PartialLabeling,
    SplitMix64,
    approximate_addf,
    arc_deletion_set,
    assign_labels_greedy,
    brute_force_addf,
    condense_scc,
    delete_arcs,
    find_forbidden_witness,
    funnel_labeling,
    greedy_relabel,
    is_funnel_degree,
    is_funnel_private_arc,
    lower_bound,
    read_arc_list,
    verify_funnel_labeling,
)
from samples import D0, DIAMOND, PATH3, TIGHT_12, random_dag, shuffled_random_dag


def test_greedy_labels_on_small_graphs():
    assert list(assign_labels_greedy(PATH3)) == [
        Label.FORK,
        Label.FORK,
        Label.MERGE,
    ]
    # D0 center: in 2 = out 2, no Fork parent processed? parents 0,1 are
    # Fork (out 1 > in 0), so the tie goes Fork.
    assert list(assign_labels_greedy(D0)) == [
        Label.FORK,
        Label.FORK,
        Label.FORK,
        Label.MERGE,
        Label.MERGE,
    ]


def test_greedy_labels_on_tightness_example():
    labels = assign_labels_greedy(TIGHT_12)
    text = "".join(lab.value for lab in labels)
    assert text == "FFFFFMMMFFMM"
    assert len(arc_deletion_set(TIGHT_12, labels)) == 4


def test_greedy_labels_isolated_vertex_is_merge():
    assert list(assign_labels_greedy(Dag(1))) == [Label.MERGE]


def test_deletion_set_hand_traces_on_smallest_obstruction():
    # forks keep the arc from their smallest Fork in-neighbor
    fork_center = Labeling(
        [Label.FORK, Label.FORK, Label.FORK, Label.MERGE, Label.MERGE]
    )
    assert arc_deletion_set(D0, fork_center) == frozenset({(1, 2)})
    # merges keep the arc to their smallest Merge out-neighbor
    merge_center = Labeling(
        [Label.FORK, Label.FORK, Label.MERGE, Label.MERGE, Label.MERGE]
    )
    assert arc_deletion_set(D0, merge_center) == frozenset({(2, 4)})


def test_deletion_set_requires_total_labeling():
    with pytest.raises(PartialLabeling):
        arc_deletion_set(PATH3, Labeling.unassigned(3))


def test_deletion_set_empty_on_funnel_with_its_labeling():
    from funnelkit import funnel_labeling

    for dag in (PATH3, DIAMOND):
        assert arc_deletion_set(dag, funnel_labeling(dag)) == frozenset()


def test_deletion_set_feasible_for_any_labeling():
    # whatever the labeling, deleting its set leaves a funnel on which the
    # labeling verifies
    rng = SplitMix64(12)
    for _ in range(120):
        n = 1 + rng.below(9)
        dag = random_dag(rng, n, 40)
        labels = Labeling(
            [Label.FORK if rng.below(2) else Label.MERGE for _ in range(n)]
        )
        gone = arc_deletion_set(dag, labels)
        rest = delete_arcs(dag, gone)
        assert is_funnel_degree(rest)
        assert verify_funnel_labeling(rest, labels)


def test_deletion_set_all_merge_labels():
    # every vertex Merge: forks keep nothing on the out side beyond one arc
    gone = arc_deletion_set(D0, Labeling([Label.MERGE] * 5))
    rest = delete_arcs(D0, gone)
    assert is_funnel_degree(rest)


def test_relabel_never_grows_the_set():
    rng = SplitMix64(99)
    for _ in range(200):
        n = 2 + rng.below(9)
        dag = random_dag(rng, n, 40)
        labels = Labeling(
            [Label.FORK if rng.below(2) else Label.MERGE for _ in range(n)]
        )
        before = len(arc_deletion_set(dag, labels))
        relabeled, after = greedy_relabel(dag, labels)
        assert len(after) == len(arc_deletion_set(dag, relabeled))
        assert len(after) <= before
        assert is_funnel_degree(delete_arcs(dag, after))


def test_relabel_fixpoint_never_beats_itself():
    rng = SplitMix64(123)
    for _ in range(60):
        dag = random_dag(rng, 2 + rng.below(8), 45)
        labels = assign_labels_greedy(dag)
        _, single = greedy_relabel(dag, labels)
        _, stable = greedy_relabel(dag, labels, fixpoint=True)
        assert len(stable) <= len(single)


def test_relabel_improves_a_bad_labeling():
    # an all-Merge labeling of a path deletes an arc; relabeling repairs it
    labels = Labeling([Label.MERGE] * 3)
    relabeled, gone = greedy_relabel(PATH3, labels)
    assert gone == frozenset()


def test_approximate_is_within_factor_two():
    rng = SplitMix64(2)
    for _ in range(80):
        dag = random_dag(rng, 2 + rng.below(7), 40)
        approx = approximate_addf(dag)
        exact = brute_force_addf(dag)
        assert exact.distance <= approx.size <= 2 * exact.distance
        rest = delete_arcs(dag, approx.deletion_set)
        assert is_funnel_degree(rest)
        assert verify_funnel_labeling(rest, approx.labeling)


def test_factor_two_is_tight():
    approx = approximate_addf(TIGHT_12)
    exact = brute_force_addf(TIGHT_12)
    assert exact.distance == 2
    assert approx.size == 4


def test_approximate_on_funnels_deletes_nothing():
    for dag in (PATH3, DIAMOND, Dag(1), Dag(0)):
        result = approximate_addf(dag)
        assert result.size == 0
        assert result.deletion_set == frozenset()


def test_approx_result_fields_agree():
    result = approximate_addf(D0)
    assert result.size == len(result.deletion_set) == 1


def test_approximate_on_planted_funnels_is_zero():
    from funnelkit import GenParams, generate_planted_funnel

    for seed in range(8):
        dag, _ = generate_planted_funnel(GenParams(n=30, p=0.5, s=0, seed=seed))
        assert approximate_addf(dag).size == 0


def test_approximate_scales_roughly_linearly():
    import time

    from funnelkit import GenParams, add_noise_arcs, generate_planted_funnel

    def run(n):
        dag, _ = generate_planted_funnel(
            GenParams(n=n, p=8 / n, s=0, seed=1)
        )
        dag = add_noise_arcs(dag, n // 50, seed=2)
        t0 = time.perf_counter()
        approximate_addf(dag)
        return time.perf_counter() - t0

    run(1000)  # warm up
    small = run(10_000)
    big = run(100_000)
    # 10x the input must not cost anything near 100x the time
    assert big < 25 * small + 0.5


def _reference_deletion_set(dag, labeling):
    """arc_deletion_set as it was written over neighbor tuples."""
    labeling.require_total()
    doomed = set()
    for v in dag.vertices():
        if labeling[v] is Label.FORK:
            keep = next(
                (u for u in dag.in_neighbors(v) if labeling[u] is Label.FORK), None
            )
            doomed.update((u, v) for u in dag.in_neighbors(v) if u != keep)
        else:
            keep = next(
                (w for w in dag.out_neighbors(v) if labeling[w] is Label.MERGE), None
            )
            doomed.update((v, w) for w in dag.out_neighbors(v) if w != keep)
    return frozenset(doomed)


def test_deletion_set_matches_the_neighbor_based_reference():
    rng = SplitMix64(305)
    funnels = 0
    for _ in range(300):
        n = 1 + rng.below(10)
        dag = random_dag(rng, n, 30)
        labels = Labeling(
            [Label.FORK if rng.below(2) else Label.MERGE for _ in range(n)]
        )
        assert arc_deletion_set(dag, labels) == _reference_deletion_set(dag, labels)
        if is_funnel_degree(dag):
            funnels += 1
            canonical = funnel_labeling(dag)
            assert arc_deletion_set(dag, canonical) == frozenset()
            assert _reference_deletion_set(dag, canonical) == frozenset()
    assert funnels > 50


def _reference_greedy_relabel(dag, labeling, fixpoint=False, visit=None):
    """greedy_relabel as it was written over a Labeling, with closures.

    ``visit(v, labels, fork_in, merge_out, delta)`` sees every step: the
    state before ``v`` is judged, and the size change its flip would make.
    """
    labeling.require_total()
    labels = labeling.copy()
    n = dag.vertex_count
    fork_in = [
        sum(1 for u in dag.in_neighbors(v) if labels[u] is Label.FORK)
        for v in range(n)
    ]
    merge_out = [
        sum(1 for w in dag.out_neighbors(v) if labels[w] is Label.MERGE)
        for v in range(n)
    ]

    def in_cost(v):
        if labels[v] is Label.MERGE:
            return 0
        return dag.in_degree(v) - 1 if fork_in[v] >= 1 else dag.in_degree(v)

    def out_cost(v):
        if labels[v] is Label.FORK:
            return 0
        return dag.out_degree(v) - 1 if merge_out[v] >= 1 else dag.out_degree(v)

    def flip_delta(v):
        old = labels[v]
        delta = -(in_cost(v) + out_cost(v))
        mf_gone = 0
        mf_new = 0
        if old is Label.FORK:
            for u in dag.in_neighbors(v):
                if labels[u] is Label.MERGE:
                    mf_gone += 1
                    if merge_out[u] == 0:
                        delta -= 1
            for w in dag.out_neighbors(v):
                if labels[w] is Label.FORK:
                    mf_new += 1
                    if fork_in[w] == 1:
                        delta += 1
        else:
            for w in dag.out_neighbors(v):
                if labels[w] is Label.FORK:
                    mf_gone += 1
                    if fork_in[w] == 0:
                        delta -= 1
            for u in dag.in_neighbors(v):
                if labels[u] is Label.MERGE:
                    mf_new += 1
                    if merge_out[u] == 1:
                        delta += 1
        labels[v] = Label.MERGE if old is Label.FORK else Label.FORK
        delta += in_cost(v) + out_cost(v)
        labels[v] = old
        return delta + mf_gone - mf_new

    def commit(v):
        old = labels[v]
        labels[v] = Label.MERGE if old is Label.FORK else Label.FORK
        if old is Label.FORK:
            for w in dag.out_neighbors(v):
                fork_in[w] -= 1
            for u in dag.in_neighbors(v):
                merge_out[u] += 1
        else:
            for w in dag.out_neighbors(v):
                fork_in[w] += 1
            for u in dag.in_neighbors(v):
                merge_out[u] -= 1

    while True:
        flipped = False
        for v in dag.topo_order:
            delta = flip_delta(v)
            if visit is not None:
                visit(v, labels, fork_in, merge_out, delta)
            if delta < 0:
                commit(v)
                flipped = True
        if not (fixpoint and flipped):
            break
    return labels, arc_deletion_set(dag, labels)


def _random_labels(rng, n):
    return Labeling([Label.FORK if rng.below(2) else Label.MERGE for _ in range(n)])


def test_relabel_matches_the_closure_based_reference():
    rng = SplitMix64(307)
    flips = 0
    for _ in range(300):
        n = 1 + rng.below(12)
        dag = shuffled_random_dag(rng, n, 35)
        labels = _random_labels(rng, n)
        for fixpoint in (False, True):
            got = greedy_relabel(dag, labels, fixpoint)
            assert got == _reference_greedy_relabel(dag, labels, fixpoint)
            flips += got[0] != labels
    assert flips > 100


def test_a_vertex_without_side_cost_would_not_shrink_the_set():
    # greedy_relabel skips a Fork with in <= [fork_in > 0] and a Merge with
    # out <= [merge_out > 0].  At every step of the reference pass, the full
    # flip delta of such a vertex is >= 0, so skipping it changes nothing.
    rng = SplitMix64(311)
    deltas = []
    flips = 0

    def visit(v, labels, fork_in, merge_out, delta):
        nonlocal flips
        if labels[v] is Label.FORK:
            skipped = dag.in_degree(v) <= (fork_in[v] > 0)
        else:
            skipped = dag.out_degree(v) <= (merge_out[v] > 0)
        if skipped:
            deltas.append(delta)
        flips += delta < 0

    for _ in range(300):
        n = 1 + rng.below(40)
        dag = shuffled_random_dag(rng, n, rng.below(30))
        labels = _random_labels(rng, n)
        for fixpoint in (False, True):
            _reference_greedy_relabel(dag, labels, fixpoint, visit)
    assert min(deltas) >= 0
    assert len(deltas) > 1000 and flips > 100


def test_on_the_stdlib_import_graph():
    # A real DAG: the import graph of the CPython 3.11.7 standard library
    # (601 modules, 2,018 arcs), written by tests/data/stdlib_imports.py.
    path = Path(__file__).parent / "data" / "stdlib-imports-3.11.edges"
    count, arcs = read_arc_list(path.read_text(encoding="utf-8"))
    assert (count, len(arcs)) == (601, 2018)
    dag, _ = condense_scc(arcs, count)
    assert (dag.vertex_count, dag.arc_count) == (470, 762)
    assert not is_funnel_degree(dag) and not is_funnel_private_arc(dag)
    assert find_forbidden_witness(dag) is not None
    approx = approximate_addf(dag)
    assert (approx.size, lower_bound(dag)) == (76, 42)
    rest = delete_arcs(dag, approx.deletion_set)
    assert is_funnel_degree(rest) and is_funnel_private_arc(rest)
    assert find_forbidden_witness(rest) is None
