from collections import deque

import pytest

from funnelkit import (
    Dag,
    Label,
    Labeling,
    NotAFunnel,
    SplitMix64,
    delete_arcs,
    extremal_funnel,
    find_forbidden_witness,
    funnel_labeling,
    is_funnel_by_path_enumeration,
    is_funnel_degree,
    is_funnel_private_arc,
    max_arc_bound,
    path_counts,
    verify_funnel_labeling,
)
from funnelkit.analysis import ForbiddenWitness, _tainted, doomed_arcs
from samples import D0, D1, DIAMOND, FUNNEL_8, NEAR_FUNNEL_8, PATH3, random_dag

FUNNELS = [
    Dag(0),
    Dag(1),
    Dag(3),  # no arcs at all
    PATH3,
    DIAMOND,
    FUNNEL_8,
    Dag(4, [(0, 2), (1, 2), (2, 3)]),  # merge then chain
    Dag(4, [(0, 1), (0, 2), (0, 3)]),  # pure out-star
    Dag(4, [(1, 0), (2, 0), (3, 0)]),  # pure in-star
    Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]),  # diamond + chord
]

NON_FUNNELS = [
    D0,
    D1,
    NEAR_FUNNEL_8,
    Dag(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)]),  # diamond, then fork
    Dag(5, [(0, 2), (1, 2), (2, 3), (2, 4), (0, 1)]),
]


@pytest.mark.parametrize("dag", FUNNELS)
def test_recognizers_accept(dag):
    assert is_funnel_degree(dag)
    assert is_funnel_private_arc(dag)
    assert is_funnel_by_path_enumeration(dag)
    assert find_forbidden_witness(dag) is None


@pytest.mark.parametrize("dag", NON_FUNNELS)
def test_recognizers_reject(dag):
    assert not is_funnel_degree(dag)
    assert not is_funnel_private_arc(dag)
    assert not is_funnel_by_path_enumeration(dag)


def test_recognizers_agree_on_random_dags():
    rng = SplitMix64(2024)
    for _ in range(300):
        n = 1 + rng.below(9)
        dag = random_dag(rng, n, 35)
        expect = is_funnel_by_path_enumeration(dag)
        assert is_funnel_degree(dag) == expect
        assert is_funnel_private_arc(dag) == expect


def test_path_counts_saturate():
    counts = path_counts(D0)
    assert counts.source_paths == (1, 1, 2, 2, 2)
    assert counts.sink_paths == (2, 2, 2, 1, 1)
    assert path_counts(PATH3) == type(counts)((1, 1, 1), (1, 1, 1))


def test_path_enumeration_cap():
    with pytest.raises(ValueError):
        is_funnel_by_path_enumeration(Dag(13))


def test_witness_on_smallest_obstruction():
    w = find_forbidden_witness(D0)
    assert w is not None
    assert (w.u1, w.u2) == (0, 1)
    assert w.path == (2,)
    assert (w.w1, w.w2) == (3, 4)
    assert w.arcs() == frozenset(D0.arcs)


def test_witness_with_longer_path():
    w = find_forbidden_witness(D1)
    assert w is not None
    assert w.path == (2, 3)
    assert w.arcs() == frozenset(D1.arcs)


def test_witness_single_center_vertex():
    # indegree 2 and outdegree 2 on the same vertex
    dag = Dag(5, [(0, 4), (1, 4), (4, 2), (4, 3)])
    w = find_forbidden_witness(dag)
    assert w.path == (4,)


def test_witness_walks_back_along_a_long_path():
    # ids out of topological order; the path has four vertices
    dag = Dag(8, [(5, 0), (6, 0), (0, 3), (3, 7), (7, 1), (1, 2), (1, 4)])
    assert find_forbidden_witness(dag) == ForbiddenWitness(5, 6, (0, 3, 7, 1), 2, 4)


def _reference_witness(dag):
    """find_forbidden_witness as it was written with a breadth-first search."""
    tainted = _tainted(dag)
    vk = None
    for v in dag.topo_order:
        if tainted[v] and dag.out_degree(v) > 1:
            vk = v
            break
    if vk is None:
        return None
    if dag.in_degree(vk) >= 2:
        path = (vk,)
    else:
        parent = {}
        queue = deque([vk])
        v0 = None
        while queue and v0 is None:
            x = queue.popleft()
            for u in dag.in_neighbors(x):
                if u in parent:
                    continue
                parent[u] = x
                if dag.in_degree(u) >= 2:
                    v0 = u
                    break
                queue.append(u)
        assert v0 is not None, "tainted fork must have a merge ancestor"
        hops = [v0]
        while hops[-1] != vk:
            hops.append(parent[hops[-1]])
        path = tuple(hops)
    u1, u2 = dag.in_neighbors(path[0])[:2]
    w1, w2 = dag.out_neighbors(path[-1])[:2]
    return ForbiddenWitness(u1, u2, path, w1, w2)


def _sparse_shuffled_dag(rng, n):
    """Mostly chains: each vertex after the first gets one or two in-arcs from
    its two predecessors, then the ids are shuffled out of topological order."""
    arcs = set()
    for v in range(1, n):
        for _ in range(1 + (rng.below(5) == 0)):
            arcs.add((v - 1 - rng.below(min(v, 2)), v))
    ids = list(range(n))
    for i in range(n - 1, 0, -1):  # Fisher-Yates
        j = rng.below(i + 1)
        ids[i], ids[j] = ids[j], ids[i]
    return Dag(n, [(ids[u], ids[v]) for u, v in sorted(arcs)])


def test_witness_walk_matches_the_breadth_first_reference():
    rng = SplitMix64(305)
    long_paths = 0
    for _ in range(600):
        dag = _sparse_shuffled_dag(rng, 4 + rng.below(27))
        w = find_forbidden_witness(dag)
        assert w == _reference_witness(dag)
        long_paths += w is not None and len(w.path) >= 3
    assert long_paths >= 20


def test_witness_arcs_always_present_and_break_the_graph():
    rng = SplitMix64(5)
    found = 0
    while found < 60:
        dag = random_dag(rng, 2 + rng.below(10), 40)
        w = find_forbidden_witness(dag)
        if w is None:
            assert is_funnel_degree(dag)
            continue
        found += 1
        assert not is_funnel_degree(dag)
        arcs = w.arcs()
        assert arcs <= dag.arc_set
        assert len({w.u1, w.u2}) == 2
        assert len({w.w1, w.w2}) == 2
        # the witness is itself an obstruction
        sub = Dag(dag.vertex_count, arcs)
        assert not is_funnel_degree(sub)


def test_funnel_labeling_canonical_examples():
    assert list(funnel_labeling(PATH3)) == [Label.FORK] * 3
    assert list(funnel_labeling(DIAMOND)) == [
        Label.FORK,
        Label.FORK,
        Label.FORK,
        Label.MERGE,
    ]
    # deleting one in-arc of the center of the smallest obstruction leaves a
    # funnel whose vertices all sit before any double-indegree vertex
    repaired = delete_arcs(D0, [(1, 2)])
    assert list(funnel_labeling(repaired)) == [Label.FORK] * 5


def test_funnel_labeling_marks_descendants_of_merges():
    dag = Dag(4, [(0, 2), (1, 2), (2, 3)])
    assert list(funnel_labeling(dag)) == [
        Label.FORK,
        Label.FORK,
        Label.MERGE,
        Label.MERGE,
    ]


def test_funnel_labeling_rejects_non_funnels():
    with pytest.raises(NotAFunnel):
        funnel_labeling(D0)


def test_funnel_labeling_always_verifies():
    rng = SplitMix64(77)
    seen = 0
    while seen < 80:
        dag = random_dag(rng, 1 + rng.below(12), 25)
        if not is_funnel_degree(dag):
            continue
        seen += 1
        assert verify_funnel_labeling(dag, funnel_labeling(dag))


def test_verify_funnel_labeling_conditions():
    lab = Labeling([Label.FORK, Label.FORK, Label.MERGE, Label.MERGE])
    assert verify_funnel_labeling(Dag(4, [(0, 2), (1, 2), (2, 3)]), lab)
    # fork with two in-arcs
    bad = Labeling([Label.FORK, Label.FORK, Label.FORK, Label.MERGE])
    assert not verify_funnel_labeling(Dag(4, [(0, 2), (1, 2), (2, 3)]), bad)
    # merge with two out-arcs
    assert not verify_funnel_labeling(
        Dag(3, [(0, 1), (0, 2)]), Labeling([Label.MERGE] * 3)
    )
    # merge-to-fork arc
    assert not verify_funnel_labeling(
        PATH3, Labeling([Label.MERGE, Label.FORK, Label.FORK])
    )


def test_no_total_labeling_verifies_on_a_non_funnel():
    import itertools

    for combo in itertools.product((Label.FORK, Label.MERGE), repeat=5):
        assert not verify_funnel_labeling(D0, Labeling(combo))


def test_funnels_are_hereditary_under_arc_deletion():
    import itertools

    rng = SplitMix64(61)
    seen = 0
    while seen < 25:
        dag = random_dag(rng, 2 + rng.below(7), 35)
        if not is_funnel_degree(dag) or dag.arc_count == 0:
            continue
        seen += 1
        arcs = dag.arcs
        for size in range(1, min(3, len(arcs)) + 1):
            for gone in itertools.combinations(arcs, size):
                assert is_funnel_degree(delete_arcs(dag, gone))


def test_verify_requires_total():
    from funnelkit import PartialLabeling

    with pytest.raises(PartialLabeling):
        verify_funnel_labeling(PATH3, Labeling.unassigned(3))


def test_max_arc_bound_values():
    assert max_arc_bound(2) == 1
    assert max_arc_bound(3) == 3
    assert max_arc_bound(4) == 6
    assert max_arc_bound(10) == 33
    with pytest.raises(ValueError):
        max_arc_bound(1)


@pytest.mark.parametrize("n", range(2, 12))
def test_extremal_funnel_attains_bound(n):
    dag = extremal_funnel(n)
    assert dag.vertex_count == n
    assert is_funnel_degree(dag)
    assert dag.arc_count == max_arc_bound(n)


def test_random_funnels_respect_bound():
    rng = SplitMix64(31)
    checked = 0
    while checked < 120:
        dag = random_dag(rng, 2 + rng.below(10), 30)
        if not is_funnel_degree(dag):
            continue
        checked += 1
        assert dag.arc_count <= max_arc_bound(dag.vertex_count)


# ---- the labeling kernel against the neighbor-based code it replaced ----


def _reference_verify(dag, labeling):
    """verify_funnel_labeling as it was written over neighbor tuples."""
    labeling.require_total()
    for v in dag.vertices():
        if labeling[v] is Label.FORK and dag.in_degree(v) > 1:
            return False
        if labeling[v] is Label.MERGE and dag.out_degree(v) > 1:
            return False
    return not any(
        labeling[u] is Label.MERGE and labeling[v] is Label.FORK
        for u, v in dag.arcs
    )


def _reference_satisfy(dag, v, labels, alive):
    """The solver's satisfy-label rule as it was written before the kernel."""
    lab = labels[v]
    ins = [a for a, arc in enumerate(dag.arcs) if arc[1] == v and alive[a]]
    outs = [a for a, arc in enumerate(dag.arcs) if arc[0] == v and alive[a]]
    if lab is Label.FORK:
        keep = next((a for a in ins if labels[dag.arcs[a][0]] is Label.FORK), None)
        if keep is not None:
            return [a for a in ins if a != keep]
        return [a for a in ins if labels[dag.arcs[a][0]] is Label.MERGE]
    if lab is Label.MERGE:
        keep = next((a for a in outs if labels[dag.arcs[a][1]] is Label.MERGE), None)
        if keep is not None:
            return [a for a in outs if a != keep]
        return [a for a in outs if labels[dag.arcs[a][1]] is Label.FORK]
    return []


def _random_labels(rng, n, choices):
    return [choices[rng.below(len(choices))] for _ in range(n)]


def test_verify_matches_the_neighbor_based_reference():
    rng = SplitMix64(303)
    funnels = accepted = 0
    for _ in range(300):
        dag = random_dag(rng, 1 + rng.below(10), 30)
        labels = _random_labels(rng, dag.vertex_count, (Label.FORK, Label.MERGE))
        labeling = Labeling(labels)
        assert verify_funnel_labeling(dag, labeling) == _reference_verify(dag, labeling)
        if is_funnel_degree(dag):
            funnels += 1
            canonical = funnel_labeling(dag)
            assert verify_funnel_labeling(dag, canonical)
            assert _reference_verify(dag, canonical)
        accepted += verify_funnel_labeling(dag, labeling)
    assert funnels > 50 and accepted > 20


def test_doomed_arcs_match_the_solver_rule_on_partial_labels_and_masks():
    rng = SplitMix64(304)
    labels_to_pick = (Label.FORK, Label.MERGE, None)
    for _ in range(300):
        dag = random_dag(rng, 1 + rng.below(10), 40)
        labels = _random_labels(rng, dag.vertex_count, labels_to_pick)
        alive = bytearray(rng.below(4) != 0 for _ in range(dag.arc_count))
        for v in dag.vertices():
            assert doomed_arcs(dag, v, labels, alive) == _reference_satisfy(
                dag, v, labels, alive
            )
