import hashlib
import inspect
from collections import deque

import pytest

from funnelkit import (
    Dag,
    GenParams,
    GridSpec,
    Solver,
    SplitMix64,
    TooLarge,
    add_noise_arcs,
    brute_force_addf,
    delete_arcs,
    derive_seed,
    extremal_funnel,
    generate_planted_funnel,
    is_funnel_degree,
    labeling_enumeration_addf,
    lower_bound,
    solve_addf,
    verify_funnel_labeling,
)
from funnelkit.exact import _pack
from samples import (
    D0,
    D1,
    DIAMOND,
    G8,
    PATH3,
    SET_LABEL_9,
    TIGHT_12,
    disjoint_copies,
    obstruction,
    random_dag,
)


def check_result(dag, result):
    rest = delete_arcs(dag, result.deletion_set)
    assert is_funnel_degree(rest)
    assert verify_funnel_labeling(rest, result.labeling)
    assert result.distance == len(result.deletion_set)


# ---- lower bound ----


def test_lower_bound_zero_iff_funnel():
    assert lower_bound(PATH3) == 0
    assert lower_bound(DIAMOND) == 0
    assert lower_bound(Dag(0)) == 0
    assert lower_bound(D0) == 1
    assert lower_bound(D1) == 1


def test_lower_bound_counts_disjoint_obstructions():
    # two vertex-disjoint copies of the smallest obstruction
    arcs = list(D0.arcs) + [(u + 5, v + 5) for u, v in D0.arcs]
    dag = Dag(10, arcs)
    assert lower_bound(dag) == 2
    assert solve_addf(dag).distance == 2


def test_lower_bound_uses_up_the_connecting_path():
    # 0,1 -> 2 -> 3 -> 4..7 and 0 -> 3: the first obstruction's path arc
    # (2, 3) must not count again as a second in-arc of 3.
    dag = Dag(8, [(0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6), (3, 7)])
    assert lower_bound(dag) == 1 == brute_force_addf(dag).distance


def test_lower_bound_never_exceeds_distance():
    rng = SplitMix64(404)
    for _ in range(150):
        dag = random_dag(rng, 2 + rng.below(7), 45)
        lo = lower_bound(dag)
        hi = brute_force_addf(dag).distance
        assert 0 <= lo <= hi
        assert (lo == 0) == is_funnel_degree(dag)


# ---- the packing kernel against the tuple-set greedy it replaced ----


def _pack_obstructions(n, topo, in_neighbors, out_neighbors, alive) -> int:
    """Reference: the original greedy packing over a set of arc tuples."""
    free = alive.copy()
    count = 0
    for v in topo:
        while True:
            ins = [u for u in in_neighbors(v) if (u, v) in free]
            if len(ins) < 2:
                break
            hit = _forward_fork(v, out_neighbors, free)
            if hit is None:
                break
            path_arcs, fork, outs = hit
            free.difference_update(path_arcs)
            free.discard((ins[0], v))
            free.discard((ins[1], v))
            free.discard((fork, outs[0]))
            free.discard((fork, outs[1]))
            count += 1
    return count


def _forward_fork(start, out_neighbors, free):
    """BFS over free arcs to the nearest vertex with two free out-arcs."""

    def free_outs(x):
        return [w for w in out_neighbors(x) if (x, w) in free]

    outs = free_outs(start)
    if len(outs) >= 2:
        return [], start, outs
    parent: dict[int, int] = {}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for w in out_neighbors(x):
            if (x, w) not in free or w in parent:
                continue
            parent[w] = x
            outs = free_outs(w)
            if len(outs) >= 2:
                hops = [w]
                while hops[-1] != start:
                    hops.append(parent[hops[-1]])
                hops.reverse()
                return list(zip(hops, hops[1:])), w, outs
            queue.append(w)
    return None


def reference_bound(dag, alive=None) -> int:
    """Reference packing over ``alive`` (default: every arc) in dag's topo order."""
    return _pack_obstructions(
        dag.vertex_count,
        dag.topo_order,
        dag.in_neighbors,
        dag.out_neighbors,
        set(dag.arcs) if alive is None else alive,
    )


def test_lower_bound_equals_reference_packing_on_random_dags():
    rng = SplitMix64(2024)
    for _ in range(200):
        dag = random_dag(rng, 2 + rng.below(39), 5 + rng.below(50))
        assert lower_bound(dag) == reference_bound(dag)


def test_lower_bound_equals_reference_packing_on_a_hard_cell():
    params = GenParams(n=250, p=0.15, s=125, seed=derive_seed(1, 0))
    funnel, _ = generate_planted_funnel(params)
    dag = add_noise_arcs(funnel, params.s, derive_seed(params.seed, 1))
    assert lower_bound(dag) == reference_bound(dag) == 66


def test_solver_bound_on_random_live_masks():
    # The solver's bound on a partly deleted graph equals the public bound on
    # the graph without those arcs, the reference packing on the live arcs,
    # and never exceeds the true remaining distance.  random_dag's arcs all
    # run forward, so deleting some keeps the identity topological order and
    # both packings scan the vertices alike.
    rng = SplitMix64(77)
    for _ in range(150):
        dag = random_dag(rng, 3 + rng.below(6), 30 + rng.below(40))
        dead = [a for a in range(dag.arc_count) if rng.below(100) < 30]
        alive = bytearray(b"\x01") * dag.arc_count
        for a in dead:
            alive[a] = 0
        rest = delete_arcs(dag, [dag.arcs[a] for a in dead])
        live_in = [rest.in_degree(v) for v in dag.vertices()]
        live_out = [rest.out_degree(v) for v in dag.vertices()]
        bound = _pack(dag, alive, live_in, live_out)
        assert bound == lower_bound(rest)
        assert bound == reference_bound(dag, set(rest.arcs))
        assert bound <= brute_force_addf(rest).distance


# ---- branch and bound vs brute force ----


def test_exact_on_named_graphs():
    for dag, want in [
        (PATH3, 0),
        (DIAMOND, 0),
        (D0, 1),
        (D1, 1),
        (obstruction(3), 1),
        (TIGHT_12, 2),
        (Dag(0), 0),
        (Dag(1), 0),
    ]:
        result = solve_addf(dag)
        assert result.distance == want
        check_result(dag, result)


def test_exact_matches_brute_force_on_random_dags():
    rng = SplitMix64(8)
    for _ in range(200):
        dag = random_dag(rng, 2 + rng.below(7), 45)
        fast = solve_addf(dag)
        slow = brute_force_addf(dag)
        assert fast.distance == slow.distance
        check_result(dag, fast)
        check_result(dag, slow)


def test_exact_on_disjoint_unions_adds_up():
    rng = SplitMix64(10)
    for _ in range(25):
        a = random_dag(rng, 2 + rng.below(5), 45)
        b = random_dag(rng, 2 + rng.below(5), 45)
        shift = a.vertex_count
        union = Dag(
            shift + b.vertex_count,
            list(a.arcs) + [(u + shift, v + shift) for u, v in b.arcs],
        )
        assert (
            solve_addf(union).distance
            == solve_addf(a).distance + solve_addf(b).distance
        )


def test_golden_trace_of_a_seeded_search():
    # The approximation's 2 is the incumbent; the Fork child is pruned on
    # its bound and the Merge child reaches the optimum 1.
    dag = Dag(
        7,
        [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (2, 3), (2, 4), (3, 5), (3, 6),
         (4, 6), (5, 6)],
    )
    trace = []
    result = Solver(dag, trace=trace.append).run()
    assert result.distance == 1
    assert trace == [
        "rr1 0 F",
        "rr1 1 F",
        "rr1 6 M",
        "rr1 4 M",
        "rr1 5 M",
        "br1 2 F",
        "rr2 1->2",
        "prune 1+1",
        "br1 2 M",
        "rr2 2->3",
        "rr1 3 F",
        "leaf 1",
        "best 1",
    ]


def _shuffled_random_dag(rng, n, arc_chance_pct):
    """``random_dag`` with its ids permuted, so that the topological order is
    not the identity."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    arcs = random_dag(rng, n, arc_chance_pct).arcs
    return Dag(n, [(perm[u], perm[v]) for u, v in arcs])


def test_golden_traces_on_shuffled_random_dags():
    # Every trace line of 200 seeded searches, hashed; the value was taken
    # from the recursive solver, so the explicit stack must make the same
    # moves in the same order.
    rng = SplitMix64(505)
    digest = hashlib.sha256()
    for _ in range(200):
        dag = _shuffled_random_dag(rng, 3 + rng.below(10), 40)
        lines = []
        solve_addf(dag, trace=lines.append)
        digest.update(("\n".join(lines) + "\n--\n").encode())
    assert digest.hexdigest() == (
        "172922240fa8c6130e1776f6a25a2d087496a763526e1dbad73eae1aff371fb8"
    )


class _Stop(Exception):
    pass


def test_search_stack_depth_does_not_grow_with_search_depth():
    # On 100 copies of G8 the root gap is 200 arcs, so the first 100
    # branches go ever deeper; the Python stack must not follow them.
    depths = []

    def hook(line):
        if line.startswith("br1"):
            depths.append(len(inspect.stack(0)))
            if len(depths) == 100:
                raise _Stop

    with pytest.raises(_Stop):
        Solver(disjoint_copies(G8, 100), trace=hook).run()
    assert max(depths) - min(depths) <= 3


def _desk_row(n, p, s, rep):
    """The instance of default-grid row ``n{n}-p{p}-s{s}-r{rep}`` (grid seed 1)."""
    for name, params in GridSpec(seed=1).instances():
        if name == f"n{n}-p{p}-s{s}-r{rep}":
            funnel, _ = generate_planted_funnel(params)
            return add_noise_arcs(funnel, params.s, derive_seed(params.seed, 1))
    raise KeyError(name)


@pytest.mark.parametrize(
    "row, distance, counters",
    [
        # (nodes, rr1, rr2, br1, br2, pruned, leaves), pinned from the
        # tuple-set solver; any change to the search shows up here.
        ((200, 0.85, 25, 2), 23, (45, 181, 571, 44, 0, 23, 0)),
        ((200, 0.15, 25, 5), 17, (35, 193, 149, 34, 0, 18, 0)),
    ],
)
def test_golden_search_statistics(row, distance, counters):
    result = solve_addf(_desk_row(*row))
    stats = result.stats
    assert result.distance == distance
    assert not stats.timed_out
    assert (
        stats.nodes, stats.rr1, stats.rr2, stats.br1, stats.br2, stats.pruned, stats.leaves
    ) == counters


def test_stats_are_populated():
    result = solve_addf(TIGHT_12)
    stats = result.stats
    assert stats.nodes >= 1
    assert stats.rr1 > 0
    assert stats.leaves >= 1
    assert not stats.timed_out


def test_upper_bound_cap_prunes_hopeless_search():
    # bound below the true distance: solver proves "> bound" quickly and
    # reports an incumbent above it
    result = solve_addf(TIGHT_12, initial_upper_bound=1)
    assert result.distance > 1


def test_upper_bound_cap_keeps_exactness_at_the_bound():
    result = solve_addf(TIGHT_12, initial_upper_bound=2)
    assert result.distance == 2


def test_time_limit_returns_incumbent():
    from funnelkit import add_noise_arcs

    hard = add_noise_arcs(extremal_funnel(40), 12, seed=3)
    result = solve_addf(hard, time_limit_ms=0.0)
    assert result.stats.timed_out
    check_result(hard, result)  # incumbent is still feasible


def test_zero_time_limit_with_the_gap_closed_at_the_root():
    # The root bound 1 meets the approximation's 1: nothing is left to
    # search, so the limit did not cut the search short.
    result = solve_addf(D0, time_limit_ms=0.0)
    assert result.distance == 1
    assert not result.stats.timed_out


def test_nested_obstructions():
    # center of one obstruction is the entry of another
    arcs = [(0, 2), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5), (5, 6), (5, 7)]
    dag = Dag(8, arcs)
    fast = solve_addf(dag)
    assert fast.distance == brute_force_addf(dag).distance == 2
    check_result(dag, fast)


# ---- oracles ----


def test_labeling_enumeration_matches_brute_force_on_random_dags():
    rng = SplitMix64(31)
    for _ in range(120):
        dag = random_dag(rng, 2 + rng.below(7), 45)
        assert labeling_enumeration_addf(dag) == brute_force_addf(dag).distance


def test_labeling_enumeration_matches_the_solver_on_shuffled_dags():
    rng = SplitMix64(606)
    for _ in range(300):
        dag = _shuffled_random_dag(rng, 3 + rng.below(9), 20 + rng.below(50))
        assert labeling_enumeration_addf(dag) == solve_addf(dag).distance


def test_oracles_agree_where_the_set_label_rule_fails():
    assert labeling_enumeration_addf(SET_LABEL_9) == 3
    assert brute_force_addf(SET_LABEL_9).distance == 3


@pytest.mark.xfail(
    reason="the degree-counting Fork and Merge cases of Solver._rule_label "
    "label a vertex without pricing its arcs to unlabeled neighbors",
)
def test_solver_finds_the_distance_where_the_set_label_rule_fails():
    assert solve_addf(SET_LABEL_9).distance == 3


def test_labeling_enumeration_caps_size():
    with pytest.raises(TooLarge):
        labeling_enumeration_addf(Dag(15))
    assert labeling_enumeration_addf(Dag(0)) == 0


# ---- brute force ----


def test_brute_force_caps_size():
    with pytest.raises(TooLarge):
        brute_force_addf(extremal_funnel(12), max_arcs=24)


def test_brute_force_on_funnel_is_zero():
    result = brute_force_addf(DIAMOND)
    assert result.distance == 0
    assert result.deletion_set == frozenset()
