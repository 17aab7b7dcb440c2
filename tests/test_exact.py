import ast
import hashlib
import inspect
from collections import Counter, defaultdict, deque
from pathlib import Path

import pytest

from funnelkit import (
    Dag,
    GenParams,
    GridSpec,
    Solver,
    SplitMix64,
    TooLarge,
    add_noise_arcs,
    approximate_addf,
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
from funnelkit import exact
from funnelkit.analysis import doomed_arcs
from funnelkit.exact import _pack
from funnelkit.labeling import Label
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
    shuffled_random_dag,
)


def _hard_cell(p: float) -> Dag:
    """A ROADMAP large-grid cell: n=250, density p, s=125, base seed 1."""
    params = GenParams(n=250, p=p, s=125, seed=derive_seed(1, 0))
    funnel, _ = generate_planted_funnel(params)
    return add_noise_arcs(funnel, params.s, derive_seed(params.seed, 1))


HARD_CELL = _hard_cell(0.15)  # m = 1,551
DENSE_CELL = _hard_cell(0.85)  # m = 7,088


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


def full_pack(dag, owner=None, need=None) -> int:
    """The solver's packing over every arc of ``dag``, without the stars."""
    return _pack(
        dag,
        bytearray(b"\x01") * dag.arc_count,
        [dag.in_degree(v) for v in dag.vertices()],
        [dag.out_degree(v) for v in dag.vertices()],
        dag.out_off,
        dag.in_off,
        owner,
        need,
    )


def test_packing_equals_reference_packing_on_random_dags():
    rng = SplitMix64(2024)
    for _ in range(200):
        dag = random_dag(rng, 2 + rng.below(39), 5 + rng.below(50))
        assert full_pack(dag) == reference_bound(dag)


def test_packing_equals_reference_packing_on_a_hard_cell():
    assert full_pack(HARD_CELL) == reference_bound(HARD_CELL) == 66


def is_obstruction(arcs) -> bool:
    """Whether the arc pairs are exactly two in-arcs into some v, a path
    from v to some x (empty when x is v) and two out-arcs at x."""
    ins, outs = Counter(w for _, w in arcs), Counter(u for u, _ in arcs)
    entries = [w for w, k in ins.items() if k >= 2]
    forks = [u for u, k in outs.items() if k >= 2]
    if len(entries) != 1 or len(forks) != 1 or max(ins.values()) > 2 or max(outs.values()) > 2:
        return False
    v, x = entries[0], forks[0]
    path = {u: w for u, w in arcs if w != v and u != x}
    if len(path) + 4 != len(arcs):
        return False
    while v != x:
        if v not in path:
            return False
        v = path.pop(v)
    return not path


def obstruction_groups(owner) -> dict:
    """Arc ids by the number ``_pack`` recorded for them in ``owner``."""
    groups = defaultdict(list)
    for a, i in owner.items():
        groups[i].append(a)
    return groups


def test_the_obstruction_checker():
    assert is_obstruction([(0, 2), (1, 2), (2, 3), (2, 4)])
    assert is_obstruction([(0, 2), (1, 2), (2, 5), (5, 6), (6, 3), (6, 4)])
    assert not is_obstruction([(0, 2), (1, 2), (2, 5), (6, 3), (6, 4)])  # gap in the path
    assert not is_obstruction([(0, 2), (1, 2), (2, 5), (5, 6), (6, 3)])  # one out-arc
    assert not is_obstruction([(0, 2), (1, 2), (2, 3), (2, 4), (7, 8)])  # a stray arc
    assert not is_obstruction([(0, 2), (1, 2), (9, 2), (2, 3), (2, 4)])  # three in-arcs


def test_packing_records_its_obstructions_and_stops_at_need():
    # The owner map splits into ``count`` arc-disjoint obstructions, and
    # ``need`` cuts the count off exactly where it reaches ``need``.
    rng = SplitMix64(2425)
    stopped = 0
    for _ in range(200):
        dag = random_dag(rng, 2 + rng.below(39), 5 + rng.below(50))
        owner = {}
        count = full_pack(dag, owner)
        groups = obstruction_groups(owner)
        assert sorted(groups) == list(range(1, count + 1))
        assert all(is_obstruction([dag.arcs[a] for a in ids]) for ids in groups.values())
        for need in range(1, count + 3):
            assert full_pack(dag, {}, need) == min(count, need)
            stopped += need <= count
    assert stopped == 2182


def test_solver_bound_on_random_live_masks():
    # The solver's bound on a partly deleted graph equals the packing over
    # all arcs of the graph without those arcs, the reference packing on the
    # live arcs, and never exceeds the true remaining distance.  random_dag's
    # arcs all run forward, so deleting some keeps the identity topological
    # order and the packings scan the vertices alike.
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
        bound = _pack(dag, alive, live_in, live_out, dag.out_off, dag.in_off)
        assert bound == full_pack(rest)
        assert bound == reference_bound(dag, set(rest.arcs))
        assert bound <= brute_force_addf(rest).distance


# ---- vertex stars ahead of the packing ----


def reference_stars(dag) -> tuple[int, set]:
    """Stars over arc tuples: the deletions they force and the arcs left.

    A vertex v with ``need = min(in(v), out(v)) >= 3`` whose neighbors are
    not star centers becomes one, largest ``need`` first and ties by id.
    """
    need = {v: min(dag.in_degree(v), dag.out_degree(v)) for v in dag.vertices()}
    free = set(dag.arcs)
    centers: set[int] = set()
    count = 0
    for v in sorted(dag.vertices(), key=lambda v: (-need[v], v)):
        neighbors = set(dag.in_neighbors(v)) | set(dag.out_neighbors(v))
        if need[v] < 3 or neighbors & centers:
            continue
        centers.add(v)
        count += need[v] - 1
        free -= {(u, v) for u in dag.in_neighbors(v)}
        free -= {(v, w) for w in dag.out_neighbors(v)}
    return count, free


def reference_lower_bound(dag) -> int:
    count, free = reference_stars(dag)
    return count + reference_bound(dag, free)


def test_lower_bound_equals_reference_stars_and_packing_on_shuffled_dags():
    rng = SplitMix64(2024)
    fired = 0
    for _ in range(200):
        dag = shuffled_random_dag(rng, 2 + rng.below(39), 5 + rng.below(50))
        assert lower_bound(dag) == reference_lower_bound(dag)
        fired += reference_stars(dag)[0] > 0
    assert fired == 101  # draws on which at least one star is taken


def test_lower_bound_on_a_hard_cell():
    # Stars lift the root bound from the packing's 66 toward the
    # approximation's 81.
    assert lower_bound(HARD_CELL) == reference_lower_bound(HARD_CELL) == 75
    assert approximate_addf(HARD_CELL).size == 81


def test_lower_bound_never_exceeds_the_distance_of_dense_dags():
    # Dense enough that most draws take a star, small enough for the
    # labeling oracle; a star that counted need(v) deletions instead of
    # need(v) - 1 fails here.
    rng = SplitMix64(909)
    fired = 0
    for _ in range(60):
        dag = shuffled_random_dag(rng, 8 + rng.below(6), 50 + rng.below(30))
        lo = lower_bound(dag)
        assert lo <= labeling_enumeration_addf(dag)
        fired += reference_stars(dag)[0] > 0
    assert fired >= 40


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


def _golden_dags():
    """The 200 seeded DAGs of the golden traces (3 to 12 vertices)."""
    rng = SplitMix64(505)
    return [shuffled_random_dag(rng, 3 + rng.below(10), 40) for _ in range(200)]


def _mask_bound(line: str) -> str:
    """A trace line with the bound ``B`` of ``prune N+B`` masked."""
    head, plus, _ = line.partition("+")
    return head + "+B" if plus and line.startswith("prune ") else line


def test_golden_traces_on_shuffled_random_dags():
    # Every trace line of 200 seeded searches, hashed.  With the bounds of
    # the prune lines masked, the value was taken from the recursive solver
    # and again before packings were reused, so the search must make the
    # same moves in the same order.  The full digest pins the bounds too.
    # The Solver runs directly: solve_addf would certify most of these at
    # the root without a search.
    digest, masked = hashlib.sha256(), hashlib.sha256()
    for dag in _golden_dags():
        lines = []
        Solver(dag, trace=lines.append).run()
        digest.update(("\n".join(lines) + "\n--\n").encode())
        masked.update(("\n".join(map(_mask_bound, lines)) + "\n--\n").encode())
    assert masked.hexdigest() == (
        "86dec49649f622d43f3628d7ce79755f0b006025332489804339dd66cd888bf0"
    )
    assert digest.hexdigest() == (
        "ed3cbf126db13e7fca180da19802f75084049e3e07c4ef3a146cde353d0e141a"
    )


def test_certified_roots_agree_with_the_search_and_the_oracle():
    # Where the root bound meets the approximation, solve_addf returns it
    # after one pruned node; everywhere else it makes the Solver's moves.
    certified = 0
    for dag in _golden_dags():
        lines, searched = [], []
        result = solve_addf(dag, trace=lines.append)
        full = Solver(dag, trace=searched.append).run()
        bound = lower_bound(dag)
        assert result.stats.lower_bound == bound
        if bound >= approximate_addf(dag).size:
            certified += 1
            assert result.stats.nodes == result.stats.pruned == 1
            assert lines == [f"prune 0+{bound}"]
            assert result.distance == full.distance == labeling_enumeration_addf(dag)
            assert is_funnel_degree(delete_arcs(dag, result.deletion_set))
        else:
            assert lines == searched
            assert result.distance == full.distance
    assert certified == 190


def _solver_builds(node, where):
    """The innermost enclosing function of every ``Solver(...)`` call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            if getattr(func, "id", getattr(func, "attr", None)) == "Solver":
                yield where
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from _solver_builds(child, inner)


def test_only_solve_addf_builds_a_solver():
    # One exact entry point: the certificate, the time limit and any span
    # on the search live in solve_addf, so nothing else under src/ runs a
    # Solver.
    builds = [
        (path.name, where)
        for path in sorted(Path(exact.__file__).parent.glob("*.py"))
        for where in _solver_builds(ast.parse(path.read_text(encoding="utf-8")), None)
    ]
    assert builds == [("exact.py", "solve_addf")]


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
        # tuple-set solver; any change to the search shows up here.  Then
        # (packs, reused): fresh packings, and prunes on the parent's.
        ((200, 0.85, 25, 2), 23, (45, 181, 571, 44, 0, 23, 0, 22, 9)),
        ((200, 0.15, 25, 5), 17, (35, 193, 149, 34, 0, 18, 0, 17, 12)),
    ],
)
def test_golden_search_statistics(row, distance, counters):
    # The Solver runs directly: solve_addf certifies the first row at its
    # root (bound 23, approximation 23) without a search.
    result = Solver(_desk_row(*row)).run()
    stats = result.stats
    assert result.distance == distance
    assert not stats.timed_out
    assert (
        stats.nodes, stats.rr1, stats.rr2, stats.br1, stats.br2, stats.pruned, stats.leaves,
        stats.packs, stats.reused,
    ) == counters


class _Budget:
    """Trace hook that keeps the lines and stops the search, with
    :class:`_Stop`, where node ``budget + 1`` would start."""

    def __init__(self, budget):
        self.budget, self.nodes, self.lines = budget, 1, []

    def __call__(self, line):
        if line.startswith("br1 "):
            if self.nodes == self.budget:
                raise _Stop
            self.nodes += 1
        self.lines.append(line)


@pytest.mark.parametrize(
    "dag, budget, counters, masked, digest",
    [
        # (nodes, rr1, rr2, br1, pruned, leaves, incumbent) and the masked
        # digest, pinned before the packing and the reduction were rewritten
        # and again before packings were reused; the full digest pins the
        # prune bounds too.
        (HARD_CELL, 400, (400, 377, 1936, 399, 190, 0, 81),
         "c19d36112837189a7e7923815c45f989ae220488aee80fc7da9674e307cd5897",
         "6601ea782618c16ac2dffa1e089d5fce09609e7902f557412bf35812ae9a2336"),
        (DENSE_CELL, 200, (200, 424, 3179, 199, 96, 0, 117),
         "6cdba20e477c563a42da74a3dcf1c09769e10a77e021bc9c7e074e6edc358e34",
         "e5b4919eab10923bbc60800ae72311010a63fe59d87076a0fa2d75bf51ac6fc0"),
    ],
    ids=["sparse", "dense"],
)
def test_golden_budgeted_searches_on_large_cells(dag, budget, counters, masked, digest):
    # The first nodes of two n=250 cells: long and dense walks in the
    # packing, and keep-rule calls at live degree 2 and more, which the
    # small golden searches do not reach.
    hook = _Budget(budget)
    with pytest.raises(_Stop):
        Solver(dag, trace=hook).run()
    kinds = [line.split(" ", 1)[0] for line in hook.lines]
    best = [int(line.split()[1]) for line in hook.lines if line.startswith("best ")]
    incumbent = best[-1] if best else approximate_addf(dag).size
    assert (
        hook.nodes, *map(kinds.count, ("rr1", "rr2", "br1", "prune", "leaf")), incumbent
    ) == counters
    text = "\n".join(map(_mask_bound, hook.lines)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == masked
    text = "\n".join(hook.lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_survivor_prunes_rest_on_live_disjoint_obstructions(monkeypatch):
    # At every prune settled by the parent's packing, the parent's
    # obstructions whose arcs are all still live are checked afresh: each
    # is an obstruction, they share no arc, and they are the bound traced.
    node, checked = Solver._node, []

    def checking(self, v, mark, parent):
        reused = self.stats.reused
        branch = node(self, v, mark, parent)
        if self.stats.reused > reused:
            arcs, groups = self.dag.arcs, obstruction_groups(parent[1])
            assert len(groups) == parent[0]
            survivors = [ids for ids in groups.values() if all(self._alive[a] for a in ids)]
            assert all(is_obstruction([arcs[a] for a in ids]) for ids in survivors)
            assert self._trace.lines[-1] == f"prune {self._deleted}+{len(survivors)}"
            assert self._deleted + len(survivors) >= self._cutoff
            checked.append(len(survivors))
        return branch

    monkeypatch.setattr(Solver, "_node", checking)
    for dag in _golden_dags():
        Solver(dag, trace=_Budget(10**6)).run()
    golden = len(checked)
    with pytest.raises(_Stop):
        Solver(DENSE_CELL, trace=_Budget(200)).run()
    assert (golden, len(checked) - golden) == (20, 67)


def test_solver_matches_the_labeling_oracle_on_shuffled_dags():
    # The cross-check for solver speedups: the Solver's search (not the
    # certified root of solve_addf) against the labeling oracle, and every
    # deletion set leaves a funnel.
    rng = SplitMix64(2412)
    reused = 0
    for _ in range(3000):
        dag = shuffled_random_dag(rng, 2 + rng.below(11), 20 + rng.below(60))
        result = Solver(dag).run()
        assert result.distance == labeling_enumeration_addf(dag)
        assert is_funnel_degree(delete_arcs(dag, result.deletion_set))
        reused += result.stats.reused
    assert reused == 1806


def test_packing_on_the_live_masks_of_a_real_search(monkeypatch):
    # The masks and live degrees that the solver hands to the packing at the
    # first 50 nodes of the dense cell, partly deleted by the reductions.
    seen = []

    # A packing that stopped at ``need`` is checked to reach it.
    seen = []

    def record(dag, alive, live_in, live_out, out_off, in_off, owner, need):
        assert (out_off, in_off) == (tuple(dag.out_off), tuple(dag.in_off))
        bound = _pack(dag, alive, live_in, live_out, out_off, in_off, owner, need)
        seen.append((bytes(alive), list(live_in), list(live_out), bound, need))
        return bound

    monkeypatch.setattr(exact, "_pack", record)
    with pytest.raises(_Stop):
        Solver(DENSE_CELL, trace=_Budget(50)).run()
    dag = DENSE_CELL
    completed = 0
    for alive, live_in, live_out, bound, need in seen:
        live = {dag.arcs[a] for a in range(dag.arc_count) if alive[a]}
        assert live_in == [sum(alive[a] for a in dag.in_arcs(v)) for v in dag.vertices()]
        assert live_out == [sum(alive[a] for a in dag.out_arcs(v)) for v in dag.vertices()]
        if bound < need:
            completed += 1
            assert bound == reference_bound(dag, live)
        else:
            assert bound == need <= reference_bound(dag, live)
    assert (len(seen), completed) == (27, 24)


def _guard_skips(dag, v, labels, alive) -> bool:
    """The solver's test ahead of the keep rule: labeled ``v`` has no live
    arc on its constrained side, or one whose far end is not labeled with
    the opposite label."""
    if labels[v] is Label.FORK:
        ends, other = [dag.tails[a] for a in dag.in_arcs(v) if alive[a]], Label.MERGE
    else:
        ends, other = [dag.heads[a] for a in dag.out_arcs(v) if alive[a]], Label.FORK
    return not ends or len(ends) == 1 and labels[ends[0]] is not other


def test_the_keep_side_guard_skips_only_vertices_the_rule_leaves_alone():
    # Random partial labelings and masks: every vertex the guard passes
    # over has no doomed arc, and the solver's reduction from that state,
    # with every vertex queued, leaves no labeled vertex with one.
    rng = SplitMix64(1616)
    skipped = 0
    for _ in range(300):
        dag = shuffled_random_dag(rng, 2 + rng.below(11), 20 + rng.below(60))
        labels = [(None, Label.FORK, Label.MERGE)[rng.below(3)] for _ in dag.vertices()]
        alive = bytearray(int(rng.below(100) < 70) for _ in range(dag.arc_count))
        for v in dag.vertices():
            if labels[v] is not None and _guard_skips(dag, v, labels, alive):
                skipped += 1
                assert doomed_arcs(dag, v, labels, alive) == []
        solver = Solver(dag)
        solver._labels[:], solver._alive[:] = labels, alive
        solver._alive_in[:] = bytes(alive[a] for a in dag.in_ids)
        solver._live_in[:] = [sum(alive[a] for a in dag.in_arcs(v)) for v in dag.vertices()]
        solver._live_out[:] = [sum(alive[a] for a in dag.out_arcs(v)) for v in dag.vertices()]
        solver._reduce(None)
        for v in dag.vertices():
            if solver._labels[v] is not None:
                assert doomed_arcs(dag, v, solver._labels, solver._alive) == []
    assert skipped == 765  # of 1,327 labeled vertices, 218 with one live arc


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
        dag = shuffled_random_dag(rng, 3 + rng.below(9), 20 + rng.below(50))
        assert labeling_enumeration_addf(dag) == solve_addf(dag).distance


def test_oracles_agree_where_the_set_label_rule_fails():
    assert labeling_enumeration_addf(SET_LABEL_9) == 3
    assert brute_force_addf(SET_LABEL_9).distance == 3


@pytest.mark.xfail(
    reason="the degree-counting Fork and Merge cases of the set-label rule "
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
