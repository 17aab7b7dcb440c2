import ast
import copy
import hashlib
import inspect
import operator
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


def full_pack(dag, owner=None, obs=None, need=None) -> int:
    """The solver's packing over every arc of ``dag``, without the stars;
    it records its obstructions in ``owner`` and ``obs`` when given."""
    return _pack(
        dag,
        bytearray(b"\x01") * dag.arc_count,
        [dag.in_degree(v) for v in dag.vertices()],
        [dag.out_degree(v) for v in dag.vertices()],
        dag.out_off,
        dag.in_off,
        {} if owner is None else owner,
        {} if obs is None else obs,
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
        owner, obs = {}, {}
        count = full_pack(dag, owner, obs)
        groups = obstruction_groups(owner)
        assert sorted(groups) == list(range(1, count + 1))
        assert {i: sorted(ids) for i, ids in obs.items()} == {
            i: sorted(ids) for i, ids in groups.items()
        }
        assert all(is_obstruction([dag.arcs[a] for a in ids]) for ids in groups.values())
        for need in range(1, count + 3):
            assert full_pack(dag, {}, {}, need) == min(count, need)
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
        bound = _pack(dag, alive, live_in, live_out, dag.out_off, dag.in_off, {}, {})
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
    # and again before packings were reused; it moved once, when children
    # began to repair their parent's packing instead of packing afresh, a
    # packing as sound and as maximal that prunes other nodes.  The full
    # digest pins the bounds too.  The Solver runs directly: solve_addf
    # would certify most of these at the root without a search.
    digest, masked = hashlib.sha256(), hashlib.sha256()
    for dag in _golden_dags():
        lines = []
        Solver(dag, trace=lines.append).run()
        digest.update(("\n".join(lines) + "\n--\n").encode())
        masked.update(("\n".join(map(_mask_bound, lines)) + "\n--\n").encode())
    assert masked.hexdigest() == (
        "893e99522ed678883c0f883ee75d086741fca7dfc4133f09230a986a9e55637d"
    )
    assert digest.hexdigest() == (
        "2fbd8cd54276233c676665c74429f01c2726789c0b1960044d505c3abf354d42"
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
        # (packs, reused, repairs): packings at nodes, prunes on the
        # parent's survivors, and the packings repaired from a parent's.
        ((200, 0.85, 25, 2), 23, (45, 181, 571, 44, 0, 23, 0, 22, 9, 21)),
        ((200, 0.15, 25, 5), 17, (35, 193, 149, 34, 0, 18, 0, 17, 12, 16)),
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
        stats.packs, stats.reused, stats.repairs,
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
        # prune bounds too.  The sparse cell moved when children began to
        # repair their parent's packing; the dense one did not.
        (HARD_CELL, 400, (400, 352, 1918, 399, 189, 0, 81),
         "3c351a2e2683a961bd6c8a8754014cb0861679b3688c1fc3478602fb8da4f037",
         "82c38460c6809940640f0e4d2e5ecab070e04fe54c71e100422b55f12cc1ca7c"),
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
    # is an obstruction, they share no arc, and they are the bound that the
    # node's next trace line gives.
    bound_of, checked, expected = Solver._bound, [], []

    def checking(self, parent, mark, need):
        reused = self.stats.reused
        bound, packing = bound_of(self, parent, mark, need)
        if self.stats.reused > reused:
            arcs = self.dag.arcs
            survivors = [ids for ids in parent[1].values() if all(self._alive[a] for a in ids)]
            used = [a for ids in survivors for a in ids]
            assert len(used) == len(set(used))
            assert all(is_obstruction([arcs[a] for a in ids]) for ids in survivors)
            assert (bound, packing) == (len(survivors), None)
            assert self._deleted + bound >= self._cutoff
            expected.append(f"prune {self._deleted}+{bound}")
            checked.append(bound)
        return bound, packing

    def hook(budget):
        def trace(line):
            if expected:
                assert line == expected.pop()
            budget(line)

        return trace

    monkeypatch.setattr(Solver, "_bound", checking)
    for dag in _golden_dags():
        Solver(dag, trace=hook(_Budget(10**6))).run()
    golden = len(checked)
    with pytest.raises(_Stop):
        Solver(DENSE_CELL, trace=hook(_Budget(200))).run()
    assert not expected
    assert (golden, len(checked) - golden) == (21, 67)


def test_a_child_that_deleted_no_arc_gets_its_parents_packing_itself(monkeypatch):
    # Every child of a budgeted search on the sparse cell, by the packing
    # _bound gives it: none when the parent's survivors settle its prune,
    # the parent's record itself (no copy) when its trail since its mark
    # holds no arc, and otherwise a repaired record that shares nothing
    # with the parent's.
    bound_of, kinds = Solver._bound, Counter()

    def checking(self, parent, mark, need):
        bound, packing = bound_of(self, parent, mark, need)
        if parent is not None:
            deleted = any(a >= 0 for a in self._trail[mark:])
            if packing is None:
                kinds["survivors"] += 1
                assert bound >= need
            elif packing is parent:
                kinds["kept"] += 1
                assert not deleted and bound == len(parent[1]) < need
            else:
                kinds["repaired"] += 1
                assert deleted and not any(map(operator.is_, packing, parent))
        return bound, packing

    monkeypatch.setattr(Solver, "_bound", checking)
    with pytest.raises(_Stop):
        Solver(HARD_CELL, trace=_Budget(400)).run()
    assert kinds == {"survivors": 183, "kept": 19, "repaired": 197}


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
    assert reused == 1815


def test_packing_on_the_live_masks_of_a_real_search(monkeypatch):
    # The masks and degrees that the solver hands to the packing at the
    # first 50 nodes of the dense cell, partly deleted by the reductions:
    # every one's degrees are its mask's.  The root packs the live arcs
    # afresh, so it equals the reference greedy on them, or reaches ``need``
    # where it stopped there.  A repaired packing is another maximal packing
    # of the same arcs, not the fresh greedy's, so the certificate test
    # checks those instead.
    seen = []

    def record(dag, free, free_in, free_out, out_off, in_off, owner, obs, need, starts):
        assert (out_off, in_off) == (tuple(dag.out_off), tuple(dag.in_off))
        mask = bytes(free), list(free_in), list(free_out)
        bound = _pack(dag, free, free_in, free_out, out_off, in_off, owner, obs, need, starts)
        seen.append((*mask, bound, need, starts is None))
        return bound

    monkeypatch.setattr(exact, "_pack", record)
    with pytest.raises(_Stop):
        Solver(DENSE_CELL, trace=_Budget(50)).run()
    dag = DENSE_CELL
    roots = 0
    for free, free_in, free_out, bound, need, root in seen:
        assert free_in == [sum(free[a] for a in dag.in_arcs(v)) for v in dag.vertices()]
        assert free_out == [sum(free[a] for a in dag.out_arcs(v)) for v in dag.vertices()]
        if root:
            roots += 1
            live = {dag.arcs[a] for a in range(dag.arc_count) if free[a]}
            if bound < need:
                assert bound == reference_bound(dag, live)
            else:
                assert bound == need <= reference_bound(dag, live)
    assert (len(seen), roots) == (27, 1)


# ---- repaired packings ----


def check_packing(dag, alive, owner, obs, state, complete) -> None:
    """A node's packing against checkers that share no code with ``_pack``.

    Its obstructions are live, pairwise arc-disjoint obstructions, ``owner``
    numbers their arcs as ``obs`` lists them, and the state ``(free, free_in,
    free_out)`` is the live arcs they leave, with recounted degrees.  A
    ``complete`` packing is maximal: the arcs it leaves hold no obstruction.
    """
    free, free_in, free_out = state
    used = [a for ids in obs.values() for a in ids]
    assert len(used) == len(set(used))
    assert all(alive[a] for a in used)
    assert all(is_obstruction([dag.arcs[a] for a in ids]) for ids in obs.values())
    assert owner == {a: i for i, ids in obs.items() for a in ids}
    rest = {a for a in range(dag.arc_count) if alive[a]} - set(used)
    assert [a for a in range(dag.arc_count) if free[a]] == sorted(rest)
    assert free_in == [sum(a in rest for a in dag.in_arcs(v)) for v in dag.vertices()]
    assert free_out == [sum(a in rest for a in dag.out_arcs(v)) for v in dag.vertices()]
    if complete:
        assert reference_bound(dag, {dag.arcs[a] for a in rest}) == 0


def test_every_packing_of_a_search_is_a_certificate(monkeypatch):
    # Every packing a node computes, the root's and every repair, is checked
    # on the live mask it was computed for: shuffled DAGs searched to the
    # end, then the first 200 nodes of the two n=250 cells.
    solver, kinds = None, Counter()

    def checked(dag, free, free_in, free_out, out_off, in_off, owner, obs, need, starts):
        bound = _pack(dag, free, free_in, free_out, out_off, in_off, owner, obs, need, starts)
        assert bound == len(obs) + (bound == need)
        check_packing(dag, solver._alive, owner, obs, (free, free_in, free_out), bound < need)
        kinds["root" if starts is None else "repair", bound < need] += 1
        return bound

    monkeypatch.setattr(exact, "_pack", checked)
    rng = SplitMix64(2525)
    searches = [
        (shuffled_random_dag(rng, 2 + rng.below(11), 20 + rng.below(60)), None)
        for _ in range(1500)
    ] + [(HARD_CELL, _Budget(200)), (DENSE_CELL, _Budget(200))]
    packs = repairs = stopped = 0
    for dag, budget in searches:
        solver = Solver(dag, trace=budget)
        try:
            solver.run()
        except _Stop:
            stopped += 1
        packs += solver.stats.packs
        repairs += solver.stats.repairs
    # Packings by (kind, complete): an incomplete one stopped where it
    # reached ``need``.  The stats count every packing and every repair.
    assert kinds == {
        ("root", True): 305, ("root", False): 336,
        ("repair", True): 1273, ("repair", False): 307,
    }
    assert (packs, repairs, stopped) == (2221, 1580, 2)


def test_a_repair_walks_the_chains_into_a_released_tail(monkeypatch):
    # The parent's packing is the one obstruction 2,5 -> 6 -> 8,9, and it
    # is maximal: the chain 3 -> 4 -> 5 -> 7 from the two in-arcs of 3 dies
    # at the sink 7.  Deleting 2->6 loses it and releases 5->6, 6->8 and
    # 6->9, so 5 forks, and the one new obstruction starts at 3, two chain
    # hops above the tail 5 of the released 5->6.  A repair that started
    # only from the released arcs' heads and tails would miss it.  The
    # solver's _bound repairs the packing here, with the deletion of 2->6
    # as the child's whole trail.
    dag = Dag(10, [(0, 3), (1, 3), (3, 4), (4, 5), (5, 6), (5, 7), (2, 6), (6, 8), (6, 9)])
    assert dag.topo_order == tuple(range(10))
    ids = {arc: a for a, arc in enumerate(dag.arcs)}
    held = [ids[arc] for arc in ((5, 6), (2, 6), (6, 8), (6, 9))]
    free = bytearray(b"\x01") * dag.arc_count
    for a in held:
        free[a] = 0

    def degrees(mask):
        return (
            [sum(mask[a] for a in dag.in_arcs(v)) for v in dag.vertices()],
            [sum(mask[a] for a in dag.out_arcs(v)) for v in dag.vertices()],
        )

    solver = Solver(dag)
    parent = dict.fromkeys(held, 1), {1: held}, free, *degrees(free)
    check_packing(dag, solver._alive, *parent[:2], parent[2:], complete=True)
    before = copy.deepcopy(parent)
    solver._alive[ids[(2, 6)]] = 0
    solver._trail.append(ids[(2, 6)])
    seen = []

    def record(dag, free, free_in, free_out, out_off, in_off, owner, obs, need, starts):
        seen.append((dict(owner), dict(obs), (bytearray(free), free_in[:], free_out[:]), starts))
        return _pack(dag, free, free_in, free_out, out_off, in_off, owner, obs, need, starts)

    monkeypatch.setattr(exact, "_pack", record)
    bound, packing = solver._bound(parent, 0, 2)
    [(owner, obs, state, starts)] = seen
    assert (owner, obs, starts) == ({}, {}, [0, 1, 3, 4, 5, 6, 8, 9])
    check_packing(dag, solver._alive, owner, obs, state, complete=False)
    # From the released arcs' heads and tails alone the greedy finds nothing
    # and leaves an obstruction among the free arcs.
    plain = bytearray(state[0]), list(state[1]), list(state[2])
    assert _pack(dag, *plain, dag.out_off, dag.in_off, {}, {}, None, [5, 6, 8, 9]) == 0
    assert reference_bound(dag, {dag.arcs[a] for a in range(dag.arc_count) if plain[0][a]}) == 1
    assert bound == 1
    owner, obs, *state = packing
    assert obs == {1: [ids[arc] for arc in ((3, 4), (4, 5), (5, 6), (5, 7), (0, 3), (1, 3))]}
    check_packing(dag, solver._alive, owner, obs, state, complete=True)
    # The repair worked on a copy: the parent's record is as it was.
    assert parent == before


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
